//! Property tests for the `ckpt_v2` wire format (proptest-lite):
//!
//! 1. encode → decode is the identity on arbitrary valid snapshots;
//! 2. **every** single-byte truncation of a valid checkpoint is rejected
//!    with the typed `corrupt_checkpoint` error — never a panic;
//! 3. **every** single-bit flip is likewise rejected (the header fields
//!    are validated individually; the payload is covered by CRC-32,
//!    which detects all single-bit errors by construction).
//!
//! The flip/truncation sweeps are exhaustive *per checkpoint*; the
//! property layer varies the checkpoint being garbled.

use ckpt::{codec, Snapshot, SwapCounters};
use fault::inject;
use graphcore::Edge;
use proptest_lite::prelude::*;
use swap::{IterationStats, MixState, StopRule};

/// Deterministically grow an arbitrary-but-valid snapshot from a seed.
fn arbitrary_snapshot(seed: u64) -> Snapshot {
    let mut rng = TestRng::new(seed);
    let num_vertices = 2 + rng.below(60) as usize;
    let m = rng.below(50) as usize;
    let edges: Vec<Edge> = (0..m)
        .map(|_| {
            let a = rng.below(num_vertices as u64) as u32;
            let b = rng.below(num_vertices as u64) as u32;
            Edge::new(a, b)
        })
        .collect();
    let swapped: Vec<bool> = (0..m).map(|_| rng.below(2) == 1).collect();
    let completed_sweeps = rng.below(6);
    let iterations: Vec<IterationStats> = (0..completed_sweeps)
        .map(|_| IterationStats {
            attempted_pairs: rng.below(1 << 20),
            successful_swaps: rng.below(1 << 20),
            ever_swapped_fraction: rng.below(1001) as f64 / 1000.0,
            self_loops: rng.below(100),
            multi_edges: rng.below(100),
            deg_product_sum: rng.below(1 << 40) as f64 - (1u64 << 39) as f64,
            wedge_sketch: rng.below(1 << 40) as f64,
        })
        .collect();
    let stop = match rng.below(2) {
        0 => StopRule::FixedSweeps,
        _ => {
            let window = 2 + rng.below(510) as u32;
            StopRule::Converged {
                min_ess: 1 + rng.below(u64::from(window)) as u32,
                window,
            }
        }
    };
    Snapshot {
        state: MixState {
            num_vertices,
            edges,
            swapped,
            completed_sweeps,
            seed: rng.next_u64(),
            sweep_budget: completed_sweeps + rng.below(1000),
            stop,
            track_violations: rng.below(2) == 1,
            track_diagnostics: rng.below(2) == 1,
            iterations,
        },
        counters: SwapCounters {
            sweeps: rng.below(1 << 30),
            proposals: rng.below(1 << 30),
            accepts: rng.below(1 << 30),
            reject_self_loop: rng.below(1 << 20),
            reject_duplicate: rng.below(1 << 20),
            reject_exists: rng.below(1 << 20),
            reject_singleton: rng.below(1 << 20),
            reject_conflict: rng.below(1 << 20),
            grow_retries: rng.below(100),
            serial_fallbacks: rng.below(100),
            fault_events: rng.below(1 << 20),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn prop_encode_decode_is_identity(seed in any::<u64>()) {
        let snap = arbitrary_snapshot(seed);
        let bytes = codec::encode(&snap);
        let back = codec::decode(&bytes, "mem");
        prop_assert!(back.is_ok(), "valid snapshot rejected: {:?}", back.err());
        prop_assert_eq!(back.expect("checked ok"), snap);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn prop_every_truncation_is_rejected_typed(seed in any::<u64>()) {
        let bytes = codec::encode(&arbitrary_snapshot(seed));
        for len in 0..bytes.len() {
            match codec::decode(&inject::truncate_bytes(&bytes, len), "trunc") {
                Err(e) => prop_assert_eq!(
                    e.error_code(),
                    "corrupt_checkpoint",
                    "truncation to {} bytes: {}",
                    len,
                    e
                ),
                Ok(_) => prop_assert!(false, "truncation to {} bytes accepted", len),
            }
        }
        // One byte too many is equally corrupt.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(codec::decode(&long, "long").is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn prop_every_single_bit_flip_is_rejected_typed(seed in any::<u64>()) {
        let bytes = codec::encode(&arbitrary_snapshot(seed));
        for bit in 0..bytes.len() * 8 {
            match codec::decode(&inject::flip_bit(&bytes, bit), "flip") {
                Err(e) => prop_assert_eq!(
                    e.error_code(),
                    "corrupt_checkpoint",
                    "bit {} flip: {}",
                    bit,
                    e
                ),
                Ok(_) => prop_assert!(false, "bit {} flip accepted", bit),
            }
        }
    }
}
