//! Crash-consistent checkpoints for long mixing runs.
//!
//! A checkpoint is a [`Snapshot`]: the full resumable [`MixState`] of a
//! swap-MCMC run (edge list in slot order, ever-swapped flags, completed
//! sweep count — which *is* the RNG stream position — seed, stop rule,
//! and per-sweep statistics) plus the accumulated [`SwapCounters`] so
//! observability survives a restart. Snapshots serialize to the
//! versioned, CRC-checked `ckpt_v2` binary format ([`codec`]) and are
//! persisted with [`write_atomic`]: bytes go to a temporary sibling
//! file, the file is fsynced, renamed over the target, and the parent
//! directory is fsynced. A crash at any instant therefore leaves either
//! the previous complete checkpoint or the new complete checkpoint —
//! never a half-written file that parses.
//!
//! Loading ([`load`]) distinguishes I/O failures ([`LoadError::Io`])
//! from corruption ([`LoadError::Corrupt`], a typed
//! [`fault::GenError::CorruptCheckpoint`] with a byte-offset
//! diagnostic). Truncation, bit flips, version skew, and configuration
//! mismatches all surface as the latter — never as a panic and never as
//! a silently-wrong graph.

pub mod codec;
mod crc32;

pub use crc32::crc32;

use std::fmt;
use std::io;
use std::path::Path;

use fault::GenError;
use swap::MixState;

/// Accumulated swap-phase metrics counters carried across a restart.
///
/// These are observability totals, not simulation state: the resumed
/// trajectory is byte-identical whether or not they are restored. They
/// ride in the checkpoint so that a run interrupted and resumed reports
/// the same lifetime totals as an uninterrupted one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwapCounters {
    pub sweeps: u64,
    pub proposals: u64,
    pub accepts: u64,
    pub reject_self_loop: u64,
    pub reject_duplicate: u64,
    pub reject_exists: u64,
    pub reject_singleton: u64,
    pub reject_conflict: u64,
    pub grow_retries: u64,
    pub serial_fallbacks: u64,
    pub fault_events: u64,
}

impl SwapCounters {
    /// Read the current swap-phase totals out of a metrics registry.
    /// With the `obs/enabled` feature off every field captures as zero.
    pub fn capture(m: &obs::Metrics) -> Self {
        Self {
            sweeps: m.swap_sweeps.get(),
            proposals: m.swap_proposals.get(),
            accepts: m.swap_accepts.get(),
            reject_self_loop: m.swap_reject_self_loop.get(),
            reject_duplicate: m.swap_reject_duplicate.get(),
            reject_exists: m.swap_reject_exists.get(),
            reject_singleton: m.swap_reject_singleton.get(),
            reject_conflict: m.swap_reject_conflict.get(),
            grow_retries: m.swap_grow_retries.get(),
            serial_fallbacks: m.swap_serial_fallbacks.get(),
            fault_events: m.fault_events.get(),
        }
    }

    /// Add these totals into a metrics registry. Intended for a *fresh*
    /// registry at resume time; counters only accumulate, so restoring
    /// into a dirty registry double-counts.
    pub fn restore(&self, m: &obs::Metrics) {
        m.swap_sweeps.add(self.sweeps);
        m.swap_proposals.add(self.proposals);
        m.swap_accepts.add(self.accepts);
        m.swap_reject_self_loop.add(self.reject_self_loop);
        m.swap_reject_duplicate.add(self.reject_duplicate);
        m.swap_reject_exists.add(self.reject_exists);
        m.swap_reject_singleton.add(self.reject_singleton);
        m.swap_reject_conflict.add(self.reject_conflict);
        m.swap_grow_retries.add(self.grow_retries);
        m.swap_serial_fallbacks.add(self.serial_fallbacks);
        m.fault_events.add(self.fault_events);
    }

    /// Wire order of the counter block in `ckpt_v2`.
    pub(crate) fn as_array(&self) -> [u64; 11] {
        [
            self.sweeps,
            self.proposals,
            self.accepts,
            self.reject_self_loop,
            self.reject_duplicate,
            self.reject_exists,
            self.reject_singleton,
            self.reject_conflict,
            self.grow_retries,
            self.serial_fallbacks,
            self.fault_events,
        ]
    }

    pub(crate) fn from_array(a: [u64; 11]) -> Self {
        Self {
            sweeps: a[0],
            proposals: a[1],
            accepts: a[2],
            reject_self_loop: a[3],
            reject_duplicate: a[4],
            reject_exists: a[5],
            reject_singleton: a[6],
            reject_conflict: a[7],
            grow_retries: a[8],
            serial_fallbacks: a[9],
            fault_events: a[10],
        }
    }
}

/// Everything a checkpoint persists: resumable state plus metrics totals.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub state: MixState,
    pub counters: SwapCounters,
}

impl Snapshot {
    /// Snapshot with zeroed counters, for callers not running metrics.
    pub fn without_counters(state: MixState) -> Self {
        Self {
            state,
            counters: SwapCounters::default(),
        }
    }
}

/// Why a checkpoint could not be loaded: the file could not be read at
/// all, or it was read but its contents are not a valid `ckpt_v2`.
#[derive(Debug)]
pub enum LoadError {
    Io(io::Error),
    Corrupt(GenError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "cannot read checkpoint: {e}"),
            LoadError::Corrupt(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Corrupt(e) => Some(e),
        }
    }
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<GenError> for LoadError {
    fn from(e: GenError) -> Self {
        LoadError::Corrupt(e)
    }
}

/// Atomically persist a snapshot to `path`; returns the byte count
/// written.
///
/// The write protocol is: serialize, write to a hidden temporary
/// sibling (`.{name}.tmp` in the same directory, so the final rename
/// cannot cross a filesystem), `fsync` the temporary, rename it over
/// `path`, then `fsync` the parent directory so the rename itself is
/// durable. Readers racing a writer see either the old file or the new
/// one, each complete.
pub fn write_atomic(path: &Path, snap: &Snapshot) -> io::Result<usize> {
    write_atomic_vfs(&vfs::RealVfs, path, snap)
}

/// [`write_atomic`] through an explicit [`vfs::Vfs`], so checkpoint
/// persistence is chaos-testable with a fault-injecting filesystem.
pub fn write_atomic_vfs(fs: &dyn vfs::Vfs, path: &Path, snap: &Snapshot) -> io::Result<usize> {
    let bytes = codec::encode(snap);
    vfs::write_atomic(fs, path, &bytes)?;
    Ok(bytes.len())
}

/// [`write_atomic_vfs`] under a bounded deterministic retry policy:
/// transient faults (EIO-class) are retried with seeded backoff, ENOSPC
/// fast-fails, and an unrecovered fault surfaces as the typed
/// [`GenError::StorageExhausted`] / [`GenError::StorageIo`]. Returns the
/// byte count written.
pub fn write_atomic_retry(
    fs: &dyn vfs::Vfs,
    path: &Path,
    snap: &Snapshot,
    policy: &vfs::RetryPolicy,
) -> Result<usize, GenError> {
    let bytes = codec::encode(snap);
    vfs::write_atomic_retry(fs, path, &bytes, policy)?;
    Ok(bytes.len())
}

/// Read and fully validate a checkpoint file.
pub fn load(path: &Path) -> Result<Snapshot, LoadError> {
    load_vfs(&vfs::RealVfs, path)
}

/// [`load`] through an explicit [`vfs::Vfs`].
pub fn load_vfs(fs: &dyn vfs::Vfs, path: &Path) -> Result<Snapshot, LoadError> {
    let bytes = fs.read(path)?;
    Ok(codec::decode(&bytes, &path.to_string_lossy())?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap::{IterationStats, StopRule};

    fn sample_state() -> MixState {
        MixState {
            num_vertices: 6,
            edges: vec![
                graphcore::Edge::new(0, 1),
                graphcore::Edge::new(2, 3),
                graphcore::Edge::new(4, 5),
                graphcore::Edge::new(1, 2),
            ],
            swapped: vec![true, false, true, false],
            completed_sweeps: 2,
            seed: 0xDEAD_BEEF,
            sweep_budget: 40,
            stop: StopRule::FixedSweeps,
            track_violations: false,
            track_diagnostics: false,
            iterations: vec![
                IterationStats {
                    attempted_pairs: 2,
                    successful_swaps: 1,
                    ever_swapped_fraction: 0.25,
                    ..Default::default()
                },
                IterationStats {
                    attempted_pairs: 2,
                    successful_swaps: 1,
                    ever_swapped_fraction: 0.5,
                    ..Default::default()
                },
            ],
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            state: sample_state(),
            counters: SwapCounters {
                sweeps: 2,
                proposals: 4,
                accepts: 2,
                reject_exists: 1,
                ..SwapCounters::default()
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample_snapshot();
        let bytes = codec::encode(&snap);
        let back = codec::decode(&bytes, "mem").expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn converged_rule_with_diagnostics_round_trips() {
        let mut snap = sample_snapshot();
        snap.state.stop = StopRule::Converged {
            min_ess: 48,
            window: 96,
        };
        snap.state.track_diagnostics = true;
        for (i, it) in snap.state.iterations.iter_mut().enumerate() {
            it.deg_product_sum = -1.5e12 + i as f64;
            it.wedge_sketch = 7.25e9 * (i + 1) as f64;
        }
        let bytes = codec::encode(&snap);
        let back = codec::decode(&bytes, "mem").expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn nonsense_converged_parameters_are_rejected() {
        let mut snap = sample_snapshot();
        snap.state.stop = StopRule::Converged {
            min_ess: 0,
            window: 96,
        };
        snap.state.track_diagnostics = true;
        let bytes = codec::encode(&snap);
        let err = codec::decode(&bytes, "mem").expect_err("min_ess 0 must not validate");
        assert_eq!(err.error_code(), "corrupt_checkpoint");
    }

    #[test]
    fn write_atomic_then_load_round_trips() {
        let dir = std::env::temp_dir().join("ckpt_lib_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("roundtrip.ckpt");
        let snap = sample_snapshot();
        let written = write_atomic(&path, &snap).expect("write");
        assert_eq!(
            written,
            std::fs::metadata(&path).expect("stat").len() as usize
        );
        let back = load(&path).expect("load");
        assert_eq!(back, snap);
        // No temporary litter left behind.
        assert!(!dir.join(".roundtrip.ckpt.tmp").exists());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn load_missing_file_is_io_not_corrupt() {
        let err = load(Path::new("/nonexistent/definitely/missing.ckpt")).expect_err("must fail");
        assert!(matches!(err, LoadError::Io(_)), "got {err:?}");
    }

    #[test]
    fn counters_restore_into_fresh_registry() {
        // Whether obs counters are live depends on feature unification in
        // the surrounding build, so probe instead of cfg-gating.
        let probe = obs::Metrics::default();
        probe.swap_sweeps.incr();
        let live = probe.swap_sweeps.get() == 1;

        let m = obs::Metrics::default();
        let snap = sample_snapshot();
        snap.counters.restore(&m);
        let back = SwapCounters::capture(&m);
        if live {
            assert_eq!(back, snap.counters);
        } else {
            assert_eq!(back, SwapCounters::default());
        }
    }

    #[test]
    fn retired_threshold_flag_is_refused_at_the_flags_offset() {
        // Flags follow the header and five u64 payload fields. Bit 1 once
        // marked the retired threshold stop rule; re-fix the CRC so the
        // flag itself, not the checksum, is what the decoder refuses.
        let mut bytes = codec::encode(&sample_snapshot());
        let flags_at = codec::HEADER_LEN + 5 * 8;
        bytes[flags_at] |= 1 << 1;
        let crc = crc32(&bytes[codec::HEADER_LEN..]);
        bytes[20..24].copy_from_slice(&crc.to_le_bytes());
        let err = codec::decode(&bytes, "mem").expect_err("retired rule");
        assert_eq!(err.error_code(), "corrupt_checkpoint");
        assert_eq!(err.exit_code(), 9);
        let msg = err.to_string();
        assert!(msg.contains(&format!("at byte {flags_at}:")), "{msg}");
        assert!(msg.contains("retired"), "{msg}");
    }

    #[test]
    fn version_skew_and_garbage_are_typed_errors() {
        let snap = sample_snapshot();
        let mut bytes = codec::encode(&snap);
        bytes[8] = 3; // future schema version
        let err = codec::decode(&bytes, "mem").expect_err("version skew");
        assert_eq!(err.error_code(), "corrupt_checkpoint");
        assert!(err.to_string().contains("version"), "{err}");

        let err = codec::decode(b"not a checkpoint at all", "mem").expect_err("garbage");
        assert_eq!(err.error_code(), "corrupt_checkpoint");
    }
}
