//! Crash-consistency contract, end to end: interrupt → `ckpt_v2` round
//! trip → resume must land on the **byte-identical** graph an
//! uninterrupted run produces, on any rayon pool size; corrupt
//! checkpoints must fail typed, never panic, never resume wrong.
//!
//! The CLI-level version of this contract (a real `kill -9` against the
//! spawned `nullgraph` binary) lives in `crates/cli/tests/kill_resume.rs`;
//! this harness exercises the library layers (`swap` + `ckpt`) directly.

use fault::inject;
use graphcore::EdgeList;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use swap::{
    CheckpointPolicy, MixControl, MixOutcome, MixState, MixingBudget, RecoveryPolicy, StopRule,
    SwapWorkspace,
};

fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
}

fn serialize(graph: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::new();
    graphcore::io::write_edge_list(graph, &mut buf).expect("in-memory write");
    buf
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nullgraph_checkpoint_resume");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// The uninterrupted reference trajectory for a fixed-sweep run.
fn reference_run(n: u32, sweeps: usize, seed: u64) -> (EdgeList, Vec<swap::IterationStats>) {
    let mut graph = ring(n);
    let report = swap::try_mix_resumable(
        &mut graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(sweeps),
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("reference run");
    assert_eq!(report.outcome, MixOutcome::Completed);
    (graph, report.stats.iterations)
}

/// Interrupt a run after `cut` sweeps and hand back the state as it went
/// through the durable wire format (encode → write_atomic → load).
fn interrupted_state_via_disk(n: u32, sweeps: usize, seed: u64, cut: u64, tag: &str) -> MixState {
    interrupted_state_with_rule(n, StopRule::FixedSweeps, sweeps, seed, cut, tag)
}

/// As [`interrupted_state_via_disk`], under an arbitrary stop rule.
fn interrupted_state_with_rule(
    n: u32,
    stop: StopRule,
    sweeps: usize,
    seed: u64,
    cut: u64,
    tag: &str,
) -> MixState {
    let stop_flag = AtomicBool::new(false);
    let mut seen = 0u64;
    let mut captured: Option<MixState> = None;
    let mut sink = |state: &MixState| {
        seen += 1;
        if seen >= cut {
            stop_flag.store(true, Ordering::Release);
        }
        captured = Some(state.clone());
        Ok(())
    };
    let mut ctl = MixControl {
        interrupt: Some(&stop_flag),
        policy: Some(CheckpointPolicy::sweeps(1)),
        sink: Some(&mut sink),
    };
    let mut graph = ring(n);
    let report = swap::try_mix_resumable(
        &mut graph,
        stop,
        &MixingBudget::sweeps(sweeps),
        seed,
        &mut ctl,
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("interrupted run");
    assert_eq!(report.outcome, MixOutcome::Interrupted);
    let state = report.checkpoint.expect("interrupted run must checkpoint");
    assert_eq!(
        state.completed_sweeps, cut,
        "interrupt drains the sweep in flight"
    );

    // Round-trip through the real file format — the resumed run must see
    // exactly what a post-crash process would read back from disk.
    let path = tmp(&format!("{tag}.ckpt"));
    let snap = ckpt::Snapshot::without_counters(state);
    ckpt::write_atomic(&path, &snap).expect("atomic write");
    let loaded = ckpt::load(&path).expect("load back");
    assert_eq!(loaded, snap, "durable round trip must be lossless");
    loaded.state
}

#[test]
fn interrupt_roundtrip_resume_is_byte_identical_across_pool_sizes() {
    let (n, sweeps, seed, cut) = (240u32, 12usize, 42u64, 4u64);
    let (ref_graph, ref_iters) = reference_run(n, sweeps, seed);
    let ref_bytes = serialize(&ref_graph);

    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        let (resumed_graph, report) = pool.install(|| {
            let state = interrupted_state_via_disk(n, sweeps, seed, cut, &format!("pool{threads}"));
            swap::resume_from(
                &state,
                &MixingBudget::sweeps(sweeps),
                &mut MixControl::none(),
                &mut SwapWorkspace::new(),
                &RecoveryPolicy::default(),
            )
            .expect("resume")
        });
        assert_eq!(report.outcome, MixOutcome::Completed, "{threads} threads");
        assert_eq!(
            serialize(&resumed_graph),
            ref_bytes,
            "resumed graph must be byte-identical on {threads} threads"
        );
        assert_eq!(
            report.stats.iterations, ref_iters,
            "stitched per-sweep stats must equal the uninterrupted run's"
        );
    }
}

#[test]
fn converged_rule_resumes_byte_identical_across_pool_sizes() {
    // The adaptive-mixing diagnostics ride in the checkpoint: a run that
    // is interrupted mid-window and resumed on any pool size must make
    // the SAME stopping decision (stop at the same sweep) and land on the
    // byte-identical graph, because the decision is a pure function of the
    // replayed iteration series.
    let (n, seed) = (240u32, 42u64);
    let stop = StopRule::Converged {
        min_ess: 24,
        window: 48,
    };
    let budget = MixingBudget::sweeps(400);

    let mut ref_graph = ring(n);
    let ref_report = swap::try_mix_resumable(
        &mut ref_graph,
        stop,
        &budget,
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("uninterrupted converged run");
    assert_eq!(ref_report.outcome, MixOutcome::Completed);
    let decided_at = ref_report.stats.iterations.len();
    assert!(
        decided_at >= 48,
        "the rule needs a full window before it can fire, stopped at {decided_at}"
    );
    let ref_bytes = serialize(&ref_graph);

    // Cut inside the trailing window, after diagnostics have accumulated.
    let cut = (decided_at / 2) as u64;
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        let (resumed_graph, report) = pool.install(|| {
            let state = interrupted_state_with_rule(
                n,
                stop,
                400,
                seed,
                cut,
                &format!("converged_pool{threads}"),
            );
            swap::resume_from(
                &state,
                &budget,
                &mut MixControl::none(),
                &mut SwapWorkspace::new(),
                &RecoveryPolicy::default(),
            )
            .expect("resume")
        });
        assert_eq!(report.outcome, MixOutcome::Completed, "{threads} threads");
        assert_eq!(
            report.stats.iterations.len(),
            decided_at,
            "resumed run must stop at the same sweep on {threads} threads"
        );
        assert_eq!(
            serialize(&resumed_graph),
            ref_bytes,
            "resumed graph must be byte-identical on {threads} threads"
        );
        assert_eq!(
            report.stats.iterations, ref_report.stats.iterations,
            "stitched per-sweep stats (observables included) must match"
        );
    }
}

#[test]
fn budget_exhausted_checkpoint_resumes_through_the_wire_format() {
    let (n, seed) = (200u32, 7u64);
    let stop = StopRule::Converged {
        min_ess: 8,
        window: 16,
    };

    // Uninterrupted converged run as the reference.
    let mut ref_graph = ring(n);
    let ref_report = swap::try_mix_resumable(
        &mut ref_graph,
        stop,
        &MixingBudget::sweeps(400),
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("reference converged run");
    assert_eq!(ref_report.outcome, MixOutcome::Completed);

    // Starve the same run to one sweep; its checkpoint goes to disk.
    let mut starved_graph = ring(n);
    let starved = swap::try_mix_resumable(
        &mut starved_graph,
        stop,
        &MixingBudget::sweeps(1),
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("starved run returns a report");
    assert_eq!(starved.outcome, MixOutcome::BudgetExhausted);
    let path = tmp("budget_exhausted.ckpt");
    ckpt::write_atomic(
        &path,
        &ckpt::Snapshot::without_counters(starved.checkpoint.expect("checkpoint")),
    )
    .expect("write");

    // Resume from disk with a healthy budget: identical destination.
    let loaded = ckpt::load(&path).expect("load");
    let (resumed_graph, resumed) = swap::resume_from(
        &loaded.state,
        &MixingBudget::sweeps(400),
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("resume");
    assert_eq!(resumed.outcome, MixOutcome::Completed);
    assert_eq!(serialize(&resumed_graph), serialize(&ref_graph));
    assert_eq!(resumed.stats.iterations, ref_report.stats.iterations);
}

#[test]
fn corrupt_checkpoints_reject_typed_and_never_resume_wrong() {
    let state = interrupted_state_via_disk(80, 6, 3, 2, "to_corrupt");
    let bytes = ckpt::codec::encode(&ckpt::Snapshot::without_counters(state));

    // A representative sample across all format regions; the exhaustive
    // every-bit/every-truncation sweep lives in ckpt's format_proptests.
    let cases: Vec<(String, Vec<u8>)> = [0usize, 8 * 8, 8 * 12, 8 * 20, 8 * 24, 8 * 60]
        .iter()
        .map(|&bit| (format!("bit{bit}"), inject::flip_bit(&bytes, bit)))
        .chain(
            [0usize, 10, 23, 24, bytes.len() - 1]
                .iter()
                .map(|&len| (format!("trunc{len}"), inject::truncate_bytes(&bytes, len))),
        )
        .collect();
    for (name, garbled) in cases {
        let err = ckpt::codec::decode(&garbled, &name).expect_err(&name);
        assert_eq!(err.error_code(), "corrupt_checkpoint", "{name}: {err}");
    }

    // A checkpoint whose stored config hash disagrees with its fields
    // must be refused even when its CRC is valid — resuming under a
    // different configuration would silently change the trajectory. Forge
    // one by overwriting the seed field (payload offset 8) and re-fixing
    // the CRC so only the semantic check can catch it.
    let mut forged = bytes.clone();
    let mut seed_field = [0u8; 8];
    seed_field.copy_from_slice(&forged[24 + 8..24 + 16]);
    let forged_seed = u64::from_le_bytes(seed_field) ^ 1;
    forged[24 + 8..24 + 16].copy_from_slice(&forged_seed.to_le_bytes());
    let crc = ckpt::crc32(&forged[24..]);
    forged[20..24].copy_from_slice(&crc.to_le_bytes());
    let err = ckpt::codec::decode(&forged, "forged").expect_err("config-hash mismatch");
    assert_eq!(err.error_code(), "corrupt_checkpoint");
    assert!(
        err.to_string().contains("config hash"),
        "diagnostic names the mismatch: {err}"
    );
}
