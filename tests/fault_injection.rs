//! Fault-injection harness: every injected failure must either surface as
//! the documented typed error or recover to **byte-identical** output.
//!
//! Fixtures come from `fault::inject` ([`FaultPlan`], non-graphical degree
//! sequences, file garblers). Each scenario runs the real pipeline —
//! undersized concurrent tables, starved grow budgets, too-small mixing
//! budgets, unrealizable degree inputs, garbled input files — and asserts
//! the [`fault::GenError::error_code`] or the recovery invariant.

use fault::inject::{self, Expectation, FaultPlan};
use fault::{FaultEvent, FaultLog, GenError};
use graphcore::io::{read_edge_list, ParseError};
use graphcore::{DegreeDistribution, EdgeList};
use nullmodel::{try_generate_from_edge_list_with_workspace, GeneratorConfig};
use swap::{
    MixControl, MixOutcome, MixingBudget, RecoveryPolicy, StopRule, SwapStats, SwapWorkspace,
};

/// A ring of `n` vertices: every vertex has degree 2, every swap is legal.
fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
}

/// The 2-edge path can never complete a swap (one pairing recreates the
/// same edges, the other creates a self loop), so mixing never progresses.
fn unswappable() -> EdgeList {
    EdgeList::from_pairs(vec![(0, 1), (1, 2)])
}

fn workspace_for(plan: &FaultPlan) -> SwapWorkspace {
    match plan.table_capacity {
        Some(cap) => SwapWorkspace::with_table_capacity(cap),
        None => SwapWorkspace::new(),
    }
}

fn policy_for(plan: &FaultPlan) -> RecoveryPolicy {
    RecoveryPolicy {
        max_grows: plan.max_grows,
        serial_fallback: plan.serial_fallback,
        ..RecoveryPolicy::default()
    }
}

/// A converged rule small enough for these fixtures to meet quickly.
const CONVERGED: StopRule = StopRule::Converged {
    min_ess: 8,
    window: 16,
};

/// Mix under `stop` within `sweeps`; a run that ends short of its stop
/// rule surfaces as the report's typed budget error.
fn mix(
    graph: &mut EdgeList,
    stop: StopRule,
    sweeps: usize,
    seed: u64,
) -> Result<SwapStats, GenError> {
    let budget = MixingBudget::sweeps(sweeps);
    let report = swap::try_mix_resumable(
        graph,
        stop,
        &budget,
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )?;
    match report.outcome {
        MixOutcome::Completed => Ok(report.stats),
        _ => Err(report.budget_error(&budget)),
    }
}

fn serialize(graph: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::new();
    graphcore::io::write_edge_list(graph, &mut buf).expect("in-memory write");
    buf
}

/// Four fixed sweeps of `graph` under the plan's workspace and recovery
/// policy.
fn swap_under(plan: &FaultPlan, graph: &mut EdgeList, seed: u64) -> Result<SwapStats, GenError> {
    let report = swap::try_mix_resumable(
        graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(4),
        seed,
        &mut MixControl::none(),
        &mut workspace_for(plan),
        &policy_for(plan),
    )?;
    Ok(report.stats)
}

/// Run one plan against the swap kernel and return the mixed graph's bytes
/// (when it succeeded) or the typed error.
fn run_plan(plan: &FaultPlan, seed: u64) -> Result<(Vec<u8>, FaultLog), GenError> {
    let mut graph = ring(300);
    let stats = swap_under(plan, &mut graph, seed)?;
    Ok((serialize(&graph), stats.events))
}

#[test]
fn undersized_tables_recover_byte_identically_across_pool_sizes() {
    let seed = 11;
    let (reference, ref_events) =
        run_plan(&FaultPlan::reference("reference"), seed).expect("reference run");
    assert!(ref_events.is_empty(), "reference must not need recovery");

    // 64-key tables for a 300-edge ring: two 2× grows are required.
    let plan = FaultPlan::undersized_tables("tiny_tables", 64);
    assert_eq!(plan.expect, Expectation::RecoversIdentically);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("build pool");
        let (bytes, events) = pool
            .install(|| run_plan(&plan, seed))
            .unwrap_or_else(|e| panic!("{} must recover on {threads} threads: {e}", plan.name));
        assert_eq!(
            bytes, reference,
            "{}: recovered output must be byte-identical on {threads} threads",
            plan.name
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, FaultEvent::TableGrown { .. })),
            "{}: recovery must be logged, got {events:?}",
            plan.name
        );
    }
}

#[test]
fn undersized_tables_recover_through_the_full_pipeline() {
    let cfg = GeneratorConfig::new(23).with_swap_iterations(3);
    let mut reference = ring(200);
    try_generate_from_edge_list_with_workspace(&mut reference, &cfg, &mut SwapWorkspace::new())
        .expect("reference pipeline run");

    let mut faulted = ring(200);
    let (stats, _) = try_generate_from_edge_list_with_workspace(
        &mut faulted,
        &cfg,
        &mut SwapWorkspace::with_table_capacity(32),
    )
    .expect("pipeline must recover from undersized tables");
    assert_eq!(serialize(&faulted), serialize(&reference));
    assert!(!stats.events.is_empty(), "recovery must be logged");
}

#[test]
fn undersized_tables_without_recovery_fail_typed() {
    let plan = FaultPlan::undersized_without_recovery("dead_tables", 16);
    let Expectation::FailsWith(code) = plan.expect else {
        panic!("plan must expect failure");
    };
    let err = run_plan(&plan, 7).expect_err("recovery is disabled");
    assert_eq!(err.error_code(), code, "got: {err}");
    let GenError::TableFull {
        grows_attempted, ..
    } = err
    else {
        panic!("unexpected error: {err}");
    };
    assert_eq!(grows_attempted, 0);

    // The failed run must leave the graph untouched.
    let mut graph = ring(300);
    let pristine = serialize(&graph);
    let _ = swap_under(&plan, &mut graph, 7);
    assert_eq!(serialize(&graph), pristine, "failed run mutated the graph");
}

#[test]
fn starved_mixing_budget_fails_typed_with_accurate_report() {
    let plan = FaultPlan::starved_mixing_budget("starved", 3);
    let sweeps = plan.max_sweeps.expect("plan sets a budget");
    let mut graph = unswappable();
    let err = mix(&mut graph, CONVERGED, sweeps, 1).expect_err("the 2-edge path can never mix");
    let Expectation::FailsWith(code) = plan.expect else {
        panic!("plan must expect failure");
    };
    assert_eq!(err.error_code(), code, "got: {err}");
    let GenError::MixingBudgetExceeded {
        sweeps_completed,
        max_sweeps,
        ever_swapped_fraction,
        ..
    } = err
    else {
        panic!("unexpected error: {err}");
    };
    assert_eq!(sweeps_completed, sweeps);
    assert_eq!(max_sweeps, sweeps);
    assert_eq!(ever_swapped_fraction, 0.0);
}

/// Satellite watchdog contract: a budget one sweep short of what mixing
/// needs fails with an accurate count; doubling the budget succeeds and is
/// deterministic (byte-identical across repeats and budget sizes).
#[test]
fn doubled_budget_succeeds_deterministically_where_starved_budget_fails() {
    let seed = 5;

    // Self-calibrate: learn how many sweeps this graph actually needs.
    let mut calibrated = ring(120);
    let generous =
        mix(&mut calibrated, CONVERGED, 400, seed).expect("a 400-sweep budget is generous");
    let needed = generous.iterations.len();
    assert!(needed >= 2, "fixture must need at least 2 sweeps: {needed}");

    let mut starved_graph = ring(120);
    let err = mix(&mut starved_graph, CONVERGED, needed - 1, seed)
        .expect_err("one sweep short must fail");
    let GenError::MixingBudgetExceeded {
        sweeps_completed, ..
    } = err
    else {
        panic!("unexpected error: {err}");
    };
    assert_eq!(sweeps_completed, needed - 1, "sweep count must be accurate");

    // Doubling the starved budget clears the hurdle, and lands on exactly
    // the same graph as the generous run (the budget never alters the
    // trajectory, only where it may be cut off).
    let mut doubled_graph = ring(120);
    let doubled = mix(&mut doubled_graph, CONVERGED, 2 * (needed - 1), seed)
        .expect("doubled budget must succeed");
    assert_eq!(doubled.iterations.len(), needed);
    assert_eq!(serialize(&doubled_graph), serialize(&calibrated));
}

#[test]
fn non_graphical_sequences_fail_typed_with_named_reasons() {
    for (name, degrees) in inject::non_graphical_sequences() {
        // Histogram the per-vertex sequence into (degree, count) pairs.
        let mut pairs: Vec<(u32, u64)> = Vec::new();
        let mut sorted = degrees.clone();
        sorted.sort_unstable();
        for d in sorted {
            match pairs.last_mut() {
                Some((deg, c)) if *deg == d => *c += 1,
                _ => pairs.push((d, 1)),
            }
        }
        let dist = DegreeDistribution::from_pairs_relaxed(pairs)
            .unwrap_or_else(|e| panic!("{name}: fixture must construct: {e}"));
        let err = nullmodel::try_uniform_reference(&dist, 2, 1)
            .expect_err(&format!("{name} must be rejected"));
        assert_eq!(err.error_code(), "non_graphical", "{name}: got {err}");
        let GenError::NonGraphical { reason } = &err else {
            panic!("{name}: unexpected error: {err}");
        };
        assert!(!reason.is_empty(), "{name}: reason must name the violation");
    }
}

/// Checkpoint corruption belongs to the same taxonomy: any byte-level
/// garbling produced by the `fault::inject` helpers must surface as the
/// typed `corrupt_checkpoint` error (exit 9), never as a panic or a
/// silently-wrong resume. (`crates/ckpt/tests/format_proptests.rs` sweeps
/// *every* single-bit flip and truncation; this scenario wires the same
/// garblers into the fault-injection harness.)
#[test]
fn garbled_checkpoints_fail_typed_through_the_injection_helpers() {
    let mut graph = ring(40);
    let mut ctl = swap::MixControl::none();
    let report = swap::try_mix_resumable(
        &mut graph,
        CONVERGED,
        &MixingBudget::sweeps(1),
        9,
        &mut ctl,
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("starved run still returns a report");
    let state = report.checkpoint.expect("budget-exhausted run checkpoints");
    let bytes = ckpt::codec::encode(&ckpt::Snapshot::without_counters(state));

    for (name, garbled) in [
        ("flipped_header_bit", inject::flip_bit(&bytes, 17)),
        ("flipped_payload_bit", inject::flip_bit(&bytes, 8 * 40 + 3)),
        (
            "truncated_half",
            inject::truncate_bytes(&bytes, bytes.len() / 2),
        ),
        ("truncated_empty", inject::truncate_bytes(&bytes, 0)),
    ] {
        let err = ckpt::codec::decode(&garbled, name).expect_err(name);
        assert_eq!(err.error_code(), "corrupt_checkpoint", "{name}: {err}");
        assert_eq!(err.exit_code(), 9, "{name}");
        assert!(
            err.to_string().contains("byte"),
            "{name}: diagnostic must carry a byte offset: {err}"
        );
    }
}

#[test]
fn garbled_and_truncated_files_fail_with_line_diagnostics() {
    let valid = "0 1\n1 2\n2 3\n3 0\n";
    assert!(read_edge_list(valid.as_bytes()).is_ok());

    let parse_error = |err: &std::io::Error| -> ParseError {
        err.get_ref()
            .and_then(|e| e.downcast_ref::<ParseError>())
            .unwrap_or_else(|| panic!("not a ParseError: {err}"))
            .clone()
    };

    // Truncated mid-token: the dangling line is reported verbatim.
    let truncated = inject::truncate(valid, 9);
    let err = read_edge_list(truncated.as_bytes()).expect_err("truncated file");
    let p = parse_error(&err);
    assert_eq!(p.line_number, Some(3));
    assert!(p.reason.contains("found one"), "reason: {}", p.reason);

    // Garbled line: number and text are reported.
    let garbled = inject::garble_line(valid, 2, "2 %%%");
    let err = read_edge_list(garbled.as_bytes()).expect_err("garbled file");
    let p = parse_error(&err);
    assert_eq!(p.line_number, Some(3));
    assert_eq!(p.line, "2 %%%");

    // The same failure maps onto the typed taxonomy as bad_input.
    let gen = GenError::BadInput {
        line: p.line_number,
        text: p.line.clone(),
        reason: p.reason.clone(),
    };
    assert_eq!(gen.error_code(), "bad_input");
    assert_eq!(gen.exit_code(), 4);
}
