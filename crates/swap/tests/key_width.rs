//! Key-width equivalence contract: the packed 32- and 64-bit table
//! layouts are pure memory-layout levers. For any graph that fits a
//! width, the sweep's output is byte-identical to the wide (split
//! tag/key/value arrays) reference — across pool sizes, shard counts,
//! and interrupt → checkpoint → resume cuts. Widths a graph does *not*
//! fit are a typed `bad_input` error before the first sweep, never a
//! silent key truncation (`Auto` instead falls back to wider layouts).

use graphcore::{DegreeDistribution, Edge, EdgeList};
use std::sync::atomic::{AtomicBool, Ordering};
use swap::{
    try_swap_edges, CheckpointPolicy, KeyWidth, MixControl, MixOutcome, MixState, MixingBudget,
    RecoveryPolicy, ResolvedWidth, StopRule, SwapWorkspace,
};

fn dist() -> DegreeDistribution {
    DegreeDistribution::from_pairs(vec![(1, 400), (2, 160), (3, 60), (7, 16), (15, 4)]).unwrap()
}

/// 640 vertices — fits every width including the 32-bit packed layout.
fn seed_graph() -> EdgeList {
    generators::havel_hakimi(&dist()).unwrap()
}

/// A ring on `n` vertices: the cheapest graph with a controlled vertex
/// count, used to steer the `Auto` width-resolution rule.
fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
}

fn serialize(graph: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::new();
    graphcore::io::write_edge_list(graph, &mut buf).expect("in-memory write");
    buf
}

#[test]
fn sweep_is_byte_identical_across_key_widths_pools_and_shards() {
    let (sweeps, seed) = (8, 0xD1CE);
    let mut reference = seed_graph();
    let ref_stats = {
        let mut ws = SwapWorkspace::with_key_width(KeyWidth::Wide);
        ws.set_serial(true);
        try_swap_edges(&mut reference, sweeps, seed, &mut ws).unwrap()
    };
    let want = (serialize(&reference), ref_stats.total_successful());

    for width in [KeyWidth::Auto, KeyWidth::W32, KeyWidth::W64, KeyWidth::Wide] {
        for threads in [1usize, 2, 8] {
            for shards in [1usize, 8] {
                let mut ws = SwapWorkspace::with_shards(shards);
                ws.set_key_width(width);
                let got = pool(threads).install(|| {
                    let mut g = seed_graph();
                    let stats = try_swap_edges(&mut g, sweeps, seed, &mut ws).unwrap();
                    (serialize(&g), stats.total_successful())
                });
                assert_eq!(
                    got, want,
                    "width {width} on {threads} threads / {shards} shards \
                     diverged from the wide serial reference"
                );
            }
        }
    }
}

#[test]
fn auto_resolves_the_narrowest_fitting_layout() {
    // 2_000 vertices fit the 32-bit packed layout (n <= 2^13).
    let mut ws = SwapWorkspace::new();
    ws.set_serial(true);
    try_swap_edges(&mut ring(2_000), 1, 7, &mut ws).unwrap();
    assert!(
        matches!(
            ws.resolved_key_width(),
            Some(ResolvedWidth::Packed32 { .. })
        ),
        "2k vertices must auto-pack to 32-bit entries, got {:?}",
        ws.resolved_key_width()
    );

    // 20_000 vertices overflow Packed32 but fit Packed64 (n <= 2^29).
    try_swap_edges(&mut ring(20_000), 1, 7, &mut ws).unwrap();
    assert!(
        matches!(
            ws.resolved_key_width(),
            Some(ResolvedWidth::Packed64 { .. })
        ),
        "20k vertices must auto-pack to 64-bit entries, got {:?}",
        ws.resolved_key_width()
    );

    // Forcing wide must actually run the wide layout on a packable graph.
    let mut wide_ws = SwapWorkspace::with_key_width(KeyWidth::Wide);
    wide_ws.set_serial(true);
    try_swap_edges(&mut ring(2_000), 1, 7, &mut wide_ws).unwrap();
    assert_eq!(wide_ws.resolved_key_width(), Some(ResolvedWidth::Wide));
}

#[test]
fn forced_width_that_does_not_fit_is_a_typed_error_not_truncation() {
    // 20_000 vertices need 15-bit ids: twice that plus the tag overflows a
    // 32-bit word, so forcing --key-width 32 must fail before any sweep.
    let mut graph = ring(20_000);
    let before = serialize(&graph);
    let mut ws = SwapWorkspace::with_key_width(KeyWidth::W32);
    let err = try_swap_edges(&mut graph, 2, 3, &mut ws)
        .expect_err("20k vertices cannot fit 32-bit table entries");
    assert_eq!(err.error_code(), "bad_input");
    let msg = err.to_string();
    assert!(
        msg.contains("key width") && msg.contains("20000"),
        "diagnostic must name the width rule and the vertex count: {msg}"
    );
    assert_eq!(
        serialize(&graph),
        before,
        "failed run must not touch the graph"
    );
}

#[test]
fn u32_max_vertex_ids_widen_under_auto_and_reject_forced_packing() {
    // Vertex ids at the u32::MAX boundary (u32::MAX itself is the empty
    // sentinel, so u32::MAX - 1 is the largest legal id): edge keys still
    // fit the wide u64 layout, but 2^32 - 1 vertices leave no room for a
    // packed tag in either packed word. Auto must silently select Wide;
    // forcing a packed width must be the typed error.
    let edges = vec![
        Edge::new(0, u32::MAX - 1),
        Edge::new(1, u32::MAX - 2),
        Edge::new(2, u32::MAX - 3),
        Edge::new(3, u32::MAX - 4),
    ];
    let n = u32::MAX as usize;

    let mut graph = EdgeList::from_edges(n, edges.clone());
    let mut auto_ws = SwapWorkspace::new();
    try_swap_edges(&mut graph, 2, 11, &mut auto_ws)
        .expect("auto width must fall back to the wide layout");
    assert_eq!(auto_ws.resolved_key_width(), Some(ResolvedWidth::Wide));
    assert_eq!(
        graph.len(),
        edges.len(),
        "mixing must preserve the edge count"
    );
    assert!(graph.is_simple());

    for forced in [KeyWidth::W32, KeyWidth::W64] {
        let mut graph = EdgeList::from_edges(n, vec![Edge::new(0, u32::MAX - 1)]);
        let mut ws = SwapWorkspace::with_key_width(forced);
        let err = try_swap_edges(&mut graph, 2, 11, &mut ws)
            .expect_err("2^32 vertices cannot fit a packed layout");
        assert_eq!(
            err.error_code(),
            "bad_input",
            "forced {forced} must fail typed"
        );
    }
}

/// Interrupt a fixed-sweep mixing run after `cut` sweeps and return the
/// captured checkpoint state.
fn interrupt_after(n_sweeps: usize, seed: u64, cut: u64, ws: &mut SwapWorkspace) -> MixState {
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
    let mut graph = seed_graph();
    let report = swap::try_mix_resumable(
        &mut graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(n_sweeps),
        seed,
        &mut ctl,
        ws,
        &RecoveryPolicy::default(),
    )
    .expect("interrupted run");
    assert_eq!(report.outcome, MixOutcome::Interrupted);
    report.checkpoint.expect("interrupted run must checkpoint")
}

#[test]
fn checkpoint_resume_is_byte_identical_across_key_widths() {
    // Cut the run under one key width, resume under another: the
    // checkpoint stores only (edge list, seed, progress), so the table
    // layout on either side of the cut must not matter.
    let (sweeps, seed, cut) = (10usize, 0xFACADE_u64, 3u64);
    let mut ref_graph = seed_graph();
    let ref_report = swap::try_mix_resumable(
        &mut ref_graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(sweeps),
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("reference run");
    assert_eq!(ref_report.outcome, MixOutcome::Completed);
    let ref_bytes = serialize(&ref_graph);

    for (cut_width, resume_width) in [
        (KeyWidth::W64, KeyWidth::W32),
        (KeyWidth::W32, KeyWidth::Wide),
        (KeyWidth::Wide, KeyWidth::Auto),
    ] {
        let state = interrupt_after(
            sweeps,
            seed,
            cut,
            &mut SwapWorkspace::with_key_width(cut_width),
        );
        let (resumed_graph, report) = swap::resume_from(
            &state,
            &MixingBudget::sweeps(sweeps),
            &mut MixControl::none(),
            &mut SwapWorkspace::with_key_width(resume_width),
            &RecoveryPolicy::default(),
        )
        .expect("resume");
        assert_eq!(report.outcome, MixOutcome::Completed);
        assert_eq!(
            serialize(&resumed_graph),
            ref_bytes,
            "cut on {cut_width}, resumed on {resume_width}: bytes diverged"
        );
    }
}
