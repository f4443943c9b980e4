//! Workspace-reuse regression tests: swap output must be byte-identical
//! with a fresh [`swap::SwapWorkspace`] versus one reused across many runs
//! (including runs of different sizes), on thread pools of 1, 2 and 8
//! workers — and the incremental violation counters must agree exactly
//! with a from-scratch `simplicity_report` after every sweep.

use graphcore::{DegreeDistribution, EdgeList};
use swap::{SwapStats, SwapWorkspace};

fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
}

/// A fixed-sweep run over `ws`.
fn run(g: &mut EdgeList, sweeps: usize, seed: u64, ws: &mut SwapWorkspace) -> SwapStats {
    swap::try_swap_edges(g, sweeps, seed, ws).expect("fixed-sweep run")
}

/// A fresh workspace on the serial kernel.
fn serial_ws() -> SwapWorkspace {
    let mut ws = SwapWorkspace::new();
    ws.set_serial(true);
    ws
}

fn stats_eq(a: &SwapStats, b: &SwapStats) {
    assert_eq!(a.iterations.len(), b.iterations.len());
    for (x, y) in a.iterations.iter().zip(&b.iterations) {
        assert_eq!(x.attempted_pairs, y.attempted_pairs);
        assert_eq!(x.successful_swaps, y.successful_swaps);
        assert_eq!(x.self_loops, y.self_loops);
        assert_eq!(x.multi_edges, y.multi_edges);
        assert!((x.ever_swapped_fraction - y.ever_swapped_fraction).abs() < 1e-15);
    }
}

#[test]
fn reused_workspace_matches_fresh_serial() {
    let mut reused = serial_ws();
    for (n, seed) in [(64u32, 7u64), (500, 8), (100, 9), (2000, 10), (64, 11)] {
        let mut fresh_g = ring(n);
        let fresh_stats = run(&mut fresh_g, 6, seed, &mut serial_ws());
        let mut reused_g = ring(n);
        let reused_stats = run(&mut reused_g, 6, seed, &mut reused);
        assert_eq!(fresh_g, reused_g, "n={n} seed={seed}");
        stats_eq(&fresh_stats, &reused_stats);
    }
}

#[test]
fn reused_workspace_matches_fresh_across_pool_sizes() {
    // The reference: serial, fresh workspace.
    let (sweeps, seed) = (5, 0xABCD_EF01);
    let mut expect = ring(600);
    let expect_stats = run(&mut expect, sweeps, seed, &mut serial_ws());
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            // One workspace reused across several runs; the *last* run is
            // compared against the fresh-workspace reference.
            let mut ws = SwapWorkspace::new();
            let mut warmup = ring(900); // grows buffers past the test size
            run(&mut warmup, 2, 1, &mut ws);
            let mut g = ring(600);
            let stats = run(&mut g, sweeps, seed, &mut ws);
            assert_eq!(g, expect, "threads={threads}");
            stats_eq(&stats, &expect_stats);
        });
    }
}

#[test]
fn with_capacity_preallocation_changes_nothing() {
    let mut a = ring(300);
    run(&mut a, 4, 99, &mut SwapWorkspace::new());
    let mut b = ring(300);
    run(&mut b, 4, 99, &mut SwapWorkspace::with_capacity(4096));
    assert_eq!(a, b);
}

/// A deliberately messy multigraph: a ring plus duplicated edges (one
/// triplicated) and self loops (one duplicated).
fn multigraph() -> EdgeList {
    let mut edges: Vec<(u32, u32)> = (0..80).map(|i| (i, (i + 1) % 80)).collect();
    edges.push((0, 1)); // duplicate
    edges.push((0, 1)); // triplicate
    edges.push((5, 6)); // duplicate
    edges.push((12, 12)); // self loop
    edges.push((40, 40)); // self loop...
    edges.push((40, 40)); // ...duplicated
    EdgeList::from_pairs(edges)
}

/// The incremental counters must agree with a from-scratch
/// `simplicity_report` after **every** sweep. Per-iteration seeds depend
/// only on `(seed, iteration)`, so a `k`-iteration run reproduces the
/// state after sweep `k` of a longer run; recomputing the report on that
/// state cross-checks iteration `k`'s incremental counts. The input is
/// not simple, so the runs track violations without being asked to.
#[test]
fn incremental_violation_counts_are_exact() {
    let seed = 0x5EED_CAFE;
    let total = 12usize;
    let mut tracked = multigraph();
    let report0 = tracked.simplicity_report();
    assert!(report0.self_loops >= 3 && report0.multi_edges >= 4);
    let stats = run(&mut tracked, total, seed, &mut SwapWorkspace::new());
    assert_eq!(stats.iterations.len(), total);
    let mut ws = SwapWorkspace::new();
    for k in 1..=total {
        let mut g = multigraph();
        run(&mut g, k, seed, &mut ws);
        let report = g.simplicity_report();
        let it = &stats.iterations[k - 1];
        assert_eq!(it.self_loops, report.self_loops, "sweep {k}");
        assert_eq!(it.multi_edges, report.multi_edges, "sweep {k}");
    }
    // Sanity: the full run simplified the graph and the counters agree.
    let last = stats.iterations.last().unwrap();
    let final_report = tracked.simplicity_report();
    assert_eq!(last.self_loops, final_report.self_loops);
    assert_eq!(last.multi_edges, final_report.multi_edges);
}

#[test]
fn violation_counts_monotone_and_reach_zero() {
    let mut g = multigraph();
    let stats = run(&mut g, 60, 3, &mut SwapWorkspace::new());
    let totals: Vec<u64> = stats
        .iterations
        .iter()
        .map(|it| it.self_loops + it.multi_edges)
        .collect();
    for w in totals.windows(2) {
        assert!(w[1] <= w[0], "violations increased: {totals:?}");
    }
    assert_eq!(*totals.last().unwrap(), 0, "not simplified: {totals:?}");
    assert!(g.is_simple());
}

#[test]
fn ensembles_share_a_workspace_and_stay_deterministic() {
    // The mix ensemble reuses one workspace across members; each member
    // must equal a fresh-workspace run of the nullmodel edge-list path at
    // the member's seed (one seed rule for every mixing entry point).
    let d = DegreeDistribution::from_pairs(vec![(2, 60), (4, 20)]).unwrap();
    let observed = generators::havel_hakimi(&d).unwrap();
    let ensemble = nullmodel::try_mix_ensemble_from_edge_list(&observed, 6, 17, 4).unwrap();
    for (k, g) in ensemble.iter().enumerate() {
        let mut fresh = observed.clone();
        let sub = nullmodel::GeneratorConfig::new(nullmodel::ensemble_member_seed(17, k))
            .with_swap_iterations(6);
        nullmodel::try_generate_from_edge_list(&mut fresh, &sub).unwrap();
        assert_eq!(&fresh, g, "sample {k} differs from fresh-workspace run");
    }
}
