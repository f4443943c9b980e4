//! Workspace-reuse regression tests: swap output must be byte-identical
//! with a fresh [`swap::SwapWorkspace`] versus one reused across many runs
//! (including runs of different sizes), on thread pools of 1, 2 and 8
//! workers — and the incremental violation counters must agree exactly
//! with a from-scratch `simplicity_report` after every sweep.

use graphcore::{DegreeDistribution, EdgeList};
use swap::{swap_edges_serial_with_workspace, swap_edges_with_workspace};
use swap::{SwapConfig, SwapStats, SwapWorkspace};

fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
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
    let mut reused = SwapWorkspace::new();
    for (n, seed) in [(64u32, 7u64), (500, 8), (100, 9), (2000, 10), (64, 11)] {
        let cfg = SwapConfig::new(6, seed);
        let mut fresh_g = ring(n);
        let fresh_stats =
            swap_edges_serial_with_workspace(&mut fresh_g, &cfg, &mut SwapWorkspace::new());
        let mut reused_g = ring(n);
        let reused_stats = swap_edges_serial_with_workspace(&mut reused_g, &cfg, &mut reused);
        assert_eq!(fresh_g, reused_g, "n={n} seed={seed}");
        stats_eq(&fresh_stats, &reused_stats);
    }
}

#[test]
fn reused_workspace_matches_fresh_across_pool_sizes() {
    // The reference: serial, fresh workspace.
    let cfg = SwapConfig::new(5, 0xABCD_EF01);
    let mut expect = ring(600);
    let expect_stats =
        swap_edges_serial_with_workspace(&mut expect, &cfg, &mut SwapWorkspace::new());
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
            swap_edges_with_workspace(&mut warmup, &SwapConfig::new(2, 1), &mut ws);
            let mut g = ring(600);
            let stats = swap_edges_with_workspace(&mut g, &cfg, &mut ws);
            assert_eq!(g, expect, "threads={threads}");
            stats_eq(&stats, &expect_stats);
        });
    }
}

#[test]
fn with_capacity_preallocation_changes_nothing() {
    let cfg = SwapConfig::new(4, 99);
    let mut a = ring(300);
    swap_edges_with_workspace(&mut a, &cfg, &mut SwapWorkspace::new());
    let mut b = ring(300);
    swap_edges_with_workspace(&mut b, &cfg, &mut SwapWorkspace::with_capacity(4096));
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
/// only on `(cfg.seed, iteration)`, so a `k`-iteration run reproduces the
/// state after sweep `k` of a longer run; recomputing the report on that
/// state cross-checks iteration `k`'s incremental counts.
#[test]
fn incremental_violation_counts_are_exact() {
    let seed = 0x5EED_CAFE;
    let total = 12usize;
    let mut cfg = SwapConfig::new(total, seed);
    cfg.track_violations = true;
    let mut tracked = multigraph();
    let report0 = tracked.simplicity_report();
    assert!(report0.self_loops >= 3 && report0.multi_edges >= 4);
    let stats = swap_edges_with_workspace(&mut tracked, &cfg, &mut SwapWorkspace::new());
    assert_eq!(stats.iterations.len(), total);
    let mut ws = SwapWorkspace::new();
    for k in 1..=total {
        let mut g = multigraph();
        let mut sub = SwapConfig::new(k, seed);
        sub.track_violations = true;
        swap_edges_with_workspace(&mut g, &sub, &mut ws);
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
    let mut cfg = SwapConfig::new(60, 3);
    cfg.track_violations = true;
    let stats = swap_edges_with_workspace(&mut g, &cfg, &mut SwapWorkspace::new());
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
        nullmodel::generate_from_edge_list(&mut fresh, &sub);
        assert_eq!(&fresh, g, "sample {k} differs from fresh-workspace run");
    }
}
