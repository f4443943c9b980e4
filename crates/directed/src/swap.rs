//! Parallel directed double-edge swaps — Algorithm III.1 on digraphs.
//!
//! The directed swap `(a→b, c→d) → (a→d, c→b)` is the unique rewiring of
//! two directed edges that preserves every vertex's in- and out-degree (so
//! no coin flip over swap variants is needed). Directed edges enter the
//! shared swap kernel of the `swap` crate through the ordered-pair key
//! encoding below: antiparallel edges have distinct keys and are legal, and
//! the kernel's partner-choice bit is ignored. Everything else is the
//! undirected engine — minimum-index claims, sharded packed tables,
//! grow-and-retry recovery — so directed output is a pure function of
//! `(edge list, seed)` on any pool size and shard count.

use crate::digraph::{DiEdge, DiEdgeList};
use swap::{SwapEdge, SwapGraph, SwapWorkspace};

impl SwapEdge for DiEdge {
    #[inline(always)]
    fn key(&self) -> u64 {
        DiEdge::key(self)
    }

    #[inline(always)]
    fn endpoints(&self) -> (u32, u32) {
        (self.from(), self.to())
    }

    #[inline(always)]
    fn is_self_loop(&self) -> bool {
        DiEdge::is_self_loop(self)
    }

    #[inline(always)]
    fn swap_with(&self, other: &Self, _side: bool) -> (Self, Self) {
        DiEdge::swap_with(self, other)
    }
}

impl SwapGraph for DiEdgeList {
    type Edge = DiEdge;

    #[inline]
    fn num_vertices(&self) -> usize {
        DiEdgeList::num_vertices(self)
    }

    #[inline]
    fn edges(&self) -> &[DiEdge] {
        DiEdgeList::edges(self)
    }

    #[inline]
    fn edges_mut(&mut self) -> &mut [DiEdge] {
        DiEdgeList::edges_mut(self)
    }

    fn is_simple(&self) -> bool {
        DiEdgeList::is_simple(self)
    }
}

/// Configuration for a directed swap run.
#[derive(Clone, Debug)]
pub struct DirectedSwapConfig {
    /// Full permute-and-swap iterations.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DirectedSwapConfig {
    /// `iterations` sweeps with the given seed.
    pub fn new(iterations: usize, seed: u64) -> Self {
        Self { iterations, seed }
    }
}

/// Per-run statistics.
#[derive(Clone, Debug, Default)]
pub struct DirectedSwapStats {
    /// Accepted swaps per iteration.
    pub successes: Vec<u64>,
}

impl DirectedSwapStats {
    /// Total accepted swaps.
    pub fn total(&self) -> u64 {
        self.successes.iter().sum()
    }
}

/// Run parallel directed double-edge swaps in place: the fixed-sweep run
/// of [`swap::try_swap_edges`] on the digraph, over a fresh workspace.
///
/// Panics only if a concurrent table faults even after the default
/// grow-and-retry recovery; callers that reuse buffers or need the typed
/// error call [`swap::try_swap_edges`] (or [`swap::try_mix_resumable`])
/// on the digraph directly.
pub fn swap_directed_edges(graph: &mut DiEdgeList, cfg: &DirectedSwapConfig) -> DirectedSwapStats {
    let stats = swap::try_swap_edges(graph, cfg.iterations, cfg.seed, &mut SwapWorkspace::new())
        .unwrap_or_else(|e| panic!("{e}"));
    DirectedSwapStats {
        successes: stats
            .iterations
            .iter()
            .map(|it| it.successful_swaps)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::havel_hakimi_directed;
    use proptest_lite::prelude::*;
    use swap::{
        CheckpointPolicy, GenError, MixControl, MixOutcome, MixState, MixingBudget, RecoveryPolicy,
        StopRule,
    };

    fn ring(n: u32) -> DiEdgeList {
        DiEdgeList::from_edges(
            n as usize,
            (0..n).map(|i| DiEdge::new(i, (i + 1) % n)).collect(),
        )
    }

    /// [`swap::try_swap_edges`] on a digraph over `ws`.
    fn run(
        g: &mut DiEdgeList,
        sweeps: usize,
        seed: u64,
        ws: &mut SwapWorkspace<DiEdge>,
    ) -> swap::SwapStats {
        swap::try_swap_edges(g, sweeps, seed, ws).expect("fixed-sweep run")
    }

    #[test]
    fn preserves_joint_degrees() {
        let mut g = ring(200);
        let before = g.joint_degrees();
        let stats = swap_directed_edges(&mut g, &DirectedSwapConfig::new(5, 3));
        assert_eq!(g.joint_degrees(), before);
        assert!(stats.total() > 0);
        assert!(g.is_simple());
    }

    #[test]
    fn serial_matches_parallel_on_one_thread() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut a = ring(150);
        let mut b = a.clone();
        let cfg = DirectedSwapConfig::new(4, 9);
        let sa = pool.install(|| swap_directed_edges(&mut a, &cfg));
        let mut serial = SwapWorkspace::new();
        serial.set_serial(true);
        let sb = run(&mut b, 4, 9, &mut serial);
        assert_eq!(a, b);
        assert_eq!(sa.total(), sb.total_successful());
    }

    #[test]
    fn simplifies_duplicate_edges() {
        // Multiple copies of the same directed edge: swaps should wash them
        // out while preserving degrees.
        let mut edges = Vec::new();
        for i in 0..50u32 {
            edges.push(DiEdge::new(i, (i + 1) % 50));
        }
        edges.push(DiEdge::new(0, 1)); // duplicate
        edges.push(DiEdge::new(2, 3)); // duplicate
        let mut g = DiEdgeList::from_edges(50, edges);
        assert!(!g.is_simple());
        let before = g.joint_degrees();
        swap_directed_edges(&mut g, &DirectedSwapConfig::new(40, 11));
        assert_eq!(g.joint_degrees(), before);
        assert!(g.is_simple(), "duplicates not washed out");
    }

    #[test]
    fn zero_iterations_no_op() {
        let mut g = ring(10);
        let orig = g.clone();
        swap_directed_edges(&mut g, &DirectedSwapConfig::new(0, 1));
        assert_eq!(g, orig);
    }

    #[test]
    fn mixing_reaches_most_edges() {
        let mut g = ring(500);
        let stats = swap_directed_edges(&mut g, &DirectedSwapConfig::new(10, 13));
        // Roughly half the pairs succeed per sweep on a sparse digraph.
        assert!(stats.total() > 500, "total {}", stats.total());
    }

    #[test]
    fn undersized_tables_recover_identically_or_fail_typed() {
        // Directed runs inherit the kernel's grow-and-retry: an undersized
        // workspace replays to the same bytes, or, with recovery off, fails
        // with a typed table_full and leaves the graph untouched.
        let mut want = ring(300);
        run(&mut want, 4, 77, &mut SwapWorkspace::new());
        let mut got = ring(300);
        run(&mut got, 4, 77, &mut SwapWorkspace::with_table_capacity(64));
        assert_eq!(got, want);

        let mut g = ring(300);
        let err = swap::try_mix_resumable(
            &mut g,
            StopRule::FixedSweeps,
            &MixingBudget::sweeps(4),
            77,
            &mut MixControl::none(),
            &mut SwapWorkspace::with_table_capacity(16),
            &RecoveryPolicy::none(),
        )
        .expect_err("16-key tables cannot hold 300 edges");
        assert_eq!(err.error_code(), "table_full");
        assert_eq!(g, ring(300), "an aborted run must not write back");
    }

    #[test]
    fn reused_workspace_matches_fresh_runs() {
        // One directed workspace serving digraphs of different sizes gives
        // the bytes of a fresh workspace every time.
        let mut ws = SwapWorkspace::<DiEdge>::new();
        for (n, seed) in [(500u32, 1u64), (120, 2), (500, 3)] {
            let mut want = ring(n);
            run(&mut want, 3, seed, &mut SwapWorkspace::new());
            let mut got = ring(n);
            run(&mut got, 3, seed, &mut ws);
            assert_eq!(got, want, "n {n} seed {seed}");
        }
    }

    #[test]
    fn tracked_violations_match_a_recount_of_the_output() {
        // Two extra copies of 0→1, a self loop, and 1→0, which is
        // antiparallel to 0→1 and so not a duplicate of it.
        let mut edges: Vec<DiEdge> = (0..60u32).map(|i| DiEdge::new(i, (i + 1) % 60)).collect();
        edges.extend([
            DiEdge::new(0, 1),
            DiEdge::new(0, 1),
            DiEdge::new(7, 7),
            DiEdge::new(1, 0),
        ]);
        let start = DiEdgeList::from_edges(60, edges);
        let recount = |g: &DiEdgeList| {
            let mut copies = std::collections::HashMap::new();
            for e in g.edges() {
                *copies.entry(e.key()).or_insert(0u64) += 1;
            }
            let loops = g.edges().iter().filter(|e| e.is_self_loop()).count() as u64;
            (loops, copies.values().map(|c| c - 1).sum::<u64>())
        };
        assert_eq!(recount(&start), (1, 2));
        // No flag asks for tracking: it follows from the non-simple input.
        for sweeps in 1..=4 {
            let mut g = start.clone();
            let stats = run(&mut g, sweeps, 5, &mut SwapWorkspace::new());
            let last = stats.iterations.last().expect("one entry per sweep");
            assert_eq!(
                (last.self_loops, last.multi_edges),
                recount(&g),
                "after {sweeps} sweeps"
            );
        }
    }

    #[test]
    fn driver_checkpoints_hold_directed_edges_in_slot_order() {
        // A ring plus its reversal: every edge has an antiparallel twin.
        let n = 80u32;
        let mut edges: Vec<DiEdge> = (0..n).map(|i| DiEdge::new(i, (i + 1) % n)).collect();
        edges.extend((0..n).map(|i| DiEdge::new((i + 1) % n, i)));
        let start = DiEdgeList::from_edges(n as usize, edges);
        assert!(start.is_simple());
        let (outs, ins) = (start.out_degrees(), start.in_degrees());
        let sweeps = 6;

        let mut states: Vec<MixState<DiEdge>> = Vec::new();
        let mut sink = |st: &MixState<DiEdge>| -> Result<(), GenError> {
            states.push(st.clone());
            Ok(())
        };
        let mut ctl = MixControl {
            interrupt: None,
            policy: Some(CheckpointPolicy::sweeps(1)),
            sink: Some(&mut sink),
        };
        let mut g = start.clone();
        let report = swap::try_mix_resumable(
            &mut g,
            StopRule::FixedSweeps,
            &MixingBudget::sweeps(sweeps),
            17,
            &mut ctl,
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("directed run");
        assert_eq!(report.outcome, MixOutcome::Completed);
        assert!(report.stats.total_successful() > 0, "fixture must move");
        assert_eq!(states.len(), sweeps);
        for (k, st) in states.iter().enumerate() {
            assert_eq!(st.completed_sweeps, k as u64 + 1);
            assert_eq!(st.num_vertices, n as usize);
            assert!(st.validate().is_ok());
            // Slot order: the state after k+1 sweeps is exactly the edge
            // list a (k+1)-sweep run writes back.
            let mut prefix = start.clone();
            run(&mut prefix, k + 1, 17, &mut SwapWorkspace::new());
            assert_eq!(st.edges, prefix.edges(), "state after sweep {}", k + 1);
            // Orientation intact: every vertex keeps its in and out degree.
            let dg = DiEdgeList::from_edges(st.num_vertices, st.edges.clone());
            assert_eq!(
                (dg.out_degrees(), dg.in_degrees()),
                (outs.clone(), ins.clone())
            );
            assert!(st.edges.iter().any(|e| e.from() > e.to()));
            assert!(st.edges.iter().any(|e| e.from() < e.to()));
        }
        assert_eq!(states.last().map(|st| st.edges.as_slice()), Some(g.edges()));
    }

    #[test]
    fn antiparallel_keys_are_distinct_and_the_side_bit_is_ignored() {
        let (ab, ba) = (DiEdge::new(1, 2), DiEdge::new(2, 1));
        assert_ne!(SwapEdge::key(&ab), SwapEdge::key(&ba));
        let (e, f) = (DiEdge::new(0, 1), DiEdge::new(2, 3));
        let want = (DiEdge::new(0, 3), DiEdge::new(2, 1));
        assert_eq!(SwapEdge::swap_with(&e, &f, false), want);
        assert_eq!(SwapEdge::swap_with(&e, &f, true), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_swaps_preserve_degrees_and_simplicity(
            seq in proptest_lite::collection::vec((0u32..4, 0u32..4), 6..40),
            seed in any::<u64>()
        ) {
            // Balance the sequence so it has a chance of realizing.
            let out_sum: u32 = seq.iter().map(|&(o, _)| o).sum();
            let in_sum: u32 = seq.iter().map(|&(_, i)| i).sum();
            prop_assume!(out_sum == in_sum);
            let Some(start) = havel_hakimi_directed(&seq) else {
                return Ok(()); // unrealizable sequences are out of scope
            };
            let mut g = start;
            let before = g.joint_degrees();
            swap_directed_edges(&mut g, &DirectedSwapConfig::new(3, seed));
            prop_assert!(g.is_simple());
            prop_assert_eq!(g.joint_degrees(), before);
        }
    }
}
