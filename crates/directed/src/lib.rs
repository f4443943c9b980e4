//! Directed-graph extension of the null-model pipeline.
//!
//! The paper (Section I) notes its results "can be extrapolated to directed
//! graphs with certain considerations" (Durak et al. \[14\]; Erdős, Miklós &
//! Toroczkai \[15\]). This crate carries the full pipeline over:
//!
//! * [`digraph`] — directed edges, edge lists and **joint** in/out degree
//!   distributions (classes are `(d_out, d_in)` pairs: directed null models
//!   must preserve the joint distribution, not the marginals \[14\]);
//! * [`swap::swap_directed_edges`] — the directed double-edge swap
//!   `(a→b, c→d) → (a→d, c→b)`, the unique rewiring that preserves every
//!   vertex's in- and out-degree; it runs on the `swap` crate's Algorithm
//!   III.1 kernel itself (ordered-pair edge keys), so directed output is
//!   byte-identical across pool sizes and shard counts;
//! * [`havel_hakimi_directed`] — a greedy Erdős–Miklós–Toroczkai-style
//!   realization of directed degree sequences;
//! * [`probs::directed_heuristic_probabilities`] — the §IV-A stub-accounting
//!   heuristic on out-stubs × in-stubs;
//! * [`skip::generate_directed`] — edge skipping over out-class × in-class
//!   rectangular spaces;
//! * [`generate_directed_from_distribution`] — the end-to-end Algorithm
//!   IV.1 analogue.

//!
//! # Example
//!
//! ```
//! use directed::{generate_directed_from_distribution, DiDegreeDistribution,
//!                DirectedGeneratorConfig};
//!
//! let dist = DiDegreeDistribution::from_pairs(vec![((1, 1), 60), ((3, 3), 10)]).unwrap();
//! let g = generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(7))?;
//! assert!(g.is_simple());
//! # Ok::<(), ::swap::GenError>(())
//! ```

pub mod chung_lu;
pub mod digraph;
pub mod io;
pub mod metrics;
pub mod probs;
pub mod skip;
pub mod swap;

pub use chung_lu::{directed_chung_lu, directed_erased};
pub use digraph::{DiDegreeDistribution, DiEdge, DiEdgeList};
pub use metrics::reciprocity;
pub use probs::{directed_heuristic_probabilities, DirectedProbMatrix};
pub use skip::generate_directed;
pub use swap::{swap_directed_edges, DirectedSwapConfig};

use ::swap::{GenError, SwapWorkspace};
use parutil::rng::mix64;

/// Greedy realization of a directed degree sequence (`seq[v] = (out, in)`),
/// after Erdős, Miklós & Toroczkai \[15\]: repeatedly take the vertex with the
/// largest remaining out-degree and wire all of its out-stubs to the other
/// vertices with the largest remaining in-degree, breaking in-degree ties in
/// favour of larger remaining out-degree (the EMT ordering — without the
/// tie-break the greedy fails on e.g. the directed 3-cycle). Returns `None`
/// when the sequence cannot be realized as a simple digraph.
pub fn havel_hakimi_directed(seq: &[(u32, u32)]) -> Option<DiEdgeList> {
    let n = seq.len();
    let total_out: u64 = seq.iter().map(|&(o, _)| o as u64).sum();
    let total_in: u64 = seq.iter().map(|&(_, i)| i as u64).sum();
    if total_out != total_in {
        return None;
    }
    let mut edges = Vec::with_capacity(total_out as usize);
    let mut out_rem: Vec<u32> = seq.iter().map(|&(o, _)| o).collect();
    let mut in_rem: Vec<u32> = seq.iter().map(|&(_, i)| i).collect();

    #[allow(clippy::while_let_loop)] // the let-else form reads clearer here
    loop {
        // Vertex with the largest remaining out-degree.
        let Some(v) = (0..n as u32)
            .filter(|&v| out_rem[v as usize] > 0)
            .max_by_key(|&v| (out_rem[v as usize], in_rem[v as usize]))
        else {
            break;
        };
        let out = out_rem[v as usize] as usize;
        // The `out` best targets: largest remaining in-degree, ties broken
        // by larger remaining out-degree (EMT), then by id for determinism.
        let mut targets: Vec<u32> = (0..n as u32)
            .filter(|&u| u != v && in_rem[u as usize] > 0)
            .collect();
        if targets.len() < out {
            return None;
        }
        targets.sort_unstable_by_key(|&u| {
            std::cmp::Reverse((
                in_rem[u as usize],
                out_rem[u as usize],
                std::cmp::Reverse(u),
            ))
        });
        for &u in &targets[..out] {
            edges.push(DiEdge::new(v, u));
            in_rem[u as usize] -= 1;
        }
        out_rem[v as usize] = 0;
    }
    if in_rem.iter().any(|&r| r > 0) {
        return None;
    }
    let list = DiEdgeList::from_edges(n, edges);
    debug_assert!(list.is_simple());
    Some(list)
}

/// Configuration for the end-to-end directed generator.
#[derive(Clone, Debug)]
pub struct DirectedGeneratorConfig {
    /// Directed double-edge-swap iterations.
    pub swap_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DirectedGeneratorConfig {
    /// Defaults mirroring the undirected pipeline (10 swap sweeps).
    pub fn new(seed: u64) -> Self {
        Self {
            swap_iterations: 10,
            seed,
        }
    }
}

/// End-to-end directed Algorithm IV.1: heuristic probabilities →
/// edge-skipping → directed swaps. The output is a simple digraph matching
/// the joint in/out distribution in expectation. A table fault the swap
/// recovery cannot absorb is a typed error.
pub fn generate_directed_from_distribution(
    dist: &DiDegreeDistribution,
    cfg: &DirectedGeneratorConfig,
) -> Result<DiEdgeList, GenError> {
    let probs = directed_heuristic_probabilities(dist);
    let mut graph = generate_directed(&probs, dist, mix64(cfg.seed ^ 0xD1E5));
    ::swap::try_swap_edges(
        &mut graph,
        cfg.swap_iterations,
        mix64(cfg.seed ^ 0xD5A9),
        &mut SwapWorkspace::new(),
    )?;
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hh_directed_cycle() {
        // A directed 3-cycle: every vertex (1, 1).
        let g = havel_hakimi_directed(&[(1, 1); 3]).unwrap();
        assert_eq!(g.len(), 3);
        assert!(g.is_simple());
        assert_eq!(g.out_degrees(), vec![1, 1, 1]);
        assert_eq!(g.in_degrees(), vec![1, 1, 1]);
    }

    #[test]
    fn hh_directed_star() {
        // Hub points at 3 leaves.
        let g = havel_hakimi_directed(&[(3, 0), (0, 1), (0, 1), (0, 1)]).unwrap();
        assert_eq!(g.out_degrees(), vec![3, 0, 0, 0]);
        assert_eq!(g.in_degrees(), vec![0, 1, 1, 1]);
    }

    #[test]
    fn hh_rejects_unbalanced() {
        assert!(havel_hakimi_directed(&[(2, 0), (0, 1)]).is_none());
    }

    #[test]
    fn hh_rejects_unrealizable() {
        // One vertex wants 2 out-edges but only one other vertex exists.
        assert!(havel_hakimi_directed(&[(2, 0), (0, 2)]).is_none());
    }

    #[test]
    fn hh_realizes_mixed_sequence() {
        let seq = [(2, 1), (1, 2), (2, 2), (1, 1), (0, 0)];
        let g = havel_hakimi_directed(&seq).unwrap();
        assert!(g.is_simple());
        assert_eq!(
            g.out_degrees(),
            seq.iter().map(|&(o, _)| o).collect::<Vec<_>>()
        );
        assert_eq!(
            g.in_degrees(),
            seq.iter().map(|&(_, i)| i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn end_to_end_directed_pipeline() {
        let dist = DiDegreeDistribution::from_pairs(vec![
            ((1, 1), 200),
            ((2, 2), 80),
            ((5, 5), 16),
            ((12, 12), 4),
        ])
        .unwrap();
        let g =
            generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(3)).unwrap();
        assert!(g.is_simple());
        let target = dist.num_edges() as f64;
        let got = g.len() as f64;
        assert!((got - target).abs() / target < 0.2, "m {got} vs {target}");
    }

    #[test]
    fn end_to_end_asymmetric_distribution() {
        // Sources and sinks: out-heavy and in-heavy classes must balance.
        let dist =
            DiDegreeDistribution::from_pairs(vec![((0, 4), 50), ((1, 1), 100), ((4, 0), 50)])
                .unwrap();
        let g =
            generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(9)).unwrap();
        assert!(g.is_simple());
        let target = dist.num_edges() as f64;
        let got = g.len() as f64;
        assert!((got - target).abs() / target < 0.25, "m {got} vs {target}");
    }

    #[test]
    fn deterministic() {
        let dist = DiDegreeDistribution::from_pairs(vec![((2, 2), 50), ((4, 4), 10)]).unwrap();
        let cfg = DirectedGeneratorConfig::new(5);
        let a = generate_directed_from_distribution(&dist, &cfg).unwrap();
        let b = generate_directed_from_distribution(&dist, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
