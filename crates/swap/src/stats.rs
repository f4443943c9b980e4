//! Per-iteration statistics and mixing diagnostics for swap runs.

use fault::FaultLog;

/// Statistics for one permute-and-swap iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct IterationStats {
    /// Number of adjacent pairs considered (`⌊m / 2⌋`).
    pub attempted_pairs: u64,
    /// Pairs whose swap was accepted.
    pub successful_swaps: u64,
    /// Fraction of edge slots that have been produced by a successful swap
    /// in *any* iteration so far — the paper's empirical mixing criterion is
    /// this fraction reaching ~1.
    pub ever_swapped_fraction: f64,
    /// Remaining self loops (only populated when the run tracks violations,
    /// which it does when its input is not simple).
    pub self_loops: u64,
    /// Remaining multi-edge extras (only populated when tracking).
    pub multi_edges: u64,
    /// Degree-product sum `Σ_{(u,v) ∈ E} d(u)·d(v)` over the current edge
    /// list (the unnormalized numerator of degree assortativity; degrees are
    /// swap-invariant, so the sum moves only when edges rewire). Maintained
    /// incrementally in wrapping integer arithmetic and only populated when
    /// the run tracks diagnostics (under `StopRule::Converged`); 0
    /// otherwise.
    pub deg_product_sum: f64,
    /// Signed wedge sketch `Σ_v W(v)²` where `W(v) = Σ_{u ∈ N(v)} s(u)`
    /// over a seed-derived ±1 vertex hash `s` — a cheap O(changes)-per-swap
    /// proxy for the graph's triangle/wedge structure. Only populated when
    /// the run tracks diagnostics; 0 otherwise.
    pub wedge_sketch: f64,
}

impl IterationStats {
    /// Acceptance rate of this iteration (0 when no pairs were attempted).
    pub fn acceptance_rate(&self) -> f64 {
        if self.attempted_pairs == 0 {
            0.0
        } else {
            self.successful_swaps as f64 / self.attempted_pairs as f64
        }
    }
}

/// Statistics for a whole swap run.
#[derive(Clone, Debug, Default)]
pub struct SwapStats {
    /// One entry per iteration, in order.
    pub iterations: Vec<IterationStats>,
    /// Recovery actions taken while producing this result (table
    /// grow-and-retry, parallel → serial degradation). Empty for a run that
    /// needed no recovery; a non-empty log means the result is valid but
    /// the run was degraded and the caller's sizing was wrong. The log is a
    /// bounded ring ([`crate::RecoveryPolicy::event_capacity`]); evictions
    /// under a retry storm bump [`FaultLog::dropped_events`].
    pub events: FaultLog,
    /// `true` when the run was cut short by its wall-clock deadline rather
    /// than finishing its sweep budget or meeting its stop criterion.
    pub wall_clock_exceeded: bool,
}

impl SwapStats {
    /// Total accepted swaps over all iterations.
    pub fn total_successful(&self) -> u64 {
        self.iterations.iter().map(|i| i.successful_swaps).sum()
    }

    /// The first iteration (1-based) at which the ever-swapped fraction
    /// reached `threshold`, or `None` if it never did. A reported statistic
    /// (the paper's §VIII-C coverage measure), not a stop rule.
    pub fn iterations_to_mix(&self, threshold: f64) -> Option<usize> {
        self.iterations
            .iter()
            .position(|i| i.ever_swapped_fraction >= threshold)
            .map(|i| i + 1)
    }

    /// The first iteration (1-based) after which no simplicity violations
    /// remain; requires violation tracking. `None` if violations remain (or
    /// were never tracked and the run is empty).
    pub fn iterations_to_simple(&self) -> Option<usize> {
        self.iterations
            .iter()
            .position(|i| i.self_loops == 0 && i.multi_edges == 0)
            .map(|i| i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_rate() {
        let it = IterationStats {
            attempted_pairs: 10,
            successful_swaps: 7,
            ..Default::default()
        };
        assert!((it.acceptance_rate() - 0.7).abs() < 1e-12);
        assert_eq!(IterationStats::default().acceptance_rate(), 0.0);
    }

    #[test]
    fn totals_and_mixing() {
        let stats = SwapStats {
            iterations: vec![
                IterationStats {
                    attempted_pairs: 10,
                    successful_swaps: 4,
                    ever_swapped_fraction: 0.5,
                    self_loops: 2,
                    multi_edges: 1,
                    ..Default::default()
                },
                IterationStats {
                    attempted_pairs: 10,
                    successful_swaps: 5,
                    ever_swapped_fraction: 0.97,
                    self_loops: 0,
                    multi_edges: 0,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        assert_eq!(stats.total_successful(), 9);
        assert_eq!(stats.iterations_to_mix(0.95), Some(2));
        assert_eq!(stats.iterations_to_mix(0.99), None);
        assert_eq!(stats.iterations_to_simple(), Some(2));
    }

    #[test]
    fn empty_stats() {
        let s = SwapStats::default();
        assert_eq!(s.total_successful(), 0);
        assert_eq!(s.iterations_to_mix(0.5), None);
        assert_eq!(s.iterations_to_simple(), None);
    }
}
