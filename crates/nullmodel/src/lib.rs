//! End-to-end parallel generation of simple, uniformly-random null graph
//! models — the public API of this workspace and the paper's headline
//! pipeline (Algorithm IV.1):
//!
//! ```text
//! P  ← GenerateProbabilities({D, N})   // genprob, Section IV-A
//! E  ← GenerateEdges(P, {D, N})        // edgeskip, Section IV-B
//! E' ← SwapEdges(E)                    // swap,    Section III-A
//! ```
//!
//! Two entry points cover the paper's two problems:
//!
//! * [`generate_from_distribution`] — problem 2: sample a uniformly-random
//!   simple graph given only a degree distribution;
//! * [`generate_from_edge_list`] — problem 1: mix an existing edge list in
//!   place with double-edge swaps (degree sequence preserved exactly).
//!
//! [`uniform_reference`] reproduces the paper's baseline sampler
//! (Havel-Hakimi + many swap iterations, after Milo et al.), and
//! [`hierarchical`] implements Section VI's LFR-like layered generation.
//!
//! # Quick start
//!
//! ```
//! use graphcore::DegreeDistribution;
//! use nullmodel::{generate_from_distribution, GeneratorConfig};
//!
//! // 300 vertices of degree 2, 100 of degree 4, 10 hubs of degree 20.
//! let dist = DegreeDistribution::from_pairs(vec![(2, 300), (4, 100), (20, 10)]).unwrap();
//! let out = generate_from_distribution(&dist, &GeneratorConfig::new(42));
//! assert!(out.graph.is_simple());
//! // The realized edge count matches the target in expectation.
//! let m = out.graph.len() as f64;
//! let target = dist.num_edges() as f64;
//! assert!((m - target).abs() / target < 0.2);
//! ```

pub mod ensemble;
pub mod hierarchical;
pub mod phases;
pub mod validate;

pub use ensemble::{
    ensemble_from_distribution, ensemble_member_seed, significance_against_null,
    try_ensemble_from_distribution, try_mix_ensemble_from_edge_list,
    try_mix_ensemble_from_edge_list_with_workspace, SignificanceReport,
};
pub use fault::GenError;
pub use hierarchical::{generate_layered, generate_lfr, Layer, LfrConfig, LfrGraph};
pub use phases::PhaseTimings;
pub use validate::ValidationReport;

use genprob::SinkhornReport;
use graphcore::{DegreeDistribution, EdgeList};
use std::sync::Arc;
use std::time::Instant;
use swap::{
    MixControl, MixingBudget, RecoveryPolicy, StopRule, SwapConfig, SwapStats, SwapWorkspace,
};

pub use swap::KeyWidth;

/// Refinement-round cap used when a tolerance is requested without an
/// explicit round budget ([`GeneratorConfig::refine_tolerance`]).
const DEFAULT_REFINE_ROUNDS: usize = 64;

/// Configuration for the end-to-end generator.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Double-edge-swap iterations after edge generation. The paper observes
    /// ~10 iterations suffice for empirical mixing on all test graphs
    /// (Fig. 4); under 1% attachment-probability error typically needs ~5.
    pub swap_iterations: usize,
    /// RNG seed; the whole pipeline is reproducible for a fixed seed.
    pub seed: u64,
    /// Optional Sinkhorn refinement rounds applied to the §IV-A
    /// probabilities before edge generation (0 = paper-faithful heuristic
    /// only; a handful of rounds sharpens the expected degree match — an
    /// extension the paper's Section IX leaves to future work).
    pub refine_rounds: usize,
    /// When set, refinement must reach this residual tolerance: rounds run
    /// until the degree-system residual drops to the tolerance (up to
    /// `refine_rounds`, or a default cap when that is 0), and a stalled
    /// refinement is a typed [`GenError::SolverNotConverged`] from the
    /// `try_*` entry points instead of a silently-accepted residual.
    pub refine_tolerance: Option<f64>,
    /// When set, the run records counters, probe-length histograms and
    /// per-phase span timers into this shared registry (see the `obs`
    /// crate). Instrumentation is read-only: the generated graph is
    /// byte-identical with or without it.
    pub metrics: Option<Arc<obs::Metrics>>,
    /// Shard count for the swap phase's concurrent tables (`None` = the
    /// swap crate's default). A pure performance lever: the claim/commit
    /// protocol resolves conflicts with a commutative per-key minimum, so
    /// any shard count yields the byte-identical graph (asserted by
    /// `tests/thread_scaling.rs`).
    pub swap_shards: Option<usize>,
    /// Table-key width for the swap phase's concurrent tables. `Auto` (the
    /// default) packs edge keys into 32- or 64-bit table entries whenever the
    /// vertex count fits, halving table bytes; the generated graph is
    /// byte-identical across widths. Forcing a width the graph does not fit
    /// is a typed [`GenError`] rather than a silent truncation.
    pub key_width: KeyWidth,
}

impl GeneratorConfig {
    /// Default configuration (10 swap iterations, no refinement).
    pub fn new(seed: u64) -> Self {
        Self {
            swap_iterations: 10,
            seed,
            refine_rounds: 0,
            refine_tolerance: None,
            metrics: None,
            swap_shards: None,
            key_width: KeyWidth::Auto,
        }
    }

    /// Set the swap iteration count.
    pub fn with_swap_iterations(mut self, iterations: usize) -> Self {
        self.swap_iterations = iterations;
        self
    }

    /// Set the Sinkhorn refinement rounds.
    pub fn with_refine_rounds(mut self, rounds: usize) -> Self {
        self.refine_rounds = rounds;
        self
    }

    /// Require refinement to reach `tolerance` (see
    /// [`GeneratorConfig::refine_tolerance`]).
    pub fn with_refine_tolerance(mut self, tolerance: f64) -> Self {
        self.refine_tolerance = Some(tolerance);
        self
    }

    /// Record metrics into `registry` (see [`GeneratorConfig::metrics`]).
    pub fn with_metrics(mut self, registry: Arc<obs::Metrics>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Split the swap phase's concurrent tables into `shards` shards (see
    /// [`GeneratorConfig::swap_shards`]).
    pub fn with_swap_shards(mut self, shards: usize) -> Self {
        self.swap_shards = Some(shards);
        self
    }

    /// Set the swap-table key width (see [`GeneratorConfig::key_width`]).
    pub fn with_key_width(mut self, width: KeyWidth) -> Self {
        self.key_width = width;
        self
    }
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Output of [`generate_from_distribution`].
#[derive(Clone, Debug)]
pub struct GeneratedGraph {
    /// The generated simple graph.
    pub graph: EdgeList,
    /// Wall-clock time of each pipeline phase (the paper's Fig. 6).
    pub timings: PhaseTimings,
    /// Per-iteration swap statistics (mixing diagnostics, Fig. 4).
    pub swap_stats: SwapStats,
    /// Maximum relative residual of the probability matrix against the
    /// degree system (how well the target is matched *in expectation*).
    pub probability_residual: f64,
    /// Refinement report when a tolerance was requested
    /// ([`GeneratorConfig::refine_tolerance`]); `None` otherwise.
    pub refine: Option<SinkhornReport>,
}

/// Generate a uniformly-random simple graph from a degree distribution
/// (Algorithm IV.1). The output matches the distribution in expectation;
/// it is always simple.
///
/// Panics on the failure modes [`try_generate_from_distribution`] reports
/// as typed errors; prefer the `try_*` entry point in code that must
/// survive bad inputs or mis-sized workspaces.
pub fn generate_from_distribution(
    dist: &DegreeDistribution,
    cfg: &GeneratorConfig,
) -> GeneratedGraph {
    generate_from_distribution_with_workspace(dist, cfg, &mut SwapWorkspace::new())
}

/// As [`generate_from_distribution`], reusing caller-owned swap buffers
/// (one workspace serves a whole ensemble). Output is byte-identical to the
/// fresh-workspace entry point.
pub fn generate_from_distribution_with_workspace(
    dist: &DegreeDistribution,
    cfg: &GeneratorConfig,
    ws: &mut SwapWorkspace,
) -> GeneratedGraph {
    match try_generate_from_distribution_with_workspace(dist, cfg, ws) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`generate_from_distribution`]: every failure mode is a typed
/// [`GenError`] — an unservable degree distribution (`NonGraphical`), a
/// refinement that misses its requested tolerance (`SolverNotConverged`),
/// or a table fault the swap recovery could not absorb (`TableFull`).
pub fn try_generate_from_distribution(
    dist: &DegreeDistribution,
    cfg: &GeneratorConfig,
) -> Result<GeneratedGraph, GenError> {
    try_generate_from_distribution_with_workspace(dist, cfg, &mut SwapWorkspace::new())
}

/// As [`try_generate_from_distribution`], reusing caller-owned swap buffers.
pub fn try_generate_from_distribution_with_workspace(
    dist: &DegreeDistribution,
    cfg: &GeneratorConfig,
    ws: &mut SwapWorkspace,
) -> Result<GeneratedGraph, GenError> {
    // The pipeline matches the distribution only in expectation, so full
    // graphicality is not required — but a class whose degree exceeds the
    // available partner count is unservable even in expectation.
    if let (Some(&max_d), n) = (dist.degrees().last(), dist.num_vertices()) {
        if u64::from(max_d) >= n && n > 0 {
            return Err(GenError::NonGraphical {
                reason: format!(
                    "degree {max_d} needs {max_d} distinct partners but only {} other \
                     vertices exist",
                    n - 1
                ),
            });
        }
    }
    let mut timings = PhaseTimings::default();
    configure_workspace(cfg, ws);
    let metrics = ws.metrics().cloned();
    let metrics = metrics.as_deref();

    let t0 = Instant::now();
    let probability_span = metrics.map(|m| m.phase_probabilities_ns.start_span());
    let mut probs = genprob::heuristic_probabilities(dist);
    let mut refine = None;
    let probability_residual = if let Some(tolerance) = cfg.refine_tolerance {
        let max_rounds = if cfg.refine_rounds > 0 {
            cfg.refine_rounds
        } else {
            DEFAULT_REFINE_ROUNDS
        };
        let report = genprob::sinkhorn_refine_to_tolerance_with_metrics(
            &mut probs, dist, max_rounds, tolerance, metrics,
        );
        if !report.converged {
            return Err(GenError::SolverNotConverged {
                residual: report.residual,
                tolerance,
                rounds: report.rounds_run,
            });
        }
        refine = Some(report);
        report.residual
    } else if cfg.refine_rounds > 0 {
        genprob::sinkhorn_refine_with_metrics(&mut probs, dist, cfg.refine_rounds, metrics)
    } else {
        let residual = genprob::max_relative_residual(&probs, dist);
        if let Some(m) = metrics {
            m.sinkhorn_residual.set(residual);
        }
        residual
    };
    drop(probability_span);
    timings.probabilities = t0.elapsed();

    let t1 = Instant::now();
    let edge_span = metrics.map(|m| m.phase_edge_generation_ns.start_span());
    let mut graph = edgeskip::try_generate_with_metrics(
        &probs,
        dist,
        parutil::rng::mix64(cfg.seed ^ 0xE5CE),
        metrics,
    )?;
    drop(edge_span);
    timings.edge_generation = t1.elapsed();

    let t2 = Instant::now();
    // Edge skipping emits a simple graph, so there are no violations to
    // track.
    let swap_cfg = SwapConfig::new(cfg.swap_iterations, parutil::rng::mix64(cfg.seed ^ 0x5A9));
    let swap_stats =
        swap::try_swap_edges_with_workspace(&mut graph, &swap_cfg, ws, &RecoveryPolicy::default())?;
    timings.swapping = t2.elapsed();

    Ok(GeneratedGraph {
        graph,
        timings,
        swap_stats,
        probability_residual,
        refine,
    })
}

/// Mix an existing edge list in place with `cfg.swap_iterations` sweeps of
/// double-edge swaps (the paper's problem 1). The degree sequence is
/// preserved exactly; a simple input stays simple, and a non-simple input
/// is progressively simplified (its per-sweep violation counts are
/// tracked).
///
/// This is the fixed-sweep run of [`swap::try_mix_resumable`] under
/// `cfg.seed`, byte for byte: `nullgraph mix`, its checkpointed and
/// resumed runs, serve jobs and this function share one trajectory.
pub fn generate_from_edge_list(
    graph: &mut EdgeList,
    cfg: &GeneratorConfig,
) -> (SwapStats, PhaseTimings) {
    generate_from_edge_list_with_workspace(graph, cfg, &mut SwapWorkspace::new())
}

/// As [`generate_from_edge_list`], reusing caller-owned swap buffers.
pub fn generate_from_edge_list_with_workspace(
    graph: &mut EdgeList,
    cfg: &GeneratorConfig,
    ws: &mut SwapWorkspace,
) -> (SwapStats, PhaseTimings) {
    match try_generate_from_edge_list_with_workspace(graph, cfg, ws) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`generate_from_edge_list`]: table faults beyond the swap
/// recovery policy surface as typed errors, with the input edge list left
/// untouched.
pub fn try_generate_from_edge_list(
    graph: &mut EdgeList,
    cfg: &GeneratorConfig,
) -> Result<(SwapStats, PhaseTimings), GenError> {
    try_generate_from_edge_list_with_workspace(graph, cfg, &mut SwapWorkspace::new())
}

/// As [`try_generate_from_edge_list`], reusing caller-owned swap buffers.
pub fn try_generate_from_edge_list_with_workspace(
    graph: &mut EdgeList,
    cfg: &GeneratorConfig,
    ws: &mut SwapWorkspace,
) -> Result<(SwapStats, PhaseTimings), GenError> {
    let mut timings = PhaseTimings::default();
    configure_workspace(cfg, ws);
    let t = Instant::now();
    let report = swap::try_mix_resumable(
        graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(cfg.swap_iterations),
        cfg.seed,
        &mut MixControl::none(),
        ws,
        &RecoveryPolicy::default(),
    )?;
    timings.swapping = t.elapsed();
    Ok((report.stats, timings))
}

/// The paper's uniform-random reference sampler: a Havel-Hakimi realization
/// followed by `iterations` full swap sweeps (the paper uses 128). Returns
/// `None` when the distribution is not graphical; for a typed error naming
/// *why* it is not graphical, use [`try_uniform_reference`].
pub fn uniform_reference(
    dist: &DegreeDistribution,
    iterations: usize,
    seed: u64,
) -> Option<EdgeList> {
    uniform_reference_with_workspace(dist, iterations, seed, &mut SwapWorkspace::new())
}

/// As [`uniform_reference`], reusing caller-owned swap buffers.
pub fn uniform_reference_with_workspace(
    dist: &DegreeDistribution,
    iterations: usize,
    seed: u64,
    ws: &mut SwapWorkspace,
) -> Option<EdgeList> {
    try_uniform_reference_with_workspace(dist, iterations, seed, ws).ok()
}

/// Fallible [`uniform_reference`]: a non-graphical distribution yields
/// [`GenError::NonGraphical`] with a reason naming the violated condition
/// (odd stub sum, degree ≥ vertex count, or the Erdős–Gallai inequality).
pub fn try_uniform_reference(
    dist: &DegreeDistribution,
    iterations: usize,
    seed: u64,
) -> Result<EdgeList, GenError> {
    try_uniform_reference_with_workspace(dist, iterations, seed, &mut SwapWorkspace::new())
}

/// As [`try_uniform_reference`], reusing caller-owned swap buffers.
pub fn try_uniform_reference_with_workspace(
    dist: &DegreeDistribution,
    iterations: usize,
    seed: u64,
    ws: &mut SwapWorkspace,
) -> Result<EdgeList, GenError> {
    let Some(mut graph) = generators::havel_hakimi(dist) else {
        return Err(non_graphical(dist));
    };
    swap::try_swap_edges_with_workspace(
        &mut graph,
        &SwapConfig::new(iterations, seed),
        ws,
        &RecoveryPolicy::default(),
    )?;
    Ok(graph)
}

/// Propagate config-supplied workspace settings into the swap workspace:
/// the metrics registry (which owns the instrumentation hooks of the swap
/// phase) and the table shard count. A config without metrics leaves any
/// registry already attached to the workspace in place, so callers may wire
/// metrics through either route; likewise an unset shard count or an `Auto`
/// key width leaves a caller-configured workspace alone.
fn configure_workspace(cfg: &GeneratorConfig, ws: &mut SwapWorkspace) {
    if cfg.metrics.is_some() {
        ws.set_metrics(cfg.metrics.clone());
    }
    if let Some(shards) = cfg.swap_shards {
        ws.set_shards(shards);
    }
    if cfg.key_width != KeyWidth::Auto {
        ws.set_key_width(cfg.key_width);
    }
}

/// A [`GenError::NonGraphical`] naming the specific condition `dist`
/// violates, checked in order of cheapness: stub-sum parity, then the
/// maximum-degree bound, then (by elimination) the Erdős–Gallai inequality.
fn non_graphical(dist: &DegreeDistribution) -> GenError {
    let stubs = dist.stub_sum();
    let n = dist.num_vertices();
    let max_d = dist.degrees().last().copied().unwrap_or(0);
    let reason = if stubs % 2 == 1 {
        format!("the degree sum {stubs} is odd, so the stubs cannot pair into edges")
    } else if u64::from(max_d) >= n && n > 0 {
        format!(
            "degree {max_d} needs {max_d} distinct partners but only {} other vertices exist",
            n - 1
        )
    } else {
        format!(
            "the sequence fails the Erd\u{151}s\u{2013}Gallai condition: the high-degree \
             classes demand more edge endpoints than the remaining {n} vertices can supply"
        )
    };
    GenError::NonGraphical { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::metrics::DistributionComparison;

    fn dist(pairs: &[(u32, u64)]) -> DegreeDistribution {
        DegreeDistribution::from_pairs(pairs.to_vec()).unwrap()
    }

    #[test]
    fn pipeline_output_simple_and_close() {
        let d = dist(&[(1, 400), (2, 150), (4, 60), (10, 12), (30, 4)]);
        let out = generate_from_distribution(&d, &GeneratorConfig::new(1));
        assert!(out.graph.is_simple());
        let cmp = DistributionComparison::measure(&out.graph, &d);
        assert!(cmp.edge_count_pct.abs() < 15.0, "{cmp:?}");
        assert!(out.probability_residual < 0.3);
        assert_eq!(out.swap_stats.iterations.len(), 10);
    }

    #[test]
    fn refinement_tightens_expectation() {
        let d = dist(&[(1, 400), (2, 150), (4, 60), (10, 12), (30, 4)]);
        let plain = generate_from_distribution(&d, &GeneratorConfig::new(5));
        let refined =
            generate_from_distribution(&d, &GeneratorConfig::new(5).with_refine_rounds(20));
        assert!(refined.probability_residual <= plain.probability_residual + 1e-12);
    }

    #[test]
    fn edge_list_mixing_preserves_everything() {
        let d = dist(&[(2, 100), (4, 30)]);
        let mut g = generators::havel_hakimi(&d).unwrap();
        let before = g.degree_distribution();
        let (stats, _) = generate_from_edge_list(&mut g, &GeneratorConfig::new(9));
        assert!(g.is_simple());
        assert_eq!(g.degree_distribution(), before);
        assert!(stats.total_successful() > 0);
    }

    #[test]
    fn edge_list_mixing_is_the_fixed_sweep_resumable_run() {
        // One seed rule: this path and the resumable driver behind
        // `nullgraph mix`, its checkpoints and serve jobs give the same
        // bytes and the same per-sweep stats for the same seed.
        let start = generators::havel_hakimi(&dist(&[(2, 100), (4, 30)])).unwrap();
        let mut via_nullmodel = start.clone();
        let cfg = GeneratorConfig::new(3).with_swap_iterations(7);
        let (stats, _) = try_generate_from_edge_list(&mut via_nullmodel, &cfg).unwrap();
        let mut via_swap = start.clone();
        let report = swap::try_mix_resumable(
            &mut via_swap,
            StopRule::FixedSweeps,
            &MixingBudget::sweeps(7),
            3,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_ne!(via_nullmodel, start);
        assert_eq!(via_nullmodel, via_swap);
        assert_eq!(stats.iterations, report.stats.iterations);
    }

    #[test]
    fn uniform_reference_works() {
        let d = dist(&[(1, 40), (2, 20), (3, 10), (5, 2)]);
        let g = uniform_reference(&d, 16, 3).unwrap();
        assert!(g.is_simple());
        assert_eq!(g.degree_distribution(), d);
    }

    #[test]
    fn uniform_reference_rejects_non_graphical() {
        // One vertex of huge degree with too few partners.
        let d = DegreeDistribution::from_pairs(vec![(1, 2), (10, 2)]).unwrap();
        assert!(!d.is_graphical());
        assert!(uniform_reference(&d, 4, 1).is_none());
    }

    #[test]
    fn try_uniform_reference_names_the_violation() {
        // Max degree ≥ n: 4 vertices, one wants 10 partners.
        let d = DegreeDistribution::from_pairs(vec![(1, 2), (10, 2)]).unwrap();
        let err = try_uniform_reference(&d, 4, 1).unwrap_err();
        assert_eq!(err.error_code(), "non_graphical");
        let GenError::NonGraphical { reason } = &err else {
            panic!("unexpected error: {err}");
        };
        assert!(reason.contains("partners"), "reason: {reason}");

        // Even sum but Erdős–Gallai fails: [5,5,1,1,1,1].
        let d = DegreeDistribution::from_pairs(vec![(1, 4), (5, 2)]).unwrap();
        assert!(!d.is_graphical());
        let err = try_uniform_reference(&d, 4, 1).unwrap_err();
        let GenError::NonGraphical { reason } = &err else {
            panic!("unexpected error: {err}");
        };
        assert!(reason.contains("Erd"), "reason: {reason}");
    }

    #[test]
    fn try_generate_rejects_unservable_distribution() {
        let d = DegreeDistribution::from_pairs(vec![(1, 2), (10, 2)]).unwrap();
        let err = try_generate_from_distribution(&d, &GeneratorConfig::new(1)).unwrap_err();
        assert_eq!(err.error_code(), "non_graphical");
    }

    #[test]
    fn refine_tolerance_reported_or_typed_error() {
        let d = dist(&[(1, 400), (2, 150), (4, 60), (10, 12), (30, 4)]);
        // Achievable tolerance: success, with the report attached.
        let ok = try_generate_from_distribution(
            &d,
            &GeneratorConfig::new(5).with_refine_tolerance(0.05),
        )
        .expect("5% tolerance is achievable");
        let report = ok.refine.expect("tolerance requested, report expected");
        assert!(report.converged);
        assert!(ok.probability_residual <= 0.05);

        // Unachievable tolerance: typed error with the actual residual.
        let err = try_generate_from_distribution(
            &d,
            &GeneratorConfig::new(5)
                .with_refine_rounds(3)
                .with_refine_tolerance(0.0),
        )
        .unwrap_err();
        assert_eq!(err.error_code(), "solver_not_converged");
        let GenError::SolverNotConverged {
            residual, rounds, ..
        } = err
        else {
            panic!("unexpected error: {err}");
        };
        assert!(residual > 0.0);
        assert_eq!(rounds, 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let d = dist(&[(2, 50), (4, 25)]);
        let a = generate_from_distribution(&d, &GeneratorConfig::new(7));
        let b = generate_from_distribution(&d, &GeneratorConfig::new(7));
        assert_eq!(a.graph, b.graph);
        let c = generate_from_distribution(&d, &GeneratorConfig::new(8));
        assert_ne!(a.graph, c.graph);
    }

    #[test]
    fn timings_populated() {
        let d = dist(&[(2, 200), (6, 50)]);
        let out = generate_from_distribution(&d, &GeneratorConfig::new(2));
        // All phases ran; swap phase dominates per the paper's Fig. 6.
        assert!(out.timings.total() >= out.timings.swapping);
    }

    #[test]
    fn zero_swap_iterations_still_simple() {
        let d = dist(&[(2, 100), (4, 50)]);
        let cfg = GeneratorConfig::new(3).with_swap_iterations(0);
        let out = generate_from_distribution(&d, &cfg);
        // Edge-skipping alone already guarantees simplicity.
        assert!(out.graph.is_simple());
        assert!(out.swap_stats.iterations.is_empty());
    }
}
