//! Null-model ensembles and significance testing.
//!
//! The end product of null-model generation is almost always an *ensemble*:
//! many independently mixed samples against which an observed statistic is
//! scored (motif z-scores, modularity significance, assortativity
//! baselines — the applications the paper's introduction lists). This
//! module packages that workflow. Each member is mixed by
//! degree-preserving double-edge swaps, whose parallel sweep is not an
//! exactly uniform sampler (ROADMAP.md, item 1).

use crate::{GenError, GeneratorConfig};
use graphcore::{DegreeDistribution, EdgeList};
use parutil::rng::mix64;
use swap::SwapWorkspace;

/// The derived seed of edge-list ensemble member `k`.
///
/// Every consumer that generates ensemble members independently — this
/// module's in-process loops, the serve crate generating one member per
/// worker segment, a resumed job regenerating member `k` after a restart —
/// must agree on this derivation, or "sample `k` of job `j`" stops naming a
/// unique graph. Exposed so that agreement is a function call rather than a
/// copied constant.
pub fn ensemble_member_seed(base: u64, k: usize) -> u64 {
    mix64(base ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Generate `count` independent samples from a degree distribution, each
/// with [`crate::try_generate_from_distribution`] under a distinct derived
/// seed. One swap workspace serves every sample, so sample `k + 1` reuses
/// the buffers sample `k` grew. The first failing sample aborts the
/// ensemble with its typed error.
pub fn try_ensemble_from_distribution(
    dist: &DegreeDistribution,
    cfg: &GeneratorConfig,
    count: usize,
) -> Result<Vec<EdgeList>, GenError> {
    let mut ws = SwapWorkspace::new();
    (0..count)
        .map(|k| {
            let sub = GeneratorConfig {
                seed: mix64(cfg.seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..cfg.clone()
            };
            crate::try_generate_from_distribution_with_workspace(dist, &sub, &mut ws)
                .map(|out| out.graph)
        })
        .collect()
}

/// Generate `count` independent fixed-sweep mixes of an observed edge list:
/// member `k` is the observed graph mixed for exactly `sweeps` sweeps under
/// seed [`ensemble_member_seed`]`(seed, k)`.
///
/// This is the *mix ensemble* — the serve crate's job contract. Member `k`
/// is exactly [`swap::try_swap_edges`] under that seed, and a
/// member interrupted mid-mix, checkpointed, and resumed on another process
/// is byte-identical to this uninterrupted reference (the property
/// `crates/serve` restarts rely on).
pub fn try_mix_ensemble_from_edge_list(
    observed: &EdgeList,
    sweeps: usize,
    seed: u64,
    count: usize,
) -> Result<Vec<EdgeList>, GenError> {
    try_mix_ensemble_from_edge_list_with_workspace(
        observed,
        sweeps,
        seed,
        count,
        &mut SwapWorkspace::new(),
    )
}

/// [`try_mix_ensemble_from_edge_list`] over a caller-provided workspace, so
/// ensembles (or a server's successive job segments) share grown buffers.
pub fn try_mix_ensemble_from_edge_list_with_workspace(
    observed: &EdgeList,
    sweeps: usize,
    seed: u64,
    count: usize,
    ws: &mut SwapWorkspace,
) -> Result<Vec<EdgeList>, GenError> {
    (0..count)
        .map(|k| {
            let mut g = observed.clone();
            swap::try_swap_edges(&mut g, sweeps, ensemble_member_seed(seed, k), ws)?;
            Ok(g)
        })
        .collect()
}

/// Summary of an observed statistic against a null ensemble.
#[derive(Clone, Copy, Debug)]
pub struct SignificanceReport {
    /// The observed value.
    pub observed: f64,
    /// Ensemble mean.
    pub null_mean: f64,
    /// Ensemble standard deviation (sample, `n-1`).
    pub null_sd: f64,
    /// `(observed − mean) / sd`; 0 when the ensemble is degenerate.
    pub z_score: f64,
    /// Two-sided empirical p-value: fraction of null samples at least as
    /// extreme (in |x − mean|) as the observation, with the +1 smoothing
    /// standard for permutation tests.
    pub p_value: f64,
}

impl SignificanceReport {
    /// Score `observed` against null statistic samples.
    pub fn from_samples(observed: f64, null_samples: &[f64]) -> Self {
        let n = null_samples.len();
        if n < 2 {
            return Self {
                observed,
                null_mean: null_samples.first().copied().unwrap_or(0.0),
                null_sd: 0.0,
                z_score: 0.0,
                p_value: 1.0,
            };
        }
        let mean = null_samples.iter().sum::<f64>() / n as f64;
        let var = null_samples
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        let sd = var.sqrt();
        let z = if sd > 0.0 {
            (observed - mean) / sd
        } else {
            0.0
        };
        let dev = (observed - mean).abs();
        let extreme = null_samples
            .iter()
            .filter(|&&x| (x - mean).abs() >= dev)
            .count();
        let p = (extreme + 1) as f64 / (n + 1) as f64;
        Self {
            observed,
            null_mean: mean,
            null_sd: sd,
            z_score: z,
            p_value: p,
        }
    }
}

/// Score a graph statistic of an observed network against its
/// exact-degree-sequence null model: generates the `count`-member mix
/// ensemble of `cfg.swap_iterations` sweeps under `cfg.seed` and applies
/// `statistic` to each member. A mixing failure (a table fault beyond the
/// default recovery) is a typed error.
pub fn significance_against_null(
    observed: &EdgeList,
    statistic: impl Fn(&EdgeList) -> f64,
    cfg: &GeneratorConfig,
    count: usize,
) -> Result<SignificanceReport, GenError> {
    let obs_value = statistic(observed);
    let mut ws = SwapWorkspace::new();
    crate::configure_workspace(cfg, &mut ws);
    let nulls: Vec<f64> = try_mix_ensemble_from_edge_list_with_workspace(
        observed,
        cfg.swap_iterations,
        cfg.seed,
        count,
        &mut ws,
    )?
    .iter()
    .map(&statistic)
    .collect();
    Ok(SignificanceReport::from_samples(obs_value, &nulls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::csr::Csr;

    fn dist(pairs: &[(u32, u64)]) -> DegreeDistribution {
        DegreeDistribution::from_pairs(pairs.to_vec()).unwrap()
    }

    #[test]
    fn ensembles_are_distinct_and_simple() {
        let d = dist(&[(2, 60), (4, 20)]);
        let graphs = try_ensemble_from_distribution(&d, &GeneratorConfig::new(1), 4).unwrap();
        assert_eq!(graphs.len(), 4);
        for g in &graphs {
            assert!(g.is_simple());
        }
        assert_ne!(graphs[0], graphs[1]);
        assert_ne!(graphs[1], graphs[2]);
    }

    #[test]
    fn mix_ensemble_members_are_independent_and_degree_preserving() {
        let d = dist(&[(2, 40), (3, 20)]);
        let observed = generators::havel_hakimi(&d).unwrap();
        let nulls = try_mix_ensemble_from_edge_list(&observed, 5, 77, 3).unwrap();
        assert_eq!(nulls.len(), 3);
        for g in &nulls {
            assert_eq!(g.degree_distribution(), d);
            assert!(g.is_simple());
        }
        assert_ne!(nulls[0], nulls[1]);
        // Member k is a pure function of (observed, sweeps, seed, k): a
        // shared-workspace run reproduces each member exactly.
        let mut ws = SwapWorkspace::new();
        let again =
            try_mix_ensemble_from_edge_list_with_workspace(&observed, 5, 77, 3, &mut ws).unwrap();
        assert_eq!(nulls, again);
    }

    #[test]
    fn significance_math() {
        let r = SignificanceReport::from_samples(10.0, &[1.0, 2.0, 3.0]);
        assert!((r.null_mean - 2.0).abs() < 1e-12);
        assert!((r.null_sd - 1.0).abs() < 1e-12);
        assert!((r.z_score - 8.0).abs() < 1e-12);
        assert!(r.p_value <= 0.5);
    }

    #[test]
    fn degenerate_ensembles() {
        let r = SignificanceReport::from_samples(5.0, &[]);
        assert_eq!(r.z_score, 0.0);
        assert_eq!(r.p_value, 1.0);
        let r = SignificanceReport::from_samples(5.0, &[5.0, 5.0, 5.0]);
        assert_eq!(r.z_score, 0.0, "zero-variance null must not divide by 0");
    }

    #[test]
    fn clustered_graph_triangle_significance() {
        // Two K5s joined by a bridge: far more triangles than its null.
        let mut pairs = Vec::new();
        for block in 0..2u32 {
            let base = block * 5;
            for a in 0..5 {
                for b in (a + 1)..5 {
                    pairs.push((base + a, base + b));
                }
            }
        }
        pairs.push((0, 5));
        let observed = EdgeList::from_pairs(pairs);
        let report = significance_against_null(
            &observed,
            |g| Csr::from_edge_list(g).triangle_count() as f64,
            &GeneratorConfig::new(3).with_swap_iterations(8),
            30,
        )
        .unwrap();
        assert!(
            report.z_score > 2.0,
            "clustering should be significant: {report:?}"
        );
        assert!(report.observed > report.null_mean);
        assert!(report.p_value < 0.2);
    }
}
