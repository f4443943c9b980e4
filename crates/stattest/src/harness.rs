//! End-to-end statistical harnesses for the workspace's generators.
//!
//! * [`SwapUniformityHarness`] — samples the double-edge-swap MCMC on a
//!   small degree sequence many times and chi-square tests the empirical
//!   distribution over the **exactly enumerated** realization support
//!   against uniform (the chain's claimed stationary distribution).
//!   Includes an intentionally-biased control sampler (swap sweeps with
//!   the permutation step skipped — a non-irreducible chain) that a sound
//!   harness must *reject*, demonstrating statistical power.
//! * [`EdgeSkipExpectationHarness`] — generates many graphs with the
//!   Bernoulli edge-skipping generator and binomially tests every vertex
//!   pair's empirical edge frequency against its class-pair probability
//!   from `genprob`.
//!
//! Both harnesses apply a Bonferroni correction across their multiple
//! comparisons and produce machine-readable verdicts ([`UniformityVerdict`],
//! [`ExpectationVerdict`]) with a hand-rolled JSON encoding (no serde
//! dependency).

use crate::enumerate::{pair_index, Realizations, MAX_VERTICES};
use crate::stats::{binomial_two_sided, chi_square_uniform, TestOutcome};
use generators::havel_hakimi_sequence;
use graphcore::{DegreeDistribution, DegreeSequence, Edge, EdgeList};
use parutil::rng::mix64;
use rayon::prelude::*;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use swap::SwapWorkspace;

/// Which sampler a uniformity run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// The real chain: [`swap::try_swap_edges`] (parallel kernel).
    SwapParallel,
    /// The serial reference chain: [`swap::try_swap_edges`] over a
    /// workspace set to the serial kernel.
    SwapSerial,
    /// Control with a deliberately broken chain: swap sweeps over **fixed**
    /// adjacent pairs, never permuting the edge list. The pairing graph is
    /// frozen, the chain is not irreducible, and the empirical distribution
    /// concentrates on a strict subset of the support — the harness must
    /// reject this sampler or it has no power.
    BiasedNoPermutation,
}

impl SamplerKind {
    fn label(&self) -> &'static str {
        match self {
            SamplerKind::SwapParallel => "swap-parallel",
            SamplerKind::SwapSerial => "swap-serial",
            SamplerKind::BiasedNoPermutation => "biased-no-permutation",
        }
    }
}

/// Configuration of a uniformity run.
#[derive(Clone, Debug)]
pub struct UniformityConfig {
    /// Swap sweeps (full permute-and-swap iterations) per sample. Must be
    /// large enough to mix; tiny graphs mix in tens of sweeps.
    pub sweeps: usize,
    /// Independent chain samples per replicate.
    pub trials: u64,
    /// Independent replicates; the family-wise `alpha` is Bonferroni-split
    /// across them, and the run rejects when **any** replicate rejects.
    pub replicates: usize,
    /// Family-wise significance level.
    pub alpha: f64,
    /// Base RNG seed; every (replicate, trial) derives its own seed via
    /// [`mix64`], so runs are fully reproducible.
    pub base_seed: u64,
}

impl Default for UniformityConfig {
    fn default() -> Self {
        Self {
            sweeps: 30,
            trials: 2_000,
            replicates: 2,
            alpha: 1e-4,
            base_seed: 0x5EED_CAFE,
        }
    }
}

/// Why a harness could not be constructed or run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HarnessError {
    /// More than [`MAX_VERTICES`] vertices — the exact enumeration only
    /// covers `n ≤ 8`.
    TooManyVertices(usize),
    /// The degree sequence admits no simple realization.
    NotGraphical,
    /// A sampled graph fell outside the enumerated support (this is a
    /// *generator bug*, not a statistical rejection: swaps must preserve
    /// the degree sequence and simplicity exactly).
    SampleOutsideSupport { replicate: usize, trial: u64 },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::TooManyVertices(n) => {
                write!(
                    f,
                    "exact enumeration supports n <= {MAX_VERTICES}, got n = {n}"
                )
            }
            HarnessError::NotGraphical => write!(f, "degree sequence is not graphical"),
            HarnessError::SampleOutsideSupport { replicate, trial } => write!(
                f,
                "sample (replicate {replicate}, trial {trial}) is not a realization \
                 of the degree sequence — generator invariant violated"
            ),
        }
    }
}

impl std::error::Error for HarnessError {}

/// One replicate's chi-square result.
#[derive(Clone, Debug)]
pub struct ReplicateResult {
    /// Chi-square of the observed support histogram against uniform.
    pub outcome: TestOutcome,
    /// Observed counts per support index (sorted-mask order).
    pub counts: Vec<u64>,
}

/// Machine-readable verdict of a uniformity run.
#[derive(Clone, Debug)]
pub struct UniformityVerdict {
    /// The tested degree sequence.
    pub sequence: Vec<u32>,
    /// Which sampler was driven.
    pub sampler: &'static str,
    /// Exact number of simple realizations.
    pub support_size: usize,
    /// Samples per replicate.
    pub trials: u64,
    /// Per-replicate results.
    pub replicates: Vec<ReplicateResult>,
    /// Bonferroni-corrected per-replicate significance (`alpha / replicates`).
    pub per_replicate_alpha: f64,
    /// Smallest replicate p-value.
    pub min_p: f64,
    /// `true` when any replicate rejects at the corrected level.
    pub rejected: bool,
}

impl UniformityVerdict {
    /// Hand-rolled JSON encoding (stable field order, no serde).
    pub fn to_json(&self) -> String {
        let seq: Vec<String> = self.sequence.iter().map(u32::to_string).collect();
        let ps: Vec<String> = self
            .replicates
            .iter()
            .map(|r| format!("{:.6e}", r.outcome.p_value))
            .collect();
        let chis: Vec<String> = self
            .replicates
            .iter()
            .map(|r| format!("{:.4}", r.outcome.statistic))
            .collect();
        format!(
            concat!(
                "{{\"kind\":\"uniformity\",\"sampler\":\"{}\",\"sequence\":[{}],",
                "\"support_size\":{},\"trials\":{},\"replicates\":{},",
                "\"chi_square\":[{}],\"p_values\":[{}],",
                "\"per_replicate_alpha\":{:e},\"min_p\":{:.6e},\"rejected\":{}}}"
            ),
            self.sampler,
            seq.join(","),
            self.support_size,
            self.trials,
            self.replicates.len(),
            chis.join(","),
            ps.join(","),
            self.per_replicate_alpha,
            self.min_p,
            self.rejected,
        )
    }
}

impl fmt::Display for UniformityVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "uniformity[{}] over {:?}: support = {}, {} x {} trials",
            self.sampler,
            self.sequence,
            self.support_size,
            self.replicates.len(),
            self.trials
        )?;
        for (i, r) in self.replicates.iter().enumerate() {
            writeln!(
                f,
                "  replicate {i}: chi2 = {:.3} (dof {}), p = {:.4e}",
                r.outcome.statistic, r.outcome.dof, r.outcome.p_value
            )?;
        }
        write!(
            f,
            "  verdict: {} (min p = {:.4e}, per-replicate alpha = {:.2e})",
            if self.rejected {
                "REJECTED"
            } else {
                "not rejected"
            },
            self.min_p,
            self.per_replicate_alpha
        )
    }
}

/// Exact-enumeration uniformity harness for the swap MCMC.
#[derive(Debug)]
pub struct SwapUniformityHarness {
    sequence: Vec<u32>,
    start: EdgeList,
    support: Realizations,
}

impl SwapUniformityHarness {
    /// Build the harness for one degree sequence: enumerate its exact
    /// realization support and construct the Havel–Hakimi starting graph.
    pub fn new(sequence: &[u32]) -> Result<Self, HarnessError> {
        let support = Realizations::enumerate(sequence)
            .ok_or(HarnessError::TooManyVertices(sequence.len()))?;
        let start = havel_hakimi_sequence(&DegreeSequence::new(sequence.to_vec()))
            .ok_or(HarnessError::NotGraphical)?;
        debug_assert!(support.support_size() > 0);
        Ok(Self {
            sequence: sequence.to_vec(),
            start,
            support,
        })
    }

    /// Exact realization support.
    pub fn support(&self) -> &Realizations {
        &self.support
    }

    /// Run the harness: `cfg.replicates` independent histograms of
    /// `cfg.trials` chain samples each, chi-square tested against uniform
    /// with Bonferroni-corrected significance.
    pub fn run(
        &self,
        kind: SamplerKind,
        cfg: &UniformityConfig,
    ) -> Result<UniformityVerdict, HarnessError> {
        self.run_with_metrics(kind, cfg, None)
    }

    /// As [`run`](Self::run), attaching an [`obs::Metrics`] registry to
    /// every per-thread swap workspace so the whole battery's proposals,
    /// accepts and reject causes accumulate in one place. Counting is
    /// read-only: verdicts are identical with or without a registry.
    pub fn run_with_metrics(
        &self,
        kind: SamplerKind,
        cfg: &UniformityConfig,
        metrics: Option<&Arc<obs::Metrics>>,
    ) -> Result<UniformityVerdict, HarnessError> {
        let support_size = self.support.support_size();
        let per_replicate_alpha = cfg.alpha / cfg.replicates.max(1) as f64;
        let mut replicates = Vec::with_capacity(cfg.replicates);
        let mut min_p = f64::INFINITY;
        for rep in 0..cfg.replicates {
            let rep_seed = mix64(cfg.base_seed ^ mix64(rep as u64 ^ 0x9E37_79B9_7F4A_7C15));
            // Trials are embarrassingly parallel; each derives its own seed
            // so the histogram is independent of execution order. `fold`
            // gives every rayon split one long-lived swap workspace, so
            // consecutive trials on a thread reuse the same buffers.
            let indices: Vec<(u64, Option<usize>)> = (0..cfg.trials)
                .into_par_iter()
                .fold(
                    || {
                        let mut ws = SwapWorkspace::new();
                        ws.set_metrics(metrics.cloned());
                        ws.set_serial(kind == SamplerKind::SwapSerial);
                        (ws, Vec::new())
                    },
                    |(mut ws, mut acc), trial| {
                        let seed = mix64(rep_seed ^ mix64(trial ^ 0xD1B5_4A32_D192_ED03));
                        let mask = self.sample(kind, cfg.sweeps, seed, &mut ws);
                        acc.push((trial, self.support.index_of(mask)));
                        (ws, acc)
                    },
                )
                .map(|(_, acc)| acc)
                .collect::<Vec<_>>()
                .into_iter()
                .flatten()
                .collect();
            let mut counts = vec![0u64; support_size];
            for (trial, idx) in indices.into_iter() {
                match idx {
                    Some(i) => counts[i] += 1,
                    None => {
                        return Err(HarnessError::SampleOutsideSupport {
                            replicate: rep,
                            trial,
                        })
                    }
                }
            }
            let outcome = chi_square_uniform(&counts);
            min_p = min_p.min(outcome.p_value);
            replicates.push(ReplicateResult { outcome, counts });
        }
        let rejected = replicates
            .iter()
            .any(|r| r.outcome.rejected_at(per_replicate_alpha));
        Ok(UniformityVerdict {
            sequence: self.sequence.clone(),
            sampler: kind.label(),
            support_size,
            trials: cfg.trials,
            replicates,
            per_replicate_alpha,
            min_p,
            rejected,
        })
    }

    /// Draw one chain sample and encode it as a support mask.
    fn sample(&self, kind: SamplerKind, sweeps: usize, seed: u64, ws: &mut SwapWorkspace) -> u32 {
        let mut g = self.start.clone();
        match kind {
            SamplerKind::SwapParallel | SamplerKind::SwapSerial => {
                swap::try_swap_edges(&mut g, sweeps, seed, ws)
                    .expect("a workspace of this run's size recovers from any table fault");
            }
            SamplerKind::BiasedNoPermutation => {
                biased_fixed_pairing_sweeps(&mut g, sweeps, seed);
            }
        }
        self.support
            .mask_of(&g)
            .expect("swap preserves degrees and simplicity")
    }
}

/// The intentionally broken control chain: identical swap proposals over
/// adjacent pairs, but the edge list is **never permuted**, so the pairing
/// is frozen for the whole run. Frozen pairings make the chain reducible
/// (most realization pairs are unreachable from each other), which a
/// correct uniformity test must detect.
fn biased_fixed_pairing_sweeps(graph: &mut EdgeList, sweeps: usize, seed: u64) {
    let edges = graph.edges_mut();
    let mut present: HashSet<u64> = edges.iter().map(Edge::key).collect();
    for sweep in 0..sweeps {
        let sweep_seed = mix64(seed ^ mix64(sweep as u64));
        for pair in 0..edges.len() / 2 {
            let e = edges[2 * pair];
            let f = edges[2 * pair + 1];
            let side = mix64(sweep_seed ^ pair as u64) & 1 == 1;
            let (g, h) = e.swap_with(&f, side);
            if g.is_self_loop() || h.is_self_loop() || g.key() == h.key() {
                continue;
            }
            if present.contains(&g.key()) || present.contains(&h.key()) {
                continue;
            }
            present.remove(&e.key());
            present.remove(&f.key());
            present.insert(g.key());
            present.insert(h.key());
            edges[2 * pair] = g;
            edges[2 * pair + 1] = h;
        }
    }
}

/// Configuration of an edge-skip expectation run.
#[derive(Clone, Debug)]
pub struct ExpectationConfig {
    /// Number of generated graphs.
    pub trials: u64,
    /// Family-wise significance; Bonferroni-split across all vertex pairs.
    pub alpha: f64,
    /// Base RNG seed (trial `i` uses `mix64(base_seed ^ i)`).
    pub base_seed: u64,
}

impl Default for ExpectationConfig {
    fn default() -> Self {
        Self {
            trials: 1_500,
            alpha: 1e-4,
            base_seed: 0xED05_EED5,
        }
    }
}

/// Machine-readable verdict of an edge-skip expectation run.
#[derive(Clone, Debug)]
pub struct ExpectationVerdict {
    /// Number of vertex pairs tested.
    pub num_pairs: usize,
    /// Graphs generated.
    pub trials: u64,
    /// Bonferroni-corrected per-pair significance (`alpha / num_pairs`).
    pub per_pair_alpha: f64,
    /// Smallest per-pair binomial p-value.
    pub min_p: f64,
    /// The vertex pair attaining `min_p`.
    pub worst_pair: (u32, u32),
    /// Observed count and expected probability at the worst pair.
    pub worst_observed: u64,
    pub worst_expected_p: f64,
    /// `max_relative_residual` of the probability matrix against the degree
    /// system — reported for context (a property of `genprob`, not of the
    /// generator under test).
    pub genprob_residual: f64,
    /// `true` when any pair rejects at the corrected level.
    pub rejected: bool,
}

impl ExpectationVerdict {
    /// Hand-rolled JSON encoding (stable field order, no serde).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"kind\":\"edgeskip-expectation\",\"num_pairs\":{},\"trials\":{},",
                "\"per_pair_alpha\":{:e},\"min_p\":{:.6e},",
                "\"worst_pair\":[{},{}],\"worst_observed\":{},\"worst_expected_p\":{:.6},",
                "\"genprob_residual\":{:.6},\"rejected\":{}}}"
            ),
            self.num_pairs,
            self.trials,
            self.per_pair_alpha,
            self.min_p,
            self.worst_pair.0,
            self.worst_pair.1,
            self.worst_observed,
            self.worst_expected_p,
            self.genprob_residual,
            self.rejected,
        )
    }
}

impl fmt::Display for ExpectationVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "edgeskip-expectation: {} pairs x {} trials, genprob residual {:.4}",
            self.num_pairs, self.trials, self.genprob_residual
        )?;
        write!(
            f,
            "  worst pair ({}, {}): observed {}/{} vs p = {:.4}, p-value {:.4e}; verdict: {}",
            self.worst_pair.0,
            self.worst_pair.1,
            self.worst_observed,
            self.trials,
            self.worst_expected_p,
            self.min_p,
            if self.rejected {
                "REJECTED"
            } else {
                "not rejected"
            }
        )
    }
}

/// Per-pair expectation harness for the Bernoulli edge-skip generator.
///
/// Every vertex pair `(u, v)` is, by the generator's contract, included
/// independently with probability `P[class(u)][class(v)]`. Over `trials`
/// generated graphs the pair's count is Binomial(`trials`, `p`), which is
/// tested exactly.
pub struct EdgeSkipExpectationHarness {
    dist: DegreeDistribution,
    probs: genprob::ProbMatrix,
    /// `class_of[v]` = degree-class index of vertex `v`.
    class_of: Vec<usize>,
}

impl EdgeSkipExpectationHarness {
    /// Build the harness with the paper's heuristic probabilities. Keep the
    /// distribution small (tens of vertices): the harness counts every
    /// vertex pair.
    pub fn new(dist: DegreeDistribution) -> Self {
        let probs = genprob::heuristic_probabilities(&dist);
        Self::with_probabilities(dist, probs)
    }

    /// Build the harness with an explicit probability matrix.
    pub fn with_probabilities(dist: DegreeDistribution, probs: genprob::ProbMatrix) -> Self {
        let n = dist.num_vertices() as usize;
        let offsets = dist.class_offsets();
        let mut class_of = vec![0usize; n];
        for (c, &start) in offsets.iter().enumerate() {
            let end = offsets.get(c + 1).copied().unwrap_or(n as u64);
            for v in start..end {
                class_of[v as usize] = c;
            }
        }
        Self {
            dist,
            probs,
            class_of,
        }
    }

    /// Run the harness: generate `cfg.trials` graphs, count every vertex
    /// pair, and binomially test each count against its class-pair
    /// probability with Bonferroni correction.
    pub fn run(&self, cfg: &ExpectationConfig) -> ExpectationVerdict {
        self.run_against_with_metrics(cfg, &self.probs, None)
    }

    /// As [`run`](Self::run), tallying generated edges and skip jumps into
    /// `metrics` for every trial graph.
    pub fn run_with_metrics(
        &self,
        cfg: &ExpectationConfig,
        metrics: Option<&obs::Metrics>,
    ) -> ExpectationVerdict {
        self.run_against_with_metrics(cfg, &self.probs, metrics)
    }

    /// Like [`run`](Self::run), but test the observed counts against an
    /// *explicit* probability matrix instead of the generation matrix.
    /// Passing a wrong matrix here is the harness's own power check: the
    /// mismatch must be rejected.
    pub fn run_against(
        &self,
        cfg: &ExpectationConfig,
        test_probs: &genprob::ProbMatrix,
    ) -> ExpectationVerdict {
        self.run_against_with_metrics(cfg, test_probs, None)
    }

    /// [`run_against`](Self::run_against) with an optional metrics registry.
    pub fn run_against_with_metrics(
        &self,
        cfg: &ExpectationConfig,
        test_probs: &genprob::ProbMatrix,
        metrics: Option<&obs::Metrics>,
    ) -> ExpectationVerdict {
        let n = self.class_of.len();
        let num_pairs = n * (n - 1) / 2;
        assert!(num_pairs > 0, "need at least two vertices");
        // Per-trial generation is independent; count vectors merge by sum.
        let counts: Vec<u64> = (0..cfg.trials)
            .into_par_iter()
            .map(|trial| {
                let g = edgeskip::try_generate_with_metrics(
                    &self.probs,
                    &self.dist,
                    mix64(cfg.base_seed ^ trial),
                    metrics,
                )
                .expect("harness probabilities and distribution are consistent");
                let mut local = vec![0u64; num_pairs];
                for e in g.edges() {
                    local[pair_index(n, e.u() as usize, e.v() as usize)] += 1;
                }
                local
            })
            .reduce(
                || vec![0u64; num_pairs],
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
        let per_pair_alpha = cfg.alpha / num_pairs as f64;
        let mut min_p = f64::INFINITY;
        let mut worst_pair = (0u32, 1u32);
        let mut worst_observed = 0u64;
        let mut worst_expected_p = 0.0f64;
        let mut rejected = false;
        let mut idx = 0usize;
        for u in 0..n {
            for v in (u + 1)..n {
                let p = test_probs
                    .get(self.class_of[u], self.class_of[v])
                    .clamp(0.0, 1.0);
                let outcome = binomial_two_sided(counts[idx], cfg.trials, p);
                if outcome.p_value < min_p {
                    min_p = outcome.p_value;
                    worst_pair = (u as u32, v as u32);
                    worst_observed = counts[idx];
                    worst_expected_p = p;
                }
                rejected |= outcome.rejected_at(per_pair_alpha);
                idx += 1;
            }
        }
        ExpectationVerdict {
            num_pairs,
            trials: cfg.trials,
            per_pair_alpha,
            min_p,
            worst_pair,
            worst_observed,
            worst_expected_p,
            genprob_residual: genprob::max_relative_residual(test_probs, &self.dist),
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> UniformityConfig {
        UniformityConfig {
            sweeps: 25,
            trials: 600,
            replicates: 2,
            alpha: 1e-6,
            base_seed: 0xABCD_1234,
        }
    }

    #[test]
    fn serial_chain_not_rejected_on_small_sequence() {
        let h = SwapUniformityHarness::new(&[2, 2, 2, 1, 1]).unwrap();
        let v = h.run(SamplerKind::SwapSerial, &quick_cfg()).unwrap();
        assert!(!v.rejected, "{v}");
        assert_eq!(
            v.replicates[0].counts.iter().sum::<u64>(),
            quick_cfg().trials
        );
    }

    #[test]
    fn parallel_and_serial_chains_agree_exactly() {
        let h = SwapUniformityHarness::new(&[2, 2, 2, 1, 1]).unwrap();
        let cfg = quick_cfg();
        let a = h.run(SamplerKind::SwapSerial, &cfg).unwrap();
        let b = h.run(SamplerKind::SwapParallel, &cfg).unwrap();
        // The deterministic claim protocol makes the two paths identical
        // sample-for-sample, hence histogram-for-histogram.
        for (ra, rb) in a.replicates.iter().zip(&b.replicates) {
            assert_eq!(ra.counts, rb.counts);
        }
    }

    #[test]
    fn biased_control_is_rejected() {
        let h = SwapUniformityHarness::new(&[2, 2, 2, 1, 1]).unwrap();
        let v = h
            .run(SamplerKind::BiasedNoPermutation, &quick_cfg())
            .unwrap();
        assert!(v.rejected, "biased sampler must be rejected: {v}");
    }

    #[test]
    fn harness_rejects_bad_inputs() {
        assert_eq!(
            SwapUniformityHarness::new(&[1; 9]).unwrap_err(),
            HarnessError::TooManyVertices(9)
        );
        assert_eq!(
            SwapUniformityHarness::new(&[3, 1]).unwrap_err(),
            HarnessError::NotGraphical
        );
    }

    #[test]
    fn verdict_json_is_well_formed() {
        let h = SwapUniformityHarness::new(&[1, 1, 1, 1]).unwrap();
        let mut cfg = quick_cfg();
        cfg.trials = 300;
        let v = h.run(SamplerKind::SwapSerial, &cfg).unwrap();
        let j = v.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"kind\":\"uniformity\""));
        assert!(j.contains("\"support_size\":3"));
        assert!(j.contains("\"rejected\":"));
    }

    #[test]
    fn edgeskip_expectation_not_rejected() {
        let dist = DegreeDistribution::from_pairs(vec![(2, 8), (3, 4)]).unwrap();
        let h = EdgeSkipExpectationHarness::new(dist);
        let cfg = ExpectationConfig {
            trials: 800,
            alpha: 1e-6,
            base_seed: 0xFEED_BEEF,
        };
        let v = h.run(&cfg);
        assert!(!v.rejected, "{v}");
        assert!(v.genprob_residual < 0.25);
        let j = v.to_json();
        assert!(j.contains("\"kind\":\"edgeskip-expectation\""));
    }

    #[test]
    fn edgeskip_expectation_detects_wrong_probabilities() {
        // Generate honestly, but test against a matrix that claims
        // "p = 0.9 everywhere": the mismatch must reject.
        let dist = DegreeDistribution::from_pairs(vec![(2, 8), (3, 4)]).unwrap();
        let h = EdgeSkipExpectationHarness::new(dist);
        let mut wrong = genprob::heuristic_probabilities(&h.dist);
        for a in 0..wrong.num_classes() {
            for b in a..wrong.num_classes() {
                wrong.set(a, b, 0.9);
            }
        }
        let cfg = ExpectationConfig {
            trials: 400,
            alpha: 1e-6,
            base_seed: 0xFEED_BEEF,
        };
        assert!(h.run_against(&cfg, &wrong).rejected);
    }
}
