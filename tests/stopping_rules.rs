//! Tier-1 validation of the adaptive mixing stop rule against exact ground
//! truth, on the exactly enumerated realization support of
//! `[2, 2, 2, 1, 1]`: stopping with the ESS-based `Converged` rule waits
//! for the trailing observable window to decorrelate, and the sampled
//! distribution passes a chi-square against uniform.
//!
//! A coverage proxy (stop once the fraction of edges ever swapped crosses
//! a threshold) fails this test on the same fixture; EXPERIMENTS.md,
//! "Stopping-rule calibration", has the numbers.
//!
//! **False-positive budget.** At `alpha = 1e-7` with fixed seeds the
//! a-priori risk of an unlucky seed choice is below `1e-6`.

use generators::havel_hakimi_sequence;
use graphcore::DegreeSequence;
use parutil::rng::mix64;
use stattest::{chi_square_uniform, Realizations};
use swap::{MixControl, MixOutcome, MixingBudget, RecoveryPolicy, StopRule, SwapWorkspace};

/// The tested degree sequence (path-plus-pendant shapes, n = 5, m = 4).
const SEQUENCE: [u32; 5] = [2, 2, 2, 1, 1];

/// Independent chain samples per rule.
const TRIALS: u64 = 2_000;

/// Sweep budget per sample; the rule under test must stop well inside it.
const BUDGET_SWEEPS: usize = 400;

/// Significance of each chi-square verdict.
const ALPHA: f64 = 1e-7;

/// Sample the chain `TRIALS` times under `stop`, histogram the stopping
/// states over the exact support, and report the mean sweeps per sample.
fn stopping_histogram(stop: StopRule, base_seed: u64) -> (Vec<u64>, f64) {
    let support = Realizations::enumerate(&SEQUENCE).expect("n <= 8 enumerates");
    let start =
        havel_hakimi_sequence(&DegreeSequence::new(SEQUENCE.to_vec())).expect("graphical sequence");
    let mut counts = vec![0u64; support.support_size()];
    let mut ws = SwapWorkspace::new();
    let mut total_sweeps = 0usize;
    for trial in 0..TRIALS {
        let seed = mix64(base_seed ^ mix64(trial ^ 0xD1B5_4A32_D192_ED03));
        let mut g = start.clone();
        let report = swap::try_mix_resumable(
            &mut g,
            stop,
            &MixingBudget::sweeps(BUDGET_SWEEPS),
            seed,
            &mut MixControl::none(),
            &mut ws,
            &RecoveryPolicy::default(),
        )
        .expect("mixing succeeds");
        assert_eq!(
            report.outcome,
            MixOutcome::Completed,
            "stop rule {stop:?} must trigger within {BUDGET_SWEEPS} sweeps"
        );
        total_sweeps += report.stats.iterations.len();
        let mask = support
            .mask_of(&g)
            .expect("swaps preserve degrees and simplicity");
        let idx = support.index_of(mask).expect("mask is in the support");
        counts[idx] += 1;
    }
    (counts, total_sweeps as f64 / TRIALS as f64)
}

/// The ESS-based rule waits for a full observable window to decorrelate,
/// which on this fixture comfortably exceeds the mixing time: the sampled
/// stopping states are uniform over the exact support.
#[test]
fn converged_rule_waits_and_samples_the_uniform_distribution() {
    let stop = StopRule::Converged {
        min_ess: 24,
        window: 48,
    };
    let (counts, mean_sweeps) = stopping_histogram(stop, 0xC0FFEE);
    let outcome = chi_square_uniform(&counts);
    eprintln!(
        "converged(24/48): mean {mean_sweeps:.2} sweeps/sample, chi2 = {:.1}, p = {:.3e}",
        outcome.statistic, outcome.p_value
    );
    assert!(
        !outcome.rejected_at(ALPHA),
        "converged stopping must pass the uniformity chi-square: \
         chi2 = {:.3}, p = {:.3e}, counts = {counts:?}",
        outcome.statistic,
        outcome.p_value
    );
    assert!(
        mean_sweeps >= 48.0,
        "the rule needs at least one full window, got {mean_sweeps:.1} sweeps"
    );
}
