//! `nullgraph verify` — statistical verification of the generators against
//! exact ground truth (the `stattest` subsystem).
//!
//! Runs the exact-enumeration uniformity harness on one or more small
//! degree sequences (chi-square of the swap chain's empirical distribution
//! over **all** realizations against uniform, Bonferroni-corrected across
//! replicates) and the per-pair expectation harness for the Bernoulli
//! edge-skip generator. Exits nonzero when any null hypothesis is
//! rejected, so the command slots directly into CI.
//!
//! `--control` additionally drives the intentionally-biased sampler
//! (frozen pairings, no permutation) and fails unless it IS rejected —
//! a self-test of the harness's statistical power.

use super::CliError;
use crate::args::{Parsed, Spec};
use stattest::{
    EdgeSkipExpectationHarness, ExpectationConfig, SamplerKind, SwapUniformityHarness,
    UniformityConfig,
};

/// Degree sequences verified when `--sequence` is not given: path-plus-
/// pendants, the 6-cycle's sequence (support 70), and perfect matchings
/// of `K_6` (support 15).
const DEFAULT_SEQUENCES: &[&[u32]] = &[&[2, 2, 2, 1, 1], &[2; 6], &[1; 6]];

/// The options `nullgraph verify` accepts.
pub const SPEC: Spec = Spec {
    options: &[
        "sequence",
        "trials",
        "sweeps",
        "replicates",
        "alpha",
        "seed",
        "metrics",
    ],
    flags: &["json", "control", "quiet"],
};

/// Run the command.
///
/// Options: `--sequence d1,d2,...` (else a default battery), `--trials N`,
/// `--sweeps N`, `--replicates N`, `--alpha F`, `--seed N`; flags
/// `--json` (machine-readable verdicts), `--control` (power self-check),
/// `--quiet`.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let cfg = UniformityConfig {
        sweeps: args.get_or("sweeps", 40usize)?,
        trials: args.get_or("trials", 2_000u64)?,
        replicates: args.get_or("replicates", 2usize)?,
        alpha: args.get_or("alpha", 1e-6f64)?,
        base_seed: args.get_or("seed", 0x5EED_CAFEu64)?,
    };
    let json = args.flag("json");
    let quiet = args.flag("quiet");
    let metrics = super::metrics_registry(args)?;

    let sequences: Vec<Vec<u32>> = match args.get("sequence") {
        Some(raw) => vec![parse_sequence(raw)?],
        None => DEFAULT_SEQUENCES.iter().map(|s| s.to_vec()).collect(),
    };

    let mut rejections = Vec::new();
    for seq in &sequences {
        let harness = SwapUniformityHarness::new(seq)
            .map_err(|e| CliError::Domain(format!("sequence {seq:?}: {e}")))?;
        let verdict = harness
            .run_with_metrics(SamplerKind::SwapParallel, &cfg, metrics.as_ref())
            .map_err(|e| CliError::Domain(e.to_string()))?;
        if json {
            println!("{}", verdict.to_json());
        } else if !quiet {
            println!("{verdict}");
        }
        if verdict.rejected {
            rejections.push(format!(
                "swap chain rejected on {seq:?} (min p = {:.3e})",
                verdict.min_p
            ));
        }
        if args.flag("control") {
            // The biased control chain is deliberately left out of the
            // metrics registry: its proposals would pollute the real
            // chain's accept/reject profile.
            let control = harness
                .run(SamplerKind::BiasedNoPermutation, &cfg)
                .map_err(|e| CliError::Domain(e.to_string()))?;
            if json {
                println!("{}", control.to_json());
            } else if !quiet {
                println!("{control}");
            }
            if !control.rejected {
                rejections.push(format!(
                    "NO POWER: biased control sampler not rejected on {seq:?}"
                ));
            }
        }
    }

    // Expectation check of the edge-skip generator on a small two-class
    // distribution (every vertex pair is binomially tested).
    let dist = graphcore::DegreeDistribution::from_pairs(vec![(2, 10), (4, 5)])
        .map_err(|e| CliError::Domain(e.to_string()))?;
    let expect_cfg = ExpectationConfig {
        trials: cfg.trials.min(2_000),
        alpha: cfg.alpha,
        base_seed: cfg.base_seed ^ 0xE5CA_FE00,
    };
    let verdict =
        EdgeSkipExpectationHarness::new(dist).run_with_metrics(&expect_cfg, metrics.as_deref());
    if json {
        println!("{}", verdict.to_json());
    } else if !quiet {
        println!("{verdict}");
    }
    if verdict.rejected {
        rejections.push(format!(
            "edge-skip expectation rejected (min p = {:.3e})",
            verdict.min_p
        ));
    }

    // The snapshot covers the whole battery (all sequences, all trials),
    // and is written whether or not anything was rejected.
    super::write_metrics_snapshot(args, metrics.as_ref(), None)?;

    if rejections.is_empty() {
        if !quiet {
            println!("VERIFIED: no null hypothesis rejected");
        }
        Ok(())
    } else {
        Err(CliError::Domain(rejections.join("; ")))
    }
}

/// Parse `"2,2,2,1,1"` into a degree sequence.
fn parse_sequence(raw: &str) -> Result<Vec<u32>, CliError> {
    raw.split(',')
        .map(|tok| {
            tok.trim()
                .parse::<u32>()
                .map_err(|_| CliError::Domain(format!("bad degree '{tok}' in --sequence")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &[&str]) -> Parsed {
        Parsed::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>(), &SPEC).unwrap()
    }

    #[test]
    fn default_battery_verifies() {
        // Smaller trial counts keep the test quick; the chain is uniform so
        // this must pass.
        let args = parsed(&["--trials", "600", "--sweeps", "25", "--quiet"]);
        run(&args).unwrap();
    }

    #[test]
    fn explicit_sequence_with_control_and_json() {
        let args = parsed(&[
            "--sequence",
            "2,2,2,1,1",
            "--trials",
            "600",
            "--sweeps",
            "25",
            "--control",
            "--json",
        ]);
        run(&args).unwrap();
    }

    #[test]
    fn non_graphical_sequence_is_domain_error() {
        let args = parsed(&["--sequence", "3,1", "--quiet"]);
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }

    #[test]
    fn malformed_sequence_rejected() {
        let args = parsed(&["--sequence", "2,banana"]);
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }

    #[test]
    fn oversized_sequence_is_domain_error() {
        let args = parsed(&["--sequence", "1,1,1,1,1,1,1,1,1,1", "--quiet"]);
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }
}
