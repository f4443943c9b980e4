//! The `nullgraph` command-line tool.
//!
//! ```text
//! nullgraph generate --dist degrees.txt --out graph.txt [--seed 42] [--swaps 10] [--refine 0]
//! nullgraph mix      --input graph.txt --out mixed.txt [--iterations 10] [--seed 42]
//! nullgraph lfr      --dist degrees.txt --mu 0.3 --min-comm 20 --max-comm 100 --out graph.txt
//! nullgraph profile  --name as20 [--scale 1] [--out degrees.txt]
//! nullgraph stats    --input graph.txt
//! nullgraph verify   [--sequence 2,2,2,1,1] [--control] [--json]
//! nullgraph directed --dist joint.txt --out digraph.txt
//! nullgraph serve    --state jobs/ [--addr 127.0.0.1:7878] [--queue-cap 64]
//! ```
//!
//! Every command is a plain function over parsed arguments, so the whole
//! surface is unit-testable without spawning processes.

pub mod args;
pub mod commands;
pub mod signal;

use args::{Parsed, Spec};

/// Top-level dispatch. Returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return 2;
    };
    type Command = fn(&Parsed) -> Result<(), commands::CliError>;
    let (spec, command): (&Spec, Command) = match command.as_str() {
        "generate" => (&commands::generate::SPEC, commands::generate::run),
        "mix" => (&commands::mix::SPEC, commands::mix::run),
        "lfr" => (&commands::lfr::SPEC, commands::lfr::run),
        "profile" => (&commands::profile::SPEC, commands::profile::run),
        "stats" => (&commands::stats::SPEC, commands::stats::run),
        "directed" => (&commands::digraph::SPEC, commands::digraph::run),
        "serve" => (&commands::serve::SPEC, commands::serve::run),
        "compare" => (&commands::compare::SPEC, commands::compare::run),
        "verify" => (&commands::verify::SPEC, commands::verify::run),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return 0;
        }
        other => {
            eprintln!("error: unknown command '{other}'\n{}", usage());
            return 2;
        }
    };
    let parsed = match Parsed::parse(rest, spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e} error_code=usage");
            return 2;
        }
    };
    match command(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e} error_code={}", e.error_code());
            e.exit_code()
        }
    }
}

/// The usage banner.
pub fn usage() -> &'static str {
    "nullgraph — parallel generation of simple null graph models

USAGE:
  nullgraph generate --dist <file> --out <file> [--seed N] [--swaps N] [--refine N]
            [--refine-tol F] [--shards N] [--key-width auto|32|64|wide] [--metrics <file>]
      Generate a simple graph from a degree distribution (one 'degree count'
      pair per line) and mix it with --swaps sweeps of degree-preserving
      double-edge swaps (the parallel sweep is not an exactly uniform
      sampler; see ROADMAP.md). With --refine-tol the probability
      refinement must converge below F or the run fails with
      error_code=solver_not_converged. --metrics writes a JSON
      MetricsSnapshot of pipeline counters and phase timings.

  nullgraph mix --input <file> --out <file> [--iterations N] [--seed N]
            [--until-converged] [--min-ess N] [--ess-window N]
            [--budget-ms N] [--shards N] [--key-width auto|32|64|wide]
            [--metrics <file>] [--checkpoint <file>] [--checkpoint-every <N|Nms|Ns>]
            [--track]
      Mix an existing edge list ('u v' per line) with parallel double-edge
      swaps; degrees are preserved exactly. By default the run makes
      exactly --iterations sweeps (default 10). With --until-converged,
      --iterations becomes a sweep budget: the run stops only when the
      effective sample size of every informative convergence observable
      (degree-product sum, wedge sketch, swap trajectory) over the trailing
      --ess-window sweeps (default 128) reaches --min-ess (default 64), and
      fails with error_code=mixing_budget_exceeded (exit 7) if the budget
      runs out first. --budget-ms adds a wall-clock budget to any run;
      --budget-ms 0 is an already-expired deadline, not 'no deadline'.
      --metrics writes the counter snapshot, exact per-sweep observables,
      and a mixing_diagnostics_v1 section as JSON; --track prints the
      per-sweep swap, self-loop and multi-edge counts. --shards sets the swap
      tables' shard count — a performance knob only; output is
      byte-identical at any value. --key-width packs the swap tables'
      entries into 32- or 64-bit words (auto picks the narrowest that
      fits; forcing one that does not fit is error_code=bad_input).
      --checkpoint writes crash-consistent ckpt_v2 snapshots to <file>
      (default cadence: every 5s of wall clock; --checkpoint-every takes a
      sweep count or an ms/s duration). Checkpoint flags never change the
      output. Any run that ends early — an expired budget, or a
      SIGINT/SIGTERM — writes a final checkpoint (default path <out>.ckpt);
      the signal case drains the sweep in flight and exits with code 10
      (error_code=interrupted). Stderr then names the exact --resume
      command that continues the run.

  nullgraph mix --resume <ckpt> --out <file> [--iterations N] [--budget-ms N]
            [--checkpoint <file>] [--checkpoint-every <N|Nms|Ns>] [--metrics <file>]
      Continue a checkpointed run. Seed, stop rule and input are fixed by
      the checkpoint (passing --input/--seed/--until-converged is a usage
      error); --iterations overrides the stored absolute sweep cap.
      The continuation replays the exact trajectory of an uninterrupted
      run — byte-identical output, on any thread count. A corrupt or
      version-skewed checkpoint fails with error_code=corrupt_checkpoint
      (exit 9) and a byte-offset diagnostic.

  nullgraph lfr --dist <file> --mu F --min-comm N --max-comm N
            [--exponent F] [--swaps N] [--seed N] --out <file> [--communities <file>]
      Generate an LFR-like community benchmark graph.

  nullgraph profile --name <Meso|as20|WikiTalk|DBPedia|LiveJournal|Friendster|Twitter|uk-2005>
            [--scale N] [--out <file>]
      Emit a degree distribution calibrated to a paper Table-I dataset.

  nullgraph stats --input <file>
      Print structural statistics of an edge list.

  nullgraph compare --input <graph> (--dist <file> | --against <graph>) [--tol PCT] [--strict]
      Validate a graph against a target degree distribution.

  nullgraph verify [--sequence d1,d2,...] [--trials N] [--sweeps N]
            [--replicates N] [--alpha F] [--seed N] [--json] [--control]
            [--metrics <file>]
      Statistically verify the swap chain's uniformity against the exactly
      enumerated realizations of small degree sequences (chi-square,
      Bonferroni-corrected) and the edge-skip generator's per-pair edge
      probabilities (exact binomial). Exits nonzero on any rejection;
      --control also demands rejection of an intentionally-biased sampler.

  nullgraph directed --dist <file> --out <file> [--seed N] [--swaps N]
  nullgraph directed --input <file> --out <file> [--iterations N] [--seed N]
      Directed null models: generate from a joint 'out in count'
      distribution, or mix an existing 'from to' edge list.

  nullgraph serve --state <dir> [--addr HOST:PORT] [--queue-cap N] [--workers N]
            [--http-threads N] [--pool-cap N] [--checkpoint-wall-ms N] [--chaos]
      Run the ensemble server: POST an edge list to /jobs to generate an
      ensemble of mixed null models, poll /jobs/<id>, fetch
      /jobs/<id>/samples/<k>, or follow /jobs/<id>/stream. Admission is
      bounded by --queue-cap; past it submissions are shed with the typed
      overloaded error (HTTP 503, error_code=overloaded, exit 11 when
      surfaced through the CLI) and a retry-after hint. POST /admin/drain,
      SIGINT or SIGTERM drain gracefully: in-flight members checkpoint,
      accepted-but-unfinished jobs stay owed in --state and resume on the
      next boot, byte-identical to an uninterrupted run. A cancelled job
      reports error_code=job_cancelled (exit 12); a job whose worker
      panicked lands as error_code=job_failed (exit 15) while the server
      keeps serving siblings. An unwritable --state fails fast at boot
      with error_code=bad_input (exit 4). --chaos enables deterministic
      fault-injection hooks (panic_member submissions). --state is durable
      ground truth: 'nullgraph serve' over the same directory finishes
      whatever an earlier (even SIGKILLed) process left behind.

  Common flags: --metrics <file> writes a JSON counters snapshot (with an
  embedded \"fault_log\" section on generate/mix); --fault-log <file>
  writes just the fault_log_v1 recovery-event log. An option a command
  does not accept is a usage error (exit 2).

  Storage faults: durable writes (checkpoints, samples, metrics,
  fault logs, serve state) are atomic-or-absent. Out-of-space fails with
  error_code=storage_exhausted (exit 13); an I/O fault that persists
  through bounded deterministic retries fails with error_code=storage_io
  (exit 14). Setting NULLGRAPH_CHAOS_OPS (e.g. 'enospc@12,eio@5-7' or
  'sampled:SEED:RATE') routes every durable write through a deterministic
  fault-injecting filesystem for chaos testing."
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_command_is_usage_error() {
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn unknown_command_rejected() {
        assert_eq!(run(&argv(&["frobnicate"])), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&argv(&["help"])), 0);
    }

    #[test]
    fn every_command_rejects_unknown_options() {
        // Parsing fails before any command runs, so nothing is touched.
        for command in [
            "generate", "mix", "lfr", "profile", "stats", "directed", "serve", "compare", "verify",
        ] {
            assert_eq!(
                run(&argv(&[command, "--no-such-option", "1"])),
                2,
                "{command}"
            );
        }
    }

    #[test]
    fn missing_required_option_fails() {
        // Argument problems are usage errors (exit 2), not generic failures.
        assert_eq!(run(&argv(&["generate"])), 2);
    }

    #[test]
    fn end_to_end_profile_generate_stats_mix() {
        let dir = std::env::temp_dir().join("nullgraph_cli_e2e");
        std::fs::create_dir_all(&dir).unwrap();
        let dist = dir.join("dist.txt");
        let graph = dir.join("graph.txt");
        let mixed = dir.join("mixed.txt");

        assert_eq!(
            run(&argv(&[
                "profile",
                "--name",
                "Meso",
                "--scale",
                "2",
                "--out",
                dist.to_str().unwrap()
            ])),
            0
        );
        assert_eq!(
            run(&argv(&[
                "generate",
                "--dist",
                dist.to_str().unwrap(),
                "--out",
                graph.to_str().unwrap(),
                "--seed",
                "7",
                "--swaps",
                "3"
            ])),
            0
        );
        assert_eq!(
            run(&argv(&["stats", "--input", graph.to_str().unwrap()])),
            0
        );
        assert_eq!(
            run(&argv(&[
                "mix",
                "--input",
                graph.to_str().unwrap(),
                "--out",
                mixed.to_str().unwrap(),
                "--iterations",
                "2"
            ])),
            0
        );
        let g = graphcore::io::load_edge_list(&graph).unwrap();
        let m = graphcore::io::load_edge_list(&mixed).unwrap();
        assert_eq!(g.degree_distribution(), m.degree_distribution());
        std::fs::remove_dir_all(&dir).ok();
    }
}
