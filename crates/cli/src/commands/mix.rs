//! `nullgraph mix` — problem 1: mix an existing edge list with double-edge
//! swaps.
//!
//! Every run takes one path: [`swap::try_mix_resumable`] (or
//! [`swap::resume_from`] under `--resume`) with an interrupt flag from
//! [`crate::signal`], an optional [`CheckpointPolicy`] cadence, and a sink
//! that persists `ckpt_v2` snapshots atomically. Checkpoint flags therefore
//! never change the output of a seed. Any ending other than completion
//! leaves a checkpoint next to the partial result and prints the exact
//! `--resume` invocation that continues the run.

use super::{shards_arg, CliError};
use crate::args::{ArgError, Parsed, Spec};
use ckpt::{Snapshot, SwapCounters};
use graphcore::{io, EdgeList};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swap::{
    CheckpointPolicy, GenError, MixControl, MixOutcome, MixReport, MixState, MixingBudget,
    RecoveryPolicy, StopRule, SwapStats, SwapWorkspace,
};

/// Cadence used when `--checkpoint` is given without `--checkpoint-every`.
const DEFAULT_CHECKPOINT_WALL: Duration = Duration::from_secs(5);

/// Default ESS floor of `--until-converged` (also used to *report*
/// diagnostics for runs under other stop rules).
const DEFAULT_MIN_ESS: u32 = 64;
/// Default trailing autocorrelation window of `--until-converged`.
const DEFAULT_ESS_WINDOW: u32 = 128;

/// Parse and validate the stopping rule from `--until-converged` and its
/// parameter options. Validation happens here, at parse time: nonsense ESS
/// parameters are a typed bad-input error (exit 4), never a rule that
/// silently runs to the iteration cap.
fn parse_stop_rule(args: &Parsed) -> Result<StopRule, CliError> {
    if !args.flag("until-converged") {
        return Ok(StopRule::FixedSweeps);
    }
    let min_ess: u32 = args.get_or("min-ess", DEFAULT_MIN_ESS)?;
    let window: u32 = args.get_or("ess-window", DEFAULT_ESS_WINDOW)?;
    if min_ess == 0 || window < 2 || min_ess > window {
        return Err(GenError::bad_input(format!(
            "--min-ess {min_ess} with --ess-window {window}: need min-ess >= 1, \
             ess-window >= 2 and min-ess <= ess-window (ESS cannot exceed the window)"
        ))
        .into());
    }
    Ok(StopRule::Converged { min_ess, window })
}

/// The `--metrics` document for `mix`: the obs snapshot plus the exact
/// per-sweep counts from [`swap::SwapStats`], so external tooling can
/// cross-check the aggregated counters against the authoritative stats.
/// A `mixing_diagnostics_v1` section reports the convergence ESS estimates
/// under the run's stop rule (or the default window for other rules).
fn metrics_json(metrics: &obs::Metrics, stats: &SwapStats, stop: StopRule) -> String {
    use std::fmt::Write as _;
    let mut json = String::new();
    json.push_str("{\n  \"snapshot\": ");
    json.push_str(&metrics.snapshot().to_json());
    json.push_str(",\n  \"sweeps\": [");
    for (i, it) in stats.iterations.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"attempted_pairs\":{},\"successful_swaps\":{},\"ever_swapped_fraction\":{},\
             \"deg_product_sum\":{},\"wedge_sketch\":{}}}",
            it.attempted_pairs,
            it.successful_swaps,
            it.ever_swapped_fraction,
            it.deg_product_sum,
            it.wedge_sketch
        );
    }
    let (min_ess, window) = match stop {
        StopRule::Converged { min_ess, window } => (min_ess, window),
        _ => (DEFAULT_MIN_ESS, DEFAULT_ESS_WINDOW),
    };
    let diag = swap::MixingDiagnostics::from_iterations(&stats.iterations, min_ess, window);
    let _ = write!(
        json,
        "],\n  \"mixing_diagnostics\": {},\n  \"wall_clock_exceeded\": {},\n  \"fault_log\": {}\n}}\n",
        diag.to_json(),
        stats.wall_clock_exceeded,
        stats.events.to_json()
    );
    json
}

/// The options `nullgraph mix` accepts.
pub const SPEC: Spec = Spec {
    options: &[
        "input",
        "out",
        "iterations",
        "seed",
        "min-ess",
        "ess-window",
        "budget-ms",
        "shards",
        "key-width",
        "metrics",
        "fault-log",
        "checkpoint",
        "checkpoint-every",
        "resume",
    ],
    flags: &["until-converged", "track", "quiet"],
};

/// Parse `--checkpoint-every`: a bare integer is a sweep cadence, an
/// integer with an `ms`/`s` suffix is a wall-clock cadence.
fn parse_cadence(raw: &str) -> Result<CheckpointPolicy, ArgError> {
    let invalid = || ArgError::Invalid {
        key: "checkpoint-every".to_string(),
        value: raw.to_string(),
        expected: "sweep count or duration (e.g. 50, 500ms, 2s)",
    };
    if let Some(ms) = raw.strip_suffix("ms") {
        let ms: u64 = ms.parse().map_err(|_| invalid())?;
        Ok(CheckpointPolicy::wall(Duration::from_millis(ms)))
    } else if let Some(s) = raw.strip_suffix('s') {
        let s: u64 = s.parse().map_err(|_| invalid())?;
        Ok(CheckpointPolicy::wall(Duration::from_secs(s)))
    } else {
        let n: u64 = raw.parse().map_err(|_| invalid())?;
        if n == 0 {
            return Err(invalid());
        }
        Ok(CheckpointPolicy::sweeps(n))
    }
}

/// Persist one snapshot atomically through the CLI VFS (bounded retry on
/// transient faults; ENOSPC fast-fails as the typed `storage_exhausted`),
/// tallying the ckpt and storage metrics counters.
fn persist(
    path: &Path,
    state: &MixState,
    metrics: Option<&Arc<obs::Metrics>>,
) -> Result<usize, GenError> {
    let snap = Snapshot {
        state: state.clone(),
        counters: metrics
            .map(|m| SwapCounters::capture(m))
            .unwrap_or_default(),
    };
    let t0 = Instant::now();
    let bytes = ckpt::codec::encode(&snap);
    // Jitter seeded from the run's own seed: a chaos campaign replaying
    // the same command line sees the same backoff schedule.
    let outcome = vfs::write_atomic_retry(
        super::cli_vfs().as_ref(),
        path,
        &bytes,
        &vfs::RetryPolicy::new(snap.state.seed),
    );
    if let Some(m) = metrics {
        match &outcome {
            Ok(retries) => {
                m.ckpt_writes.incr();
                m.ckpt_bytes_written.add(bytes.len() as u64);
                m.ckpt_write_ns.add(t0.elapsed().as_nanos() as u64);
                m.storage_retries.add(u64::from(*retries));
            }
            Err(_) => m.storage_faults.incr(),
        }
    }
    outcome?;
    Ok(bytes.len())
}

/// Run the command.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let out_path = args.require("out")?;
    let metrics = super::metrics_registry(args)?;
    let policy = match args.get("checkpoint-every") {
        Some(_) => Some(parse_cadence(args.require("checkpoint-every")?)?),
        None if args.get("checkpoint").is_some() => {
            Some(CheckpointPolicy::wall(DEFAULT_CHECKPOINT_WALL))
        }
        None => None,
    };
    let ckpt_path: PathBuf = match args.get("checkpoint") {
        Some(_) => PathBuf::from(args.require("checkpoint")?),
        None => PathBuf::from(format!("{out_path}.ckpt")),
    };
    let max_wall = match args.get("budget-ms") {
        None => None,
        // `--budget-ms 0` is an already-expired deadline (the run fails
        // with mixing_budget_exceeded after zero sweeps); only *omitting*
        // the flag disables the wall clock.
        Some(_) => Some(Duration::from_millis(args.require_parsed("budget-ms")?)),
    };

    // Either a fresh run from --input, or a continuation of a checkpoint.
    let resumed: Option<Snapshot> = match args.get("resume") {
        None => None,
        Some(_) => {
            // The checkpoint already fixes these; accepting them here
            // would silently change the trajectory mid-run.
            for fixed in ["input", "seed", "until-converged", "min-ess", "ess-window"] {
                if args.get(fixed).is_some() || args.flag(fixed) {
                    return Err(ArgError::Conflict {
                        key: fixed.to_string(),
                        other: "resume".to_string(),
                    }
                    .into());
                }
            }
            let resume_path = args.require("resume")?;
            let t0 = Instant::now();
            let snap = ckpt::load_vfs(super::cli_vfs().as_ref(), Path::new(resume_path))
                .map_err(CliError::from)?;
            if let Some(m) = &metrics {
                // A fresh registry seeded with the checkpoint's totals
                // reports run-lifetime counters, as if never interrupted.
                snap.counters.restore(m);
                m.ckpt_loads.incr();
                m.ckpt_load_ns.add(t0.elapsed().as_nanos() as u64);
            }
            Some(snap)
        }
    };

    let max_sweeps: usize = match (&resumed, args.get("iterations")) {
        // An explicit --iterations raises (or lowers) the stored absolute
        // sweep cap; without it the checkpoint's own budget carries over.
        (_, Some(_)) => args.require_parsed("iterations")?,
        (Some(snap), None) => usize::try_from(snap.state.sweep_budget).unwrap_or(usize::MAX),
        (None, None) => 10,
    };
    let budget = MixingBudget {
        max_sweeps,
        max_wall,
    };

    let interrupt = crate::signal::install_interrupt_flag();
    // A checkpoint the sink cannot write is a hard failure (the operator
    // asked for durability): `persist` surfaces it as the typed
    // `storage_exhausted` / `storage_io` error, which unwinds the run
    // cleanly — the target is atomic-or-absent, never half-written.
    let metrics_for_sink = metrics.clone();
    let ckpt_for_sink = ckpt_path.clone();
    let mut sink = |state: &MixState| -> Result<(), GenError> {
        persist(&ckpt_for_sink, state, metrics_for_sink.as_ref())?;
        Ok(())
    };
    let mut ctl = MixControl {
        interrupt,
        policy,
        sink: Some(&mut sink),
    };

    // The stop rule: a resumed run continues under the checkpoint's rule
    // (the conflict checks above rejected any attempt to change it); a
    // fresh run parses and validates it from the flags.
    let stop = match &resumed {
        Some(snap) => snap.state.stop,
        None => parse_stop_rule(args)?,
    };

    let mut ws = SwapWorkspace::new();
    if let Some(shards) = shards_arg(args)? {
        ws.set_shards(shards);
    }
    ws.set_key_width(super::key_width_arg(args)?);
    ws.set_metrics(metrics.clone());
    let recovery = RecoveryPolicy::default();
    let mut t0 = Instant::now();
    let run_result: Result<(EdgeList, MixReport), GenError> = match &resumed {
        Some(snap) => swap::resume_from(&snap.state, &budget, &mut ctl, &mut ws, &recovery),
        None => {
            let in_path = args.require("input")?;
            let seed: u64 = args.get_or("seed", 0)?;
            let mut graph = io::load_edge_list(in_path)?;
            // The summary reports the mix, not the input parse.
            t0 = Instant::now();
            swap::try_mix_resumable(
                &mut graph, stop, &budget, seed, &mut ctl, &mut ws, &recovery,
            )
            .map(|report| (graph, report))
        }
    };
    let (graph, report) = run_result.map_err(CliError::from)?;
    let mix_s = t0.elapsed().as_secs_f64();

    // The partial (or final) graph and the metrics post-mortem are written
    // whatever the outcome; the checkpoint only when there is more to do.
    io::save_edge_list(&graph, out_path)?;
    if let (Some(path), Some(m)) = (args.get("metrics"), &metrics) {
        super::write_sink(path, metrics_json(m, &report.stats, stop).as_bytes())?;
    }
    super::write_fault_log(args, &report.stats.events)?;
    let resume_hint = |ckpt: &Path| {
        format!(
            "nullgraph mix --resume {} --out {}",
            ckpt.display(),
            out_path
        )
    };
    match report.outcome {
        MixOutcome::Completed => {
            // A cadence checkpoint of a now-finished run would invite a
            // pointless (if harmless) resume; drop it.
            if policy.is_some() && ckpt_path.exists() {
                std::fs::remove_file(&ckpt_path)?;
            }
            print_summary(args, &graph, &report.stats, mix_s);
            Ok(())
        }
        MixOutcome::Interrupted => {
            if let Some(state) = &report.checkpoint {
                persist(&ckpt_path, state, metrics.as_ref())?;
            }
            eprintln!("partial result written to {out_path}");
            Err(CliError::Interrupted {
                resume_hint: Some(resume_hint(&ckpt_path)),
            })
        }
        MixOutcome::BudgetExhausted => {
            if let Some(state) = &report.checkpoint {
                persist(&ckpt_path, state, metrics.as_ref())?;
            }
            eprintln!("partial result written to {out_path}");
            eprintln!("resume with: {}", resume_hint(&ckpt_path));
            Err(report.budget_error(&budget).into())
        }
    }
}

fn print_summary(args: &Parsed, graph: &EdgeList, stats: &SwapStats, mix_s: f64) {
    if args.flag("quiet") {
        return;
    }
    println!(
        "mixed {} edges: {} accepted swaps over {} sweeps (mix {mix_s:.3}s)",
        graph.len(),
        stats.total_successful(),
        stats.iterations.len(),
    );
    for ev in &stats.events {
        println!("recovery: {ev}");
    }
    if let Some(last) = stats.iterations.last() {
        println!(
            "{:.2}% of edges ever swapped; simple = {}",
            100.0 * last.ever_swapped_fraction,
            graph.is_simple()
        );
    }
    if args.flag("track") {
        for (i, it) in stats.iterations.iter().enumerate() {
            println!(
                "  iter {:>2}: {} swaps, {} self loops, {} multi-edges remain",
                i + 1,
                it.successful_swaps,
                it.self_loops,
                it.multi_edges
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DegreeDistribution;

    fn parse(argv: &[&str]) -> Parsed {
        Parsed::parse(
            &argv.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &SPEC,
        )
        .unwrap()
    }

    #[test]
    fn mix_preserves_degrees() {
        let dir = std::env::temp_dir().join("nullgraph_cli_mix");
        std::fs::create_dir_all(&dir).unwrap();
        let inp = dir.join("in.txt");
        let outp = dir.join("out.txt");
        let dist = DegreeDistribution::from_pairs(vec![(2, 40), (3, 20)]).unwrap();
        let g = generators::havel_hakimi(&dist).unwrap();
        io::save_edge_list(&g, &inp).unwrap();
        let args = parse(&[
            "--input",
            inp.to_str().unwrap(),
            "--out",
            outp.to_str().unwrap(),
            "--iterations",
            "4",
            "--track",
        ]);
        run(&args).unwrap();
        let mixed = io::load_edge_list(&outp).unwrap();
        assert_eq!(mixed.degree_distribution(), dist);
        assert!(mixed.is_simple());
        assert_ne!(mixed, g);
    }

    #[test]
    fn cadence_parses_sweeps_and_durations() {
        assert_eq!(parse_cadence("50").unwrap(), CheckpointPolicy::sweeps(50));
        assert_eq!(
            parse_cadence("500ms").unwrap(),
            CheckpointPolicy::wall(Duration::from_millis(500))
        );
        assert_eq!(
            parse_cadence("2s").unwrap(),
            CheckpointPolicy::wall(Duration::from_secs(2))
        );
        for bad in ["", "0", "-3", "fast", "5m"] {
            assert!(parse_cadence(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn stop_rule_validation() {
        assert_eq!(
            parse_stop_rule(&parse(&["--until-converged"])).unwrap(),
            StopRule::Converged {
                min_ess: DEFAULT_MIN_ESS,
                window: DEFAULT_ESS_WINDOW
            }
        );
        assert_eq!(parse_stop_rule(&parse(&[])).unwrap(), StopRule::FixedSweeps);
        // Nonsense ESS parameters are typed bad-input errors.
        for bad in [
            &["--min-ess", "0"][..],
            &["--ess-window", "1"][..],
            &["--min-ess", "65", "--ess-window", "64"][..],
        ] {
            let mut argv = vec!["--until-converged"];
            argv.extend_from_slice(bad);
            let err = parse_stop_rule(&parse(&argv)).expect_err("bad ESS params");
            match err {
                CliError::Gen(e) => assert_eq!(e.exit_code(), 4, "{bad:?}"),
                other => panic!("{bad:?} gave {other:?}"),
            }
        }
    }

    #[test]
    fn resume_rejects_conflicting_flags() {
        for extra in [
            &["--seed", "3"][..],
            &["--input", "x.txt"][..],
            &["--until-converged"][..],
            &["--min-ess", "32"][..],
            &["--ess-window", "64"][..],
        ] {
            let mut argv = vec!["--resume", "missing.ckpt", "--out", "o.txt"];
            argv.extend_from_slice(extra);
            let err = run(&parse(&argv)).unwrap_err();
            assert!(
                matches!(err, CliError::Args(ArgError::Conflict { .. })),
                "{extra:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_flags_round_trip_through_a_real_interruptionless_run() {
        // A fixed-sweeps run with a tight checkpoint cadence must finish,
        // delete its own checkpoint, and produce the same output as the
        // same run whose cadence never fires and the same run without any
        // checkpoint flag: persisting snapshots must not perturb the
        // trajectory, and there is one seed rule.
        let dir = std::env::temp_dir().join("nullgraph_cli_mix_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let inp = dir.join("in.txt");
        let dist = DegreeDistribution::from_pairs(vec![(2, 30), (4, 10)]).unwrap();
        let g = generators::havel_hakimi(&dist).unwrap();
        io::save_edge_list(&g, &inp).unwrap();
        let ckpt_file = dir.join("run.ckpt");
        let never = dir.join("never.ckpt");
        let runs: [(&str, &[&str]); 3] = [
            ("flagless.txt", &[]),
            (
                "never.txt",
                &[
                    "--checkpoint",
                    never.to_str().unwrap(),
                    "--checkpoint-every",
                    "1000000",
                ],
            ),
            (
                "ckptd.txt",
                &[
                    "--checkpoint",
                    ckpt_file.to_str().unwrap(),
                    "--checkpoint-every",
                    "2",
                ],
            ),
        ];
        let outputs: Vec<String> = runs
            .iter()
            .map(|(out, extra)| {
                let out = dir.join(out);
                let mut argv = vec![
                    "--input",
                    inp.to_str().unwrap(),
                    "--out",
                    out.to_str().unwrap(),
                    "--iterations",
                    "6",
                    "--seed",
                    "11",
                    "--quiet",
                ];
                argv.extend_from_slice(extra);
                run(&parse(&argv)).unwrap();
                std::fs::read_to_string(&out).unwrap()
            })
            .collect();
        assert_ne!(outputs[0], std::fs::read_to_string(&inp).unwrap());
        for (i, (name, _)) in runs.iter().enumerate().skip(1) {
            assert_eq!(
                outputs[0], outputs[i],
                "{name}: checkpoint flags must not perturb the trajectory"
            );
        }
        assert!(
            !ckpt_file.exists(),
            "completed run must remove its cadence checkpoint"
        );
    }
}
