//! Every failure class must map to its documented process exit code and
//! print a machine-greppable `error_code=<name>` line on stderr. These tests
//! drive the real `nullgraph` binary so the mapping is proven end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn nullgraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .args(args)
        .output()
        .expect("spawn nullgraph")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nullgraph_exit_codes");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn write(name: &str, contents: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

#[test]
fn success_is_exit_zero() {
    let dist = write("ok_dist.txt", "2 30\n4 10\n");
    let out = tmp("ok_graph.txt");
    let r = nullgraph(&[
        "generate",
        "--dist",
        dist.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--seed",
        "3",
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
}

#[test]
fn missing_option_is_usage_exit_2() {
    let r = nullgraph(&["generate"]);
    assert_eq!(r.status.code(), Some(2));
    assert!(
        stderr(&r).contains("error_code=usage"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn unreadable_file_is_io_exit_3() {
    let r = nullgraph(&[
        "generate",
        "--dist",
        "/nonexistent/dist.txt",
        "--out",
        tmp("unused.txt").to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(3));
    assert!(
        stderr(&r).contains("error_code=io"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn malformed_edge_list_is_bad_input_exit_4_with_line_text() {
    let input = write("garbled.txt", "0 1\n7 banana\n2 3\n");
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        tmp("garbled_out.txt").to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(4));
    let err = stderr(&r);
    assert!(err.contains("error_code=bad_input"), "stderr: {err}");
    assert!(
        err.contains("line 2") && err.contains("banana"),
        "diagnostics must carry the offending line: {err}"
    );
}

#[test]
fn malformed_directed_inputs_are_bad_input_exit_4_with_line_text() {
    // The directed readers report malformed lines exactly like the
    // undirected ones: typed bad_input with the line's number and text.
    let out = tmp("garbled_di_out.txt");
    for (mode, contents) in [("--input", "0 1\n2 x\n"), ("--dist", "1 1 4\n2 x\n")] {
        let garbled = write("garbled_di.txt", contents);
        let r = nullgraph(&[
            "directed",
            mode,
            garbled.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(r.status.code(), Some(4), "{mode}: {}", stderr(&r));
        let err = stderr(&r);
        assert!(err.contains("error_code=bad_input"), "{mode}: {err}");
        assert!(
            err.contains("line 2") && err.contains("2 x"),
            "{mode}: diagnostics must carry the offending line: {err}"
        );
    }
}

#[test]
fn reserved_vertex_id_is_bad_input_exit_4() {
    // u32::MAX is reserved: its self loop would be the swap tables' empty
    // sentinel key. Both edge-list readers refuse it with the line.
    let input = write("reserved_id.txt", "0 1\n4294967295 4294967295\n");
    let out = tmp("reserved_id_out.txt");
    for cmd in ["mix", "directed"] {
        let r = nullgraph(&[
            cmd,
            "--input",
            input.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        assert_eq!(r.status.code(), Some(4), "{cmd}: {}", stderr(&r));
        let err = stderr(&r);
        assert!(err.contains("error_code=bad_input"), "{cmd}: {err}");
        assert!(
            err.contains("line 2") && err.contains("reserved"),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn non_graphical_distribution_is_exit_5() {
    // Even stub sum (parses fine) but max degree 5 needs 5 distinct partners
    // among only 1 other vertex.
    let dist = write("nongraphical.txt", "1 1\n5 1\n");
    let r = nullgraph(&[
        "generate",
        "--dist",
        dist.to_str().unwrap(),
        "--out",
        tmp("ng_out.txt").to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(5));
    assert!(
        stderr(&r).contains("error_code=non_graphical"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn starved_mixing_budget_is_exit_7_and_writes_partial_result() {
    // The 2-edge path can never complete a swap, so its observables stay
    // constant and the converged rule exhausts the sweep budget
    // deterministically.
    let input = write("unswappable.txt", "0 1\n1 2\n");
    let out = tmp("unswappable_out.txt");
    std::fs::remove_file(&out).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--until-converged",
        "--iterations",
        "2",
        "--seed",
        "1",
    ]);
    assert_eq!(r.status.code(), Some(7));
    let err = stderr(&r);
    assert!(err.contains("error_code=mixing_budget_exceeded"), "{err}");
    assert!(err.contains("2/2 sweeps"), "accurate sweep count: {err}");
    let partial = std::fs::read_to_string(&out).expect("partial result file");
    assert!(partial.contains("0 1"), "partial result written: {partial}");
}

#[test]
fn budget_ms_zero_is_an_expired_deadline_exit_7() {
    // `--budget-ms 0` must mean "deadline already passed" — zero completed
    // sweeps, exit 7, and the untouched input written as the partial result.
    // (It used to be silently conflated with the flag being absent.)
    let input = write("zero_budget.txt", "0 1\n2 3\n4 5\n6 7\n");
    let out = tmp("zero_budget_out.txt");
    std::fs::remove_file(&out).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--until-converged",
        "--iterations",
        "50",
        "--budget-ms",
        "0",
        "--seed",
        "1",
    ]);
    assert_eq!(r.status.code(), Some(7), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=mixing_budget_exceeded"), "{err}");
    assert!(err.contains("0/50 sweeps"), "zero sweeps completed: {err}");
    assert!(out.exists(), "partial result must still be written");
}

#[test]
fn plain_mix_honours_an_expired_budget_and_leaves_a_checkpoint() {
    // A fixed-sweeps run without any checkpoint flag takes the same path
    // as every other run: --budget-ms 0 stops it before the first sweep,
    // and the final state lands next to the output for --resume.
    let input = write("plain_budget.txt", "0 1\n2 3\n4 5\n6 7\n");
    let out = tmp("plain_budget_out.txt");
    let ckpt = tmp("plain_budget_out.txt.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--iterations",
        "50",
        "--budget-ms",
        "0",
    ]);
    assert_eq!(r.status.code(), Some(7), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=mixing_budget_exceeded"), "{err}");
    assert!(err.contains("0/50 sweeps"), "zero sweeps completed: {err}");
    assert!(ckpt.exists(), "the expired run must leave <out>.ckpt");
}

#[test]
fn absent_budget_ms_means_no_deadline() {
    // Without --budget-ms the same easily-mixed input succeeds: absence of
    // the flag (not a zero value) is what disables the wall clock.
    let input = write("no_budget.txt", "0 1\n2 3\n4 5\n6 7\n");
    let out = tmp("no_budget_out.txt");
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--iterations",
        "200",
        "--seed",
        "1",
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
}

#[test]
fn non_numeric_budget_ms_is_usage_exit_2() {
    let input = write("bad_budget.txt", "0 1\n2 3\n");
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        tmp("bad_budget_out.txt").to_str().unwrap(),
        "--budget-ms",
        "soon",
    ]);
    assert_eq!(r.status.code(), Some(2), "stderr: {}", stderr(&r));
    assert!(stderr(&r).contains("error_code=usage"), "{}", stderr(&r));
}

#[test]
fn generate_metrics_writes_snapshot_json() {
    let dist = write("metrics_dist.txt", "2 30\n4 10\n");
    let out = tmp("metrics_graph.txt");
    let metrics = tmp("metrics_generate.json");
    std::fs::remove_file(&metrics).ok();
    let r = nullgraph(&[
        "generate",
        "--dist",
        dist.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--seed",
        "3",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    for key in [
        "\"schema\": \"metrics_snapshot_v1\"",
        "\"swap\"",
        "\"proposals\"",
        "\"edgeskip\"",
        "\"sinkhorn\"",
        "\"phases_ns\"",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}

#[test]
fn mix_metrics_embeds_per_sweep_stats() {
    let input = write("metrics_mix_in.txt", "0 1\n2 3\n4 5\n6 7\n1 2\n");
    let out = tmp("metrics_mix_out.txt");
    let metrics = tmp("metrics_mix.json");
    std::fs::remove_file(&metrics).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--iterations",
        "3",
        "--seed",
        "9",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
    let json = std::fs::read_to_string(&metrics).expect("metrics file");
    assert!(json.contains("\"snapshot\""), "{json}");
    assert!(json.contains("\"sweeps\""), "{json}");
    assert!(json.contains("\"successful_swaps\""), "{json}");
    assert!(json.contains("\"wall_clock_exceeded\": false"), "{json}");
}

#[test]
fn mix_metrics_written_even_when_budget_expires() {
    let input = write("metrics_partial_in.txt", "0 1\n1 2\n");
    let out = tmp("metrics_partial_out.txt");
    let metrics = tmp("metrics_partial.json");
    std::fs::remove_file(&metrics).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--until-converged",
        "--iterations",
        "2",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert_eq!(r.status.code(), Some(7), "stderr: {}", stderr(&r));
    let json = std::fs::read_to_string(&metrics).expect("post-mortem snapshot");
    assert!(json.contains("\"metrics_snapshot_v1\""), "{json}");
}

#[test]
fn empty_metrics_path_is_usage_exit_2() {
    let dist = write("metrics_empty_dist.txt", "2 10\n");
    let r = nullgraph(&[
        "generate",
        "--dist",
        dist.to_str().unwrap(),
        "--out",
        tmp("metrics_empty_out.txt").to_str().unwrap(),
        "--metrics",
    ]);
    assert_eq!(r.status.code(), Some(2), "stderr: {}", stderr(&r));
    assert!(stderr(&r).contains("error_code=usage"), "{}", stderr(&r));
}

#[test]
fn stalled_refinement_is_exit_8() {
    // Heavy-tailed enough that three Sinkhorn rounds leave a real residual.
    let dist = write("stall_dist.txt", "1 400\n2 150\n4 60\n10 12\n30 4\n");
    let r = nullgraph(&[
        "generate",
        "--dist",
        dist.to_str().unwrap(),
        "--out",
        tmp("stall_out.txt").to_str().unwrap(),
        "--refine",
        "3",
        "--refine-tol",
        "0.0",
    ]);
    assert_eq!(r.status.code(), Some(8));
    assert!(
        stderr(&r).contains("error_code=solver_not_converged"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn lfr_with_small_communities_and_hubs_exits_zero_with_a_simple_graph() {
    // Degree-20 hubs in communities of 3-6: a community's share of a hub
    // needs more partners than the members that join the community.
    let dist = write("lfr_hubs_dist.txt", "1 300\n2 100\n20 10\n");
    let out = tmp("lfr_hubs_graph.txt");
    let r = nullgraph(&[
        "lfr",
        "--dist",
        dist.to_str().unwrap(),
        "--mu",
        "0.5",
        "--min-comm",
        "3",
        "--max-comm",
        "6",
        "--out",
        out.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
    let g = graphcore::io::load_edge_list(&out).expect("lfr writes its graph");
    assert!(!g.is_empty() && g.is_simple());
}

#[test]
fn table_full_maps_to_exit_6_in_process() {
    // No CLI input can fill a correctly-auto-sized table (recovery grows it
    // first), so the TableFull→6 mapping is asserted on the error type.
    let e = nullgraph_cli::commands::CliError::from(fault::GenError::TableFull {
        table: "ShardedEpochHashSet",
        occupancy: 64,
        capacity: 64,
        grows_attempted: 4,
    });
    assert_eq!(e.exit_code(), 6);
    assert_eq!(e.error_code(), "table_full");
}

#[test]
fn corrupt_checkpoint_maps_to_exit_9_in_process() {
    // The spawned-binary version (a real garbled file through `--resume`)
    // lives in kill_resume.rs; this pins the type-level mapping.
    let e = nullgraph_cli::commands::CliError::from(fault::GenError::corrupt_checkpoint(
        "run.ckpt",
        20,
        "checksum mismatch",
    ));
    assert_eq!(e.exit_code(), 9);
    assert_eq!(e.error_code(), "corrupt_checkpoint");
}

#[test]
fn interrupted_maps_to_exit_10_in_process() {
    // The spawned-binary version (a real SIGINT) lives in kill_resume.rs.
    let e = nullgraph_cli::commands::CliError::Interrupted {
        resume_hint: Some("nullgraph mix --resume run.ckpt --out out.txt".into()),
    };
    assert_eq!(e.exit_code(), 10);
    assert_eq!(e.error_code(), "interrupted");
    let msg = e.to_string();
    assert!(msg.contains("resume with:"), "{msg}");

    let bare = nullgraph_cli::commands::CliError::Interrupted { resume_hint: None };
    assert_eq!(bare.exit_code(), 10);
}

#[test]
fn overloaded_maps_to_exit_11_in_process() {
    // The spawned-server version (a real flooded queue through HTTP) lives
    // in crates/serve/tests/server_api.rs; this pins the CLI mapping.
    let e = nullgraph_cli::commands::CliError::from(fault::GenError::Overloaded {
        reason: "admission queue full".into(),
        queue_depth: 64,
        capacity: 64,
        retry_after_ms: 500,
    });
    assert_eq!(e.exit_code(), 11);
    assert_eq!(e.error_code(), "overloaded");
}

#[test]
fn job_cancelled_maps_to_exit_12_in_process() {
    let e = nullgraph_cli::commands::CliError::from(fault::GenError::JobCancelled {
        job_id: "j00000001".into(),
        samples_done: 3,
    });
    assert_eq!(e.exit_code(), 12);
    assert_eq!(e.error_code(), "job_cancelled");
}

/// Spawn the binary with a `NULLGRAPH_CHAOS_OPS` fault script routing
/// every durable write through the deterministic fault-injecting VFS.
fn nullgraph_chaos(script: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .env("NULLGRAPH_CHAOS_OPS", script)
        .args(args)
        .output()
        .expect("spawn nullgraph")
}

#[test]
fn enospc_on_checkpoint_write_is_storage_exhausted_exit_13() {
    let input = write("enospc_in.txt", "0 1\n2 3\n4 5\n6 7\n");
    let ckpt = tmp("enospc_run.ckpt");
    std::fs::remove_file(&ckpt).ok();
    // Op 0 is the first checkpoint's tmp-file write: a full disk there
    // must fail typed, and the atomic protocol leaves no checkpoint.
    let r = nullgraph_chaos(
        "enospc@0",
        &[
            "mix",
            "--input",
            input.to_str().unwrap(),
            "--out",
            tmp("enospc_out.txt").to_str().unwrap(),
            "--iterations",
            "3",
            "--seed",
            "5",
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ],
    );
    assert_eq!(r.status.code(), Some(13), "stderr: {}", stderr(&r));
    assert!(
        stderr(&r).contains("error_code=storage_exhausted"),
        "stderr: {}",
        stderr(&r)
    );
    assert!(!ckpt.exists(), "half-written checkpoint left behind");
}

#[test]
fn persistent_eio_is_storage_io_exit_14() {
    let input = write("eio_in.txt", "0 1\n2 3\n4 5\n6 7\n");
    // A dense EIO band outlasts the bounded retry budget; a single fault
    // would be absorbed (see the recovery test below).
    let r = nullgraph_chaos(
        "eio@0-40",
        &[
            "mix",
            "--input",
            input.to_str().unwrap(),
            "--out",
            tmp("eio_out.txt").to_str().unwrap(),
            "--iterations",
            "3",
            "--seed",
            "5",
            "--checkpoint",
            tmp("eio_run.ckpt").to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ],
    );
    assert_eq!(r.status.code(), Some(14), "stderr: {}", stderr(&r));
    assert!(
        stderr(&r).contains("error_code=storage_io"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn single_transient_eio_is_absorbed_by_retries() {
    // One EIO against the default bounded-retry policy: the run recovers
    // and its output is byte-identical to the fault-free run.
    let input = write("eio1_in.txt", "0 1\n2 3\n4 5\n6 7\n");
    let out_clean = tmp("eio1_clean.txt");
    let out_faulty = tmp("eio1_faulty.txt");
    let base = |out: &PathBuf, ckpt: &str| {
        vec![
            "mix".to_string(),
            "--input".into(),
            input.to_str().unwrap().into(),
            "--out".into(),
            out.to_str().unwrap().into(),
            "--iterations".into(),
            "3".into(),
            "--seed".into(),
            "5".into(),
            "--checkpoint".into(),
            tmp(ckpt).to_str().unwrap().into(),
            "--checkpoint-every".into(),
            "1".into(),
        ]
    };
    let clean_args = base(&out_clean, "eio1_clean.ckpt");
    let clean: Vec<&str> = clean_args.iter().map(String::as_str).collect();
    let r = nullgraph(&clean);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
    let faulty_args = base(&out_faulty, "eio1_faulty.ckpt");
    let faulty: Vec<&str> = faulty_args.iter().map(String::as_str).collect();
    let r = nullgraph_chaos("eio@1", &faulty);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
    assert_eq!(
        std::fs::read(&out_clean).unwrap(),
        std::fs::read(&out_faulty).unwrap(),
        "retry recovery must not perturb the trajectory"
    );
}

#[test]
fn malformed_chaos_script_is_usage_exit_2() {
    let input = write("badscript_in.txt", "0 1\n2 3\n");
    let r = nullgraph_chaos(
        "kaboom@wat",
        &[
            "mix",
            "--input",
            input.to_str().unwrap(),
            "--out",
            tmp("badscript_out.txt").to_str().unwrap(),
            "--iterations",
            "1",
            "--checkpoint",
            tmp("badscript.ckpt").to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ],
    );
    assert_eq!(r.status.code(), Some(2), "stderr: {}", stderr(&r));
    assert!(
        stderr(&r).contains("NULLGRAPH_CHAOS_OPS"),
        "stderr: {}",
        stderr(&r)
    );
}

#[test]
fn unwritable_serve_state_is_bad_input_exit_4() {
    // Nest --state under a regular file: mkdir can never succeed there,
    // even for root (a chmod-based probe would be waved through). The
    // server must fail fast at boot, before binding the listener.
    let blocker = write("serve_state_blocker", "not a directory\n");
    let state = blocker.join("state");
    let r = nullgraph(&[
        "serve",
        "--state",
        state.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    assert_eq!(r.status.code(), Some(4), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=bad_input"), "stderr: {err}");
    assert!(err.contains("not writable"), "stderr: {err}");
}

#[test]
fn job_panicked_maps_to_exit_15_in_process() {
    // The spawned-server version (a real panicking worker behind HTTP)
    // lives in crates/serve/tests/chaos.rs; this pins the CLI mapping.
    let e = nullgraph_cli::commands::CliError::from(fault::GenError::JobPanicked {
        job_id: "j00000001".into(),
        member: 1,
        message: "chaos: injected panic in member 1".into(),
    });
    assert_eq!(e.exit_code(), 15);
    assert_eq!(e.error_code(), "job_failed");
}

#[test]
fn shards_zero_is_usage_exit_2_on_both_commands() {
    let dist = write("shards0_dist.txt", "2 30\n4 10\n");
    let graph = write("shards0_graph.txt", "0 1\n1 2\n2 0\n");
    for args in [
        vec![
            "generate",
            "--dist",
            dist.to_str().unwrap(),
            "--out",
            tmp("shards0_gen.txt").to_str().unwrap(),
            "--shards",
            "0",
        ],
        vec![
            "mix",
            "--input",
            graph.to_str().unwrap(),
            "--out",
            tmp("shards0_mix.txt").to_str().unwrap(),
            "--shards",
            "0",
        ],
    ] {
        let r = nullgraph(&args);
        assert_eq!(r.status.code(), Some(2), "args: {args:?}");
        let err = stderr(&r);
        assert!(err.contains("error_code=usage"), "stderr: {err}");
        assert!(err.contains("shard count >= 1"), "stderr: {err}");
    }
}

#[test]
fn nonsense_ess_parameters_are_bad_input_exit_4() {
    let graph = write("ess_graph.txt", "0 1\n2 3\n4 5\n6 7\n");
    for (min_ess, window) in [("0", "64"), ("64", "1"), ("65", "64")] {
        let r = nullgraph(&[
            "mix",
            "--input",
            graph.to_str().unwrap(),
            "--out",
            tmp("ess_out.txt").to_str().unwrap(),
            "--until-converged",
            "--min-ess",
            min_ess,
            "--ess-window",
            window,
        ]);
        assert_eq!(
            r.status.code(),
            Some(4),
            "--min-ess {min_ess} --ess-window {window}: stderr: {}",
            stderr(&r)
        );
        assert!(
            stderr(&r).contains("error_code=bad_input"),
            "--min-ess {min_ess} --ess-window {window}: stderr: {}",
            stderr(&r)
        );
    }
}

#[test]
fn combined_stopping_rules_are_usage_exit_2() {
    let graph = write("both_rules_graph.txt", "0 1\n2 3\n");
    let r = nullgraph(&[
        "mix",
        "--input",
        graph.to_str().unwrap(),
        "--out",
        tmp("both_rules_out.txt").to_str().unwrap(),
        "--until-mixed",
        "--until-converged",
    ]);
    assert_eq!(r.status.code(), Some(2), "stderr: {}", stderr(&r));
    assert!(stderr(&r).contains("error_code=usage"), "{}", stderr(&r));
}

#[test]
fn unknown_and_retired_options_are_usage_exit_2() {
    // An option the command does not accept is never silently ignored: a
    // misspelling would otherwise run with defaults, and a retired
    // stopping rule would silently run fixed sweeps.
    let graph = write("unknown_opts_graph.txt", "0 1\n2 3\n");
    let out = tmp("unknown_opts_out.txt");
    for extra in [
        &["--iteration", "50", "--sed", "4"][..],
        &["--until-mixed", "--threshold", "0.9"][..],
        &["--threshold", "0.9"][..],
    ] {
        std::fs::remove_file(&out).ok();
        let mut argv = vec![
            "mix",
            "--input",
            graph.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ];
        argv.extend_from_slice(extra);
        let r = nullgraph(&argv);
        assert_eq!(r.status.code(), Some(2), "{extra:?}: {}", stderr(&r));
        let err = stderr(&r);
        assert!(err.contains("error_code=usage"), "{extra:?}: {err}");
        assert!(err.contains("unknown option --"), "{extra:?}: {err}");
        assert!(!out.exists(), "{extra:?}: nothing may run");
    }
    // Every command checks, not just mix.
    let r = nullgraph(&["stats", "--input", graph.to_str().unwrap(), "--quiet"]);
    assert_eq!(r.status.code(), Some(2), "stderr: {}", stderr(&r));
}

#[test]
fn bogus_key_width_is_usage_exit_2() {
    let graph = write("kw_graph.txt", "0 1\n1 2\n2 0\n");
    let r = nullgraph(&[
        "mix",
        "--input",
        graph.to_str().unwrap(),
        "--out",
        tmp("kw_out.txt").to_str().unwrap(),
        "--key-width",
        "16",
    ]);
    assert_eq!(r.status.code(), Some(2));
    let err = stderr(&r);
    assert!(err.contains("error_code=usage"), "stderr: {err}");
    assert!(err.contains("auto, 32, 64, or wide"), "stderr: {err}");
}

#[test]
fn forced_key_width_that_does_not_fit_is_bad_input_exit_4() {
    // 70_000 vertices need 17-bit ids; two of those plus the epoch tag
    // overflow a 32-bit table word, so forcing --key-width 32 must be
    // the typed bad_input error before any sweep runs.
    let mut edges = String::new();
    for i in 0..8u32 {
        edges.push_str(&format!("{} {}\n", i, 69_999 - i));
    }
    let input = write("kw_wide_graph.txt", &edges);
    let out = tmp("kw_wide_out.txt");
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--iterations",
        "2",
        "--key-width",
        "32",
    ]);
    assert_eq!(r.status.code(), Some(4), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=bad_input"), "stderr: {err}");
    assert!(err.contains("key width"), "stderr: {err}");

    // The same graph under --key-width auto must succeed (wider layout).
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
        "--iterations",
        "2",
    ]);
    assert_eq!(r.status.code(), Some(0), "stderr: {}", stderr(&r));
}
