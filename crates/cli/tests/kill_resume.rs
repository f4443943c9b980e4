//! Kill-tolerance, proven against the real binary: a `nullgraph mix` run
//! that is SIGKILLed mid-flight (no chance to clean up), then resumed from
//! its last crash-consistent checkpoint, must land on the byte-identical
//! output of a never-killed run. Graceful SIGINT, corrupt checkpoints and
//! budget exhaustion are driven through the same spawned-binary harness so
//! the documented exit codes (7, 9, 10) are tested end to end.
//!
//! The same harness drives `nullgraph serve`: SIGTERM must drain
//! gracefully (exit 0, zero lost accepted jobs), and even a SIGKILLed
//! server must, on restart over the same state directory, finish every
//! owed job with samples byte-identical to an uninterrupted run.
#![cfg(unix)]

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn nullgraph(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .args(args)
        .output()
        .expect("spawn nullgraph")
}

fn spawn(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nullgraph")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("nullgraph_kill_resume");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

/// A ring edge list: every vertex degree 2, every swap legal.
fn write_ring(name: &str, n: u32) -> PathBuf {
    let path = tmp(name);
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("{} {}\n", i, (i + 1) % n));
    }
    std::fs::write(&path, text).expect("write ring");
    path
}

/// Wait (bounded) until `path` exists and parses as a valid checkpoint —
/// i.e. the spawned run has durably committed at least one snapshot.
fn wait_for_checkpoint(path: &Path, deadline: Duration) -> ckpt::Snapshot {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if let Ok(snap) = ckpt::load(path) {
            return snap;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "no valid checkpoint appeared at {} in {deadline:?}",
        path.display()
    );
}

fn send_signal(pid: u32, sig: &str) {
    let status = Command::new("/bin/sh")
        .arg("-c")
        .arg(format!("kill -{sig} {pid}"))
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -{sig} {pid} failed");
}

#[test]
fn sigkill_then_resume_matches_the_uninterrupted_run_byte_for_byte() {
    let input = write_ring("kill9_in.txt", 600);
    let ckpt_file = tmp("kill9.ckpt");
    let out_killed = tmp("kill9_out.txt");
    let out_ref = tmp("kill9_ref.txt");
    std::fs::remove_file(&ckpt_file).ok();

    // A long fixed-sweeps run checkpointing after every sweep. SIGKILL it
    // once a checkpoint is durably on disk — the process gets no chance to
    // flush, drop, or clean anything up.
    let mut child = spawn(&[
        "mix",
        "--input",
        input.to_str().expect("utf8 path"),
        "--out",
        out_killed.to_str().expect("utf8 path"),
        "--iterations",
        "200000",
        "--seed",
        "13",
        "--checkpoint",
        ckpt_file.to_str().expect("utf8 path"),
        "--checkpoint-every",
        "1",
        "--quiet",
    ]);
    let snap = wait_for_checkpoint(&ckpt_file, Duration::from_secs(30));
    child.kill().expect("SIGKILL"); // Child::kill is SIGKILL on unix
    let status = child.wait().expect("reap child");
    assert!(!status.success(), "killed run must not exit cleanly");
    let killed_at = snap.state.completed_sweeps;
    assert!(killed_at >= 1, "at least one sweep checkpointed");

    // Resume to a total just past where the kill landed; the reference is
    // the same absolute run never interrupted. Re-read the file: the run
    // may have committed later checkpoints between our load and the kill.
    let resumed_from = ckpt::load(&ckpt_file).expect("post-mortem checkpoint");
    let total = (resumed_from.state.completed_sweeps + 20).to_string();
    let r = nullgraph(&[
        "mix",
        "--resume",
        ckpt_file.to_str().expect("utf8 path"),
        "--out",
        out_killed.to_str().expect("utf8 path"),
        "--iterations",
        &total,
        "--quiet",
    ]);
    assert_eq!(r.status.code(), Some(0), "resume failed: {}", stderr(&r));

    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().expect("utf8 path"),
        "--out",
        out_ref.to_str().expect("utf8 path"),
        "--iterations",
        &total,
        "--seed",
        "13",
        "--quiet",
    ]);
    assert_eq!(r.status.code(), Some(0), "reference failed: {}", stderr(&r));

    let resumed = std::fs::read_to_string(&out_killed).expect("resumed output");
    let reference = std::fs::read_to_string(&out_ref).expect("reference output");
    assert_eq!(
        resumed, reference,
        "kill -9 at sweep {killed_at} + resume must replay the exact trajectory"
    );
}

#[test]
fn sigint_drains_the_sweep_writes_a_checkpoint_and_exits_10() {
    let input = write_ring("sigint_in.txt", 600);
    let ckpt_file = tmp("sigint.ckpt");
    let out = tmp("sigint_out.txt");
    std::fs::remove_file(&ckpt_file).ok();

    let child = Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .args([
            "mix",
            "--input",
            input.to_str().expect("utf8 path"),
            "--out",
            out.to_str().expect("utf8 path"),
            "--iterations",
            "200000",
            "--seed",
            "5",
            "--checkpoint",
            ckpt_file.to_str().expect("utf8 path"),
            "--checkpoint-every",
            "1",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn nullgraph");
    wait_for_checkpoint(&ckpt_file, Duration::from_secs(30));
    send_signal(child.id(), "INT");
    let out_data = child.wait_with_output().expect("reap child");
    assert_eq!(
        out_data.status.code(),
        Some(10),
        "graceful interrupt exits 10; stderr: {}",
        String::from_utf8_lossy(&out_data.stderr)
    );
    let err = String::from_utf8_lossy(&out_data.stderr);
    assert!(err.contains("error_code=interrupted"), "stderr: {err}");
    assert!(
        err.contains("--resume"),
        "stderr names the resume flag: {err}"
    );
    assert!(out.exists(), "partial result written on interrupt");

    // The final checkpoint must be resumable.
    let snap = ckpt::load(&ckpt_file).expect("final checkpoint");
    let total = (snap.state.completed_sweeps + 5).to_string();
    let r = nullgraph(&[
        "mix",
        "--resume",
        ckpt_file.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
        "--iterations",
        &total,
        "--quiet",
    ]);
    assert_eq!(
        r.status.code(),
        Some(0),
        "resume after SIGINT: {}",
        stderr(&r)
    );
}

#[test]
fn corrupt_checkpoint_is_exit_9_with_byte_offset_diagnostics() {
    // Not-a-checkpoint-at-all fails on the magic at byte 0.
    let garbage = tmp("garbage.ckpt");
    std::fs::write(&garbage, b"this is not a checkpoint").expect("write garbage");
    let out = tmp("corrupt_out.txt");
    let r = nullgraph(&[
        "mix",
        "--resume",
        garbage.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
    ]);
    assert_eq!(r.status.code(), Some(9), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=corrupt_checkpoint"), "{err}");
    assert!(err.contains("byte"), "diagnostic carries an offset: {err}");

    // A real checkpoint with one flipped payload byte fails the checksum.
    let input = write_ring("corrupt_in.txt", 40);
    let ckpt_file = tmp("corrupt.ckpt");
    std::fs::remove_file(&ckpt_file).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
        "--until-converged",
        "--iterations",
        "1",
        "--seed",
        "2",
        "--checkpoint",
        ckpt_file.to_str().expect("utf8 path"),
        "--quiet",
    ]);
    assert_eq!(r.status.code(), Some(7), "budget starves: {}", stderr(&r));
    let mut bytes = std::fs::read(&ckpt_file).expect("checkpoint written");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    std::fs::write(&ckpt_file, &bytes).expect("re-write corrupted");
    let r = nullgraph(&[
        "mix",
        "--resume",
        ckpt_file.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
    ]);
    assert_eq!(r.status.code(), Some(9), "stderr: {}", stderr(&r));
    assert!(
        stderr(&r).contains("error_code=corrupt_checkpoint"),
        "{}",
        stderr(&r)
    );
}

#[test]
fn retired_threshold_checkpoint_is_exit_9_at_the_flags_offset() {
    // A checkpoint whose flags carry bit 1 — the retired threshold stop
    // rule — is refused typed at the flags byte, with a valid CRC so the
    // flag itself is what fails.
    let input = write_ring("retired_in.txt", 40);
    let out = tmp("retired_out.txt");
    let ckpt_file = tmp("retired.ckpt");
    std::fs::remove_file(&ckpt_file).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
        "--iterations",
        "1",
        "--budget-ms",
        "0",
        "--checkpoint",
        ckpt_file.to_str().expect("utf8 path"),
        "--quiet",
    ]);
    assert_eq!(r.status.code(), Some(7), "expired budget: {}", stderr(&r));
    let mut bytes = std::fs::read(&ckpt_file).expect("checkpoint written");
    let flags_at = ckpt::codec::HEADER_LEN + 5 * 8;
    bytes[flags_at] |= 1 << 1;
    let crc = ckpt::crc32(&bytes[ckpt::codec::HEADER_LEN..]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&ckpt_file, &bytes).expect("re-write with the retired flag");
    let r = nullgraph(&[
        "mix",
        "--resume",
        ckpt_file.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
    ]);
    assert_eq!(r.status.code(), Some(9), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=corrupt_checkpoint"), "{err}");
    assert!(err.contains(&format!("at byte {flags_at}:")), "{err}");
}

#[test]
fn budget_exhaustion_prints_the_resume_command_and_the_resume_continues_counting() {
    // The 2-edge path can never swap, so the converged rule starves the
    // budget.
    let input = tmp("exhaust_in.txt");
    std::fs::write(&input, "0 1\n1 2\n").expect("write input");
    let out = tmp("exhaust_out.txt");
    let default_ckpt = PathBuf::from(format!("{}.ckpt", out.display()));
    std::fs::remove_file(&default_ckpt).ok();
    let r = nullgraph(&[
        "mix",
        "--input",
        input.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
        "--until-converged",
        "--iterations",
        "2",
        "--seed",
        "1",
    ]);
    assert_eq!(r.status.code(), Some(7), "stderr: {}", stderr(&r));
    let err = stderr(&r);
    assert!(err.contains("error_code=mixing_budget_exceeded"), "{err}");
    assert!(
        err.contains("resume with: ") && err.contains("--resume"),
        "stderr must spell out the resume command: {err}"
    );
    assert!(
        default_ckpt.exists(),
        "an exhausted run leaves a checkpoint next to the partial result"
    );

    // Resuming with a raised budget continues the *absolute* sweep count.
    let r = nullgraph(&[
        "mix",
        "--resume",
        default_ckpt.to_str().expect("utf8 path"),
        "--out",
        out.to_str().expect("utf8 path"),
        "--iterations",
        "4",
    ]);
    assert_eq!(r.status.code(), Some(7), "still unmixable: {}", stderr(&r));
    let err = stderr(&r);
    assert!(
        err.contains("4/4 sweeps"),
        "resumed run reports absolute sweep counts: {err}"
    );
}

// ---------------------------------------------------------------- serve --

const HTTP_T: Duration = Duration::from_secs(30);

/// Boot `nullgraph serve` on an ephemeral port and parse the bound
/// address from its first stdout line.
fn spawn_serve(state: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nullgraph"))
        .args([
            "serve",
            "--state",
            state.to_str().expect("utf8 path"),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--quiet",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn nullgraph serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read bound-address line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr)
}

fn ring_graph(n: u32) -> graphcore::EdgeList {
    graphcore::EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
}

fn body_field(body: &str, key: &str) -> Option<String> {
    serve::json::parse(body)
        .ok()?
        .get(key)
        .and_then(|v| v.as_str().map(str::to_string))
}

fn submit_job(addr: SocketAddr, query: &str, graph: &graphcore::EdgeList) -> String {
    let mut bytes = Vec::new();
    graphcore::io::write_edge_list(graph, &mut bytes).expect("render edge list");
    let resp =
        serve::client::post(addr, &format!("/jobs?{query}"), &bytes, HTTP_T).expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());
    body_field(&resp.text(), "id").expect("id in 202 body")
}

fn wait_completed(addr: SocketAddr, id: &str, deadline: Duration) {
    let t0 = Instant::now();
    loop {
        let resp = serve::client::get(addr, &format!("/jobs/{id}"), HTTP_T).expect("status");
        match body_field(&resp.text(), "phase").as_deref() {
            Some("completed") => return,
            Some("failed") | Some("cancelled") => {
                panic!("job {id} ended abnormally: {}", resp.text())
            }
            _ => {}
        }
        assert!(
            t0.elapsed() < deadline,
            "timed out waiting for {id}; last status: {}",
            resp.text()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Fetch every member and compare against the in-process reference
/// ensemble: the server's contract is byte-identity with
/// `nullmodel::try_mix_ensemble_from_edge_list`, interruptions included.
fn assert_samples_match_reference(
    addr: SocketAddr,
    id: &str,
    input: &graphcore::EdgeList,
    sweeps: usize,
    seed: u64,
    samples: usize,
) {
    let reference = nullmodel::try_mix_ensemble_from_edge_list(input, sweeps, seed, samples)
        .expect("reference");
    for (k, member) in reference.iter().enumerate() {
        let mut want = Vec::new();
        graphcore::io::write_edge_list(member, &mut want).expect("render reference");
        let resp = serve::client::get(addr, &format!("/jobs/{id}/samples/{k}"), HTTP_T)
            .expect("fetch sample");
        assert_eq!(resp.status, 200, "sample {k}: {}", resp.text());
        assert_eq!(resp.body, want, "sample {k} diverged from the reference");
    }
}

fn serve_state(name: &str) -> PathBuf {
    let state = tmp(name);
    std::fs::remove_dir_all(&state).ok();
    state
}

#[test]
fn sigterm_drains_the_server_exits_0_and_loses_no_accepted_job() {
    let state = serve_state("serve_sigterm_state");
    let input = ring_graph(1024);
    let (sweeps, seed, samples) = (120usize, 21u64, 6usize);

    let (mut child, addr) = spawn_serve(&state);
    let id = submit_job(
        addr,
        &format!("samples={samples}&sweeps={sweeps}&seed={seed}&ckpt_sweeps=1"),
        &input,
    );

    // Let the worker get into the job, then ask for graceful shutdown.
    std::thread::sleep(Duration::from_millis(100));
    send_signal(child.id(), "TERM");
    let status = child.wait().expect("reap server");
    assert_eq!(
        status.code(),
        Some(0),
        "SIGTERM is a graceful drain, not a failure"
    );

    // Zero lost accepted jobs: a restart over the same state finishes the
    // owed job, byte-identical to an uninterrupted ensemble.
    let (mut child, addr) = spawn_serve(&state);
    wait_completed(addr, &id, Duration::from_secs(120));
    assert_samples_match_reference(addr, &id, &input, sweeps, seed, samples);
    send_signal(child.id(), "TERM");
    assert_eq!(child.wait().expect("reap server").code(), Some(0));
}

#[test]
fn sigkilled_server_resumes_owed_jobs_byte_identically_on_restart() {
    let state = serve_state("serve_kill9_state");
    let input = ring_graph(1024);
    let (sweeps, seed, samples) = (80usize, 77u64, 5usize);

    let (mut child, addr) = spawn_serve(&state);
    let id = submit_job(
        addr,
        &format!("samples={samples}&sweeps={sweeps}&seed={seed}&ckpt_sweeps=1"),
        &input,
    );

    // Wait until the job has durable progress on disk (a finished member
    // or a mid-member checkpoint), then SIGKILL: no drain, no cleanup.
    let job_dir = state.join("jobs").join(&id);
    let t0 = Instant::now();
    loop {
        let has_progress =
            job_dir.join("sample_0.txt").exists() || job_dir.join("sample_0.ckpt").exists();
        if has_progress {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "no durable progress appeared under {}",
            job_dir.display()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL server");
    assert!(!child.wait().expect("reap server").success());

    let (mut child, addr) = spawn_serve(&state);
    wait_completed(addr, &id, Duration::from_secs(120));
    assert_samples_match_reference(addr, &id, &input, sweeps, seed, samples);
    send_signal(child.id(), "TERM");
    assert_eq!(child.wait().expect("reap server").code(), Some(0));
}
