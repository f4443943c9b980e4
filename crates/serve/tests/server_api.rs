//! End-to-end tests of the ensemble server over real sockets: the happy
//! path, load shedding, cancellation, drain → restart → resume
//! byte-identity against the in-process reference ensemble, the blocking
//! acceptor, and the request and job timings.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use graphcore::{io as gio, EdgeList};
use serve::client;
use serve::json::Value;
use serve::{Phase, ServeConfig, Server};

const T: Duration = Duration::from_secs(30);

fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
}

fn tmp_state(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("nullgraph_serve_api_tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(state: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        state_dir: state,
        queue_capacity: 8,
        workers: 1,
        http_threads: 2,
        pool_capacity: 2,
        checkpoint_wall: Duration::from_millis(200),
        ..ServeConfig::default()
    }
}

fn body_field(body: &str, key: &str) -> Option<String> {
    serve::json::parse(body)
        .ok()?
        .get(key)
        .and_then(|v| v.as_str().map(str::to_string))
}

fn submit(addr: SocketAddr, query: &str, graph: &EdgeList) -> (u16, String) {
    let mut bytes = Vec::new();
    gio::write_edge_list(graph, &mut bytes).unwrap();
    let resp = client::post(addr, &format!("/jobs?{query}"), &bytes, T).unwrap();
    (resp.status, resp.text())
}

fn wait_phase(addr: SocketAddr, id: &str, want: &str, deadline: Duration) -> String {
    let t0 = Instant::now();
    loop {
        let resp = client::get(addr, &format!("/jobs/{id}"), T).unwrap();
        let phase = body_field(&resp.text(), "phase").unwrap_or_default();
        if phase == want {
            return phase;
        }
        assert!(
            t0.elapsed() < deadline,
            "timed out waiting for {id} to reach {want}; last status: {}",
            resp.text()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn reference_sample_bytes(input: &EdgeList, sweeps: usize, seed: u64, k: usize) -> Vec<u8> {
    let ensemble = nullmodel::try_mix_ensemble_from_edge_list(input, sweeps, seed, k + 1).unwrap();
    let mut bytes = Vec::new();
    gio::write_edge_list(&ensemble[k], &mut bytes).unwrap();
    bytes
}

#[test]
fn submit_complete_fetch_matches_reference_byte_for_byte() {
    let server = Server::start(test_config(tmp_state("happy"))).unwrap();
    let addr = server.local_addr();
    let input = ring(64);

    let (status, body) = submit(addr, "samples=3&sweeps=5&seed=42", &input);
    assert_eq!(status, 202, "{body}");
    let id = body_field(&body, "id").unwrap();

    wait_phase(addr, &id, "completed", Duration::from_secs(60));
    for k in 0..3 {
        let resp = client::get(addr, &format!("/jobs/{id}/samples/{k}"), T).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            reference_sample_bytes(&input, 5, 42, k),
            "sample {k} differs from the in-process reference ensemble"
        );
    }

    // The stream endpoint replays all members of a finished job.
    let resp = client::get(addr, &format!("/jobs/{id}/stream"), T).unwrap();
    let text = resp.text();
    assert!(
        text.contains("# sample 0") && text.contains("# sample 2"),
        "{text}"
    );
    assert!(text.contains("# end completed"), "{text}");

    // Out-of-range and unknown lookups are typed 404s.
    let resp = client::get(addr, &format!("/jobs/{id}/samples/99"), T).unwrap();
    assert_eq!(resp.status, 404);
    let resp = client::get(addr, "/jobs/zzz", T).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(
        body_field(&resp.text(), "error_code").as_deref(),
        Some("not_found")
    );

    server.request_drain();
    server.join();
}

#[test]
fn bad_submissions_are_typed_400s() {
    let server = Server::start(test_config(tmp_state("badreq"))).unwrap();
    let addr = server.local_addr();

    let resp = client::post(addr, "/jobs?samples=3", b"this is not an edge list", T).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(
        body_field(&resp.text(), "error_code").as_deref(),
        Some("bad_input")
    );

    // The reserved vertex id is refused with its line, not mixed.
    let resp = client::post(addr, "/jobs?samples=1", b"0 1\n4294967295 4294967295\n", T).unwrap();
    assert_eq!(resp.status, 400);
    let text = resp.text();
    assert_eq!(
        body_field(&text, "error_code").as_deref(),
        Some("bad_input")
    );
    assert!(
        text.contains("line 2") && text.contains("reserved"),
        "{text}"
    );

    let (status, body) = submit(addr, "samples=0", &ring(8));
    assert_eq!(status, 400, "{body}");
    let (status, body) = submit(addr, "samples=abc", &ring(8));
    assert_eq!(status, 400, "{body}");

    server.request_drain();
    server.join();
}

#[test]
fn unknown_and_retired_submit_parameters_are_typed_400s() {
    let server = Server::start(test_config(tmp_state("unknown_params"))).unwrap();
    let addr = server.local_addr();
    for (query, names) in [
        ("samples=2&sed=4", "'sed'"),
        ("samples=2&until=mixed&threshold=0.9", "'threshold'"),
        ("samples=2&until=mixed", "retired"),
    ] {
        let (status, body) = submit(addr, query, &ring(8));
        assert_eq!(status, 400, "{query}: {body}");
        assert_eq!(
            body_field(&body, "error_code").as_deref(),
            Some("bad_input"),
            "{query}: {body}"
        );
        assert!(body.contains(names), "{query}: {body}");
    }
    server.request_drain();
    server.join();
}

#[test]
fn overload_sheds_typed_errors_while_accepted_jobs_complete() {
    let mut config = test_config(tmp_state("overload"));
    config.queue_capacity = 2;
    let server = Server::start(config).unwrap();
    let addr = server.local_addr();
    let input = ring(512);

    // Flood: far more submissions than the queue holds. The first worker
    // is busy on the first job, so later submissions pile into the
    // bounded queue and overflow it.
    let mut accepted = Vec::new();
    let mut shed = 0usize;
    for _ in 0..12 {
        let (status, body) = submit(addr, "samples=2&sweeps=40&seed=7", &input);
        match status {
            202 => accepted.push(body_field(&body, "id").unwrap()),
            503 => {
                assert_eq!(
                    body_field(&body, "error_code").as_deref(),
                    Some("overloaded"),
                    "{body}"
                );
                assert!(body.contains("retry_after_ms"), "{body}");
                shed += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(
        shed > 0,
        "queue of 2 absorbed 12 concurrent-ish submissions"
    );
    assert!(!accepted.is_empty());

    // Every accepted job still completes — shedding protects, it never
    // drops admitted work.
    for id in &accepted {
        wait_phase(addr, id, "completed", Duration::from_secs(120));
    }

    let resp = client::get(addr, "/metrics", T).unwrap();
    assert_eq!(resp.status, 200);
    let metrics = resp.text();
    assert!(
        metrics.contains("\"schema\": \"serve_metrics_v1\""),
        "{metrics}"
    );

    server.request_drain();
    server.join();
}

#[test]
fn cancel_is_cooperative_and_typed() {
    let server = Server::start(test_config(tmp_state("cancel"))).unwrap();
    let addr = server.local_addr();

    // A job big enough to still be running when the cancel lands.
    let (status, body) = submit(
        addr,
        "samples=50&sweeps=400&seed=3&ckpt_sweeps=1",
        &ring(2048),
    );
    assert_eq!(status, 202, "{body}");
    let id = body_field(&body, "id").unwrap();

    let resp = client::post(addr, &format!("/jobs/{id}/cancel"), &[], T).unwrap();
    assert_eq!(resp.status, 200);
    wait_phase(addr, &id, "cancelled", Duration::from_secs(60));

    // Cancelling a terminal job is a typed conflict.
    let resp = client::post(addr, &format!("/jobs/{id}/cancel"), &[], T).unwrap();
    assert_eq!(resp.status, 409);
    assert_eq!(
        body_field(&resp.text(), "error_code").as_deref(),
        Some("job_already_terminal")
    );

    server.request_drain();
    server.join();
}

#[test]
fn drain_checkpoints_and_restart_resumes_byte_identically() {
    let state = tmp_state("drain-resume");
    let input = ring(1024);
    let (sweeps, seed, samples) = (60usize, 99u64, 4usize);

    let id = {
        let server = Server::start(test_config(state.clone())).unwrap();
        let addr = server.local_addr();
        let (status, body) = submit(
            addr,
            &format!("samples={samples}&sweeps={sweeps}&seed={seed}&ckpt_sweeps=1"),
            &input,
        );
        assert_eq!(status, 202, "{body}");
        let id = body_field(&body, "id").unwrap();

        // Let it get some work done, then drain mid-job.
        std::thread::sleep(Duration::from_millis(150));
        let resp = client::post(addr, "/admin/drain", &[], T).unwrap();
        assert_eq!(resp.status, 200);

        // A drained server sheds new submissions with the typed error.
        let (status, body) = submit(addr, "samples=1", &ring(8));
        assert_eq!(status, 503, "{body}");
        assert_eq!(
            body_field(&body, "error_code").as_deref(),
            Some("overloaded")
        );
        assert!(body.contains("draining"), "{body}");

        server.join();
        id
    };

    // "Restart": a new server over the same state dir re-admits the owed
    // job and finishes it.
    let server = Server::start(test_config(state)).unwrap();
    let addr = server.local_addr();
    wait_phase(addr, &id, "completed", Duration::from_secs(120));

    for k in 0..samples {
        let resp = client::get(addr, &format!("/jobs/{id}/samples/{k}"), T).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body,
            reference_sample_bytes(&input, sweeps, seed, k),
            "sample {k} after drain+restart differs from an uninterrupted run"
        );
    }

    server.request_drain();
    server.join();
}

#[test]
fn healthz_reports_drain_state() {
    let server = Server::start(test_config(tmp_state("healthz"))).unwrap();
    let addr = server.local_addr();
    let resp = client::get(addr, "/healthz", T).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("\"draining\":false"));
    server.request_drain();
    let resp = client::get(addr, "/healthz", T).unwrap();
    assert!(resp.text().contains("\"draining\":true"));
    server.join();
}

#[test]
fn idle_healthz_answers_without_an_accept_tick() {
    let server = Server::start(test_config(tmp_state("healthz-latency"))).unwrap();
    let addr = server.local_addr();
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let resp = client::get(addr, "/healthz", T).unwrap();
            assert_eq!(resp.status, 200);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(
        median < 3.0,
        "median /healthz latency {median:.3} ms on an idle server: {ms:?}"
    );
    server.request_drain();
    server.join();
}

#[test]
fn drain_and_join_return_promptly_on_a_server_that_never_served() {
    // The acceptor is parked in a blocking accept; join must wake it, also
    // when the server is bound to the unspecified address.
    for (i, bind) in ["127.0.0.1:0", "0.0.0.0:0"].into_iter().enumerate() {
        let mut config = test_config(tmp_state(&format!("idle-join-{i}")));
        config.addr = bind.into();
        let server = Server::start(config).unwrap();
        let (done, joined) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.request_drain();
            server.join();
            let _ = done.send(());
        });
        assert!(
            joined.recv_timeout(Duration::from_secs(2)).is_ok(),
            "drain + join of a server bound to {bind} did not return within 2 s"
        );
        stopper.join().unwrap();
    }
}

/// [`vfs::RealVfs`] that logs each operation with its path.
#[derive(Debug, Default)]
struct RecordingVfs {
    ops: Mutex<Vec<(&'static str, PathBuf)>>,
}

impl RecordingVfs {
    fn log(&self, op: &'static str, path: &Path) {
        self.ops.lock().unwrap().push((op, path.to_path_buf()));
    }

    fn ops(&self) -> Vec<(&'static str, PathBuf)> {
        self.ops.lock().unwrap().clone()
    }
}

impl vfs::Vfs for RecordingVfs {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.log("write", path);
        vfs::RealVfs.write(path, bytes)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.log("fsync", path);
        vfs::RealVfs.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.log("rename", to);
        vfs::RealVfs.rename(from, to)
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        self.log("fsync_dir", path);
        vfs::RealVfs.fsync_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.log("read", path);
        vfs::RealVfs.read(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.log("remove_file", path);
        vfs::RealVfs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.log("create_dir_all", path);
        vfs::RealVfs.create_dir_all(path)
    }
    fn exists(&self, path: &Path) -> bool {
        vfs::RealVfs.exists(path)
    }
}

#[test]
fn durable_202_also_syncs_the_job_directory_entry() {
    let state = tmp_state("jobs-dir-sync");
    let fs = Arc::new(RecordingVfs::default());
    let mut config = test_config(state.clone());
    config.vfs = fs.clone();
    let server = Server::start(config).unwrap();

    let (status, body) = submit(server.local_addr(), "samples=1&sweeps=2&seed=5", &ring(16));
    // Everything in the log now happened before the 202 reached us.
    let ops = fs.ops();
    assert_eq!(status, 202, "{body}");
    let id = body_field(&body, "id").unwrap();
    let jobs = state.join("jobs");
    let created = ops
        .iter()
        .position(|(op, p)| *op == "create_dir_all" && *p == jobs.join(&id))
        .unwrap_or_else(|| panic!("no create_dir_all of the job dir before the 202: {ops:?}"));
    assert!(
        ops[created..]
            .iter()
            .any(|(op, p)| *op == "fsync_dir" && *p == jobs),
        "jobs/ not synced between creating jobs/{id} and the 202: {ops:?}"
    );

    server.request_drain();
    server.join();
}

fn ms_field(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("missing timings_ms.{key}"))
}

#[test]
fn completed_job_reports_phase_timings_live_but_not_on_disk() {
    let state = tmp_state("job-timings");
    let server = Server::start(test_config(state.clone())).unwrap();
    let addr = server.local_addr();
    let (status, body) = submit(addr, "samples=2&sweeps=5&seed=8&ckpt_sweeps=1", &ring(256));
    assert_eq!(status, 202, "{body}");
    let id = body_field(&body, "id").unwrap();
    wait_phase(addr, &id, "completed", Duration::from_secs(60));

    let live = client::get(addr, &format!("/jobs/{id}"), T).unwrap().text();
    let doc = serve::json::parse(&live).unwrap();
    let timings = doc.get("timings_ms").unwrap_or_else(|| panic!("{live}"));
    assert!(ms_field(timings, "queue") >= 0.0, "{live}");
    for key in ["mix", "ckpt", "write"] {
        assert!(ms_field(timings, key) > 0.0, "{key} not timed: {live}");
    }

    // The persisted record is unchanged: no timings, and it parses.
    let path = state.join("jobs").join(&id).join("status.json");
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert!(!on_disk.contains("timings_ms"), "{on_disk}");
    assert_eq!(
        serve::job::parse_status(&on_disk).unwrap(),
        (Phase::Completed, 2)
    );
    server.request_drain();
    server.join();

    // A process that did not run the job reports no timings for it.
    let server = Server::start(test_config(state)).unwrap();
    let resp = client::get(server.local_addr(), &format!("/jobs/{id}"), T).unwrap();
    assert!(
        resp.text().contains("\"phase\":\"completed\""),
        "{}",
        resp.text()
    );
    assert!(!resp.text().contains("timings_ms"), "{}", resp.text());
    server.request_drain();
    server.join();
}

#[test]
fn request_phases_add_up_to_the_request_latency() {
    let server = Server::start(test_config(tmp_state("request-phases"))).unwrap();
    let addr = server.local_addr();
    let (status, body) = submit(addr, "samples=1&sweeps=2&seed=4", &ring(64));
    assert_eq!(status, 202, "{body}");
    let id = body_field(&body, "id").unwrap();
    wait_phase(addr, &id, "completed", Duration::from_secs(60));
    let resp = client::get(addr, &format!("/jobs/{id}/samples/0"), T).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(client::get(addr, "/nowhere", T).unwrap().status, 404);

    // Requests are sequential and each is recorded before its connection
    // closes, so the scrape sees every earlier request, and not itself.
    let text = client::get(addr, "/metrics", T).unwrap().text();
    let m = serve::json::parse(&text).unwrap();
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&m, |v, k| v.get(k))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("missing {path:?} in {text}"))
    };
    let requests = field(&["http", "requests"]) - 1;
    assert_eq!(field(&["http", "accept_errors"]), 0);
    assert_eq!(field(&["latency_us", "count"]), requests);
    for phase in ["queue", "parse", "handle", "write"] {
        assert_eq!(
            field(&["request_phases_us", phase, "count"]),
            requests,
            "{phase}: {text}"
        );
    }
    assert_eq!(field(&["request_phases_us", "persist", "count"]), 1);
    assert!(
        field(&["request_phases_us", "persist", "sum"])
            <= field(&["request_phases_us", "handle", "sum"]),
        "persist is part of handle: {text}"
    );
    // parse + handle + write tile the latency; each is truncated to whole
    // microseconds on its own, so the parts fall short by under 3 µs each.
    let latency = field(&["latency_us", "sum"]);
    let parts: u64 = ["parse", "handle", "write"]
        .iter()
        .map(|p| field(&["request_phases_us", p, "sum"]))
        .sum();
    assert!(
        parts <= latency && latency - parts < 3 * requests,
        "phases {parts} µs vs latency {latency} µs over {requests} requests"
    );

    server.request_drain();
    server.join();
}
