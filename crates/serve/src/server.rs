//! The ensemble server: acceptor, handler pool, worker pool, and the
//! admission/drain/resume control plane. See `DESIGN.md` §13 for the state
//! machine; the short version:
//!
//! * **admission** — `POST /jobs` either persists the job (spec + input,
//!   durably, *before* the 202 leaves the socket — an accepted job is
//!   never lost) and enqueues it, or sheds it with a typed `overloaded`
//!   error. The queue is strictly bounded; there is no unbounded backlog
//!   anywhere in the server (connection queue and admission queue both
//!   shed when full).
//! * **execution** — workers pop jobs and mix their members in order,
//!   each member under its derived seed, checkpointing on a cadence so a
//!   kill -9 loses at most one checkpoint interval of sweeps.
//! * **drain** — SIGTERM / `POST /admin/drain` stops admission (typed
//!   `overloaded`, reason `draining`), raises every live job's stop flag,
//!   and lets workers checkpoint in-flight members. Drained jobs keep no
//!   `status.json`, which is exactly what marks them owed.
//! * **resume** — on boot the recovery scan re-admits every owed job;
//!   members completed before the crash are never redone, and the
//!   in-flight member continues from its checkpoint. Because the sweep
//!   index is the RNG position, the final ensemble is byte-identical to an
//!   uninterrupted run.

use std::cell::Cell;
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fault::GenError;
use graphcore::{io as gio, EdgeList};
use obs::ServeMetrics;
use swap::{
    CheckpointPolicy, MixControl, MixOutcome, MixState, MixingBudget, RecoveryPolicy, WorkspacePool,
};

use crate::http::{self, Request};
use crate::job::{
    ckpt_path, sample_path, scan_job_dir, status_doc, stop_rule_from_fields, Job, JobSpec,
    JobTimings, Phase, Recovered, StopReason,
};
use crate::json::{num, str as jstr, Value};

/// Server configuration. `addr` may use port 0 to bind an ephemeral port
/// (tests do); read it back with [`Server::local_addr`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Root of the durable job state (`<state>/jobs/<id>/…`).
    pub state_dir: PathBuf,
    /// Bound of the admission queue; submissions past it are shed.
    pub queue_capacity: usize,
    /// Mixing worker threads.
    pub workers: usize,
    /// HTTP handler threads.
    pub http_threads: usize,
    /// Idle [`SwapWorkspace`](swap::SwapWorkspace)s retained for reuse
    /// across jobs.
    pub pool_capacity: usize,
    /// Default checkpoint cadence for jobs that do not set `ckpt_sweeps`.
    pub checkpoint_wall: Duration,
    /// The filesystem every durable write goes through. Production is
    /// [`vfs::RealVfs`]; the chaos campaign injects a fault VFS here.
    pub vfs: Arc<dyn vfs::Vfs>,
    /// Accept chaos hooks (`panic_member`) on the submission endpoint.
    /// Off by default; without it the hooks are rejected as `bad_input`.
    pub chaos: bool,
    /// Re-runs granted to a member that failed on a *transient* storage
    /// fault (its checkpoint makes the re-run cheap). Panics and ENOSPC
    /// are never retried.
    pub member_retries: u32,
    /// Backoff schedule for transient storage faults inside one durable
    /// write.
    pub retry: vfs::RetryPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            addr: "127.0.0.1:7878".into(),
            state_dir: PathBuf::from("nullgraph-serve-state"),
            queue_capacity: 64,
            workers: cores,
            http_threads: 2,
            pool_capacity: cores,
            checkpoint_wall: Duration::from_secs(5),
            vfs: Arc::new(vfs::RealVfs),
            chaos: false,
            member_retries: 2,
            retry: vfs::RetryPolicy::new(0),
        }
    }
}

/// Why the server refused to boot. Split from plain `io::Error` so the
/// CLI can map an unwritable `--state` to the typed `bad_input` exit
/// instead of a mid-run surprise.
#[derive(Debug)]
pub enum BootError {
    /// The state directory cannot be created or written: wrong
    /// permissions, a file where a directory should be, or a full disk.
    /// Probed at boot, before the listener binds.
    UnwritableState {
        /// The state directory that failed the probe.
        path: PathBuf,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// Any other boot-time failure (bind, spawn).
    Io(std::io::Error),
}

impl std::fmt::Display for BootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootError::UnwritableState { path, source } => write!(
                f,
                "state directory '{}' is not writable: {source}",
                path.display()
            ),
            BootError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootError::UnwritableState { source, .. } => Some(source),
            BootError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for BootError {
    fn from(e: std::io::Error) -> Self {
        BootError::Io(e)
    }
}

/// Bound of the raw connection queue between acceptor and handlers.
const CONN_QUEUE_CAP: usize = 128;

/// Shared server state.
struct Inner {
    config: ServeConfig,
    metrics: Arc<ServeMetrics>,
    /// Every job this process knows: live, terminal, and drained.
    jobs: Mutex<HashMap<String, Arc<Job>>>,
    /// Bounded admission queue.
    queue: Mutex<std::collections::VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    /// Accepted connections awaiting a handler, with their accept time.
    conns: Mutex<std::collections::VecDeque<(TcpStream, Instant)>>,
    conns_cv: Condvar,
    next_id: AtomicU64,
    draining: AtomicBool,
    /// ENOSPC-degraded: admission sheds with `storage_exhausted` until a
    /// writability probe succeeds again.
    degraded: AtomicBool,
    shutdown: AtomicBool,
    pool: Arc<WorkspacePool>,
}

impl Inner {
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn jobs_dir(&self) -> PathBuf {
        self.config.state_dir.join("jobs")
    }

    fn fs(&self) -> &dyn vfs::Vfs {
        &*self.config.vfs
    }

    /// Probe state-dir writability through the VFS: create the jobs dir
    /// (idempotent) and atomically write + remove a probe file.
    fn probe_writable(&self) -> std::io::Result<()> {
        self.fs().create_dir_all(&self.jobs_dir())?;
        let probe = self.jobs_dir().join(".writable.probe");
        vfs::write_atomic(self.fs(), &probe, b"probe")?;
        let _ = self.fs().remove_file(&probe);
        Ok(())
    }

    fn begin_drain(&self) {
        // Set under the queue lock: a worker reads the flag and then waits
        // on `queue_cv` while holding that lock, so the notify below cannot
        // fall between its read and its wait and be lost.
        {
            let _queue = self.lock(&self.queue);
            self.draining.store(true, Ordering::Release);
        }
        for job in self.lock(&self.jobs).values() {
            if !job.phase().is_terminal() {
                job.request_stop(StopReason::Drain);
            }
        }
        self.queue_cv.notify_all();
        self.conns_cv.notify_all();
    }
}

/// A running ensemble server. Drop order: [`Server::request_drain`] (or a
/// drain via HTTP/SIGTERM), then [`Server::join`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    handlers: Vec<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot: probe state-dir writability, run the recovery scan, bind,
    /// spawn the pools. An unwritable `--state` fails fast and typed
    /// ([`BootError::UnwritableState`]) instead of surprising the first
    /// accepted job.
    pub fn start(config: ServeConfig) -> Result<Server, BootError> {
        let metrics = Arc::new(ServeMetrics::new());
        let pool = WorkspacePool::new(config.pool_capacity.max(1));
        let inner = Arc::new(Inner {
            metrics,
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(std::collections::VecDeque::new()),
            queue_cv: Condvar::new(),
            conns: Mutex::new(std::collections::VecDeque::new()),
            conns_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            pool,
            config,
        });

        inner
            .probe_writable()
            .map_err(|source| BootError::UnwritableState {
                path: inner.config.state_dir.clone(),
                source,
            })?;
        recover_jobs(&inner);

        let listener = TcpListener::bind(&inner.config.addr)?;
        let addr = listener.local_addr()?;

        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let handlers = (0..inner.config.http_threads.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-http-{i}"))
                    .spawn(move || handler_loop(&inner))
                    .expect("spawn handler")
            })
            .collect();
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn acceptor")
        };

        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            handlers,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric registry.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.inner.metrics
    }

    /// Begin a graceful drain: stop admitting, raise every live job's
    /// stop flag. Non-blocking and idempotent; follow with [`Server::join`].
    pub fn request_drain(&self) {
        self.inner.begin_drain();
    }

    /// Whether a drain has been requested (by API, HTTP, or signal).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Wait for workers to finish or checkpoint everything in flight, then
    /// stop the acceptor and handler threads. Blocks until a drain has
    /// been requested (it is the drain that makes workers exit).
    ///
    /// The acceptor is parked in a blocking `accept`; `join` wakes it with
    /// a connection of its own to the bound port. Should that connection
    /// fail, `join` leaves the acceptor detached instead of hanging: it
    /// leaves at the next connection it accepts, or with the process.
    pub fn join(mut self) {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        {
            // Under the conns lock, for the same reason as the drain flag:
            // a handler reads `shutdown` and waits on `conns_cv` under it.
            let _conns = self.inner.lock(&self.inner.conns);
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.conns_cv.notify_all();
        if let Some(acceptor) = self.acceptor.take() {
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_TIMEOUT).is_ok() {
                let _ = acceptor.join();
            }
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Re-admit owed jobs and register terminal ones from the state dir.
fn recover_jobs(inner: &Arc<Inner>) {
    let mut max_id = 0u64;
    let entries = match std::fs::read_dir(inner.jobs_dir()) {
        Ok(e) => e,
        Err(_) => return,
    };
    // Deterministic re-admission order (directory order is arbitrary).
    let mut dirs: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        match scan_job_dir(&dir) {
            Ok(Recovered::Terminal { spec, phase, done }) => {
                max_id = max_id.max(id_number(&spec.id));
                let job = Arc::new(Job::new(spec.clone(), dir, done));
                job.set_phase(phase);
                inner.lock(&inner.jobs).insert(spec.id, job);
            }
            Ok(Recovered::Owed { spec, done, .. }) => {
                max_id = max_id.max(id_number(&spec.id));
                let job = Arc::new(Job::new(spec.clone(), dir, done));
                inner.lock(&inner.jobs).insert(spec.id.clone(), job.clone());
                inner.lock(&inner.queue).push_back(job);
                inner.metrics.jobs_resumed.incr();
            }
            Err(_) => {
                // Not a valid job dir (foreign file, corrupt spec): leave
                // it alone rather than guess.
            }
        }
    }
    inner.next_id.store(max_id + 1, Ordering::Release);
    inner
        .metrics
        .queue_depth
        .set(inner.lock(&inner.queue).len() as f64);
}

fn id_number(id: &str) -> u64 {
    u64::from_str_radix(id.trim_start_matches('j'), 16).unwrap_or(0)
}

// ---------------------------------------------------------------------
// Worker side: job execution.
// ---------------------------------------------------------------------

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.lock(&inner.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.metrics.queue_depth.set(queue.len() as f64);
                    break job;
                }
                if inner.draining.load(Ordering::Acquire) || inner.shutdown.load(Ordering::Acquire)
                {
                    return;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        run_job(inner, &job);
    }
}

/// How one member's mixing segment ended.
enum MemberEnd {
    Done,
    Stopped,
    Failed(GenError),
}

fn run_job(inner: &Arc<Inner>, job: &Arc<Job>) {
    job.start_timings();
    // A stop raised while the job was still queued.
    if job.stop.load(Ordering::Acquire) {
        finish_stopped(inner, job);
        return;
    }
    job.set_phase(Phase::Running);

    let input = match gio::load_edge_list(job.dir.join("input.txt")) {
        Ok(g) => g,
        Err(e) => {
            finish_failed(inner, job, "io", &format!("unreadable input.txt: {e}"));
            return;
        }
    };

    let mut ws = inner.pool.acquire();
    let spec = &job.spec;
    let budget = MixingBudget {
        max_sweeps: spec.sweeps,
        max_wall: spec.budget_ms.map(Duration::from_millis),
    };
    let policy = RecoveryPolicy {
        max_grows: spec.max_grows,
        serial_fallback: spec.serial_fallback,
        ..RecoveryPolicy::default()
    };
    let cadence = spec
        .ckpt_sweeps
        .map_or(CheckpointPolicy::wall(inner.config.checkpoint_wall), |n| {
            CheckpointPolicy::sweeps(n)
        });

    let mut k = job.samples_done.load(Ordering::Acquire);
    let mut retries_left = inner.config.member_retries;
    while k < spec.samples {
        // A stop raised between members needs no checkpoint: member k has
        // not started, so the completed prefix already is the state.
        if job.stop.load(Ordering::Acquire) {
            finish_stopped(inner, job);
            return;
        }
        // Panic isolation: a poisoned member must not take the worker
        // thread (and with it the whole queue) down. The workspace it was
        // mutating is discarded — never returned to the pool — and the job
        // lands as the typed `job_failed` terminal status.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_member(inner, job, &input, k, &budget, &policy, cadence, &mut ws)
        }));
        let end = match caught {
            Ok(end) => end,
            Err(payload) => {
                ws.discard();
                inner.metrics.jobs_panicked.incr();
                let e = GenError::JobPanicked {
                    job_id: spec.id.clone(),
                    member: k,
                    message: panic_message(payload.as_ref()),
                };
                finish_failed(inner, job, e.error_code(), &e.to_string());
                return;
            }
        };
        match end {
            MemberEnd::Done => {
                job.member_done();
                inner.metrics.samples_written.incr();
                k += 1;
            }
            MemberEnd::Stopped => {
                finish_stopped(inner, job);
                return;
            }
            MemberEnd::Failed(e) => {
                // A transient storage fault gets a bounded number of member
                // re-runs: the member's checkpoint survived (atomic-or-
                // absent), so the re-run resumes instead of starting over.
                if matches!(e, GenError::StorageIo { .. }) && retries_left > 0 {
                    retries_left -= 1;
                    inner.metrics.member_retries.incr();
                    continue;
                }
                if matches!(e, GenError::StorageExhausted { .. }) {
                    // Flip to graceful degradation: admission sheds with
                    // `storage_exhausted` until a probe succeeds again.
                    inner.degraded.store(true, Ordering::Release);
                }
                finish_failed(inner, job, e.error_code(), &e.to_string());
                return;
            }
        }
    }

    let done = job.samples_done.load(Ordering::Acquire);
    let status = status_doc(&spec.id, &Phase::Completed, done, spec.samples);
    let writing = Instant::now();
    let written = vfs::write_atomic_retry(
        inner.fs(),
        &job.dir.join("status.json"),
        status.as_bytes(),
        &inner.config.retry,
    );
    job.add_timings(JobTimings {
        write: writing.elapsed(),
        ..JobTimings::default()
    });
    if let Err(e) = written {
        if matches!(e, GenError::StorageExhausted { .. }) {
            inner.degraded.store(true, Ordering::Release);
        }
        finish_failed(inner, job, e.error_code(), &e.to_string());
        return;
    }
    job.set_phase(Phase::Completed);
    inner.metrics.jobs_completed.incr();
}

/// Render a caught panic payload (the common `&str` / `String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::new()
    }
}

/// Mix member `k`: fresh from the input, or resumed from its checkpoint.
#[allow(clippy::too_many_arguments)]
fn run_member(
    inner: &Arc<Inner>,
    job: &Arc<Job>,
    input: &EdgeList,
    k: usize,
    budget: &MixingBudget,
    policy: &RecoveryPolicy,
    cadence: CheckpointPolicy,
    ws: &mut swap::SwapWorkspace,
) -> MemberEnd {
    // Chaos hook: a job submitted with `panic_member=k` (only accepted when
    // the server runs with chaos enabled) poisons exactly that member, so
    // tests can drive the panic-isolation path deterministically.
    if job.spec.panic_member == Some(k) {
        panic!("chaos: injected panic in member {k}");
    }
    let ckpt_file = ckpt_path(&job.dir, k);
    // Checkpoint I/O inside the kernel call, so the job's mix time can
    // leave it out.
    let ckpt_time = Cell::new(Duration::ZERO);
    let mut sink = |state: &MixState| -> Result<(), GenError> {
        timed(&ckpt_time, || {
            ckpt::write_atomic_retry(
                inner.fs(),
                &ckpt_file,
                &ckpt::Snapshot::without_counters(state.clone()),
                &inner.config.retry,
            )
        })?;
        Ok(())
    };
    let mut ctl = MixControl {
        interrupt: Some(&job.stop),
        policy: Some(cadence),
        sink: Some(&mut sink),
    };

    let mixing = Instant::now();
    let (graph, report) = if inner.fs().exists(&ckpt_file) {
        let snap = match timed(&ckpt_time, || ckpt::load_vfs(inner.fs(), &ckpt_file)) {
            Ok(s) => s,
            Err(ckpt::LoadError::Io(e)) => {
                return MemberEnd::Failed(vfs::storage_error("read", &ckpt_file, &e, 0))
            }
            Err(e) => {
                return MemberEnd::Failed(GenError::CorruptCheckpoint {
                    path: ckpt_file.display().to_string(),
                    offset: 0,
                    reason: format!("{e}"),
                })
            }
        };
        match swap::resume_from(&snap.state, budget, &mut ctl, ws, policy) {
            Ok((g, r)) => (g, r),
            Err(e) => return MemberEnd::Failed(e),
        }
    } else {
        let mut g = input.clone();
        let seed = nullmodel::ensemble_member_seed(job.spec.seed, k);
        match swap::try_mix_resumable(&mut g, job.spec.stop, budget, seed, &mut ctl, ws, policy) {
            Ok(r) => (g, r),
            Err(e) => return MemberEnd::Failed(e),
        }
    };
    job.add_timings(JobTimings {
        mix: mixing.elapsed().saturating_sub(ckpt_time.get()),
        ckpt: ckpt_time.get(),
        ..JobTimings::default()
    });

    match report.outcome {
        MixOutcome::Completed => {
            let writing = Instant::now();
            let mut bytes = Vec::new();
            if let Err(e) = gio::write_edge_list(&graph, &mut bytes) {
                return MemberEnd::Failed(GenError::BadInput {
                    line: None,
                    text: String::new(),
                    reason: format!("cannot render sample: {e}"),
                });
            }
            if let Err(e) = vfs::write_atomic_retry(
                inner.fs(),
                &sample_path(&job.dir, k),
                &bytes,
                &inner.config.retry,
            ) {
                return MemberEnd::Failed(e);
            }
            let _ = inner.fs().remove_file(&ckpt_file);
            job.add_timings(JobTimings {
                write: writing.elapsed(),
                ..JobTimings::default()
            });
            MemberEnd::Done
        }
        MixOutcome::Interrupted => {
            // Persist the final state so the drain (or a later resume of a
            // cancelled job's debris) starts exactly where we stopped.
            if let Some(state) = &report.checkpoint {
                let saving = Instant::now();
                let saved = ckpt::write_atomic_retry(
                    inner.fs(),
                    &ckpt_file,
                    &ckpt::Snapshot::without_counters(state.clone()),
                    &inner.config.retry,
                );
                job.add_timings(JobTimings {
                    ckpt: saving.elapsed(),
                    ..JobTimings::default()
                });
                if let Err(e) = saved {
                    return MemberEnd::Failed(e);
                }
            }
            MemberEnd::Stopped
        }
        MixOutcome::BudgetExhausted => MemberEnd::Failed(report.budget_error(budget)),
    }
}

/// Run `f`, adding its wall time to `total`.
fn timed<T>(total: &Cell<Duration>, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    total.set(total.get() + start.elapsed());
    out
}

fn finish_stopped(inner: &Arc<Inner>, job: &Arc<Job>) {
    match job.stop_reason() {
        Some(StopReason::Cancel) => {
            let done = job.samples_done.load(Ordering::Acquire);
            let status = status_doc(&job.spec.id, &Phase::Cancelled, done, job.spec.samples);
            let _ = vfs::write_atomic(inner.fs(), &job.dir.join("status.json"), status.as_bytes());
            job.set_phase(Phase::Cancelled);
            inner.metrics.jobs_cancelled.incr();
        }
        // Drain (or a spurious stop with no reason): keep the job owed on
        // disk — no status.json is what re-admits it after restart.
        _ => {
            job.set_phase(Phase::Drained);
            inner.metrics.jobs_drained.incr();
        }
    }
}

fn finish_failed(inner: &Arc<Inner>, job: &Arc<Job>, code: &str, message: &str) {
    let done = job.samples_done.load(Ordering::Acquire);
    let phase = Phase::Failed(code.to_string(), message.to_string());
    let status = status_doc(&job.spec.id, &phase, done, job.spec.samples);
    // Best-effort: if even this write faults (e.g. persistent ENOSPC), the
    // job stays owed on disk — no status.json is what re-admits it after a
    // restart, so nothing is silently lost.
    let _ = vfs::write_atomic(inner.fs(), &job.dir.join("status.json"), status.as_bytes());
    job.set_phase(phase);
    inner.metrics.jobs_failed.incr();
}

// ---------------------------------------------------------------------
// HTTP side: acceptor, handlers, routing.
// ---------------------------------------------------------------------

/// Backoff after a failed `accept` (EMFILE, ENFILE, ECONNABORTED, ...), so
/// a process out of file descriptors does not spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long [`Server::join`] waits for the connection that wakes the
/// acceptor.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where [`Server::join`] connects to wake the acceptor: the bound
/// address, with an unspecified IP (`0.0.0.0`, `[::]`) replaced by the
/// loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    if bound.ip().is_unspecified() {
        wake.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    wake
}

/// Block in `accept`; nothing polls. The acceptor leaves on the first
/// connection it accepts after `shutdown` is set, which [`Server::join`]
/// supplies by connecting to the listener itself.
fn accept_loop(inner: &Arc<Inner>, listener: TcpListener) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            // The wake-up connection, or a client racing it: dropped.
            Ok(_) if inner.shutdown.load(Ordering::Acquire) => return,
            Ok((stream, _)) => enqueue_conn(inner, stream),
            Err(_) => {
                inner.metrics.http_accept_errors.incr();
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Hand an accepted connection to the handlers, or shed it at the door
/// when the connection queue is full: a bounded queue, not a backlog.
fn enqueue_conn(inner: &Arc<Inner>, mut stream: TcpStream) {
    let accepted = Instant::now();
    let mut conns = inner.lock(&inner.conns);
    if conns.len() < CONN_QUEUE_CAP {
        conns.push_back((stream, accepted));
        drop(conns);
        inner.conns_cv.notify_one();
        return;
    }
    drop(conns);
    inner.metrics.http_5xx.incr();
    overloaded("connection_queue_full", CONN_QUEUE_CAP, 500).write(&mut stream);
}

fn handler_loop(inner: &Arc<Inner>) {
    loop {
        let (stream, accepted) = {
            let mut conns = inner.lock(&inner.conns);
            loop {
                if let Some(conn) = conns.pop_front() {
                    break conn;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                conns = inner
                    .conns_cv
                    .wait(conns)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        handle_conn(inner, stream, accepted);
    }
}

/// Serve one connection, timing each phase of a parsed request: queue
/// (accept to pop), parse, handle and write. The last three add up to
/// `request_latency_us`, up to microsecond rounding.
fn handle_conn(inner: &Arc<Inner>, mut stream: TcpStream, accepted: Instant) {
    let m = &inner.metrics;
    let popped = Instant::now();
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(_) => {
            m.http_parse_failures.incr();
            Reply::error(400, "bad_request", "malformed HTTP request").write(&mut stream);
            return;
        }
    };
    let parsed = Instant::now();
    m.http_requests.incr();
    let reply = route(inner, &req);
    let handled = Instant::now();
    let status = reply.write(&mut stream);
    let written = Instant::now();
    match status {
        200..=299 => m.http_2xx.incr(),
        400..=499 => m.http_4xx.incr(),
        _ => m.http_5xx.incr(),
    }
    m.phase_queue_us.record(micros(popped - accepted));
    m.phase_parse_us.record(micros(parsed - popped));
    m.phase_handle_us.record(micros(handled - parsed));
    m.phase_write_us.record(micros(written - handled));
    m.request_latency_us.record(micros(written - popped));
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// What the router decided. [`handle_conn`] writes it, so the socket
/// write is timed apart from the endpoint's work.
enum Reply {
    /// A complete response with a known body.
    Full {
        status: u16,
        content_type: &'static str,
        headers: Vec<(&'static str, String)>,
        body: Vec<u8>,
    },
    /// `GET /jobs/<id>/stream`: members written as they complete.
    Stream(Arc<Job>),
}

impl Reply {
    fn json(status: u16, body: String) -> Self {
        Reply::Full {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A JSON error body with a stable `error_code`.
    fn error(status: u16, code: &str, message: &str) -> Self {
        let body = Value::Obj(vec![
            ("schema".to_string(), jstr("error_v1")),
            ("error_code".to_string(), jstr(code)),
            ("error".to_string(), jstr(message)),
        ]);
        Self::json(status, body.to_json())
    }

    /// A 503 whose `Retry-After` header agrees with the body's
    /// `retry_after_ms`.
    fn shed(retry_after_ms: u64, body: String) -> Self {
        Reply::Full {
            status: 503,
            content_type: "application/json",
            headers: vec![("Retry-After", retry_after_secs(retry_after_ms))],
            body: body.into_bytes(),
        }
    }

    /// Write the response; returns its status. A client that went away
    /// mid-write is not the server's error.
    fn write(self, stream: &mut TcpStream) -> u16 {
        match self {
            Reply::Full {
                status,
                content_type,
                headers,
                body,
            } => {
                let _ = http::write_response(stream, status, content_type, &headers, &body);
                status
            }
            Reply::Stream(job) => {
                stream_samples(&job, stream);
                200
            }
        }
    }
}

/// The `Retry-After` header value derived from the same hint the JSON
/// body carries: milliseconds rounded **up** to whole seconds, floored at
/// one so a sub-second hint never renders as "retry immediately". Keeping
/// the header and `retry_after_ms` derived from one number means a client
/// honouring either backs off consistently.
fn retry_after_secs(retry_after_ms: u64) -> String {
    retry_after_ms.div_ceil(1000).max(1).to_string()
}

/// The typed `overloaded` 503, matching `GenError::Overloaded`'s fields.
fn overloaded(reason: &str, capacity: usize, retry_after_ms: u64) -> Reply {
    let e = GenError::Overloaded {
        reason: reason.to_string(),
        queue_depth: capacity,
        capacity,
        retry_after_ms,
    };
    let body = Value::Obj(vec![
        ("schema".to_string(), jstr("error_v1")),
        ("error_code".to_string(), jstr(e.error_code())),
        ("error".to_string(), jstr(e.to_string())),
        ("reason".to_string(), jstr(reason)),
        ("retry_after_ms".to_string(), num(retry_after_ms)),
    ])
    .to_json();
    Reply::shed(retry_after_ms, body)
}

/// The typed `storage_exhausted` 503: admission is refused because the
/// state directory cannot durably accept a new job, not because the queue
/// is full — clients distinguish the two by `error_code`.
fn storage_exhausted(retry_after_ms: u64) -> Reply {
    let body = Value::Obj(vec![
        ("schema".to_string(), jstr("error_v1")),
        ("error_code".to_string(), jstr("storage_exhausted")),
        (
            "error".to_string(),
            jstr("state directory out of space; admission shed until a write probe succeeds"),
        ),
        ("retry_after_ms".to_string(), num(retry_after_ms)),
    ])
    .to_json();
    Reply::shed(retry_after_ms, body)
}

fn route(inner: &Arc<Inner>, req: &Request) -> Reply {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["jobs"]) => {
            inner.metrics.ep_submit.incr();
            submit(inner, req)
        }
        ("GET", ["jobs", id]) => {
            inner.metrics.ep_status.incr();
            match lookup(inner, id) {
                Some(job) => Reply::json(200, job.status_json()),
                None => Reply::error(404, "not_found", "no such job"),
            }
        }
        ("GET", ["jobs", id, "samples", k]) => {
            inner.metrics.ep_sample.incr();
            sample(inner, id, k)
        }
        ("GET", ["jobs", id, "stream"]) => {
            inner.metrics.ep_stream.incr();
            match lookup(inner, id) {
                Some(job) => Reply::Stream(job),
                None => Reply::error(404, "not_found", "no such job"),
            }
        }
        ("POST", ["jobs", id, "cancel"]) => {
            inner.metrics.ep_cancel.incr();
            cancel(inner, id)
        }
        ("GET", ["healthz"]) => {
            inner.metrics.ep_healthz.incr();
            let body = Value::Obj(vec![
                ("ok".to_string(), Value::Bool(true)),
                (
                    "draining".to_string(),
                    Value::Bool(inner.draining.load(Ordering::Acquire)),
                ),
                (
                    "degraded".to_string(),
                    Value::Bool(inner.degraded.load(Ordering::Acquire)),
                ),
            ])
            .to_json();
            Reply::json(200, body)
        }
        ("GET", ["metrics"]) => {
            inner.metrics.ep_metrics.incr();
            let mut snap = inner.metrics.snapshot();
            // Fault-injection telemetry lives on the VFS, not on the metric
            // counters: fill it in at scrape time so a fault-free RealVfs
            // reports zeros and a FaultVfs reports live injection stats.
            if let Some(stats) = inner.config.vfs.fault_stats() {
                snap.fault_injected_total = stats.injected_total;
                snap.fault_dropped_events = stats.dropped_events;
                snap.fault_by_kind = stats
                    .by_kind
                    .iter()
                    .map(|(k, v)| (k.to_string(), *v))
                    .collect();
            }
            Reply::json(200, snap.to_json())
        }
        ("POST", ["admin", "drain"]) => {
            inner.metrics.ep_drain.incr();
            inner.begin_drain();
            Reply::json(
                200,
                Value::Obj(vec![("draining".to_string(), Value::Bool(true))]).to_json(),
            )
        }
        _ => {
            inner.metrics.ep_unknown.incr();
            Reply::error(404, "not_found", "no such endpoint")
        }
    }
}

fn lookup(inner: &Arc<Inner>, id: &str) -> Option<Arc<Job>> {
    inner.lock(&inner.jobs).get(id).cloned()
}

/// The query parameters `POST /jobs` accepts.
const SUBMIT_PARAMS: &[&str] = &[
    "samples",
    "sweeps",
    "seed",
    "max_grows",
    "budget_ms",
    "ckpt_sweeps",
    "until",
    "min_ess",
    "ess_window",
    "serial_fallback",
    "panic_member",
];

fn submit(inner: &Arc<Inner>, req: &Request) -> Reply {
    if inner.draining.load(Ordering::Acquire) {
        inner.metrics.jobs_shed.incr();
        return overloaded("draining", inner.config.queue_capacity, 1_000);
    }

    // Graceful degradation: after a worker hit ENOSPC, shed new admissions
    // with a typed `storage_exhausted` body until a write probe succeeds
    // again — accepting a job we cannot durably persist would break the
    // durable-202 promise.
    if inner.degraded.load(Ordering::Acquire) {
        if inner.probe_writable().is_ok() {
            inner.degraded.store(false, Ordering::Release);
        } else {
            inner.metrics.jobs_shed_storage.incr();
            return storage_exhausted(5_000);
        }
    }

    // A parameter this endpoint does not read (a typo, or a retired one
    // such as `threshold`) must not be silently ignored.
    if let Some((key, _)) = req
        .query
        .iter()
        .find(|(k, _)| !SUBMIT_PARAMS.contains(&k.as_str()))
    {
        let msg = format!("unknown query parameter '{key}'");
        return Reply::error(400, "bad_input", &msg);
    }
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match req.query_param(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("invalid {key}: {raw:?}")),
        }
    };
    let samples = match parse_u64("samples", 10) {
        Ok(v) if (1..=100_000).contains(&v) => v as usize,
        Ok(v) => {
            let msg = format!("samples must be in 1..=100000, got {v}");
            return Reply::error(400, "bad_input", &msg);
        }
        Err(msg) => return Reply::error(400, "bad_input", &msg),
    };
    let (sweeps, seed, max_grows) = match (
        parse_u64("sweeps", 10),
        parse_u64("seed", 0),
        parse_u64("max_grows", 4),
    ) {
        (Ok(sw), Ok(se), Ok(mg)) => (sw as usize, se, mg as u32),
        (Err(m), ..) | (_, Err(m), _) | (.., Err(m)) => return Reply::error(400, "bad_input", &m),
    };
    let parse_opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match req.query_param(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid {key}: {raw:?}")),
        }
    };
    let (budget_ms, ckpt_sweeps, min_ess, ess_window) = match (
        parse_opt_u64("budget_ms"),
        parse_opt_u64("ckpt_sweeps"),
        parse_opt_u64("min_ess"),
        parse_opt_u64("ess_window"),
    ) {
        (Ok(b), Ok(c), Ok(m), Ok(w)) => (b, c, m, w),
        (Err(m), ..) | (_, Err(m), ..) | (_, _, Err(m), _) | (.., Err(m)) => {
            return Reply::error(400, "bad_input", &m)
        }
    };
    // The stop rule is validated here, at admission: a spec that reaches a
    // worker is never the thing that discovers min_ess=0.
    let stop = match stop_rule_from_fields(req.query_param("until"), min_ess, ess_window) {
        Ok(s) => s,
        Err(msg) => return Reply::error(400, "bad_input", &msg),
    };
    let serial_fallback = req.query_param("serial_fallback") != Some("false");
    let panic_member = match req.query_param("panic_member") {
        None => None,
        Some(_) if !inner.config.chaos => {
            let msg = "panic_member requires the server to run with --chaos";
            return Reply::error(400, "bad_input", msg);
        }
        Some(raw) => match raw.parse::<usize>() {
            Ok(v) => Some(v),
            Err(_) => {
                let msg = format!("invalid panic_member: {raw:?}");
                return Reply::error(400, "bad_input", &msg);
            }
        },
    };

    let input = match gio::read_edge_list(&req.body[..]) {
        Ok(g) => g,
        Err(e) => {
            let msg = format!("invalid edge list: {e}");
            return Reply::error(400, "bad_input", &msg);
        }
    };

    // Admission. Persistence happens under the queue lock so the bound and
    // the durable 202 promise stay consistent; submissions are rare and
    // small relative to mixing work.
    let mut queue = inner.lock(&inner.queue);
    if queue.len() >= inner.config.queue_capacity {
        drop(queue);
        inner.metrics.jobs_shed.incr();
        // Retry once roughly one queued job's worth of work has drained.
        return overloaded("queue_full", inner.config.queue_capacity, 500);
    }

    let id = format!("j{:08x}", inner.next_id.fetch_add(1, Ordering::AcqRel));
    let spec = JobSpec {
        id: id.clone(),
        samples,
        sweeps,
        stop,
        seed,
        budget_ms,
        max_grows,
        serial_fallback,
        ckpt_sweeps,
        panic_member,
    };
    let dir = inner.jobs_dir().join(&id);
    let persisting = Instant::now();
    let persist = (|| -> Result<(), GenError> {
        inner
            .fs()
            .create_dir_all(&dir)
            .map_err(|e| vfs::storage_error("create_dir_all", &dir, &e, 0))?;
        // The new directory's entry lives in `jobs/`: sync that too, or a
        // power cut could drop an accepted job whose files were synced.
        // Tolerated like `write_atomic`'s own directory sync.
        let _ = inner.fs().fsync_dir(&inner.jobs_dir());
        let mut input_bytes = Vec::new();
        gio::write_edge_list(&input, &mut input_bytes).map_err(|e| GenError::BadInput {
            line: None,
            text: String::new(),
            reason: format!("cannot render input: {e}"),
        })?;
        vfs::write_atomic_retry(
            inner.fs(),
            &dir.join("input.txt"),
            &input_bytes,
            &inner.config.retry,
        )?;
        vfs::write_atomic_retry(
            inner.fs(),
            &dir.join("spec.json"),
            spec.to_json().as_bytes(),
            &inner.config.retry,
        )?;
        Ok(())
    })();
    inner
        .metrics
        .phase_persist_us
        .record(micros(persisting.elapsed()));
    if let Err(e) = persist {
        drop(queue);
        let _ = std::fs::remove_dir_all(&dir);
        if matches!(e, GenError::StorageExhausted { .. }) {
            inner.degraded.store(true, Ordering::Release);
            inner.metrics.jobs_shed_storage.incr();
            return storage_exhausted(5_000);
        }
        let msg = format!("cannot persist job: {e}");
        return Reply::error(500, e.error_code(), &msg);
    }

    let job = Arc::new(Job::new(spec, dir, 0));
    inner.lock(&inner.jobs).insert(id.clone(), job.clone());
    queue.push_back(job);
    inner.metrics.queue_depth.set(queue.len() as f64);
    drop(queue);
    inner.queue_cv.notify_one();
    inner.metrics.jobs_accepted.incr();

    let body = Value::Obj(vec![
        ("schema".to_string(), jstr("job_accepted_v1")),
        ("id".to_string(), jstr(id.clone())),
        ("status_url".to_string(), jstr(format!("/jobs/{id}"))),
    ])
    .to_json();
    Reply::json(202, body)
}

fn sample(inner: &Arc<Inner>, id: &str, k: &str) -> Reply {
    let Some(job) = lookup(inner, id) else {
        return Reply::error(404, "not_found", "no such job");
    };
    let Ok(k) = k.parse::<usize>() else {
        return Reply::error(400, "bad_input", "invalid sample index");
    };
    if k >= job.spec.samples {
        return Reply::error(404, "not_found", "sample out of range");
    }
    match std::fs::read(sample_path(&job.dir, k)) {
        Ok(body) => Reply::Full {
            status: 200,
            content_type: "text/plain",
            headers: Vec::new(),
            body,
        },
        Err(_) => Reply::error(404, "not_ready", "sample not generated yet"),
    }
}

/// The body of `GET /jobs/<id>/stream`: each member as it completes,
/// close-delimited.
fn stream_samples(job: &Job, stream: &mut TcpStream) {
    use std::io::Write as _;
    if http::write_stream_head(stream, 200, "text/plain").is_err() {
        return;
    }
    for k in 0..job.spec.samples {
        let phase = job.wait_for_member(k);
        if job.samples_done.load(Ordering::Acquire) <= k {
            // Terminal (or drained) before member k existed.
            let _ = writeln!(stream, "# end {}", phase.name());
            let _ = stream.flush();
            return;
        }
        let bytes = match std::fs::read(sample_path(&job.dir, k)) {
            Ok(b) => b,
            Err(_) => {
                let _ = writeln!(stream, "# end io_error");
                return;
            }
        };
        if writeln!(stream, "# sample {k}").is_err() || stream.write_all(&bytes).is_err() {
            return; // client went away
        }
    }
    let _ = writeln!(stream, "# end {}", job.phase().name());
    let _ = stream.flush();
}

fn cancel(inner: &Arc<Inner>, id: &str) -> Reply {
    let Some(job) = lookup(inner, id) else {
        return Reply::error(404, "not_found", "no such job");
    };
    let phase = job.phase();
    if phase.is_terminal() {
        let msg = format!("job already {}", phase.name());
        return Reply::error(409, "job_already_terminal", &msg);
    }
    job.request_stop(StopReason::Cancel);
    inner.queue_cv.notify_all();
    let body = Value::Obj(vec![
        ("schema".to_string(), jstr("cancel_v1")),
        ("id".to_string(), jstr(id)),
        ("cancelling".to_string(), Value::Bool(true)),
    ])
    .to_json();
    Reply::json(200, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_header_rounds_ms_up_to_whole_seconds() {
        // The header must agree with the JSON retry_after_ms hint: ceil to
        // seconds, never the degenerate "0" (and never a hardcoded "1"
        // that contradicts a multi-second hint).
        assert_eq!(retry_after_secs(0), "1");
        assert_eq!(retry_after_secs(1), "1");
        assert_eq!(retry_after_secs(500), "1");
        assert_eq!(retry_after_secs(1_000), "1");
        assert_eq!(retry_after_secs(1_001), "2");
        assert_eq!(retry_after_secs(2_500), "3");
        assert_eq!(retry_after_secs(60_000), "60");
    }

    #[test]
    fn wake_address_maps_unspecified_ips_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:8080"), "127.0.0.1:8080");
        assert_eq!(wake("[::]:8080"), "[::1]:8080");
        assert_eq!(wake("127.0.0.1:7878"), "127.0.0.1:7878");
        assert_eq!(wake("10.1.2.3:9"), "10.1.2.3:9");
        assert_eq!(wake("[fe80::1%2]:9"), "[fe80::1%2]:9");
    }
}
