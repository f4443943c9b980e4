//! Job specs, on-disk layout, live state, and the restart recovery scan.
//!
//! A job is one ensemble request: mix the submitted graph `samples` times
//! for exactly `sweeps` sweeps each, member `k` under seed
//! [`nullmodel::ensemble_member_seed`]`(seed, k)`. Members complete **in
//! order**, which makes the durable layout self-describing:
//!
//! ```text
//! <state>/jobs/<id>/
//!   spec.json       written before the job is admitted (the 202 promise)
//!   input.txt       the submitted edge list, same moment
//!   sample_<k>.txt  completed member k (atomic tmp+rename)
//!   sample_<k>.ckpt in-flight checkpoint of member k (ckpt_v2)
//!   status.json     terminal record (completed / failed / cancelled)
//! ```
//!
//! The recovery scan after a crash needs no journal: completed members are
//! the consecutive `sample_<k>.txt` prefix, the next member resumes from
//! `sample_<k>.ckpt` when one exists (a checkpoint for an already-completed
//! member is stale debris from a crash between rename and unlink — deleted
//! on sight), and a missing `status.json` means the job still owes work and
//! is re-admitted. Because the sweep index is the RNG position, a resumed
//! member is byte-identical to an uninterrupted one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use swap::StopRule;

use crate::json::{self, num, str as jstr, Value};

/// What one job asks for. Immutable once admitted; persisted as
/// `spec.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Server-assigned identifier, e.g. `j00000001`.
    pub id: String,
    /// Ensemble size.
    pub samples: usize,
    /// Sweep budget per member (exact count under
    /// [`StopRule::FixedSweeps`], an upper bound otherwise).
    pub sweeps: usize,
    /// When each member stops within its sweep budget. Serialized as the
    /// optional `until` / `min_ess` / `ess_window` spec fields; their
    /// absence means [`StopRule::FixedSweeps`], so specs persisted before
    /// the field existed parse unchanged.
    pub stop: StopRule,
    /// Base seed; member `k` derives its own.
    pub seed: u64,
    /// Optional per-member wall budget (milliseconds), mapped onto
    /// `MixingBudget::max_wall`. Exhaustion fails the job with the typed
    /// `mixing_budget_exceeded` error.
    pub budget_ms: Option<u64>,
    /// Per-job grow-and-retry cap (`RecoveryPolicy::max_grows`), so one
    /// tenant's TableFull recovery storm cannot starve others.
    pub max_grows: u32,
    /// Per-job serial-fallback switch (`RecoveryPolicy::serial_fallback`).
    pub serial_fallback: bool,
    /// Checkpoint cadence in sweeps; `None` uses the server's wall-clock
    /// default. Tests use a tight cadence to guarantee a checkpoint exists
    /// when the process is killed.
    pub ckpt_sweeps: Option<u64>,
    /// Chaos hook: panic deliberately at the start of this member, to
    /// exercise the worker's panic isolation. Only settable through the
    /// submission endpoint when the server runs with chaos enabled; the
    /// parser always accepts it so a chaos job survives a restart scan.
    pub panic_member: Option<usize>,
}

impl JobSpec {
    /// The spec as its `spec.json` document.
    pub fn to_json(&self) -> String {
        let mut doc = vec![
            ("schema".to_string(), jstr("job_spec_v1")),
            ("id".to_string(), jstr(self.id.clone())),
            ("samples".to_string(), num(self.samples)),
            ("sweeps".to_string(), num(self.sweeps)),
            ("seed".to_string(), num(self.seed)),
            ("max_grows".to_string(), num(self.max_grows)),
            (
                "serial_fallback".to_string(),
                Value::Bool(self.serial_fallback),
            ),
        ];
        match self.stop {
            StopRule::FixedSweeps => {}
            StopRule::Converged { min_ess, window } => {
                doc.push(("until".to_string(), jstr("converged")));
                doc.push(("min_ess".to_string(), num(min_ess)));
                doc.push(("ess_window".to_string(), num(window)));
            }
        }
        if let Some(ms) = self.budget_ms {
            doc.push(("budget_ms".to_string(), num(ms)));
        }
        if let Some(n) = self.ckpt_sweeps {
            doc.push(("ckpt_sweeps".to_string(), num(n)));
        }
        if let Some(k) = self.panic_member {
            doc.push(("panic_member".to_string(), num(k)));
        }
        Value::Obj(doc).to_json()
    }

    /// Parse a persisted `spec.json`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        if v.get("schema").and_then(Value::as_str) != Some("job_spec_v1") {
            return Err("not a job_spec_v1 document".into());
        }
        let field_u64 = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing or invalid {key}"))
        };
        Ok(Self {
            id: v
                .get("id")
                .and_then(Value::as_str)
                .ok_or("missing id")?
                .to_string(),
            samples: field_u64("samples")? as usize,
            sweeps: field_u64("sweeps")? as usize,
            stop: stop_rule_from_fields(
                v.get("until").and_then(Value::as_str),
                v.get("min_ess").and_then(Value::as_u64),
                v.get("ess_window").and_then(Value::as_u64),
            )?,
            seed: field_u64("seed")?,
            budget_ms: v.get("budget_ms").and_then(Value::as_u64),
            max_grows: field_u64("max_grows")? as u32,
            serial_fallback: v
                .get("serial_fallback")
                .and_then(Value::as_bool)
                .ok_or("missing serial_fallback")?,
            ckpt_sweeps: v.get("ckpt_sweeps").and_then(Value::as_u64),
            panic_member: v
                .get("panic_member")
                .and_then(Value::as_u64)
                .map(|k| k as usize),
        })
    }
}

/// Build a [`StopRule`] from the optional stop-rule wire fields, applying
/// the same validation as the CLI: `min_ess >= 1`, `ess_window >= 2` and
/// `min_ess <= ess_window`. Shared by the spec parser and the submission
/// endpoint so an invalid rule is rejected at admission time, never
/// mid-run.
pub fn stop_rule_from_fields(
    until: Option<&str>,
    min_ess: Option<u64>,
    ess_window: Option<u64>,
) -> Result<StopRule, String> {
    match until {
        None => {
            if min_ess.is_some() || ess_window.is_some() {
                return Err("min_ess/ess_window require until=converged".into());
            }
            Ok(StopRule::FixedSweeps)
        }
        Some("mixed") => Err(
            "until=mixed (the ever-swapped threshold stop rule) was retired \
             because it stops on a biased sample; use until=converged"
                .into(),
        ),
        Some("converged") => {
            let min_ess = min_ess.unwrap_or(64);
            let window = ess_window.unwrap_or(128);
            if min_ess == 0 || window < 2 || min_ess > window || window > u64::from(u32::MAX) {
                return Err(format!(
                    "invalid ESS parameters: need 1 <= min_ess ({min_ess}) <= ess_window \
                     ({window}) and ess_window >= 2"
                ));
            }
            Ok(StopRule::Converged {
                min_ess: min_ess as u32,
                window: window as u32,
            })
        }
        Some(other) => Err(format!("unknown until mode '{other}' (converged)")),
    }
}

/// Why a job's interrupt flag was raised: an explicit cancel (terminal) or
/// a graceful drain (checkpoint and keep on disk for the next process).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// `POST /jobs/<id>/cancel`: the job ends as `cancelled`.
    Cancel,
    /// SIGTERM / `POST /admin/drain`: the job checkpoints and stays owed.
    Drain,
}

/// The job life cycle, as reported by `GET /jobs/<id>`.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is mixing its members.
    Running,
    /// Every member completed.
    Completed,
    /// A typed error ended the job; fields are `error_code` and the
    /// rendered message.
    Failed(String, String),
    /// An explicit cancel ended the job.
    Cancelled,
    /// Checkpointed by a drain; the owning process exited and the job
    /// waits for a restart (only ever observed on disk, never served by a
    /// live worker).
    Drained,
}

impl Phase {
    /// The wire name of this phase.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Completed => "completed",
            Phase::Failed(..) => "failed",
            Phase::Cancelled => "cancelled",
            Phase::Drained => "drained",
        }
    }

    /// Whether the job will never make further progress in this process.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            Phase::Completed | Phase::Failed(..) | Phase::Cancelled
        )
    }
}

/// Wall time this process spent on a job, by phase. Served live by
/// `GET /jobs/<id>` as `timings_ms`; never persisted, so `status.json`
/// and the recovery scan do not see it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JobTimings {
    /// Admission (or re-admission by the recovery scan) to a worker's pop.
    pub queue: Duration,
    /// Inside the mixing kernel, checkpoint I/O excluded.
    pub mix: Duration,
    /// Checkpoint writes, and the load of a resumed member's checkpoint.
    pub ckpt: Duration,
    /// Rendering and writing samples, and the completed job's
    /// `status.json`.
    pub write: Duration,
}

impl JobTimings {
    fn add(&mut self, other: &JobTimings) {
        self.queue += other.queue;
        self.mix += other.mix;
        self.ckpt += other.ckpt;
        self.write += other.write;
    }

    /// The `timings_ms` object: milliseconds, microsecond resolution.
    fn to_value(self) -> Value {
        let ms = |d: Duration| Value::Num(format!("{:.3}", d.as_secs_f64() * 1e3));
        Value::Obj(vec![
            ("queue".to_string(), ms(self.queue)),
            ("mix".to_string(), ms(self.mix)),
            ("ckpt".to_string(), ms(self.ckpt)),
            ("write".to_string(), ms(self.write)),
        ])
    }
}

/// Live, shared state of one admitted job.
#[derive(Debug)]
pub struct Job {
    /// The immutable request.
    pub spec: JobSpec,
    /// This job's directory under `<state>/jobs/`.
    pub dir: PathBuf,
    /// Cooperative stop flag, read by the mixing kernel between sweeps.
    pub stop: AtomicBool,
    /// Why the flag was raised (valid once `stop` is true).
    stop_reason: Mutex<Option<StopReason>>,
    /// Members completed and durably written.
    pub samples_done: AtomicUsize,
    /// Current phase; `progress` wakes streamers and status pollers on
    /// every change.
    phase: Mutex<Phase>,
    /// Signalled on member completion and phase change.
    pub progress: Condvar,
    /// When this process admitted the job: the start of its queue wait.
    admitted: Instant,
    /// Phase times, from the moment a worker of this process pops the job.
    timings: Mutex<Option<JobTimings>>,
}

impl Job {
    /// A fresh job in phase [`Phase::Queued`], `done` members already on
    /// disk (non-zero when re-admitted by the recovery scan).
    pub fn new(spec: JobSpec, dir: PathBuf, done: usize) -> Self {
        Self {
            spec,
            dir,
            stop: AtomicBool::new(false),
            stop_reason: Mutex::new(None),
            samples_done: AtomicUsize::new(done),
            phase: Mutex::new(Phase::Queued),
            progress: Condvar::new(),
            admitted: Instant::now(),
            timings: Mutex::new(None),
        }
    }

    /// A worker popped the job: start its timings, with the time since
    /// admission as the queue wait.
    pub(crate) fn start_timings(&self) {
        *self.lock_timings() = Some(JobTimings {
            queue: self.admitted.elapsed(),
            ..JobTimings::default()
        });
    }

    /// Add `delta` to the job's timings (ignored before
    /// [`Job::start_timings`]).
    pub(crate) fn add_timings(&self, delta: JobTimings) {
        if let Some(t) = self.lock_timings().as_mut() {
            t.add(&delta);
        }
    }

    /// This process's phase times, once a worker has popped the job.
    pub fn timings(&self) -> Option<JobTimings> {
        *self.lock_timings()
    }

    fn lock_timings(&self) -> std::sync::MutexGuard<'_, Option<JobTimings>> {
        self.timings
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Raise the stop flag for `reason`. The first reason wins: a cancel
    /// arriving during a drain (or vice versa) keeps the original.
    pub fn request_stop(&self, reason: StopReason) {
        let mut slot = self
            .stop_reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason);
        }
        self.stop.store(true, Ordering::Release);
        self.progress.notify_all();
    }

    /// The recorded stop reason, if any.
    pub fn stop_reason(&self) -> Option<StopReason> {
        *self
            .stop_reason
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Current phase (cloned).
    pub fn phase(&self) -> Phase {
        self.phase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Move to `next` and wake all waiters.
    pub fn set_phase(&self, next: Phase) {
        *self
            .phase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = next;
        self.progress.notify_all();
    }

    /// Record one more durably-completed member and wake all waiters.
    pub fn member_done(&self) {
        self.samples_done.fetch_add(1, Ordering::Release);
        // The notification must hold the phase lock so a streamer cannot
        // check-then-wait between the increment and the notify.
        let _guard = self
            .phase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.progress.notify_all();
    }

    /// Block until `samples_done > k` or the phase is terminal; returns the
    /// phase seen. Used by the streaming endpoint.
    pub fn wait_for_member(&self, k: usize) -> Phase {
        let mut phase = self
            .phase
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            // Drained is not terminal (the job is still owed), but no
            // further progress will happen in this process — waiters must
            // not outlive the drain.
            if self.samples_done.load(Ordering::Acquire) > k
                || phase.is_terminal()
                || *phase == Phase::Drained
            {
                return phase.clone();
            }
            phase = self
                .progress
                .wait(phase)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// The status document served by `GET /jobs/<id>`: the persisted
    /// fields plus `timings_ms` for a job a worker of this process ran.
    pub fn status_json(&self) -> String {
        let mut doc = status_members(
            &self.spec.id,
            &self.phase(),
            self.samples_done.load(Ordering::Acquire),
            self.spec.samples,
        );
        if let Some(t) = self.timings() {
            doc.push(("timings_ms".to_string(), t.to_value()));
        }
        Value::Obj(doc).to_json()
    }
}

/// Render a status document for a phase + progress pair (the persisted
/// `status.json`).
pub fn status_doc(id: &str, phase: &Phase, done: usize, total: usize) -> String {
    Value::Obj(status_members(id, phase, done, total)).to_json()
}

fn status_members(id: &str, phase: &Phase, done: usize, total: usize) -> Vec<(String, Value)> {
    let mut doc = vec![
        ("schema".to_string(), jstr("job_status_v1")),
        ("id".to_string(), jstr(id)),
        ("phase".to_string(), jstr(phase.name())),
        ("samples_done".to_string(), num(done)),
        ("samples_total".to_string(), num(total)),
    ];
    if let Phase::Failed(code, message) = phase {
        doc.push(("error_code".to_string(), jstr(code.clone())));
        doc.push(("error".to_string(), jstr(message.clone())));
    }
    doc
}

/// Parse a persisted `status.json` back into a terminal [`Phase`] and the
/// completed-member count it recorded.
pub fn parse_status(text: &str) -> Result<(Phase, usize), String> {
    let v = json::parse(text).map_err(|e| e.to_string())?;
    if v.get("schema").and_then(Value::as_str) != Some("job_status_v1") {
        return Err("not a job_status_v1 document".into());
    }
    let done = v
        .get("samples_done")
        .and_then(Value::as_u64)
        .ok_or("missing samples_done")? as usize;
    let phase = match v.get("phase").and_then(Value::as_str) {
        Some("completed") => Phase::Completed,
        Some("cancelled") => Phase::Cancelled,
        Some("failed") => Phase::Failed(
            v.get("error_code")
                .and_then(Value::as_str)
                .unwrap_or("internal")
                .to_string(),
            v.get("error")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
        ),
        other => return Err(format!("non-terminal or missing phase: {other:?}")),
    };
    Ok((phase, done))
}

/// Path of completed member `k`.
pub fn sample_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("sample_{k}.txt"))
}

/// Path of member `k`'s in-flight checkpoint.
pub fn ckpt_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("sample_{k}.ckpt"))
}

/// Write `bytes` to `path` atomically: hidden tmp sibling, fsync, rename,
/// parent-dir fsync (the shared [`vfs::write_atomic`] protocol — the
/// recovery scan never mistakes a `.{name}.tmp` leftover for an artifact).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    vfs::write_atomic(&vfs::RealVfs, path, bytes)
}

/// What the recovery scan found for one on-disk job directory.
#[derive(Debug)]
pub enum Recovered {
    /// Terminal; keep serving its artifacts but schedule nothing.
    Terminal {
        /// The persisted spec.
        spec: JobSpec,
        /// The terminal phase from `status.json`.
        phase: Phase,
        /// Members recorded complete.
        done: usize,
    },
    /// Still owed work; re-admit with `done` members already on disk.
    Owed {
        /// The persisted spec.
        spec: JobSpec,
        /// Consecutive completed members found.
        done: usize,
        /// Whether member `done` has a resumable checkpoint.
        has_checkpoint: bool,
    },
}

/// Scan one job directory. Deletes stale checkpoints (member index below
/// the completed prefix) as a side effect. Returns `Err` with a reason for
/// directories that are not valid jobs (corrupt spec, unreadable files).
pub fn scan_job_dir(dir: &Path) -> Result<Recovered, String> {
    let spec_text = std::fs::read_to_string(dir.join("spec.json"))
        .map_err(|e| format!("unreadable spec.json: {e}"))?;
    let spec = JobSpec::from_json(&spec_text)?;

    // Completed members are the consecutive prefix.
    let mut done = 0usize;
    while done < spec.samples && sample_path(dir, done).exists() {
        done += 1;
    }

    // A checkpoint for an already-completed member is stale debris from a
    // crash between the sample rename and the checkpoint unlink.
    for k in 0..done {
        let stale = ckpt_path(dir, k);
        if stale.exists() {
            let _ = std::fs::remove_file(&stale);
        }
    }

    if let Ok(status_text) = std::fs::read_to_string(dir.join("status.json")) {
        let (phase, recorded_done) = parse_status(&status_text)?;
        return Ok(Recovered::Terminal {
            spec,
            phase,
            done: recorded_done.max(done),
        });
    }

    if done >= spec.samples {
        // Crashed after the last member but before status.json: the work
        // is all there, only the terminal record is missing.
        return Ok(Recovered::Terminal {
            spec,
            phase: Phase::Completed,
            done,
        });
    }

    let has_checkpoint = ckpt_path(dir, done).exists();
    Ok(Recovered::Owed {
        spec,
        done,
        has_checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            samples: 4,
            sweeps: 10,
            stop: StopRule::FixedSweeps,
            seed: u64::MAX - 12345,
            budget_ms: Some(2_000),
            max_grows: 4,
            serial_fallback: true,
            ckpt_sweeps: Some(2),
            panic_member: None,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("nullgraph_serve_job_tests")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spec_round_trips_including_full_range_seed() {
        let s = spec("j00000001");
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
        let no_budget = JobSpec {
            budget_ms: None,
            ..spec("j2")
        };
        assert_eq!(JobSpec::from_json(&no_budget.to_json()).unwrap(), no_budget);
        let chaotic = JobSpec {
            panic_member: Some(1),
            ..spec("j5")
        };
        assert_eq!(JobSpec::from_json(&chaotic.to_json()).unwrap(), chaotic);
    }

    #[test]
    fn spec_round_trips_every_stop_rule() {
        for stop in [
            StopRule::FixedSweeps,
            StopRule::Converged {
                min_ess: 32,
                window: 96,
            },
        ] {
            let s = JobSpec { stop, ..spec("j3") };
            assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn spec_without_stop_fields_is_fixed_sweeps() {
        // Specs persisted before the stop-rule fields existed must keep
        // parsing, defaulting to the old fixed-sweeps behaviour.
        let doc = r#"{"schema":"job_spec_v1","id":"j4","samples":2,"sweeps":5,
                      "seed":9,"max_grows":4,"serial_fallback":false}"#;
        assert_eq!(JobSpec::from_json(doc).unwrap().stop, StopRule::FixedSweeps);
    }

    #[test]
    fn stop_rule_fields_are_validated() {
        let bad = [
            // Nonsense ESS parameters.
            (Some("converged"), Some(0), None),
            (Some("converged"), None, Some(1)),
            (Some("converged"), Some(200), Some(100)),
            // Parameters without a mode, and unknown or retired modes.
            (None, Some(64), None),
            (Some("mixed"), None, None),
            (Some("sideways"), None, None),
        ];
        for (until, min_ess, window) in bad {
            assert!(
                stop_rule_from_fields(until, min_ess, window).is_err(),
                "accepted until={until:?} min_ess={min_ess:?} ess_window={window:?}"
            );
        }
        // Omitted parameters take the CLI defaults.
        assert_eq!(
            stop_rule_from_fields(Some("converged"), None, None).unwrap(),
            StopRule::Converged {
                min_ess: 64,
                window: 128,
            }
        );
    }

    #[test]
    fn spec_with_the_retired_threshold_rule_fails_to_parse_naming_it() {
        // What an older build persisted for `until=mixed&threshold=0.9`.
        let doc = r#"{"schema":"job_spec_v1","id":"j6","samples":2,"sweeps":5,
                      "seed":9,"max_grows":4,"serial_fallback":true,
                      "until":"mixed","threshold":0.9}"#;
        let err = JobSpec::from_json(doc).expect_err("retired rule");
        assert!(err.contains("retired"), "{err}");
        // The recovery scan reports it like any other unparsable spec.
        let dir = tmp("retired_threshold_spec");
        std::fs::write(dir.join("spec.json"), doc).unwrap();
        let Err(err) = scan_job_dir(&dir) else {
            panic!("a spec under the retired rule is not a valid job");
        };
        assert!(err.contains("retired"), "{err}");
    }

    #[test]
    fn status_round_trips_terminal_phases() {
        let failed = Phase::Failed("table_full".into(), "boom".into());
        for (phase, done) in [(Phase::Completed, 4), (Phase::Cancelled, 1), (failed, 2)] {
            let doc = status_doc("j1", &phase, done, 4);
            let (back, back_done) = parse_status(&doc).unwrap();
            assert_eq!(back, phase);
            assert_eq!(back_done, done);
        }
        assert!(parse_status(&status_doc("j1", &Phase::Running, 0, 4)).is_err());
    }

    #[test]
    fn live_status_carries_timings_once_a_worker_starts_the_job() {
        let j = Job::new(spec("j1"), PathBuf::new(), 0);
        let ms = |d: Duration| JobTimings {
            mix: d,
            ckpt: d / 4,
            write: d / 8,
            ..JobTimings::default()
        };
        j.add_timings(ms(Duration::from_secs(1)));
        assert_eq!(
            j.timings(),
            None,
            "nothing is timed before a worker pops the job"
        );
        assert!(!j.status_json().contains("timings_ms"));

        j.start_timings();
        j.add_timings(ms(Duration::from_micros(1_500)));
        j.add_timings(ms(Duration::from_micros(500)));
        let doc = json::parse(&j.status_json()).unwrap();
        let t = doc.get("timings_ms").unwrap();
        let field = |k: &str| t.get(k).and_then(Value::as_f64);
        assert!(field("queue").is_some_and(|q| q >= 0.0));
        assert_eq!(field("mix"), Some(2.0));
        assert_eq!(field("ckpt"), Some(0.5));
        assert_eq!(field("write"), Some(0.25));
        // The persisted document stays as it was.
        assert!(!status_doc("j1", &Phase::Running, 0, 4).contains("timings_ms"));
    }

    #[test]
    fn first_stop_reason_wins() {
        let j = Job::new(spec("j1"), PathBuf::new(), 0);
        j.request_stop(StopReason::Drain);
        j.request_stop(StopReason::Cancel);
        assert_eq!(j.stop_reason(), Some(StopReason::Drain));
        assert!(j.stop.load(Ordering::Acquire));
    }

    #[test]
    fn scan_classifies_partial_and_terminal_dirs() {
        let dir = tmp("scan");
        let s = spec("j7");
        std::fs::write(dir.join("spec.json"), s.to_json()).unwrap();
        std::fs::write(sample_path(&dir, 0), "# 1 vertices, 0 edges\n").unwrap();
        std::fs::write(sample_path(&dir, 1), "# 1 vertices, 0 edges\n").unwrap();
        std::fs::write(ckpt_path(&dir, 0), "stale").unwrap(); // stale
        std::fs::write(ckpt_path(&dir, 2), "live").unwrap(); // resumable

        match scan_job_dir(&dir).unwrap() {
            Recovered::Owed {
                done,
                has_checkpoint,
                ..
            } => {
                assert_eq!(done, 2);
                assert!(has_checkpoint);
            }
            other => panic!("expected Owed, got {other:?}"),
        }
        assert!(!ckpt_path(&dir, 0).exists(), "stale checkpoint not deleted");
        assert!(ckpt_path(&dir, 2).exists());

        std::fs::write(
            dir.join("status.json"),
            status_doc("j7", &Phase::Cancelled, 2, 4),
        )
        .unwrap();
        match scan_job_dir(&dir).unwrap() {
            Recovered::Terminal { phase, done, .. } => {
                assert_eq!(phase, Phase::Cancelled);
                assert_eq!(done, 2);
            }
            other => panic!("expected Terminal, got {other:?}"),
        }
    }

    #[test]
    fn scan_treats_all_samples_present_as_completed() {
        let dir = tmp("all-present");
        let s = spec("j9");
        std::fs::write(dir.join("spec.json"), s.to_json()).unwrap();
        for k in 0..s.samples {
            std::fs::write(sample_path(&dir, k), "# 1 vertices, 0 edges\n").unwrap();
        }
        match scan_job_dir(&dir).unwrap() {
            Recovered::Terminal { phase, .. } => assert_eq!(phase, Phase::Completed),
            other => panic!("expected Terminal, got {other:?}"),
        }
    }

    #[test]
    fn scan_rejects_corrupt_spec() {
        let dir = tmp("corrupt");
        std::fs::write(dir.join("spec.json"), "{not json").unwrap();
        assert!(scan_job_dir(&dir).is_err());
    }
}
