//! Typed failure taxonomy and fault-injection support for the generation
//! pipeline.
//!
//! The paper's pipeline (probabilities → edge skipping → double-edge swaps)
//! has a small set of well-understood failure modes: a concurrent table
//! sized for the wrong key count, a degree input no simple graph realizes, a
//! malformed input file, a mixing run that exhausts its budget before the
//! empirical criterion is met, and a probability refinement that stalls
//! above its tolerance. Under a long-running service none of these may
//! abort the process; each must surface as a *typed*, recoverable error (or
//! a documented degraded success). This crate is the shared vocabulary:
//!
//! * [`GenError`] — the error type every public pipeline entry point
//!   returns, with one variant per failure mode, a stable machine-greppable
//!   [`GenError::error_code`] and a distinct process [`GenError::exit_code`];
//! * [`FaultEvent`] — recovery events (table grow-and-retry, parallel →
//!   serial degradation) logged into a run's statistics so degraded runs
//!   are observable, not silent;
//! * [`FaultLog`] — the bounded ring buffer those events live in, so a
//!   retry storm cannot grow memory without bound (evictions are counted,
//!   never silent);
//! * [`inject`] — adversarial fixtures ([`FaultPlan`], non-graphical degree
//!   sequences, file and byte-level garblers) used by the fault-injection
//!   harness (`tests/fault_injection.rs`) to prove each recovery path.
//!
//! The enum is hand-rolled (`Display` + `std::error::Error`) rather than
//! derived: the workspace carries no `thiserror` dependency, and the match
//! arms double as the single source of truth for exit codes.

pub mod inject;

pub use inject::FaultPlan;

use conchash::TableFullError;
use std::fmt;

/// Every failure mode of the generation pipeline, one variant each.
///
/// Public entry points (`nullmodel::try_generate_from_distribution`,
/// `swap::try_swap_edges`, `swap::try_mix_resumable`, the CLI commands)
/// return `Result<_, GenError>`; no input — undersized tables,
/// non-graphical degrees, malformed files, exhausted budgets — reaches a
/// `panic!` or `unwrap` through them.
#[derive(Clone, Debug, PartialEq)]
pub enum GenError {
    /// A concurrent hash table ran out of slots and the bounded
    /// grow-and-retry policy could not (or was not allowed to) recover.
    TableFull {
        /// Which table filled: `"ShardedEpochHashSet"` (edge membership) or
        /// `"ShardedEpochHashMap"` (claims).
        table: &'static str,
        /// Keys stored when the insertion failed.
        occupancy: usize,
        /// Slots in the backing array at failure time.
        capacity: usize,
        /// Grow-and-retry attempts performed before giving up.
        grows_attempted: u32,
    },
    /// No simple graph realizes the requested degree input.
    NonGraphical {
        /// Why: odd stub sum, maximum degree ≥ vertex count, or an
        /// Erdős–Gallai violation.
        reason: String,
    },
    /// A mixing run stopped at its sweep or wall-clock budget before the
    /// empirical mixing criterion was met. The graph holds the partial
    /// result (every completed sweep is applied); the fields are the
    /// partial-result report.
    MixingBudgetExceeded {
        /// Sweeps fully applied before the budget ran out.
        sweeps_completed: usize,
        /// The sweep budget that was exhausted.
        max_sweeps: usize,
        /// Fraction of edges ever swapped when the budget ran out.
        ever_swapped_fraction: f64,
        /// Self loops still present (0 when the input was simple).
        self_loops: u64,
        /// Multi-edge extras still present (0 when the input was simple).
        multi_edges: u64,
        /// `true` when the wall-clock watchdog, not the sweep cap, fired.
        wall_clock_exceeded: bool,
    },
    /// Probability refinement stalled above the requested tolerance.
    SolverNotConverged {
        /// Maximum relative degree-system residual after the final round.
        residual: f64,
        /// The tolerance that was requested.
        tolerance: f64,
        /// Refinement rounds actually run.
        rounds: usize,
    },
    /// An input file or in-memory input failed validation.
    BadInput {
        /// 1-based line number when the problem is tied to a line.
        line: Option<u64>,
        /// The offending line's text (empty when not line-based).
        text: String,
        /// What was wrong.
        reason: String,
    },
    /// A checkpoint file failed structural validation: truncated, bit-flipped,
    /// written by a future schema version, or recording a run configuration
    /// that does not hash to the one it claims. The byte offset points at the
    /// first field that failed to validate, so operators can tell a torn
    /// header from a corrupted payload at a glance.
    CorruptCheckpoint {
        /// The checkpoint file (empty when decoding an in-memory buffer).
        path: String,
        /// Byte offset of the field that failed validation.
        offset: u64,
        /// What was wrong at that offset.
        reason: String,
    },
    /// A long-running service refused new work: its bounded admission queue
    /// is full, or it is draining for shutdown. Shedding is explicit —
    /// the caller gets this typed error with a retry hint instead of an
    /// unbounded backlog silently eating the process.
    Overloaded {
        /// Why admission was refused (`"queue_full"`, `"draining"`).
        reason: String,
        /// Jobs already waiting when admission was refused.
        queue_depth: usize,
        /// The admission queue's capacity.
        capacity: usize,
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A job was cancelled cooperatively (client request) after being
    /// accepted; completed samples remain available, the in-flight sample
    /// was drained at a sweep boundary and discarded.
    JobCancelled {
        /// The cancelled job's identifier.
        job_id: String,
        /// Ensemble samples that had completed before the cancel landed.
        samples_done: usize,
    },
    /// The storage device ran out of space (ENOSPC) while persisting a
    /// checkpoint, sample, or spec. Not retried — free space does not
    /// reappear on a backoff timescale — but the atomic write protocol
    /// guarantees the target file is either the previous complete version
    /// or absent, never half-written.
    StorageExhausted {
        /// The filesystem operation that failed (`"write"`, `"fsync"`, ...).
        op: String,
        /// The path being written.
        path: String,
        /// Retry attempts spent before classification (0 for fast-fail).
        retries: u32,
    },
    /// A storage I/O fault (EIO, short write, failed fsync, torn rename)
    /// persisted through the bounded deterministic retry-with-backoff
    /// policy. The atomic write protocol guarantees the target file is the
    /// previous complete version or absent.
    StorageIo {
        /// The filesystem operation that failed.
        op: String,
        /// The path being written or read.
        path: String,
        /// Retry attempts spent before giving up.
        retries: u32,
        /// The underlying I/O error, rendered.
        reason: String,
    },
    /// A mixing worker panicked while running an ensemble member. The panic
    /// was caught at the job boundary (`catch_unwind`); the job lands in a
    /// typed `job_failed` terminal status and the server keeps serving.
    JobPanicked {
        /// The poisoned job's identifier.
        job_id: String,
        /// Zero-based ensemble member index that panicked.
        member: usize,
        /// The panic payload, rendered (empty when not a string).
        message: String,
    },
}

impl GenError {
    /// Stable machine-greppable identifier, printed by the CLI as
    /// `error_code=<name>`.
    pub fn error_code(&self) -> &'static str {
        match self {
            Self::TableFull { .. } => "table_full",
            Self::NonGraphical { .. } => "non_graphical",
            Self::MixingBudgetExceeded { .. } => "mixing_budget_exceeded",
            Self::SolverNotConverged { .. } => "solver_not_converged",
            Self::BadInput { .. } => "bad_input",
            Self::CorruptCheckpoint { .. } => "corrupt_checkpoint",
            Self::Overloaded { .. } => "overloaded",
            Self::JobCancelled { .. } => "job_cancelled",
            Self::StorageExhausted { .. } => "storage_exhausted",
            Self::StorageIo { .. } => "storage_io",
            Self::JobPanicked { .. } => "job_failed",
        }
    }

    /// Distinct nonzero process exit code per variant (documented in the
    /// repository README). Codes 0–3 are reserved for success, generic
    /// failure, usage errors and IO errors respectively; 10 is the CLI's
    /// signal-interrupted (checkpointed) exit, which is not a `GenError`.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::BadInput { .. } => 4,
            Self::NonGraphical { .. } => 5,
            Self::TableFull { .. } => 6,
            Self::MixingBudgetExceeded { .. } => 7,
            Self::SolverNotConverged { .. } => 8,
            Self::CorruptCheckpoint { .. } => 9,
            Self::Overloaded { .. } => 11,
            Self::JobCancelled { .. } => 12,
            Self::StorageExhausted { .. } => 13,
            Self::StorageIo { .. } => 14,
            Self::JobPanicked { .. } => 15,
        }
    }

    /// Convenience constructor for non-line-based input problems.
    pub fn bad_input(reason: impl Into<String>) -> Self {
        Self::BadInput {
            line: None,
            text: String::new(),
            reason: reason.into(),
        }
    }

    /// Convenience constructor for checkpoint corruption found at `offset`.
    pub fn corrupt_checkpoint(
        path: impl Into<String>,
        offset: u64,
        reason: impl Into<String>,
    ) -> Self {
        Self::CorruptCheckpoint {
            path: path.into(),
            offset,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TableFull {
                table,
                occupancy,
                capacity,
                grows_attempted,
            } => write!(
                f,
                "{table} full ({occupancy} keys in {capacity} slots) after \
                 {grows_attempted} grow-and-retry attempts"
            ),
            Self::NonGraphical { reason } => {
                write!(f, "no simple graph realizes the degree input: {reason}")
            }
            Self::MixingBudgetExceeded {
                sweeps_completed,
                max_sweeps,
                ever_swapped_fraction,
                self_loops,
                multi_edges,
                wall_clock_exceeded,
            } => {
                write!(
                    f,
                    "mixing budget exhausted ({} cap): {sweeps_completed}/{max_sweeps} sweeps \
                     completed, {:.1}% of edges ever swapped, {self_loops} self loops and \
                     {multi_edges} multi-edges remain",
                    if *wall_clock_exceeded {
                        "wall-clock"
                    } else {
                        "sweep"
                    },
                    100.0 * ever_swapped_fraction,
                )
            }
            Self::SolverNotConverged {
                residual,
                tolerance,
                rounds,
            } => write!(
                f,
                "probability refinement did not converge: residual {residual:.6} > \
                 tolerance {tolerance:.6} after {rounds} rounds"
            ),
            Self::BadInput { line, text, reason } => {
                write!(f, "bad input")?;
                if let Some(n) = line {
                    write!(f, " at line {n}")?;
                }
                if !text.is_empty() {
                    write!(f, " ('{text}')")?;
                }
                write!(f, ": {reason}")
            }
            Self::CorruptCheckpoint {
                path,
                offset,
                reason,
            } => {
                write!(f, "corrupt checkpoint")?;
                if !path.is_empty() {
                    write!(f, " '{path}'")?;
                }
                write!(f, " at byte {offset}: {reason}")
            }
            Self::Overloaded {
                reason,
                queue_depth,
                capacity,
                retry_after_ms,
            } => write!(
                f,
                "admission refused ({reason}): {queue_depth}/{capacity} jobs queued; \
                 retry after {retry_after_ms}ms"
            ),
            Self::JobCancelled {
                job_id,
                samples_done,
            } => write!(
                f,
                "job {job_id} cancelled after {samples_done} completed samples"
            ),
            Self::StorageExhausted { op, path, retries } => write!(
                f,
                "storage exhausted (ENOSPC) during {op} of '{path}' \
                 ({retries} retries spent); target left atomic-or-absent"
            ),
            Self::StorageIo {
                op,
                path,
                retries,
                reason,
            } => write!(
                f,
                "storage I/O fault during {op} of '{path}' persisted through \
                 {retries} retries: {reason}"
            ),
            Self::JobPanicked {
                job_id,
                member,
                message,
            } => {
                write!(f, "job {job_id} poisoned: member {member} panicked")?;
                if !message.is_empty() {
                    write!(f, " ({message})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GenError {}

impl From<TableFullError> for GenError {
    fn from(e: TableFullError) -> Self {
        Self::TableFull {
            table: e.table,
            occupancy: e.occupancy,
            capacity: e.capacity,
            grows_attempted: 0,
        }
    }
}

/// A recovery action taken by a degraded-but-successful run, logged into
/// the run's statistics (`swap::SwapStats::events`) so operators can see
/// that capacity was wrong or contention forced serialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// A full concurrent table was reallocated at double capacity and the
    /// run was replayed from its recorded seed.
    TableGrown {
        /// Which table type filled.
        table: &'static str,
        /// Keys stored when the insertion failed.
        occupancy: usize,
        /// Slot count before the grow.
        old_capacity: usize,
        /// Key capacity after the grow.
        new_capacity: usize,
        /// 1-based grow attempt number within the run.
        attempt: u32,
    },
    /// The parallel sweep path was abandoned and the run replayed serially
    /// (same algorithm, same seed, byte-identical trajectory).
    SerialFallback {
        /// Grow attempts that had been spent before degrading.
        after_grows: u32,
    },
    /// A storage fault was injected (by a `FaultVfs`) or observed at a
    /// filesystem operation.
    IoFault {
        /// The filesystem operation (`"write"`, `"fsync"`, `"rename"`, ...).
        op: &'static str,
        /// The fault class (`"enospc"`, `"eio"`, `"short_write"`,
        /// `"torn_rename"`, `"fsync_fail"`).
        kind: &'static str,
        /// The path the operation targeted.
        path: String,
        /// Zero-based VFS operation index at which the fault fired.
        index: u64,
    },
    /// A transient storage fault was retried under the bounded deterministic
    /// backoff policy.
    IoRetry {
        /// The filesystem operation being retried.
        op: &'static str,
        /// The path the operation targeted.
        path: String,
        /// 1-based retry attempt number.
        attempt: u32,
        /// Backoff slept before this attempt, in milliseconds.
        backoff_ms: u64,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TableGrown {
                table,
                occupancy,
                old_capacity,
                new_capacity,
                attempt,
            } => write!(
                f,
                "grow-and-retry #{attempt}: {table} held {occupancy} keys in {old_capacity} \
                 slots; rebuilt for {new_capacity} keys and replayed"
            ),
            Self::SerialFallback { after_grows } => write!(
                f,
                "parallel sweeps degraded to serial after {after_grows} grow attempts"
            ),
            Self::IoFault {
                op,
                kind,
                path,
                index,
            } => write!(f, "{kind} injected at {op} of '{path}' (vfs op #{index})"),
            Self::IoRetry {
                op,
                path,
                attempt,
                backoff_ms,
            } => write!(
                f,
                "retry #{attempt} of {op} on '{path}' after {backoff_ms}ms backoff"
            ),
        }
    }
}

/// Escape a string for embedding inside a JSON string literal (hand-rolled;
/// the workspace carries no serde). Quotes, backslashes, and control bytes
/// are escaped; everything else passes through verbatim.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(&mut out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

impl FaultEvent {
    /// One-line JSON object for this event (hand-rolled; the workspace
    /// carries no serde). Free-form strings (paths) go through
    /// [`json_escape`]; the remaining fields are numbers or static names.
    pub fn to_json(&self) -> String {
        match self {
            Self::TableGrown {
                table,
                occupancy,
                old_capacity,
                new_capacity,
                attempt,
            } => format!(
                "{{\"type\":\"table_grown\",\"table\":\"{table}\",\"occupancy\":{occupancy},\
                 \"old_capacity\":{old_capacity},\"new_capacity\":{new_capacity},\
                 \"attempt\":{attempt}}}"
            ),
            Self::SerialFallback { after_grows } => {
                format!("{{\"type\":\"serial_fallback\",\"after_grows\":{after_grows}}}")
            }
            Self::IoFault {
                op,
                kind,
                path,
                index,
            } => format!(
                "{{\"type\":\"io_fault\",\"op\":\"{op}\",\"kind\":\"{kind}\",\
                 \"path\":\"{}\",\"index\":{index}}}",
                json_escape(path)
            ),
            Self::IoRetry {
                op,
                path,
                attempt,
                backoff_ms,
            } => format!(
                "{{\"type\":\"io_retry\",\"op\":\"{op}\",\"path\":\"{}\",\
                 \"attempt\":{attempt},\"backoff_ms\":{backoff_ms}}}",
                json_escape(path)
            ),
        }
    }
}

/// Default number of [`FaultEvent`]s a [`FaultLog`] retains.
pub const DEFAULT_FAULT_LOG_CAPACITY: usize = 4096;

/// A bounded log of [`FaultEvent`]s.
///
/// A pathological retry storm (every sweep of a long run growing tables and
/// degrading) must not grow memory without bound, so the log is a ring
/// buffer: once `capacity` events are held, appending a new event evicts the
/// *oldest* one and bumps [`FaultLog::dropped_events`]. The most recent
/// events are the diagnostically useful ones — they show the state the run
/// degraded *into* — so eviction is strictly front-first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultLog {
    events: std::collections::VecDeque<FaultEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

impl FaultLog {
    /// An empty log with the [`DEFAULT_FAULT_LOG_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_FAULT_LOG_CAPACITY)
    }

    /// An empty log retaining at most `capacity` events (0 retains nothing
    /// and counts every append as dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: std::collections::VecDeque::new(),
            capacity: Some(capacity),
            dropped: 0,
        }
    }

    /// Append an event, evicting the oldest if the log is at capacity.
    ///
    /// A default-constructed log (`FaultLog::default()`) has the default
    /// capacity, not zero — `Default` exists so `SwapStats` can derive it.
    pub fn push(&mut self, event: FaultEvent) {
        let cap = self.capacity.unwrap_or(DEFAULT_FAULT_LOG_CAPACITY);
        if cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no event was ever recorded (retained *or* dropped).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// The retention cap.
    pub fn capacity(&self) -> usize {
        self.capacity.unwrap_or(DEFAULT_FAULT_LOG_CAPACITY)
    }

    /// Events evicted (or rejected, for a zero-capacity log) because the
    /// ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Total events ever appended: retained plus dropped.
    pub fn total_recorded(&self) -> u64 {
        self.events.len() as u64 + self.dropped
    }

    /// Iterate over the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter()
    }

    /// The whole log as a `fault_log_v1` JSON document: ring parameters,
    /// eviction counters, and every retained event oldest-first. This is
    /// what `nullgraph --fault-log <file>` writes and what the `--metrics`
    /// snapshot embeds, so recovery activity survives the process.
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self.iter().map(FaultEvent::to_json).collect();
        format!(
            "{{\"schema\":\"fault_log_v1\",\"capacity\":{},\"retained\":{},\
             \"dropped_events\":{},\"total_recorded\":{},\"events\":[{}]}}",
            self.capacity(),
            self.len(),
            self.dropped_events(),
            self.total_recorded(),
            events.join(",")
        )
    }
}

impl<'a> IntoIterator for &'a FaultLog {
    type Item = &'a FaultEvent;
    type IntoIter = std::collections::vec_deque::Iter<'a, FaultEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl FromIterator<FaultEvent> for FaultLog {
    fn from_iter<I: IntoIterator<Item = FaultEvent>>(iter: I) -> Self {
        let mut log = Self::new();
        for e in iter {
            log.push(e);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_stable() {
        let errs = [
            GenError::TableFull {
                table: "ShardedEpochHashSet",
                occupancy: 32,
                capacity: 32,
                grows_attempted: 4,
            },
            GenError::NonGraphical {
                reason: "odd".into(),
            },
            GenError::MixingBudgetExceeded {
                sweeps_completed: 3,
                max_sweeps: 3,
                ever_swapped_fraction: 0.5,
                self_loops: 0,
                multi_edges: 0,
                wall_clock_exceeded: false,
            },
            GenError::SolverNotConverged {
                residual: 0.2,
                tolerance: 0.01,
                rounds: 64,
            },
            GenError::bad_input("x"),
            GenError::corrupt_checkpoint("run.ckpt", 20, "checksum mismatch"),
            GenError::Overloaded {
                reason: "queue_full".into(),
                queue_depth: 64,
                capacity: 64,
                retry_after_ms: 500,
            },
            GenError::JobCancelled {
                job_id: "j00000001".into(),
                samples_done: 3,
            },
            GenError::StorageExhausted {
                op: "write".into(),
                path: "/tmp/run.ckpt".into(),
                retries: 0,
            },
            GenError::StorageIo {
                op: "fsync".into(),
                path: "/tmp/run.ckpt".into(),
                retries: 3,
                reason: "Input/output error".into(),
            },
            GenError::JobPanicked {
                job_id: "j00000002".into(),
                member: 1,
                message: "boom".into(),
            },
        ];
        let mut exits: Vec<i32> = errs.iter().map(GenError::exit_code).collect();
        let mut names: Vec<&str> = errs.iter().map(GenError::error_code).collect();
        exits.sort_unstable();
        exits.dedup();
        names.sort_unstable();
        names.dedup();
        assert_eq!(exits.len(), errs.len(), "exit codes collide");
        assert_eq!(names.len(), errs.len(), "error codes collide");
        assert!(exits.iter().all(|&c| c > 3), "codes 0-3 are reserved");
    }

    #[test]
    fn table_full_conversion_keeps_fields() {
        let e: GenError = TableFullError {
            table: "ShardedEpochHashMap",
            occupancy: 7,
            capacity: 16,
        }
        .into();
        assert_eq!(
            e,
            GenError::TableFull {
                table: "ShardedEpochHashMap",
                occupancy: 7,
                capacity: 16,
                grows_attempted: 0,
            }
        );
        assert_eq!(e.error_code(), "table_full");
    }

    #[test]
    fn display_carries_diagnostics() {
        let e = GenError::BadInput {
            line: Some(12),
            text: "3 x".into(),
            reason: "not a valid vertex id".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 12") && s.contains("3 x"), "{s}");
    }

    #[test]
    fn corrupt_checkpoint_display_carries_offset() {
        let e = GenError::corrupt_checkpoint("/tmp/run.ckpt", 24, "payload length mismatch");
        let s = e.to_string();
        assert!(
            s.contains("/tmp/run.ckpt") && s.contains("byte 24") && s.contains("length mismatch"),
            "{s}"
        );
        assert_eq!(e.exit_code(), 9);
    }

    fn grown(attempt: u32) -> FaultEvent {
        FaultEvent::TableGrown {
            table: "ShardedEpochHashSet",
            occupancy: 8,
            old_capacity: 8,
            new_capacity: 16,
            attempt,
        }
    }

    #[test]
    fn fault_log_caps_and_counts_drops() {
        let mut log = FaultLog::with_capacity(3);
        for i in 0..5 {
            log.push(grown(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped_events(), 2);
        assert_eq!(log.total_recorded(), 5);
        // Oldest-first eviction: attempts 0 and 1 are gone, 2..5 remain.
        let attempts: Vec<u32> = log
            .iter()
            .map(|e| match e {
                FaultEvent::TableGrown { attempt, .. } => *attempt,
                _ => u32::MAX,
            })
            .collect();
        assert_eq!(attempts, vec![2, 3, 4]);
        assert!(!log.is_empty(), "dropped events still count as recorded");
    }

    #[test]
    fn fault_log_zero_capacity_drops_everything() {
        let mut log = FaultLog::with_capacity(0);
        log.push(grown(1));
        assert_eq!(log.len(), 0);
        assert_eq!(log.dropped_events(), 1);
        assert!(!log.is_empty());
    }

    #[test]
    fn overloaded_and_cancelled_carry_service_diagnostics() {
        let e = GenError::Overloaded {
            reason: "draining".into(),
            queue_depth: 5,
            capacity: 8,
            retry_after_ms: 250,
        };
        assert_eq!(e.exit_code(), 11);
        let s = e.to_string();
        assert!(
            s.contains("draining") && s.contains("5/8") && s.contains("250ms"),
            "{s}"
        );
        let e = GenError::JobCancelled {
            job_id: "j42".into(),
            samples_done: 2,
        };
        assert_eq!(e.exit_code(), 12);
        assert!(e.to_string().contains("j42"), "{e}");
    }

    #[test]
    fn fault_log_json_round_trips_structure() {
        let mut log = FaultLog::with_capacity(2);
        log.push(grown(1));
        log.push(FaultEvent::SerialFallback { after_grows: 4 });
        log.push(grown(2)); // evicts grown(1)
        let json = log.to_json();
        assert!(json.contains("\"schema\":\"fault_log_v1\""), "{json}");
        assert!(json.contains("\"dropped_events\":1"), "{json}");
        assert!(json.contains("\"total_recorded\":3"), "{json}");
        assert!(json.contains("\"type\":\"serial_fallback\""), "{json}");
        assert!(
            json.contains("\"attempt\":2") && !json.contains("\"attempt\":1"),
            "{json}"
        );
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn storage_errors_carry_op_path_and_retries() {
        let e = GenError::StorageExhausted {
            op: "write".into(),
            path: "/data/out.ckpt".into(),
            retries: 0,
        };
        assert_eq!(e.exit_code(), 13);
        assert_eq!(e.error_code(), "storage_exhausted");
        assert!(e.to_string().contains("/data/out.ckpt"), "{e}");
        let e = GenError::StorageIo {
            op: "rename".into(),
            path: "/data/out.ckpt".into(),
            retries: 3,
            reason: "Input/output error".into(),
        };
        assert_eq!(e.exit_code(), 14);
        assert_eq!(e.error_code(), "storage_io");
        let s = e.to_string();
        assert!(s.contains("3 retries") && s.contains("rename"), "{s}");
        let e = GenError::JobPanicked {
            job_id: "j2a".into(),
            member: 4,
            message: "index out of bounds".into(),
        };
        assert_eq!(e.exit_code(), 15);
        assert_eq!(e.error_code(), "job_failed");
        let s = e.to_string();
        assert!(s.contains("j2a") && s.contains("member 4"), "{s}");
    }

    #[test]
    fn io_fault_events_escape_paths_in_json() {
        let e = FaultEvent::IoFault {
            op: "write",
            kind: "enospc",
            path: "/tmp/we\"ird\\dir/a.ckpt".into(),
            index: 12,
        };
        let json = e.to_json();
        assert!(json.contains("\"type\":\"io_fault\""), "{json}");
        assert!(json.contains("\\\"ird\\\\dir"), "{json}");
        assert!(json.contains("\"index\":12"), "{json}");
        let e = FaultEvent::IoRetry {
            op: "fsync",
            path: "/tmp/a.ckpt".into(),
            attempt: 2,
            backoff_ms: 40,
        };
        let json = e.to_json();
        assert!(json.contains("\"type\":\"io_retry\""), "{json}");
        assert!(json.contains("\"backoff_ms\":40"), "{json}");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fault_log_default_matches_documented_capacity() {
        assert_eq!(FaultLog::new().capacity(), DEFAULT_FAULT_LOG_CAPACITY);
        assert_eq!(FaultLog::default().capacity(), DEFAULT_FAULT_LOG_CAPACITY);
        assert!(FaultLog::default().is_empty());
    }
}
