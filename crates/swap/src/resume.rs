//! Resumable mixing runs: the state a checkpoint captures and the controls
//! an interruptible run accepts.
//!
//! # Why a sweep index is a complete RNG position
//!
//! Every random decision of a sweep derives from
//! `iter_seed = mix64(seed ^ iter · φ64)` where `iter` is the *absolute*
//! sweep index: the permutation darts, the per-pair partnering bit, the
//! claim ordering. There is no RNG state carried *between* sweeps — the
//! stream position of the run **is** the completed sweep count. Combined
//! with the deterministic min-index-claim acceptance (output independent of
//! the rayon pool size), a run restarted from `(edge list in its current
//! order, per-slot ever-swapped flags, completed sweep count, seed)`
//! replays the exact trajectory an uninterrupted run would have taken:
//! byte-identical final edges, on any thread count.
//!
//! The remaining derived state is reconstructed, not stored:
//!
//! * the `ever_swapped` counter is the number of `true` flags;
//! * the violation counters are re-censused from the restored slots — a
//!   committed swap can only *drain* multiplicities and never creates a
//!   duplicate or a self loop, so the census of the current slots equals
//!   the incrementally-maintained live counters at the moment of the
//!   checkpoint.
//!
//! [`MixState`] is the in-memory form of that state; `crates/ckpt` owns its
//! durable `ckpt_v2` encoding. [`MixControl`] carries the run-time knobs —
//! an interrupt flag drained between sweeps, a [`CheckpointPolicy`], and
//! the sink that persists each snapshot.

use crate::stats::IterationStats;
use crate::workspace::Slot;
use crate::SwapEdge;
use fault::GenError;
use graphcore::Edge;
use parutil::rng::mix64;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// When a resumable mixing run stops on its own.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopRule {
    /// Run exactly the budget's sweep count (what [`crate::try_swap_edges`]
    /// runs); completing the budget is success.
    FixedSweeps,
    /// Stop once the online convergence diagnostics say the chain has
    /// mixed: over the trailing `window` sweeps, every informative scalar
    /// observable series (degree-product sum, wedge sketch, ever-swapped
    /// trajectory, acceptance counts) must reach an effective sample size
    /// of at least `min_ess` under the Geyer initial-positive-sequence
    /// autocorrelation estimator (see [`crate::diag`]). For non-simple
    /// input, additionally every violation must be gone. Exhausting the
    /// budget first is a failure.
    Converged {
        /// Minimum effective sample size every informative observable
        /// series must reach within the window.
        min_ess: u32,
        /// Number of trailing sweeps the diagnostics are computed over; the
        /// run cannot stop before `window` sweeps have completed.
        window: u32,
    },
}

/// How often a run hands its state to the checkpoint sink: every N
/// completed sweeps, every T of wall clock, or both (whichever comes
/// first). With neither set, only the final state (on interrupt or budget
/// exhaustion) is captured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many sweeps since the last checkpoint.
    pub every_sweeps: Option<u64>,
    /// Checkpoint once this much wall clock passed since the last one.
    pub every_wall: Option<Duration>,
}

impl CheckpointPolicy {
    /// Checkpoint every `n` sweeps.
    pub fn sweeps(n: u64) -> Self {
        Self {
            every_sweeps: Some(n.max(1)),
            every_wall: None,
        }
    }

    /// Checkpoint every `d` of wall clock.
    pub fn wall(d: Duration) -> Self {
        Self {
            every_sweeps: None,
            every_wall: Some(d),
        }
    }

    pub(crate) fn due(&self, sweeps_since: u64, last: Instant) -> bool {
        self.every_sweeps.is_some_and(|n| sweeps_since >= n)
            || self.every_wall.is_some_and(|w| last.elapsed() >= w)
    }
}

/// The complete resumable state of a mixing run, captured between sweeps.
///
/// Everything a continuation needs is here (see the module docs for why
/// this set is sufficient); `ckpt::encode` serializes it verbatim. The
/// edge and flag vectors are in the run's *current permuted slot order* —
/// order is part of the trajectory, not an implementation detail.
///
/// `E` is the run's edge encoding: a digraph run's states hold its
/// directed edges, orientation intact. [`crate::resume_from`] and the
/// `ckpt` format take undirected states only.
#[derive(Clone, Debug, PartialEq)]
pub struct MixState<E = Edge> {
    /// Vertex count of the graph being mixed (edges alone lose trailing
    /// isolated vertices).
    pub num_vertices: usize,
    /// The edge list in current slot order.
    pub edges: Vec<E>,
    /// Per-slot "ever produced by a successful swap" flags, same order.
    pub swapped: Vec<bool>,
    /// Sweeps fully applied so far — the RNG stream position.
    pub completed_sweeps: u64,
    /// The run's seed.
    pub seed: u64,
    /// Total sweep cap (`MixingBudget::max_sweeps`) active when the state
    /// was captured; a resume may raise it.
    pub sweep_budget: u64,
    /// The stop rule the run was started with.
    pub stop: StopRule,
    /// Whether violation tracking was on (it is derived from the input's
    /// simplicity, which the first sweep's registration measures, and must
    /// not change across a resume).
    pub track_violations: bool,
    /// Whether mixing-diagnostics observables were tracked (derived from
    /// the stop rule at start and, like violation tracking, part of the
    /// trajectory-describing configuration: the per-sweep observable
    /// series must stay gapless across a resume).
    pub track_diagnostics: bool,
    /// Per-sweep statistics accumulated so far, one entry per completed
    /// sweep; a resumed run appends to them so the final stats are
    /// indistinguishable from an uninterrupted run's.
    pub iterations: Vec<IterationStats>,
}

impl<E: SwapEdge> MixState<E> {
    /// Hash of the swap configuration this state belongs to. Stored in the
    /// checkpoint and recomputed on load: resuming under a different seed,
    /// stop rule or tracking mode would silently change the trajectory, so
    /// a mismatch is corruption, not a preference.
    pub fn config_hash(&self) -> u64 {
        // Tag 1 belonged to the retired ever-swapped threshold rule; the
        // remaining tags keep their values so stored hashes stay valid.
        let (rule_tag, rule_param) = match self.stop {
            StopRule::FixedSweeps => (0u64, 0u64),
            StopRule::Converged { min_ess, window } => {
                (2u64, (u64::from(min_ess) << 32) | u64::from(window))
            }
        };
        let mut h = mix64(0x636b_7074_5f76_3100 ^ self.seed);
        h = mix64(h ^ rule_tag);
        h = mix64(h ^ rule_param);
        h = mix64(h ^ u64::from(self.track_violations));
        h = mix64(h ^ (u64::from(self.track_diagnostics) << 1));
        h
    }

    /// Structural consistency of the in-memory state (cheap; the durable
    /// format's checksum and field validation live in `crates/ckpt`).
    pub fn validate(&self) -> Result<(), GenError> {
        if self.swapped.len() != self.edges.len() {
            return Err(GenError::bad_input(format!(
                "mix state has {} edges but {} swap flags",
                self.edges.len(),
                self.swapped.len()
            )));
        }
        if self.completed_sweeps != self.iterations.len() as u64 {
            return Err(GenError::bad_input(format!(
                "mix state claims {} completed sweeps but records {} iteration entries",
                self.completed_sweeps,
                self.iterations.len()
            )));
        }
        if let Some((u, v)) = self
            .edges
            .iter()
            .map(SwapEdge::endpoints)
            .find(|&(u, v)| u.max(v) as usize >= self.num_vertices)
        {
            return Err(GenError::bad_input(format!(
                "mix state edge {u}-{v} exceeds its vertex count {}",
                self.num_vertices
            )));
        }
        if let StopRule::Converged { min_ess, window } = self.stop {
            if min_ess == 0 || window < 2 {
                return Err(GenError::bad_input(format!(
                    "mix state converged rule needs min_ess >= 1 and window >= 2, \
                     got min_ess = {min_ess}, window = {window}"
                )));
            }
            if u64::from(min_ess) > u64::from(window) {
                return Err(GenError::bad_input(format!(
                    "mix state converged rule min_ess {min_ess} exceeds its window \
                     {window} (an ESS cannot exceed the series length)"
                )));
            }
        }
        Ok(())
    }
}

/// How a resumable run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOutcome {
    /// The stop rule was satisfied: the chain converged, or the fixed sweep
    /// budget fully ran.
    Completed,
    /// The interrupt flag was raised; the current sweep was drained and the
    /// state captured.
    Interrupted,
    /// The sweep or wall-clock budget ran out before the stop rule was
    /// satisfied.
    BudgetExhausted,
}

/// Result of a resumable mixing run: the accumulated statistics (prior
/// segments included), how the run ended, and — for any ending other than
/// [`MixOutcome::Completed`] — the state to continue from.
#[derive(Clone, Debug)]
pub struct MixReport<E = Edge> {
    /// Per-sweep statistics of the whole logical run so far.
    pub stats: crate::SwapStats,
    /// How the run ended.
    pub outcome: MixOutcome,
    /// Continuation state; `None` exactly when the run completed.
    pub checkpoint: Option<MixState<E>>,
}

impl<E> MixReport<E> {
    /// The typed budget-exhaustion error matching this report: how many
    /// sweeps ran against which cap, the last mixing statistics, and
    /// whether the wall clock cut the run short.
    pub fn budget_error(&self, budget: &crate::MixingBudget) -> GenError {
        let last = self.stats.iterations.last().copied().unwrap_or_default();
        GenError::MixingBudgetExceeded {
            sweeps_completed: self.stats.iterations.len(),
            max_sweeps: budget.max_sweeps,
            ever_swapped_fraction: last.ever_swapped_fraction,
            self_loops: last.self_loops,
            multi_edges: last.multi_edges,
            wall_clock_exceeded: self.stats.wall_clock_exceeded,
        }
    }
}

/// A checkpoint sink: persists a snapshot, or fails the run trying.
pub type CheckpointSink<'a, E = Edge> = dyn FnMut(&MixState<E>) -> Result<(), GenError> + 'a;

/// Run-time controls for a resumable run. All fields are optional;
/// [`MixControl::none`] neither interrupts nor checkpoints, and gives the
/// same bytes as a run with controls that never fire.
pub struct MixControl<'a, E = Edge> {
    /// Checked between sweeps; when it reads `true` the run drains the
    /// sweep in flight, captures its state and returns
    /// [`MixOutcome::Interrupted`]. The flag is process-global state owned
    /// by the *caller* (the CLI's signal handler); library code only reads
    /// it.
    pub interrupt: Option<&'a AtomicBool>,
    /// When to hand intermediate state to the sink.
    pub policy: Option<CheckpointPolicy>,
    /// Persists a snapshot. An `Err` aborts the run and is returned to the
    /// caller (a checkpoint that cannot be written is a hard failure — the
    /// operator asked for durability).
    pub sink: Option<&'a mut CheckpointSink<'a, E>>,
}

impl<E> Default for MixControl<'_, E> {
    fn default() -> Self {
        Self {
            interrupt: None,
            policy: None,
            sink: None,
        }
    }
}

impl<E> MixControl<'_, E> {
    /// No interruption, no checkpointing.
    pub fn none() -> Self {
        Self::default()
    }
}

/// The per-run constants needed to stamp a [`MixState`] out of live slots.
#[derive(Clone, Copy)]
pub(crate) struct SegmentMeta {
    pub(crate) num_vertices: usize,
    pub(crate) seed: u64,
    pub(crate) sweep_budget: u64,
    pub(crate) stop: StopRule,
    /// Carried over by a resumed run; for a fresh run `None` until the
    /// first sweep's registration measures the input's simplicity (or, for
    /// a run that ends before that sweep, until the driver checks it).
    pub(crate) track_violations: Option<bool>,
    pub(crate) track_diagnostics: bool,
}

impl SegmentMeta {
    /// The state of the run at a whole-sweep boundary: each slot's own
    /// edge (so a directed state keeps its orientation) and flag.
    pub(crate) fn state_from_slots<E: SwapEdge>(
        &self,
        slots: &[Slot<E>],
        iterations: &[IterationStats],
    ) -> MixState<E> {
        MixState {
            num_vertices: self.num_vertices,
            edges: slots.iter().map(|s| s.edge).collect(),
            swapped: slots.iter().map(|s| s.swapped).collect(),
            completed_sweeps: iterations.len() as u64,
            seed: self.seed,
            sweep_budget: self.sweep_budget,
            stop: self.stop,
            track_violations: self.track_violations == Some(true),
            track_diagnostics: self.track_diagnostics,
            iterations: iterations.to_vec(),
        }
    }
}

/// Mutable plumbing threaded through `run_until`: where the segment
/// starts, how to seed the slot flags, what to do between sweeps, and the
/// out-fields the driver reads back. The out-fields are reset at the start
/// of every attempt so grow-and-retry replays stay exact.
pub(crate) struct SegmentCtl<'a, 'b, E> {
    /// Absolute sweep index to start at (= sweeps already applied).
    pub(crate) start_iter: u64,
    /// Initial per-slot ever-swapped flags (`None` = all false).
    pub(crate) init_swapped: Option<&'a [bool]>,
    /// Per-sweep stats of prior segments, prepended to the run's.
    pub(crate) prior: &'a [IterationStats],
    pub(crate) meta: SegmentMeta,
    pub(crate) interrupt: Option<&'a AtomicBool>,
    pub(crate) policy: Option<CheckpointPolicy>,
    pub(crate) sink: Option<&'a mut CheckpointSink<'b, E>>,
    /// Out: the interrupt flag was observed and the run stopped for it.
    pub(crate) interrupted: bool,
    /// Out: the sink failed; the run stopped and this error must surface.
    pub(crate) sink_error: Option<GenError>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> MixState {
        MixState {
            num_vertices: 4,
            edges: vec![Edge::new(0, 1), Edge::new(2, 3)],
            swapped: vec![true, false],
            completed_sweeps: 1,
            seed: 7,
            sweep_budget: 10,
            stop: StopRule::Converged {
                min_ess: 4,
                window: 8,
            },
            track_violations: false,
            track_diagnostics: false,
            iterations: vec![IterationStats::default()],
        }
    }

    #[test]
    fn config_hash_is_sensitive_to_each_config_field() {
        let base = state();
        let mut seed = base.clone();
        seed.seed = 8;
        let mut rule = base.clone();
        rule.stop = StopRule::FixedSweeps;
        let mut track = base.clone();
        track.track_violations = true;
        let mut diag = base.clone();
        diag.track_diagnostics = true;
        let mut conv = base.clone();
        conv.stop = StopRule::Converged {
            min_ess: 32,
            window: 64,
        };
        let mut conv_other = base.clone();
        conv_other.stop = StopRule::Converged {
            min_ess: 32,
            window: 128,
        };
        for other in [&seed, &rule, &track, &diag, &conv, &conv_other] {
            assert_ne!(base.config_hash(), other.config_hash());
        }
        assert_ne!(conv.config_hash(), conv_other.config_hash());
        // ... but not to run-position fields.
        let mut pos = base.clone();
        pos.completed_sweeps = 5;
        pos.sweep_budget = 99;
        assert_eq!(base.config_hash(), pos.config_hash());
    }

    #[test]
    fn validate_rejects_inconsistent_states() {
        assert!(state().validate().is_ok());
        let mut flags = state();
        flags.swapped.pop();
        assert!(flags.validate().is_err());
        let mut sweeps = state();
        sweeps.completed_sweeps = 9;
        assert!(sweeps.validate().is_err());
        let mut verts = state();
        verts.num_vertices = 2;
        assert!(verts.validate().is_err());
        for (min_ess, window) in [(0, 64), (8, 1), (65, 64)] {
            let mut conv = state();
            conv.stop = StopRule::Converged { min_ess, window };
            assert!(
                conv.validate().is_err(),
                "min_ess {min_ess} window {window} must be rejected"
            );
        }
        let mut conv_ok = state();
        conv_ok.stop = StopRule::Converged {
            min_ess: 32,
            window: 64,
        };
        assert!(conv_ok.validate().is_ok());
    }

    #[test]
    fn checkpoint_policy_due() {
        let now = Instant::now();
        assert!(!CheckpointPolicy::default().due(u64::MAX, now));
        assert!(CheckpointPolicy::sweeps(3).due(3, now));
        assert!(!CheckpointPolicy::sweeps(3).due(2, now));
        assert!(CheckpointPolicy::wall(Duration::ZERO).due(0, now));
    }
}
