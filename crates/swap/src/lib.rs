//! Parallel double-edge swaps (paper Algorithm III.1).
//!
//! A *double-edge swap* takes two edges `e = {u,v}`, `f = {x,y}` and rewires
//! them to `{u,x},{v,y}` or `{u,y},{v,x}`. Swaps preserve the degree
//! sequence exactly; performing many randomly-selected swaps is a Markov
//! Chain Monte Carlo process whose stationary distribution is uniform over
//! the simple graphs realizing the degree sequence (Artzy-Randrup & Stone
//! \[2\], Milo et al. \[22\]).
//!
//! Each iteration of the parallel algorithm:
//!
//! 1. registers every current edge key in a concurrent hash table
//!    (thread-safe `TestAndSet` insertions; the table is a sharded,
//!    epoch-stamped [`conchash::ShardedEpochHashSet`], so emptying it
//!    between sweeps is an O(1) generation bump rather than a fill);
//! 2. randomly permutes the edge list (reservation-based parallel shuffle);
//! 3. attempts, in parallel, to swap every adjacent pair `(E[2i], E[2i+1])`
//!    of the permuted list, accepting a swap only when neither replacement
//!    edge is a self loop, neither is already present in the table, and the
//!    pair wins the *minimum-index claim* on both replacement keys.
//!
//! The acceptance rule is **deterministic**: where the paper resolves
//! proposal/proposal conflicts by whichever thread's `TestAndSet` lands
//! first (so results depend on scheduling), this implementation runs a
//! claim phase — every pair writes its pair index into a min-claim hash map
//! ([`conchash::ShardedEpochHashMap`]) under both replacement keys — followed,
//! after a barrier, by a commit phase in which a pair succeeds iff it holds
//! the minimum claim on both keys. Minimum is a commutative-associative
//! reduction, so the winner set (and hence the whole run) is a pure
//! function of `(edge list, seed)`, independent of the rayon pool size.
//! Because the permutation randomizes pair indices every sweep, no edge is
//! systematically favored; the `stattest` uniformity harness checks the
//! resulting chain against the exact uniform distribution.
//!
//! Rejected swaps leave the pair untouched (an MCMC self-transition, which
//! preserves the chain's symmetry). Conflict rejections are *conservative*:
//! they can only cause extra self-transitions, never a simplicity
//! violation.
//!
//! Non-simple input is legal: multi-edges and self loops are gradually
//! eliminated, because a successful swap of one copy of a duplicated edge
//! replaces it with fresh edges (the paper uses exactly this to "simplify"
//! `O(m)` Chung-Lu output).
//!
//! # Edge encodings
//!
//! The kernel is generic over the edge-key encoding ([`SwapEdge`],
//! [`SwapGraph`]): the fixed-sweep entry points ([`swap_edges`] and its
//! `_serial` / `try_` / `_with_workspace` forms) mix an undirected
//! [`EdgeList`] or a `directed::DiEdgeList` with the same claim/commit
//! engine, tables and recovery. Checkpointed and converged runs
//! ([`try_mix_resumable`], [`resume_from`]) are undirected only, because a
//! [`MixState`] stores undirected edges.
//!
//! # Workspace reuse
//!
//! All buffers and tables of a run live in a [`SwapWorkspace`]. The
//! `*_with_workspace` entry points accept one explicitly so that ensembles,
//! retry loops and statistical harnesses reuse a single set of buffers
//! across many runs; the plain entry points allocate a fresh workspace and
//! produce byte-identical results. Once the workspace has grown, a sweep
//! performs no heap allocation (see `crates/swap/tests/alloc_free.rs`) and
//! pays only O(changes) for its bookkeeping: the `ever_swapped` mixing
//! statistic is a relaxed counter bumped on first-swap commits, and the
//! optional violation counts are maintained incrementally from the edges a
//! successful swap actually changed instead of re-sorting the edge list.
//!
//! # Example
//!
//! ```
//! use graphcore::EdgeList;
//! use swap::{swap_edges, SwapConfig};
//!
//! let mut g = EdgeList::from_pairs((0..100).map(|i| (i, (i + 1) % 100)));
//! let before = g.degree_sequence();
//! let stats = swap_edges(&mut g, &SwapConfig::new(5, 42));
//! assert_eq!(g.degree_sequence(), before);  // degrees preserved exactly
//! assert!(g.is_simple());                    // simplicity preserved
//! assert!(stats.total_successful() > 0);
//! ```

pub mod diag;
mod encoding;
mod pool;
pub mod resume;
pub mod stats;
mod workspace;

pub use diag::{geyer_ess, MixingDiagnostics, SeriesDiagnostic};
pub use encoding::{SwapEdge, SwapGraph};
pub use fault::{FaultEvent, FaultLog, GenError};
pub use pool::{PooledWorkspace, WorkspacePool};
pub use resume::{CheckpointPolicy, MixControl, MixOutcome, MixReport, MixState, StopRule};
pub use stats::{IterationStats, SwapStats};
pub use workspace::SwapWorkspace;

use conchash::{ShardedEpochHashSet, TableFullError, EMPTY};
use graphcore::EdgeList;
use parutil::permute::{apply_darts_serial, darts_into, parallel_permute_with_darts_using};
use parutil::rng::{mix64, mix_bits_into};
use rayon::prelude::*;
use resume::{SegmentCtl, SegmentMeta};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workspace::{Proposal, Slot};

/// Salt of the per-pair partner-choice bit stream: `side(pair) =
/// mix64(iter_seed ^ pair_idx ^ SIDE_SALT) & 1`. A pure function of
/// `(seed, sweep, pair index)`, so the stream is identical whether the bits
/// are drawn inline or batch-filled, serially or in parallel.
const SIDE_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Edges per task in the registration phase. Fixed (not pool-derived):
/// the registration order is irrelevant (set insertion is idempotent), but
/// a fixed block keeps per-task overhead amortized identically everywhere.
const REG_BLOCK: usize = 1 << 14;

/// Pairs per task in the proposal and commit phases. Each task fills a
/// contiguous slab of the proposal buffer and the claim-key buffer —
/// batching the sweep's bookkeeping writes instead of scheduling one rayon
/// item per pair.
const PAIR_BLOCK: usize = 1 << 13;

/// Keys per prefetch batch in the registration and serial-claim loops:
/// hash a batch, issue a prefetch for every home slot, then probe the
/// batch. Each probe is an independent random table read, so the batch
/// turns a chain of serial memory stalls into overlapped misses; 32 keys
/// covers one memory latency at the loop's issue rate. Purely a
/// performance shape — the operations and their order are unchanged.
const PF_BATCH: usize = 32;

/// Pairs per prefetch batch in the proposal and commit phases (each pair
/// touches two table keys, so this keeps outstanding prefetches near
/// [`PF_BATCH`]).
const PAIR_PF_BATCH: usize = 16;

/// Configuration for a swap run.
#[derive(Clone, Debug)]
pub struct SwapConfig {
    /// Number of full permute-and-swap iterations.
    pub iterations: usize,
    /// RNG seed; runs are reproducible for a fixed seed and identical to
    /// the serial reference on **any** rayon pool size (the claim-based
    /// acceptance is scheduling-independent).
    pub seed: u64,
    /// When `true`, each iteration's [`IterationStats`] also counts the
    /// remaining self loops and multi-edges. Counts are maintained
    /// incrementally (one multiplicity census at run start, then O(1)
    /// updates per committed swap); off by default.
    pub track_violations: bool,
    /// When `true`, each iteration's [`IterationStats`] also carries the
    /// convergence-diagnostic observables
    /// ([`IterationStats::deg_product_sum`] and
    /// [`IterationStats::wedge_sketch`]). Maintained incrementally (one
    /// accumulator build at run start, then O(1) wrapping updates per
    /// committed swap plus one O(n) reduction per sweep); off by default,
    /// enabled automatically by [`StopRule::Converged`] runs.
    pub track_diagnostics: bool,
}

pub use conchash::{KeyWidth, KeyWidthError, ResolvedWidth};

impl SwapConfig {
    /// `iterations` swap sweeps with the given seed and default options.
    pub fn new(iterations: usize, seed: u64) -> Self {
        Self {
            iterations,
            seed,
            track_violations: false,
            track_diagnostics: false,
        }
    }
}

/// How a run may recover from a full concurrent table.
///
/// A `TableFull` fault aborts the sweep *before* any edge is written back,
/// so the graph is untouched and the whole run can be replayed from its
/// recorded seed. Table capacity never influences a swap decision, which
/// makes the replay byte-identical to a run that was sized correctly from
/// the start. The policy bounds how much recovery is attempted: each grow
/// doubles the table capacity, and the last resort is one serial replay
/// (single-threaded sweeps cannot stall on another thread's in-flight
/// insertion). Every action taken is logged into [`SwapStats::events`].
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Maximum number of 2× table reallocations (0 = fail on first fault).
    pub max_grows: u32,
    /// Whether to attempt one serial replay after the grow budget is spent.
    pub serial_fallback: bool,
    /// Ring-buffer cap of the run's [`SwapStats::events`] log
    /// ([`fault::DEFAULT_FAULT_LOG_CAPACITY`] by default): the oldest
    /// events are evicted — and counted — past this many, so a retry storm
    /// cannot grow memory without bound.
    pub event_capacity: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_grows: 4,
            serial_fallback: true,
            event_capacity: fault::DEFAULT_FAULT_LOG_CAPACITY,
        }
    }
}

impl RecoveryPolicy {
    /// Fail on the first fault instead of recovering.
    pub fn none() -> Self {
        Self {
            max_grows: 0,
            serial_fallback: false,
            ..Self::default()
        }
    }
}

/// Watchdog budget for a mixing run ([`try_mix_resumable`]): the sweep
/// cap, plus an optional wall-clock deadline checked between sweeps.
#[derive(Clone, Copy, Debug)]
pub struct MixingBudget {
    /// Maximum number of permute-and-swap sweeps.
    pub max_sweeps: usize,
    /// Optional wall-clock limit for the whole run.
    pub max_wall: Option<Duration>,
}

impl MixingBudget {
    /// A budget of `max_sweeps` sweeps with no wall-clock limit.
    pub fn sweeps(max_sweeps: usize) -> Self {
        Self {
            max_sweeps,
            max_wall: None,
        }
    }
}

/// Run parallel double-edge swaps in place. Returns per-iteration statistics.
///
/// Panics if a concurrent table faults even after the default
/// [`RecoveryPolicy`]; prefer [`try_swap_edges`] in code that must survive
/// mis-sized workspaces.
pub fn swap_edges<G: SwapGraph>(graph: &mut G, cfg: &SwapConfig) -> SwapStats {
    swap_edges_with_workspace(graph, cfg, &mut SwapWorkspace::new())
}

/// As [`swap_edges`], reusing caller-owned buffers. Results are
/// byte-identical to a run with a fresh workspace.
pub fn swap_edges_with_workspace<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    ws: &mut SwapWorkspace<G::Edge>,
) -> SwapStats {
    match try_swap_edges_with_workspace(graph, cfg, ws, &RecoveryPolicy::default()) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`swap_edges`]: returns a typed [`GenError`] instead of
/// panicking when a concurrent table faults beyond recovery.
pub fn try_swap_edges<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
) -> Result<SwapStats, GenError> {
    try_swap_edges_with_workspace(
        graph,
        cfg,
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
}

/// As [`try_swap_edges`], reusing caller-owned buffers under an explicit
/// recovery policy.
pub fn try_swap_edges_with_workspace<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    ws: &mut SwapWorkspace<G::Edge>,
    policy: &RecoveryPolicy,
) -> Result<SwapStats, GenError> {
    run_recovering(graph, cfg, true, &|_| false, None, ws, policy, None)
}

/// Serial reference implementation of the identical algorithm (same darts,
/// same pair order, same claim semantics). [`swap_edges`] produces
/// byte-identical output on a rayon pool of any size.
pub fn swap_edges_serial<G: SwapGraph>(graph: &mut G, cfg: &SwapConfig) -> SwapStats {
    swap_edges_serial_with_workspace(graph, cfg, &mut SwapWorkspace::new())
}

/// As [`swap_edges_serial`], reusing caller-owned buffers.
pub fn swap_edges_serial_with_workspace<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    ws: &mut SwapWorkspace<G::Edge>,
) -> SwapStats {
    match run_recovering(
        graph,
        cfg,
        false,
        &|_| false,
        None,
        ws,
        &RecoveryPolicy::default(),
        None,
    ) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`swap_edges_serial`] with caller-owned buffers and an explicit
/// recovery policy.
pub fn try_swap_edges_serial_with_workspace<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    ws: &mut SwapWorkspace<G::Edge>,
    policy: &RecoveryPolicy,
) -> Result<SwapStats, GenError> {
    run_recovering(graph, cfg, false, &|_| false, None, ws, policy, None)
}

/// Interruptible, checkpointable mixing run.
///
/// Behaves exactly like the non-resumable entry points — byte-identical
/// trajectory for the same `(graph, stop, budget, seed)` on any rayon pool
/// size — but additionally honors the [`MixControl`]: the interrupt flag is
/// drained between sweeps, and intermediate [`MixState`]s are handed to the
/// checkpoint sink per the [`CheckpointPolicy`]. The report says how the
/// run ended and, unless it [`MixOutcome::Completed`], carries the state to
/// continue from (feed it to [`resume_from`], directly or through a
/// `ckpt_v2` round trip). When the budget runs out first, the graph keeps
/// every completed sweep (a valid, if under-mixed, degree-preserving
/// state) and [`MixReport::budget_error`] gives the typed
/// [`GenError::MixingBudgetExceeded`] reporting exactly how far it got.
///
/// `budget.max_sweeps` is the *absolute* sweep cap of the logical run: a
/// resumed continuation counts its predecessor's sweeps against the same
/// cap.
#[allow(clippy::too_many_arguments)]
pub fn try_mix_resumable(
    graph: &mut EdgeList,
    stop: StopRule,
    budget: &MixingBudget,
    seed: u64,
    ctl: &mut MixControl<'_>,
    ws: &mut SwapWorkspace,
    policy: &RecoveryPolicy,
) -> Result<MixReport, GenError> {
    mixing_core(graph, stop, budget, seed, None, ctl, ws, policy)
}

/// Continue a mixing run from a captured [`MixState`].
///
/// Rebuilds the graph from the state and replays the remaining sweeps; the
/// hard invariant (enforced by `tests/checkpoint_resume.rs`) is that
/// *interrupt → checkpoint → resume* yields output byte-identical to the
/// uninterrupted run, across 1/2/8-thread pools. The budget is absolute —
/// `state.completed_sweeps` already counts against `budget.max_sweeps`; to
/// grant more work, raise the cap (the stored [`MixState::sweep_budget`]
/// restores the original one).
pub fn resume_from(
    state: &MixState,
    budget: &MixingBudget,
    ctl: &mut MixControl<'_>,
    ws: &mut SwapWorkspace,
    policy: &RecoveryPolicy,
) -> Result<(EdgeList, MixReport), GenError> {
    state.validate()?;
    let mut graph = EdgeList::from_edges(state.num_vertices, state.edges.clone());
    let report = mixing_core(
        &mut graph,
        state.stop,
        budget,
        state.seed,
        Some(state),
        ctl,
        ws,
        policy,
    )?;
    Ok((graph, report))
}

/// The one mixing-run engine behind [`try_mix_resumable`] and
/// [`resume_from`]: builds the stop criterion, threads the segment controls
/// into [`run_until`] via [`run_recovering`], and classifies the ending.
#[allow(clippy::too_many_arguments)]
fn mixing_core(
    graph: &mut EdgeList,
    stop: StopRule,
    budget: &MixingBudget,
    seed: u64,
    prior: Option<&MixState>,
    ctl: &mut MixControl<'_>,
    ws: &mut SwapWorkspace,
    policy: &RecoveryPolicy,
) -> Result<MixReport, GenError> {
    let mut cfg = SwapConfig::new(budget.max_sweeps, seed);
    // Violation tracking is part of the trajectory-describing config: a
    // fresh run derives it from the input's simplicity, a resumed run must
    // keep what it started with (its input may have been simplified since).
    cfg.track_violations = match prior {
        Some(st) => st.track_violations,
        None => !graph.is_simple(),
    };
    let needs_simplify = cfg.track_violations;
    // Diagnostics tracking is likewise trajectory-describing: the converged
    // rule needs the observable series from sweep 0, and a resumed run must
    // keep recording whatever its predecessor recorded.
    cfg.track_diagnostics = match prior {
        Some(st) => st.track_diagnostics,
        None => matches!(stop, StopRule::Converged { .. }),
    };
    let criterion = move |iterations: &[IterationStats]| match stop {
        StopRule::Converged { min_ess, window } => {
            diag::converged(iterations, min_ess, window, needs_simplify)
        }
        StopRule::FixedSweeps => false,
    };
    let deadline = budget.max_wall.map(|d| Instant::now() + d);
    let mut seg = SegmentCtl {
        start_iter: prior.map_or(0, |st| st.completed_sweeps),
        init_swapped: prior.map(|st| st.swapped.as_slice()),
        prior: prior.map_or(&[][..], |st| st.iterations.as_slice()),
        meta: SegmentMeta {
            num_vertices: graph.num_vertices(),
            seed,
            sweep_budget: budget.max_sweeps as u64,
            stop,
            track_violations: cfg.track_violations,
            track_diagnostics: cfg.track_diagnostics,
        },
        interrupt: ctl.interrupt,
        policy: ctl.policy,
        sink: ctl.sink.as_deref_mut(),
        interrupted: false,
        sink_error: None,
        final_state: None,
    };
    let stats = run_recovering(
        graph,
        &cfg,
        true,
        &criterion,
        deadline,
        ws,
        policy,
        Some(&mut seg),
    )?;
    if let Some(e) = seg.sink_error {
        return Err(e);
    }
    // A graph too small to swap (m < 2) has nothing to mix; treat it as
    // trivially complete rather than forever over budget.
    let completed_rule = match stop {
        StopRule::Converged { .. } => criterion(&stats.iterations),
        StopRule::FixedSweeps => {
            stats.iterations.len() as u64 >= budget.max_sweeps as u64
                && !stats.wall_clock_exceeded
                && !seg.interrupted
        }
    };
    let outcome = if graph.len() < 2 || completed_rule {
        MixOutcome::Completed
    } else if seg.interrupted {
        MixOutcome::Interrupted
    } else {
        MixOutcome::BudgetExhausted
    };
    let checkpoint = match outcome {
        MixOutcome::Completed => None,
        _ => seg.final_state,
    };
    Ok(MixReport {
        stats,
        outcome,
        checkpoint,
    })
}

/// Bounded grow-and-retry driver around [`run_until`].
///
/// A `TableFull` fault leaves the graph untouched (edges are written back
/// only after the final sweep), so recovery replays the *whole run* from
/// the same seed over larger tables: first up to `policy.max_grows` 2×
/// grows, then — because a single thread can always make progress — one
/// serial replay, then a typed [`GenError::TableFull`]. Each recovery step
/// is recorded in the returned [`SwapStats::events`].
#[allow(clippy::too_many_arguments)]
fn run_recovering<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    parallel: bool,
    stop_when: &(dyn Fn(&[IterationStats]) -> bool + Sync),
    deadline: Option<Instant>,
    ws: &mut SwapWorkspace<G::Edge>,
    policy: &RecoveryPolicy,
    mut seg: Option<&mut SegmentCtl<'_, '_>>,
) -> Result<SwapStats, GenError> {
    let mut events = FaultLog::with_capacity(policy.event_capacity);
    let mut grows = 0u32;
    let mut degraded = false;
    // Resolve the requested key width against this run's vertex count
    // before any sweep: `Auto` picks the narrowest packed table layout the
    // ids fit, while a forced width that cannot hold them is a typed input
    // error (never a silent truncation).
    ws.resolve_width_for(graph.num_vertices() as u64)
        .map_err(|e| GenError::bad_input(e.to_string()))?;
    loop {
        match run_until(
            graph,
            cfg,
            parallel && !degraded,
            stop_when,
            deadline,
            ws,
            seg.as_deref_mut(),
        ) {
            Ok(mut stats) => {
                if let Some(m) = ws.metrics() {
                    m.fault_events.add(events.total_recorded());
                }
                stats.events = events;
                return Ok(stats);
            }
            Err(fault) => {
                if grows < policy.max_grows {
                    grows += 1;
                    let new_capacity = ws.grow_tables();
                    if let Some(m) = ws.metrics() {
                        m.swap_grow_retries.incr();
                    }
                    events.push(FaultEvent::TableGrown {
                        table: fault.table,
                        occupancy: fault.occupancy,
                        old_capacity: fault.capacity,
                        new_capacity,
                        attempt: grows,
                    });
                    continue;
                }
                if policy.serial_fallback && parallel && !degraded {
                    degraded = true;
                    if let Some(m) = ws.metrics() {
                        m.swap_serial_fallbacks.incr();
                    }
                    events.push(FaultEvent::SerialFallback { after_grows: grows });
                    continue;
                }
                return Err(GenError::TableFull {
                    table: fault.table,
                    occupancy: fault.occupancy,
                    capacity: fault.capacity,
                    grows_attempted: grows,
                });
            }
        }
    }
}

/// Incremental simplicity-violation counters.
///
/// At run start a single census records the self-loop count and, for every
/// key occurring `c ≥ 2` times, its multiplicity (`multi_edges` is the sum
/// of the extras `c - 1`, exactly as `EdgeList::simplicity_report`
/// computes it). A committed swap can only *remove* violations — proposals
/// rejecting self loops and table hits mean no added edge ever duplicates a
/// live key or closes a loop — so per-commit updates are decrements on the
/// two removed edges: the self-loop counter drops for each removed loop,
/// and the multiplicity of a removed key drops, shedding one `multi_edges`
/// extra while copies remain. The committed-pair set is deterministic, so
/// the counters are too, on any pool size.
struct ViolationCounters {
    self_loops: AtomicU64,
    multi_edges: AtomicU64,
    /// Remaining multiplicity per initially-duplicated key. Keys added by
    /// swaps are never duplicated, so the map never grows after the census.
    multiplicity: HashMap<u64, AtomicU64>,
}

impl ViolationCounters {
    fn census<E: SwapEdge>(slots: &[Slot<E>]) -> Self {
        let mut self_loops = 0u64;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for s in slots {
            self_loops += u64::from(s.edge.is_self_loop());
            *counts.entry(s.edge.key()).or_insert(0) += 1;
        }
        let mut multi_edges = 0u64;
        let multiplicity: HashMap<u64, AtomicU64> = counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|(k, c)| {
                multi_edges += c - 1;
                (k, AtomicU64::new(c))
            })
            .collect();
        Self {
            self_loops: AtomicU64::new(self_loops),
            multi_edges: AtomicU64::new(multi_edges),
            multiplicity,
        }
    }

    /// Account for the removal of `edge` by a committed swap.
    #[inline]
    fn on_removed<E: SwapEdge>(&self, edge: &E) {
        if edge.is_self_loop() {
            self.self_loops.fetch_sub(1, Ordering::Relaxed);
        }
        let Some(c) = self.multiplicity.get(&edge.key()) else {
            return;
        };
        // Saturating decrement: a key fully drained and later re-added by a
        // swap (legal once no copy is live) must not underflow. Which commit
        // observes which predecessor value is scheduling-dependent, but the
        // *number* of decrements from 2 or above is not.
        let mut cur = c.load(Ordering::Relaxed);
        while cur > 0 {
            match c.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(prev) => {
                    if prev >= 2 {
                        self.multi_edges.fetch_sub(1, Ordering::Relaxed);
                    }
                    break;
                }
                Err(now) => cur = now,
            }
        }
    }
}

/// Register one block of edges into the membership table, pipelined in
/// [`PF_BATCH`]-key batches: compute-and-prefetch every key's home slot,
/// then probe the batch. Each probe is an independent random read, so the
/// prefetch pass overlaps their cache misses instead of paying them one
/// full latency at a time. Insertion is idempotent and order-free, so the
/// batching is byte-invisible.
#[inline]
fn register_block<E: SwapEdge>(
    table: &ShardedEpochHashSet,
    block: &[Slot<E>],
) -> Result<(), TableFullError> {
    let mut keys = [0u64; PF_BATCH];
    for chunk in block.chunks(PF_BATCH) {
        let batch = &mut keys[..chunk.len()];
        for (k, s) in batch.iter_mut().zip(chunk) {
            *k = s.edge.key();
            table.prefetch(*k);
        }
        for &k in batch.iter() {
            table.try_test_and_set(k)?;
        }
    }
    Ok(())
}

/// One complete swap run: all sweeps, then a single write-back of the final
/// edges into `graph`. On `Err` (a full concurrent table) **nothing has
/// been written back** — the graph still holds its input state, which is
/// what makes the grow-and-retry replay in [`run_recovering`] exact.
///
/// A [`SegmentCtl`] makes the run one *segment* of a resumable trajectory:
/// sweeps run over the absolute index range `start_iter..cfg.iterations`
/// (every per-sweep seed derives from the absolute index, so a segment
/// boundary is invisible to the RNG stream), slot flags and prior per-sweep
/// stats are seeded from the previous segment, the interrupt flag is
/// drained between sweeps, and checkpoints are handed to the sink per the
/// policy. Segment out-fields are reset on entry, so a grow-and-retry
/// replay of a faulted attempt stays exact.
fn run_until<G: SwapGraph>(
    graph: &mut G,
    cfg: &SwapConfig,
    parallel: bool,
    stop_when: &(dyn Fn(&[IterationStats]) -> bool + Sync),
    deadline: Option<Instant>,
    ws: &mut SwapWorkspace<G::Edge>,
    mut seg: Option<&mut SegmentCtl<'_, '_>>,
) -> Result<SwapStats, TableFullError> {
    let m = graph.edges().len();
    let mut stats = SwapStats::default();
    let start = seg.as_ref().map_or(0, |s| s.start_iter);
    let total = cfg.iterations as u64;
    if let Some(s) = seg.as_deref_mut() {
        s.interrupted = false;
        s.sink_error = None;
        s.final_state = None;
        stats.iterations.extend_from_slice(s.prior);
    }
    if m < 2 || total <= start {
        if let Some(s) = seg {
            // Nothing to run, but the continuation state must still be
            // well-formed (flags carried over, stats already prepended).
            let slots: Vec<Slot<G::Edge>> = graph
                .edges()
                .iter()
                .enumerate()
                .map(|(i, &edge)| Slot {
                    edge,
                    swapped: s
                        .init_swapped
                        .is_some_and(|f| f.get(i).copied() == Some(true)),
                })
                .collect();
            s.final_state = Some(s.meta.state_from_slots(&slots, &stats.iterations));
        }
        return Ok(stats);
    }
    stats
        .iterations
        .reserve(((total - start) as usize).min(1 << 12));
    ws.prepare(m);
    let SwapWorkspace {
        slots,
        darts,
        proposals,
        sides,
        claim_keys,
        scatter,
        permute,
        table,
        claims,
        metrics,
        ..
    } = ws;
    let metrics = metrics.as_deref();
    let table: &ShardedEpochHashSet = table.as_ref().expect("prepare populates the table");
    let claims = claims.as_ref().expect("prepare populates the claim map");
    let shard_count = claims.shard_count();
    slots.clear();
    match seg.as_ref().and_then(|s| s.init_swapped) {
        Some(flags) => {
            debug_assert_eq!(flags.len(), m, "resume flags must match the edge count");
            slots.extend(
                graph
                    .edges()
                    .iter()
                    .zip(flags.iter())
                    .map(|(&edge, &swapped)| Slot { edge, swapped }),
            );
        }
        None => slots.extend(graph.edges().iter().map(|&edge| Slot {
            edge,
            swapped: false,
        })),
    }

    let violations = cfg
        .track_violations
        .then(|| ViolationCounters::census(slots));
    // Convergence observables: accumulators are pure functions (mod 2⁶⁴) of
    // the current edge multiset, so building them here makes resumed
    // segments and grow-and-retry replays exact.
    let diag = cfg
        .track_diagnostics
        .then(|| diag::DiagAccumulators::new(slots, graph.num_vertices(), cfg.seed));
    // Mixing statistic: slots that have ever held a successfully swapped
    // edge. Commits bump the counter for each slot flipping for the first
    // time; every slot flips at most once, so the relaxed sum is exact and
    // deterministic (it replaces a full O(m) rescan per sweep). A resumed
    // segment starts from the carried-over flag count.
    let ever = AtomicU64::new(slots.iter().filter(|s| s.swapped).count() as u64);
    let mut sweeps_since_ckpt = 0u64;
    let mut last_ckpt = Instant::now();

    for iter in start..total {
        // Graceful shutdown: the interrupt flag is drained between sweeps,
        // so the state captured below is always a whole-sweep boundary.
        if let Some(s) = seg.as_deref_mut() {
            if s.interrupt.is_some_and(|f| f.load(Ordering::Acquire)) {
                s.interrupted = true;
                break;
            }
        }
        // Watchdog: the wall-clock deadline is checked between sweeps (a
        // sweep is never interrupted mid-flight, so the edge list stays a
        // valid degree-preserving state).
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stats.wall_clock_exceeded = true;
            break;
        }
        let iter_seed = mix64(cfg.seed ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        table.clear_shared();
        claims.clear_shared();

        // Phase 1: register all current edges, in fixed-size blocks (order
        // is irrelevant — insertion is idempotent and the table is sharded
        // by key, not by thread). (Timed into the sweep counter: the sweep
        // span below restarts after the permute, so the two spans together
        // cover everything but the permute.)
        {
            let _span = metrics.map(|m| m.phase_sweep_ns.start_span());
            if parallel {
                slots
                    .par_chunks(REG_BLOCK)
                    .try_for_each(|block| register_block(table, block))?;
            } else {
                register_block(table, slots)?;
            }
        }

        // Phase 2: permute, and batch-fill the sweep's partner-choice bits
        // (same per-index formula as the historical inline draw, so the
        // proposal stream is unchanged).
        {
            let _span = metrics.map(|m| m.phase_permute_ns.start_span());
            darts_into(darts, iter_seed);
            if parallel {
                parallel_permute_with_darts_using(slots, darts, permute);
            } else {
                apply_darts_serial(slots, darts);
            }
            mix_bits_into(sides, iter_seed, SIDE_SALT);
        }
        let _sweep_span = metrics.map(|m| m.phase_sweep_ns.start_span());

        // Phase 3a: deterministic proposals, checked against the current
        // edge set only (never against other pairs' proposals). Each task
        // fills one contiguous slab of proposal tags plus the matching slab
        // of claim keys (the two replacement keys of an accepted pair,
        // `EMPTY` for pairs with nothing to claim), so the claim and commit
        // phases below work from a dense key array.
        //
        // Each slab runs in [`PAIR_PF_BATCH`]-pair batches of two passes:
        // pass A computes the replacement candidates, applies the
        // arithmetic-only rejections (self loop, duplicate), and prefetches
        // the membership slots of the survivors; pass B performs the table
        // lookups against warmed lines. The rejection tests and their
        // precedence are exactly the historical `propose_swap` sequence, so
        // the proposal stream is unchanged.
        let npairs = m / 2;
        {
            let slots: &[Slot<G::Edge>] = slots;
            let sides: &[u8] = sides;
            let fill = |base: usize, props: &mut [Proposal], cks: &mut [u64]| {
                let nb = props.len();
                let mut start = 0usize;
                while start < nb {
                    let len = PAIR_PF_BATCH.min(nb - start);
                    for (j, out) in props[start..start + len].iter_mut().enumerate() {
                        let pair_idx = base + start + j;
                        let lo = pair_idx * 2;
                        let e = slots[lo].edge;
                        let f = slots[lo + 1].edge;
                        let (g, h) = e.swap_with(&f, sides[pair_idx] != 0);
                        let (k0, k1) = (g.key(), h.key());
                        *out = if g.is_self_loop() || h.is_self_loop() {
                            Proposal::RejectSelfLoop
                        } else if k0 == k1 {
                            Proposal::RejectDuplicate
                        } else {
                            table.prefetch(k0);
                            table.prefetch(k1);
                            Proposal::Accept
                        };
                        cks[2 * (start + j)] = k0;
                        cks[2 * (start + j) + 1] = k1;
                    }
                    for (j, out) in props[start..start + len].iter_mut().enumerate() {
                        let c = 2 * (start + j);
                        if *out == Proposal::Accept
                            && (table.contains(cks[c]) || table.contains(cks[c + 1]))
                        {
                            *out = Proposal::RejectExists;
                        }
                        if *out != Proposal::Accept {
                            cks[c] = EMPTY;
                            cks[c + 1] = EMPTY;
                        }
                    }
                    start += len;
                }
            };
            if parallel {
                proposals[..npairs]
                    .par_chunks_mut(PAIR_BLOCK)
                    .zip(claim_keys.par_chunks_mut(2 * PAIR_BLOCK))
                    .enumerate()
                    .for_each(|(b, (props, cks))| fill(b * PAIR_BLOCK, props, cks));
            } else {
                fill(0, &mut proposals[..npairs], claim_keys);
            }
            // Odd edge count: the trailing singleton has no partner and
            // self-transitions unconditionally.
            if let Some(last) = proposals.get_mut(npairs) {
                *last = Proposal::RejectSingleton;
            }
        }

        // Phase 3b: every live proposal claims both replacement keys with
        // its pair index; the surviving claim per key is the minimum index,
        // regardless of scheduling. In parallel the claims are first
        // partitioned by destination shard (two deterministic bulk passes),
        // then one worker per shard applies its run as a tight uncontended
        // loop — replacing the per-key CAS ping-pong on shared cache lines
        // with single-writer sweeps. Minimum is commutative and
        // associative, so the settled claim map is identical to the serial
        // facade loop below, for every shard count and pool size.
        if parallel {
            scatter.scatter(claim_keys, EMPTY, shard_count, |k| claims.shard_of(k));
            (0..shard_count).into_par_iter().try_for_each(|s| {
                let (keys, idxs) = scatter.shard_slice(s);
                // The claim-key buffer holds two keys per pair, so the
                // record index maps back to its pair as `idx / 2`. The run
                // is applied software-pipelined inside the facade.
                claims.try_claim_min_run(s, keys, idxs, |idx| idx >> 1)
            })?;
        } else {
            // Same prefetch-batch shape as registration: warm both claim
            // slots of a batch of accepted pairs, then apply the claims.
            let accepted = |i: usize| proposals[i] == Proposal::Accept;
            let mut start = 0usize;
            while start < npairs {
                let len = PAIR_PF_BATCH.min(npairs - start);
                for i in (start..start + len).filter(|&i| accepted(i)) {
                    claims.prefetch(claim_keys[2 * i]);
                    claims.prefetch(claim_keys[2 * i + 1]);
                }
                for i in (start..start + len).filter(|&i| accepted(i)) {
                    claims.try_claim_min(claim_keys[2 * i], i as u64)?;
                    claims.try_claim_min(claim_keys[2 * i + 1], i as u64)?;
                }
                start += len;
            }
        }

        // Phase 3c: a pair commits iff it holds the minimum claim on both
        // of its replacement keys. Its slots are unchanged since phase 3a,
        // so recomputing the swap yields exactly the proposed edges.
        let proposals: &[Proposal] = proposals;
        let claim_keys: &[u64] = claim_keys;
        let sides: &[u8] = sides;
        let commit = |pair_idx: usize, pair: &mut [Slot<G::Edge>]| -> u64 {
            let i = pair_idx as u64;
            if proposals[pair_idx] != Proposal::Accept
                || claims.get(claim_keys[2 * pair_idx]) != Some(i)
                || claims.get(claim_keys[2 * pair_idx + 1]) != Some(i)
            {
                return 0;
            }
            let (g, h) = pair[0].edge.swap_with(&pair[1].edge, sides[pair_idx] != 0);
            let newly = u64::from(!pair[0].swapped) + u64::from(!pair[1].swapped);
            if newly > 0 {
                ever.fetch_add(newly, Ordering::Relaxed);
            }
            if let Some(v) = &violations {
                v.on_removed(&pair[0].edge);
                v.on_removed(&pair[1].edge);
            }
            if let Some(d) = &diag {
                d.on_swap(&pair[0].edge, &pair[1].edge, &g, &h);
            }
            pair[0] = Slot {
                edge: g,
                swapped: true,
            };
            pair[1] = Slot {
                edge: h,
                swapped: true,
            };
            1
        };
        // Each slab commits in [`PAIR_PF_BATCH`]-pair batches: warm the
        // claim slots of the batch's accepted proposals, then run the
        // commit checks against them. An odd-length trailing slab leaves
        // its singleton slot untouched, exactly as the per-pair chunking
        // did (its proposal is `RejectSingleton`).
        let commit_slab = |base: usize, slab: &mut [Slot<G::Edge>]| -> u64 {
            let pairs = slab.len() / 2;
            let mut successes = 0u64;
            let mut start = 0usize;
            while start < pairs {
                let len = PAIR_PF_BATCH.min(pairs - start);
                for p in
                    (base + start..base + start + len).filter(|&p| proposals[p] == Proposal::Accept)
                {
                    claims.prefetch(claim_keys[2 * p]);
                    claims.prefetch(claim_keys[2 * p + 1]);
                }
                for j in start..start + len {
                    successes += commit(base + j, &mut slab[2 * j..2 * j + 2]);
                }
                start += len;
            }
            successes
        };
        let successes: u64 = if parallel {
            // Blocked like phase 3a: each task commits a contiguous slab of
            // pairs and accumulates its successes locally.
            slots
                .par_chunks_mut(2 * PAIR_BLOCK)
                .enumerate()
                .map(|(b, block)| commit_slab(b * PAIR_BLOCK, block))
                .sum()
        } else {
            commit_slab(0, slots)
        };

        if let Some(mx) = metrics {
            // One pass over the (1-byte-tag) proposal buffer tallies the
            // causes; conflict rejections are the candidates that survived
            // proposal but lost the min-claim race at commit.
            let mut candidates = 0u64;
            let mut self_loop = 0u64;
            let mut duplicate = 0u64;
            let mut exists = 0u64;
            let mut singleton = 0u64;
            for p in proposals {
                match p {
                    Proposal::Accept => candidates += 1,
                    Proposal::RejectSelfLoop => self_loop += 1,
                    Proposal::RejectDuplicate => duplicate += 1,
                    Proposal::RejectExists => exists += 1,
                    Proposal::RejectSingleton => singleton += 1,
                }
            }
            mx.swap_sweeps.incr();
            mx.swap_proposals.add(proposals.len() as u64);
            mx.swap_accepts.add(successes);
            mx.swap_reject_self_loop.add(self_loop);
            mx.swap_reject_duplicate.add(duplicate);
            mx.swap_reject_exists.add(exists);
            mx.swap_reject_singleton.add(singleton);
            mx.swap_reject_conflict.add(candidates - successes);
        }

        let mut it_stats = IterationStats {
            attempted_pairs: (m / 2) as u64,
            successful_swaps: successes,
            ever_swapped_fraction: ever.load(Ordering::Relaxed) as f64 / m as f64,
            ..Default::default()
        };
        if let Some(v) = &violations {
            it_stats.self_loops = v.self_loops.load(Ordering::Relaxed);
            it_stats.multi_edges = v.multi_edges.load(Ordering::Relaxed);
        }
        if let Some(d) = &diag {
            it_stats.deg_product_sum = d.deg_product_sum();
            it_stats.wedge_sketch = d.wedge_sketch();
        }
        // The criterion sees the whole series (prior segments included):
        // convergence is a property of the trajectory, not of one sweep.
        stats.iterations.push(it_stats);
        if stop_when(&stats.iterations) {
            break;
        }
        // Periodic checkpoint: hand the whole-sweep-boundary state to the
        // sink. A sink failure aborts the run (durability was requested and
        // cannot be provided); the error surfaces through the segment.
        if let Some(s) = seg.as_deref_mut() {
            sweeps_since_ckpt += 1;
            if s.policy
                .is_some_and(|p| p.due(sweeps_since_ckpt, last_ckpt))
            {
                if let Some(sink) = s.sink.as_mut() {
                    let state = s.meta.state_from_slots(slots, &stats.iterations);
                    if let Err(e) = sink(&state) {
                        s.sink_error = Some(e);
                        break;
                    }
                }
                sweeps_since_ckpt = 0;
                last_ckpt = Instant::now();
            }
        }
    }

    // Write the final edges back.
    graph
        .edges_mut()
        .iter_mut()
        .zip(slots.iter())
        .for_each(|(e, s)| *e = s.edge);
    if let Some(s) = seg {
        s.final_state = Some(s.meta.state_from_slots(slots, &stats.iterations));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{DegreeDistribution, Edge};
    use proptest_lite::prelude::*;
    use std::collections::HashMap;

    fn ring(n: u32) -> EdgeList {
        EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
    }

    #[test]
    fn preserves_degree_sequence_exactly() {
        let mut g = ring(100);
        let before = g.degree_sequence();
        let stats = swap_edges(&mut g, &SwapConfig::new(5, 42));
        assert_eq!(g.degree_sequence(), before);
        assert!(stats.total_successful() > 0, "no swaps happened");
    }

    #[test]
    fn preserves_simplicity() {
        let mut g = ring(200);
        swap_edges(&mut g, &SwapConfig::new(10, 7));
        assert!(g.is_simple());
    }

    #[test]
    fn serial_matches_parallel_on_one_thread() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut a = ring(150);
        let mut b = a.clone();
        let cfg = SwapConfig::new(4, 99);
        let sa = pool.install(|| swap_edges(&mut a, &cfg));
        let sb = swap_edges_serial(&mut b, &cfg);
        assert_eq!(a, b);
        assert_eq!(sa.total_successful(), sb.total_successful());
    }

    #[test]
    fn deterministic_per_seed_serial() {
        let mut a = ring(100);
        let mut b = ring(100);
        swap_edges_serial(&mut a, &SwapConfig::new(3, 5));
        swap_edges_serial(&mut b, &SwapConfig::new(3, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_iterations_no_op() {
        let mut g = ring(10);
        let orig = g.clone();
        let stats = swap_edges(&mut g, &SwapConfig::new(0, 1));
        assert_eq!(g, orig);
        assert!(stats.iterations.is_empty());
    }

    #[test]
    fn tiny_graphs_no_panic() {
        for n in [0u32, 3, 4] {
            let mut g = if n == 0 { EdgeList::new(0) } else { ring(n) };
            swap_edges(&mut g, &SwapConfig::new(3, 1));
            assert!(g.is_simple());
        }
    }

    #[test]
    fn single_edge_cannot_swap() {
        let mut g = EdgeList::from_pairs([(0, 1)]);
        let stats = swap_edges(&mut g, &SwapConfig::new(5, 1));
        assert_eq!(stats.total_successful(), 0);
        assert_eq!(g.edges()[0], Edge::new(0, 1));
    }

    #[test]
    fn simplifies_multigraph() {
        // Start from an O(m)-style multigraph; violations must shrink to 0.
        let dist =
            DegreeDistribution::from_pairs(vec![(1, 120), (2, 40), (10, 8), (40, 2)]).unwrap();
        let mut g = generators::chung_lu_om(&dist, 3);
        let realized = g.degree_distribution();
        let before = g.simplicity_report();
        assert!(
            before.self_loops + before.multi_edges > 0,
            "fixture should start non-simple"
        );
        let mut cfg = SwapConfig::new(40, 11);
        cfg.track_violations = true;
        let stats = swap_edges(&mut g, &cfg);
        let last = stats.iterations.last().unwrap();
        assert_eq!(last.self_loops + last.multi_edges, 0, "not simplified");
        assert!(g.is_simple());
        // Swaps preserve the *realized* degree sequence of the multigraph
        // (which matches `dist` only in expectation).
        assert_eq!(g.degree_distribution(), realized);
    }

    #[test]
    fn ever_swapped_fraction_monotone() {
        let mut g = ring(500);
        let stats = swap_edges(&mut g, &SwapConfig::new(8, 13));
        let fracs: Vec<f64> = stats
            .iterations
            .iter()
            .map(|i| i.ever_swapped_fraction)
            .collect();
        for w in fracs.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "fraction decreased: {fracs:?}");
        }
        assert!(*fracs.last().unwrap() > 0.9, "mixing too slow: {fracs:?}");
    }

    /// Brute-force all simple graphs on `n` labeled vertices realizing a
    /// degree sequence.
    fn enumerate_realizations(degs: &[u32]) -> Vec<Vec<u64>> {
        let n = degs.len();
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
            .collect();
        let target_edges: u32 = degs.iter().sum::<u32>() / 2;
        let mut out = Vec::new();
        for mask in 0u32..(1 << pairs.len()) {
            if mask.count_ones() != target_edges {
                continue;
            }
            let mut deg = vec![0u32; n];
            let mut keys = Vec::new();
            for (i, &(u, v)) in pairs.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    deg[u as usize] += 1;
                    deg[v as usize] += 1;
                    keys.push(Edge::new(u, v).key());
                }
            }
            if deg == degs {
                keys.sort_unstable();
                out.push(keys);
            }
        }
        out
    }

    #[test]
    fn uniform_sampling_over_realizations() {
        // The paper validates its swap procedure against the analytically
        // expected sample (Milo et al. [22]); we do the same exhaustively:
        // the degree sequence [2,2,2,1,1] has a small set of labeled
        // realizations, and after enough swap iterations every realization
        // must appear with equal frequency.
        let degs = vec![2u32, 2, 2, 1, 1];
        let support = enumerate_realizations(&degs);
        assert!(support.len() > 1);
        let start =
            generators::havel_hakimi_sequence(&graphcore::DegreeSequence::new(degs.clone()))
                .unwrap();
        let trials = 6000;
        let mut counts: HashMap<Vec<u64>, u64> = HashMap::new();
        for t in 0..trials {
            let mut g = start.clone();
            swap_edges_serial(&mut g, &SwapConfig::new(12, 0xC0FFEE + t));
            let mut keys: Vec<u64> = g.edges().iter().map(|e| e.key()).collect();
            keys.sort_unstable();
            *counts.entry(keys).or_insert(0) += 1;
        }
        // Every realization reached.
        assert_eq!(
            counts.len(),
            support.len(),
            "chain did not reach all realizations"
        );
        let expect = trials as f64 / support.len() as f64;
        let chi2: f64 = support
            .iter()
            .map(|k| {
                let c = *counts.get(k).unwrap_or(&0) as f64;
                (c - expect) * (c - expect) / expect
            })
            .sum();
        // d.o.f. = support - 1; allow the 99.9th percentile for robustness.
        // For the sequences used here support is small (< 20), so 45 is a
        // generous universal bound.
        assert!(chi2 < 45.0, "chi2 = {chi2} over {} states", support.len());
    }

    #[test]
    fn undersized_workspace_grows_and_recovers_identically() {
        let cfg = SwapConfig::new(4, 77);
        let mut want = ring(300);
        swap_edges(&mut want, &cfg);

        let mut got = ring(300);
        let mut ws = SwapWorkspace::with_table_capacity(64);
        let stats =
            try_swap_edges_with_workspace(&mut got, &cfg, &mut ws, &RecoveryPolicy::default())
                .expect("grow-and-retry should recover");
        assert_eq!(got, want, "recovered run must be byte-identical");
        assert!(
            stats
                .events
                .iter()
                .any(|e| matches!(e, FaultEvent::TableGrown { .. })),
            "recovery must be logged, got {:?}",
            stats.events
        );
    }

    #[test]
    fn recovery_disabled_reports_table_full_and_leaves_graph_untouched() {
        let mut g = ring(300);
        let mut ws = SwapWorkspace::with_table_capacity(16);
        let err = try_swap_edges_with_workspace(
            &mut g,
            &SwapConfig::new(2, 5),
            &mut ws,
            &RecoveryPolicy::none(),
        )
        .expect_err("16-key tables cannot hold 300 edges");
        assert_eq!(err.error_code(), "table_full");
        match err {
            GenError::TableFull {
                occupancy,
                capacity,
                grows_attempted,
                ..
            } => {
                assert_eq!(grows_attempted, 0);
                assert!(occupancy <= capacity, "{occupancy} > {capacity}");
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(g, ring(300), "aborted run must not write back");
    }

    /// [`try_mix_resumable`] without run-time controls; a run that ends
    /// short of its stop rule surfaces as [`MixReport::budget_error`].
    fn mix(
        graph: &mut EdgeList,
        stop: StopRule,
        budget: &MixingBudget,
        seed: u64,
    ) -> Result<SwapStats, GenError> {
        let report = try_mix_resumable(
            graph,
            stop,
            budget,
            seed,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )?;
        match report.outcome {
            MixOutcome::Completed => Ok(report.stats),
            _ => Err(report.budget_error(budget)),
        }
    }

    /// A converged rule small enough for unit-test fixtures.
    const QUICK: StopRule = StopRule::Converged {
        min_ess: 8,
        window: 16,
    };

    #[test]
    fn watchdog_reports_accurate_sweep_counts() {
        // The 2-edge path can never swap (one pairing recreates the same
        // edges, the other makes a self loop), so its observable series
        // stay constant and the converged rule runs the full budget —
        // deterministically.
        let mut g = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let err = mix(&mut g, QUICK, &MixingBudget::sweeps(3), 9)
            .expect_err("an unswappable graph cannot mix");
        match err {
            GenError::MixingBudgetExceeded {
                sweeps_completed,
                max_sweeps,
                ever_swapped_fraction,
                wall_clock_exceeded,
                ..
            } => {
                assert_eq!(sweeps_completed, 3);
                assert_eq!(max_sweeps, 3);
                assert_eq!(ever_swapped_fraction, 0.0);
                assert!(!wall_clock_exceeded);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn watchdog_wall_clock_deadline_fires() {
        let mut g = ring(400);
        let budget = MixingBudget {
            max_sweeps: 1000,
            max_wall: Some(std::time::Duration::ZERO),
        };
        let err = mix(&mut g, StopRule::FixedSweeps, &budget, 3)
            .expect_err("an already-expired deadline must fail");
        match err {
            GenError::MixingBudgetExceeded {
                sweeps_completed,
                wall_clock_exceeded,
                ..
            } => {
                assert_eq!(sweeps_completed, 0);
                assert!(wall_clock_exceeded);
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(g, ring(400), "no sweep ran, so the graph is unchanged");
    }

    #[test]
    fn trivial_graphs_are_trivially_mixed() {
        let mut g = EdgeList::from_pairs([(0, 1)]);
        let stats =
            mix(&mut g, QUICK, &MixingBudget::sweeps(5), 1).expect("m < 2 has nothing to mix");
        assert_eq!(stats.total_successful(), 0);
    }

    #[test]
    fn converged_rule_stops_before_the_cap() {
        let mut g = ring(400);
        let stats = mix(&mut g, QUICK, &MixingBudget::sweeps(200), 3).expect("converges");
        let used = stats.iterations.len();
        assert!(
            (16..200).contains(&used),
            "should stop well before the cap, used {used}"
        );
        assert!(g.is_simple());
    }

    #[test]
    fn converged_rule_simplifies_first() {
        let dist = DegreeDistribution::from_pairs(vec![(1, 80), (2, 30), (20, 4)]).unwrap();
        let mut g = generators::chung_lu_om(&dist, 5);
        assert!(!g.is_simple(), "fixture should start non-simple");
        let stats = mix(&mut g, QUICK, &MixingBudget::sweeps(200), 9).expect("converges");
        let last = stats.iterations.last().unwrap();
        assert_eq!(last.self_loops + last.multi_edges, 0);
        assert!(g.is_simple());
    }

    #[test]
    fn violations_never_increase() {
        // Simplicity violations are monotonically non-increasing across
        // sweeps: the table rejects any swap that would create a duplicate,
        // and self loops are rejected outright.
        let dist = DegreeDistribution::from_pairs(vec![(1, 60), (2, 30), (30, 4)]).unwrap();
        let mut g = generators::chung_lu_om(&dist, 11);
        let mut cfg = SwapConfig::new(25, 13);
        cfg.track_violations = true;
        let stats = swap_edges(&mut g, &cfg);
        let totals: Vec<u64> = stats
            .iterations
            .iter()
            .map(|it| it.self_loops + it.multi_edges)
            .collect();
        for w in totals.windows(2) {
            assert!(w[1] <= w[0], "violations increased: {totals:?}");
        }
    }

    #[test]
    fn interrupt_checkpoint_resume_is_byte_identical() {
        let budget = MixingBudget::sweeps(12);
        let mut want = ring(300);
        let want_report = try_mix_resumable(
            &mut want,
            StopRule::FixedSweeps,
            &budget,
            21,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("reference run");
        assert_eq!(want_report.outcome, MixOutcome::Completed);
        assert!(want_report.checkpoint.is_none());

        // Interrupt after 4 sweeps via a self-raised flag in the sink.
        use std::sync::atomic::AtomicBool;
        let flag = AtomicBool::new(false);
        let mut seen = 0u64;
        let mut sink = |st: &MixState| {
            seen = st.completed_sweeps;
            if st.completed_sweeps >= 4 {
                flag.store(true, Ordering::Release);
            }
            Ok(())
        };
        let mut ctl = MixControl {
            interrupt: Some(&flag),
            policy: Some(CheckpointPolicy::sweeps(1)),
            sink: Some(&mut sink),
        };
        let mut got = ring(300);
        let report = try_mix_resumable(
            &mut got,
            StopRule::FixedSweeps,
            &budget,
            21,
            &mut ctl,
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("interrupted run");
        assert_eq!(report.outcome, MixOutcome::Interrupted);
        let state = report.checkpoint.expect("interrupted runs carry state");
        assert_eq!(state.completed_sweeps, 4);
        assert_eq!(state.sweep_budget, 12);

        let (resumed, final_report) = resume_from(
            &state,
            &budget,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("resume");
        assert_eq!(final_report.outcome, MixOutcome::Completed);
        assert_eq!(resumed, want, "resumed graph must be byte-identical");
        assert_eq!(
            final_report.stats.iterations, want_report.stats.iterations,
            "stitched per-sweep stats must match the uninterrupted run"
        );
    }

    #[test]
    fn budget_exhaustion_checkpoint_resumes_to_same_result() {
        let mut want = ring(200);
        let want_stats = mix(&mut want, QUICK, &MixingBudget::sweeps(200), 5).expect("ref");
        let needed = want_stats.iterations.len();
        assert!(needed > 1, "fixture must take several sweeps to mix");

        // Starve the first run, then resume under a sufficient budget.
        let mut got = ring(200);
        let report = try_mix_resumable(
            &mut got,
            QUICK,
            &MixingBudget::sweeps(1),
            5,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("starved run still returns a report");
        assert_eq!(report.outcome, MixOutcome::BudgetExhausted);
        assert_eq!(report.budget_error(&MixingBudget::sweeps(1)).exit_code(), 7);
        let state = report.checkpoint.expect("exhausted runs carry state");
        assert_eq!(state.completed_sweeps, 1);
        let (resumed, final_report) = resume_from(
            &state,
            &MixingBudget::sweeps(200),
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("resume");
        assert_eq!(final_report.outcome, MixOutcome::Completed);
        assert_eq!(resumed, want);
        assert_eq!(final_report.stats.iterations.len(), needed);
    }

    #[test]
    fn resume_rejects_inconsistent_state() {
        let state = MixState {
            num_vertices: 3,
            edges: vec![Edge::new(0, 1), Edge::new(1, 2)],
            swapped: vec![false],
            completed_sweeps: 0,
            seed: 1,
            sweep_budget: 5,
            stop: StopRule::FixedSweeps,
            track_violations: false,
            track_diagnostics: false,
            iterations: Vec::new(),
        };
        let err = resume_from(
            &state,
            &MixingBudget::sweeps(5),
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect_err("flag/edge length mismatch must be rejected");
        assert_eq!(err.error_code(), "bad_input");
    }

    #[test]
    fn resume_past_budget_completes_fixed_sweep_runs_without_work() {
        let mut g = ring(50);
        let report = try_mix_resumable(
            &mut g,
            StopRule::FixedSweeps,
            &MixingBudget::sweeps(3),
            2,
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("run");
        assert_eq!(report.outcome, MixOutcome::Completed);
        // Re-running a finished trajectory (same absolute cap) is a no-op.
        let mut interrupted = ring(50);
        let int_report = {
            let flag = std::sync::atomic::AtomicBool::new(true);
            let mut ctl = MixControl {
                interrupt: Some(&flag),
                policy: None,
                sink: None,
            };
            try_mix_resumable(
                &mut interrupted,
                StopRule::FixedSweeps,
                &MixingBudget::sweeps(3),
                2,
                &mut ctl,
                &mut SwapWorkspace::new(),
                &RecoveryPolicy::default(),
            )
            .expect("interrupted before the first sweep")
        };
        assert_eq!(int_report.outcome, MixOutcome::Interrupted);
        let state = int_report.checkpoint.expect("state");
        assert_eq!(state.completed_sweeps, 0);
        let (resumed, rep) = resume_from(
            &state,
            &MixingBudget::sweeps(3),
            &mut MixControl::none(),
            &mut SwapWorkspace::new(),
            &RecoveryPolicy::default(),
        )
        .expect("resume");
        assert_eq!(rep.outcome, MixOutcome::Completed);
        assert_eq!(resumed, g);
    }

    #[test]
    fn fault_log_capacity_honored_by_recovery() {
        let cfg = SwapConfig::new(4, 77);
        let mut got = ring(300);
        let mut ws = SwapWorkspace::with_table_capacity(16);
        let policy = RecoveryPolicy {
            event_capacity: 1,
            ..RecoveryPolicy::default()
        };
        let stats = try_swap_edges_with_workspace(&mut got, &cfg, &mut ws, &policy)
            .expect("grow-and-retry should recover");
        assert!(stats.events.len() <= 1);
        assert!(
            stats.events.total_recorded() > stats.events.len() as u64,
            "evictions must be counted, log: {:?}",
            stats.events
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_swaps_preserve_degrees_and_simplicity(
            degs in proptest_lite::collection::vec(0u32..8, 4..40),
            seed in any::<u64>()
        ) {
            let seq = graphcore::DegreeSequence::new(degs);
            prop_assume!(seq.is_graphical());
            let Some(start) = generators::havel_hakimi_sequence(&seq) else {
                unreachable!("graphical sequences always realize");
            };
            let mut g = start;
            swap_edges(&mut g, &SwapConfig::new(3, seed));
            prop_assert!(g.is_simple());
            prop_assert_eq!(g.degree_sequence(), seq);
        }
    }
}
