//! Reusable per-run state for the swap kernel: the zero-allocation sweep
//! loop.
//!
//! Every sweep of the original loop heap-allocated a dart array and a
//! proposal buffer, and cleared two hash tables with full parallel fills
//! over their slot arrays — per-sweep cost proportional to table *capacity*
//! rather than to the work a sweep actually performs. A [`SwapWorkspace`]
//! owns all of that state across sweeps (and across runs): buffers are
//! grown once and reused, and the tables are the epoch-stamped variants
//! whose clear is an O(1) generation bump. In the steady state a sweep
//! performs **no heap allocation** (asserted by
//! `crates/swap/tests/alloc_free.rs`).
//!
//! Every run takes a workspace ([`crate::try_mix_resumable`], and its
//! fixed-sweep shorthand [`crate::try_swap_edges`]). Pass the same one to
//! successive runs — an ensemble, a retry loop, a statistical harness — so
//! they share one set of buffers; a fresh workspace gives the same bytes.
//!
//! A workspace also holds the run settings that never change output
//! bytes: the table shard count, the table key width, and whether sweeps
//! take the serial kernel ([`SwapWorkspace::set_serial`]) or the parallel
//! one.
//!
//! A workspace is typed by the edge encoding its runs use
//! ([`crate::SwapEdge`]): `SwapWorkspace` holds undirected edges, and
//! `SwapWorkspace<directed::DiEdge>` directed ones.

use crate::SwapEdge;
use conchash::{
    KeyWidth, KeyWidthError, ResolvedWidth, ShardedEpochHashMap, ShardedEpochHashSet,
    DEFAULT_SHARD_COUNT,
};
use graphcore::Edge;
use parutil::permute::PermuteScratch;
use parutil::ShardScatter;
use std::sync::Arc;

/// An edge plus a flag recording whether it has ever been produced by a
/// successful swap — the paper's empirical mixing criterion is "all edges
/// successfully swapped at least once".
#[derive(Clone, Copy, Debug)]
pub(crate) struct Slot<E = Edge> {
    pub(crate) edge: E,
    pub(crate) swapped: bool,
}

/// Outcome of proposing a swap for one adjacent pair of the permuted edge
/// list: accepted (pending the claim phase), or the reason the pair must
/// self-transition. An accepted pair's replacement keys sit in the
/// claim-key slab and its replacement edges are recomputed at commit (the
/// pair's slots cannot change in between), so an entry is a one-byte tag.
/// Carrying the cause (instead of a bare flag) lets an attached
/// [`obs::Metrics`] tally rejections by cause with one pass over the
/// proposal buffer — the proposal phase itself stays branch-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Proposal {
    /// The pair may rewire (pending the claim phase).
    Accept,
    /// Trailing singleton of an odd-length list: no partner to swap with.
    RejectSingleton,
    /// A replacement edge would be a self loop.
    RejectSelfLoop,
    /// Both replacement edges are the same edge.
    RejectDuplicate,
    /// A replacement edge already exists in the current edge set.
    RejectExists,
}

/// Reusable buffers and tables for swap runs. See the module docs.
///
/// A single workspace may serve runs of different sizes and configurations
/// back to back; buffers grow monotonically and the hash tables are
/// rebuilt only when a run needs more capacity (or a different shard count
/// or key width) than they were built with. Results are byte-identical
/// whether a run uses a fresh or a reused workspace.
pub struct SwapWorkspace<E = Edge> {
    /// Working copy of the edge list, permuted in place each sweep.
    pub(crate) slots: Vec<Slot<E>>,
    /// Dart array of the current sweep's permutation.
    pub(crate) darts: Vec<u32>,
    /// Per-pair swap proposals of the current sweep.
    pub(crate) proposals: Vec<Proposal>,
    /// Per-pair partner-choice bits of the current sweep, batch-filled
    /// before the proposal phase (`1` = cross pairing).
    pub(crate) sides: Vec<u8>,
    /// Replacement-edge keys of the current sweep's accepted proposals, two
    /// per pair (`EMPTY` for rejected pairs) — the input of the bulk claim
    /// scatter.
    pub(crate) claim_keys: Vec<u64>,
    /// Scratch for partitioning claim records by destination shard.
    pub(crate) scatter: ShardScatter,
    /// Scratch for the reservation-based parallel shuffle.
    pub(crate) permute: PermuteScratch,
    /// Edge-membership table of the current sweep (sharded, epoch-cleared).
    pub(crate) table: Option<ShardedEpochHashSet>,
    /// Minimum-index claim map for deterministic conflict resolution
    /// (sharded, epoch-cleared).
    pub(crate) claims: Option<ShardedEpochHashMap>,
    /// Shard count for the tables; `0` means [`DEFAULT_SHARD_COUNT`].
    /// Sharding never influences swap decisions (the claim reduction is a
    /// commutative minimum), so results are byte-identical across shard
    /// counts.
    pub(crate) shards: usize,
    /// Requested table key width (`--key-width`). Resolved against each
    /// run's vertex count; like sharding, the physical entry layout never
    /// influences swap decisions, so results are byte-identical across
    /// widths.
    pub(crate) key_width: KeyWidth,
    /// Layout the last run resolved to (`None` before any run). `prepare`
    /// rebuilds the tables when the resolution changes.
    pub(crate) resolved_width: Option<ResolvedWidth>,
    /// Run sweeps on the serial kernel (see [`SwapWorkspace::set_serial`]).
    pub(crate) serial: bool,
    /// Capacity the tables were created for (they are rebuilt when a run
    /// exceeds it).
    pub(crate) table_capacity: usize,
    /// When set, tables are built for exactly this many keys instead of the
    /// run's edge count — the fault-injection knob (undersized tables) and
    /// the lever the grow-and-retry policy pulls to recover from them.
    pub(crate) forced_capacity: Option<usize>,
    /// When attached, runs over this workspace tally sweep/proposal/reject
    /// counters and probe lengths into the shared registry. Instrumentation
    /// is read-only: attached or not, runs are byte-identical.
    pub(crate) metrics: Option<Arc<obs::Metrics>>,
}

impl<E> Default for SwapWorkspace<E> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            darts: Vec::new(),
            proposals: Vec::new(),
            sides: Vec::new(),
            claim_keys: Vec::new(),
            scatter: ShardScatter::default(),
            permute: PermuteScratch::default(),
            table: None,
            claims: None,
            shards: 0,
            key_width: KeyWidth::default(),
            resolved_width: None,
            serial: false,
            table_capacity: 0,
            forced_capacity: None,
            metrics: None,
        }
    }
}

impl<E: SwapEdge> SwapWorkspace<E> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for graphs of up to `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        let mut ws = Self::new();
        ws.prepare(m);
        ws
    }

    /// A workspace whose hash tables are pinned to exactly `keys` keys,
    /// regardless of the runs' edge counts.
    ///
    /// This is the fault-injection knob: pinning the capacity below a run's
    /// edge count guarantees the sweep's registration phase overflows the
    /// table, exercising the grow-and-retry recovery path (or, when
    /// recovery is disabled, a typed `table_full` error). The pin is
    /// released by the recovery's table grows, which double it past the
    /// need.
    pub fn with_table_capacity(keys: usize) -> Self {
        let mut ws = Self::new();
        ws.forced_capacity = Some(keys);
        ws
    }

    /// A workspace whose tables are split into exactly `shards` shards
    /// (`0` restores the default, [`DEFAULT_SHARD_COUNT`]).
    ///
    /// The shard count is a pure performance lever: claim/commit outcomes
    /// are a commutative minimum per key, so any shard count produces the
    /// same byte-identical result (asserted by `tests/thread_scaling.rs`).
    pub fn with_shards(shards: usize) -> Self {
        let mut ws = Self::new();
        ws.set_shards(shards);
        ws
    }

    /// Change the shard count for subsequent runs; `0` restores the
    /// default. Tables are rebuilt on the next run if the count changed.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
    }

    /// A workspace whose tables use the given key width (default
    /// [`KeyWidth::Auto`]: the narrowest packed layout the run's vertex
    /// count fits, wide fallback).
    ///
    /// Like the shard count, the key width is a pure performance lever —
    /// probe sequences are derived from the full 64-bit key under every
    /// layout, so results are byte-identical across widths. A *forced*
    /// packed width that cannot hold a run's vertex ids fails that run
    /// with a typed `bad_input` error rather than truncating.
    pub fn with_key_width(width: KeyWidth) -> Self {
        let mut ws = Self::new();
        ws.set_key_width(width);
        ws
    }

    /// Change the requested key width for subsequent runs. Tables are
    /// rebuilt on the next run if the resolved layout changes.
    pub fn set_key_width(&mut self, width: KeyWidth) {
        self.key_width = width;
    }

    /// The requested key width runs over this workspace use.
    pub fn key_width(&self) -> KeyWidth {
        self.key_width
    }

    /// Run subsequent sweeps on the serial reference kernel (`true`) or the
    /// parallel one (`false`, the default). Like the shard count and key
    /// width this never changes output bytes: the serial kernel makes the
    /// same decisions on the calling thread alone (asserted by
    /// `tests/thread_scaling.rs`). The grow-and-retry policy falls back to
    /// it on its own when the tables keep faulting.
    pub fn set_serial(&mut self, serial: bool) {
        self.serial = serial;
    }

    /// The physical layout the most recent run resolved to, if any.
    pub fn resolved_key_width(&self) -> Option<ResolvedWidth> {
        self.resolved_width
    }

    /// Resolve the requested width against a run's vertex count and record
    /// the outcome for the next [`SwapWorkspace::prepare`].
    pub(crate) fn resolve_width_for(&mut self, num_vertices: u64) -> Result<(), KeyWidthError> {
        self.resolved_width = Some(conchash::resolve_key_width(self.key_width, num_vertices)?);
        Ok(())
    }

    /// The shard count runs over this workspace use.
    pub fn shard_count(&self) -> usize {
        if self.shards == 0 {
            DEFAULT_SHARD_COUNT
        } else {
            self.shards
        }
    }

    /// Attach (or detach, with `None`) a metrics registry. Subsequent runs
    /// over this workspace count sweeps, proposals, accepts, rejections by
    /// cause, recovery events, and hash-table probe lengths into it.
    pub fn set_metrics(&mut self, metrics: Option<Arc<obs::Metrics>>) {
        self.metrics = metrics;
        let hist = self.metrics.as_ref().map(|m| m.probe_handle());
        if let Some(t) = &mut self.table {
            t.set_probe_histogram(hist.clone());
        }
        if let Some(c) = &mut self.claims {
            c.set_probe_histogram(hist);
        }
    }

    /// The metrics registry currently attached, if any.
    pub fn metrics(&self) -> Option<&Arc<obs::Metrics>> {
        self.metrics.as_ref()
    }

    /// Grow every buffer and table for a run over `m` edges. Idempotent and
    /// cheap when already large enough (the tables are epoch-cleared, not
    /// refilled).
    pub(crate) fn prepare(&mut self, m: usize) {
        let npairs = m / 2;
        self.darts.resize(m, 0);
        self.proposals
            .resize(m.div_ceil(2), Proposal::RejectSingleton);
        self.sides.resize(m.div_ceil(2), 0);
        self.claim_keys.resize(2 * npairs, conchash::EMPTY);
        self.scatter.reserve(2 * npairs, self.shard_count());
        self.permute.reserve(m);
        let want = self.forced_capacity.unwrap_or(m);
        let shards = self.shard_count();
        // Runs that never resolved a width (direct `prepare` callers) get
        // the always-valid wide layout.
        let width = self.resolved_width.unwrap_or(ResolvedWidth::Wide);
        let rebuild = match (&self.table, &self.claims) {
            (Some(t), Some(c)) => {
                let outgrown = match self.forced_capacity {
                    // A pinned capacity is honored exactly (even downward).
                    Some(cap) => cap != self.table_capacity,
                    None => m > self.table_capacity,
                };
                outgrown
                    || t.shard_count() != shards
                    || c.shard_count() != shards
                    || t.resolved_width() != width
                    || c.resolved_width() != width
            }
            _ => true,
        };
        if rebuild {
            // The edge table holds exactly the m current edges; the claim
            // map holds at most two replacement keys per pair (= m keys),
            // and at most one key per slot during the violation-tracking
            // registration (= m keys).
            let hist = self.metrics.as_ref().map(|m| m.probe_handle());
            let mut table = ShardedEpochHashSet::with_shards_width(want, shards, width);
            table.set_probe_histogram(hist.clone());
            let mut claims = ShardedEpochHashMap::with_shards_width(want, shards, width);
            claims.set_probe_histogram(hist);
            self.table = Some(table);
            self.claims = Some(claims);
            self.table_capacity = want;
        } else if let (Some(t), Some(c)) = (&self.table, &self.claims) {
            t.clear_shared();
            c.clear_shared();
        }
    }

    /// Load a run's edges into the slots, with the ever-swapped flags a
    /// previous segment carried over (all clear for a fresh run).
    pub(crate) fn load_slots(&mut self, edges: &[E], flags: Option<&[bool]>) {
        self.slots.clear();
        match flags {
            Some(flags) => {
                debug_assert_eq!(flags.len(), edges.len(), "flags must match the edges");
                let slots = edges.iter().zip(flags);
                self.slots
                    .extend(slots.map(|(&edge, &swapped)| Slot { edge, swapped }));
            }
            None => self.slots.extend(edges.iter().map(|&edge| Slot {
                edge,
                swapped: false,
            })),
        }
    }

    /// Double the table capacity (the grow half of grow-and-retry) and
    /// force a rebuild on the next [`SwapWorkspace::prepare`]. Returns the
    /// new key capacity. Table capacity never influences swap decisions, so
    /// a replayed run over grown tables is byte-identical to a run that was
    /// sized correctly from the start.
    pub(crate) fn grow_tables(&mut self) -> usize {
        let new_cap = self.table_capacity.max(1) * 2;
        self.forced_capacity = Some(new_cap);
        self.table = None;
        self.claims = None;
        new_cap
    }
}

impl<E> std::fmt::Debug for SwapWorkspace<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwapWorkspace")
            .field("slot_capacity", &self.slots.capacity())
            .field("table_capacity", &self.table_capacity)
            .finish()
    }
}
