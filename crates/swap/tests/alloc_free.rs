//! Counting-allocator proof that the sweep loop is allocation-free in the
//! steady state: once a [`swap::SwapWorkspace`] has grown to the run size,
//! adding sweeps to a run adds **zero** heap allocations (serial path,
//! strict equality) and at most a small constant per sweep on the parallel
//! path (rayon pool plumbing, if any).

use graphcore::EdgeList;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use swap::{try_swap_edges, SwapGraph, SwapWorkspace};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by the current thread. `const`-initialized and
    /// without a destructor, so the allocator can update it without
    /// allocating.
    static THREAD_ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOC_CALLS.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn ring(n: u32) -> EdgeList {
    EdgeList::from_pairs((0..n).map(|i| (i, (i + 1) % n)))
}

/// A fixed-sweep run over `ws`, on whichever kernel it selects.
fn run<G: SwapGraph>(graph: &mut G, sweeps: usize, seed: u64, ws: &mut SwapWorkspace<G::Edge>) {
    try_swap_edges(graph, sweeps, seed, ws).expect("fixed-sweep run");
}

/// A workspace on the serial kernel.
fn serial_ws<E: swap::SwapEdge>() -> SwapWorkspace<E> {
    let mut ws = SwapWorkspace::new();
    ws.set_serial(true);
    ws
}

/// Allocations made by every thread while `f` runs. The parallel path may
/// allocate on pool threads, so its tests read this count; it also picks
/// up the test harness's own threads, which is why those tests bound the
/// per-sweep growth instead of asserting equality.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    f();
    ALLOC_CALLS.load(Ordering::Relaxed) - before
}

/// Allocations made by the calling thread while `f` runs. The serial path
/// runs wholly on the calling thread, so this is every allocation it makes
/// and none of another thread's.
fn thread_allocs_during(f: impl FnOnce()) -> u64 {
    let before = THREAD_ALLOC_CALLS.with(Cell::get);
    f();
    THREAD_ALLOC_CALLS.with(Cell::get) - before
}

/// [`ALLOC_CALLS`] is process-global, so concurrently running tests would
/// bleed allocations into each other's measurement windows; every test holds
/// this lock for its whole body.
static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs with 5 and 50 sweeps over a warmed workspace must perform the SAME
/// number of allocations (the per-run constant: the returned stats buffer).
/// Any per-sweep allocation would scale with the sweep count and break the
/// equality.
#[test]
fn serial_sweeps_allocate_nothing_in_steady_state() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let mut ws = serial_ws();
    // Warm-up grows every buffer and table to the run size.
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "sweep count changed the allocation count: 5 sweeps -> {a5} allocs, \
         50 sweeps -> {a50} allocs (steady state must be allocation-free)"
    );
    // The per-run constant itself is tiny (stats buffer + iteration vec).
    assert!(a5 <= 4, "per-run allocation constant too high: {a5}");
}

/// Parallel path: identical budget on a sequential pool; on a real
/// multi-thread pool any rayon-internal allocation must stay O(1) per
/// sweep, far below the former per-sweep buffers.
#[test]
fn parallel_sweeps_allocation_bounded() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let mut ws = SwapWorkspace::new();
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    let per_sweep = (a50.saturating_sub(a5)) as f64 / 45.0;
    assert!(
        per_sweep <= 8.0,
        "parallel path allocates {per_sweep:.1} times per sweep \
         (5 sweeps -> {a5}, 50 sweeps -> {a50})"
    );
}

/// An attached metrics registry must not cost the sweep loop a single
/// allocation: tallies are relaxed atomic adds into pre-existing counters,
/// and the per-sweep cause scan reads the resident proposal buffer. This
/// holds with the `metrics` feature on OR off — disabled, the registry is a
/// set of zero-sized no-ops and the question is moot.
#[test]
fn metrics_attached_sweeps_allocate_nothing_in_steady_state() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let metrics = std::sync::Arc::new(obs::Metrics::default());
    let mut ws = serial_ws();
    ws.set_metrics(Some(metrics.clone()));
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "metrics tallying allocated per sweep: 5 sweeps -> {a5} allocs, \
         50 sweeps -> {a50} allocs"
    );
    assert!(a5 <= 4, "per-run allocation constant too high: {a5}");
    // And the counters were genuinely live while we measured.
    #[cfg(feature = "metrics")]
    assert_eq!(metrics.snapshot().swap_sweeps, 2 + 5 + 50);
}

/// The sharded two-phase sweep keeps the steady state allocation-free at
/// any shard count: the per-shard tables, the claim-key slab, and the
/// scatter scratch are all workspace-resident, so re-sharding moves where
/// keys live but never puts an allocation on the sweep path.
#[test]
fn sharded_sweeps_allocate_nothing_in_steady_state() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    for shards in [1usize, 8, 32] {
        let mut ws = SwapWorkspace::with_shards(shards);
        ws.set_serial(true);
        let mut warm = ring(N);
        run(&mut warm, 2, 1, &mut ws);

        let mut g5 = ring(N);
        let mut g50 = ring(N);
        let a5 = thread_allocs_during(|| {
            run(&mut g5, 5, 42, &mut ws);
        });
        let a50 = thread_allocs_during(|| {
            run(&mut g50, 50, 42, &mut ws);
        });
        assert_eq!(
            a5, a50,
            "{shards} shards: sweep count changed the allocation count \
             (5 sweeps -> {a5}, 50 sweeps -> {a50})"
        );
        assert!(
            a5 <= 4,
            "{shards} shards: per-run allocation constant too high: {a5}"
        );
    }
}

/// Same bound on the parallel two-phase path: the scatter's count/prefix
/// passes and the bulk per-shard claim phase run entirely out of
/// workspace-resident scratch.
#[test]
fn sharded_parallel_sweeps_allocation_bounded() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let mut ws = SwapWorkspace::with_shards(8);
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    let per_sweep = (a50.saturating_sub(a5)) as f64 / 45.0;
    assert!(
        per_sweep <= 8.0,
        "sharded parallel path allocates {per_sweep:.1} times per sweep \
         (5 sweeps -> {a5}, 50 sweeps -> {a50})"
    );
}

/// Re-sharding an existing workspace rebuilds tables once (on the next
/// prepare), after which sweeps are steady-state allocation-free again.
#[test]
fn reshard_rebuild_is_per_reconfigure_not_per_sweep() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let mut ws = serial_ws();
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    // Change the shard count: the very next run pays the rebuild...
    ws.set_shards(4);
    let mut rebuilt = ring(N);
    run(&mut rebuilt, 2, 1, &mut ws);

    // ...and runs after it are back to the per-run constant.
    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "post-reshard sweeps must be allocation-free: \
         5 sweeps -> {a5}, 50 sweeps -> {a50}"
    );
}

/// Violation tracking allocates only its one-time census, not per sweep.
/// The input has a repeated edge and a self loop, so the runs track their
/// violations without being asked to.
#[test]
fn violation_tracking_census_is_per_run_not_per_sweep() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    let mut edges: Vec<(u32, u32)> = (0..1000).map(|i| (i, (i + 1) % 1000)).collect();
    edges.push((0, 1));
    edges.push((7, 7));
    let mut ws = serial_ws();
    let mut warm = EdgeList::from_pairs(edges.clone());
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = EdgeList::from_pairs(edges.clone());
    let mut g50 = EdgeList::from_pairs(edges);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "violation tracking must not allocate per sweep: \
         5 sweeps -> {a5}, 50 sweeps -> {a50}"
    );
}

/// Every key-width layout — the packed single-word tables (32- and 64-bit
/// entries) as well as the forced wide fallback — must hold the same
/// steady-state zero-allocation bound. The default `Auto` width already
/// resolves these 2k-vertex rings to the 32-bit packed layout in the tests
/// above; this pins the other layouts explicitly, including the
/// prefetch-batched register/propose/claim/commit loops whose batch
/// buffers are stack arrays, never heap.
#[test]
fn every_key_width_sweeps_allocation_free_in_steady_state() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    use swap::KeyWidth;
    for width in [KeyWidth::W32, KeyWidth::W64, KeyWidth::Wide] {
        let mut ws = SwapWorkspace::with_key_width(width);
        ws.set_serial(true);
        let mut warm = ring(N);
        run(&mut warm, 2, 1, &mut ws);

        let mut g5 = ring(N);
        let mut g50 = ring(N);
        let a5 = thread_allocs_during(|| {
            run(&mut g5, 5, 42, &mut ws);
        });
        let a50 = thread_allocs_during(|| {
            run(&mut g50, 50, 42, &mut ws);
        });
        assert_eq!(
            a5, a50,
            "{width}: sweep count changed the allocation count \
             (5 sweeps -> {a5}, 50 sweeps -> {a50})"
        );
        assert!(
            a5 <= 4,
            "{width}: per-run allocation constant too high: {a5}"
        );
    }
}

/// Switching the key width on a reused workspace rebuilds the tables once
/// (on the next prepare) — like re-sharding, it must never put the rebuild
/// on the per-sweep path.
#[test]
fn key_width_switch_rebuild_is_per_reconfigure_not_per_sweep() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    use swap::KeyWidth;
    let mut ws = serial_ws();
    let mut warm = ring(N);
    run(&mut warm, 2, 1, &mut ws);

    // Force the wide layout: the very next run pays the rebuild...
    ws.set_key_width(KeyWidth::Wide);
    let mut rebuilt = ring(N);
    run(&mut rebuilt, 2, 1, &mut ws);

    // ...and runs after it are back to the per-run constant.
    let mut g5 = ring(N);
    let mut g50 = ring(N);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "post-width-switch sweeps must be allocation-free: \
         5 sweeps -> {a5}, 50 sweeps -> {a50}"
    );
}

/// A ring digraph `i → i+1`.
fn directed_ring(n: u32) -> directed::DiEdgeList {
    directed::DiEdgeList::from_edges(
        n as usize,
        (0..n)
            .map(|i| directed::DiEdge::new(i, (i + 1) % n))
            .collect(),
    )
}

/// Directed mixing runs the same kernel over a directed workspace: once it
/// has grown, sweeps allocate nothing (serial path, strict equality) and at
/// most a small constant per sweep on the parallel path.
#[test]
fn directed_sweeps_allocate_nothing_in_steady_state() {
    let _serialized = MEASURE_LOCK.lock().unwrap();
    const N: u32 = 2_000;
    let mut ws = serial_ws::<directed::DiEdge>();
    let mut warm = directed_ring(N);
    run(&mut warm, 2, 1, &mut ws);

    let mut g5 = directed_ring(N);
    let mut g50 = directed_ring(N);
    let a5 = thread_allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let a50 = thread_allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    assert_eq!(
        a5, a50,
        "directed: sweep count changed the allocation count \
         (5 sweeps -> {a5}, 50 sweeps -> {a50})"
    );
    assert!(
        a5 <= 4,
        "directed: per-run allocation constant too high: {a5}"
    );

    ws.set_serial(false);
    let mut g5 = directed_ring(N);
    let mut g50 = directed_ring(N);
    let p5 = allocs_during(|| {
        run(&mut g5, 5, 42, &mut ws);
    });
    let p50 = allocs_during(|| {
        run(&mut g50, 50, 42, &mut ws);
    });
    let per_sweep = (p50.saturating_sub(p5)) as f64 / 45.0;
    assert!(
        per_sweep <= 8.0,
        "directed parallel path allocates {per_sweep:.1} times per sweep \
         (5 sweeps -> {p5}, 50 sweeps -> {p50})"
    );
}
