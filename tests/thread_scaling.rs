//! Thread-scaling contract for the sharded two-phase sweep: the swap
//! kernel's output is a pure function of (edge list, seed), so pool size,
//! shard count, scatter layout, and recovery history may change *when* work
//! happens but never *what* is produced. Every test here pins the parallel
//! result byte-for-byte against the serial reference while varying exactly
//! one scheduling lever at a time:
//!
//! * rayon pool size (1 / 2 / 8 / 16 threads),
//! * table shard count ([`SwapWorkspace::with_shards`]),
//! * the edge encoding (undirected graphs and digraphs share the kernel,
//!   directed runs also across table key widths),
//! * interrupt → checkpoint → resume cuts (PR 5's durable wire format),
//! * grow-and-retry recovery over undersized sharded tables (PR 3).
//!
//! The companion throughput story (same levers, wall-clock instead of
//! bytes) is the bench thread sweep in `crates/bench` — see EXPERIMENTS.md.

use directed::{swap_directed_edges, DiEdge, DiEdgeList, DirectedSwapConfig};
use graphcore::{DegreeDistribution, EdgeList};
use std::sync::atomic::{AtomicBool, Ordering};
use swap::{
    try_swap_edges, CheckpointPolicy, KeyWidth, MixControl, MixOutcome, MixState, MixingBudget,
    RecoveryPolicy, StopRule, SwapStats, SwapWorkspace,
};

fn dist() -> DegreeDistribution {
    DegreeDistribution::from_pairs(vec![(1, 400), (2, 160), (3, 60), (7, 16), (15, 4)]).unwrap()
}

fn seed_graph() -> EdgeList {
    generators::havel_hakimi(&dist()).unwrap()
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build pool")
}

fn serialize(graph: &EdgeList) -> Vec<u8> {
    let mut buf = Vec::new();
    graphcore::io::write_edge_list(graph, &mut buf).expect("in-memory write");
    buf
}

/// A fresh workspace on the serial reference kernel.
fn serial_ws<E: swap::SwapEdge>() -> SwapWorkspace<E> {
    let mut ws = SwapWorkspace::new();
    ws.set_serial(true);
    ws
}

/// One parallel swap run on a given pool size with a given workspace.
fn run_on(threads: usize, (sweeps, seed): (usize, u64), ws: &mut SwapWorkspace) -> (Vec<u8>, u64) {
    pool(threads).install(|| {
        let mut g = seed_graph();
        let stats = try_swap_edges(&mut g, sweeps, seed, ws).expect("fixed-sweep run");
        (serialize(&g), stats.total_successful())
    })
}

#[test]
fn sweep_is_byte_identical_across_pool_sizes() {
    let cfg = (8, 0x5CA1E);
    let mut serial = seed_graph();
    let serial_stats = try_swap_edges(&mut serial, cfg.0, cfg.1, &mut serial_ws()).unwrap();
    let want = (serialize(&serial), serial_stats.total_successful());
    for threads in [1usize, 2, 8, 16] {
        let got = run_on(threads, cfg, &mut SwapWorkspace::new());
        assert_eq!(
            got, want,
            "{threads}-thread sharded sweep diverged from the serial reference"
        );
    }
}

#[test]
fn sweep_is_byte_identical_across_shard_counts() {
    // The claim reduction is a commutative minimum per key, so the shard
    // count — like the pool size — is a pure performance lever.
    let cfg = (8, 0xBEEF);
    let want = run_on(2, cfg, &mut SwapWorkspace::new());
    for shards in [1usize, 2, 3, 16, 64] {
        let got = run_on(2, cfg, &mut SwapWorkspace::with_shards(shards));
        assert_eq!(got, want, "{shards}-shard sweep diverged from the default");
    }
}

#[test]
fn shard_count_and_pool_size_compose() {
    // Vary both levers at once: every (threads, shards) cell of the grid
    // must land on the same bytes.
    let cfg = (5, 0x0DDBA11);
    let want = run_on(1, cfg, &mut SwapWorkspace::new());
    for threads in [2usize, 8, 16] {
        for shards in [1usize, 4, 32] {
            let got = run_on(threads, cfg, &mut SwapWorkspace::with_shards(shards));
            assert_eq!(got, want, "({threads} threads, {shards} shards) diverged");
        }
    }
}

#[test]
fn reused_workspace_survives_shard_count_changes() {
    // set_shards between runs rebuilds the tables lazily; results must not
    // depend on what shard count the workspace used before.
    let cfg = (6, 77);
    let want = run_on(2, cfg, &mut SwapWorkspace::new());
    let mut ws = SwapWorkspace::new();
    for shards in [1usize, 16, 2, 0, 8] {
        ws.set_shards(shards);
        let got = run_on(2, cfg, &mut ws);
        assert_eq!(got, want, "reused workspace diverged at {shards} shards");
    }
}

/// Interrupt a fixed-sweep mixing run after `cut` sweeps and return the
/// captured checkpoint state.
fn interrupt_after(n_sweeps: usize, seed: u64, cut: u64, ws: &mut SwapWorkspace) -> MixState {
    let stop_flag = AtomicBool::new(false);
    let mut seen = 0u64;
    let mut captured: Option<MixState> = None;
    let mut sink = |state: &MixState| {
        seen += 1;
        if seen >= cut {
            stop_flag.store(true, Ordering::Release);
        }
        captured = Some(state.clone());
        Ok(())
    };
    let mut ctl = MixControl {
        interrupt: Some(&stop_flag),
        policy: Some(CheckpointPolicy::sweeps(1)),
        sink: Some(&mut sink),
    };
    let mut graph = seed_graph();
    let report = swap::try_mix_resumable(
        &mut graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(n_sweeps),
        seed,
        &mut ctl,
        ws,
        &RecoveryPolicy::default(),
    )
    .expect("interrupted run");
    assert_eq!(report.outcome, MixOutcome::Interrupted);
    report.checkpoint.expect("interrupted run must checkpoint")
}

#[test]
fn checkpoint_resume_is_byte_identical_across_pools_and_shards() {
    // PR 5's crash-consistency contract must hold on the sharded two-phase
    // path: interrupt on one (pool, shards) configuration, resume on a
    // *different* one, and still land on the uninterrupted reference.
    let (sweeps, seed, cut) = (10usize, 0xC0FFEE_u64, 3u64);
    let mut ref_graph = seed_graph();
    let ref_report = swap::try_mix_resumable(
        &mut ref_graph,
        StopRule::FixedSweeps,
        &MixingBudget::sweeps(sweeps),
        seed,
        &mut MixControl::none(),
        &mut SwapWorkspace::new(),
        &RecoveryPolicy::default(),
    )
    .expect("reference run");
    assert_eq!(ref_report.outcome, MixOutcome::Completed);
    let ref_bytes = serialize(&ref_graph);

    for (cut_threads, cut_shards, resume_threads, resume_shards) in [
        (1usize, 1usize, 8usize, 16usize),
        (8, 16, 1, 1),
        (2, 4, 16, 2),
    ] {
        let state = pool(cut_threads).install(|| {
            interrupt_after(
                sweeps,
                seed,
                cut,
                &mut SwapWorkspace::with_shards(cut_shards),
            )
        });

        // Round-trip through the durable format, as a post-crash process
        // would read it back.
        let snap = ckpt::Snapshot::without_counters(state);
        let bytes = ckpt::codec::encode(&snap);
        let loaded = ckpt::codec::decode(&bytes, "thread_scaling.ckpt").expect("decode checkpoint");
        assert_eq!(loaded, snap, "wire round trip must be lossless");

        let (resumed_graph, report) = pool(resume_threads).install(|| {
            swap::resume_from(
                &loaded.state,
                &MixingBudget::sweeps(sweeps),
                &mut MixControl::none(),
                &mut SwapWorkspace::with_shards(resume_shards),
                &RecoveryPolicy::default(),
            )
            .expect("resume")
        });
        assert_eq!(report.outcome, MixOutcome::Completed);
        assert_eq!(
            serialize(&resumed_graph),
            ref_bytes,
            "cut on ({cut_threads}t,{cut_shards}s), resumed on \
             ({resume_threads}t,{resume_shards}s): bytes diverged"
        );
        assert_eq!(
            report.stats.iterations, ref_report.stats.iterations,
            "stitched per-sweep stats must equal the uninterrupted run's"
        );
    }
}

/// A fixed-sweep driver run under an explicit recovery policy.
fn fixed_with_policy(
    g: &mut EdgeList,
    (sweeps, seed): (usize, u64),
    ws: &mut SwapWorkspace,
    policy: &RecoveryPolicy,
) -> Result<SwapStats, swap::GenError> {
    let budget = MixingBudget::sweeps(sweeps);
    let mut ctl = MixControl::none();
    let report = swap::try_mix_resumable(
        g,
        StopRule::FixedSweeps,
        &budget,
        seed,
        &mut ctl,
        ws,
        policy,
    )?;
    Ok(report.stats)
}

#[test]
fn grow_and_retry_on_sharded_tables_is_byte_identical() {
    // PR 3's recovery contract on the sharded path: a workspace pinned far
    // below the run's edge count overflows a shard, the policy doubles the
    // tables and replays, and the recovered run matches a correctly-sized
    // one on every pool size and shard count.
    let cfg = (6, 0xFEED);
    let want = run_on(1, cfg, &mut SwapWorkspace::new());
    for threads in [1usize, 2, 8] {
        for shards in [1usize, 4, 16] {
            let (bytes, swaps, events) = pool(threads).install(|| {
                let mut ws = SwapWorkspace::with_table_capacity(8);
                ws.set_shards(shards);
                let mut g = seed_graph();
                let stats = fixed_with_policy(
                    &mut g,
                    cfg,
                    &mut ws,
                    // Pinned at 8 keys the tables need ~7 doublings to fit
                    // the run, beyond the default grow budget of 4.
                    &RecoveryPolicy {
                        max_grows: 10,
                        ..RecoveryPolicy::default()
                    },
                )
                .expect("grow-and-retry recovers");
                (serialize(&g), stats.total_successful(), stats.events.len())
            });
            assert_eq!(
                (bytes, swaps),
                want.clone(),
                "({threads} threads, {shards} shards) recovery diverged"
            );
            assert!(
                events > 0,
                "undersized tables must actually exercise recovery \
                 ({threads} threads, {shards} shards)"
            );
        }
    }
}

#[test]
fn grow_and_retry_failure_reports_sharded_table_label() {
    // With recovery disabled, the typed error must name the sharded table
    // so operators can tell which structure overflowed.
    let err = fixed_with_policy(
        &mut seed_graph(),
        (4, 9),
        &mut SwapWorkspace::with_table_capacity(4),
        &RecoveryPolicy {
            max_grows: 0,
            serial_fallback: false,
            ..RecoveryPolicy::default()
        },
    )
    .expect_err("pinned-tiny tables without recovery must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("Sharded"),
        "error should name the sharded table, got: {msg}"
    );
}

/// The undirected fixture with a fixed orientation per edge: a simple
/// digraph with no antiparallel pairs to start from.
fn seed_digraph() -> DiEdgeList {
    let g = seed_graph();
    let edges = g
        .edges()
        .iter()
        .enumerate()
        .map(|(i, e)| {
            if i % 3 == 0 {
                DiEdge::new(e.v(), e.u())
            } else {
                DiEdge::new(e.u(), e.v())
            }
        })
        .collect();
    DiEdgeList::from_edges(g.num_vertices(), edges)
}

fn serialize_digraph(graph: &DiEdgeList) -> Vec<u8> {
    let mut buf = Vec::new();
    directed::io::write_diedge_list(graph, &mut buf).expect("in-memory write");
    buf
}

/// Directed mixing runs on the shared claim/commit kernel, so it inherits
/// the determinism contract: `swap_directed_edges`, the driver's
/// fixed-sweep shorthand and the serial kernel give the same bytes on every
/// pool size, and so does every shard count and key width of a
/// caller-owned directed workspace.
#[test]
fn directed_sweep_is_byte_identical_across_pools_shards_and_key_widths() {
    let (sweeps, seed) = (8, 0xD1_5CA1E);
    let mut serial = seed_digraph();
    let serial_stats = try_swap_edges(&mut serial, sweeps, seed, &mut serial_ws()).unwrap();
    let want = (serialize_digraph(&serial), serial_stats.total_successful());
    assert!(want.1 > 0, "fixture must accept swaps");
    assert_ne!(
        want.0,
        serialize_digraph(&seed_digraph()),
        "fixture must move"
    );
    for threads in [1usize, 2, 8] {
        let got = pool(threads).install(|| {
            let mut g = seed_digraph();
            let stats = swap_directed_edges(&mut g, &DirectedSwapConfig::new(sweeps, seed));
            (serialize_digraph(&g), stats.total())
        });
        assert!(got == want, "{threads}-thread directed run diverged");
        let got = pool(threads).install(|| {
            let mut g = seed_digraph();
            let stats = try_swap_edges(&mut g, sweeps, seed, &mut SwapWorkspace::new()).unwrap();
            (serialize_digraph(&g), stats.total_successful())
        });
        assert!(got == want, "{threads}-thread shorthand run diverged");
        for shards in [1usize, 4, 16] {
            for width in [KeyWidth::W32, KeyWidth::W64, KeyWidth::Wide] {
                for serial in [false, true] {
                    let got = pool(threads).install(|| {
                        let mut g = seed_digraph();
                        let mut ws = SwapWorkspace::<DiEdge>::with_shards(shards);
                        ws.set_key_width(width);
                        ws.set_serial(serial);
                        let stats = try_swap_edges(&mut g, sweeps, seed, &mut ws).unwrap();
                        (serialize_digraph(&g), stats.total_successful())
                    });
                    assert!(
                        got == want,
                        "{threads} threads x {shards} shards x {width} (serial {serial}): \
                         directed run diverged"
                    );
                }
            }
        }
    }
}
