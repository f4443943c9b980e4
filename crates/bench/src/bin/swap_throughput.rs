//! Per-sweep swap throughput, before/after the workspace refactor, plus a
//! thread-scaling sweep over the sharded two-phase path, emitted as
//! `BENCH_swap.json` (hand-rolled JSON, no serde).
//!
//! Two cost profiles are compared at each size, serial and parallel:
//!
//! * `fresh_per_sweep` — one [`swap::try_swap_edges`] call per sweep over a
//!   fresh [`swap::SwapWorkspace`], so every
//!   sweep rebuilds the workspace (table allocation + zeroed tag arrays +
//!   dart/proposal buffers). This reproduces the allocation profile of the
//!   pre-workspace loop, which paid those costs inside `run_until` on every
//!   iteration.
//! * `workspace_reuse` — one multi-sweep [`swap::try_swap_edges`] call
//!   over a pre-grown workspace: the steady-state zero-allocation path.
//!
//! The serial rows set [`swap::SwapWorkspace::set_serial`].
//!
//! Every result row records the rayon pool size it ran on (`threads`).
//! With `NULLGRAPH_THREAD_SWEEP` set, the binary additionally re-times the
//! steady-state parallel path on explicit pools of 1/2/4/8/16 threads
//! (`variant: "thread_sweep"` rows) and summarizes per-size parallel
//! efficiency in a `thread_scaling` section (speedup relative to the
//! 1-thread pool at the same size). Determinism across those pool sizes is
//! the *tested* contract (`tests/thread_scaling.rs`); this sweep is the
//! throughput half of the story.
//!
//! ```text
//! cargo run -p bench --release --bin swap_throughput
//! # NULLGRAPH_SWEEPS=4 NULLGRAPH_SWEEP_SIZES=10000 for a quick smoke run
//! # NULLGRAPH_THREAD_SWEEP=1        default 1,2,4,8,16 pool ladder
//! # NULLGRAPH_THREAD_SWEEP=1,2,8    explicit pool ladder
//! # NULLGRAPH_BENCH_OUT=/tmp/out.json to redirect the JSON
//! ```

use graphcore::EdgeList;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;
use swap::{try_swap_edges, SwapWorkspace};

fn ring(m: usize) -> EdgeList {
    EdgeList::from_pairs((0..m as u32).map(|i| (i, (i + 1) % m as u32)))
}

#[derive(Clone)]
struct Row {
    m: usize,
    mode: &'static str,    // serial | parallel
    variant: &'static str, // fresh_per_sweep | workspace_reuse | thread_sweep
    threads: usize,        // rayon pool size the row ran on
    sweeps: usize,
    secs_per_sweep: f64,
    edges_per_sec: f64,
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v >= 1)
        .unwrap_or(default)
}

fn sizes() -> Vec<usize> {
    match std::env::var("NULLGRAPH_SWEEP_SIZES") {
        Ok(v) => v
            .split(',')
            .filter_map(|s| s.trim().parse().ok())
            .filter(|&s| s >= 4)
            .collect(),
        Err(_) => vec![10_000, 100_000, 1_000_000],
    }
}

/// The pool ladder for the thread sweep: `None` when the sweep is off,
/// the default 1/2/4/8/16 ladder for `NULLGRAPH_THREAD_SWEEP=1` (or any
/// non-list value), an explicit ladder for a comma-separated list.
fn thread_sweep() -> Option<Vec<usize>> {
    let v = std::env::var("NULLGRAPH_THREAD_SWEEP").ok()?;
    let explicit: Vec<usize> = v
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&t| (1..=1024).contains(&t))
        .collect();
    if explicit.len() > 1 || explicit.first().is_some_and(|&t| t > 1) {
        Some(explicit)
    } else {
        Some(vec![1, 2, 4, 8, 16])
    }
}

/// Time `sweeps` single-sweep calls, each over a fresh workspace (the
/// pre-workspace cost profile).
fn run_fresh(base: &EdgeList, sweeps: usize, serial: bool) -> f64 {
    let mut g = base.clone();
    let t = Instant::now();
    for k in 0..sweeps {
        let mut ws = SwapWorkspace::new();
        ws.set_serial(serial);
        try_swap_edges(&mut g, 1, 0xBE9C_0000 + k as u64, &mut ws).expect("sweep");
    }
    t.elapsed().as_secs_f64() / sweeps as f64
}

/// Time one multi-sweep call over a pre-grown workspace (steady state).
fn run_reuse(base: &EdgeList, sweeps: usize, serial: bool, ws: &mut SwapWorkspace) -> f64 {
    let mut g = base.clone();
    ws.set_serial(serial);
    // Warm the workspace to this size outside the measurement.
    let mut warm = base.clone();
    try_swap_edges(&mut warm, 1, 0x3A3A, ws).expect("warm-up sweep");
    let t = Instant::now();
    try_swap_edges(&mut g, sweeps, 0xBE9C_0000, ws).expect("measured sweeps");
    t.elapsed().as_secs_f64() / sweeps as f64
}

fn main() {
    let sweeps = env_usize("NULLGRAPH_SWEEPS", 8);
    let ambient_threads = rayon::current_num_threads();
    let mut rows: Vec<Row> = Vec::new();
    // One registry across every measured configuration: atomic relaxed adds
    // are noise next to a sweep, and the aggregate snapshot (accept ratio,
    // reject causes, probe lengths) lands next to the throughput JSON.
    let metrics = Arc::new(obs::Metrics::default());

    for m in sizes() {
        let base = ring(m);
        let mut ws = SwapWorkspace::with_capacity(m);
        ws.set_metrics(Some(metrics.clone()));
        for (mode, serial) in [("serial", true), ("parallel", false)] {
            let fresh = run_fresh(&base, sweeps, serial);
            let reuse = run_reuse(&base, sweeps, serial, &mut ws);
            for (variant, secs) in [("fresh_per_sweep", fresh), ("workspace_reuse", reuse)] {
                println!(
                    "m={m:>9}  {mode:<8}  {variant:<16}  {:>10.3} ms/sweep  {:>12.0} edges/s",
                    secs * 1e3,
                    m as f64 / secs
                );
                rows.push(Row {
                    m,
                    mode,
                    variant,
                    threads: ambient_threads,
                    sweeps,
                    secs_per_sweep: secs,
                    edges_per_sec: m as f64 / secs,
                });
            }
            let speedup = fresh / reuse;
            println!("m={m:>9}  {mode:<8}  speedup {speedup:.2}x");
        }
    }

    // Thread sweep: the steady-state parallel path on explicit pools.
    if let Some(ladder) = thread_sweep() {
        for m in sizes() {
            let base = ring(m);
            for &t in &ladder {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .expect("build sweep pool");
                let mut ws = SwapWorkspace::with_capacity(m);
                ws.set_metrics(Some(metrics.clone()));
                let secs = pool.install(|| run_reuse(&base, sweeps, false, &mut ws));
                println!(
                    "m={m:>9}  parallel  thread_sweep t={t:<3}  {:>10.3} ms/sweep  \
                     {:>12.0} edges/s",
                    secs * 1e3,
                    m as f64 / secs
                );
                rows.push(Row {
                    m,
                    mode: "parallel",
                    variant: "thread_sweep",
                    threads: t,
                    sweeps,
                    secs_per_sweep: secs,
                    edges_per_sec: m as f64 / secs,
                });
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"bench\": \"swap_sweep_throughput\",");
    let _ = writeln!(json, "  \"threads\": {ambient_threads},");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"sweeps_per_measurement\": {sweeps},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {}, \"mode\": \"{}\", \"variant\": \"{}\", \"threads\": {}, \
             \"sweeps\": {}, \"secs_per_sweep\": {:.6}, \"edges_per_sec\": {:.0}}}",
            r.m, r.mode, r.variant, r.threads, r.sweeps, r.secs_per_sweep, r.edges_per_sec
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Per-sweep speedup (fresh / reuse) for every (m, mode) measured.
    json.push_str("  \"speedup\": [\n");
    let pairs: Vec<(usize, &str, f64)> = rows
        .iter()
        .filter(|r| r.variant == "fresh_per_sweep")
        .filter_map(|f| {
            rows.iter()
                .find(|r| r.variant == "workspace_reuse" && r.m == f.m && r.mode == f.mode)
                .map(|r| (f.m, f.mode, f.secs_per_sweep / r.secs_per_sweep))
        })
        .collect();
    for (i, (m, mode, s)) in pairs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"m\": {m}, \"mode\": \"{mode}\", \"x\": {s:.3}}}"
        );
        json.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]");
    // Thread-scaling summary: speedup of each pool size relative to the
    // 1-thread pool at the same m (only present when the sweep ran with a
    // 1-thread baseline in the ladder).
    let scaling: Vec<(usize, usize, f64)> = rows
        .iter()
        .filter(|r| r.variant == "thread_sweep")
        .filter_map(|r| {
            rows.iter()
                .find(|b| b.variant == "thread_sweep" && b.m == r.m && b.threads == 1)
                .map(|b| (r.m, r.threads, b.secs_per_sweep / r.secs_per_sweep))
        })
        .collect();
    if scaling.is_empty() {
        json.push_str("\n}\n");
    } else {
        json.push_str(",\n  \"thread_scaling\": [\n");
        for (i, (m, t, x)) in scaling.iter().enumerate() {
            let _ = write!(json, "    {{\"m\": {m}, \"threads\": {t}, \"x\": {x:.3}}}");
            json.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
        }
        json.push_str("  ]\n}\n");
    }

    let out = std::env::var("NULLGRAPH_BENCH_OUT").unwrap_or_else(|_| "BENCH_swap.json".into());
    std::fs::write(&out, &json).expect("write BENCH_swap.json");
    println!("\nwrote {out}");

    // Counter snapshot of every workspace-reuse run, written next to the
    // throughput numbers (`BENCH_swap.json` → `BENCH_swap_metrics.json`).
    let metrics_out = match out.strip_suffix(".json") {
        Some(stem) => format!("{stem}_metrics.json"),
        None => format!("{out}.metrics.json"),
    };
    let mut snap = metrics.snapshot().to_json();
    snap.push('\n');
    std::fs::write(&metrics_out, snap).expect("write bench metrics snapshot");
    println!("wrote {metrics_out}");
}
