//! Criterion: per-sweep swap throughput across graph sizes, fresh workspace
//! vs reused workspace (the PR-2 zero-allocation sweep loop).
//!
//! `swap_sweep_throughput/{variant}/{m}` measures one full permute-and-swap
//! sweep over a ring of `m` edges. The `fresh` variant pays the workspace
//! build (table allocation + zeroing) inside every measurement — the cost
//! profile of the pre-workspace loop — while `reuse` amortizes it the way
//! every multi-sweep run does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use graphcore::EdgeList;
use std::hint::black_box;
use swap::{try_swap_edges, SwapWorkspace};

fn ring(m: usize) -> EdgeList {
    EdgeList::from_pairs((0..m as u32).map(|i| (i, (i + 1) % m as u32)))
}

fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("swap_sweep_throughput");
    group.sample_size(10);
    for &m in &[10_000usize, 100_000, 1_000_000] {
        let base = ring(m);
        group.throughput(Throughput::Elements(m as u64));

        group.bench_with_input(BenchmarkId::new("fresh", m), &base, |b, base| {
            b.iter(|| {
                let mut g = base.clone();
                try_swap_edges(&mut g, 1, 7, &mut SwapWorkspace::new()).expect("sweep");
                black_box(g.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("reuse", m), &base, |b, base| {
            let mut ws = SwapWorkspace::with_capacity(m);
            b.iter(|| {
                let mut g = base.clone();
                try_swap_edges(&mut g, 1, 7, &mut ws).expect("sweep");
                black_box(g.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("reuse_serial", m), &base, |b, base| {
            let mut ws = SwapWorkspace::with_capacity(m);
            ws.set_serial(true);
            b.iter(|| {
                let mut g = base.clone();
                try_swap_edges(&mut g, 1, 7, &mut ws).expect("sweep");
                black_box(g.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweeps);
criterion_main!(benches);
