//! Criterion: double-edge swap throughput — serial vs parallel kernel
//! (supports the Section VIII-C discussion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use swap::{try_swap_edges, SwapWorkspace};

fn bench_swaps(c: &mut Criterion) {
    let mut group = c.benchmark_group("swap_iteration");
    group.sample_size(10);
    for &scale in &[2_000u64, 400] {
        let dist = datasets::Profile::LiveJournal.distribution(scale);
        let base = generators::havel_hakimi(&dist).expect("graphical");
        let m = base.len() as u64;
        group.throughput(Throughput::Elements(m));

        group.bench_with_input(BenchmarkId::new("parallel", m), &base, |b, base| {
            b.iter(|| {
                let mut g = base.clone();
                try_swap_edges(&mut g, 1, 7, &mut SwapWorkspace::new()).expect("sweep");
                black_box(g.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("serial", m), &base, |b, base| {
            b.iter(|| {
                let mut g = base.clone();
                let mut ws = SwapWorkspace::new();
                ws.set_serial(true);
                try_swap_edges(&mut g, 1, 7, &mut ws).expect("sweep");
                black_box(g.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_swaps);
criterion_main!(benches);
