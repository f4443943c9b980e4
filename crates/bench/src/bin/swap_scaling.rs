//! Section VIII-C: time to successfully swap the edges of a
//! LiveJournal-like graph — serial vs parallel, and the fraction of edges
//! swapped per iteration (the paper: 1 parallel iteration swaps 99.9% of
//! edges in ~1s on 16 cores; 3 iterations swap everything).
//!
//! ```text
//! cargo run -p bench --release --bin swap_scaling
//! # NULLGRAPH_SCALE_MULT=10 for a quicker run
//! ```

use bench::{default_scale, eng, Table};
use datasets::Profile;
use std::time::Instant;
use swap::{try_swap_edges, SwapWorkspace};

fn main() {
    let profile = Profile::LiveJournal;
    let scale = default_scale(profile);
    let dist = profile.distribution(scale);
    println!(
        "Section VIII-C: swap throughput on LiveJournal-like graph (scale 1/{scale}: n = {}, m = {})\n",
        eng(dist.num_vertices()),
        eng(dist.num_edges())
    );

    let base = generators::havel_hakimi(&dist).expect("profile is graphical");

    let mut table = Table::new(
        "swap_scaling",
        &[
            "variant",
            "iterations",
            "seconds",
            "swaps/s",
            "% edges ever swapped",
        ],
    );

    for &iters in &[1usize, 3] {
        // Serial reference.
        let mut g = base.clone();
        let t = Instant::now();
        let mut ws = SwapWorkspace::new();
        ws.set_serial(true);
        let stats = try_swap_edges(&mut g, iters, 1, &mut ws).expect("swap run");
        let secs = t.elapsed().as_secs_f64();
        let last = stats.iterations.last().expect("iterations > 0");
        table.row(vec![
            "serial".into(),
            iters.to_string(),
            format!("{secs:.3}"),
            eng((stats.total_successful() as f64 / secs) as u64),
            format!("{:.2}", 100.0 * last.ever_swapped_fraction),
        ]);

        // Parallel (rayon pool).
        let mut g = base.clone();
        let t = Instant::now();
        let stats = try_swap_edges(&mut g, iters, 1, &mut SwapWorkspace::new()).expect("swap run");
        let secs = t.elapsed().as_secs_f64();
        let last = stats.iterations.last().expect("iterations > 0");
        table.row(vec![
            format!("parallel ({} threads)", rayon::current_num_threads()),
            iters.to_string(),
            format!("{secs:.3}"),
            eng((stats.total_successful() as f64 / secs) as u64),
            format!("{:.2}", 100.0 * last.ever_swapped_fraction),
        ]);
    }
    table.finish();
    println!("\npaper reference (full-scale LiveJournal, m = 27M): 15s serial, 3s on 16");
    println!("cores for 3 iterations; 1 iteration ≈ 1s and swaps 99.9% of edges.");
    println!("Bhuiyan et al. [5] report ~300s serial / ~20s on 64 distributed processors.");
}
