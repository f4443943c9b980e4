//! Fig. 6: per-phase execution time of this paper's method — probability
//! computation, edge generation, edge swapping — per test instance, plus
//! the average over all instances the paper plots.
//!
//! ```text
//! cargo run -p bench --release --bin fig6
//! ```

use bench::{default_scale, eng, Table};
use datasets::Profile;
use nullmodel::{try_generate_from_distribution, GeneratorConfig, PhaseTimings};

fn main() {
    println!("Fig. 6: per-phase execution time (seconds), 1 swap iteration\n");
    let mut table = Table::new(
        "fig6",
        &[
            "Network",
            "m",
            "|D|",
            "probabilities",
            "edge gen",
            "swapping",
            "total",
            "edges/s",
        ],
    );
    let mut mean = PhaseTimings::default();
    let mut count = 0u32;
    for profile in Profile::all() {
        let dist = profile.distribution(default_scale(profile));
        let cfg = GeneratorConfig::new(6).with_swap_iterations(1);
        let out = try_generate_from_distribution(&dist, &cfg).expect("profile is servable");
        let t = out.timings;
        mean.accumulate(&t);
        count += 1;
        let rate = out.graph.len() as f64 / t.edge_generation.as_secs_f64().max(1e-9);
        table.row(vec![
            profile.name().to_string(),
            eng(dist.num_edges()),
            dist.num_classes().to_string(),
            format!("{:.4}", t.probabilities.as_secs_f64()),
            format!("{:.4}", t.edge_generation.as_secs_f64()),
            format!("{:.4}", t.swapping.as_secs_f64()),
            format!("{:.4}", t.total().as_secs_f64()),
            eng(rate as u64),
        ]);
    }
    table.finish();
    println!(
        "\naverage over {count} instances: probabilities {:.4}s | edge gen {:.4}s | swaps {:.4}s",
        mean.probabilities.as_secs_f64() / count as f64,
        mean.edge_generation.as_secs_f64() / count as f64,
        mean.swapping.as_secs_f64() / count as f64
    );
    println!("expected shape (paper): probability generation is proportionally cheap");
    println!("(|D| << d_max << m); swapping dominates the end-to-end time.");
}
