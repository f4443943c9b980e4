//! Quickstart: generate a simple graph from a degree distribution, mixed
//! by degree-preserving double-edge swaps, and validate the output.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use graphcore::DegreeDistribution;
use nullmodel::{try_generate_from_distribution, GenError, GeneratorConfig, ValidationReport};

fn main() -> Result<(), GenError> {
    // A small skewed degree distribution: a heavy low-degree base, a few
    // mid-degree vertices, two hubs.
    let dist = DegreeDistribution::from_pairs(vec![
        (2, 600),
        (3, 250),
        (6, 90),
        (12, 30),
        (24, 10),
        (64, 2),
    ])
    .expect("valid distribution");

    println!(
        "target: n = {}, m = {}, d_max = {}, |D| = {}",
        dist.num_vertices(),
        dist.num_edges(),
        dist.max_degree(),
        dist.num_classes()
    );

    let cfg = GeneratorConfig::new(42).with_swap_iterations(10);
    let out = try_generate_from_distribution(&dist, &cfg)?;

    println!(
        "generated: m = {}, simple = {}",
        out.graph.len(),
        out.graph.is_simple()
    );
    println!("phase timings: {}", out.timings);
    println!(
        "probability residual (expected-degree error): {:.3}%",
        100.0 * out.probability_residual
    );
    for (i, it) in out.swap_stats.iterations.iter().enumerate() {
        println!(
            "  swap iter {:>2}: accepted {:>5} / {:>5} pairs, {:.1}% of edges ever swapped",
            i + 1,
            it.successful_swaps,
            it.attempted_pairs,
            100.0 * it.ever_swapped_fraction
        );
    }

    let report = ValidationReport::measure(&out.graph, &dist);
    println!("validation: {report}");
    println!();
    println!("note: per-degree and Gini errors reflect Binomial spread around the");
    println!("target degrees — every expectation-matching generator (including the");
    println!("paper's O(m) baseline) shows it; edge count and d_max are the paper's");
    println!("headline accuracy measures (Fig. 3).");
    Ok(())
}
