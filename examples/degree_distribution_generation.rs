//! Generate null models from a real-world-shaped degree distribution and
//! compare all generators' output quality — a miniature of the paper's
//! Fig. 3 experiment on the AS-733-like profile.
//!
//! ```text
//! cargo run --release --example degree_distribution_generation
//! ```

use datasets::Profile;
use graphcore::metrics::DistributionComparison;
use nullmodel::{try_generate_from_distribution, GenError, GeneratorConfig};

fn main() -> Result<(), GenError> {
    let dist = Profile::As20.distribution(1);
    println!(
        "as20-like target: n = {}, m = {}, d_max = {}, |D| = {}",
        dist.num_vertices(),
        dist.num_edges(),
        dist.max_degree(),
        dist.num_classes()
    );
    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8}",
        "generator", "edge err %", "dmax err %", "gini err %", "simple"
    );

    let runs = 5u64;
    let mut rows: Vec<(&str, Vec<DistributionComparison>, bool)> = Vec::new();

    // O(m) Chung-Lu (non-simple).
    let mut cmp = Vec::new();
    let mut simple = true;
    for s in 0..runs {
        let g = generators::chung_lu_om(&dist, s);
        simple &= g.is_simple();
        cmp.push(DistributionComparison::measure(&g, &dist));
    }
    rows.push(("O(m) Chung-Lu", cmp, simple));

    // Erased Chung-Lu.
    let mut cmp = Vec::new();
    for s in 0..runs {
        let (g, _) = generators::erased_chung_lu(&dist, s);
        cmp.push(DistributionComparison::measure(&g, &dist));
    }
    rows.push(("erased Chung-Lu", cmp, true));

    // Bernoulli edge-skip with closed-form probabilities.
    let mut cmp = Vec::new();
    for s in 0..runs {
        let g = generators::bernoulli_edgeskip(&dist, s);
        cmp.push(DistributionComparison::measure(&g, &dist));
    }
    rows.push(("Bernoulli edgeskip", cmp, true));

    // This paper: heuristic probabilities + edge-skipping + swaps.
    let mut cmp = Vec::new();
    for s in 0..runs {
        let g = try_generate_from_distribution(&dist, &GeneratorConfig::new(s))?.graph;
        cmp.push(DistributionComparison::measure(&g, &dist));
    }
    rows.push(("this paper", cmp, true));

    // Extension: with Sinkhorn-refined probabilities.
    let mut cmp = Vec::new();
    for s in 0..runs {
        let g =
            try_generate_from_distribution(&dist, &GeneratorConfig::new(s).with_refine_rounds(20))?
                .graph;
        cmp.push(DistributionComparison::measure(&g, &dist));
    }
    rows.push(("this paper + refine", cmp, true));

    for (name, samples, simple) in rows {
        let mean = DistributionComparison::mean_abs(&samples);
        println!(
            "{:<22} {:>12.2} {:>12.2} {:>12.2} {:>8}",
            name, mean.edge_count_pct, mean.max_degree_pct, mean.gini_pct, simple
        );
    }
    println!();
    println!("(mean absolute % error over {runs} seeds; lower is better)");
    Ok(())
}
