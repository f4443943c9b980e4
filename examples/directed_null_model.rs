//! Directed null models — the extension the paper's introduction points to
//! (Durak et al. [14]): generate simple digraphs matching a **joint**
//! in/out degree distribution, then uniformly mix them with directed
//! double-edge swaps.
//!
//! ```text
//! cargo run --release --example directed_null_model
//! ```

use directed::{
    generate_directed_from_distribution, havel_hakimi_directed, swap_directed_edges,
    DiDegreeDistribution, DirectedGeneratorConfig, DirectedSwapConfig,
};

fn main() -> Result<(), nullmodel::GenError> {
    // A web-like joint distribution: pure sources (crawler seeds), pure
    // sinks (content pages), balanced middle, and a few reciprocal hubs.
    let dist = DiDegreeDistribution::from_pairs(vec![
        ((0, 2), 300),
        ((1, 1), 500),
        ((2, 0), 250),
        ((3, 3), 60),
        ((10, 8), 10),
        ((20, 28), 5),
    ])
    .expect("balanced joint distribution");

    println!(
        "target: n = {}, m = {}, |D| = {} joint classes",
        dist.num_vertices(),
        dist.num_edges(),
        dist.num_classes()
    );

    // Problem 2 (directed): generate from the distribution alone.
    let g = generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(7))?;
    println!(
        "pipeline output: m = {} (target {}), simple = {}",
        g.len(),
        dist.num_edges(),
        g.is_simple()
    );
    let realized = g.joint_distribution();
    println!(
        "realized joint classes: {} (target {})",
        realized.num_classes(),
        dist.num_classes()
    );

    // Problem 1 (directed): mix an existing digraph.
    let seq = dist.expand();
    let mut hh = havel_hakimi_directed(&seq).expect("distribution is realizable");
    let before = hh.joint_degrees();
    let stats = swap_directed_edges(&mut hh, &DirectedSwapConfig::new(10, 99));
    assert_eq!(hh.joint_degrees(), before, "degrees must be preserved");
    assert!(hh.is_simple());
    println!(
        "mixed Havel-Hakimi realization: {} accepted swaps over 10 iterations",
        stats.total()
    );
    println!("per-iteration acceptances: {:?}", stats.successes);
    Ok(())
}
