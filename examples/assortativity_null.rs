//! Assortativity against the null model — the third application family the
//! paper's introduction cites (after motifs and modularity): a network
//! statistic only means something relative to what randomness produces at
//! the same degree sequence.
//!
//! We build an assortative network (high-degree vertices preferentially
//! linked), then score its assortativity and clustering against the
//! exact-degree-sequence null ensemble.
//!
//! ```text
//! cargo run --release --example assortativity_null
//! ```

use graphcore::analysis::{assortativity, global_clustering};
use graphcore::{Edge, EdgeList};
use nullmodel::{significance_against_null, GenError, GeneratorConfig};
use parutil::rng::Xoshiro256pp;

/// Build a deliberately assortative graph: a clique of hubs, rings of
/// leaves, and a few hub-leaf attachments.
fn assortative_fixture() -> EdgeList {
    let mut edges = Vec::new();
    let hubs = 12u32;
    // Hub core: complete graph.
    for a in 0..hubs {
        for b in (a + 1)..hubs {
            edges.push(Edge::new(a, b));
        }
    }
    // Leaf rings hanging off each hub.
    let mut next = hubs;
    let mut rng = Xoshiro256pp::new(7);
    for h in 0..hubs {
        let ring = 8 + (rng.next_below(5)) as u32;
        let start = next;
        for k in 0..ring {
            edges.push(Edge::new(start + k, start + (k + 1) % ring));
        }
        edges.push(Edge::new(h, start));
        next += ring;
    }
    EdgeList::from_edges(next as usize, edges)
}

fn main() -> Result<(), GenError> {
    let observed = assortative_fixture();
    println!(
        "observed: n = {}, m = {}, simple = {}",
        observed.num_vertices(),
        observed.len(),
        observed.is_simple()
    );

    let cfg = GeneratorConfig::new(99).with_swap_iterations(12);
    let ensemble = 25;

    let assort = significance_against_null(&observed, assortativity, &cfg, ensemble)?;
    println!(
        "assortativity: observed {:+.4}, null {:+.4} ± {:.4}, z = {:+.1}, p ≈ {:.3}",
        assort.observed, assort.null_mean, assort.null_sd, assort.z_score, assort.p_value
    );

    let clustering = significance_against_null(&observed, global_clustering, &cfg, ensemble)?;
    println!(
        "clustering:    observed {:.4}, null {:.4} ± {:.4}, z = {:+.1}, p ≈ {:.3}",
        clustering.observed,
        clustering.null_mean,
        clustering.null_sd,
        clustering.z_score,
        clustering.p_value
    );

    if assort.z_score > 2.0 {
        println!("=> the observed assortativity is significantly above the null model");
    }
    if clustering.z_score > 2.0 {
        println!("=> the observed clustering is significantly above the null model");
    }
    Ok(())
}
