//! Motif finding against a null model — the paper's motivating application
//! (Milo et al., Science 2002).
//!
//! A *motif* is a subgraph that appears significantly more often in a real
//! network than in uniformly-random graphs with the same degree
//! distribution. This example builds a clustered "observed" network,
//! counts its triangles, then generates an ensemble of null graphs from the
//! observed degree distribution and reports the z-score of the triangle
//! count.
//!
//! ```text
//! cargo run --release --example motif_null_model
//! ```

use graphcore::csr::Csr;
use graphcore::DegreeDistribution;
use nullmodel::{generate_lfr, try_generate_from_edge_list, GenError, GeneratorConfig, LfrConfig};

fn main() -> Result<(), GenError> {
    // 1. Fabricate an "observed" network with real community structure
    //    (LFR with low mixing), which produces many triangles.
    let observed = generate_lfr(&LfrConfig {
        distribution: DegreeDistribution::from_pairs(vec![(4, 700), (8, 250), (16, 50)])
            .expect("valid distribution"),
        mixing: 0.1,
        community_size_min: 15,
        community_size_max: 60,
        community_exponent: 1.5,
        swap_iterations: 3,
        seed: 7,
    })
    .expect("LFR generation succeeds")
    .graph;

    let observed_triangles = Csr::from_edge_list(&observed).triangle_count();
    println!(
        "observed network: n = {}, m = {}, triangles = {}",
        observed.num_vertices(),
        observed.len(),
        observed_triangles
    );

    // 2. Null ensemble: mix copies of the observed edge list with
    //    degree-preserving double-edge swaps (problem 1 of the paper) —
    //    the degree sequence is preserved exactly, structure beyond it is
    //    mixed away.
    let ensemble = 20;
    let mut counts = Vec::with_capacity(ensemble);
    for s in 0..ensemble as u64 {
        let mut null = observed.clone();
        try_generate_from_edge_list(
            &mut null,
            &GeneratorConfig::new(1000 + s).with_swap_iterations(12),
        )?;
        let t = Csr::from_edge_list(&null).triangle_count();
        counts.push(t as f64);
    }

    let mean = counts.iter().sum::<f64>() / ensemble as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (ensemble - 1) as f64;
    let sd = var.sqrt().max(1e-9);
    let z = (observed_triangles as f64 - mean) / sd;

    println!("null ensemble ({ensemble} graphs): mean triangles = {mean:.1}, sd = {sd:.1}");
    println!("z-score of the observed triangle count: {z:.1}");
    if z > 3.0 {
        println!("=> the triangle is a *motif* of the observed network (z > 3)");
    } else {
        println!("=> no significant triangle enrichment (z <= 3)");
    }
    Ok(())
}
