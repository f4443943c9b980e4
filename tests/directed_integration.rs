//! Directed-extension integration: the full directed pipeline on skewed
//! joint distributions, reciprocity null testing, and IO round trips.

use directed::{
    generate_directed_from_distribution, havel_hakimi_directed, io as dio, reciprocity,
    swap_directed_edges, DiDegreeDistribution, DiEdge, DiEdgeList, DirectedGeneratorConfig,
    DirectedSwapConfig,
};

fn skewed_joint() -> DiDegreeDistribution {
    DiDegreeDistribution::from_pairs(vec![
        ((0, 2), 150),
        ((1, 1), 400),
        ((2, 0), 150),
        ((2, 2), 100),
        ((5, 25), 4),
        ((6, 6), 20),
        ((25, 5), 4),
    ])
    .unwrap()
}

#[test]
fn directed_pipeline_matches_in_expectation() {
    let dist = skewed_joint();
    let runs = 6;
    let mut mean_m = 0.0;
    for s in 0..runs {
        let g =
            generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(s)).unwrap();
        assert!(g.is_simple());
        mean_m += g.len() as f64 / runs as f64;
    }
    let target = dist.num_edges() as f64;
    assert!(
        (mean_m - target).abs() / target < 0.08,
        "mean m {mean_m} target {target}"
    );
}

#[test]
fn directed_swaps_preserve_everything_on_realization() {
    let dist = skewed_joint();
    let seq = dist.expand();
    let mut g = havel_hakimi_directed(&seq).expect("realizable");
    let before = g.joint_degrees();
    let stats = swap_directed_edges(&mut g, &DirectedSwapConfig::new(8, 77));
    assert_eq!(g.joint_degrees(), before);
    assert!(g.is_simple());
    assert!(stats.total() > 0);
}

#[test]
fn reciprocity_null_model_workflow() {
    // A network built with deliberate reciprocation scores far above its
    // joint-degree null model.
    let mut edges = Vec::new();
    for i in 0..200u32 {
        let j = (i + 1) % 200;
        edges.push(DiEdge::new(i, j));
        edges.push(DiEdge::new(j, i));
    }
    let observed = DiEdgeList::from_edges(200, edges);
    let observed_recip = reciprocity(&observed);
    assert_eq!(observed_recip, 1.0);

    // Null ensemble: mix copies of the observed digraph.
    let nulls: Vec<f64> = (0..8)
        .map(|s| {
            let mut g = observed.clone();
            swap_directed_edges(&mut g, &DirectedSwapConfig::new(10, 1000 + s));
            reciprocity(&g)
        })
        .collect();
    let null_mean: f64 = nulls.iter().sum::<f64>() / nulls.len() as f64;
    assert!(
        null_mean < 0.2,
        "null reciprocity should collapse, got {null_mean}"
    );
}

#[test]
fn directed_io_round_trip_through_pipeline() {
    let dir = std::env::temp_dir().join("nullgraph_directed_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("digraph.txt");

    let dist = skewed_joint();
    let g = generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(5)).unwrap();
    dio::save_diedge_list(&g, &path).unwrap();
    let back = dio::load_diedge_list(&path).unwrap();
    assert_eq!(back.edges(), g.edges());
    assert_eq!(back.joint_distribution(), g.joint_distribution());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn antiparallel_edges_survive_simplicity() {
    // Directed simplicity allows antiparallel pairs; the pipeline must not
    // destroy them artificially.
    let dist = DiDegreeDistribution::from_pairs(vec![((2, 2), 40)]).unwrap();
    let g = generate_directed_from_distribution(&dist, &DirectedGeneratorConfig::new(11)).unwrap();
    assert!(g.is_simple());
    let r = reciprocity(&g);
    // Random digraphs at this density have some (small) reciprocity.
    assert!((0.0..=1.0).contains(&r));
}
