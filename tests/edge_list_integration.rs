//! Problem 1 integration: uniformly mixing existing edge lists, including
//! IO round trips and non-simple inputs.

use graphcore::{io, DegreeDistribution, EdgeList};
use nullmodel::{generate_from_edge_list, GeneratorConfig};

fn as20_like() -> DegreeDistribution {
    datasets::Profile::As20.distribution(4)
}

#[test]
fn mixing_preserves_degree_sequence_exactly() {
    let dist = as20_like();
    let mut g = generators::havel_hakimi(&dist).unwrap();
    let before = g.degree_sequence();
    let (stats, _) = generate_from_edge_list(&mut g, &GeneratorConfig::new(1));
    assert_eq!(g.degree_sequence(), before);
    assert!(g.is_simple());
    assert!(stats.total_successful() > 0);
}

#[test]
fn mixing_actually_changes_the_graph() {
    let dist = as20_like();
    let original = generators::havel_hakimi(&dist).unwrap();
    let mut g = original.clone();
    generate_from_edge_list(&mut g, &GeneratorConfig::new(2));
    assert_ne!(g, original, "ten swap iterations must rewire something");
}

#[test]
fn multigraph_input_gets_simplified() {
    // The paper: O(m) Chung-Lu output + "about two dozen" swap iterations
    // eliminates all multi-edges. Sweeps-to-simple varies with the seed
    // (over 400 seeds: median 19, p90 30, max 60), so the claim is checked
    // as a median over 16 seeds, each run under a 64-sweep cap.
    let dist = as20_like();
    let start = generators::chung_lu_om(&dist, 7);
    assert!(!start.is_simple(), "fixture should start non-simple");
    let mut when: Vec<usize> = (0..16)
        .map(|seed| {
            let mut g = start.clone();
            let cfg = GeneratorConfig::new(seed).with_swap_iterations(64);
            let (stats, _) = generate_from_edge_list(&mut g, &cfg);
            assert!(g.is_simple(), "seed {seed}: not simplified after 64 sweeps");
            stats
                .iterations_to_simple()
                .expect("non-simple input is tracked")
        })
        .collect();
    when.sort_unstable();
    let median = when[when.len() / 2];
    assert!(
        median <= 24,
        "median sweeps to simple is {median}: {when:?}"
    );
}

#[test]
fn configuration_model_input() {
    let dist = as20_like();
    let mut g = generators::configuration_model(&dist, 12);
    let degrees = g.degree_sequence();
    generate_from_edge_list(&mut g, &GeneratorConfig::new(3).with_swap_iterations(25));
    assert_eq!(g.degree_sequence(), degrees);
    assert!(g.is_simple());
}

#[test]
fn io_round_trip_then_mix() {
    let dir = std::env::temp_dir().join("nullgraph_test_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("edges.txt");

    let dist = DegreeDistribution::from_pairs(vec![(2, 40), (4, 10)]).unwrap();
    let g = generators::havel_hakimi(&dist).unwrap();
    io::save_edge_list(&g, &path).unwrap();
    let mut loaded = io::load_edge_list(&path).unwrap();
    assert_eq!(loaded.len(), g.len());

    generate_from_edge_list(&mut loaded, &GeneratorConfig::new(4));
    assert!(loaded.is_simple());
    assert_eq!(loaded.degree_distribution(), dist);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixing_changes_attachment_statistics_toward_uniform() {
    // Havel-Hakimi output is highly structured (assortative by
    // construction); swapping must move its attachment matrix toward the
    // uniform sample's.
    use graphcore::metrics::AttachmentMatrix;
    let dist = datasets::Profile::Meso.distribution(2);
    let reference = {
        let mats: Vec<AttachmentMatrix> = (0..6)
            .map(|s| {
                let g = nullmodel::uniform_reference(&dist, 20, 1000 + s).unwrap();
                AttachmentMatrix::from_graph(&g)
            })
            .collect();
        AttachmentMatrix::average(&mats)
    };
    let hh = generators::havel_hakimi(&dist).unwrap();
    let before = AttachmentMatrix::from_graph(&hh).l1_diff(&reference);
    let mut mixed = hh.clone();
    generate_from_edge_list(
        &mut mixed,
        &GeneratorConfig::new(5).with_swap_iterations(15),
    );
    let after = AttachmentMatrix::from_graph(&mixed).l1_diff(&reference);
    assert!(
        after < before,
        "mixing did not approach uniform: {before} -> {after}"
    );
}

#[test]
fn empty_and_tiny_inputs() {
    let mut empty = EdgeList::new(10);
    let (stats, _) = generate_from_edge_list(&mut empty, &GeneratorConfig::new(1));
    assert_eq!(stats.total_successful(), 0);

    let mut single = EdgeList::from_pairs([(0, 1)]);
    generate_from_edge_list(&mut single, &GeneratorConfig::new(1));
    assert_eq!(single.len(), 1);
}
