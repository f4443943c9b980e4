//! End-to-end pipeline integration: the full Algorithm IV.1 on calibrated
//! Table-I profiles, compared against every baseline generator.

use datasets::Profile;
use graphcore::metrics::DistributionComparison;
use graphcore::DegreeDistribution;
use nullmodel::{try_generate_from_distribution, GeneratorConfig, ValidationReport};

#[test]
fn meso_profile_full_scale() {
    let dist = Profile::Meso.distribution(1);
    let out = try_generate_from_distribution(&dist, &GeneratorConfig::new(1)).unwrap();
    let report = ValidationReport::measure(&out.graph, &dist);
    assert!(report.is_simple);
    assert!(
        report.comparison.edge_count_pct.abs() < 10.0,
        "report: {report}"
    );
    assert!(
        report.comparison.max_degree_pct.abs() < 10.0,
        "report: {report}"
    );
}

#[test]
fn as20_profile_full_scale() {
    let dist = Profile::As20.distribution(1);
    let out = try_generate_from_distribution(&dist, &GeneratorConfig::new(2)).unwrap();
    let report = ValidationReport::measure(&out.graph, &dist);
    assert!(report.is_simple);
    assert!(
        report.comparison.edge_count_pct.abs() < 10.0,
        "report: {report}"
    );
}

#[test]
fn ensemble_mean_edge_count_tight() {
    // Averaged over an ensemble, the edge count error shrinks well below
    // the single-run tolerance (the generator matches in expectation).
    let dist = Profile::Meso.distribution(1);
    let runs = 8;
    let mean: f64 = (0..runs)
        .map(|s| {
            try_generate_from_distribution(&dist, &GeneratorConfig::new(s))
                .unwrap()
                .graph
                .len() as f64
        })
        .sum::<f64>()
        / runs as f64;
    let target = dist.num_edges() as f64;
    let rel = (mean - target).abs() / target;
    assert!(rel < 0.05, "ensemble mean {mean} target {target}");
}

#[test]
fn our_method_beats_erased_on_max_degree() {
    // The paper's headline quality claim (Fig. 3): the heuristic
    // probabilities + edge-skipping match d_max and edge counts far better
    // than the erased model on skewed distributions.
    let dist = Profile::As20.distribution(1);
    let runs = 5;
    let mut ours = Vec::new();
    let mut erased = Vec::new();
    for s in 0..runs {
        let g = try_generate_from_distribution(&dist, &GeneratorConfig::new(s))
            .unwrap()
            .graph;
        ours.push(DistributionComparison::measure(&g, &dist));
        let (e, _) = generators::erased_chung_lu(&dist, s);
        erased.push(DistributionComparison::measure(&e, &dist));
    }
    let ours_m = DistributionComparison::mean_abs(&ours);
    let erased_m = DistributionComparison::mean_abs(&erased);
    assert!(
        ours_m.max_degree_pct < erased_m.max_degree_pct,
        "ours {ours_m:?} vs erased {erased_m:?}"
    );
}

#[test]
fn all_generators_on_skewed_profile() {
    // Every generator must at least produce structurally valid output on a
    // genuinely skewed target.
    let dist = Profile::Meso.distribution(1);
    let seed = 3;

    let om = generators::chung_lu_om(&dist, seed);
    assert_eq!(om.len() as u64, dist.num_edges());

    let (er, _) = generators::erased_chung_lu(&dist, seed);
    assert!(er.is_simple());

    let be = generators::bernoulli_edgeskip(&dist, seed);
    assert!(be.is_simple());

    let hh = generators::havel_hakimi(&dist).expect("profile is graphical");
    assert!(hh.is_simple());
    assert_eq!(hh.degree_distribution(), dist);

    let ours = try_generate_from_distribution(&dist, &GeneratorConfig::new(seed))
        .unwrap()
        .graph;
    assert!(ours.is_simple());
}

#[test]
fn refined_probabilities_improve_expectation_on_profile() {
    let dist = Profile::Meso.distribution(1);
    let plain = try_generate_from_distribution(&dist, &GeneratorConfig::new(4)).unwrap();
    let refined =
        try_generate_from_distribution(&dist, &GeneratorConfig::new(4).with_refine_rounds(25))
            .unwrap();
    assert!(refined.probability_residual <= plain.probability_residual + 1e-12);
    assert!(refined.graph.is_simple());
}

#[test]
fn scaled_large_profile_runs() {
    // A scaled-down LiveJournal exercise of the whole pipeline at tens of
    // thousands of edges.
    let dist = Profile::LiveJournal.distribution(1000);
    let out =
        try_generate_from_distribution(&dist, &GeneratorConfig::new(5).with_swap_iterations(3))
            .unwrap();
    assert!(out.graph.is_simple());
    let target = dist.num_edges() as f64;
    let got = out.graph.len() as f64;
    assert!((got - target).abs() / target < 0.1, "m {got} vs {target}");
}

#[test]
fn dense_distribution_handled() {
    // High average degree relative to n stresses the caps in §IV-A.
    let dist = DegreeDistribution::from_pairs(vec![(8, 40), (12, 20), (19, 4)]).unwrap();
    let out = try_generate_from_distribution(&dist, &GeneratorConfig::new(6)).unwrap();
    assert!(out.graph.is_simple());
    let target = dist.num_edges() as f64;
    let got = out.graph.len() as f64;
    assert!((got - target).abs() / target < 0.25, "m {got} vs {target}");
}
