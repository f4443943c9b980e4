//! Ensemble and significance workflows across crates: the applications the
//! paper's introduction motivates, end to end.

use datasets::Profile;
use graphcore::analysis::{assortativity, global_clustering};
use graphcore::csr::Csr;
use nullmodel::{
    significance_against_null, try_ensemble_from_distribution, GeneratorConfig, SignificanceReport,
};

#[test]
fn profile_ensemble_statistics_stable() {
    let dist = Profile::Meso.distribution(2);
    let graphs = try_ensemble_from_distribution(&dist, &GeneratorConfig::new(4), 6).unwrap();
    assert_eq!(graphs.len(), 6);
    // Edge counts concentrate around the target.
    let target = dist.num_edges() as f64;
    let mean: f64 = graphs.iter().map(|g| g.len() as f64).sum::<f64>() / 6.0;
    assert!((mean - target).abs() / target < 0.06, "mean {mean}");
    // All simple, all distinct.
    for (i, g) in graphs.iter().enumerate() {
        assert!(g.is_simple());
        for other in &graphs[i + 1..] {
            assert_ne!(g, other);
        }
    }
}

#[test]
fn lfr_graph_has_significant_clustering() {
    // Community structure ⇒ triangles far above the degree-sequence null.
    let lfr = nullmodel::generate_lfr(&nullmodel::LfrConfig {
        distribution: graphcore::DegreeDistribution::from_pairs(vec![(5, 500), (10, 100)]).unwrap(),
        mixing: 0.1,
        community_size_min: 15,
        community_size_max: 50,
        community_exponent: 1.5,
        swap_iterations: 3,
        seed: 8,
    })
    .unwrap()
    .graph;
    let report = significance_against_null(
        &lfr,
        |g| Csr::from_edge_list(g).triangle_count() as f64,
        &GeneratorConfig::new(21).with_swap_iterations(8),
        15,
    )
    .unwrap();
    assert!(report.z_score > 3.0, "{report:?}");
}

#[test]
fn null_model_statistics_centered() {
    // A graph that *is* a null sample should not test significant against
    // its own null ensemble.
    let dist = graphcore::DegreeDistribution::from_pairs(vec![(3, 200), (6, 60)]).unwrap();
    let sample = nullmodel::try_uniform_reference(&dist, 20, 5).unwrap();
    let report = significance_against_null(
        &sample,
        assortativity,
        &GeneratorConfig::new(31).with_swap_iterations(10),
        20,
    )
    .unwrap();
    assert!(
        report.z_score.abs() < 3.5,
        "null sample tested significant: {report:?}"
    );
    assert!(report.p_value > 0.01);
}

#[test]
fn significance_report_consistency() {
    let samples: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
    let r = SignificanceReport::from_samples(4.5, &samples);
    assert!((r.null_mean - 4.5).abs() < 1e-12);
    assert_eq!(r.z_score, 0.0);
    assert!(
        r.p_value > 0.9,
        "centered observation should be insignificant"
    );
}

#[test]
fn clustering_of_null_models_is_low() {
    // Degree-sequence null models of sparse skewed graphs have tiny
    // clustering — the reason observed clustering is interesting at all.
    let dist = Profile::Meso.distribution(2);
    let graphs = try_ensemble_from_distribution(&dist, &GeneratorConfig::new(17), 4).unwrap();
    for g in graphs {
        let c = global_clustering(&g);
        assert!(c < 0.2, "null clustering unexpectedly high: {c}");
    }
}
