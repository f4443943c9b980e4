//! Reproducibility guarantees: every public entry point is a pure function
//! of its seed, and the seed-derived parallel streams make results
//! independent of the rayon pool size wherever the design promises it.

use graphcore::DegreeDistribution;
use nullmodel::{generate_lfr, try_generate_from_distribution, GeneratorConfig, LfrConfig};

fn dist() -> DegreeDistribution {
    DegreeDistribution::from_pairs(vec![(1, 300), (2, 120), (4, 40), (9, 8), (20, 2)]).unwrap()
}

#[test]
fn pipeline_same_seed_same_graph() {
    let a = try_generate_from_distribution(&dist(), &GeneratorConfig::new(123)).unwrap();
    let b = try_generate_from_distribution(&dist(), &GeneratorConfig::new(123)).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(
        a.swap_stats.total_successful(),
        b.swap_stats.total_successful()
    );
}

#[test]
fn pipeline_different_seed_different_graph() {
    let a = try_generate_from_distribution(&dist(), &GeneratorConfig::new(123)).unwrap();
    let b = try_generate_from_distribution(&dist(), &GeneratorConfig::new(124)).unwrap();
    assert_ne!(a.graph, b.graph);
}

#[test]
fn edgeskip_independent_of_thread_count() {
    // Edge-skipping derives one stream per deterministic task, so the
    // output must be identical across pool sizes.
    let d = dist();
    let probs = genprob::heuristic_probabilities(&d);
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let quad = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let a = single.install(|| edgeskip::generate(&probs, &d, 9));
    let b = quad.install(|| edgeskip::generate(&probs, &d, 9));
    assert_eq!(a, b);
}

#[test]
fn chung_lu_independent_of_thread_count() {
    let d = dist();
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let quad = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let a = single.install(|| generators::chung_lu_om(&d, 77));
    let b = quad.install(|| generators::chung_lu_om(&d, 77));
    assert_eq!(a, b);
}

#[test]
fn permutation_darts_independent_of_thread_count() {
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let quad = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let a = single.install(|| parutil::permute::darts(100_000, 5));
    let b = quad.install(|| parutil::permute::darts(100_000, 5));
    assert_eq!(a, b);
}

#[test]
fn full_permutation_identical_across_pools() {
    // The reservation algorithm reproduces the serial dart application, so
    // the *result* (not just the darts) is pool-size independent.
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let quad = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let a = single.install(|| parutil::permute::random_permutation(50_000, 31));
    let b = quad.install(|| parutil::permute::random_permutation(50_000, 31));
    assert_eq!(a, b);
}

#[test]
fn swap_chain_identical_across_pools() {
    // The swap chain's minimum-index-claim acceptance makes conflict
    // resolution a pure function of (edge list, seed): the exact same
    // swaps are accepted on any pool size, not just the same degrees.
    let run_on = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut g = generators::havel_hakimi(&dist()).unwrap();
            let stats =
                swap::try_swap_edges(&mut g, 6, 2024, &mut swap::SwapWorkspace::new()).unwrap();
            (g, stats.total_successful())
        })
    };
    let (g1, s1) = run_on(1);
    let (g2, s2) = run_on(2);
    let (g8, s8) = run_on(8);
    assert_eq!(g1, g2, "1-thread vs 2-thread edge lists differ");
    assert_eq!(g1, g8, "1-thread vs 8-thread edge lists differ");
    assert_eq!((s1, s2), (s2, s8), "accepted-swap counts differ");
    // And the parallel result equals the serial reference outright.
    let mut serial = generators::havel_hakimi(&dist()).unwrap();
    let mut ws = swap::SwapWorkspace::new();
    ws.set_serial(true);
    swap::try_swap_edges(&mut serial, 6, 2024, &mut ws).unwrap();
    assert_eq!(g1, serial);
}

#[test]
fn full_pipeline_identical_across_pools() {
    // End-to-end: the whole nullmodel pipeline (probabilities → edge-skip →
    // swap simplification/mixing) emits the identical edge list on 1, 2,
    // and 8 rayon threads for a fixed seed.
    let run_on = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            try_generate_from_distribution(&dist(), &GeneratorConfig::new(123))
                .unwrap()
                .graph
        })
    };
    let g1 = run_on(1);
    let g2 = run_on(2);
    let g8 = run_on(8);
    assert_eq!(g1, g2, "pipeline differs between 1 and 2 threads");
    assert_eq!(g1, g8, "pipeline differs between 1 and 8 threads");
}

#[test]
fn lfr_reproducible() {
    let cfg = LfrConfig {
        distribution: DegreeDistribution::from_pairs(vec![(4, 400), (8, 100)]).unwrap(),
        mixing: 0.3,
        community_size_min: 15,
        community_size_max: 60,
        community_exponent: 1.4,
        swap_iterations: 2,
        seed: 55,
    };
    let a = generate_lfr(&cfg).unwrap();
    let b = generate_lfr(&cfg).unwrap();
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.communities, b.communities);
    assert_eq!(a.measured_mixing, b.measured_mixing);
}

#[test]
fn probability_matrices_are_pure_functions() {
    let d = dist();
    let a = genprob::heuristic_probabilities(&d);
    let b = genprob::heuristic_probabilities(&d);
    for i in 0..d.num_classes() {
        for j in 0..d.num_classes() {
            assert_eq!(a.get(i, j), b.get(i, j));
        }
    }
}
