//! Fig. 4: convergence of pairwise attachment probabilities toward a
//! uniform-random sample, as a function of double-edge-swap iterations.
//!
//! For each generator the initial edge list is swapped one iteration at a
//! time; after every iteration the empirical degree-class attachment matrix
//! is compared (L1 norm) against the average matrix of a Havel-Hakimi +
//! 128-swap uniform baseline — exactly the paper's measurement.
//!
//! ```text
//! cargo run -p bench --release --bin fig4
//! ```

use bench::{runs_or, Table};
use datasets::Profile;
use graphcore::metrics::AttachmentMatrix;
use graphcore::{DegreeDistribution, EdgeList};

const MAX_ITERS: usize = 24;

fn initial(method: usize, dist: &DegreeDistribution, seed: u64) -> EdgeList {
    match method {
        0 => generators::chung_lu_om(dist, seed),
        1 => generators::erased_chung_lu(dist, seed).0,
        2 => generators::bernoulli_edgeskip(dist, seed),
        3 => {
            let probs = genprob::heuristic_probabilities(dist);
            edgeskip::generate(&probs, dist, seed)
        }
        _ => unreachable!(),
    }
}

#[allow(clippy::needless_range_loop)]
fn main() {
    let dist = Profile::Meso.distribution(1);
    let runs = runs_or(6);
    println!(
        "Fig. 4: L1 error of pairwise attachment probabilities vs swap iterations\n\
         (Meso-like profile, {runs} seeds per method, baseline = Havel-Hakimi + 128 swaps)\n"
    );

    // Uniform-random baseline matrix, plus a held-out second ensemble that
    // measures the pure sampling floor of the comparison.
    let base_runs = runs_or(6).max(20) as usize;
    let mats: Vec<AttachmentMatrix> = (0..2 * base_runs as u64)
        .map(|s| {
            let g = nullmodel::try_uniform_reference(&dist, 128, 0xBA5E + s)
                .expect("profile is graphical");
            AttachmentMatrix::from_graph_with_layout(&g, &dist)
        })
        .collect();
    let baseline = AttachmentMatrix::average(&mats[..base_runs]);
    let holdout = AttachmentMatrix::average(&mats[base_runs..]);
    let sampling_floor = 100.0 * holdout.l1_diff(&baseline) / baseline.l1_norm();

    let methods = ["O(m)", "O(m) simple", "O(n^2) edgeskip", "this paper"];
    // The paper plots the error of the *expected* attachment probabilities,
    // so average the measured matrix over the seed ensemble at every
    // iteration before differencing (single-graph matrices carry a large
    // sampling-noise floor: singleton classes give 0/1 cells).
    let mut errors = vec![[0.0f64; 4]; MAX_ITERS + 1];
    for (mi, _) in methods.iter().enumerate() {
        let mut graphs: Vec<_> = (0..runs)
            .map(|s| initial(mi, &dist, 0xF164 + s * 13))
            .collect();
        let base_mass = baseline.l1_norm();
        let measure = |graphs: &[graphcore::EdgeList]| {
            let mats: Vec<AttachmentMatrix> = graphs
                .iter()
                .map(|g| AttachmentMatrix::from_graph_with_layout(g, &dist))
                .collect();
            100.0 * AttachmentMatrix::average(&mats).l1_diff(&baseline) / base_mass
        };
        errors[0][mi] = measure(&graphs);
        let mut ws = swap::SwapWorkspace::new();
        for it in 1..=MAX_ITERS {
            for (s, g) in graphs.iter_mut().enumerate() {
                let seed = 0x5EED ^ ((s as u64) << 8) ^ it as u64;
                swap::try_swap_edges(g, 1, seed, &mut ws).expect("swap run");
            }
            errors[it][mi] = measure(&graphs);
        }
    }

    let mut header = vec!["iterations"];
    header.extend(methods);
    let mut table = Table::new("fig4", &header);
    for (it, row) in errors.iter().enumerate() {
        let mut cells = vec![it.to_string()];
        cells.extend(row.iter().map(|v| format!("{v:.2}")));
        table.row(cells);
    }
    table.finish();

    println!("\nsampling floor (independent uniform ensemble vs baseline): {sampling_floor:.2}");
    println!("(error = L1 difference of ensemble-averaged attachment matrices, as % of");
    println!("the baseline matrix's L1 mass; the plateau ≈ the sampling floor plus each");
    println!("method's own degree-distribution mismatch)");
    println!("expected shape (paper): O(m) starts worst (multi-edges force failed swaps)");
    println!("but all methods converge; simple methods converge within a few iterations;");
    println!("this paper's method plateaus slightly above the erased model (probability");
    println!("bias) while matching the degree distribution better (Fig. 3).");
}
