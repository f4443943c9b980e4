//! Fig. 1: approximate (Chung-Lu) vs empirical (uniform random) attachment
//! probabilities between the largest-degree vertex and every other degree,
//! for the AS-733-like degree distribution.
//!
//! The Chung-Lu closed form `d_max·d / 2m` dramatically overshoots (it
//! exceeds 1 for much of the degree range); the empirical probabilities of
//! a properly uniform sample saturate.
//!
//! ```text
//! cargo run -p bench --release --bin fig1
//! ```

use bench::{runs_or, Table};
use datasets::Profile;
use graphcore::metrics::AttachmentMatrix;

fn main() {
    let dist = Profile::As20.distribution(1);
    let dmax = dist.max_degree();
    println!(
        "Fig. 1: attachment probabilities of the d_max = {dmax} vertex (as20-like, n = {}, m = {})\n",
        dist.num_vertices(),
        dist.num_edges()
    );

    // Uniform-random sample: Havel-Hakimi + swaps, averaged over an
    // ensemble (the paper samples 100 generated graphs).
    let runs = runs_or(100);
    let mats: Vec<AttachmentMatrix> = (0..runs)
        .map(|s| {
            let g = nullmodel::try_uniform_reference(&dist, 16, 0xF161 + s)
                .expect("profile is graphical");
            AttachmentMatrix::from_graph_with_layout(&g, &dist)
        })
        .collect();
    let empirical = AttachmentMatrix::average(&mats);
    let analytic = AttachmentMatrix::chung_lu_analytic(&dist);

    let mut table = Table::new("fig1", &["degree", "chung_lu", "uniform_random"]);
    let mut over_one = 0usize;
    for &d in dist.degrees() {
        let cl = analytic.prob(dmax, d);
        let emp = empirical.prob(dmax, d);
        if cl > 1.0 {
            over_one += 1;
        }
        table.row(vec![d.to_string(), format!("{cl:.4}"), format!("{emp:.4}")]);
    }
    table.finish();
    println!(
        "\n{} of {} degree classes have Chung-Lu probability > 1 (impossible);",
        over_one,
        dist.num_classes()
    );
    println!("the empirical uniform-random curve saturates below 1 — the paper's Fig. 1 shape.");
}
