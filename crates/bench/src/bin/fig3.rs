//! Fig. 3: error in # edges (top), d_max (middle) and Gini coefficient
//! (bottom) for each generator, per test instance.
//!
//! Generators: the O(m) Chung-Lu model (non-simple), the erased Chung-Lu
//! model ("O(m) simple"), the Bernoulli closed-form edge-skip
//! ("O(n²) edgeskip") and this paper's method.
//!
//! ```text
//! cargo run -p bench --release --bin fig3
//! ```

use bench::{default_scale, runs_or, Table};
use datasets::Profile;
use graphcore::metrics::DistributionComparison;
use graphcore::{DegreeDistribution, EdgeList};
use nullmodel::{try_generate_from_distribution, GeneratorConfig};

const GENERATORS: [&str; 4] = ["O(m)", "O(m) simple", "O(n^2) edgeskip", "this paper"];

fn generate(method: usize, dist: &DegreeDistribution, seed: u64) -> EdgeList {
    match method {
        0 => generators::chung_lu_om(dist, seed),
        1 => generators::erased_chung_lu(dist, seed).0,
        2 => generators::bernoulli_edgeskip(dist, seed),
        3 => {
            try_generate_from_distribution(
                dist,
                &GeneratorConfig::new(seed).with_swap_iterations(5),
            )
            .expect("profile is servable")
            .graph
        }
        _ => unreachable!(),
    }
}

type MetricFns = [(&'static str, fn(&DistributionComparison) -> f64); 3];

#[allow(clippy::needless_range_loop)]
fn main() {
    let runs = runs_or(3);
    println!("Fig. 3: mean |% error| vs the target distribution ({runs} seeds per cell)\n");

    let metrics: MetricFns = [
        ("edges", |c| c.edge_count_pct),
        ("d_max", |c| c.max_degree_pct),
        ("gini", |c| c.gini_pct),
    ];
    let mut tables: Vec<Table> = metrics
        .iter()
        .map(|(name, _)| {
            let mut header = vec!["Network"];
            header.extend(GENERATORS);
            Table::new(&format!("fig3_{name}"), &header)
        })
        .collect();

    for profile in Profile::all() {
        let dist = profile.distribution(default_scale(profile));
        // metric x generator accumulation
        let mut acc = [[0.0f64; 4]; 3];
        for gen in 0..4 {
            for s in 0..runs {
                let g = generate(gen, &dist, 0xF163 ^ (s * 31 + gen as u64));
                let cmp = DistributionComparison::measure(&g, &dist);
                for (mi, (_, extract)) in metrics.iter().enumerate() {
                    acc[mi][gen] += extract(&cmp).abs() / runs as f64;
                }
            }
        }
        for (mi, table) in tables.iter_mut().enumerate() {
            let mut row = vec![profile.name().to_string()];
            row.extend(acc[mi].iter().map(|v| format!("{v:.2}")));
            table.row(row);
        }
    }

    for ((name, _), table) in metrics.iter().zip(&tables) {
        println!("--- % error in {name} ---");
        table.finish();
        println!();
    }
    println!("expected shape (paper): O(m) matches edges/d_max best (it is non-simple);");
    println!("among the simple generators, 'this paper' matches edges and d_max far better");
    println!("than the erased and closed-form Bernoulli baselines.");
}
