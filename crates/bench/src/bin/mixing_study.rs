//! Section IX study: the paper conjectures that the number of swap
//! iterations required for mixing is proportional to the chance of an
//! unsuccessful swap, which relates to graph **density** and **degree
//! skew**. This binary measures both relationships empirically:
//!
//! * acceptance rate and iterations-to-99%-swapped across Erdős–Rényi-like
//!   flat distributions of increasing density;
//! * the same across power-law profiles of increasing skew at fixed m.
//!
//! ```text
//! cargo run -p bench --release --bin mixing_study
//! ```

use bench::Table;
use datasets::PowerLawSpec;
use graphcore::metrics::gini_distribution;
use graphcore::DegreeDistribution;

const ITERS: usize = 40;

fn measure(
    dist: &DegreeDistribution,
    seed: u64,
    ws: &mut swap::SwapWorkspace,
) -> (f64, Option<usize>) {
    let mut g = generators::havel_hakimi(dist).expect("graphical");
    let stats = swap::try_swap_edges(&mut g, ITERS, seed, ws).expect("swap run");
    let acc: f64 = stats
        .iterations
        .iter()
        .map(swap::IterationStats::acceptance_rate)
        .sum::<f64>()
        / ITERS as f64;
    (acc, stats.iterations_to_mix(0.99))
}

fn main() {
    println!("Section IX: mixing time vs density and skew ({ITERS} iteration cap)\n");
    let mut ws = swap::SwapWorkspace::new();

    println!("--- density sweep (d-regular, n = 2000) ---");
    let mut t = Table::new(
        "mixing_density",
        &[
            "degree",
            "density",
            "mean acceptance",
            "iters to 99% swapped",
        ],
    );
    for &d in &[2u32, 4, 8, 16, 32, 64, 128, 256] {
        let dist = DegreeDistribution::from_pairs(vec![(d, 2000)]).expect("even");
        let (acc, mix) = measure(&dist, 0xD0 + d as u64, &mut ws);
        t.row(vec![
            d.to_string(),
            format!("{:.4}", d as f64 / 1999.0),
            format!("{acc:.3}"),
            mix.map_or("> cap".into(), |i| i.to_string()),
        ]);
    }
    t.finish();

    println!("\n--- skew sweep (power law, n = 2000, d_max grows) ---");
    let mut t = Table::new(
        "mixing_skew",
        &["d_max", "gini", "mean acceptance", "iters to 99% swapped"],
    );
    for &dmax in &[8u32, 32, 128, 512, 1024, 1600] {
        let dist = PowerLawSpec {
            n: 2000,
            gamma: 1.8,
            d_min: 1,
            d_max: dmax,
        }
        .distribution();
        let (acc, mix) = measure(&dist, 0x5E + dmax as u64, &mut ws);
        t.row(vec![
            dmax.to_string(),
            format!("{:.3}", gini_distribution(&dist)),
            format!("{acc:.3}"),
            mix.map_or("> cap".into(), |i| i.to_string()),
        ]);
    }
    t.finish();

    println!("\nexpected: acceptance falls (and iterations-to-mix rises) with both");
    println!("density and skew — supporting the paper's §IX conjecture that required");
    println!("iterations track the failed-swap probability.");
}
