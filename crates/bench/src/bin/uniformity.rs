//! Section III-A validation: the swap procedure produces a minimally-biased
//! uniform sample (the paper repeats experiments from Milo et al. \[22\]).
//!
//! For several small degree sequences we enumerate **every** labeled simple
//! realization by brute force, then repeatedly run Havel-Hakimi + swap
//! sweeps and count how often each realization appears. Uniform sampling
//! means the counts pass a χ² test against the flat distribution.
//!
//! ```text
//! cargo run -p bench --release --bin uniformity
//! ```

use bench::{runs_or, Table};
use graphcore::{DegreeSequence, Edge};
use std::collections::HashMap;

/// All labeled simple graphs realizing `degs`, as sorted key vectors.
fn enumerate_realizations(degs: &[u32]) -> Vec<Vec<u64>> {
    let n = degs.len();
    let pairs: Vec<(u32, u32)> = (0..n as u32)
        .flat_map(|u| ((u + 1)..n as u32).map(move |v| (u, v)))
        .collect();
    assert!(pairs.len() <= 28, "brute force limited to n <= 8");
    let target_edges: u32 = degs.iter().sum::<u32>() / 2;
    let mut out = Vec::new();
    for mask in 0u32..(1 << pairs.len()) {
        if mask.count_ones() != target_edges {
            continue;
        }
        let mut deg = vec![0u32; n];
        let mut keys = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            if mask >> i & 1 == 1 {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                keys.push(Edge::new(u, v).key());
            }
        }
        if deg == degs {
            keys.sort_unstable();
            out.push(keys);
        }
    }
    out
}

fn main() {
    println!("Section III-A validation: uniform sampling over enumerated realizations\n");
    let sequences: Vec<(&str, Vec<u32>)> = vec![
        ("3 matchings", vec![1, 1, 1, 1]),
        ("triangle+edge family", vec![2, 2, 2, 1, 1]),
        ("path family", vec![1, 2, 2, 2, 1]),
        ("star+triangle mix", vec![3, 2, 2, 2, 1]),
        ("near-regular 6", vec![2, 2, 2, 2, 1, 1]),
    ];
    let trials = runs_or(4000);
    let mut table = Table::new(
        "uniformity",
        &["sequence", "states", "trials", "chi2", "dof", "verdict"],
    );
    for (name, degs) in sequences {
        let support = enumerate_realizations(&degs);
        let states = support.len();
        if states < 2 {
            continue;
        }
        let start = generators::havel_hakimi_sequence(&DegreeSequence::new(degs.clone())).unwrap();
        let mut counts: HashMap<Vec<u64>, u64> = HashMap::new();
        let mut ws = swap::SwapWorkspace::new();
        ws.set_serial(true);
        for t in 0..trials {
            let mut g = start.clone();
            swap::try_swap_edges(&mut g, 14, 0xDEAD ^ t, &mut ws).expect("swap run");
            let mut keys: Vec<u64> = g.edges().iter().map(|e| e.key()).collect();
            keys.sort_unstable();
            *counts.entry(keys).or_insert(0) += 1;
        }
        let expect = trials as f64 / states as f64;
        let chi2: f64 = support
            .iter()
            .map(|k| {
                let c = *counts.get(k).unwrap_or(&0) as f64;
                (c - expect) * (c - expect) / expect
            })
            .sum();
        let dof = states - 1;
        // 99th-percentile χ² critical values for small dof.
        let critical = [
            0.0, 6.63, 9.21, 11.34, 13.28, 15.09, 16.81, 18.48, 20.09, 21.67,
        ];
        let crit = critical
            .get(dof)
            .copied()
            .unwrap_or(2.0 * dof as f64 + 15.0);
        let verdict = if chi2 < crit { "uniform" } else { "BIASED?" };
        table.row(vec![
            name.to_string(),
            states.to_string(),
            trials.to_string(),
            format!("{chi2:.1}"),
            dof.to_string(),
            verdict.to_string(),
        ]);
    }
    table.finish();
    println!("\nuniform = χ² below the 99th percentile for the given degrees of freedom;");
    println!("every realization of each sequence is reached and equally likely.");
}
