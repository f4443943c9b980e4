//! `nullgraph lfr` — LFR-like community benchmark generation (paper §VI).

use super::CliError;
use crate::args::{Parsed, Spec};
use graphcore::io;
use nullmodel::{generate_lfr, LfrConfig};
use std::io::Write;

/// The options `nullgraph lfr` accepts.
pub const SPEC: Spec = Spec {
    options: &[
        "dist",
        "mu",
        "min-comm",
        "max-comm",
        "exponent",
        "swaps",
        "seed",
        "out",
        "communities",
    ],
    flags: &["quiet"],
};

/// Run the command.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let dist_path = args.require("dist")?;
    let out_path = args.require("out")?;
    let mixing: f64 = args.require_parsed("mu")?;
    if !(0.0..=1.0).contains(&mixing) {
        return Err(CliError::Domain(format!(
            "--mu must be in [0, 1], got {mixing}"
        )));
    }
    let min_comm: u64 = args.require_parsed("min-comm")?;
    let max_comm: u64 = args.require_parsed("max-comm")?;
    if min_comm < 2 || min_comm > max_comm {
        return Err(CliError::Domain(
            "--min-comm must be >= 2 and <= --max-comm".to_string(),
        ));
    }
    let exponent: f64 = args.get_or("exponent", 1.5)?;
    let swaps: usize = args.get_or("swaps", 3)?;
    let seed: u64 = args.get_or("seed", 0)?;

    let distribution = io::read_distribution(std::fs::File::open(dist_path)?)?;
    let cfg = LfrConfig {
        distribution,
        mixing,
        community_size_min: min_comm,
        community_size_max: max_comm,
        community_exponent: exponent,
        swap_iterations: swaps,
        seed,
    };
    let out = generate_lfr(&cfg).map_err(|e| CliError::Gen(e.into()))?;
    io::save_edge_list(&out.graph, out_path)?;

    if let Some(comm_path) = args.get("communities") {
        let mut f = std::io::BufWriter::new(std::fs::File::create(comm_path)?);
        writeln!(f, "# vertex community")?;
        for (v, c) in out.communities.iter().enumerate() {
            writeln!(f, "{v} {c}")?;
        }
    }

    if !args.flag("quiet") {
        let comms = out.communities.iter().max().map_or(0, |&c| c + 1);
        println!(
            "LFR graph: {} edges, {} communities, target mu {mixing}, measured {:.3}",
            out.graph.len(),
            comms,
            out.measured_mixing
        );
        println!("lost stubs: {}", out.lost_stubs);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DegreeDistribution;

    #[test]
    fn lfr_end_to_end() {
        let dir = std::env::temp_dir().join("nullgraph_cli_lfr");
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("d.txt");
        let gpath = dir.join("g.txt");
        let cpath = dir.join("c.txt");
        let dist = DegreeDistribution::from_pairs(vec![(4, 200), (8, 50)]).unwrap();
        io::write_distribution(&dist, std::fs::File::create(&dpath).unwrap()).unwrap();
        let args = Parsed::parse(
            &[
                "--dist".into(),
                dpath.to_str().unwrap().into(),
                "--out".into(),
                gpath.to_str().unwrap().into(),
                "--mu".into(),
                "0.2".into(),
                "--min-comm".into(),
                "10".into(),
                "--max-comm".into(),
                "50".into(),
                "--communities".into(),
                cpath.to_str().unwrap().into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&args).unwrap();
        let g = io::load_edge_list(&gpath).unwrap();
        assert!(g.is_simple());
        let communities = std::fs::read_to_string(&cpath).unwrap();
        assert_eq!(communities.lines().count(), 251); // header + 250 vertices
    }

    #[test]
    fn bad_mu_rejected() {
        let args = Parsed::parse(
            &[
                "--dist".into(),
                "x".into(),
                "--out".into(),
                "y".into(),
                "--mu".into(),
                "1.5".into(),
                "--min-comm".into(),
                "10".into(),
                "--max-comm".into(),
                "50".into(),
            ],
            &SPEC,
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }
}
