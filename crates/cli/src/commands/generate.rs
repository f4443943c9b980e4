//! `nullgraph generate` — problem 2: degree distribution → uniform simple
//! graph.

use super::CliError;
use crate::args::{Parsed, Spec};
use graphcore::io;
use nullmodel::{try_generate_from_distribution, GeneratorConfig, ValidationReport};

/// The options `nullgraph generate` accepts.
pub const SPEC: Spec = Spec {
    options: &[
        "dist",
        "out",
        "seed",
        "swaps",
        "refine",
        "refine-tol",
        "shards",
        "key-width",
        "metrics",
        "fault-log",
    ],
    flags: &["quiet"],
};

/// Run the command.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let dist_path = args.require("dist")?;
    let out_path = args.require("out")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let swaps: usize = args.get_or("swaps", 10)?;
    let refine: usize = args.get_or("refine", 0)?;

    let dist = io::read_distribution(std::fs::File::open(dist_path)?)?;
    let metrics = super::metrics_registry(args)?;
    let mut cfg = GeneratorConfig::new(seed)
        .with_swap_iterations(swaps)
        .with_refine_rounds(refine);
    if args.get("refine-tol").is_some() {
        cfg = cfg.with_refine_tolerance(args.require_parsed("refine-tol")?);
    }
    if let Some(shards) = super::shards_arg(args)? {
        cfg = cfg.with_swap_shards(shards);
    }
    cfg = cfg.with_key_width(super::key_width_arg(args)?);
    if let Some(m) = &metrics {
        cfg = cfg.with_metrics(m.clone());
    }
    let result = try_generate_from_distribution(&dist, &cfg);
    // The snapshot is written even when generation fails: partial phase
    // counters are exactly what a failure post-mortem needs. On success
    // the swap kernel's recovery log rides along inside it.
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            super::write_metrics_snapshot(args, metrics.as_ref(), None)?;
            return Err(e.into());
        }
    };
    super::write_metrics_snapshot(args, metrics.as_ref(), Some(&out.swap_stats.events))?;
    super::write_fault_log(args, &out.swap_stats.events)?;
    io::save_edge_list(&out.graph, out_path)?;

    if !args.flag("quiet") {
        println!(
            "generated {} edges over {} vertices -> {}",
            out.graph.len(),
            out.graph.num_vertices(),
            out_path
        );
        println!("timings: {}", out.timings);
        println!(
            "probability residual: {:.3}%",
            100.0 * out.probability_residual
        );
        if let Some(r) = &out.refine {
            println!(
                "refinement: residual {:.6} <= tolerance {:.6} after {} rounds",
                r.residual, r.tolerance, r.rounds_run
            );
        }
        println!("{}", ValidationReport::measure(&out.graph, &dist));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DegreeDistribution;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nullgraph_cli_generate");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn generates_simple_graph_from_distribution_file() {
        let dist = DegreeDistribution::from_pairs(vec![(2, 60), (4, 20)]).unwrap();
        let dpath = tmp("d.txt");
        let gpath = tmp("g.txt");
        io::write_distribution(&dist, std::fs::File::create(&dpath).unwrap()).unwrap();
        let args = Parsed::parse(
            &[
                "--dist".into(),
                dpath.to_str().unwrap().into(),
                "--out".into(),
                gpath.to_str().unwrap().into(),
                "--seed".into(),
                "5".into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&args).unwrap();
        let g = io::load_edge_list(&gpath).unwrap();
        assert!(g.is_simple());
        assert!(!g.is_empty());
    }

    #[test]
    fn missing_file_is_io_error() {
        let args = Parsed::parse(
            &[
                "--dist".into(),
                "/nonexistent/d.txt".into(),
                "--out".into(),
                "/tmp/x.txt".into(),
            ],
            &SPEC,
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Io(_))));
    }
}
