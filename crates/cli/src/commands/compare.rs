//! `nullgraph compare` — compare a generated graph against a target degree
//! distribution (or against another graph's distribution).

use super::CliError;
use crate::args::{Parsed, Spec};
use graphcore::io;
use graphcore::metrics::degree_ks_distance;
use nullmodel::ValidationReport;

/// The options `nullgraph compare` accepts.
pub const SPEC: Spec = Spec {
    options: &["input", "dist", "against", "tol"],
    flags: &["strict"],
};

/// Run the command: `--input <graph>` plus either `--dist <file>` or
/// `--against <other graph>`.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let in_path = args.require("input")?;
    // Validate the mode before touching the filesystem.
    let mode = match (args.get("dist"), args.get("against")) {
        (Some(d), None) => Ok(("dist", d)),
        (None, Some(a)) => Ok(("against", a)),
        _ => Err(CliError::Domain(
            "pass exactly one of --dist or --against".to_string(),
        )),
    }?;
    let graph = io::load_edge_list(in_path)?;
    let target = match mode {
        ("dist", path) => io::read_distribution(std::fs::File::open(path)?)?,
        (_, path) => io::load_edge_list(path)?.degree_distribution(),
    };
    let report = ValidationReport::measure(&graph, &target);
    println!("{report}");
    println!(
        "degree KS distance: {:.4}",
        degree_ks_distance(&graph.degree_distribution(), &target)
    );
    let tol: f64 = args.get_or("tol", 5.0)?;
    if report.passes(tol) {
        println!("PASS (within {tol}%)");
        Ok(())
    } else if args.flag("strict") {
        Err(CliError::Domain(format!("outside the {tol}% tolerance")))
    } else {
        println!("outside the {tol}% tolerance (informational; use --strict to fail)");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::DegreeDistribution;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nullgraph_cli_compare");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn exact_realization_passes() {
        let dist = DegreeDistribution::from_pairs(vec![(2, 30)]).unwrap();
        let g = generators::havel_hakimi(&dist).unwrap();
        let gpath = tmp("g.txt");
        let dpath = tmp("d.txt");
        io::save_edge_list(&g, &gpath).unwrap();
        io::write_distribution(&dist, std::fs::File::create(&dpath).unwrap()).unwrap();
        let args = Parsed::parse(
            &[
                "--input".into(),
                gpath.to_str().unwrap().into(),
                "--dist".into(),
                dpath.to_str().unwrap().into(),
                "--strict".into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn against_other_graph() {
        let dist = DegreeDistribution::from_pairs(vec![(2, 20), (4, 5)]).unwrap();
        let a = generators::havel_hakimi(&dist).unwrap();
        let apath = tmp("a.txt");
        let bpath = tmp("b.txt");
        io::save_edge_list(&a, &apath).unwrap();
        io::save_edge_list(&a, &bpath).unwrap();
        let args = Parsed::parse(
            &[
                "--input".into(),
                apath.to_str().unwrap().into(),
                "--against".into(),
                bpath.to_str().unwrap().into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn requires_exactly_one_target() {
        let args = Parsed::parse(&["--input".into(), "x".into()], &SPEC).unwrap();
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }
}
