//! `nullgraph directed` — directed null models: generate from a joint
//! in/out degree distribution, or mix an existing directed edge list.

use super::CliError;
use crate::args::{Parsed, Spec};
use directed::{
    generate_directed_from_distribution, io as dio, reciprocity, DirectedGeneratorConfig,
};
use swap::SwapWorkspace;

/// The options `nullgraph directed` accepts.
pub const SPEC: Spec = Spec {
    options: &["dist", "input", "out", "seed", "swaps", "iterations"],
    flags: &["quiet"],
};

/// Run the command. Mode is selected by the options present: `--dist`
/// generates, `--input` mixes.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    match (args.get("dist"), args.get("input")) {
        (Some(dist_path), None) => generate(args, dist_path),
        (None, Some(in_path)) => mix(args, in_path),
        _ => Err(CliError::Domain(
            "pass exactly one of --dist (generate) or --input (mix)".to_string(),
        )),
    }
}

fn generate(args: &Parsed, dist_path: &str) -> Result<(), CliError> {
    let out_path = args.require("out")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let swaps: usize = args.get_or("swaps", 10)?;
    let dist = dio::read_joint_distribution(std::fs::File::open(dist_path)?)?;
    let cfg = DirectedGeneratorConfig {
        swap_iterations: swaps,
        seed,
    };
    let g = generate_directed_from_distribution(&dist, &cfg)?;
    dio::save_diedge_list(&g, out_path)?;
    if !args.flag("quiet") {
        println!(
            "generated digraph: {} edges over {} vertices (target m {}), simple = {}",
            g.len(),
            g.num_vertices(),
            dist.num_edges(),
            g.is_simple()
        );
        println!("reciprocity: {:.4}", reciprocity(&g));
    }
    Ok(())
}

fn mix(args: &Parsed, in_path: &str) -> Result<(), CliError> {
    let out_path = args.require("out")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let iterations: usize = args.get_or("iterations", 10)?;
    let mut g = dio::load_diedge_list(in_path)?;
    let before = g.joint_degrees();
    let before_recip = reciprocity(&g);
    let stats = swap::try_swap_edges(&mut g, iterations, seed, &mut SwapWorkspace::new())?;
    debug_assert_eq!(g.joint_degrees(), before);
    dio::save_diedge_list(&g, out_path)?;
    if !args.flag("quiet") {
        println!(
            "mixed digraph: {} accepted swaps over {iterations} iterations",
            stats.total_successful()
        );
        println!("reciprocity: {:.4} -> {:.4}", before_recip, reciprocity(&g));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use directed::DiDegreeDistribution;

    #[test]
    fn generate_then_mix() {
        let dir = std::env::temp_dir().join("nullgraph_cli_directed");
        std::fs::create_dir_all(&dir).unwrap();
        let dpath = dir.join("jd.txt");
        let gpath = dir.join("dg.txt");
        let mpath = dir.join("dm.txt");

        let dist = DiDegreeDistribution::from_pairs(vec![((1, 1), 60), ((3, 3), 10)]).unwrap();
        dio::write_joint_distribution(&dist, std::fs::File::create(&dpath).unwrap()).unwrap();

        let gen_args = Parsed::parse(
            &[
                "--dist".into(),
                dpath.to_str().unwrap().into(),
                "--out".into(),
                gpath.to_str().unwrap().into(),
                "--seed".into(),
                "3".into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&gen_args).unwrap();

        let mix_args = Parsed::parse(
            &[
                "--input".into(),
                gpath.to_str().unwrap().into(),
                "--out".into(),
                mpath.to_str().unwrap().into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&mix_args).unwrap();

        let a = dio::load_diedge_list(&gpath).unwrap();
        let b = dio::load_diedge_list(&mpath).unwrap();
        assert_eq!(a.joint_distribution(), b.joint_distribution());
        assert!(b.is_simple());
    }

    #[test]
    fn both_modes_rejected() {
        let args = Parsed::parse(
            &["--dist".into(), "a".into(), "--input".into(), "b".into()],
            &SPEC,
        )
        .unwrap();
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }
}
