//! `nullgraph stats` — structural statistics of an edge list.

use super::CliError;
use crate::args::{Parsed, Spec};
use graphcore::analysis::{assortativity, global_clustering, largest_component_size};
use graphcore::csr::Csr;
use graphcore::io;
use graphcore::metrics::gini;

/// The options `nullgraph stats` accepts.
pub const SPEC: Spec = Spec {
    options: &["input"],
    flags: &[],
};

/// Run the command.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let in_path = args.require("input")?;
    let graph = io::load_edge_list(in_path)?;
    let seq = graph.degree_sequence();
    let report = graph.simplicity_report();

    println!("vertices:        {}", graph.num_vertices());
    println!("edges:           {}", graph.len());
    println!(
        "simple:          {} ({} self loops, {} multi-edges)",
        report.is_simple(),
        report.self_loops,
        report.multi_edges
    );
    println!("max degree:      {}", seq.max_degree());
    println!(
        "avg degree:      {:.2}",
        if graph.num_vertices() > 0 {
            seq.stub_sum() as f64 / graph.num_vertices() as f64
        } else {
            0.0
        }
    );
    println!(
        "unique degrees:  {}",
        graph.degree_distribution().num_classes()
    );
    println!("gini:            {:.4}", gini(&seq));
    println!("assortativity:   {:+.4}", assortativity(&graph));
    if report.is_simple() {
        println!("clustering:      {:.4}", global_clustering(&graph));
        println!(
            "triangles:       {}",
            Csr::from_edge_list(&graph).triangle_count()
        );
    }
    println!("largest comp.:   {}", largest_component_size(&graph));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::EdgeList;

    #[test]
    fn stats_on_triangle() {
        let dir = std::env::temp_dir().join("nullgraph_cli_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tri.txt");
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (0, 2)]);
        io::save_edge_list(&g, &path).unwrap();
        let args =
            Parsed::parse(&["--input".into(), path.to_str().unwrap().into()], &SPEC).unwrap();
        run(&args).unwrap();
    }

    #[test]
    fn missing_input_fails() {
        let args = Parsed::parse(&["--input".into(), "/no/such/file".into()], &SPEC).unwrap();
        assert!(matches!(run(&args), Err(CliError::Io(_))));
    }
}
