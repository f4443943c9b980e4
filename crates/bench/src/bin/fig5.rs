//! Fig. 5: shared-memory end-to-end generation times for the various
//! generators, one double-edge-swap iteration each (the paper's
//! consistency convention, since mixing time is graph-dependent).
//!
//! ```text
//! cargo run -p bench --release --bin fig5
//! ```

use bench::{default_scale, eng, Table};
use datasets::Profile;
use graphcore::DegreeDistribution;
use nullmodel::{try_generate_from_distribution, GeneratorConfig};
use std::time::Instant;

fn time_with_one_swap(build: impl FnOnce() -> graphcore::EdgeList) -> f64 {
    let t = Instant::now();
    let mut g = build();
    swap::try_swap_edges(&mut g, 1, 0x515, &mut swap::SwapWorkspace::new()).expect("swap run");
    t.elapsed().as_secs_f64()
}

fn main() {
    println!("Fig. 5: end-to-end generation time (seconds), 1 swap iteration\n");
    let mut table = Table::new(
        "fig5",
        &[
            "Network",
            "m",
            "O(m)",
            "O(m) simple",
            "O(n^2) edgeskip",
            "this paper",
        ],
    );
    for profile in Profile::all() {
        let dist: DegreeDistribution = profile.distribution(default_scale(profile));
        let m = dist.num_edges();

        let t_om = time_with_one_swap(|| generators::chung_lu_om(&dist, 1));
        let t_erased = time_with_one_swap(|| generators::erased_chung_lu(&dist, 2).0);
        let t_bern = time_with_one_swap(|| generators::bernoulli_edgeskip(&dist, 3));
        let t_ours = {
            let t = Instant::now();
            let cfg = GeneratorConfig::new(4).with_swap_iterations(1);
            try_generate_from_distribution(&dist, &cfg).expect("profile is servable");
            t.elapsed().as_secs_f64()
        };

        table.row(vec![
            profile.name().to_string(),
            eng(m),
            format!("{t_om:.3}"),
            format!("{t_erased:.3}"),
            format!("{t_bern:.3}"),
            format!("{t_ours:.3}"),
        ]);
    }
    table.finish();
    println!("\nexpected shape (paper): methods comparable at small scale; at large scale the");
    println!("edge-skipping methods win because the O(m) models pay a binary search per draw.");
    println!("(absolute numbers are not comparable to the paper's 16-core node — this runs on");
    println!(
        "{} thread(s); see EXPERIMENTS.md)",
        rayon::current_num_threads()
    );
}
