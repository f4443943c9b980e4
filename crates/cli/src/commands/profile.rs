//! `nullgraph profile` — emit a calibrated Table-I degree distribution.

use super::CliError;
use crate::args::{Parsed, Spec};
use datasets::Profile;
use graphcore::io;

/// Resolve a profile by its paper name (case-insensitive).
pub fn by_name(name: &str) -> Option<Profile> {
    Profile::all()
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
}

/// The options `nullgraph profile` accepts.
pub const SPEC: Spec = Spec {
    options: &["name", "scale", "out"],
    flags: &["quiet"],
};

/// Run the command.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let name = args.require("name")?;
    let profile = by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Profile::all().iter().map(|p| p.name()).collect();
        CliError::Domain(format!(
            "unknown profile '{name}'; available: {}",
            names.join(", ")
        ))
    })?;
    let scale: u64 = args.get_or("scale", 1)?;
    if scale == 0 {
        return Err(CliError::Domain("--scale must be >= 1".to_string()));
    }
    let dist = profile.distribution(scale);

    if let Some(out) = args.get("out") {
        io::write_distribution(&dist, std::fs::File::create(out)?)?;
    }
    if !args.flag("quiet") {
        println!(
            "{} (1/{scale} scale): n = {}, m = {}, d_avg = {:.1}, d_max = {}, |D| = {}",
            profile.name(),
            dist.num_vertices(),
            dist.num_edges(),
            dist.avg_degree(),
            dist.max_degree(),
            dist.num_classes()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_all_names() {
        for p in Profile::all() {
            assert_eq!(by_name(p.name()), Some(p));
            assert_eq!(by_name(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn writes_distribution_file() {
        let dir = std::env::temp_dir().join("nullgraph_cli_profile");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("meso.txt");
        let args = Parsed::parse(
            &[
                "--name".into(),
                "meso".into(),
                "--scale".into(),
                "4".into(),
                "--out".into(),
                path.to_str().unwrap().into(),
            ],
            &SPEC,
        )
        .unwrap();
        run(&args).unwrap();
        let dist = io::read_distribution(std::fs::File::open(&path).unwrap()).unwrap();
        assert!(dist.num_vertices() > 100);
    }

    #[test]
    fn unknown_profile_rejected() {
        let args = Parsed::parse(&["--name".into(), "foo".into()], &SPEC).unwrap();
        assert!(matches!(run(&args), Err(CliError::Domain(_))));
    }
}
