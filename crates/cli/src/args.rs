//! A minimal argument parser: `--key value` options, `--flag` booleans and
//! bare positionals. Small enough to own; no external dependency needed.
//!
//! Each command declares the options it accepts in a [`Spec`]; any other
//! `--key` is a usage error, so a misspelled or retired option can never
//! be silently ignored.

use std::collections::{HashMap, HashSet};
use std::fmt;

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Parsed {
    options: HashMap<String, String>,
    flags: HashSet<String>,
    positionals: Vec<String>,
}

/// Argument-parsing and lookup errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` appeared twice.
    Duplicate(String),
    /// A required option was absent.
    Missing(String),
    /// An option's value failed to parse.
    Invalid {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// `--key` is not an option of this command.
    Unknown(String),
    /// Two options that cannot be combined (e.g. `--resume` with `--seed`:
    /// the checkpoint already fixes the seed).
    Conflict {
        /// The offending option.
        key: String,
        /// The option it clashes with.
        other: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Duplicate(k) => write!(f, "option --{k} given more than once"),
            Self::Missing(k) => write!(f, "missing required option --{k}"),
            Self::Unknown(k) => write!(f, "unknown option --{k} (see 'nullgraph help')"),
            Self::Invalid {
                key,
                value,
                expected,
            } => write!(f, "option --{key}: '{value}' is not a valid {expected}"),
            Self::Conflict { key, other } => {
                write!(f, "option --{key} cannot be combined with --{other}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// The options one command accepts.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// `--key value` options.
    pub options: &'static [&'static str],
    /// Boolean `--flag`s.
    pub flags: &'static [&'static str],
}

impl Parsed {
    /// Parse raw arguments against the command's [`Spec`].
    pub fn parse(argv: &[String], spec: &Spec) -> Result<Self, ArgError> {
        let mut out = Parsed::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if spec.flags.contains(&key) {
                    out.flags.insert(key.to_string());
                } else if spec.options.contains(&key) {
                    let value = it.next().cloned().unwrap_or_default();
                    if out.options.insert(key.to_string(), value).is_some() {
                        return Err(ArgError::Duplicate(key.to_string()));
                    }
                } else {
                    return Err(ArgError::Unknown(key.to_string()));
                }
            } else {
                out.positionals.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| ArgError::Missing(key.to_string()))
    }

    /// An optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// An optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::Invalid {
                key: key.to_string(),
                value: raw.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A required typed option.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| ArgError::Invalid {
            key: key.to_string(),
            value: raw.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }

    /// `true` when a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.contains(key)
    }

    /// Bare positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        options: &["seed", "out", "mu"],
        flags: &["track", "quiet"],
    };

    fn try_parse(s: &[&str]) -> Result<Parsed, ArgError> {
        Parsed::parse(&s.iter().map(|x| x.to_string()).collect::<Vec<_>>(), &SPEC)
    }

    fn parse(s: &[&str]) -> Parsed {
        try_parse(s).unwrap()
    }

    #[test]
    fn options_flags_positionals() {
        let p = parse(&["--seed", "42", "--track", "pos1", "--out", "f.txt"]);
        assert_eq!(p.require("seed").unwrap(), "42");
        assert_eq!(p.get("out"), Some("f.txt"));
        assert!(p.flag("track"));
        assert!(!p.flag("quiet"));
        assert_eq!(p.positionals(), &["pos1".to_string()]);
    }

    #[test]
    fn typed_getters() {
        let p = parse(&["--seed", "42", "--mu", "0.25"]);
        assert_eq!(p.get_or("seed", 0u64).unwrap(), 42);
        assert_eq!(p.get_or("missing", 7u64).unwrap(), 7);
        assert!((p.require_parsed::<f64>("mu").unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn errors() {
        let p = parse(&["--seed", "forty-two"]);
        assert!(matches!(
            p.get_or("seed", 0u64),
            Err(ArgError::Invalid { .. })
        ));
        assert_eq!(p.require("out"), Err(ArgError::Missing("out".to_string())));
        let dup = try_parse(&["--seed", "1", "--seed", "2"]);
        assert_eq!(dup.unwrap_err(), ArgError::Duplicate("seed".to_string()));
    }

    #[test]
    fn unknown_options_and_flags_are_rejected() {
        // Misspellings must not be swallowed as options nobody reads.
        for (argv, key) in [
            (&["--sed", "4"][..], "sed"),
            (&["--seed", "4", "--iteration", "50"][..], "iteration"),
            (&["--verbose"][..], "verbose"),
            (&["--until-mixed", "--seed", "1"][..], "until-mixed"),
        ] {
            assert_eq!(
                try_parse(argv).unwrap_err(),
                ArgError::Unknown(key.to_string()),
                "{argv:?}"
            );
        }
        // A flag of the command never swallows the next token as a value.
        let p = parse(&["--track", "--seed", "3"]);
        assert!(p.flag("track"));
        assert_eq!(p.get("seed"), Some("3"));
    }

    #[test]
    fn option_without_value_is_empty() {
        let p = parse(&["--out"]);
        assert!(p.require("out").is_err());
    }
}
