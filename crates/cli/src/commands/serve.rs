//! `nullgraph serve` — run the ensemble server.
//!
//! The command is a thin shell around [`serve::Server`]: parse the knobs
//! into a [`serve::ServeConfig`], boot, print the bound address (tests
//! and scripts bind port 0 and read it back from stdout), then park the
//! main thread until a drain arrives — either `POST /admin/drain` over
//! HTTP or SIGINT/SIGTERM through [`crate::signal`]. Both funnel into
//! the same graceful path: stop admitting, checkpoint in-flight members,
//! join every worker, exit 0. Accepted jobs are never lost — anything
//! not finished at drain time is owed and resumes on the next boot over
//! the same `--state` directory.

use super::CliError;
use crate::args::{Parsed, Spec};
use serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Poll cadence of the parked main thread. Latency from signal to the
/// start of the drain, not a busy loop.
const POLL: Duration = Duration::from_millis(50);

/// The options `nullgraph serve` accepts.
pub const SPEC: Spec = Spec {
    options: &[
        "state",
        "addr",
        "queue-cap",
        "workers",
        "http-threads",
        "pool-cap",
        "checkpoint-wall-ms",
    ],
    flags: &["chaos", "quiet"],
};

/// Run the command. Returns when the server has fully drained.
pub fn run(args: &Parsed) -> Result<(), CliError> {
    let config = config_from_args(args)?;
    let server = Server::start(config).map_err(|e| match e {
        // A state directory we cannot write is an operator mistake, not a
        // runtime storage fault: fail fast with the typed bad_input error
        // before accepting (and then losing) any jobs.
        serve::BootError::UnwritableState { path, source } => {
            CliError::Gen(fault::GenError::BadInput {
                line: None,
                text: path.display().to_string(),
                reason: format!("--state is not writable: {source}"),
            })
        }
        serve::BootError::Io(io) => CliError::Io(io),
    })?;
    // Scripts parse this line to discover an ephemeral port; flush so a
    // piped stdout delivers it before the server blocks.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;

    let interrupt = crate::signal::install_interrupt_flag();
    loop {
        if let Some(flag) = interrupt {
            if flag.load(Ordering::Acquire) {
                server.request_drain();
            }
        }
        if server.is_draining() {
            break;
        }
        std::thread::sleep(POLL);
    }
    if !args.flag("quiet") {
        eprintln!("draining: checkpointing in-flight jobs");
    }
    server.join();
    Ok(())
}

/// Build the [`ServeConfig`] from flags, defaulting everything but
/// `--state` (durable state needs an explicit home).
fn config_from_args(args: &Parsed) -> Result<ServeConfig, CliError> {
    let mut config = ServeConfig {
        state_dir: PathBuf::from(args.require("state")?),
        ..ServeConfig::default()
    };
    if args.get("addr").is_some() {
        config.addr = args.require("addr")?.to_string();
    }
    if args.get("queue-cap").is_some() {
        config.queue_capacity = positive(args, "queue-cap")?;
    }
    if args.get("workers").is_some() {
        config.workers = positive(args, "workers")?;
    }
    if args.get("http-threads").is_some() {
        config.http_threads = positive(args, "http-threads")?;
    }
    if args.get("pool-cap").is_some() {
        // 0 is meaningful here: a pool that retains nothing.
        config.pool_capacity = args.require_parsed("pool-cap")?;
    }
    if args.get("checkpoint-wall-ms").is_some() {
        config.checkpoint_wall = Duration::from_millis(args.require_parsed("checkpoint-wall-ms")?);
    }
    // --chaos enables the chaos hooks (panic_member submissions) and
    // routes every durable write through the process-wide CLI VFS, which
    // honours NULLGRAPH_CHAOS_OPS fault scripts.
    if args.flag("chaos") {
        config.chaos = true;
    }
    config.vfs = std::sync::Arc::clone(super::cli_vfs());
    Ok(config)
}

fn positive(args: &Parsed, key: &str) -> Result<usize, CliError> {
    let n: usize = args.require_parsed(key)?;
    if n == 0 {
        return Err(CliError::Args(crate::args::ArgError::Invalid {
            key: key.to_string(),
            value: "0".to_string(),
            expected: "a count >= 1",
        }));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Parsed {
        Parsed::parse(
            &argv.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            &SPEC,
        )
        .unwrap()
    }

    #[test]
    fn state_is_required() {
        let err = config_from_args(&parse(&["--addr", "127.0.0.1:0"])).unwrap_err();
        assert!(matches!(err, CliError::Args(_)));
    }

    #[test]
    fn knobs_override_defaults() {
        let cfg = config_from_args(&parse(&[
            "--state",
            "/tmp/s",
            "--addr",
            "127.0.0.1:0",
            "--queue-cap",
            "5",
            "--workers",
            "2",
            "--pool-cap",
            "0",
            "--checkpoint-wall-ms",
            "250",
        ]))
        .unwrap();
        assert_eq!(cfg.state_dir, PathBuf::from("/tmp/s"));
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.queue_capacity, 5);
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.pool_capacity, 0);
        assert_eq!(cfg.checkpoint_wall, Duration::from_millis(250));
    }

    #[test]
    fn zero_counts_are_usage_errors() {
        for key in ["--queue-cap", "--workers", "--http-threads"] {
            let err = config_from_args(&parse(&["--state", "/tmp/s", key, "0"])).unwrap_err();
            assert!(matches!(err, CliError::Args(_)), "{key}=0 must be rejected");
        }
    }
}
