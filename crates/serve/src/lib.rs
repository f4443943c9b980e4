//! Null-model-as-a-service: an HTTP+JSON ensemble server with a
//! robustness-first control plane.
//!
//! Every downstream consumer of the generator follows one shape — submit
//! an observed graph, generate an *ensemble* of null models, stream
//! statistics over it. This crate serves that shape directly, hand-rolled
//! over `std::net` (the workspace is dependency-free): a small acceptor +
//! handler-pool + worker-pool arrangement where the interesting part is
//! not the HTTP but the **control plane** wrapped around the mixing
//! kernel:
//!
//! * **bounded admission** — a fixed-capacity job queue; a full queue
//!   sheds with the typed `overloaded` error (`GenError::Overloaded`,
//!   exit code 11 at the CLI) and a `Retry-After`, never a backlog;
//! * **durable acceptance** — spec and input are fsynced before the 202
//!   leaves the socket, so an accepted job survives any crash;
//! * **per-job budgets and recovery** — each job maps its deadline onto
//!   [`swap::MixingBudget`] and its fault tolerance onto
//!   [`swap::RecoveryPolicy`], so one tenant's grow-and-retry storm or
//!   runaway deadline cannot starve others;
//! * **cooperative cancel / graceful drain** — both ride the same
//!   interrupt flag the CLI's signal handler uses; drain checkpoints
//!   in-flight members via the `ckpt` crate and exits cleanly;
//! * **restart-and-resume** — the boot-time recovery scan re-admits every
//!   owed job; because the sweep index is the RNG position, the final
//!   ensemble after any number of kills and restarts is byte-identical to
//!   an uninterrupted run (the reference being
//!   [`nullmodel::try_mix_ensemble_from_edge_list`]).
//!
//! # Endpoints
//!
//! | method & path              | purpose                                  |
//! |----------------------------|------------------------------------------|
//! | `POST /jobs?samples=&sweeps=&seed=…` | submit (body: edge list) → 202 / 503 |
//! | `GET /jobs/<id>`           | status JSON (+ `timings_ms` once run)    |
//! | `GET /jobs/<id>/samples/<k>` | completed member `k` (edge list)       |
//! | `GET /jobs/<id>/stream`    | members as they complete (close-delim.)  |
//! | `POST /jobs/<id>/cancel`   | cooperative cancel                       |
//! | `GET /healthz`             | liveness + drain flag                    |
//! | `GET /metrics`             | [`obs::ServeMetrics`] snapshot           |
//! | `POST /admin/drain`        | graceful drain (same path as SIGTERM)    |

pub mod client;
pub mod http;
pub mod job;
pub mod json;
mod server;

pub use job::{JobSpec, Phase};
pub use server::{BootError, ServeConfig, Server};
