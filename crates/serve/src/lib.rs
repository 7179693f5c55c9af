//! Simulation-as-a-service: the `mis-serve` daemon and its client.
//!
//! The paper's claims are statistical, so real use of this reproduction is
//! thousands of queued runs. This crate turns the deterministic engine
//! stack into a std-only TCP daemon speaking newline-delimited JSON (one
//! request object per line, one response object per line, over the
//! hand-rolled [`mis_beeping::json`] tree — no serde, no registry deps).
//!
//! Determinism is the whole trick: every result is a pure function of
//! (graph, config, seed range), so the daemon backs itself with a
//! **content-addressed cache** — requests are canonicalised
//! ([`request::RunRequest::canonical_json`]), digested with FNV-1a
//! ([`request::cache_key`]), and a repeat request is served byte-identically
//! from the store with zero engine work.
//!
//! The crate is layered as config / handlers / store (the pod2-client
//! server layering):
//!
//! | Module | Layer |
//! |--------|-------|
//! | [`config`] | [`ServeConfig`] — address, cache dir, worker counts, frame cap |
//! | [`protocol`] | framing both ways (bounded line reader, one-write frames) and typed error replies |
//! | [`request`] | request parsing, validation, canonicalisation, cache keys |
//! | [`store`] | [`ResultStore`] — content-addressed payloads + hit/miss stats |
//! | [`jobs`] | job table, FIFO queue, and the engine-executing workers |
//! | [`handlers`] | one function per protocol command |
//! | [`server`] | [`Server`] — listener, connection threads, lifecycle |
//! | [`client`] | [`ServeClient`] — the blocking client used by tests and CI |
//!
//! # Examples
//!
//! ```
//! use mis_beeping::json::Json;
//! use mis_serve::{ServeClient, ServeConfig, Server};
//!
//! let handle = Server::spawn(ServeConfig::default().with_addr("127.0.0.1:0")).unwrap();
//! let mut client = ServeClient::connect(handle.addr()).unwrap();
//! let request = Json::parse(
//!     r#"{"graph": {"generator": "cycle", "n": 16},
//!         "algorithm": {"family": "feedback"},
//!         "seed": "7", "runs": 2}"#,
//! )
//! .unwrap();
//! let reply = client.run_to_completion(&request).unwrap();
//! assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod handlers;
pub mod jobs;
pub mod protocol;
pub mod request;
pub mod server;
pub mod store;

pub use client::ServeClient;
pub use config::ServeConfig;
pub use protocol::{error_reply, Frame};
pub use request::{cache_key, graph_digest, GraphSpec, RequestError, RunRequest};
pub use server::{Server, ServerHandle};
pub use store::{CacheStats, ResultStore};
