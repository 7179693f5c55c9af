//! Synchronous beeping-model network simulator.
//!
//! This crate implements the execution model of *“Feedback from nature”*
//! (Scott, Jeavons & Xu, PODC 2013) and of the Afek et al. algorithms it
//! builds on: a fully synchronous network where, in each time step, every
//! node may emit a one-bit **beep** heard by all of its neighbours. A node
//! learns only the *OR* of its neighbours' signals — no counts, no sender
//! identities, no payloads.
//!
//! Following Table 1 of the paper, each time step consists of **two
//! exchanges**:
//!
//! 1. *first exchange* — candidate beeps (“I wish to join the MIS”);
//! 2. *second exchange* — join announcements (“I have joined”), emitted by
//!    candidates that heard silence.
//!
//! The per-node automaton is supplied via the [`BeepingProcess`] trait and
//! constructed per node by a [`ProcessFactory`]; the [`Simulator`] drives
//! rounds until every node is inactive, collecting [`Metrics`] (rounds,
//! beeps per node, channel bits). An observer passed to
//! [`Simulator::run_with_observer`] sees every round as a [`RoundView`].
//!
//! Fault injection ([`FaultPlan`]) provides the robustness extensions the
//! paper's §6 discusses: per-delivery message loss and late node wake-ups,
//! with an optional “MIS members keep announcing” repair.
//!
//! Two execution-engine features serve statistical workloads at scale: the
//! default [`PropagationKernel::Bitset`] computes beep propagation on
//! packed `u64` words (the scalar reference stays selectable via
//! [`SimConfig::with_kernel`]), and the [`batch`] module derives the seeds
//! of many independent runs and fans them across worker threads with
//! bit-identical, seed-ordered results.
//!
//! # Examples
//!
//! A minimal constant-probability process (the `p = ½` special case of the
//! paper's feedback algorithm) selecting an MIS on a small cycle:
//!
//! ```
//! use mis_beeping::{
//!     BeepingProcess, FnFactory, NetworkInfo, SimConfig, Simulator, Verdict,
//! };
//! use rand::{rngs::SmallRng, Rng};
//!
//! struct Coin {
//!     beeped: bool,
//!     heard: bool,
//! }
//!
//! impl BeepingProcess for Coin {
//!     fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
//!         self.beeped = rng.random_bool(0.5);
//!         self.beeped
//!     }
//!     fn exchange2(&mut self, heard: bool) -> bool {
//!         self.heard = heard;
//!         self.beeped && !heard
//!     }
//!     fn end_round(&mut self, heard_join: bool) -> Verdict {
//!         if self.beeped && !self.heard {
//!             Verdict::JoinMis
//!         } else if heard_join {
//!             Verdict::Covered
//!         } else {
//!             Verdict::Continue
//!         }
//!     }
//!     fn beep_probability(&self) -> f64 {
//!         0.5
//!     }
//! }
//!
//! let graph = mis_graph::generators::cycle(8);
//! let factory = FnFactory(|_, _, _: &NetworkInfo| Coin {
//!     beeped: false,
//!     heard: false,
//! });
//! let outcome = Simulator::new(&graph, &factory, 42, SimConfig::default()).run();
//! assert!(outcome.terminated());
//! assert!(!outcome.mis().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod config;
pub mod json;
mod metrics;
mod model;
mod process;
pub mod rng;
pub mod scenario;
mod simulator;

pub use batch::{parallel_indexed_map, BatchPlan};
pub use config::{FaultPlan, FaultPlanError, PropagationKernel, RngMode, SimConfig};
pub use metrics::Metrics;
pub use model::{NetworkInfo, NodeStatus, Verdict};
pub use process::{BeepingProcess, FnFactory, ProcessFactory};
pub use scenario::{Delivery, Scenario, ScenarioSpec};
pub use simulator::{NodeBits, RoundView, RunOutcome, Simulator, Stepper};
