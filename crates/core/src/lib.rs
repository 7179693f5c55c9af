//! The paper's contribution: feedback-adaptive beeping MIS selection.
//!
//! This crate implements the distributed maximal-independent-set algorithms
//! studied in *“Feedback from nature: an optimal distributed algorithm for
//! maximal independent set selection”* (Scott, Jeavons & Xu, PODC 2013):
//!
//! * [`FeedbackProcess`] — **the paper's algorithm** (Table 1 /
//!   Definition 1): every node keeps a private beeping probability,
//!   initially ½, halved whenever a neighbour beeps and doubled (capped at
//!   ½) otherwise. Expected `O(log n)` rounds (Theorem 2, Corollary 5) and
//!   `O(1)` expected beeps per node (Theorem 6).
//! * [`GlobalScheduleProcess`] — the algorithm class of Afek et al. that §3
//!   proves needs `Ω(log² n)` rounds on clique unions: all nodes beep with
//!   the same preset probability sequence, supplied by a pluggable
//!   [`ProbabilitySchedule`] ([`SweepSchedule`] from DISC'11,
//!   [`ScienceSchedule`] from Science'11, [`ConstantSchedule`],
//!   [`CustomSchedule`]).
//! * [`verify`] — independence/maximality checking and the trivial
//!   sequential baselines of the paper's introduction.
//! * [`theory`] — instrumentation for the quantities in the proof of
//!   Theorem 2: the measure `µ_t`, the light/heavy neighbourhood split and
//!   the event classification (E1)–(E4).
//! * [`solve_mis`] / [`Algorithm`] — one-call entry points.
//! * [`engine`] — the unified execution layer: the [`Engine`] trait every
//!   runtime (beeping here, message-passing in `mis-baselines`)
//!   implements, so one batched path runs every algorithm family.
//! * [`RunPlan`] — batched multi-seed execution of any [`Engine`] across
//!   worker threads with streaming `mis-stats` aggregates (bit-identical
//!   for any job count). [`plan`] is also the façade re-exporting the
//!   batch primitives ([`BatchPlan`], [`parallel_indexed_map`],
//!   [`auto_jobs`]) so downstream code imports them from one place.
//!
//! # Examples
//!
//! ```
//! use mis_core::{solve_mis, Algorithm};
//! use mis_graph::generators;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = generators::gnp(50, 0.5, &mut SmallRng::seed_from_u64(1));
//! let result = solve_mis(&g, &Algorithm::feedback(), 99)?;
//! mis_core::verify::check_mis(&g, result.mis())?;
//! println!("MIS of size {} in {} rounds", result.mis().len(), result.rounds());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod feedback;
mod global;
pub mod plan;
mod run;
pub mod scenario;
mod schedule;
pub mod theory;
pub mod verify;

pub use engine::{AlgorithmEngine, Engine, EngineRecord, RunView};
pub use feedback::{FeedbackConfig, FeedbackFactory, FeedbackProcess};
pub use global::{GlobalScheduleFactory, GlobalScheduleProcess};
pub use plan::{auto_jobs, parallel_indexed_map, BatchPlan, BatchReport, RunPlan, RunRecord};
pub use run::{
    run_algorithm, run_algorithm_with_observer, solve_mis, solve_mis_with_config, Algorithm,
    MisResult, SolveError,
};
pub use scenario::{
    outcome_digest, AdversaryReport, AdversarySchedule, EvaluatedScenario, Fitness,
};
pub use schedule::{
    ConstantSchedule, CustomSchedule, DecreasingSchedule, ProbabilitySchedule, ScienceSchedule,
    SweepSchedule, TailBehavior,
};
