//! Experiment harness regenerating every figure and quantitative claim of
//! the paper.
//!
//! Each module reproduces one artefact (see `DESIGN.md` §3 for the full
//! index):
//!
//! | Module | Paper artefact |
//! |--------|----------------|
//! | [`fig3`] | Figure 3 — mean rounds vs `n` on `G(n, ½)`, sweep vs feedback, with the `(log₂ n)²` and `2.5 log₂ n` reference curves |
//! | [`fig5`] | Figure 5 — mean beeps per node vs `n`, sweep vs feedback (optional Science'11 series, §5) |
//! | [`grid_beeps`] | §5 text — ≈1.1 beeps per node on rectangular grids; Theorem 6's `O(1)` bound |
//! | [`lower_bound`] | Theorem 1 — `log² n` vs `log n` growth on the clique-union family |
//! | [`tails`] | Theorem 2 — termination-time tail probabilities against `c · log₂ n` |
//! | [`robustness`] | §6 — factor/initial-probability/heterogeneity ablations |
//! | [`faults`] | extension — message loss and late wake-ups, with and without repairs |
//! | [`race`] | extension — feedback vs sweep vs science vs Luby vs Métivier on shared workloads |
//! | [`quality`] | extension — MIS sizes vs the exact optimum `α(G)` and greedy |
//! | [`decay`] | extension — active-node decay curves per algorithm |
//! | [`applications`] | extension — MIS as a building block: matching, colouring, backbone election |
//! | [`sop`] | extension — SOP selection-time statistics across the Science'11 accumulation-model family |
//! | [`potential`] | extension — Theorem 1's potential coverage per schedule (the proof's own quantities) |
//! | [`fuzz`] | extension — adversarial scenario fuzzer: worst-case search over deterministic fault schedules, with a seed-replayable corpus (`xp fuzz` / `xp replay`) |
//!
//! The `xp` binary drives them; every experiment prints a markdown table
//! (the same rows the paper's figures plot) plus an ASCII rendition of the
//! figure, and is deterministic given `--seed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applications;
pub mod decay;
pub mod faults;
pub mod fig3;
pub mod fig5;
pub mod fuzz;
pub mod grid_beeps;
pub mod lower_bound;
pub mod potential;
pub mod quality;
pub mod race;
pub mod report;
pub mod robustness;
mod runner;
pub mod seeds;
pub mod sop;
pub mod tails;

pub use mis_graph::backend::{run_with_backend, Backend, BackendOp};
pub use report::Report;
pub use runner::{RunContext, SeriesPoint};
