//! Classical distributed MIS baselines on a message-passing runtime.
//!
//! The paper positions its feedback algorithm against the standard
//! `O(log n)` algorithms, which — unlike beeping algorithms — exchange
//! *numeric* messages and often need neighbour counts or identifiers:
//!
//! * [`LubyPriorityProcess`] — Luby's algorithm in its random-priority
//!   form [Alon–Babai–Itai '86, Luby '85]: lowest random value in the
//!   neighbourhood joins;
//! * [`LubyMarkingProcess`] — Luby's original marking form: mark with
//!   probability `1/(2d)`, resolve conflicts by degree then identifier;
//! * [`MetivierProcess`] — Métivier–Robson–Saheb-Djahromi–Zemmari '11:
//!   random-priority with lazy *bit-by-bit* exchange, achieving optimal
//!   `O(log n)` total bits per channel (the comparison point for the
//!   paper's §5 bit-complexity discussion);
//! * [`exact`] — an exact maximum-independent-set solver (branch and
//!   bound) for quality comparisons on small graphs.
//!
//! These run on [`MessageSimulator`], a synchronous runtime where each
//! round has two broadcast sub-rounds (value exchange, then join
//! announcements), inboxes are delivered in ascending neighbour id order
//! out of an arena buffer, and every message's size in bits is accounted,
//! so the message/bit complexities of beeping and messaging algorithms can
//! be compared on the same workloads. The runtime is generic over
//! `mis_graph::GraphView`, so every family also runs on the lazy
//! derived-graph views — Luby on a `LineGraphView` is a classical
//! distributed maximal-matching baseline, raced against beeping-MIS on
//! the same implicit view by `xp race --on line`. [`MessageEngine`]
//! adapts the runtime to `mis_core`'s
//! [`Engine`](mis_core::engine::Engine) abstraction, so the baselines run
//! through the same deterministic `--jobs N` batch path
//! ([`RunPlan`](mis_core::RunPlan)) as the beeping algorithms.
//!
//! [`Family`] is the workspace's one list of algorithm families: the
//! beeping [`Algorithm`](mis_core::Algorithm)s plus the four baselines
//! here, with their wire names. [`Family::dispatch`] builds a family's
//! engine from a `SimConfig` and passes it to a [`FamilyOp`], which is how
//! `xp race` and `mis-serve` run any family without naming a factory.
//!
//! # Examples
//!
//! ```
//! use mis_baselines::{LubyPriorityFactory, MessageSimulator};
//! use mis_graph::generators;
//!
//! let g = generators::gnp(
//!     40,
//!     0.3,
//!     &mut rand::rngs::SmallRng::seed_from_u64(2),
//! );
//! let outcome = MessageSimulator::new(&g, &LubyPriorityFactory::new(), 7)
//!     .run(10_000);
//! assert!(outcome.terminated());
//! mis_core::verify::check_mis(&g, &outcome.mis()).unwrap();
//! # use rand::SeedableRng;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod exact;
mod family;
mod greedy_local;
mod luby;
mod metivier;
mod runtime;

pub use engine::{MessageEngine, MessageRunRecord, DEFAULT_MESSAGE_ROUND_CAP};
pub use family::{Family, FamilyOp};
pub use greedy_local::{GreedyLocalFactory, GreedyLocalProcess, GreedyMsg};
pub use luby::{LubyMarkingFactory, LubyMarkingProcess, LubyPriorityFactory, LubyPriorityProcess};
pub use metivier::{MetivierFactory, MetivierProcess};
pub use runtime::{
    InboxStrategy, MessageFactory, MessageMetrics, MessageProcess, MessageSimulator, MsgOf,
    MsgRunOutcome,
};
