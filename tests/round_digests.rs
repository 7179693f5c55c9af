//! Per-round engine behaviour pinned to committed digests.
//!
//! The kernel and sharding suites compare engine paths with each other,
//! and the corpus replay and benchmark digests see only final outcomes.
//! This suite pins what every round of `Stepper::step` exposes, on every
//! path `step` takes: both RNG modes, both kernels, non-monotone wake
//! faults with and without the heartbeat repair, stream- and
//! counter-mode loss, a churn plus delay scenario, and a sharded counter
//! run. Each case folds every round's `RoundView` (round, `beeped`,
//! `heard`, `status`, the bits of `probabilities`), `active_count()`, and
//! the final `RunOutcome` into one FNV-1a 64 digest, compared with a
//! committed value. The outcome part also folds a per-round summary and
//! the active-count series, both rebuilt here from consecutive views. A
//! mismatch report prints the whole table of actual digests.
//!
//! A second table pins the message-passing runtime the same way: for each
//! message family, every `MessageSimulator` path (both inbox strategies,
//! sharded runs, and wake-only, loss-with-delay, churn and all-axes
//! scenarios) on the same graphs plus a line-graph view, folding each
//! run's statuses, rounds, termination and message and bit counts.

use std::sync::Arc;

use beeping_mis::baselines::{
    GreedyLocalFactory, InboxStrategy, LubyMarkingFactory, LubyPriorityFactory, MessageFactory,
    MessageSimulator, MetivierFactory, MsgRunOutcome,
};
use beeping_mis::beeping::rng::trial_seed;
use beeping_mis::beeping::scenario::{
    ChurnModel, DelayModel, LossModel, ScenarioSpec, WakePattern,
};
use beeping_mis::beeping::{
    FaultPlan, NodeStatus, PropagationKernel, RngMode, RoundView, RunOutcome, SimConfig, Simulator,
};
use beeping_mis::core::{FeedbackConfig, FeedbackFactory};
use beeping_mis::graph::{generators, ops, Graph, GraphView, LineGraphView};
use rand::{rngs::SmallRng, SeedableRng};

/// Master seed of every graph and run seed in this suite.
const MASTER: u64 = 0x726f_756e_6473;

/// Runs per case, each on its own `trial_seed`.
const RUNS: u64 = 4;

/// One round, summarised from its view and the statuses before it.
struct RoundSummary {
    round: u32,
    /// Exchange-1 beepers that were not in the MIS before the round, so
    /// heartbeats are left out.
    candidates: u32,
    /// Nodes whose status turned `InMis`, ascending.
    joined: Vec<u32>,
    /// Nodes whose status turned `Covered`.
    covered: u32,
    /// `Active` statuses after the round.
    active_after: u32,
}

impl RoundSummary {
    fn new(before: &[NodeStatus], view: &RoundView<'_>) -> Self {
        let mut summary = Self {
            round: view.round,
            candidates: 0,
            joined: Vec::new(),
            covered: 0,
            active_after: 0,
        };
        for (v, (&old, &new)) in before.iter().zip(view.status).enumerate() {
            summary.candidates += u32::from(view.beeped[v] && old != NodeStatus::InMis);
            if new != old && new == NodeStatus::InMis {
                summary.joined.push(v as u32);
            }
            summary.covered += u32::from(new != old && new == NodeStatus::Covered);
            summary.active_after += u32::from(new == NodeStatus::Active);
        }
        summary
    }
}

/// FNV-1a 64 over little-endian encodings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn bools(&mut self, len: usize, bits: impl Iterator<Item = bool>) {
        self.u64(len as u64);
        for b in bits {
            self.bytes(&[u8::from(b)]);
        }
    }

    fn statuses(&mut self, statuses: &[NodeStatus]) {
        self.u64(statuses.len() as u64);
        for s in statuses {
            let code = match s {
                NodeStatus::Active => 0u8,
                NodeStatus::InMis => 1,
                NodeStatus::Covered => 2,
                NodeStatus::Asleep => 3,
            };
            self.bytes(&[code]);
        }
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(u64::from(x));
        }
    }

    fn view(&mut self, view: &RoundView<'_>) {
        self.u64(u64::from(view.round));
        let n = view.beeped.len();
        self.bools(n, (0..n).map(|v| view.beeped[v]));
        let n = view.heard.len();
        self.bools(n, (0..n).map(|v| view.heard[v]));
        self.statuses(view.status);
        self.u64(view.probabilities.len() as u64);
        for p in view.probabilities {
            self.u64(p.to_bits());
        }
    }

    fn message_outcome(&mut self, outcome: &MsgRunOutcome) {
        self.statuses(outcome.statuses());
        self.u64(u64::from(outcome.rounds()));
        self.u64(u64::from(outcome.terminated()));
        self.u64(outcome.metrics().messages_delivered);
        self.u64(outcome.metrics().bits_total);
    }

    /// Folds the outcome, then `series` and `rounds` where the active-count
    /// series and the per-round records sit in the outcome's encoding.
    fn outcome(&mut self, outcome: &RunOutcome, series: &[usize], rounds: &[RoundSummary]) {
        self.statuses(outcome.statuses());
        self.u64(u64::from(outcome.rounds()));
        self.u64(u64::from(outcome.terminated()));
        self.bytes(outcome.kernel_used().name().as_bytes());
        let m = outcome.metrics();
        self.u64(u64::from(m.rounds));
        self.u32s(&m.beeps);
        self.u32s(&m.signals);
        self.u64(m.heartbeat_signals);
        self.u64(series.len() as u64);
        for &a in series {
            self.u64(a as u64);
        }
        self.u64(rounds.len() as u64);
        for r in rounds {
            self.u64(u64::from(r.round));
            self.u64(u64::from(r.candidates));
            self.u32s(&r.joined);
            self.u64(u64::from(r.covered));
            self.u64(u64::from(r.active_after));
        }
    }
}

/// Wake rounds that are not monotone in node id: a late waker can sit
/// next to, or between, nodes that wake before it.
fn scrambled_wake(n: usize) -> Vec<u32> {
    (0..n as u32).map(|v| (v * 7 + 3) % 11 * 2).collect()
}

fn base() -> SimConfig {
    SimConfig::default().with_max_rounds(5_000)
}

fn counter() -> SimConfig {
    base().with_rng_mode(RngMode::Counter)
}

fn lossy(config: SimConfig, loss: f64) -> SimConfig {
    config.with_faults(FaultPlan {
        message_loss: loss,
        wake_rounds: vec![],
    })
}

fn waking(config: SimConfig, n: usize, heartbeat: bool) -> SimConfig {
    config
        .with_mis_keeps_beeping(heartbeat)
        .with_faults(FaultPlan {
            message_loss: 0.0,
            wake_rounds: scrambled_wake(n),
        })
}

fn churn_delay(config: SimConfig) -> SimConfig {
    let spec = ScenarioSpec::new(trial_seed(MASTER, 99))
        .with_delay(DelayModel::Random { p: 0.2, max: 3 })
        .with_churn(ChurnModel::Random {
            p: 0.15,
            max_len: 4,
            earliest: 1,
            latest: 12,
        });
    config
        .with_mis_keeps_beeping(true)
        .with_scenario(Arc::new(spec))
}

/// The case matrix: a name, the configuration, and whether the
/// heartbeat-safe cautious join rule runs.
fn cases(n: usize) -> Vec<(&'static str, SimConfig, bool)> {
    use PropagationKernel::{Bitset, Scalar};
    vec![
        ("stream-bitset", base().with_kernel(Bitset), false),
        ("stream-scalar", base().with_kernel(Scalar), false),
        ("counter-bitset", counter().with_kernel(Bitset), false),
        ("counter-scalar", counter().with_kernel(Scalar), false),
        ("wake-bitset", waking(base(), n, false), false),
        (
            "wake-scalar",
            waking(base().with_kernel(Scalar), n, false),
            false,
        ),
        ("wake-heartbeat-bitset", waking(base(), n, true), true),
        (
            "wake-heartbeat-scalar",
            waking(base().with_kernel(Scalar), n, true),
            true,
        ),
        ("wake-heartbeat-counter", waking(counter(), n, true), true),
        ("stream-loss", lossy(base(), 0.2), false),
        ("counter-loss-bitset", lossy(counter(), 0.2), false),
        (
            "counter-loss-scalar",
            lossy(counter().with_kernel(Scalar), 0.2),
            false,
        ),
        ("churn-delay-stream", churn_delay(base()), true),
        ("churn-delay-counter", churn_delay(counter()), true),
        ("counter-shards-3", counter().with_shards(3), false),
        (
            "counter-loss-shards-3",
            lossy(counter().with_shards(3), 0.2),
            false,
        ),
    ]
}

/// Steps one run to the end, folding every round and the outcome.
fn digest_run(g: &Graph, factory: &FeedbackFactory, seed: u64, config: SimConfig, h: &mut Fnv) {
    let mut stepper = Simulator::new(g, factory, seed, config).into_stepper();
    h.u64(stepper.active_count() as u64);
    let mut before = stepper.statuses().to_vec();
    let mut series = Vec::new();
    let mut rounds = Vec::new();
    while !stepper.is_done() {
        stepper.step();
        let view = stepper.last_round_view();
        h.view(&view);
        h.u64(stepper.active_count() as u64);
        let summary = RoundSummary::new(&before, &view);
        series.push(summary.active_after as usize);
        rounds.push(summary);
        before.copy_from_slice(view.status);
    }
    h.outcome(&stepper.finish(), &series, &rounds);
}

/// Digests every case on `g` and compares them with `expected`.
fn check(graph: &str, g: &Graph, expected: &[(&str, u64)]) {
    let plain = FeedbackFactory::new();
    let cautious = FeedbackFactory::with_config(FeedbackConfig::default().with_cautious_join(true));
    let mut actual = Vec::new();
    for (name, config, careful) in cases(g.node_count()) {
        let factory = if careful { &cautious } else { &plain };
        let mut h = Fnv::new();
        for run in 0..RUNS {
            digest_run(g, factory, trial_seed(MASTER, run), config.clone(), &mut h);
        }
        actual.push((name, h.0));
    }
    compare(graph, &actual, expected);
}

/// Asserts `actual` equals `expected`, printing the whole actual table on
/// a mismatch so it can be pasted back.
fn compare(label: &str, actual: &[(&str, u64)], expected: &[(&str, u64)]) {
    let table: String = actual
        .iter()
        .map(|(name, d)| format!("        (\"{name}\", 0x{d:016x}),\n"))
        .collect();
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|((a, da), (e, de))| a == e && da == de);
    assert!(same, "{label}: digests differ; actual:\n{table}");
}

fn gnp() -> Graph {
    generators::gnp(
        200,
        0.05,
        &mut SmallRng::seed_from_u64(trial_seed(MASTER, 100)),
    )
}

fn union_with_isolated() -> Graph {
    let dense = generators::gnp(
        120,
        0.08,
        &mut SmallRng::seed_from_u64(trial_seed(MASTER, 101)),
    );
    ops::disjoint_union(&[
        Graph::empty(3),
        dense,
        Graph::empty(7),
        generators::complete(6),
    ])
}

#[test]
fn gnp_round_digests() {
    check(
        "gnp",
        &gnp(),
        &[
            ("stream-bitset", 0x85aacba116a0f955),
            ("stream-scalar", 0xc21b521960dd22d9),
            ("counter-bitset", 0x23110cc79f49a4c0),
            ("counter-scalar", 0x07396fdf1a4535c0),
            ("wake-bitset", 0xcdb23c3c5aa1f1aa),
            ("wake-scalar", 0x233a5a4ff3aa964e),
            ("wake-heartbeat-bitset", 0x24c3250913a83dad),
            ("wake-heartbeat-scalar", 0x7bbc32c1739a2fed),
            ("wake-heartbeat-counter", 0x471a7114eff0d8f7),
            ("stream-loss", 0x1a78c11c96919d25),
            ("counter-loss-bitset", 0x1d4e9cb125eea644),
            ("counter-loss-scalar", 0x2e3ccbe4ceac7838),
            ("churn-delay-stream", 0x3ef2760849dfaf01),
            ("churn-delay-counter", 0xd82dd39beac6abdd),
            ("counter-shards-3", 0x23110cc79f49a4c0),
            ("counter-loss-shards-3", 0x1d4e9cb125eea644),
        ],
    );
}

#[test]
fn grid_round_digests() {
    check(
        "grid",
        &generators::grid2d(12, 16),
        &[
            ("stream-bitset", 0x9b2e449be68b1481),
            ("stream-scalar", 0x8474eff6efd60ee5),
            ("counter-bitset", 0x041c56b266fe6015),
            ("counter-scalar", 0xb4fb94547c0468e5),
            ("wake-bitset", 0x4ea23a68608aa47b),
            ("wake-scalar", 0x6dfed7b194b3cd8b),
            ("wake-heartbeat-bitset", 0x57c943568a33c583),
            ("wake-heartbeat-scalar", 0xc221dffcd6e0fad7),
            ("wake-heartbeat-counter", 0x38bdacfe62f41649),
            ("stream-loss", 0xdf11fece7fe8ff99),
            ("counter-loss-bitset", 0x45c6b80f33e0a1bc),
            ("counter-loss-scalar", 0x5af653521a46b8bc),
            ("churn-delay-stream", 0x5760fb84f7c787e8),
            ("churn-delay-counter", 0x43d696073b540d03),
            ("counter-shards-3", 0x041c56b266fe6015),
            ("counter-loss-shards-3", 0x45c6b80f33e0a1bc),
        ],
    );
}

#[test]
fn disjoint_union_round_digests() {
    check(
        "union",
        &union_with_isolated(),
        &[
            ("stream-bitset", 0x7b7ed52db33eb3d4),
            ("stream-scalar", 0x569f62081cb6ce64),
            ("counter-bitset", 0x5fbeddb3181ccc8e),
            ("counter-scalar", 0xd420643de8c19d62),
            ("wake-bitset", 0x073e972a0fd28460),
            ("wake-scalar", 0xa575e67a1587b670),
            ("wake-heartbeat-bitset", 0xa8f9597074b71894),
            ("wake-heartbeat-scalar", 0xb637868d440fcbd4),
            ("wake-heartbeat-counter", 0xc36f146fd3239595),
            ("stream-loss", 0x3e05d379a0ede8f7),
            ("counter-loss-bitset", 0xd6cebf5ae93ac535),
            ("counter-loss-scalar", 0x5b9516aad8aa930d),
            ("churn-delay-stream", 0xc67dace6950c148d),
            ("churn-delay-counter", 0x164589263fee0e98),
            ("counter-shards-3", 0x5fbeddb3181ccc8e),
            ("counter-loss-shards-3", 0xd6cebf5ae93ac535),
        ],
    );
}

/// Round cap of every message run: far above what any case needs, so a
/// run that hits it is a real non-termination, folded like any outcome.
const MSG_CAP: u32 = 20_000;

/// One `MessageSimulator` path: an inbox strategy, a shard count (1 runs
/// `run`, more run `run_sharded`), and an optional scenario.
type MessagePath = (&'static str, InboxStrategy, usize, Option<ScenarioSpec>);

/// The message case matrix: the reliable paths, then one scenario per
/// axis and one with all four axes at once.
fn message_cases() -> Vec<MessagePath> {
    use InboxStrategy::{Arena, FreshVecs};
    let spec = || ScenarioSpec::new(trial_seed(MASTER, 98));
    let wake = WakePattern::Wavefront {
        stride: 24,
        latest: 6,
    };
    let loss = LossModel::PerEdge { lo: 0.0, hi: 0.3 };
    let delay = DelayModel::Random { p: 0.2, max: 3 };
    let churn = ChurnModel::Random {
        p: 0.15,
        max_len: 4,
        earliest: 1,
        latest: 12,
    };
    vec![
        ("arena", Arena, 1, None),
        ("fresh", FreshVecs, 1, None),
        ("shards-3", Arena, 3, None),
        ("fresh-shards-2", FreshVecs, 2, None),
        ("wake", Arena, 1, Some(spec().with_wake(wake.clone()))),
        (
            "loss-delay",
            Arena,
            1,
            Some(spec().with_loss(loss.clone()).with_delay(delay.clone())),
        ),
        ("churn", Arena, 1, Some(spec().with_churn(churn.clone()))),
        (
            "all-axes",
            Arena,
            1,
            Some(
                spec()
                    .with_wake(wake)
                    .with_loss(loss)
                    .with_delay(delay)
                    .with_churn(churn),
            ),
        ),
    ]
}

/// Runs `factory` on `g` along `path` once per trial seed, folding every
/// outcome into `h`.
fn digest_message_runs<F, G>(
    g: &G,
    factory: &F,
    (_, strategy, shards, spec): &MessagePath,
    h: &mut Fnv,
) where
    F: MessageFactory,
    G: GraphView + ?Sized,
{
    for run in 0..RUNS {
        let mut sim = MessageSimulator::new(g, factory, trial_seed(MASTER, run))
            .with_inbox_strategy(*strategy);
        if let Some(spec) = spec {
            sim = sim.with_scenario(Arc::new(spec.clone()));
        }
        let outcome = if *shards == 1 {
            sim.run(MSG_CAP)
        } else {
            sim.run_sharded(MSG_CAP, *shards)
        };
        h.message_outcome(&outcome);
    }
}

/// Digests every message path for `factory` over the gnp graph, the
/// grid, the disjoint union and the line-graph view of the gnp graph, and
/// compares them with `expected`.
fn check_messages<F>(family: &str, factory: &F, expected: &[(&str, u64)])
where
    F: MessageFactory,
{
    let g = gnp();
    let grid = generators::grid2d(12, 16);
    let union = union_with_isolated();
    let line = LineGraphView::new(&g);
    let mut actual = Vec::new();
    for path in message_cases() {
        let mut h = Fnv::new();
        for graph in [&g, &grid, &union] {
            digest_message_runs(graph, factory, &path, &mut h);
        }
        digest_message_runs(&line, factory, &path, &mut h);
        actual.push((path.0, h.0));
    }
    compare(family, &actual, expected);
}

#[test]
fn luby_priority_message_digests() {
    check_messages(
        "luby-priority",
        &LubyPriorityFactory::new(),
        &[
            ("arena", 0xbc74f1ee70a742ae),
            ("fresh", 0xbc74f1ee70a742ae),
            ("shards-3", 0xbc74f1ee70a742ae),
            ("fresh-shards-2", 0xbc74f1ee70a742ae),
            ("wake", 0x90ca28c926e36893),
            ("loss-delay", 0x544ee280d8858fe1),
            ("churn", 0xb40e7851a4a59778),
            ("all-axes", 0x30a2bc2e6b7f743d),
        ],
    );
}

#[test]
fn luby_marking_message_digests() {
    check_messages(
        "luby-marking",
        &LubyMarkingFactory::new(),
        &[
            ("arena", 0x9baa34a2cb112dbf),
            ("fresh", 0x9baa34a2cb112dbf),
            ("shards-3", 0x9baa34a2cb112dbf),
            ("fresh-shards-2", 0x9baa34a2cb112dbf),
            ("wake", 0x50f70f4a7f06972a),
            ("loss-delay", 0x8955e513221ef3e3),
            ("churn", 0xd738064c25a0e902),
            ("all-axes", 0x9269a8da9e4391a6),
        ],
    );
}

#[test]
fn metivier_message_digests() {
    check_messages(
        "metivier",
        &MetivierFactory::new(),
        &[
            ("arena", 0xc09af65f0772aa3b),
            ("fresh", 0xc09af65f0772aa3b),
            ("shards-3", 0xc09af65f0772aa3b),
            ("fresh-shards-2", 0xc09af65f0772aa3b),
            ("wake", 0xed9658b61f89545e),
            ("loss-delay", 0x060141d560e8f1be),
            ("churn", 0x96ead4110a629e64),
            ("all-axes", 0x0364a46fab9f7cf8),
        ],
    );
}

#[test]
fn greedy_local_message_digests() {
    check_messages(
        "greedy-local",
        &GreedyLocalFactory::new(),
        &[
            ("arena", 0xd73f823878273c4d),
            ("fresh", 0xd73f823878273c4d),
            ("shards-3", 0xd73f823878273c4d),
            ("fresh-shards-2", 0xd73f823878273c4d),
            ("wake", 0x593501fd39706e8d),
            ("loss-delay", 0xe43f18c79c19b66d),
            ("churn", 0x03b3abf13ea55f75),
            ("all-axes", 0xf6e801980bd92cbd),
        ],
    );
}
