//! The synchronous two-exchange round engine.
//!
//! The engine is generic over [`GraphView`], so it runs identically on a
//! materialised CSR [`Graph`] and on the lazy derived-graph adapters
//! (`LineGraphView`, `ProductView`, `InducedView`) — adjacency is only ever
//! consumed through ascending-order neighbour iteration, which every view
//! provides.
//!
//! Every per-node pass of a round follows the *frontier*: the ascending
//! ids of the active nodes. A settled node never draws, beeps as a
//! candidate or decides again, so this holds in every kernel, RNG mode,
//! fault plan and scenario, and a round costs O(active nodes) plus a few
//! O(n / 64) word scans. Beeps and heard bits live natively in `u64`
//! words, one bit per node, and observers read exchange 1's words in place
//! through [`NodeBits`].

use core::ops::{ControlFlow, Index};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mis_graph::{Graph, GraphView, NodeId};

use crate::rng::{fault_stream_seed, loss_dropped, node_rng, round_seed};
use crate::scenario::{Delivery, Scenario};
use crate::{
    BeepingProcess, Metrics, NetworkInfo, NodeStatus, ProcessFactory, PropagationKernel, RngMode,
    SimConfig, Verdict,
};

/// Bits per packed word of the beep and heard bitsets.
const WORD_BITS: usize = 64;

/// Beep density (beepers ≥ n / `PULL_CROSSOVER`) above which the bitset
/// kernel pulls (per-listener early-exit scan) instead of pushing from each
/// beeper. Both directions give identical results; this only tunes speed.
const PULL_CROSSOVER: usize = 8;

/// One bit per node, read in place from the stepper's packed `u64` words.
///
/// [`RoundView`] lends exchange 1's beeps and heard bits this way, so a
/// round builds no per-node copy for its observer. Index it like a
/// `&[bool]`: `bits[v]` is node `v`'s bit, and an index at or past
/// [`len`](Self::len) panics.
#[derive(Clone, Copy)]
pub struct NodeBits<'a> {
    // `len.div_ceil(WORD_BITS)` words; the bits at and past `len` are zero.
    words: &'a [u64],
    len: usize,
}

impl<'a> NodeBits<'a> {
    fn new(words: &'a [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(WORD_BITS));
        Self { words, len }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Index<usize> for NodeBits<'_> {
    type Output = bool;

    fn index(&self, v: usize) -> &bool {
        assert!(
            v < self.len,
            "index out of bounds: the len is {} but the index is {v}",
            self.len
        );
        if test_bit(self.words, v) {
            &true
        } else {
            &false
        }
    }
}

impl PartialEq for NodeBits<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Bits past `len` are zero, so equal bits mean equal words.
        self.len == other.len && self.words == other.words
    }
}

impl Eq for NodeBits<'_> {}

impl core::fmt::Debug for NodeBits<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_list()
            .entries((0..self.len).map(|v| self[v]))
            .finish()
    }
}

/// Read-only view of one completed round, passed to observers registered
/// via [`Simulator::run_with_observer`] (or read from
/// [`Stepper::last_round_view`]).
///
/// It is the one window into a round: the paper-analysis instrumentation
/// (`µ_t` measures, event classification) and per-round series are built
/// from it, and a run without an observer records nothing per round.
#[derive(Debug)]
pub struct RoundView<'a> {
    /// Round index (0-based).
    pub round: u32,
    /// Which nodes beeped in exchange 1 this round: the candidates, plus
    /// the MIS members' heartbeats under the `mis_keeps_beeping` repair.
    pub beeped: NodeBits<'a>,
    /// Which nodes heard a beep in exchange 1 this round. This covers
    /// every awake listener, settled or not: a node that already joined
    /// the MIS or was covered still reports what reached it. Asleep and
    /// churned-out nodes hear nothing.
    pub heard: NodeBits<'a>,
    /// Node statuses *after* the round's decisions.
    pub status: &'a [NodeStatus],
    /// Beep probabilities of all nodes *at the start* of the round
    /// (0 for inactive or sleeping nodes).
    pub probabilities: &'a [f64],
}

/// Result of a completed (or capped) simulation run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    statuses: Vec<NodeStatus>,
    rounds: u32,
    terminated: bool,
    metrics: Metrics,
    kernel_used: PropagationKernel,
}

impl PartialEq for RunOutcome {
    fn eq(&self, other: &Self) -> bool {
        // `kernel_used` is diagnostic, not part of the semantic outcome:
        // the kernel-equivalence contract is precisely that runs compare
        // equal *across* kernels.
        self.statuses == other.statuses
            && self.rounds == other.rounds
            && self.terminated == other.terminated
            && self.metrics == other.metrics
    }
}

impl RunOutcome {
    /// The selected independent set, sorted ascending.
    ///
    /// When the run `terminated` and the processes implement an MIS
    /// algorithm correctly under a fault-free network, this is a maximal
    /// independent set (verify with `mis-core`'s checker).
    #[must_use]
    pub fn mis(&self) -> Vec<NodeId> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::InMis)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Final status of every node.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Number of rounds executed.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether every node became inactive before the round cap.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Collected metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The propagation kernel that actually executed the run.
    ///
    /// A run configured with [`PropagationKernel::Bitset`] may still be
    /// served by the scalar reference kernel when the configuration
    /// requires it — a delivery-perturbing/churning scenario, or message
    /// loss under the legacy [`RngMode::Stream`] — and this field makes
    /// that substitution explicit rather than silent. Excluded from
    /// `PartialEq`: outcomes are kernel-independent by contract.
    #[must_use]
    pub fn kernel_used(&self) -> PropagationKernel {
        self.kernel_used
    }
}

/// Drives [`BeepingProcess`] automatons over a graph in synchronous
/// two-exchange rounds.
///
/// Construct with [`Simulator::new`], then either call [`run`](Self::run)
/// (or [`run_with_observer`](Self::run_with_observer)) to completion, or
/// convert [`into_stepper`](Self::into_stepper) for round-by-round control.
pub struct Simulator<'g, F: ProcessFactory, G: GraphView + ?Sized = Graph> {
    stepper: Stepper<'g, F, G>,
}

impl<'g, F: ProcessFactory, G: GraphView + ?Sized> Simulator<'g, F, G> {
    /// Creates a simulator over `graph` (a CSR [`Graph`] or any lazy
    /// [`GraphView`]) with per-node processes built by `factory`, deriving
    /// all randomness from `master_seed`.
    pub fn new(graph: &'g G, factory: &F, master_seed: u64, config: SimConfig) -> Self {
        Self {
            stepper: Stepper::new(graph, factory, master_seed, config),
        }
    }

    /// Runs to termination or the round cap.
    #[must_use]
    pub fn run(self) -> RunOutcome {
        self.run_with_observer(|_| {})
    }

    /// Runs to termination or the round cap, invoking `observer` after
    /// every round with a [`RoundView`].
    #[must_use]
    pub fn run_with_observer(mut self, mut observer: impl FnMut(&RoundView<'_>)) -> RunOutcome {
        while !self.stepper.is_done() {
            self.stepper.step();
            observer(&self.stepper.last_round_view());
        }
        self.stepper.finish()
    }

    /// Converts into a [`Stepper`] for incremental, inspectable execution.
    #[must_use]
    pub fn into_stepper(self) -> Stepper<'g, F, G> {
        self.stepper
    }
}

/// Incremental round-by-round execution of a beeping simulation, with full
/// visibility into node states between rounds.
///
/// Use this for visualisation, debugging, or analyses that need to stop
/// mid-run; [`Simulator::run`] is the one-shot wrapper.
///
/// # Examples
///
/// ```
/// use mis_beeping::{SimConfig, Simulator, NodeStatus};
/// # use mis_beeping::{BeepingProcess, FnFactory, NetworkInfo, Verdict};
/// # use rand::{rngs::SmallRng, Rng};
/// # struct Coin { beeped: bool, heard: bool }
/// # impl BeepingProcess for Coin {
/// #     fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
/// #         self.beeped = rng.random_bool(0.5); self.beeped
/// #     }
/// #     fn exchange2(&mut self, heard: bool) -> bool {
/// #         self.heard = heard; self.beeped && !heard
/// #     }
/// #     fn end_round(&mut self, heard_join: bool) -> Verdict {
/// #         if self.beeped && !self.heard { Verdict::JoinMis }
/// #         else if heard_join { Verdict::Covered } else { Verdict::Continue }
/// #     }
/// #     fn beep_probability(&self) -> f64 { 0.5 }
/// # }
///
/// let graph = mis_graph::generators::cycle(6);
/// let factory = FnFactory(|_, _, _: &NetworkInfo| Coin { beeped: false, heard: false });
/// let mut stepper = Simulator::new(&graph, &factory, 3, SimConfig::default()).into_stepper();
/// while !stepper.is_done() {
///     stepper.step();
///     let active = stepper
///         .statuses()
///         .iter()
///         .filter(|s| **s == NodeStatus::Active)
///         .count();
///     println!("round {}: {active} active", stepper.round());
/// }
/// let outcome = stepper.finish();
/// assert!(outcome.terminated());
/// ```
pub struct Stepper<'g, F: ProcessFactory, G: GraphView + ?Sized = Graph> {
    graph: &'g G,
    config: SimConfig,
    master_seed: u64,
    // Which kernel actually runs (resolved once from the configuration;
    // see `RunOutcome::kernel_used`), and the effective intra-run shard
    // count for the bitset pull direction (1 = sequential).
    kernel_used: PropagationKernel,
    shards: usize,
    processes: Vec<F::Process>,
    status: Vec<NodeStatus>,
    // Per-node streams (stream mode only; empty under counter draws).
    rngs: Vec<SmallRng>,
    fault_rng: SmallRng,
    metrics: Metrics,
    // The frontier: ascending ids of the `Active` nodes, compacted by the
    // decision pass. Every per-node pass walks it.
    frontier: Vec<NodeId>,
    // Nodes that left the frontier in the last round; their probability
    // snapshot is zeroed at the start of the next one.
    left: Vec<NodeId>,
    // Sleepers ordered by (wake round, id), the merged wake schedule of the
    // fault plan and the scenario (the later of the two per node);
    // `sleepers[next_sleeper..]` are still asleep.
    sleepers: Vec<(u32, NodeId)>,
    next_sleeper: usize,
    // MIS members, one bit per node (heartbeat repair only, else empty).
    mis_words: Vec<u64>,
    // Each exchange's beeps and heard bits, one bit per node. Exchange 1's
    // words hold the last round's bits until the next step clears them.
    beep_words: [Vec<u64>; 2],
    heard_words: [Vec<u64>; 2],
    probs: Vec<f64>,
    // Churn scratch: which nodes are absent this round (empty without
    // churn).
    away: Vec<bool>,
    // Scenario-delayed deliveries per exchange: (arrival round, receiver).
    pending: [Vec<(u32, NodeId)>; 2],
    round: u32,
}

impl<'g, F: ProcessFactory, G: GraphView + ?Sized> Stepper<'g, F, G> {
    fn new(graph: &'g G, factory: &F, master_seed: u64, config: SimConfig) -> Self {
        let n = graph.node_count();
        let words = n.div_ceil(WORD_BITS);
        let info = NetworkInfo {
            node_count: n,
            max_degree: graph.max_degree(),
        };
        let processes: Vec<F::Process> = (0..n as NodeId)
            .map(|v| factory.create(v, graph.degree(v), &info))
            .collect();
        let scenario_wake: Option<Vec<u32>> = config.scenario.as_ref().map(|s| {
            let degrees: Vec<usize> = (0..n as NodeId).map(|v| graph.degree(v)).collect();
            s.wake_schedule(&degrees)
        });
        // Nodes awake at round 0 form the first frontier; the rest queue
        // as sleepers.
        let mut status = vec![NodeStatus::Active; n];
        let mut frontier = Vec::with_capacity(n);
        let mut sleepers = Vec::new();
        for v in 0..n as NodeId {
            let from_scenario = scenario_wake
                .as_ref()
                .and_then(|w| w.get(v as usize).copied())
                .unwrap_or(0);
            let wake = config.faults.wake_round(v).max(from_scenario);
            if wake > 0 {
                status[v as usize] = NodeStatus::Asleep;
                sleepers.push((wake, v));
            } else {
                frontier.push(v);
            }
        }
        sleepers.sort_unstable();
        let rngs: Vec<SmallRng> = if config.rng == RngMode::Counter {
            // Counter mode reseeds per (node, round); no standing streams.
            Vec::new()
        } else {
            (0..n as NodeId).map(|v| node_rng(master_seed, v)).collect()
        };
        let fault_rng = SmallRng::seed_from_u64(fault_stream_seed(master_seed));
        // Resolve which kernel actually runs. The scenario reference path
        // (delivery perturbation or churn) is scalar by definition, and
        // stream-mode loss draws must consume the fault RNG in the scalar
        // reference order; counter-mode loss draws are order-free, so a
        // lossy bitset request is honoured.
        let lossy = config.faults.message_loss > 0.0;
        let churn = config.scenario.as_deref().is_some_and(Scenario::has_churn);
        let scenario_path = churn
            || config
                .scenario
                .as_deref()
                .is_some_and(Scenario::perturbs_deliveries);
        let kernel_used = if scenario_path || (lossy && config.rng == RngMode::Stream) {
            PropagationKernel::Scalar
        } else {
            config.kernel
        };
        // Sharding splits the bitset pull direction only; the scalar and
        // scenario reference paths stay sequential regardless.
        let shards = if config.rng == RngMode::Counter && kernel_used == PropagationKernel::Bitset {
            match config.shards {
                0 => crate::batch::auto_jobs(),
                s => s,
            }
        } else {
            1
        };
        let mis_words = vec![0; if config.mis_keeps_beeping { words } else { 0 }];
        Self {
            graph,
            config,
            master_seed,
            kernel_used,
            shards,
            processes,
            status,
            rngs,
            fault_rng,
            metrics: Metrics::new(n),
            frontier,
            left: Vec::new(),
            sleepers,
            next_sleeper: 0,
            mis_words,
            beep_words: [vec![0; words], vec![0; words]],
            heard_words: [vec![0; words], vec![0; words]],
            probs: vec![0.0; n],
            away: vec![false; if churn { n } else { 0 }],
            pending: [Vec::new(), Vec::new()],
            round: 0,
        }
    }

    /// Nodes that have not settled: the frontier plus the sleepers.
    fn remaining(&self) -> usize {
        self.frontier.len() + self.sleepers.len() - self.next_sleeper
    }

    /// Whether the run is over (all nodes inactive, or round cap hit).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining() == 0 || self.round >= self.config.max_rounds
    }

    /// Wakes the sleepers whose round has come and merges them into the
    /// frontier, keeping it ascending.
    fn wake_sleepers(&mut self) {
        let start = self.next_sleeper;
        while self
            .sleepers
            .get(self.next_sleeper)
            .is_some_and(|&(wake, _)| wake <= self.round)
        {
            self.next_sleeper += 1;
        }
        if start == self.next_sleeper {
            return;
        }
        // Every step wakes all sleepers due by its round, so the woken
        // share one wake round and come out in ascending id order.
        let woken = &self.sleepers[start..self.next_sleeper];
        let mut merged = Vec::with_capacity(self.frontier.len() + woken.len());
        let mut old = self.frontier.iter().copied().peekable();
        for &(_, v) in woken {
            self.status[v as usize] = NodeStatus::Active;
            while let Some(u) = old.next_if(|&u| u < v) {
                merged.push(u);
            }
            merged.push(v);
        }
        merged.extend(old);
        self.frontier = merged;
    }

    /// Adds the MIS members' heartbeats to exchange `x`'s beeps (heartbeat
    /// repair only; absent members stay silent).
    fn add_heartbeats(&mut self, x: usize, churn: bool) {
        if !self.config.mis_keeps_beeping {
            return;
        }
        let beeps = &mut self.beep_words[x];
        let away = &self.away;
        let mut signals = 0u64;
        for_each_set_bit(&self.mis_words, |v| {
            if !(churn && away[v]) {
                set_bit(beeps, v);
                signals += 1;
            }
        });
        self.metrics.heartbeat_signals += signals;
    }

    /// Propagates exchange `x`'s beeps (0 or 1) into its heard bits
    /// through the kernel this run uses. `scenario` is `Some` only on the
    /// scenario reference path (delivery perturbation or churn).
    fn broadcast_exchange(&mut self, x: usize, scenario: Option<&dyn Scenario>, churn: bool) {
        let loss = self.config.faults.message_loss;
        let lossy = loss > 0.0;
        let slot = u64::from(self.round) * 2 + x as u64;
        let mut drop = if !lossy {
            LossDraw::None
        } else if self.config.rng == RngMode::Counter {
            LossDraw::Counter(CounterLoss {
                master: self.master_seed,
                slot,
                loss,
            })
        } else {
            LossDraw::Stream {
                rng: &mut self.fault_rng,
                loss,
            }
        };
        let beeps = &self.beep_words[x];
        let heard = &mut self.heard_words[x];
        heard.fill(0);
        if let Some(scenario) = scenario {
            broadcast_scenario(
                self.graph,
                &self.status,
                &self.away,
                churn,
                &mut drop,
                scenario,
                self.round,
                x as u32,
                beeps,
                heard,
                &mut self.pending[x],
            );
        } else if self.kernel_used == PropagationKernel::Bitset {
            let counter_loss = match drop {
                LossDraw::Counter(cl) => Some(cl),
                _ => None,
            };
            let sleeping = self.next_sleeper < self.sleepers.len();
            broadcast_bitset(
                self.graph,
                &self.status,
                sleeping,
                beeps,
                heard,
                counter_loss,
                self.shards,
            );
        } else {
            broadcast(self.graph, &self.status, &mut drop, beeps, heard);
        }
    }

    /// Executes one full round (both exchanges plus decisions). Does
    /// nothing once [`is_done`](Self::is_done).
    pub fn step(&mut self) {
        if self.is_done() {
            return;
        }
        let round = self.round;
        // Scenario capability flags: a wake-only scenario costs nothing
        // here and keeps the fast kernels; delivery perturbation or churn
        // switches to the scalar scenario reference path.
        let scenario = self.config.scenario.clone();
        let churn = scenario.as_deref().is_some_and(Scenario::has_churn);
        let scenario_path = churn
            || scenario
                .as_deref()
                .is_some_and(Scenario::perturbs_deliveries);
        let scenario_ref = if scenario_path {
            scenario.as_deref()
        } else {
            None
        };
        // Which kernel runs was resolved at construction (scenario paths
        // are scalar; stream-mode lossy runs are scalar; counter-mode
        // lossy bitset is legal because the loss draws are pure).
        debug_assert!(!scenario_path || self.kernel_used == PropagationKernel::Scalar);
        let counter = self.config.rng == RngMode::Counter;

        self.wake_sleepers();

        // Churn: mark who is absent this round. An absent node is frozen —
        // it neither beeps nor hears, draws no randomness, and makes no
        // decisions until its window ends.
        if churn {
            let s = scenario.as_deref().expect("churn implies a scenario");
            for (v, away) in self.away.iter_mut().enumerate() {
                *away = s.absent(v as NodeId, round);
            }
        }

        // Exchange 1: candidate beeps, each drawn right after the node's
        // probability snapshot (observer/stepper visibility). Last round's
        // leavers drop out of the snapshot here. With the heartbeat
        // repair, MIS members also beep, persistently inhibiting late
        // wakers from claiming next to them (like sustained Delta
        // expression by SOP cells).
        for v in self.left.drain(..) {
            self.probs[v as usize] = 0.0;
        }
        self.beep_words[0].fill(0);
        for &v in &self.frontier {
            let vi = v as usize;
            if churn && self.away[vi] {
                self.probs[vi] = 0.0;
                continue;
            }
            let process = &mut self.processes[vi];
            self.probs[vi] = process.beep_probability();
            // Counter mode: a fresh per-(node, round) stream, so the
            // round's draws are pure in (master, v, round). Stream mode:
            // the node's standing stream.
            let beeped = if counter {
                let mut tmp = SmallRng::seed_from_u64(round_seed(self.master_seed, v, round));
                process.exchange1(&mut tmp)
            } else {
                process.exchange1(&mut self.rngs[vi])
            };
            put_bit(&mut self.beep_words[0], vi, beeped);
        }
        self.add_heartbeats(0, churn);
        self.broadcast_exchange(0, scenario_ref, churn);

        // Exchange 2: join announcements (plus optional MIS heartbeats).
        self.beep_words[1].fill(0);
        for &v in &self.frontier {
            let vi = v as usize;
            if churn && self.away[vi] {
                continue;
            }
            let announced = self.processes[vi].exchange2(test_bit(&self.heard_words[0], vi));
            put_bit(&mut self.beep_words[1], vi, announced);
        }
        self.add_heartbeats(1, churn);
        self.broadcast_exchange(1, scenario_ref, churn);

        // Decisions and metric accounting. The frontier compacts in place,
        // so it stays ascending.
        let [beeps1, beeps2] = &self.beep_words;
        let heard2 = &self.heard_words[1];
        let heartbeat = self.config.mis_keeps_beeping;
        self.frontier.retain(|&v| {
            let vi = v as usize;
            if churn && self.away[vi] {
                return true;
            }
            let (b1, b2) = (test_bit(beeps1, vi), test_bit(beeps2, vi));
            self.metrics.signals[vi] += u32::from(b1) + u32::from(b2);
            self.metrics.beeps[vi] += u32::from(b1 || b2);
            match self.processes[vi].end_round(test_bit(heard2, vi)) {
                Verdict::Continue => return true,
                Verdict::JoinMis => {
                    self.status[vi] = NodeStatus::InMis;
                    if heartbeat {
                        set_bit(&mut self.mis_words, vi);
                    }
                }
                Verdict::Covered => self.status[vi] = NodeStatus::Covered,
            }
            self.left.push(v);
            false
        });

        self.round += 1;
        self.metrics.rounds = self.round;
    }

    /// The view of the most recently executed round.
    ///
    /// # Panics
    ///
    /// Panics if no round has been executed yet.
    #[must_use]
    pub fn last_round_view(&self) -> RoundView<'_> {
        assert!(self.round > 0, "no round has been executed yet");
        let n = self.status.len();
        RoundView {
            round: self.round - 1,
            beeped: NodeBits::new(&self.beep_words[0], n),
            heard: NodeBits::new(&self.heard_words[0], n),
            status: &self.status,
            probabilities: &self.probs,
        }
    }

    /// Number of completed rounds.
    #[must_use]
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Current status of every node.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.status
    }

    /// Beep probabilities captured at the start of the last executed round
    /// (all zeros before the first step).
    #[must_use]
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Number of currently active nodes: the frontier's length, so O(1).
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.frontier.len()
    }

    /// Metrics accumulated so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Finalises the run into a [`RunOutcome`] (callable at any point; an
    /// unfinished run reports `terminated() == false` only if nodes remain
    /// active *and* the cap was reached — stopping early by choice keeps
    /// `terminated()` equal to “no node remains active”).
    #[must_use]
    pub fn finish(self) -> RunOutcome {
        RunOutcome {
            terminated: self.remaining() == 0,
            statuses: self.status,
            rounds: self.round,
            metrics: self.metrics,
            kernel_used: self.kernel_used,
        }
    }

    /// The propagation kernel this run actually executes (see
    /// [`RunOutcome::kernel_used`]).
    #[must_use]
    pub fn kernel_used(&self) -> PropagationKernel {
        self.kernel_used
    }
}

/// Whether bit `v` of a one-bit-per-node word array is set.
#[inline]
fn test_bit(words: &[u64], v: usize) -> bool {
    words[v / WORD_BITS] >> (v % WORD_BITS) & 1 != 0
}

/// Sets bit `v` of a one-bit-per-node word array.
#[inline]
fn set_bit(words: &mut [u64], v: usize) {
    put_bit(words, v, true);
}

/// ORs `bit` into bit `v` of a one-bit-per-node word array, without a
/// branch on `bit` (a coin flip would mispredict half the time).
#[inline]
fn put_bit(words: &mut [u64], v: usize, bit: bool) {
    words[v / WORD_BITS] |= u64::from(bit) << (v % WORD_BITS);
}

/// Calls `f` with every set bit of `words`, in ascending order, skipping
/// zero words whole.
#[inline]
fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(wi * WORD_BITS + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Per-delivery drop decision for one exchange, shared by the scalar and
/// scenario broadcast paths.
enum LossDraw<'a> {
    /// Reliable network: nothing is dropped.
    None,
    /// Stream mode: consume the shared fault stream in the scalar
    /// reference order (one draw per non-asleep delivery).
    Stream { rng: &'a mut SmallRng, loss: f64 },
    /// Counter mode: a pure draw keyed by `(sender, receiver, slot)`.
    Counter(CounterLoss),
}

impl LossDraw<'_> {
    #[inline]
    fn dropped(&mut self, from: NodeId, to: NodeId) -> bool {
        match self {
            LossDraw::None => false,
            LossDraw::Stream { rng, loss } => rng.random_bool(*loss),
            LossDraw::Counter(cl) => loss_dropped(cl.master, from, to, cl.slot, cl.loss),
        }
    }
}

/// Coordinates of counter-mode loss draws for one exchange: every
/// delivery's fate is `loss_dropped(master, from, to, slot, loss)`.
#[derive(Clone, Copy)]
struct CounterLoss {
    master: u64,
    slot: u64,
    loss: f64,
}

/// The scalar reference kernel: sets each node's `heard` bit (all zero on
/// entry) to the OR of the beeps delivered to it from its neighbours,
/// applying the per-delivery loss decision of `drop`.
fn broadcast<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    drop: &mut LossDraw<'_>,
    beeps: &[u64],
    heard: &mut [u64],
) {
    // Beepers ascending, then each beeper's neighbours ascending (the
    // GraphView contract): a stream-mode loss draw consumes the fault RNG
    // in exactly the CSR reference order (counter-mode draws are
    // order-free anyway).
    for_each_set_bit(beeps, |v| {
        graph.for_each_neighbor(v as NodeId, |u| {
            // Sleeping nodes hear nothing.
            if status[u as usize] == NodeStatus::Asleep {
                return;
            }
            if drop.dropped(v as NodeId, u) {
                return;
            }
            set_bit(heard, u as usize);
        });
    });
}

/// The scenario reference path: like [`broadcast`], but each delivery's
/// fate is additionally decided by the [`Scenario`] — dropped, delayed, or
/// on time — and absent (churned-out) nodes neither send nor hear.
///
/// Delayed deliveries are parked in `pending` as `(arrival round,
/// receiver)` and drained at the top of the same exchange slot of their
/// arrival round; a delayed beep whose receiver is asleep or absent on
/// arrival is lost. Legacy `FaultPlan` loss draws are decided first (in
/// reference order for a stream-mode `drop`), so a scenario composes with
/// `message_loss` exactly as the scalar kernel defines it.
#[allow(clippy::too_many_arguments)]
fn broadcast_scenario<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    away: &[bool],
    churn: bool,
    drop: &mut LossDraw<'_>,
    scenario: &dyn Scenario,
    round: u32,
    exchange: u32,
    beeps: &[u64],
    heard: &mut [u64],
    pending: &mut Vec<(u32, NodeId)>,
) {
    for_each_set_bit(beeps, |v| {
        graph.for_each_neighbor(v as NodeId, |u| {
            let ui = u as usize;
            // Sleeping and absent nodes hear nothing.
            if status[ui] == NodeStatus::Asleep || (churn && away[ui]) {
                return;
            }
            if drop.dropped(v as NodeId, u) {
                return;
            }
            match scenario.delivery(v as NodeId, u, round, exchange) {
                Delivery::OnTime => set_bit(heard, ui),
                Delivery::Dropped => {}
                Delivery::Delayed(d) => pending.push((round + d.max(1), u)),
            }
        });
    });
    // Deliver the delayed beeps whose round has come (entries pushed above
    // always have a strictly later arrival round, so they survive).
    pending.retain(|&(due, u)| {
        if due > round {
            return true;
        }
        let ui = u as usize;
        if status[ui] != NodeStatus::Asleep && !(churn && away[ui]) {
            set_bit(heard, ui);
        }
        false
    });
}

/// Whether listener `v` hears any beeping neighbour, via the word-grouped
/// early-exit scan: ascending iteration keeps same-word neighbours
/// contiguous, so they fold into one mask tested against the beep bitset.
fn listener_hears<G: GraphView + ?Sized>(graph: &G, v: NodeId, beep_words: &[u64]) -> bool {
    let mut cur_word = usize::MAX;
    let mut mask = 0u64;
    let mut hit = false;
    let flow = graph.try_for_each_neighbor(v, |u| {
        let w = u as usize / WORD_BITS;
        if w != cur_word {
            if cur_word != usize::MAX && beep_words[cur_word] & mask != 0 {
                hit = true;
                return ControlFlow::Break(());
            }
            cur_word = w;
            mask = 0;
        }
        mask |= 1u64 << (u as usize % WORD_BITS);
        ControlFlow::Continue(())
    });
    if flow == ControlFlow::Continue(())
        && cur_word != usize::MAX
        && beep_words[cur_word] & mask != 0
    {
        hit = true;
    }
    hit
}

/// Whether listener `v` hears any beeping neighbour when each delivery is
/// dropped by a counter-keyed loss draw. The draws are pure functions of
/// `(sender, v, slot)`, so the early exit on the first surviving delivery
/// skips the remaining draws without affecting any other node's outcome.
fn listener_hears_lossy<G: GraphView + ?Sized>(
    graph: &G,
    v: NodeId,
    beep_words: &[u64],
    cl: CounterLoss,
) -> bool {
    graph.try_for_each_neighbor(v, |u| {
        if test_bit(beep_words, u as usize) && !loss_dropped(cl.master, u, v, cl.slot, cl.loss) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }) == ControlFlow::Break(())
}

/// Computes the heard bitset for the listeners of `out.len()` consecutive
/// words starting at word `first_word`, in the pull direction. This is the
/// unit of intra-run sharding: each shard owns a word-aligned listener
/// range and writes only its own output words.
fn pull_heard_words<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    sleeping: bool,
    beep_words: &[u64],
    loss: Option<CounterLoss>,
    first_word: usize,
    out: &mut [u64],
) {
    let n = graph.node_count();
    for (i, word_out) in out.iter_mut().enumerate() {
        let base = (first_word + i) * WORD_BITS;
        let mut word = 0u64;
        for (off, s) in status[base..(base + WORD_BITS).min(n)].iter().enumerate() {
            if sleeping && *s == NodeStatus::Asleep {
                continue;
            }
            let v = (base + off) as NodeId;
            let hit = match loss {
                None => listener_hears(graph, v, beep_words),
                Some(cl) => listener_hears_lossy(graph, v, beep_words, cl),
            };
            word |= u64::from(hit) << off;
        }
        *word_out = word;
    }
}

/// The bitset propagation kernel: computes the same heard bits as
/// [`broadcast`] (`heard_words` all zero on entry), on packed `u64`
/// words, optionally applying counter-keyed per-delivery loss (`loss`) and
/// splitting the work across `shards` scoped worker threads. `sleeping`
/// says whether any node is still asleep.
///
/// The direction is chosen per exchange from the beep density:
///
/// * **pull** (dense beeps) — every awake node walks its sorted CSR
///   neighbour list word-at-a-time, folding the neighbours that share a
///   `u64` word into one mask, and stops at the first word that intersects
///   the beep bitset. When half the network beeps, the expected scan is a
///   couple of words regardless of degree.
/// * **push** (sparse beeps) — scan the beep words, skip zero words whole,
///   and OR each beeper's neighbour bits into the heard bitset, skipping
///   asleep listeners.
///
/// The density heuristic picks the direction first; sharding then only
/// applies to the pull direction, whose per-listener gather writes only
/// the listener's own bit (so word-aligned listener ranges shard without
/// synchronisation). Counter loss draws are pure in `(sender, receiver,
/// slot)`, so the early exit, the evaluation order, and the direction are
/// all free: both directions produce identical results, and mixing them
/// across configurations never changes an outcome.
fn broadcast_bitset<G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    sleeping: bool,
    beep_words: &[u64],
    heard_words: &mut [u64],
    loss: Option<CounterLoss>,
    shards: usize,
) {
    let n = graph.node_count();
    let beepers: usize = beep_words.iter().map(|w| w.count_ones() as usize).sum();
    let words = heard_words.len();
    let shards = shards.min(words);
    if beepers == 0 {
        // Nothing beeped; nothing can be heard.
    } else if beepers * PULL_CROSSOVER < n {
        // Push: walk set bits of the beep words, OR neighbour bits in.
        // Counter loss draws are direction-free (pure in (sender,
        // receiver, slot)), so pushing stays bit-identical to pulling —
        // sharded configurations take this branch too, because pushing a
        // sparse exchange is cheaper than any parallel pull over it.
        for_each_set_bit(beep_words, |v| {
            graph.for_each_neighbor(v as NodeId, |u| {
                // Sleeping nodes hear nothing.
                if sleeping && status[u as usize] == NodeStatus::Asleep {
                    return;
                }
                if let Some(cl) = loss {
                    if loss_dropped(cl.master, v as NodeId, u, cl.slot, cl.loss) {
                        return;
                    }
                }
                set_bit(heard_words, u as usize);
            });
        });
    } else if shards > 1 {
        // Sharded pull over word-aligned listener chunks: each worker
        // computes its own output words, merged back by index.
        let chunk_words = words.div_ceil(shards);
        let chunks = words.div_ceil(chunk_words);
        let parts: Vec<Vec<u64>> = crate::batch::parallel_indexed_map(chunks, shards, |c| {
            let lo = c * chunk_words;
            let hi = ((c + 1) * chunk_words).min(words);
            let mut out = vec![0u64; hi - lo];
            pull_heard_words(graph, status, sleeping, beep_words, loss, lo, &mut out);
            out
        });
        for (c, part) in parts.into_iter().enumerate() {
            let lo = c * chunk_words;
            heard_words[lo..lo + part.len()].copy_from_slice(&part);
        }
    } else {
        pull_heard_words(graph, status, sleeping, beep_words, loss, 0, heard_words);
    }
}

impl<F: ProcessFactory, G: GraphView + ?Sized> core::fmt::Debug for Simulator<'_, F, G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.stepper.graph.node_count())
            .field("config", &self.stepper.config)
            .finish_non_exhaustive()
    }
}

impl<F: ProcessFactory, G: GraphView + ?Sized> core::fmt::Debug for Stepper<'_, F, G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stepper")
            .field("nodes", &self.graph.node_count())
            .field("round", &self.round)
            .field("active", &self.active_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeepingProcess, FaultPlan, FnFactory};
    use mis_graph::generators;

    /// Beep with a fixed probability forever — a correct (if slow) MIS
    /// algorithm used to exercise the engine without `mis-core`.
    struct Coin {
        p: f64,
        beeped: bool,
        heard: bool,
    }

    impl Coin {
        fn factory(p: f64) -> FnFactory<impl Fn(NodeId, usize, &NetworkInfo) -> Coin> {
            FnFactory(move |_, _, _: &NetworkInfo| Coin {
                p,
                beeped: false,
                heard: false,
            })
        }
    }

    impl BeepingProcess for Coin {
        fn exchange1(&mut self, rng: &mut SmallRng) -> bool {
            self.beeped = self.p >= 1.0 || rng.random_bool(self.p);
            self.beeped
        }
        fn exchange2(&mut self, heard: bool) -> bool {
            self.heard = heard;
            self.beeped && !heard
        }
        fn end_round(&mut self, heard_join: bool) -> Verdict {
            // Cautious join rule: yield to any join announcement. In a
            // fault-free network a winning candidate never hears one, so
            // this matches Table 1 of the paper there, while staying safe
            // under late wake-ups (the heartbeat repair).
            if heard_join {
                Verdict::Covered
            } else if self.beeped && !self.heard {
                Verdict::JoinMis
            } else {
                Verdict::Continue
            }
        }
        fn beep_probability(&self) -> f64 {
            self.p
        }
    }

    fn assert_is_mis(g: &Graph, mis: &[NodeId]) {
        // detlint: allow(D01) -- contains-only adjacency check, never iterated
        let in_set: std::collections::HashSet<_> = mis.iter().copied().collect();
        for &v in mis {
            for &u in g.neighbors(v) {
                assert!(!in_set.contains(&u), "adjacent MIS nodes {u}, {v}");
            }
        }
        for v in g.nodes() {
            assert!(
                in_set.contains(&v) || g.neighbors(v).iter().any(|u| in_set.contains(u)),
                "node {v} uncovered"
            );
        }
    }

    #[test]
    fn coin_process_selects_mis_on_families() {
        for (name, g) in [
            ("cycle", generators::cycle(12)),
            ("complete", generators::complete(8)),
            ("path", generators::path(9)),
            ("star", generators::star(10)),
            ("grid", generators::grid2d(4, 5)),
        ] {
            let outcome = Simulator::new(&g, &Coin::factory(0.5), 11, SimConfig::default()).run();
            assert!(outcome.terminated(), "{name} did not terminate");
            assert_is_mis(&g, &outcome.mis());
        }
    }

    #[test]
    fn single_node_joins_immediately() {
        let g = Graph::empty(1);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 0, SimConfig::default()).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.metrics().beeps[0], 1);
        assert_eq!(outcome.metrics().signals[0], 2); // both exchanges
    }

    #[test]
    fn always_beeping_neighbours_never_terminate() {
        let g = generators::complete(2);
        let cfg = SimConfig::default().with_max_rounds(50);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(!outcome.terminated());
        assert_eq!(outcome.rounds(), 50);
        assert!(outcome.mis().is_empty());
    }

    #[test]
    fn empty_graph_terminates_in_zero_rounds() {
        let g = Graph::empty(0);
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 2, SimConfig::default()).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 0);
    }

    #[test]
    fn determinism_per_seed() {
        let g = generators::gnp(30, 0.3, &mut rand::rngs::SmallRng::seed_from_u64(3));
        let a = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        assert_eq!(a, b);
        let c = Simulator::new(&g, &Coin::factory(0.5), 78, SimConfig::default()).run();
        // Different seeds *may* coincide, but on 30 nodes it is vanishingly
        // unlikely the full outcome (statuses + metrics) matches.
        assert_ne!(a, c);
    }

    #[test]
    fn node_bits_index_like_a_bool_slice() {
        // 70 nodes span two words; bits 0, 63, 64 and 69 are set.
        let words = [1 | 1 << 63, 1 | 1 << 5];
        let bits = NodeBits::new(&words, 70);
        let expected: Vec<bool> = (0..70).map(|v| [0, 63, 64, 69].contains(&v)).collect();
        assert_eq!(bits.len(), 70);
        assert!(!bits.is_empty());
        assert!((0..70).all(|v| bits[v] == expected[v]));
        assert_eq!(format!("{bits:?}"), format!("{expected:?}"));
        assert_eq!(bits, NodeBits::new(&[1 | 1 << 63, 1 | 1 << 5], 70));
        assert_ne!(bits, NodeBits::new(&[1 << 63, 1 | 1 << 5], 70));
        assert!(NodeBits::new(&[], 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "the len is 70 but the index is 70")]
    fn node_bits_panic_past_the_end() {
        let words = [0, 0];
        let _ = NodeBits::new(&words, 70)[70];
    }

    #[test]
    fn observer_sees_every_round() {
        let g = generators::path(6);
        let mut seen = 0u32;
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 8, SimConfig::default())
            .run_with_observer(|view| {
                assert_eq!(view.round, seen);
                assert_eq!(view.beeped.len(), 6);
                assert_eq!(view.probabilities.len(), 6);
                seen += 1;
            });
        assert_eq!(seen, outcome.rounds());
    }

    #[test]
    fn stepper_matches_run() {
        let g = generators::gnp(25, 0.4, &mut rand::rngs::SmallRng::seed_from_u64(6));
        let run = Simulator::new(&g, &Coin::factory(0.5), 21, SimConfig::default()).run();
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.5), 21, SimConfig::default()).into_stepper();
        let mut rounds = 0;
        while !stepper.is_done() {
            stepper.step();
            rounds += 1;
        }
        assert_eq!(rounds, run.rounds());
        let stepped = stepper.finish();
        assert_eq!(stepped, run);
    }

    #[test]
    fn stepper_exposes_intermediate_state() {
        let g = generators::complete(6);
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.3), 2, SimConfig::default()).into_stepper();
        assert_eq!(stepper.active_count(), 6);
        assert_eq!(stepper.round(), 0);
        stepper.step();
        assert_eq!(stepper.round(), 1);
        assert_eq!(stepper.probabilities().len(), 6);
        assert_eq!(stepper.last_round_view().round, 0);
        // Step after done is a no-op.
        while !stepper.is_done() {
            stepper.step();
        }
        let rounds = stepper.round();
        stepper.step();
        assert_eq!(stepper.round(), rounds);
    }

    #[test]
    fn stepper_finish_midway_reports_state() {
        let g = generators::cycle(20);
        let mut stepper =
            Simulator::new(&g, &Coin::factory(0.2), 3, SimConfig::default()).into_stepper();
        stepper.step();
        let partial = stepper.finish();
        assert_eq!(partial.rounds(), 1);
        // After one round at p = 0.2 on C₂₀ some nodes are usually still
        // active, but either way the flag must agree with the statuses.
        let active_left = partial.statuses().iter().any(|s| !s.is_inactive());
        assert_eq!(partial.terminated(), !active_left);
    }

    #[test]
    #[should_panic(expected = "no round")]
    fn view_before_first_step_panics() {
        let g = generators::path(3);
        let stepper =
            Simulator::new(&g, &Coin::factory(0.5), 0, SimConfig::default()).into_stepper();
        let _ = stepper.last_round_view();
    }

    #[test]
    fn sleeping_nodes_join_late_with_repair() {
        // A path 0-1: node 1 sleeps 30 rounds; node 0 joins early. With the
        // heartbeat repair, node 1 must end up covered, never in the MIS.
        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds: vec![0, 30],
            });
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.metrics().heartbeat_signals > 0);
    }

    #[test]
    fn sleeping_nodes_can_violate_without_repair() {
        // Same scenario without the repair: node 1 wakes to silence and
        // joins, violating independence — the engine must faithfully report
        // both nodes as InMis (detection is the verifier's job).
        let g = generators::path(2);
        let cfg = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.0,
            wake_rounds: vec![0, 30],
        });
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn message_loss_still_terminates() {
        let g = generators::cycle(8);
        let cfg = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.2,
            wake_rounds: vec![],
        });
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 6, cfg).run();
        assert!(outcome.terminated());
        assert!(!outcome.mis().is_empty());
    }

    #[test]
    fn beeps_count_rounds_not_signals() {
        let g = Graph::empty(1);
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 0, SimConfig::default()).run();
        // One round, beeped in both exchanges: 1 beep, 2 signals.
        assert_eq!(outcome.metrics().total_beeps(), 1);
        assert_eq!(outcome.metrics().signals[0], 2);
    }

    #[test]
    fn bitset_kernel_matches_scalar_outcomes() {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        for (name, g) in [
            ("cycle", generators::cycle(130)),
            ("complete", generators::complete(65)),
            ("gnp", generators::gnp(120, 0.1, &mut rng)),
            ("grid", generators::grid2d(9, 13)),
            ("isolated", Graph::empty(70)),
        ] {
            for seed in 0..3 {
                for p in [0.05, 0.5, 0.9] {
                    // Capped: dense Coin processes may never terminate
                    // (e.g. p = 0.9 on a clique), and equivalence must
                    // hold round for round either way.
                    let base = SimConfig::default().with_max_rounds(400);
                    let scalar = base.clone().with_kernel(PropagationKernel::Scalar);
                    let bitset = base.with_kernel(PropagationKernel::Bitset);
                    let a = Simulator::new(&g, &Coin::factory(p), seed, scalar).run();
                    let b = Simulator::new(&g, &Coin::factory(p), seed, bitset).run();
                    assert_eq!(a, b, "{name} seed {seed} p {p}");
                }
            }
        }
    }

    #[test]
    fn bitset_kernel_matches_scalar_under_wake_faults() {
        let g = generators::grid2d(8, 8);
        let wake_rounds: Vec<u32> = (0..64).map(|v| (v % 7) * 3).collect();
        for heartbeat in [false, true] {
            let base = SimConfig::default()
                .with_mis_keeps_beeping(heartbeat)
                .with_faults(FaultPlan {
                    message_loss: 0.0,
                    wake_rounds: wake_rounds.clone(),
                });
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a, b, "heartbeat = {heartbeat}");
        }
    }

    #[test]
    fn stream_lossy_runs_fall_back_to_scalar_kernel_visibly() {
        // Under legacy stream draws the two kernel settings must still
        // agree — the bitset config is served by the scalar reference
        // path, because the loss RNG's consumption order defines the
        // semantics — and the substitution is recorded, not silent.
        let g = generators::cycle(20);
        let base = SimConfig::default().with_faults(FaultPlan {
            message_loss: 0.3,
            wake_rounds: vec![],
        });
        let a = Simulator::new(
            &g,
            &Coin::factory(0.5),
            13,
            base.clone().with_kernel(PropagationKernel::Scalar),
        )
        .run();
        let b = Simulator::new(
            &g,
            &Coin::factory(0.5),
            13,
            base.with_kernel(PropagationKernel::Bitset),
        )
        .run();
        assert_eq!(a, b);
        assert_eq!(a.kernel_used(), PropagationKernel::Scalar);
        assert_eq!(b.kernel_used(), PropagationKernel::Scalar);
    }

    #[test]
    fn counter_mode_honours_bitset_on_lossy_runs() {
        // The fixed bug: with counter draws, a lossy run asked to use the
        // bitset kernel actually uses it — and still matches the scalar
        // kernel bit for bit, because the per-delivery loss draws are
        // pure functions of (edge, round, exchange).
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        for (name, g) in [
            ("cycle", generators::cycle(20)),
            ("gnp", generators::gnp(60, 0.15, &mut rng)),
        ] {
            let base = SimConfig::default()
                .with_max_rounds(10_000)
                .with_rng_mode(RngMode::Counter)
                .with_faults(FaultPlan {
                    message_loss: 0.3,
                    wake_rounds: vec![],
                });
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                13,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                13,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a.kernel_used(), PropagationKernel::Scalar, "{name}");
            assert_eq!(b.kernel_used(), PropagationKernel::Bitset, "{name}");
            assert_eq!(a, b, "{name}");
        }
    }

    #[test]
    fn sharded_bitset_matches_sequential_for_any_shard_count() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(41);
        let g = generators::gnp(150, 0.1, &mut rng);
        for loss in [0.0, 0.25] {
            let base = SimConfig::default()
                .with_max_rounds(2_000)
                .with_rng_mode(RngMode::Counter)
                .with_faults(FaultPlan {
                    message_loss: loss,
                    wake_rounds: vec![],
                });
            let reference = Simulator::new(&g, &Coin::factory(0.5), 23, base.clone()).run();
            // 0 = one shard per core; outcomes must not depend on it.
            for shards in [2, 4, 7, 0] {
                let sharded = Simulator::new(
                    &g,
                    &Coin::factory(0.5),
                    23,
                    base.clone().with_shards(shards),
                )
                .run();
                assert_eq!(reference, sharded, "loss {loss} shards {shards}");
                assert_eq!(sharded.kernel_used(), PropagationKernel::Bitset);
            }
        }
    }

    #[test]
    fn counter_mode_is_deterministic_and_distinct_from_stream() {
        let g = generators::gnp(30, 0.3, &mut rand::rngs::SmallRng::seed_from_u64(3));
        let counter = SimConfig::default().with_rng_mode(RngMode::Counter);
        let a = Simulator::new(&g, &Coin::factory(0.5), 77, counter.clone()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 77, counter).run();
        assert_eq!(a, b);
        // The two modes define different (equally valid) random
        // sequences; on 30 nodes a full-outcome coincidence is
        // vanishingly unlikely.
        let stream = Simulator::new(&g, &Coin::factory(0.5), 77, SimConfig::default()).run();
        assert_ne!(a, stream);
    }

    #[test]
    fn scenario_reference_path_records_scalar_kernel() {
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::grid2d(6, 6);
        // A delivery-perturbing scenario forces (and records) the scalar
        // reference path even when the bitset kernel was requested, in
        // either RNG mode.
        for mode in [RngMode::Stream, RngMode::Counter] {
            let cfg = SimConfig::default()
                .with_max_rounds(5_000)
                .with_rng_mode(mode)
                .with_scenario(Arc::new(ScenarioSpec::uniform_loss(3, 0.2)));
            let outcome = Simulator::new(&g, &Coin::factory(0.5), 7, cfg).run();
            assert_eq!(outcome.kernel_used(), PropagationKernel::Scalar, "{mode:?}");
        }
        // A wake-only scenario keeps the configured kernel.
        let cfg = SimConfig::default().with_scenario(Arc::new(ScenarioSpec::new(3).with_wake(
            WakePattern::Wavefront {
                stride: 2,
                latest: 8,
            },
        )));
        let outcome = Simulator::new(&g, &Coin::factory(0.5), 7, cfg).run();
        assert_eq!(outcome.kernel_used(), PropagationKernel::Bitset);
    }

    #[test]
    fn wake_only_scenario_keeps_kernel_equivalence() {
        // A scenario that only staggers wake-ups must not force the
        // scalar path — and both kernels must agree under it.
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::grid2d(8, 8);
        for wake in [
            WakePattern::Wavefront {
                stride: 3,
                latest: 12,
            },
            WakePattern::Alternating { round: 7 },
            WakePattern::DegreeTargeted {
                fraction: 0.3,
                latest: 10,
            },
            WakePattern::Random {
                fraction: 0.5,
                latest: 9,
            },
        ] {
            let spec = Arc::new(ScenarioSpec::new(5).with_wake(wake));
            let base = SimConfig::default()
                .with_mis_keeps_beeping(true)
                .with_scenario(spec);
            let a = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.clone().with_kernel(PropagationKernel::Scalar),
            )
            .run();
            let b = Simulator::new(
                &g,
                &Coin::factory(0.5),
                9,
                base.with_kernel(PropagationKernel::Bitset),
            )
            .run();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn scenario_wake_merges_with_fault_plan() {
        // Node 1 sleeps until max(plan, scenario) = 30; with heartbeats
        // the outcome matches the plain FaultPlan late-waker test.
        use crate::scenario::{ScenarioSpec, WakePattern};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_mis_keeps_beeping(true)
            .with_faults(FaultPlan {
                message_loss: 0.0,
                wake_rounds: vec![0, 12],
            })
            .with_scenario(Arc::new(ScenarioSpec::new(0).with_wake(
                WakePattern::Explicit {
                    rounds: vec![0, 30],
                },
            )));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 4, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.rounds() > 30, "node 1 woke too early");
    }

    #[test]
    fn scenario_runs_are_deterministic_and_kernel_independent() {
        use crate::scenario::{ChurnModel, DelayModel, LossModel, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::gnp(40, 0.2, &mut rand::rngs::SmallRng::seed_from_u64(8));
        let spec = ScenarioSpec::new(31)
            .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.3 })
            .with_delay(DelayModel::Random { p: 0.2, max: 3 })
            .with_churn(ChurnModel::Random {
                p: 0.15,
                max_len: 4,
                earliest: 1,
                latest: 12,
            });
        let base = SimConfig::default()
            .with_max_rounds(5_000)
            .with_mis_keeps_beeping(true)
            .with_scenario(Arc::new(spec.clone()));
        let a = Simulator::new(&g, &Coin::factory(0.5), 17, base.clone()).run();
        let b = Simulator::new(&g, &Coin::factory(0.5), 17, base.clone()).run();
        assert_eq!(a, b);
        // The perturbing scenario forces the scalar reference path, so the
        // kernel setting cannot change the outcome.
        let c = Simulator::new(
            &g,
            &Coin::factory(0.5),
            17,
            base.clone().with_kernel(PropagationKernel::Scalar),
        )
        .run();
        assert_eq!(a, c);
        // And a rebuilt spec (fresh Arc, same fields) behaves identically.
        let rebuilt = base.with_scenario(Arc::new(spec));
        let d = Simulator::new(&g, &Coin::factory(0.5), 17, rebuilt).run();
        assert_eq!(a, d);
    }

    #[test]
    fn total_scenario_loss_blocks_all_inhibition() {
        // p = 1 uniform scenario loss on K₂: neither node ever hears the
        // other, so both always-beeping candidates join — the engine must
        // faithfully report the (invalid) result.
        use crate::scenario::ScenarioSpec;
        use std::sync::Arc;

        let g = generators::complete(2);
        let cfg = SimConfig::default()
            .with_max_rounds(50)
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(3, 1.0)));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn delayed_delivery_arrives_late() {
        // Path 0-1 with every delivery delayed by exactly 1 round: in
        // round 0 nobody hears anything, so both p = 1 candidates join.
        // The delay semantics are what makes that possible.
        use crate::scenario::{DelayModel, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_max_rounds(50)
            .with_scenario(Arc::new(
                ScenarioSpec::new(0).with_delay(DelayModel::Random { p: 1.0, max: 1 }),
            ));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 1, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.mis(), vec![0, 1]);
    }

    #[test]
    fn churned_out_node_is_frozen_not_dead() {
        // Path 0-1, node 1 absent for rounds 0..5, p = 1 processes with
        // heartbeats: node 0 joins alone in round 0; when node 1 returns
        // it hears the heartbeat and terminates covered.
        use crate::scenario::{ChurnModel, ChurnWindow, ScenarioSpec};
        use std::sync::Arc;

        let g = generators::path(2);
        let cfg = SimConfig::default()
            .with_max_rounds(100)
            .with_mis_keeps_beeping(true)
            .with_scenario(Arc::new(ScenarioSpec::new(0).with_churn(
                ChurnModel::Explicit {
                    windows: vec![ChurnWindow {
                        node: 1,
                        from: 0,
                        until: 5,
                    }],
                },
            )));
        let outcome = Simulator::new(&g, &Coin::factory(1.0), 2, cfg).run();
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0]);
        assert_eq!(outcome.statuses()[1], NodeStatus::Covered);
        assert!(outcome.rounds() >= 5, "node 1 decided while absent");
    }

    #[test]
    fn debug_format() {
        let g = generators::path(3);
        let sim = Simulator::new(&g, &Coin::factory(0.5), 0, SimConfig::default());
        assert!(format!("{sim:?}").contains("Simulator"));
        let stepper = sim.into_stepper();
        assert!(format!("{stepper:?}").contains("Stepper"));
    }
}
