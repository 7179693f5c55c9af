//! Synchronous message-passing runtime with bit accounting.
//!
//! Unlike the beeping model, processes here exchange *typed messages* with
//! their neighbours and receive full inboxes (one message per active
//! neighbour). Each round has two broadcast sub-rounds mirroring the
//! beeping simulator's two exchanges, so round counts are comparable.
//!
//! # One run loop
//!
//! [`MessageSimulator`] runs every configuration — both inbox strategies,
//! with or without a [`ScenarioSpec`] — through one loop. Each round
//! wakes the sleepers that are due and marks the churned-out nodes, then
//! walks three per-node passes over receiver ranges: one range inline for
//! [`run`](MessageSimulator::run), one scoped thread per range for
//! [`run_sharded`](MessageSimulator::run_sharded). A sub-round's inboxes
//! are either **pushed** into one arena of fixed per-node slices (a
//! sparse sub-round whose deliveries are all on time) or **pulled** by
//! each receiver from the previous sub-round's outbox into its range's
//! reused scratch inbox, and deliveries are accounted as they arrive.
//! When a scenario perturbs deliveries or churns, every sub-round pulls,
//! and each pulled message meets its per-delivery fate: on time, dropped,
//! or parked with its receiver until it comes due.
//! [`InboxStrategy::FreshVecs`] pulls every inbox into a newly allocated
//! `Vec` and never pushes; the equivalence suites compare the push
//! direction and buffer reuse against it.
//!
//! # Delivery order
//!
//! Inboxes are delivered in **ascending neighbour id order** — a pinned
//! part of the runtime contract (see [`InboxStrategy`]), so algorithms
//! whose decisions scan their inbox left to right are deterministic by
//! construction. Both directions inherit the order from the graph's
//! ascending neighbour iteration (the [`GraphView`] contract); delayed
//! messages follow the on-time ones.
//!
//! # Graph representation
//!
//! [`MessageSimulator`] is generic over [`GraphView`] (defaulting to the
//! CSR [`Graph`]), so every message family runs on the lazy derived-graph
//! views — Luby on a `LineGraphView` *is* a distributed maximal-matching
//! baseline — without materialising the derived adjacency. The inbox
//! buffers are sized from [`GraphView::degree`], never from CSR offsets.
//! Each pass over many nodes reads adjacency through one
//! [`NeighborCursor`], so the paged `DiskGraph` looks a 64-node block up
//! once per run of reads inside it.
//!
//! # Intra-run sharding
//!
//! [`MessageSimulator::run_sharded`] splits each per-node pass across
//! worker threads by receiver range, through
//! [`mis_beeping::batch::over_ranges`] (the helper the beeping `Stepper`
//! also shards its bitset pull with). A pushed sub-round is laid out in
//! the arena sequentially first; in a pulled one each worker pulls its
//! receivers' inboxes from the shared outbox of the previous sub-round.
//! Because per-node draws come from per-node streams, scenario answers
//! are pure, and a receiver's pass never touches another's state (its
//! parked messages included), the sharded run is **bit-identical** to
//! the sequential run for every shard count and every scenario.

use std::sync::Arc;

use rand::rngs::SmallRng;

use mis_beeping::batch::over_ranges;
use mis_beeping::rng::node_rng;
use mis_beeping::scenario::{Delivery, ScenarioSpec};
use mis_beeping::{NetworkInfo, NodeStatus, Verdict};
use mis_graph::{Graph, GraphView, NeighborCursor, NodeId};

/// A message-passing automaton run at each node by [`MessageSimulator`].
///
/// Sharded runs hand processes and messages to worker threads, hence the
/// `Send` and `Sync` bounds.
pub trait MessageProcess: Send {
    /// Message type exchanged with neighbours.
    type Msg: Clone + Send + Sync;

    /// Sub-round 1: optionally broadcast a message to all neighbours.
    fn broadcast1(&mut self, rng: &mut SmallRng) -> Option<Self::Msg>;

    /// Sub-round 2: receive the messages of active neighbours — delivered
    /// in ascending neighbour id order, a pinned contract of the runtime —
    /// and optionally broadcast a second message (typically a join
    /// announcement).
    fn broadcast2(&mut self, inbox: &[Self::Msg]) -> Option<Self::Msg>;

    /// End of round: receive the second-sub-round inbox (ascending
    /// neighbour id order, like [`broadcast2`](Self::broadcast2)) and
    /// decide.
    fn decide(&mut self, inbox: &[Self::Msg]) -> Verdict;

    /// Size in bits of a message on the wire (for bit-complexity
    /// accounting).
    fn message_bits(msg: &Self::Msg) -> u64;

    /// Extra bits this process consumed through out-of-band accounting
    /// (used by the Métivier bit-duel simulation); collected once at the
    /// end of the run.
    fn bits_consumed(&self) -> u64 {
        0
    }
}

/// Builds per-node [`MessageProcess`] instances.
pub trait MessageFactory {
    /// The process type this factory builds.
    type Process: MessageProcess;

    /// Builds the process for `node` with the given static `degree`.
    fn create(&self, node: NodeId, degree: usize, info: &NetworkInfo) -> Self::Process;
}

/// Message and bit counts for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MessageMetrics {
    /// Total messages broadcast (one per sender per sub-round, counted
    /// once per *edge delivery*).
    pub messages_delivered: u64,
    /// Total bits across all deliveries (message size × deliveries), plus
    /// any out-of-band bits reported by processes.
    pub bits_total: u64,
}

impl MessageMetrics {
    /// Mean bits per channel over the `m` edges of the graph (0 when the
    /// graph has no edges).
    #[must_use]
    pub fn mean_bits_per_channel(&self, edge_count: usize) -> f64 {
        if edge_count == 0 {
            0.0
        } else {
            self.bits_total as f64 / edge_count as f64
        }
    }
}

/// Result of a [`MessageSimulator`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgRunOutcome {
    statuses: Vec<NodeStatus>,
    rounds: u32,
    terminated: bool,
    metrics: MessageMetrics,
}

impl MsgRunOutcome {
    /// Nodes that joined the independent set, sorted ascending.
    #[must_use]
    pub fn mis(&self) -> Vec<NodeId> {
        self.statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == NodeStatus::InMis)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Final node statuses.
    #[must_use]
    pub fn statuses(&self) -> &[NodeStatus] {
        &self.statuses
    }

    /// Rounds executed.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Whether all nodes became inactive before the round cap.
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.terminated
    }

    /// Message/bit accounting.
    #[must_use]
    pub fn metrics(&self) -> &MessageMetrics {
        &self.metrics
    }
}

/// How [`MessageSimulator`] materialises per-node inboxes.
///
/// Both strategies run on the same loop and deliver the same messages in
/// the same (ascending neighbour id) order, so run outcomes are
/// **bit-identical** for every scenario and shard count — only allocation
/// behaviour and speed differ. `simbench --suite baselines` times the two
/// against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InboxStrategy {
    /// Reused buffers (the default): in the pull direction one scratch
    /// inbox per receiver range, reused by every receiver in it; in the
    /// push direction one arena buffer holding every node's inbox as a
    /// fixed slice in ascending node order. No steady-state allocations
    /// on a reliable run, and accounting fused with delivery.
    #[default]
    Arena,
    /// The reference: every inbox pulled into a newly allocated `Vec`,
    /// never pushed. The equivalence tests compare the push direction and
    /// buffer reuse of [`Arena`](Self::Arena) against it.
    FreshVecs,
}

/// Synchronous message-passing engine (reliable network, static topology).
///
/// Generic over the graph representation `G` (any [`GraphView`]; the CSR
/// [`Graph`] by default), so the same runtime drives a message family on a
/// materialised graph or on a lazy derived-graph view.
///
/// # Examples
///
/// Luby's random-priority algorithm on the line-graph view — a maximal
/// *matching* of the base graph, elected by a classical message-passing
/// baseline without building `L(G)`:
///
/// ```
/// use mis_baselines::{LubyPriorityFactory, MessageSimulator};
/// use mis_graph::{generators, GraphView, LineGraphView};
///
/// let g = generators::grid2d(4, 4);
/// let lg = LineGraphView::new(&g);
/// let outcome = MessageSimulator::new(&lg, &LubyPriorityFactory::new(), 7).run(10_000);
/// assert!(outcome.terminated());
/// // The elected MIS of L(G) is a maximal matching of G.
/// mis_core::verify::check_mis(&lg, &outcome.mis()).unwrap();
/// let edges: Vec<_> = outcome.mis().iter().map(|&i| lg.edge_of(i)).collect();
/// assert!(!edges.is_empty());
/// ```
pub struct MessageSimulator<'g, F: MessageFactory, G: GraphView + ?Sized = Graph> {
    graph: &'g G,
    processes: Vec<F::Process>,
    status: Vec<NodeStatus>,
    rngs: Vec<SmallRng>,
    strategy: InboxStrategy,
    scenario: Option<Arc<ScenarioSpec>>,
    max_degree: usize,
}

impl<'g, F: MessageFactory, G: GraphView + ?Sized> MessageSimulator<'g, F, G> {
    /// Creates a simulator over `graph`, seeding all node streams from
    /// `master_seed`.
    pub fn new(graph: &'g G, factory: &F, master_seed: u64) -> Self {
        let max_degree = graph.max_degree();
        let info = NetworkInfo {
            node_count: graph.node_count(),
            max_degree,
        };
        let mut cursor = graph.cursor();
        let processes = (0..graph.node_count() as NodeId)
            .map(|v| factory.create(v, cursor.degree(v), &info))
            .collect();
        let status = vec![NodeStatus::Active; graph.node_count()];
        let rngs = (0..graph.node_count() as NodeId)
            .map(|v| node_rng(master_seed, v))
            .collect();
        Self {
            graph,
            processes,
            status,
            rngs,
            strategy: InboxStrategy::default(),
            scenario: None,
            max_degree,
        }
    }

    /// Selects the [`InboxStrategy`] (default [`InboxStrategy::Arena`]).
    /// Never affects the results, only the wall clock.
    #[must_use]
    pub fn with_inbox_strategy(mut self, strategy: InboxStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a composable adversary (see `mis_beeping::scenario`) so
    /// the message families face the same loss/delay/wake/churn schedules
    /// as the beeping algorithms. A scenario run honours the inbox
    /// strategy and shards like a reliable one; a wake-only scenario keeps
    /// the push direction too.
    ///
    /// # Panics
    ///
    /// Panics with the validator's message if
    /// [`ScenarioSpec::validate`] rejects the spec.
    #[must_use]
    pub fn with_scenario(mut self, scenario: Arc<ScenarioSpec>) -> Self {
        if let Err(e) = scenario.validate() {
            panic!("{e}");
        }
        self.scenario = Some(scenario);
        self
    }

    /// Runs until every node is inactive or `max_rounds` is hit.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    #[must_use]
    pub fn run(self, max_rounds: u32) -> MsgRunOutcome {
        self.run_sharded(max_rounds, 1)
    }

    /// Runs like [`run`](Self::run), but splits every per-node pass across
    /// `shards` worker threads by receiver range — **bit-identical** to the
    /// sequential run for every shard count, inbox strategy and scenario,
    /// only faster.
    ///
    /// Four properties make this sound without any locking:
    ///
    /// * sub-round 1 draws come from per-node streams ([`node_rng`]), so
    ///   a node's broadcast never depends on when other nodes draw;
    /// * each worker writes only its own receiver range and reads the
    ///   outbox of the *previous* sub-round, complete once its pass has
    ///   joined. A pushed sub-round is laid out in the arena sequentially
    ///   before the pass, a pulled one is pulled by each worker, and both
    ///   directions build the same ascending-sender inboxes;
    /// * a scenario's churn and delivery answers are pure, and a delayed
    ///   message is parked with its receiver, inside that receiver's range;
    /// * the delivery counters are plain integer sums, which reassociate
    ///   freely across shard boundaries.
    ///
    /// `shards == 0` auto-detects the worker count. One range (one shard,
    /// or a single-node graph) runs inline on the calling thread, which is
    /// exactly [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    #[must_use]
    pub fn run_sharded(mut self, max_rounds: u32, shards: usize) -> MsgRunOutcome {
        assert!(max_rounds > 0, "round cap must be positive");
        let shards = match shards {
            0 => mis_beeping::batch::auto_jobs(),
            s => s,
        };
        let graph = self.graph;
        let n = graph.node_count();
        let chunk = n.div_ceil(shards).max(1);
        let scenario = self.scenario.take();
        let spec = scenario.as_deref();
        let churn = spec.filter(|s| s.has_churn());
        let fates = spec.filter(|s| s.perturbs_deliveries());
        let fresh = self.strategy == InboxStrategy::FreshVecs;
        let push = !fresh && fates.is_none() && churn.is_none();
        let exchange = |slot| Exchange {
            slot,
            push,
            fresh,
            fates,
        };
        let mut sleepers = self.sleepers(spec);
        let mut outbox1: Vec<Option<MsgOf<F>>> = vec![None; n];
        let mut outbox2: Vec<Option<MsgOf<F>>> = vec![None; n];
        // Pull direction: one inbox per receiver range, reused by its
        // receivers for the whole run, so each delivery + consumption
        // happens in cache. Sized up front from the view's maximum degree
        // (views have no CSR offsets to size from), which only the delayed
        // messages appended after the on-time ones can outgrow. Churn marks
        // and parked messages are kept only for scenarios that use them.
        let mut ranges: Vec<RangeState<MsgOf<F>>> = (0..n.div_ceil(chunk))
            .map(|c| {
                let len = chunk.min(n - c * chunk);
                RangeState {
                    inbox: Vec::with_capacity(self.max_degree),
                    away: vec![false; if churn.is_some() { len } else { 0 }],
                    pending: vec![Vec::new(); if fates.is_some() { len } else { 0 }],
                }
            })
            .collect();
        // Push direction: all inboxes laid out as fixed per-node slices
        // (`spans[v]..spans[v + 1]` indexes `arena` for node v).
        let mut arena: Vec<MsgOf<F>> = Vec::new();
        let mut spans: Vec<usize> = vec![0; n + 1];
        let mut cursors: Vec<usize> = vec![0; n];
        let mut total = Tally::default();
        // Sleepers count as remaining: they have yet to decide.
        let mut remaining = n;
        let mut rounds = 0u32;

        while remaining > 0 && rounds < max_rounds {
            while let Some((_, v)) = sleepers.pop_if(|&mut (wake, _)| wake <= rounds) {
                self.status[v as usize] = NodeStatus::Active;
            }
            // Sub-round 1 broadcasts: per-node streams are consumed
            // node-locally, so ranges cannot perturb each other's draws.
            over_ranges(
                self.processes
                    .chunks_mut(chunk)
                    .zip(self.rngs.chunks_mut(chunk))
                    .zip(outbox1.chunks_mut(chunk))
                    .zip(self.status.chunks(chunk))
                    .zip(ranges.iter_mut()),
                |c, ((((procs, rngs), outs), status), range)| {
                    for (i, out) in outs.iter_mut().enumerate() {
                        if let Some(spec) = churn {
                            range.away[i] = spec.absent((c * chunk + i) as NodeId, rounds);
                        }
                        *out = if range.present(status[i], i) {
                            procs[i].broadcast1(&mut rngs[i])
                        } else {
                            None
                        };
                    }
                },
            );

            // Sub-round 2: deliver the first inboxes, collect second
            // broadcasts.
            let inboxes = deliver::<F, G>(
                graph,
                &self.status,
                &outbox1,
                remaining,
                exchange((rounds, 0)),
                (&mut arena, &mut spans, &mut cursors),
                &mut total,
            );
            total += over_ranges(
                self.processes
                    .chunks_mut(chunk)
                    .zip(outbox2.chunks_mut(chunk))
                    .zip(self.status.chunks(chunk))
                    .zip(ranges.iter_mut()),
                |c, (((procs, outs), status), range)| {
                    let mut tally = Tally::default();
                    let mut cursor = graph.cursor();
                    for (i, out) in outs.iter_mut().enumerate() {
                        *out = if range.present(status[i], i) {
                            let v = (c * chunk + i) as NodeId;
                            procs[i].broadcast2(inboxes.get(&mut cursor, v, range, i, &mut tally))
                        } else {
                            None
                        };
                    }
                    tally
                },
            )
            .into_iter()
            .sum();

            // Decisions from the second inboxes.
            let inboxes = deliver::<F, G>(
                graph,
                &self.status,
                &outbox2,
                remaining,
                exchange((rounds, 1)),
                (&mut arena, &mut spans, &mut cursors),
                &mut total,
            );
            let decided: Tally = over_ranges(
                self.processes
                    .chunks_mut(chunk)
                    .zip(self.status.chunks_mut(chunk))
                    .zip(ranges.iter_mut()),
                |c, ((procs, statuses), range)| {
                    let mut tally = Tally::default();
                    let mut cursor = graph.cursor();
                    for (i, status) in statuses.iter_mut().enumerate() {
                        if range.present(*status, i) {
                            let v = (c * chunk + i) as NodeId;
                            let inbox = inboxes.get(&mut cursor, v, range, i, &mut tally);
                            *status = match procs[i].decide(inbox) {
                                Verdict::Continue => continue,
                                Verdict::JoinMis => NodeStatus::InMis,
                                Verdict::Covered => NodeStatus::Covered,
                            };
                            tally.decided += 1;
                        }
                    }
                    tally
                },
            )
            .into_iter()
            .sum();
            remaining -= decided.decided;
            total += decided;
            rounds += 1;
        }

        // Out-of-band bits every process reports join the delivered ones.
        let oob: u64 = self
            .processes
            .iter()
            .map(MessageProcess::bits_consumed)
            .sum();
        MsgRunOutcome {
            statuses: self.status,
            rounds,
            terminated: remaining == 0,
            metrics: MessageMetrics {
                messages_delivered: total.delivered,
                bits_total: total.bits + oob,
            },
        }
    }

    /// Marks the nodes `spec` wakes after round 0 asleep and returns them
    /// as `(wake round, node)`, latest first, so the due ones pop off the
    /// end.
    fn sleepers(&mut self, spec: Option<&ScenarioSpec>) -> Vec<(u32, NodeId)> {
        let Some(spec) = spec else {
            return Vec::new();
        };
        let mut cursor = self.graph.cursor();
        let degrees: Vec<usize> = (0..self.graph.node_count() as NodeId)
            .map(|v| cursor.degree(v))
            .collect();
        let mut sleepers: Vec<(u32, NodeId)> = spec
            .wake_schedule(&degrees)
            .into_iter()
            .zip(0..)
            .filter(|&(wake, _)| wake > 0)
            .collect();
        for &(_, v) in &sleepers {
            self.status[v as usize] = NodeStatus::Asleep;
        }
        sleepers.sort_unstable_by(|a, b| b.cmp(a));
        sleepers
    }
}

/// Shorthand for the message type of a factory's process.
pub type MsgOf<F> = <<F as MessageFactory>::Process as MessageProcess>::Msg;

/// One delayed delivery parked with its receiver: (arrival round,
/// sub-round, message).
type PendingMsg<M> = (u32, u8, M);

/// Delivery counters and decisions of one per-node pass.
#[derive(Clone, Copy, Default)]
struct Tally {
    delivered: u64,
    bits: u64,
    decided: usize,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, other: Self) {
        self.delivered += other.delivered;
        self.bits += other.bits;
        self.decided += other.decided;
    }
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Self>>(tallies: I) -> Self {
        tallies.fold(Self::default(), |mut total, t| {
            total += t;
            total
        })
    }
}

/// A receiver range's own state, aligned to a cache-line pair of its own:
/// every pull writes the inbox `Vec`'s length, and ranges on different
/// threads sharing a line would contend for it on every delivery.
#[repr(align(128))]
struct RangeState<M> {
    /// The pull inbox every receiver of the range reuses.
    inbox: Vec<M>,
    /// Per receiver: churned out this round. Empty without churn.
    away: Vec<bool>,
    /// Per receiver: its delayed deliveries, in the order they were
    /// parked. Empty unless the scenario perturbs deliveries.
    pending: Vec<Vec<PendingMsg<M>>>,
}

impl<M> RangeState<M> {
    /// Whether receiver `i` of the range, with `status`, takes part in
    /// this round: active, and not churned out.
    fn present(&self, status: NodeStatus, i: usize) -> bool {
        status == NodeStatus::Active && self.away.get(i) != Some(&true)
    }
}

/// Sender-density threshold for the delivery direction: with fewer than
/// `active / PUSH_CROSSOVER` senders, push from each sender instead of
/// scanning every active receiver's full neighbour list. Both directions
/// produce identical inboxes (ascending sender id); this only tunes speed
/// — the same lever the beeping simulator's bitset kernel pulls per
/// exchange.
const PUSH_CROSSOVER: usize = 4;

/// How the receivers of one sub-round get their inboxes.
#[derive(Clone, Copy)]
struct Exchange<'a> {
    /// `(round, sub-round)` of the exchange.
    slot: (u32, u8),
    /// Whether a sparse sub-round may be pushed: only when every delivery
    /// is on time and nobody churns, and never for
    /// [`InboxStrategy::FreshVecs`].
    push: bool,
    /// Pull into a newly allocated `Vec` ([`InboxStrategy::FreshVecs`]).
    fresh: bool,
    /// The scenario deciding each pulled message's fate, when it perturbs
    /// deliveries.
    fates: Option<&'a ScenarioSpec>,
}

/// Where a sub-round's inboxes are found for processes `P`.
enum Inboxes<'a, P: MessageProcess> {
    /// Pushed: receiver v's inbox is `arena[spans[v]..spans[v + 1]]`,
    /// already accounted.
    Pushed {
        arena: &'a [P::Msg],
        spans: &'a [usize],
    },
    /// Pulled on demand from the sub-round's outbox.
    Pulled(&'a [Option<P::Msg>], Exchange<'a>),
}

impl<'a, P: MessageProcess> Inboxes<'a, P> {
    /// The inbox of receiver `v`, which is receiver `i` of `range`: its
    /// pushed slice, or a pull through the range pass's `cursor` into the
    /// range's inbox — in ascending neighbour id order, the pinned delivery
    /// contract inherited from the [`GraphView`] iteration order —
    /// accounted into `tally` on arrival.
    ///
    /// A pull under a scenario that perturbs deliveries gives each
    /// message its fate: on time, dropped, or parked with `v` for the same
    /// sub-round `d` rounds later. The parked messages due now follow the
    /// on-time ones in `(send round, sender)` order, the order `v` parked
    /// them in. Those past due came due while `v` was not collecting
    /// (asleep, absent or decided) and are lost.
    #[inline]
    fn get<'s>(
        &self,
        cursor: &mut impl NeighborCursor,
        v: NodeId,
        range: &'s mut RangeState<P::Msg>,
        i: usize,
        tally: &mut Tally,
    ) -> &'s [P::Msg]
    where
        'a: 's,
    {
        let (outbox, exchange) = match self {
            Inboxes::Pushed { arena, spans } => {
                return &arena[spans[v as usize]..spans[v as usize + 1]]
            }
            Inboxes::Pulled(outbox, exchange) => (outbox, exchange),
        };
        let inbox = &mut range.inbox;
        if exchange.fresh {
            *inbox = Vec::new();
        } else {
            inbox.clear();
        }
        let Some(spec) = exchange.fates else {
            cursor.for_each_neighbor(v, |u| {
                if let Some(msg) = &outbox[u as usize] {
                    tally.delivered += 1;
                    tally.bits += P::message_bits(msg);
                    inbox.push(msg.clone());
                }
            });
            return inbox;
        };
        let (round, sub) = exchange.slot;
        let pending = &mut range.pending[i];
        cursor.for_each_neighbor(v, |u| {
            if let Some(msg) = &outbox[u as usize] {
                match spec.delivery(u, v, round, u32::from(sub)) {
                    Delivery::OnTime => inbox.push(msg.clone()),
                    Delivery::Dropped => {}
                    Delivery::Delayed(d) => pending.push((round + d.max(1), sub, msg.clone())),
                }
            }
        });
        pending.retain(|(arrival, s, msg)| {
            if (*arrival, *s) == (round, sub) {
                inbox.push(msg.clone());
            }
            (*arrival, *s) > (round, sub)
        });
        tally.delivered += inbox.len() as u64;
        tally.bits += inbox.iter().map(P::message_bits).sum::<u64>();
        inbox
    }
}

/// Picks the delivery direction for `outbox`: with fewer than
/// `remaining / PUSH_CROSSOVER` senders, in an exchange that may push,
/// push every active receiver's inbox into the arena now (accounted into
/// `total`); otherwise leave each receiver to pull its own.
fn deliver<'a, F: MessageFactory, G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    outbox: &'a [Option<MsgOf<F>>],
    remaining: usize,
    exchange: Exchange<'a>,
    (arena, spans, cursors): (&'a mut Vec<MsgOf<F>>, &'a mut [usize], &mut [usize]),
    total: &mut Tally,
) -> Inboxes<'a, F::Process> {
    if !exchange.push || outbox.iter().filter(|o| o.is_some()).count() * PUSH_CROSSOVER >= remaining
    {
        return Inboxes::Pulled(outbox, exchange);
    }
    push_deliver::<F, G>(
        graph,
        status,
        outbox,
        (&mut *arena, &mut *spans, cursors),
        total,
    );
    Inboxes::Pushed { arena, spans }
}

/// Push direction: materialises **all** active receivers' inboxes as fixed
/// per-node slices of `arena` (`spans[v]..spans[v + 1]`), walking only the
/// senders' neighbour lists — a counting pass sizes each slice, a prefix
/// sum lays them out, and a second pass over the senders (ascending id, so
/// the pinned delivery order is preserved) fills them. Accounting rides
/// the counting pass. One cursor, `senders`, reads the senders of both
/// passes.
fn push_deliver<F: MessageFactory, G: GraphView + ?Sized>(
    graph: &G,
    status: &[NodeStatus],
    outbox: &[Option<MsgOf<F>>],
    (arena, spans, cursors): (&mut Vec<MsgOf<F>>, &mut [usize], &mut [usize]),
    total: &mut Tally,
) {
    let n = status.len();
    arena.clear();
    cursors.fill(0);
    let mut filler: Option<&MsgOf<F>> = None;
    let mut senders = graph.cursor();
    for (u, slot) in outbox.iter().enumerate() {
        let Some(msg) = slot else { continue };
        filler = Some(msg);
        let msg_bits = F::Process::message_bits(msg);
        senders.for_each_neighbor(u as NodeId, |v| {
            if status[v as usize] == NodeStatus::Active {
                cursors[v as usize] += 1;
                total.delivered += 1;
                total.bits += msg_bits;
            }
        });
    }
    // Lay the slices out; reuse `cursors` as per-receiver fill positions.
    spans[0] = 0;
    for v in 0..n {
        spans[v + 1] = spans[v] + cursors[v];
        cursors[v] = spans[v];
    }
    let Some(filler) = filler else { return };
    // Pre-size the arena (every slot is overwritten below).
    arena.resize(spans[n], Clone::clone(filler));
    for (u, slot) in outbox.iter().enumerate() {
        let Some(msg) = slot else { continue };
        senders.for_each_neighbor(u as NodeId, |v| {
            if status[v as usize] == NodeStatus::Active {
                arena[cursors[v as usize]] = msg.clone();
                cursors[v as usize] += 1;
            }
        });
    }
}

impl<F: MessageFactory, G: GraphView + ?Sized> core::fmt::Debug for MessageSimulator<'_, F, G> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MessageSimulator")
            .field("nodes", &self.graph.node_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    /// Joins immediately if it has no active neighbours; otherwise lowest
    /// id in the neighbourhood joins (a deterministic MIS algorithm).
    struct LowestId {
        id: NodeId,
        winner: bool,
    }

    impl MessageProcess for LowestId {
        type Msg = u32;

        fn broadcast1(&mut self, _rng: &mut SmallRng) -> Option<u32> {
            Some(self.id)
        }

        fn broadcast2(&mut self, inbox: &[u32]) -> Option<u32> {
            self.winner = inbox.iter().all(|&other| self.id < other);
            self.winner.then_some(self.id)
        }

        fn decide(&mut self, inbox: &[u32]) -> Verdict {
            if self.winner {
                Verdict::JoinMis
            } else if !inbox.is_empty() {
                Verdict::Covered
            } else {
                Verdict::Continue
            }
        }

        fn message_bits(_msg: &u32) -> u64 {
            32
        }
    }

    struct LowestIdFactory;

    impl MessageFactory for LowestIdFactory {
        type Process = LowestId;
        fn create(&self, node: NodeId, _degree: usize, _info: &NetworkInfo) -> LowestId {
            LowestId {
                id: node,
                winner: false,
            }
        }
    }

    #[test]
    fn lowest_id_selects_mis() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::complete(6),
            generators::grid2d(4, 4),
            mis_graph::Graph::empty(5),
        ] {
            let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0).run(1_000);
            assert!(outcome.terminated());
            mis_core::verify::check_mis(&g, &outcome.mis()).unwrap();
        }
    }

    #[test]
    fn path_lowest_id_is_greedy() {
        let g = generators::path(6);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0).run(100);
        assert_eq!(outcome.mis(), vec![0, 2, 4]);
    }

    #[test]
    fn bits_are_accounted() {
        // K₂: round 1 delivers 2 id messages (32 bits each) and 1 join
        // (node 0 wins; node 1 inactive after). Join broadcast from 0
        // reaches 1 active neighbour: 3 deliveries × 32 bits.
        let g = generators::complete(2);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0).run(100);
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.metrics().messages_delivered, 3);
        assert_eq!(outcome.metrics().bits_total, 96);
        assert!((outcome.metrics().mean_bits_per_channel(1) - 96.0).abs() < 1e-12);
    }

    #[test]
    fn round_cap_reported() {
        /// Never decides.
        struct Stubborn;
        impl MessageProcess for Stubborn {
            type Msg = ();
            fn broadcast1(&mut self, _rng: &mut SmallRng) -> Option<()> {
                None
            }
            fn broadcast2(&mut self, _inbox: &[()]) -> Option<()> {
                None
            }
            fn decide(&mut self, _inbox: &[()]) -> Verdict {
                Verdict::Continue
            }
            fn message_bits(_msg: &()) -> u64 {
                0
            }
        }
        struct StubbornFactory;
        impl MessageFactory for StubbornFactory {
            type Process = Stubborn;
            fn create(&self, _: NodeId, _: usize, _: &NetworkInfo) -> Stubborn {
                Stubborn
            }
        }
        let g = generators::path(3);
        let outcome = MessageSimulator::new(&g, &StubbornFactory, 0).run(17);
        assert!(!outcome.terminated());
        assert_eq!(outcome.rounds(), 17);
    }

    #[test]
    fn empty_graph_is_instant() {
        let g = mis_graph::Graph::empty(0);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0).run(10);
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 0);
    }

    #[test]
    fn mean_bits_handles_edgeless() {
        let m = MessageMetrics::default();
        assert_eq!(m.mean_bits_per_channel(0), 0.0);
    }

    #[test]
    fn arena_and_fresh_vecs_agree_everywhere() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::complete(6),
            generators::grid2d(4, 4),
            generators::star(7),
            mis_graph::Graph::empty(5),
            mis_graph::Graph::empty(0),
        ] {
            for seed in 0..3 {
                let arena = MessageSimulator::new(&g, &LowestIdFactory, seed)
                    .with_inbox_strategy(InboxStrategy::Arena)
                    .run(1_000);
                let fresh = MessageSimulator::new(&g, &LowestIdFactory, seed)
                    .with_inbox_strategy(InboxStrategy::FreshVecs)
                    .run(1_000);
                assert_eq!(arena, fresh, "{g:?} seed {seed}");
            }
        }
    }

    /// Broadcasts its own id and asserts the runtime's pinned contract:
    /// inboxes arrive in strictly ascending sender id order, and the first
    /// round delivers exactly one message per neighbour.
    struct OrderProbe {
        id: NodeId,
        degree: usize,
        round: u32,
        winner: bool,
    }

    impl OrderProbe {
        fn check(&self, inbox: &[u32]) {
            assert!(
                inbox.windows(2).all(|w| w[0] < w[1]),
                "node {}: inbox {inbox:?} not ascending",
                self.id
            );
        }
    }

    impl MessageProcess for OrderProbe {
        type Msg = u32;

        fn broadcast1(&mut self, _rng: &mut SmallRng) -> Option<u32> {
            Some(self.id)
        }

        fn broadcast2(&mut self, inbox: &[u32]) -> Option<u32> {
            self.check(inbox);
            if self.round == 0 {
                // Every node is active in round 1, so the value exchange
                // must deliver exactly one message per neighbour.
                assert_eq!(
                    inbox.len(),
                    self.degree,
                    "node {}: first round must deliver one message per neighbour",
                    self.id
                );
            }
            self.winner = inbox.iter().all(|&other| self.id < other);
            self.winner.then_some(self.id)
        }

        fn decide(&mut self, inbox: &[u32]) -> Verdict {
            self.check(inbox);
            self.round += 1;
            if self.winner {
                Verdict::JoinMis
            } else if !inbox.is_empty() {
                Verdict::Covered
            } else {
                Verdict::Continue
            }
        }

        fn message_bits(_msg: &u32) -> u64 {
            32
        }
    }

    struct OrderProbeFactory;

    impl MessageFactory for OrderProbeFactory {
        type Process = OrderProbe;
        fn create(&self, node: NodeId, degree: usize, _info: &NetworkInfo) -> OrderProbe {
            OrderProbe {
                id: node,
                degree,
                round: 0,
                winner: false,
            }
        }
    }

    #[test]
    fn trivial_scenario_matches_reliable_paths() {
        // A do-nothing scenario must be bit-identical to both reliable
        // strategies — the scenario path is a strict generalisation.
        use mis_beeping::scenario::ScenarioSpec;

        for g in [
            generators::path(10),
            generators::complete(6),
            generators::grid2d(4, 4),
            mis_graph::Graph::empty(5),
        ] {
            for seed in 0..3 {
                let reliable = MessageSimulator::new(&g, &LowestIdFactory, seed).run(1_000);
                let trivial = MessageSimulator::new(&g, &LowestIdFactory, seed)
                    .with_scenario(Arc::new(ScenarioSpec::new(9)))
                    .run(1_000);
                assert_eq!(reliable, trivial, "{g:?} seed {seed}");
            }
        }
    }

    #[test]
    fn scenario_runs_are_deterministic_and_strategy_independent() {
        use mis_beeping::scenario::{ChurnModel, DelayModel, LossModel, ScenarioSpec, WakePattern};

        let g = generators::grid2d(5, 5);
        let spec = ScenarioSpec::new(21)
            .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.3 })
            .with_delay(DelayModel::Random { p: 0.2, max: 2 })
            .with_wake(WakePattern::Wavefront {
                stride: 4,
                latest: 5,
            })
            .with_churn(ChurnModel::Random {
                p: 0.1,
                max_len: 3,
                earliest: 1,
                latest: 8,
            });
        let run = |strategy| {
            MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), 3)
                .with_inbox_strategy(strategy)
                .with_scenario(Arc::new(spec.clone()))
                .run(10_000)
        };
        let a = run(InboxStrategy::Arena);
        let b = run(InboxStrategy::Arena);
        assert_eq!(a, b);
        // Both inbox strategies deliver the same inboxes under a scenario.
        let c = run(InboxStrategy::FreshVecs);
        assert_eq!(a, c);
    }

    #[test]
    fn scenario_wake_staggers_message_nodes() {
        // Path 0-1 under LowestId: node 0 wins round 0 when both are
        // awake. If node 1 sleeps 5 rounds, node 0 still joins at round 0
        // (empty inbox => winner), node 1 joins later — both in the MIS is
        // the expected (invalid) result only if 1 never hears 0; here 0's
        // broadcasts stop once it is InMis but heartbeat-free, so node 1
        // wakes to silence and joins too.
        use mis_beeping::scenario::{ScenarioSpec, WakePattern};

        let g = generators::path(2);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0)
            .with_scenario(Arc::new(
                ScenarioSpec::new(0).with_wake(WakePattern::Explicit { rounds: vec![0, 5] }),
            ))
            .run(1_000);
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1]);
        assert!(outcome.rounds() > 5);
    }

    #[test]
    fn total_scenario_loss_starves_inboxes() {
        // p = 1 loss: every inbox is empty, so every LowestId node sees no
        // competitors and joins immediately.
        use mis_beeping::scenario::ScenarioSpec;

        let g = generators::complete(4);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0)
            .with_scenario(Arc::new(ScenarioSpec::uniform_loss(1, 1.0)))
            .run(100);
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1, 2, 3]);
        assert_eq!(outcome.metrics().messages_delivered, 0);
    }

    #[test]
    fn delayed_messages_arrive_after_on_time_ones() {
        // Delay everything by exactly 1 round on K₂: round 0 inboxes are
        // empty (both nodes join, like total loss), but the deliveries are
        // not lost — they arrive in round 1 to already-decided receivers
        // and are discarded. Deliveries counted: 0.
        use mis_beeping::scenario::{DelayModel, ScenarioSpec};

        let g = generators::complete(2);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0)
            .with_scenario(Arc::new(
                ScenarioSpec::new(0).with_delay(DelayModel::Random { p: 1.0, max: 1 }),
            ))
            .run(100);
        assert!(outcome.terminated());
        assert_eq!(outcome.rounds(), 1);
        assert_eq!(outcome.mis(), vec![0, 1]);
        assert_eq!(outcome.metrics().messages_delivered, 0);
    }

    #[test]
    fn delayed_message_due_while_its_receiver_is_churned_out_is_lost() {
        use mis_beeping::scenario::{ChurnModel, ChurnWindow, DelayModel, ScenarioSpec};

        /// Broadcasts in sub-round 1 every round and never decides.
        struct Chatter;
        impl MessageProcess for Chatter {
            type Msg = ();
            fn broadcast1(&mut self, _rng: &mut SmallRng) -> Option<()> {
                Some(())
            }
            fn broadcast2(&mut self, _inbox: &[()]) -> Option<()> {
                None
            }
            fn decide(&mut self, _inbox: &[()]) -> Verdict {
                Verdict::Continue
            }
            fn message_bits(_msg: &()) -> u64 {
                1
            }
        }
        struct ChatterFactory;
        impl MessageFactory for ChatterFactory {
            type Process = Chatter;
            fn create(&self, _: NodeId, _: usize, _: &NetworkInfo) -> Chatter {
                Chatter
            }
        }

        // Every message arrives exactly one round late: over 4 rounds on
        // P₂ each node receives the broadcasts of rounds 0, 1 and 2.
        let g = generators::path(2);
        let delayed = ScenarioSpec::new(0).with_delay(DelayModel::Random { p: 1.0, max: 1 });
        let run = |spec: ScenarioSpec| {
            MessageSimulator::new(&g, &ChatterFactory, 0)
                .with_scenario(Arc::new(spec))
                .run(4)
                .metrics()
                .messages_delivered
        };
        assert_eq!(run(delayed.clone()), 6);
        // Node 1 is away in round 1: node 0's round-0 message, due then,
        // is lost rather than delivered late in round 2; node 1 neither
        // sends nor parks node 0's round-1 message. Node 0 still receives
        // node 1's round-0 message, and both receive round 2's.
        let churned = delayed.with_churn(ChurnModel::Explicit {
            windows: vec![ChurnWindow {
                node: 1,
                from: 1,
                until: 2,
            }],
        });
        assert_eq!(run(churned), 3);
    }

    #[test]
    fn churned_message_node_freezes_and_resumes() {
        use mis_beeping::scenario::{ChurnModel, ChurnWindow, ScenarioSpec};

        // Path 0-1-2, node 1 absent for rounds 0..3. Nodes 0 and 2 join in
        // round 0 (no active neighbour broadcasts reach them — node 1 is
        // away). Node 1 resumes at round 3, hears nothing (neighbours are
        // silent InMis), and joins: the engine must faithfully report the
        // independence violation for the verifier to catch.
        let g = generators::path(3);
        let outcome = MessageSimulator::new(&g, &LowestIdFactory, 0)
            .with_scenario(Arc::new(ScenarioSpec::new(0).with_churn(
                ChurnModel::Explicit {
                    windows: vec![ChurnWindow {
                        node: 1,
                        from: 0,
                        until: 3,
                    }],
                },
            )))
            .run(1_000);
        assert!(outcome.terminated());
        assert_eq!(outcome.mis(), vec![0, 1, 2]);
        assert!(outcome.rounds() > 3, "node 1 decided while absent");
    }

    #[test]
    fn sharded_runs_match_sequential_for_any_shard_count() {
        for g in [
            generators::path(10),
            generators::cycle(9),
            generators::complete(6),
            generators::grid2d(4, 4),
            generators::star(7),
            mis_graph::Graph::empty(5),
            mis_graph::Graph::empty(0),
        ] {
            for seed in 0..2 {
                let reference = MessageSimulator::new(&g, &LowestIdFactory, seed).run(1_000);
                for shards in [1, 2, 4, 7, 0] {
                    let sharded = MessageSimulator::new(&g, &LowestIdFactory, seed)
                        .run_sharded(1_000, shards);
                    assert_eq!(reference, sharded, "{g:?} seed {seed} shards {shards}");
                }
            }
        }
    }

    #[test]
    fn sharded_randomised_family_is_bit_identical_to_sequential() {
        // Luby draws from the per-node streams every round; equality here
        // proves sharding never perturbs any node's stream.
        let g = generators::grid2d(6, 6);
        for seed in 0..3 {
            let reference =
                MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), seed).run(10_000);
            for shards in [2, 5] {
                let sharded = MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), seed)
                    .run_sharded(10_000, shards);
                assert_eq!(reference, sharded, "seed {seed} shards {shards}");
            }
        }
    }

    #[test]
    fn sharded_runs_keep_the_inbox_order_contract() {
        for g in [generators::grid2d(5, 5), generators::complete(8)] {
            let outcome = MessageSimulator::new(&g, &OrderProbeFactory, 0).run_sharded(1_000, 4);
            assert!(outcome.terminated());
            mis_core::verify::check_mis(&g, &outcome.mis()).unwrap();
        }
    }

    #[test]
    fn sharded_scenario_runs_match_sequential() {
        use mis_beeping::scenario::{LossModel, ScenarioSpec};

        let g = generators::grid2d(5, 5);
        let spec = ScenarioSpec::new(13).with_loss(LossModel::Uniform { p: 0.2 });
        let sequential = MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), 3)
            .with_scenario(Arc::new(spec.clone()))
            .run(10_000);
        let sharded = MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), 3)
            .with_scenario(Arc::new(spec))
            .run_sharded(10_000, 4);
        assert_eq!(sequential, sharded);
    }

    #[test]
    #[should_panic(expected = "churn bounds are inverted")]
    fn inverted_churn_window_is_rejected_on_attach() {
        use mis_beeping::scenario::{ChurnModel, ScenarioSpec};

        let g = generators::cycle(32);
        let spec = ScenarioSpec::new(0).with_churn(ChurnModel::Random {
            p: 0.5,
            max_len: 3,
            earliest: 5,
            latest: 1,
        });
        let _ = MessageSimulator::new(&g, &crate::LubyPriorityFactory::new(), 0)
            .with_scenario(Arc::new(spec));
    }

    #[test]
    fn churn_window_ending_past_the_last_round_saturates() {
        use mis_beeping::scenario::{ChurnModel, ScenarioSpec};

        // Every node's absence would end past `u32::MAX`; it starts long
        // after a 50-round run ends, so the run matches the reliable one.
        let g = generators::cycle(32);
        let spec = ScenarioSpec::new(0).with_churn(ChurnModel::Random {
            p: 1.0,
            max_len: 10,
            earliest: u32::MAX - 2,
            latest: u32::MAX,
        });
        let factory = crate::LubyPriorityFactory::new();
        let churned = MessageSimulator::new(&g, &factory, 0)
            .with_scenario(Arc::new(spec))
            .run(50);
        assert_eq!(churned, MessageSimulator::new(&g, &factory, 0).run(50));
    }

    #[test]
    fn inbox_order_is_pinned_to_ascending_neighbour_id() {
        // Regression for the delivery-order contract: both strategies must
        // deliver ascending inboxes on every family, every round.
        for g in [
            generators::grid2d(5, 5),
            generators::complete(8),
            generators::star(9),
            generators::cycle(12),
        ] {
            for strategy in [InboxStrategy::Arena, InboxStrategy::FreshVecs] {
                let outcome = MessageSimulator::new(&g, &OrderProbeFactory, 0)
                    .with_inbox_strategy(strategy)
                    .run(1_000);
                assert!(outcome.terminated(), "{strategy:?}");
                mis_core::verify::check_mis(&g, &outcome.mis()).unwrap();
            }
        }
    }
}
