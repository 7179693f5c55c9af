//! Composable deterministic adversaries — the scenario engine's
//! primitives.
//!
//! [`FaultPlan`](crate::FaultPlan) injects two *uniform* perturbations
//! (i.i.d. message loss and fixed wake rounds). [`ScenarioSpec`]
//! generalises it into a composable adversary that can shape **where** and
//! **when** faults strike: per-edge loss rate distributions, message
//! delays, wake-up staggering patterns (wavefront, bipartite-alternating,
//! degree-targeted), and node churn (leave/re-join mid-run). The
//! worst-case *search* over scenarios lives upstream in
//! `mis_core::scenario`; this module owns [`ScenarioSpec`] because the
//! simulator in this crate must honour scenarios and `mis_core` depends on
//! `mis_beeping`, not the other way round.
//!
//! # Determinism contract
//!
//! Every [`ScenarioSpec`] decision is a **pure function** of the spec and
//! the query coordinates — there is no hidden stream to consume in order.
//! Each delivery fate is a counter draw, [`mix`]`(seed, from, to, round,
//! exchange)`, so the answer for one edge never depends on how many
//! other edges were queried first. That is what lets the bitset and scalar
//! kernels and any `--jobs` count agree bit-for-bit under the same
//! adversary, and what makes a recorded scenario replayable from
//! `(spec, seed)` alone.
//!
//! # Replay format
//!
//! [`ScenarioSpec`] serialises to a canonical JSON object (see
//! [`ScenarioSpec::to_json_string`]); `ScenarioSpec::from_json_str` parses
//! it back to an equal spec. Two scenarios behave identically iff their
//! canonical JSON is equal. [`SimConfig`](crate::SimConfig) embeds that
//! JSON in its own canonical form, and configs and engines compare their
//! scenarios by value ([`PartialEq`]).
//!
//! # Examples
//!
//! ```
//! use mis_beeping::scenario::{LossModel, ScenarioSpec, WakePattern};
//!
//! let spec = ScenarioSpec::new(42)
//!     .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.2 })
//!     .with_wake(WakePattern::Wavefront { stride: 2, latest: 16 });
//! let text = spec.to_json_string();
//! let back = ScenarioSpec::from_json_str(&text).unwrap();
//! assert_eq!(spec, back);
//! ```

use mis_graph::NodeId;

use crate::json::Json;
use crate::rng::{mix, unit};

/// Fate of one beep/message delivery over one directed edge, decided by
/// [`ScenarioSpec::delivery`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered within the exchange it was sent in (the reliable case).
    OnTime,
    /// Dropped entirely.
    Dropped,
    /// Delivered `d ≥ 1` rounds late, in the *same* exchange slot of round
    /// `round + d`. A delayed signal whose receiver is asleep, absent, or
    /// already decided at arrival is lost.
    Delayed(u32),
}

/// How deliveries are dropped.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// Reliable: nothing is dropped.
    None,
    /// Every delivery dropped i.i.d. with probability `p` — the
    /// [`FaultPlan::message_loss`](crate::FaultPlan) semantics, expressed
    /// as counter draws.
    Uniform {
        /// Per-delivery drop probability, in `[0, 1]`.
        p: f64,
    },
    /// Each *directed edge* gets a fixed drop rate drawn once, uniformly
    /// from `[lo, hi]`, keyed by `(seed, from, to)`; deliveries on that
    /// edge then drop i.i.d. at that rate. Mean loss is `(lo + hi) / 2`,
    /// so an adversary can concentrate a loss budget on unlucky edges
    /// without changing the budget.
    PerEdge {
        /// Lower bound of the per-edge rate, in `[0, 1]`.
        lo: f64,
        /// Upper bound of the per-edge rate, in `[0, 1]`, `lo ≤ hi`.
        hi: f64,
    },
}

impl LossModel {
    /// Mean per-delivery drop probability (the loss *budget* this model
    /// spends).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            LossModel::None => 0.0,
            LossModel::Uniform { p } => *p,
            LossModel::PerEdge { lo, hi } => (lo + hi) / 2.0,
        }
    }

    fn is_active(&self) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Uniform { p } => *p > 0.0,
            LossModel::PerEdge { hi, .. } => *hi > 0.0,
        }
    }
}

/// How deliveries are delayed (applied after the loss decision).
#[derive(Debug, Clone, PartialEq)]
pub enum DelayModel {
    /// Everything arrives on time.
    None,
    /// Each surviving delivery is delayed i.i.d. with probability `p`, by
    /// `1..=max` rounds (uniform), keyed per delivery.
    Random {
        /// Per-delivery delay probability, in `[0, 1]`.
        p: f64,
        /// Maximum delay in rounds (`≥ 1`).
        max: u32,
    },
}

impl DelayModel {
    fn is_active(&self) -> bool {
        match self {
            DelayModel::None => false,
            DelayModel::Random { p, .. } => *p > 0.0,
        }
    }
}

/// When nodes wake up — the staggering patterns of §6-style adversaries.
#[derive(Debug, Clone, PartialEq)]
pub enum WakePattern {
    /// Everyone starts awake.
    None,
    /// Explicit per-node wake rounds (`FaultPlan::wake_rounds`, carried in
    /// the replayable spec). Nodes beyond the vector start awake.
    Explicit {
        /// Wake round per node id.
        rounds: Vec<u32>,
    },
    /// A wavefront by node id: node `v` wakes at `min(v / stride,
    /// latest)`. With `stride = 1` the network switches on one node per
    /// round — the sequential-activation worst case.
    Wavefront {
        /// Nodes per wavefront step (`≥ 1`).
        stride: u32,
        /// Cap on the wake round.
        latest: u32,
    },
    /// Bipartite alternation: odd-id nodes sleep until `round`, even-id
    /// nodes start awake — the two halves never see each other's early
    /// coin flips.
    Alternating {
        /// Wake round of the odd-id half.
        round: u32,
    },
    /// The highest-degree `fraction` of nodes (ties broken by id) sleep
    /// until `latest` — hubs arrive late, after their neighbourhoods have
    /// settled around them.
    DegreeTargeted {
        /// Fraction of nodes targeted, in `[0, 1]`.
        fraction: f64,
        /// Wake round of the targeted nodes.
        latest: u32,
    },
    /// Each node independently sleeps with probability `fraction`, until a
    /// round drawn uniformly from `1..=latest` — both draws keyed by
    /// `(seed, node)`.
    Random {
        /// Probability a node is a late waker, in `[0, 1]`.
        fraction: f64,
        /// Latest possible wake round (`≥ 1`).
        latest: u32,
    },
}

/// One explicit churn interval: `node` is absent while
/// `from ≤ round < until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnWindow {
    /// The churned node.
    pub node: NodeId,
    /// First absent round.
    pub from: u32,
    /// First round the node is back (exclusive end).
    pub until: u32,
}

/// Node churn: who leaves the network mid-run, and when.
///
/// An absent node is frozen — it neither sends nor hears, draws no
/// randomness, and makes no decisions — and resumes exactly where it
/// stopped when its window ends. Churn can break MIS safety even under
/// the heartbeat repair: an MIS member that leaves stops inhibiting its
/// neighbourhood.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnModel {
    /// Nobody leaves.
    None,
    /// Explicit absence windows.
    Explicit {
        /// The absence windows (any order; windows for one node may
        /// overlap, absence is their union).
        windows: Vec<ChurnWindow>,
    },
    /// Each node independently churns with probability `p`, once, for
    /// `1..=max_len` rounds starting uniformly in `[earliest, latest]` —
    /// all draws keyed by `(seed, node)`.
    Random {
        /// Probability a node churns at all, in `[0, 1]`.
        p: f64,
        /// Maximum absence length in rounds (`≥ 1`).
        max_len: u32,
        /// Earliest possible absence start.
        earliest: u32,
        /// Latest possible absence start (`≥ earliest`).
        latest: u32,
    },
}

/// Spec validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A probability field was NaN or outside `[0, 1]`.
    BadProbability {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A bound pair was inverted (`lo > hi` or `earliest > latest`).
    BadRange {
        /// Which field pair.
        field: &'static str,
    },
    /// A count field that must be at least 1 was 0.
    ZeroCount {
        /// Which field.
        field: &'static str,
    },
    /// The JSON document did not match the replay format.
    BadFormat(String),
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScenarioError::BadProbability { field, value } => {
                write!(f, "{field} must be a probability in [0, 1], got {value}")
            }
            ScenarioError::BadRange { field } => write!(f, "{field} bounds are inverted"),
            ScenarioError::ZeroCount { field } => write!(f, "{field} must be at least 1"),
            ScenarioError::BadFormat(msg) => write!(f, "bad scenario spec: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A composable deterministic adversary: a seed plus one model per
/// adversary axis. This is the type both simulator families honour, the
/// worst-case search mutates and the replay files record.
///
/// Every answer is **pure**: the same query always returns the same
/// answer, independent of query order or interleaving (the determinism
/// contract in the [module docs](self)). All engines honour the same
/// entry points:
///
/// * [`wake_schedule`](Self::wake_schedule) — when each node wakes
///   (merged with any [`FaultPlan`](crate::FaultPlan) wake rounds by
///   taking the later of the two);
/// * [`absent`](Self::absent) — churn: a node absent during a round is
///   frozen (no sends, no receipt, no RNG draws, no decisions);
/// * [`delivery`](Self::delivery) — the fate of each directed delivery;
/// * [`perturbs_deliveries`](Self::perturbs_deliveries) /
///   [`has_churn`](Self::has_churn) — capability flags that let the
///   beeping [`Stepper`](crate::Stepper) keep its fast paths when a
///   scenario only staggers wake-ups. `MessageSimulator` (in
///   `mis_baselines`) runs every scenario on its one run loop, sharded
///   like a reliable run; the flags tell it when every sub-round must
///   pull, so each delivery can meet its fate.
///
/// The `with_*` builders do not validate. Every attach point —
/// [`SimConfig::with_scenario`](crate::SimConfig::with_scenario) and the
/// `with_scenario` builders of `MessageSimulator` and `MessageEngine` —
/// calls [`validate`](Self::validate) and panics on a bad spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Master seed of every counter draw in this scenario. Independent of
    /// the *run* seed: the same adversary can face many algorithm runs.
    pub seed: u64,
    /// Drop model.
    pub loss: LossModel,
    /// Delay model.
    pub delay: DelayModel,
    /// Wake-up staggering.
    pub wake: WakePattern,
    /// Node churn.
    pub churn: ChurnModel,
}

// Domain constants separating the counter-draw streams, so e.g. the loss
// draw of a delivery can never collide with its delay draw.
const DOM_EDGE_RATE: u64 = 0x45D6_1EAF_0000_0001;
const DOM_LOSS: u64 = 0x45D6_1EAF_0000_0002;
const DOM_DELAY: u64 = 0x45D6_1EAF_0000_0003;
const DOM_DELAY_LEN: u64 = 0x45D6_1EAF_0000_0004;
const DOM_WAKE: u64 = 0x45D6_1EAF_0000_0005;
const DOM_CHURN: u64 = 0x45D6_1EAF_0000_0006;

fn check_probability(field: &'static str, value: f64) -> Result<(), ScenarioError> {
    if value.is_nan() || !(0.0..=1.0).contains(&value) {
        Err(ScenarioError::BadProbability { field, value })
    } else {
        Ok(())
    }
}

impl ScenarioSpec {
    /// A do-nothing scenario with the given counter-draw seed; compose
    /// adversary axes with the `with_*` builders.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            loss: LossModel::None,
            delay: DelayModel::None,
            wake: WakePattern::None,
            churn: ChurnModel::None,
        }
    }

    /// The scenario equivalent of a uniform
    /// [`FaultPlan::message_loss`](crate::FaultPlan) — the baseline every
    /// adversarial search is measured against at equal loss budget.
    #[must_use]
    pub fn uniform_loss(seed: u64, p: f64) -> Self {
        Self::new(seed).with_loss(LossModel::Uniform { p })
    }

    /// Replaces the loss model.
    #[must_use]
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Replaces the delay model.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Replaces the wake pattern.
    #[must_use]
    pub fn with_wake(mut self, wake: WakePattern) -> Self {
        self.wake = wake;
        self
    }

    /// Replaces the churn model.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Checks every probability/range field.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        match &self.loss {
            LossModel::None => {}
            LossModel::Uniform { p } => check_probability("loss.p", *p)?,
            LossModel::PerEdge { lo, hi } => {
                check_probability("loss.lo", *lo)?;
                check_probability("loss.hi", *hi)?;
                if lo > hi {
                    return Err(ScenarioError::BadRange { field: "loss" });
                }
            }
        }
        match &self.delay {
            DelayModel::None => {}
            DelayModel::Random { p, max } => {
                check_probability("delay.p", *p)?;
                if *max == 0 {
                    return Err(ScenarioError::ZeroCount { field: "delay.max" });
                }
            }
        }
        match &self.wake {
            WakePattern::None | WakePattern::Explicit { .. } | WakePattern::Alternating { .. } => {}
            WakePattern::Wavefront { stride, .. } => {
                if *stride == 0 {
                    return Err(ScenarioError::ZeroCount {
                        field: "wake.stride",
                    });
                }
            }
            WakePattern::DegreeTargeted { fraction, .. } => {
                check_probability("wake.fraction", *fraction)?;
            }
            WakePattern::Random { fraction, latest } => {
                check_probability("wake.fraction", *fraction)?;
                if *latest == 0 {
                    return Err(ScenarioError::ZeroCount {
                        field: "wake.latest",
                    });
                }
            }
        }
        match &self.churn {
            ChurnModel::None | ChurnModel::Explicit { .. } => {}
            ChurnModel::Random {
                p,
                max_len,
                earliest,
                latest,
            } => {
                check_probability("churn.p", *p)?;
                if *max_len == 0 {
                    return Err(ScenarioError::ZeroCount {
                        field: "churn.max_len",
                    });
                }
                if earliest > latest {
                    return Err(ScenarioError::BadRange { field: "churn" });
                }
            }
        }
        Ok(())
    }

    /// The canonical JSON tree of this spec (see the [module docs](self)
    /// for the format).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let loss = match &self.loss {
            LossModel::None => Json::Obj(vec![kind("none")]),
            LossModel::Uniform { p } => Json::Obj(vec![kind("uniform"), num("p", *p)]),
            LossModel::PerEdge { lo, hi } => {
                Json::Obj(vec![kind("per-edge"), num("lo", *lo), num("hi", *hi)])
            }
        };
        let delay = match &self.delay {
            DelayModel::None => Json::Obj(vec![kind("none")]),
            DelayModel::Random { p, max } => Json::Obj(vec![
                kind("random"),
                num("p", *p),
                num("max", f64::from(*max)),
            ]),
        };
        let wake = match &self.wake {
            WakePattern::None => Json::Obj(vec![kind("none")]),
            WakePattern::Explicit { rounds } => Json::Obj(vec![
                kind("explicit"),
                (
                    "rounds".to_owned(),
                    Json::Arr(rounds.iter().map(|&r| Json::Num(f64::from(r))).collect()),
                ),
            ]),
            WakePattern::Wavefront { stride, latest } => Json::Obj(vec![
                kind("wavefront"),
                num("stride", f64::from(*stride)),
                num("latest", f64::from(*latest)),
            ]),
            WakePattern::Alternating { round } => {
                Json::Obj(vec![kind("alternating"), num("round", f64::from(*round))])
            }
            WakePattern::DegreeTargeted { fraction, latest } => Json::Obj(vec![
                kind("degree-targeted"),
                num("fraction", *fraction),
                num("latest", f64::from(*latest)),
            ]),
            WakePattern::Random { fraction, latest } => Json::Obj(vec![
                kind("random"),
                num("fraction", *fraction),
                num("latest", f64::from(*latest)),
            ]),
        };
        let churn = match &self.churn {
            ChurnModel::None => Json::Obj(vec![kind("none")]),
            ChurnModel::Explicit { windows } => Json::Obj(vec![
                kind("explicit"),
                (
                    "windows".to_owned(),
                    Json::Arr(
                        windows
                            .iter()
                            .map(|w| {
                                Json::Arr(vec![
                                    Json::Num(f64::from(w.node)),
                                    Json::Num(f64::from(w.from)),
                                    Json::Num(f64::from(w.until)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            ChurnModel::Random {
                p,
                max_len,
                earliest,
                latest,
            } => Json::Obj(vec![
                kind("random"),
                num("p", *p),
                num("max_len", f64::from(*max_len)),
                num("earliest", f64::from(*earliest)),
                num("latest", f64::from(*latest)),
            ]),
        };
        Json::Obj(vec![
            ("seed".to_owned(), Json::u64_str(self.seed)),
            ("loss".to_owned(), loss),
            ("delay".to_owned(), delay),
            ("wake".to_owned(), wake),
            ("churn".to_owned(), churn),
        ])
    }

    /// [`to_json`](Self::to_json) rendered to text — the canonical spec
    /// string and the replay file payload.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Rebuilds a spec from its [`to_json`](Self::to_json) tree and
    /// validates it.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadFormat`] on structural mismatch, or any
    /// [`validate`](Self::validate) error.
    pub fn from_json(doc: &Json) -> Result<Self, ScenarioError> {
        let bad = |msg: &str| ScenarioError::BadFormat(msg.to_owned());
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64_str)
            .ok_or_else(|| bad("missing or non-string seed"))?;
        let field_kind = |name: &'static str| -> Result<(&Json, &str), ScenarioError> {
            let obj = doc
                .get(name)
                .ok_or_else(|| ScenarioError::BadFormat(format!("missing {name}")))?;
            let k = obj
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| ScenarioError::BadFormat(format!("{name} has no kind")))?;
            Ok((obj, k))
        };
        let f = |obj: &Json, name: &'static str| -> Result<f64, ScenarioError> {
            obj.get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| ScenarioError::BadFormat(format!("missing number {name}")))
        };
        let u = |obj: &Json, name: &'static str| -> Result<u32, ScenarioError> {
            obj.get(name)
                .and_then(Json::as_u32)
                .ok_or_else(|| ScenarioError::BadFormat(format!("missing integer {name}")))
        };

        let (obj, k) = field_kind("loss")?;
        let loss = match k {
            "none" => LossModel::None,
            "uniform" => LossModel::Uniform { p: f(obj, "p")? },
            "per-edge" => LossModel::PerEdge {
                lo: f(obj, "lo")?,
                hi: f(obj, "hi")?,
            },
            other => return Err(ScenarioError::BadFormat(format!("loss kind {other:?}"))),
        };

        let (obj, k) = field_kind("delay")?;
        let delay = match k {
            "none" => DelayModel::None,
            "random" => DelayModel::Random {
                p: f(obj, "p")?,
                max: u(obj, "max")?,
            },
            other => return Err(ScenarioError::BadFormat(format!("delay kind {other:?}"))),
        };

        let (obj, k) = field_kind("wake")?;
        let wake = match k {
            "none" => WakePattern::None,
            "explicit" => {
                let rounds = obj
                    .get("rounds")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("explicit wake needs rounds"))?
                    .iter()
                    .map(|r| r.as_u32().ok_or_else(|| bad("bad wake round")))
                    .collect::<Result<Vec<u32>, _>>()?;
                WakePattern::Explicit { rounds }
            }
            "wavefront" => WakePattern::Wavefront {
                stride: u(obj, "stride")?,
                latest: u(obj, "latest")?,
            },
            "alternating" => WakePattern::Alternating {
                round: u(obj, "round")?,
            },
            "degree-targeted" => WakePattern::DegreeTargeted {
                fraction: f(obj, "fraction")?,
                latest: u(obj, "latest")?,
            },
            "random" => WakePattern::Random {
                fraction: f(obj, "fraction")?,
                latest: u(obj, "latest")?,
            },
            other => return Err(ScenarioError::BadFormat(format!("wake kind {other:?}"))),
        };

        let (obj, k) = field_kind("churn")?;
        let churn = match k {
            "none" => ChurnModel::None,
            "explicit" => {
                let windows = obj
                    .get("windows")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("explicit churn needs windows"))?
                    .iter()
                    .map(|w| {
                        let triple = w.as_arr().filter(|a| a.len() == 3);
                        let triple = triple.ok_or_else(|| bad("churn window must be a triple"))?;
                        Ok(ChurnWindow {
                            node: triple[0].as_u32().ok_or_else(|| bad("bad churn node"))?,
                            from: triple[1].as_u32().ok_or_else(|| bad("bad churn from"))?,
                            until: triple[2].as_u32().ok_or_else(|| bad("bad churn until"))?,
                        })
                    })
                    .collect::<Result<Vec<ChurnWindow>, ScenarioError>>()?;
                ChurnModel::Explicit { windows }
            }
            "random" => ChurnModel::Random {
                p: f(obj, "p")?,
                max_len: u(obj, "max_len")?,
                earliest: u(obj, "earliest")?,
                latest: u(obj, "latest")?,
            },
            other => return Err(ScenarioError::BadFormat(format!("churn kind {other:?}"))),
        };

        let spec = Self {
            seed,
            loss,
            delay,
            wake,
            churn,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// [`from_json`](Self::from_json) on a text document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::BadFormat`] on JSON syntax errors, plus everything
    /// [`from_json`](Self::from_json) reports.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let doc =
            Json::parse(text).map_err(|e| ScenarioError::BadFormat(format!("not JSON: {e}")))?;
        Self::from_json(&doc)
    }

    /// Per-node wake rounds, given every node's degree (so degree-targeted
    /// patterns can be computed). `0` means awake from round 0. Returns
    /// one entry per node.
    #[must_use]
    pub fn wake_schedule(&self, degrees: &[usize]) -> Vec<u32> {
        let n = degrees.len();
        match &self.wake {
            WakePattern::None => vec![0; n],
            WakePattern::Explicit { rounds } => (0..n)
                .map(|v| rounds.get(v).copied().unwrap_or(0))
                .collect(),
            WakePattern::Wavefront { stride, latest } => (0..n)
                .map(|v| ((v as u32) / stride.max(&1)).min(*latest))
                .collect(),
            WakePattern::Alternating { round } => (0..n)
                .map(|v| if v % 2 == 1 { *round } else { 0 })
                .collect(),
            WakePattern::DegreeTargeted { fraction, latest } => {
                let targets = ((fraction * n as f64).ceil() as usize).min(n);
                let mut order: Vec<usize> = (0..n).collect();
                // Highest degree first, ids breaking ties: deterministic
                // for any input order.
                order.sort_by_key(|&v| (core::cmp::Reverse(degrees[v]), v));
                let mut wake = vec![0u32; n];
                for &v in &order[..targets] {
                    wake[v] = *latest;
                }
                wake
            }
            WakePattern::Random { fraction, latest } => (0..n)
                .map(|v| {
                    let pick = mix(self.seed, DOM_WAKE, v as u64, 0, 0);
                    if unit(pick) < *fraction {
                        1 + (mix(self.seed, DOM_WAKE, v as u64, 1, 0) % u64::from(*latest)) as u32
                    } else {
                        0
                    }
                })
                .collect(),
        }
    }

    /// Whether `node` is churned out (absent) during `round`.
    #[must_use]
    pub fn absent(&self, node: NodeId, round: u32) -> bool {
        match &self.churn {
            ChurnModel::None => false,
            ChurnModel::Explicit { windows } => windows
                .iter()
                .any(|w| w.node == node && w.from <= round && round < w.until),
            ChurnModel::Random { .. } => self
                .random_churn_window(node)
                .is_some_and(|(from, until)| from <= round && round < until),
        }
    }

    /// Whether [`absent`](Self::absent) can ever return `true`. Engines
    /// skip per-round churn bookkeeping when this is `false`.
    #[must_use]
    pub fn has_churn(&self) -> bool {
        match &self.churn {
            ChurnModel::None => false,
            ChurnModel::Explicit { windows } => !windows.is_empty(),
            ChurnModel::Random { p, .. } => *p > 0.0,
        }
    }

    /// The fate of the delivery `from → to` in `exchange` (0 or 1) of
    /// `round`.
    #[must_use]
    pub fn delivery(&self, from: NodeId, to: NodeId, round: u32, exchange: u32) -> Delivery {
        // One counter per (edge, round, exchange); the loss and delay
        // draws live in distinct domains of the same counter.
        let slot = u64::from(round) * 2 + u64::from(exchange);
        let rate = match &self.loss {
            LossModel::None => 0.0,
            LossModel::Uniform { p } => *p,
            LossModel::PerEdge { lo, hi } => {
                let edge = mix(self.seed, DOM_EDGE_RATE, u64::from(from), u64::from(to), 0);
                lo + (hi - lo) * unit(edge)
            }
        };
        if rate > 0.0 {
            let draw = mix(self.seed, DOM_LOSS, u64::from(from), u64::from(to), slot);
            if unit(draw) < rate {
                return Delivery::Dropped;
            }
        }
        if let DelayModel::Random { p, max } = &self.delay {
            if *p > 0.0 {
                let draw = mix(self.seed, DOM_DELAY, u64::from(from), u64::from(to), slot);
                if unit(draw) < *p {
                    let len = mix(
                        self.seed,
                        DOM_DELAY_LEN,
                        u64::from(from),
                        u64::from(to),
                        slot,
                    );
                    return Delivery::Delayed(1 + (len % u64::from((*max).max(1))) as u32);
                }
            }
        }
        Delivery::OnTime
    }

    /// Whether [`delivery`](Self::delivery) can ever return anything but
    /// [`Delivery::OnTime`]. When `false` (and there is no churn), the
    /// beeping [`Stepper`](crate::Stepper) keeps its fast propagation
    /// kernels — a wake-only scenario costs it nothing per delivery.
    #[must_use]
    pub fn perturbs_deliveries(&self) -> bool {
        self.loss.is_active() || self.delay.is_active()
    }

    /// The per-node churn window of the `Random` model, if any — the pure
    /// function behind [`absent`](Self::absent).
    fn random_churn_window(&self, node: NodeId) -> Option<(u32, u32)> {
        let ChurnModel::Random {
            p,
            max_len,
            earliest,
            latest,
        } = &self.churn
        else {
            return None;
        };
        let pick = mix(self.seed, DOM_CHURN, u64::from(node), 0, 0);
        if unit(pick) >= *p {
            return None;
        }
        let span = u64::from(*latest - *earliest) + 1;
        let start = earliest + (mix(self.seed, DOM_CHURN, u64::from(node), 1, 0) % span) as u32;
        let len =
            1 + (mix(self.seed, DOM_CHURN, u64::from(node), 2, 0) % u64::from(*max_len)) as u32;
        // An absence that would end past the last representable round
        // lasts to the end of any run.
        Some((start, start.saturating_add(len)))
    }
}

fn kind(k: &str) -> (String, Json) {
    ("kind".to_owned(), Json::Str(k.to_owned()))
}

fn num(name: &str, value: f64) -> (String, Json) {
    (name.to_owned(), Json::Num(value))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_spec() -> ScenarioSpec {
        ScenarioSpec::new(0xDEAD_BEEF_1234_5678)
            .with_loss(LossModel::PerEdge { lo: 0.05, hi: 0.3 })
            .with_delay(DelayModel::Random { p: 0.1, max: 4 })
            .with_wake(WakePattern::DegreeTargeted {
                fraction: 0.25,
                latest: 12,
            })
            .with_churn(ChurnModel::Random {
                p: 0.1,
                max_len: 5,
                earliest: 2,
                latest: 20,
            })
    }

    #[test]
    fn json_round_trip_every_variant() {
        let specs = [
            ScenarioSpec::new(0),
            ScenarioSpec::uniform_loss(7, 0.15),
            ScenarioSpec::new(1).with_wake(WakePattern::Explicit {
                rounds: vec![0, 3, 9],
            }),
            ScenarioSpec::new(2).with_wake(WakePattern::Wavefront {
                stride: 2,
                latest: 30,
            }),
            ScenarioSpec::new(3).with_wake(WakePattern::Alternating { round: 8 }),
            ScenarioSpec::new(4).with_wake(WakePattern::Random {
                fraction: 0.5,
                latest: 10,
            }),
            ScenarioSpec::new(5).with_churn(ChurnModel::Explicit {
                windows: vec![
                    ChurnWindow {
                        node: 3,
                        from: 2,
                        until: 9,
                    },
                    ChurnWindow {
                        node: 0,
                        from: 1,
                        until: 2,
                    },
                ],
            }),
            ScenarioSpec::new(u64::MAX).with_delay(DelayModel::Random { p: 0.5, max: 1 }),
            full_spec(),
        ];
        for spec in specs {
            let text = spec.to_json_string();
            let back = ScenarioSpec::from_json_str(&text).unwrap();
            assert_eq!(back, spec, "{text}");
            // Canonical: re-serialising the parse gives the same string.
            assert_eq!(back.to_json_string(), text);
        }
    }

    #[test]
    fn draws_are_order_independent() {
        let spec = full_spec();
        // Query in two different interleavings; answers must agree.
        let a: Vec<Delivery> = (0..50)
            .map(|i| spec.delivery(i % 7, (i + 1) % 7, i, i % 2))
            .collect();
        let b: Vec<Delivery> = (0..50)
            .rev()
            .map(|i| spec.delivery(i % 7, (i + 1) % 7, i, i % 2))
            .collect();
        let b: Vec<Delivery> = b.into_iter().rev().collect();
        assert_eq!(a, b);
        // And absence/wake likewise.
        let degrees = vec![3usize; 40];
        assert_eq!(spec.wake_schedule(&degrees), spec.wake_schedule(&degrees));
        for v in 0..40u32 {
            assert_eq!(spec.absent(v, 5), spec.absent(v, 5));
        }
    }

    #[test]
    fn loss_rate_concentrates_on_frequency() {
        let spec = ScenarioSpec::uniform_loss(99, 0.25);
        let drops = (0..20_000)
            .filter(|&i| spec.delivery(0, 1, i, 0) == Delivery::Dropped)
            .count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "empirical drop rate {rate}");
    }

    #[test]
    fn per_edge_rates_differ_but_mean_holds() {
        let spec = ScenarioSpec::new(5).with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.4 });
        assert!((spec.loss.mean() - 0.2).abs() < 1e-12);
        // Per-edge empirical rates over rounds: edges must differ (the
        // whole point of the model) while staying inside [lo, hi].
        let mut rates = Vec::new();
        for e in 0..8u32 {
            let drops = (0..4_000)
                .filter(|&i| spec.delivery(e, e + 1, i, 1) == Delivery::Dropped)
                .count();
            rates.push(drops as f64 / 4_000.0);
        }
        assert!(
            rates.iter().all(|r| (-0.03..=0.43).contains(r)),
            "{rates:?}"
        );
        let spread = rates.iter().cloned().fold(f64::MIN, f64::max)
            - rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 0.05, "edges should get distinct rates: {rates:?}");
    }

    #[test]
    fn delay_bounds_respected() {
        let spec = ScenarioSpec::new(6).with_delay(DelayModel::Random { p: 1.0, max: 3 });
        let mut seen = [false; 3];
        for i in 0..200 {
            match spec.delivery(0, 1, i, 0) {
                Delivery::Delayed(d) => {
                    assert!((1..=3).contains(&d));
                    seen[(d - 1) as usize] = true;
                }
                other => panic!("p = 1 must always delay, got {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "all delay lengths should appear");
    }

    #[test]
    fn wake_patterns_shape_the_schedule() {
        let degrees = vec![1usize, 5, 2, 5, 0, 3];
        let wavefront = ScenarioSpec::new(0)
            .with_wake(WakePattern::Wavefront {
                stride: 2,
                latest: 2,
            })
            .wake_schedule(&degrees);
        assert_eq!(wavefront, vec![0, 0, 1, 1, 2, 2]);

        let alt = ScenarioSpec::new(0)
            .with_wake(WakePattern::Alternating { round: 9 })
            .wake_schedule(&degrees);
        assert_eq!(alt, vec![0, 9, 0, 9, 0, 9]);

        let hubs = ScenarioSpec::new(0)
            .with_wake(WakePattern::DegreeTargeted {
                fraction: 0.34,
                latest: 7,
            })
            .wake_schedule(&degrees);
        // ceil(0.34 * 6) = 3 targets: the two degree-5 hubs (ids 1, 3)
        // then degree 3 (id 5).
        assert_eq!(hubs, vec![0, 7, 0, 7, 0, 7]);

        let explicit = ScenarioSpec::new(0)
            .with_wake(WakePattern::Explicit { rounds: vec![4, 0] })
            .wake_schedule(&degrees);
        assert_eq!(explicit, vec![4, 0, 0, 0, 0, 0]);

        let random = ScenarioSpec::new(1)
            .with_wake(WakePattern::Random {
                fraction: 1.0,
                latest: 5,
            })
            .wake_schedule(&degrees);
        assert!(random.iter().all(|&w| (1..=5).contains(&w)), "{random:?}");
    }

    #[test]
    fn churn_windows_bound_absence() {
        let spec = ScenarioSpec::new(8).with_churn(ChurnModel::Explicit {
            windows: vec![ChurnWindow {
                node: 2,
                from: 3,
                until: 6,
            }],
        });
        assert!(spec.has_churn());
        assert!(!spec.absent(2, 2));
        assert!(spec.absent(2, 3));
        assert!(spec.absent(2, 5));
        assert!(!spec.absent(2, 6));
        assert!(!spec.absent(1, 4));

        let random = ScenarioSpec::new(9).with_churn(ChurnModel::Random {
            p: 1.0,
            max_len: 4,
            earliest: 2,
            latest: 10,
        });
        for v in 0..30u32 {
            let absences: Vec<u32> = (0..40).filter(|&r| random.absent(v, r)).collect();
            assert!(!absences.is_empty(), "p = 1 must churn node {v}");
            assert!((1..=4).contains(&(absences.len() as u32)));
            // Contiguous window inside [earliest, earliest + span).
            assert!(absences[0] >= 2 && *absences.last().unwrap() <= 13);
            assert!(absences.windows(2).all(|w| w[1] == w[0] + 1));
        }
    }

    #[test]
    fn capability_flags() {
        assert!(!ScenarioSpec::new(0).perturbs_deliveries());
        assert!(!ScenarioSpec::new(0).has_churn());
        assert!(ScenarioSpec::uniform_loss(0, 0.1).perturbs_deliveries());
        assert!(!ScenarioSpec::uniform_loss(0, 0.0).perturbs_deliveries());
        let wake_only = ScenarioSpec::new(0).with_wake(WakePattern::Alternating { round: 5 });
        assert!(!wake_only.perturbs_deliveries());
        let empty_churn = ScenarioSpec::new(0).with_churn(ChurnModel::Explicit { windows: vec![] });
        assert!(!empty_churn.has_churn());
    }

    #[test]
    fn validation_rejects_garbage() {
        let nan = ScenarioSpec::uniform_loss(0, f64::NAN);
        assert!(matches!(
            nan.validate(),
            Err(ScenarioError::BadProbability { .. })
        ));
        let over = ScenarioSpec::uniform_loss(0, 1.5);
        assert!(over.validate().is_err());
        let inverted = ScenarioSpec::new(0).with_loss(LossModel::PerEdge { lo: 0.5, hi: 0.1 });
        assert!(matches!(
            inverted.validate(),
            Err(ScenarioError::BadRange { .. })
        ));
        let zero_stride = ScenarioSpec::new(0).with_wake(WakePattern::Wavefront {
            stride: 0,
            latest: 5,
        });
        assert!(matches!(
            zero_stride.validate(),
            Err(ScenarioError::ZeroCount { .. })
        ));
        let bad_churn = ScenarioSpec::new(0).with_churn(ChurnModel::Random {
            p: 0.1,
            max_len: 3,
            earliest: 9,
            latest: 2,
        });
        assert!(bad_churn.validate().is_err());
        // Boundary values are fine, including p = 1.
        assert!(ScenarioSpec::uniform_loss(0, 1.0).validate().is_ok());
        assert!(ScenarioSpec::uniform_loss(0, 0.0).validate().is_ok());
        // from_json_str validates too.
        let text = ScenarioSpec::uniform_loss(0, 0.2)
            .to_json_string()
            .replace("0.2", "7.0");
        assert!(ScenarioSpec::from_json_str(&text).is_err());
    }

    #[test]
    fn from_json_rejects_unknown_kinds() {
        let text = ScenarioSpec::new(0)
            .to_json_string()
            .replacen("none", "quantum", 1);
        let err = ScenarioSpec::from_json_str(&text).unwrap_err();
        assert!(err.to_string().contains("quantum"));
        assert!(ScenarioSpec::from_json_str("[]").is_err());
        assert!(ScenarioSpec::from_json_str("{").is_err());
    }
}
