//! Request parsing, validation, canonicalisation, and cache keys.
//!
//! A run request arrives as arbitrary-order JSON; this module parses it
//! into a typed [`RunRequest`], validates every knob *before* anything can
//! panic downstream, and re-renders it in one fixed canonical form — which
//! is why permuted-but-equivalent request texts address the same cache
//! entry. The `algorithm` object parses to a [`Family`] from
//! `mis_baselines`' registry; the wire names are [`Family::name`], and the
//! canonical form of the family's parameters is kept here, beside the rest
//! of the cache key.
//!
//! The cache key is the FNV-1a digest ([`Fnv1a`]) of the canonical
//! request JSON, where the canonical form embeds a **digest of the built
//! graph** rather than the graph spec: a DIMACS upload and a generator
//! spec that produce the same adjacency structure hit the same entry. See
//! [`cache_key`].

use mis_baselines::Family;
use mis_beeping::json::Json;
use mis_beeping::rng::Fnv1a;
use mis_beeping::{FaultPlan, PropagationKernel, RngMode, SimConfig};
use mis_core::Algorithm;
use mis_graph::backend::Backend;
use mis_graph::{generators, io, Graph, GraphError, GraphView};
use rand::{rngs::SmallRng, SeedableRng};

/// Largest accepted node count for generated and uploaded graphs.
pub const MAX_NODES: usize = 2_000_000;

/// Largest accepted edge count for generated graphs: exact for `complete`,
/// expected for `gnp`. The other generators are linear in the node count.
pub const MAX_EDGES: usize = 1 << 25;

/// Largest accepted seed range (`runs`).
pub const MAX_RUNS: usize = 10_000;

/// Largest accepted intra-run shard count.
pub const MAX_SHARDS: usize = 1_024;

/// Cache-key protocol version: bumped whenever the canonical form or the
/// payload schema changes, so stale persisted entries can never be served
/// for a new schema.
pub const PROTO_VERSION: f64 = 2.0;

/// A rejected request: a stable machine-readable `code` plus a human
/// message. The wire shape is produced by
/// [`error_reply`](crate::protocol::error_reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Stable error code (`bad_request`, `unknown_algorithm`,
    /// `unknown_generator`, `empty_seed_range`, `bad_graph`,
    /// `unsupported_config`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    fn bad(message: impl Into<String>) -> Self {
        Self::new("bad_request", message)
    }
}

impl core::fmt::Display for RequestError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for RequestError {}

/// The graph a request runs on: a named generator or a DIMACS upload.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSpec {
    /// Erdős–Rényi `G(n, p)` seeded by `graph_seed`.
    Gnp {
        /// Node count.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator seed (independent of the run seed range).
        graph_seed: u64,
    },
    /// `rows × cols` grid.
    Grid2d {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// `rows × cols` torus.
    Torus2d {
        /// Torus rows.
        rows: usize,
        /// Torus columns.
        cols: usize,
    },
    /// Cycle on `n` nodes.
    Cycle {
        /// Node count.
        n: usize,
    },
    /// Path on `n` nodes.
    Path {
        /// Node count.
        n: usize,
    },
    /// Complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Star with `n - 1` leaves.
    Star {
        /// Node count.
        n: usize,
    },
    /// Uniform random labelled tree seeded by `graph_seed`.
    RandomTree {
        /// Node count.
        n: usize,
        /// Generator seed.
        graph_seed: u64,
    },
    /// Inline DIMACS text (the `p edge` format of `mis_graph::io`).
    Dimacs {
        /// The DIMACS document.
        text: String,
    },
}

impl GraphSpec {
    fn parse(j: &Json) -> Result<Self, RequestError> {
        let entries = as_obj(j, "graph")?;
        if let Some(text) = j.get("dimacs") {
            check_keys(entries, &["dimacs"], "graph")?;
            let text = text
                .as_str()
                .ok_or_else(|| RequestError::bad("graph.dimacs must be a string"))?;
            return Ok(GraphSpec::Dimacs {
                text: text.to_owned(),
            });
        }
        let name = j
            .get("generator")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::bad("graph needs a \"generator\" or \"dimacs\" field"))?;
        let spec = match name {
            "gnp" => {
                check_keys(entries, &["generator", "n", "p", "graph_seed"], "graph")?;
                GraphSpec::Gnp {
                    n: req_count(j, "n")?,
                    p: req_probability(j, "p")?,
                    graph_seed: opt_u64(j, "graph_seed")?.unwrap_or(0),
                }
            }
            "grid2d" | "torus2d" => {
                check_keys(entries, &["generator", "rows", "cols"], "graph")?;
                let rows = req_count(j, "rows")?;
                let cols = req_count(j, "cols")?;
                if name == "grid2d" {
                    GraphSpec::Grid2d { rows, cols }
                } else {
                    GraphSpec::Torus2d { rows, cols }
                }
            }
            "cycle" | "path" | "complete" | "star" => {
                check_keys(entries, &["generator", "n"], "graph")?;
                let n = req_count(j, "n")?;
                match name {
                    "cycle" => GraphSpec::Cycle { n },
                    "path" => GraphSpec::Path { n },
                    "complete" => GraphSpec::Complete { n },
                    _ => GraphSpec::Star { n },
                }
            }
            "random_tree" => {
                check_keys(entries, &["generator", "n", "graph_seed"], "graph")?;
                GraphSpec::RandomTree {
                    n: req_count(j, "n")?,
                    graph_seed: opt_u64(j, "graph_seed")?.unwrap_or(0),
                }
            }
            other => {
                return Err(RequestError::new(
                    "unknown_generator",
                    format!("unknown generator {other:?}"),
                ))
            }
        };
        Ok(spec)
    }

    /// Rejects a generator spec whose edge count exceeds [`MAX_EDGES`]
    /// without building anything.
    fn check_edges(&self) -> Result<(), RequestError> {
        let pairs = |n: usize| (n as u64).saturating_mul(n.saturating_sub(1) as u64) / 2;
        let (what, edges) = match self {
            GraphSpec::Complete { n } => ("has", pairs(*n) as f64),
            GraphSpec::Gnp { n, p, .. } => ("expects", p * pairs(*n) as f64),
            _ => return Ok(()),
        };
        if edges > MAX_EDGES as f64 {
            return Err(RequestError::new(
                "bad_graph",
                format!("graph {what} {edges:.0} edges, over the {MAX_EDGES}-edge cap"),
            ));
        }
        Ok(())
    }

    /// Builds the concrete CSR graph, enforcing the [`MAX_NODES`] and
    /// [`MAX_EDGES`] caps and each generator's shape condition before any
    /// generator runs, and a DIMACS upload's declared node count before
    /// anything sized by it is allocated.
    ///
    /// # Errors
    ///
    /// `bad_graph` for node or edge counts over the caps, shapes a
    /// generator does not accept (a cycle below 3 nodes, an empty star, a
    /// torus side below 3) or malformed DIMACS text (including self-loop
    /// edges, which the parser rejects).
    pub fn build(&self) -> Result<Graph, RequestError> {
        let cap = |n: usize| {
            if n > MAX_NODES {
                Err(RequestError::new(
                    "bad_graph",
                    format!("{n} nodes exceeds the {MAX_NODES}-node cap"),
                ))
            } else {
                Ok(n)
            }
        };
        let require = |holds: bool, condition: &str| {
            if holds {
                Ok(())
            } else {
                Err(RequestError::new("bad_graph", condition))
            }
        };
        let bad_dimacs = |e: GraphError| RequestError::new("bad_graph", e.to_string());
        self.check_edges()?;
        Ok(match self {
            GraphSpec::Gnp { n, p, graph_seed } => {
                generators::gnp(cap(*n)?, *p, &mut SmallRng::seed_from_u64(*graph_seed))
            }
            GraphSpec::Grid2d { rows, cols } => {
                cap(rows.saturating_mul(*cols))?;
                generators::grid2d(*rows, *cols)
            }
            GraphSpec::Torus2d { rows, cols } => {
                cap(rows.saturating_mul(*cols))?;
                require(
                    *rows >= 3 && *cols >= 3,
                    "torus2d needs rows and cols of at least 3",
                )?;
                generators::torus2d(*rows, *cols)
            }
            GraphSpec::Cycle { n } => {
                require(*n >= 3, "cycle needs n of at least 3")?;
                generators::cycle(cap(*n)?)
            }
            GraphSpec::Path { n } => generators::path(cap(*n)?),
            GraphSpec::Complete { n } => generators::complete(cap(*n)?),
            GraphSpec::Star { n } => {
                require(*n >= 1, "star needs n of at least 1")?;
                generators::star(cap(*n)?)
            }
            GraphSpec::RandomTree { n, graph_seed } => {
                generators::random_tree(cap(*n)?, &mut SmallRng::seed_from_u64(*graph_seed))
            }
            GraphSpec::Dimacs { text } => {
                let (nodes, _) = io::dimacs_problem(text).map_err(bad_dimacs)?;
                cap(nodes)?;
                io::parse_dimacs(text).map_err(bad_dimacs)?
            }
        })
    }
}

/// Parses a request's `algorithm` object into a [`Family`].
fn parse_family(j: &Json) -> Result<Family, RequestError> {
    let entries = as_obj(j, "algorithm")?;
    let name = j
        .get("family")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad("algorithm needs a \"family\" string"))?;
    let (family, allowed): (Family, &[&str]) = match name {
        "feedback" => (Family::Beeping(Algorithm::feedback()), &["family"]),
        "sweep" => (Family::Beeping(Algorithm::sweep()), &["family"]),
        "science" => {
            let phase_factor = match opt_u64(j, "phase_factor")? {
                None => 2,
                Some(f @ 1..=64) => f as u32,
                Some(other) => {
                    return Err(RequestError::bad(format!(
                        "phase_factor must be in 1..=64, got {other}"
                    )))
                }
            };
            (
                Family::Beeping(Algorithm::Science { phase_factor }),
                &["family", "phase_factor"],
            )
        }
        "constant" => {
            let p = req_probability(j, "p")?;
            if p <= 0.0 {
                return Err(RequestError::bad("constant family needs p > 0"));
            }
            (Family::Beeping(Algorithm::constant(p)), &["family", "p"])
        }
        "luby_priority" => (Family::LubyPriority, &["family"]),
        "luby_marking" => (Family::LubyMarking, &["family"]),
        "metivier" => (Family::Metivier, &["family"]),
        "greedy_local" => (Family::GreedyLocal, &["family"]),
        other => {
            return Err(RequestError::new(
                "unknown_algorithm",
                format!("unknown algorithm family {other:?}"),
            ))
        }
    };
    check_keys(entries, allowed, "algorithm")?;
    Ok(family)
}

/// Canonical JSON of a family: its wire name, then its parameters with
/// defaults materialised, in fixed key order.
fn family_json(family: &Family) -> Json {
    let mut entries = vec![("family".to_owned(), Json::Str(family.name().to_owned()))];
    match family {
        Family::Beeping(Algorithm::Science { phase_factor }) => entries.push((
            "phase_factor".to_owned(),
            Json::Num(f64::from(*phase_factor)),
        )),
        Family::Beeping(Algorithm::Constant { p }) => {
            entries.push(("p".to_owned(), Json::Num(*p)));
        }
        _ => {}
    }
    Json::Obj(entries)
}

/// A fully validated run request: the typed form every permutation of the
/// same request JSON parses to.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Graph to run on.
    pub graph: GraphSpec,
    /// Algorithm family.
    pub algorithm: Family,
    /// Simulator configuration assembled from the `config` knobs.
    pub config: SimConfig,
    /// Adjacency backend serving the runs.
    pub backend: Backend,
    /// Master seed of the first run; run `i` uses the blessed per-run
    /// derivation of `RunPlan`.
    pub seed: u64,
    /// Number of runs (the seed range).
    pub runs: usize,
}

impl RunRequest {
    /// Parses and validates a request object.
    ///
    /// # Errors
    ///
    /// Returns a typed [`RequestError`] for malformed shapes
    /// (`bad_request`), unknown families/generators, a zero seed range
    /// (`empty_seed_range`), and knob combinations the engines do not
    /// support (`unsupported_config`).
    pub fn parse(j: &Json) -> Result<Self, RequestError> {
        let entries = as_obj(j, "request")?;
        check_keys(
            entries,
            &["graph", "algorithm", "config", "backend", "seed", "runs"],
            "request",
        )?;
        let graph = GraphSpec::parse(
            j.get("graph")
                .ok_or_else(|| RequestError::bad("request needs a \"graph\" object"))?,
        )?;
        let algorithm = parse_family(
            j.get("algorithm")
                .ok_or_else(|| RequestError::bad("request needs an \"algorithm\" object"))?,
        )?;
        let config = parse_config(j.get("config"))?;
        let backend = match j.get("backend") {
            None => Backend::Csr,
            Some(b) => {
                let name = b
                    .as_str()
                    .ok_or_else(|| RequestError::bad("backend must be a string"))?;
                Backend::parse(name).ok_or_else(|| {
                    RequestError::bad(format!(
                        "unknown backend {name:?} (expected csr, compressed, or disk)"
                    ))
                })?
            }
        };
        let seed = opt_u64(j, "seed")?.unwrap_or(0);
        let runs = match j.get("runs") {
            None => return Err(RequestError::bad("request needs a \"runs\" count")),
            Some(r) => json_u64(r, "runs")? as usize,
        };
        if runs == 0 {
            return Err(RequestError::new(
                "empty_seed_range",
                "runs must be at least 1",
            ));
        }
        if runs > MAX_RUNS {
            return Err(RequestError::bad(format!(
                "{runs} runs exceeds the {MAX_RUNS}-run cap"
            )));
        }
        if algorithm.is_message() && config.faults.message_loss > 0.0 {
            return Err(RequestError::new(
                "unsupported_config",
                "message_loss applies to beeping families only",
            ));
        }
        Ok(Self {
            graph,
            algorithm,
            config,
            backend,
            seed,
            runs,
        })
    }

    /// The canonical JSON of this request given the digest of its built
    /// graph: fixed key order, every knob materialised (defaults
    /// included). Equal canonical renders ⇒ equal cache keys.
    #[must_use]
    pub fn canonical_json(&self, graph_digest: u64) -> Json {
        Json::Obj(vec![
            ("algorithm".to_owned(), family_json(&self.algorithm)),
            (
                "backend".to_owned(),
                Json::Str(self.backend.name().to_owned()),
            ),
            ("config".to_owned(), self.config.canonical_json()),
            ("graph_digest".to_owned(), Json::u64_str(graph_digest)),
            ("proto".to_owned(), Json::Num(PROTO_VERSION)),
            ("runs".to_owned(), Json::Num(self.runs as f64)),
            ("seed".to_owned(), Json::u64_str(self.seed)),
        ])
    }
}

fn parse_config(j: Option<&Json>) -> Result<SimConfig, RequestError> {
    let mut config = SimConfig::default();
    let Some(j) = j else { return Ok(config) };
    let entries = as_obj(j, "config")?;
    check_keys(
        entries,
        &[
            "max_rounds",
            "kernel",
            "rng",
            "shards",
            "mis_keeps_beeping",
            "message_loss",
        ],
        "config",
    )?;
    if let Some(max_rounds) = opt_u64(j, "max_rounds")? {
        if max_rounds == 0 || max_rounds > u64::from(u32::MAX) {
            return Err(RequestError::bad("max_rounds must be in 1..=2^32-1"));
        }
        config.max_rounds = max_rounds as u32;
    }
    if let Some(kernel) = j.get("kernel") {
        let name = kernel
            .as_str()
            .ok_or_else(|| RequestError::bad("kernel must be a string"))?;
        config.kernel = PropagationKernel::parse(name)
            .ok_or_else(|| RequestError::bad(format!("unknown kernel {name:?}")))?;
    }
    if let Some(rng) = j.get("rng") {
        let name = rng
            .as_str()
            .ok_or_else(|| RequestError::bad("rng must be a string"))?;
        config.rng = RngMode::parse(name)
            .ok_or_else(|| RequestError::bad(format!("unknown rng mode {name:?}")))?;
    }
    if let Some(shards) = opt_u64(j, "shards")? {
        if shards == 0 || shards > MAX_SHARDS as u64 {
            return Err(RequestError::bad(format!(
                "shards must be in 1..={MAX_SHARDS}"
            )));
        }
        config.shards = shards as usize;
        // A sharded request without an explicit rng has always run on
        // counter draws; keep that, so its key and payload hold.
        if shards != 1 && j.get("rng").is_none() {
            config.rng = RngMode::Counter;
        }
    }
    if let Some(keep) = j.get("mis_keeps_beeping") {
        config.mis_keeps_beeping = keep
            .as_bool()
            .ok_or_else(|| RequestError::bad("mis_keeps_beeping must be a boolean"))?;
    }
    if let Some(loss) = j.get("message_loss") {
        let loss = loss
            .as_f64()
            .ok_or_else(|| RequestError::bad("message_loss must be a number"))?;
        let faults = FaultPlan {
            message_loss: loss,
            wake_rounds: Vec::new(),
        };
        faults
            .validate()
            .map_err(|e| RequestError::bad(e.to_string()))?;
        config.faults = faults;
    }
    Ok(config)
}

// ---- JSON field helpers ---------------------------------------------------

fn as_obj<'a>(j: &'a Json, ctx: &str) -> Result<&'a [(String, Json)], RequestError> {
    match j {
        Json::Obj(entries) => Ok(entries),
        _ => Err(RequestError::bad(format!("{ctx} must be a JSON object"))),
    }
}

fn check_keys(entries: &[(String, Json)], allowed: &[&str], ctx: &str) -> Result<(), RequestError> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(RequestError::bad(format!("unknown {ctx} field {key:?}")));
        }
    }
    Ok(())
}

/// A `u64` field written either as a decimal string (full 64-bit range)
/// or as a small non-negative integer (≤ 2⁵³, the IEEE-exact range).
fn json_u64(j: &Json, ctx: &str) -> Result<u64, RequestError> {
    if let Some(v) = j.as_u64_str() {
        return Ok(v);
    }
    if let Some(x) = j.as_f64() {
        if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
            return Ok(x as u64);
        }
    }
    Err(RequestError::bad(format!(
        "{ctx} must be a non-negative integer or decimal string"
    )))
}

fn opt_u64(j: &Json, key: &str) -> Result<Option<u64>, RequestError> {
    j.get(key).map(|v| json_u64(v, key)).transpose()
}

fn req_count(j: &Json, key: &str) -> Result<usize, RequestError> {
    let v = j
        .get(key)
        .ok_or_else(|| RequestError::bad(format!("graph needs a {key:?} count")))?;
    Ok(json_u64(v, key)? as usize)
}

fn req_probability(j: &Json, key: &str) -> Result<f64, RequestError> {
    let p = j
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| RequestError::bad(format!("{key:?} must be a number")))?;
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(RequestError::bad(format!("{key:?} must be in [0, 1]")))
    }
}

// ---- Content addressing ---------------------------------------------------

/// FNV-1a digest of a graph's adjacency structure: node count, then each
/// node's degree followed by its ascending neighbour list. The
/// degree-prefix makes the byte stream a prefix code, so distinct
/// adjacency structures cannot collide by concatenation.
#[must_use]
pub fn graph_digest<G: GraphView + ?Sized>(g: &G) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(g.node_count() as u64);
    for v in 0..g.node_count() as u32 {
        h.write_u64(g.degree(v) as u64);
        g.for_each_neighbor(v, |u| h.write_u64(u64::from(u)));
    }
    h.finish()
}

/// The content address of `request` run on `graph`: 16 lowercase hex
/// digits of the FNV-1a digest of the canonical request JSON. Everything
/// that can change a payload byte is inside the canonical form; nothing
/// else is.
#[must_use]
pub fn cache_key<G: GraphView + ?Sized>(request: &RunRequest, graph: &G) -> String {
    let canonical = request.canonical_json(graph_digest(graph)).render();
    let mut h = Fnv1a::new();
    h.write(canonical.as_bytes());
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<RunRequest, RequestError> {
        RunRequest::parse(&Json::parse(text).unwrap())
    }

    const MINIMAL: &str = r#"{"graph": {"generator": "cycle", "n": 8},
        "algorithm": {"family": "feedback"}, "seed": "3", "runs": 4}"#;

    #[test]
    fn minimal_request_parses_with_defaults() {
        let r = parse(MINIMAL).unwrap();
        assert_eq!(r.graph, GraphSpec::Cycle { n: 8 });
        assert_eq!(r.algorithm, Family::Beeping(Algorithm::feedback()));
        assert_eq!(r.config, SimConfig::default());
        assert_eq!(r.backend, Backend::Csr);
        assert_eq!(r.seed, 3);
        assert_eq!(r.runs, 4);
    }

    #[test]
    fn permuted_request_text_yields_the_same_cache_key() {
        let a = parse(MINIMAL).unwrap();
        let b = parse(
            r#"{"runs": 4, "algorithm": {"family": "feedback"}, "seed": 3,
                "graph": {"n": 8, "generator": "cycle"}}"#,
        )
        .unwrap();
        let g = a.graph.build().unwrap();
        assert_eq!(cache_key(&a, &g), cache_key(&b, &g));
    }

    #[test]
    fn dimacs_upload_equals_the_generator_it_encodes() {
        let spec = parse(MINIMAL).unwrap();
        let g = spec.graph.build().unwrap();
        let dimacs_text = io::to_dimacs(&g);
        let uploaded = GraphSpec::Dimacs { text: dimacs_text }.build().unwrap();
        assert_eq!(graph_digest(&g), graph_digest(&uploaded));
    }

    #[test]
    fn every_knob_lands_in_the_key() {
        let base = parse(MINIMAL).unwrap();
        let g = base.graph.build().unwrap();
        let base_key = cache_key(&base, &g);
        let variants = [
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "sweep"}, "seed": "3", "runs": 4}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "4", "runs": 4}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "3", "runs": 5}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "3", "runs": 4,
                "backend": "compressed"}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "3", "runs": 4,
                "config": {"shards": 2}}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "3", "runs": 4,
                "config": {"rng": "stream", "shards": 2}}"#,
            r#"{"graph": {"generator": "cycle", "n": 8},
                "algorithm": {"family": "feedback"}, "seed": "3", "runs": 4,
                "config": {"max_rounds": 99}}"#,
        ];
        let mut keys = vec![base_key];
        for text in variants {
            keys.push(cache_key(&parse(text).unwrap(), &g));
        }
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), variants.len() + 1, "all keys distinct");
    }

    #[test]
    fn cache_keys_are_pinned_per_family() {
        // Persisted cache entries are named by these keys, so a change to
        // the canonical form must show up here and bump PROTO_VERSION.
        let g = generators::cycle(8);
        let pinned = [
            (r#"{"family": "feedback"}"#, "a24af91326533fd4"),
            (r#"{"family": "sweep"}"#, "7c9a28a3a2d40bfd"),
            (
                r#"{"family": "science", "phase_factor": 3}"#,
                "abd8c2e9b2f671eb",
            ),
            (r#"{"family": "constant", "p": 0.25}"#, "de577eadbd99d214"),
            (r#"{"family": "luby_priority"}"#, "3e9da2d9c58d56d0"),
            (r#"{"family": "luby_marking"}"#, "cc2735187b9826e3"),
            (r#"{"family": "metivier"}"#, "c0f99c0cdaa727e4"),
            (r#"{"family": "greedy_local"}"#, "5f35a733e6b2dcad"),
        ];
        let mut actual = String::new();
        for (algorithm, _) in pinned {
            let text = format!(
                r#"{{"graph": {{"generator": "cycle", "n": 8}},
                    "algorithm": {algorithm}, "seed": "3", "runs": 4}}"#
            );
            let key = cache_key(&parse(&text).unwrap(), &g);
            actual.push_str(&format!("{algorithm} {key}\n"));
        }
        let expected: String = pinned
            .iter()
            .map(|(algorithm, key)| format!("{algorithm} {key}\n"))
            .collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn typed_rejections() {
        let cases = [
            (r#"{"runs": 1}"#, "bad_request"),
            (
                r#"{"graph": {"generator": "moebius", "n": 4},
                    "algorithm": {"family": "feedback"}, "runs": 1}"#,
                "unknown_generator",
            ),
            (
                r#"{"graph": {"generator": "cycle", "n": 4},
                    "algorithm": {"family": "quantum"}, "runs": 1}"#,
                "unknown_algorithm",
            ),
            (
                r#"{"graph": {"generator": "cycle", "n": 4},
                    "algorithm": {"family": "feedback"}, "runs": 0}"#,
                "empty_seed_range",
            ),
            (
                r#"{"graph": {"generator": "cycle", "n": 4},
                    "algorithm": {"family": "luby_priority"}, "runs": 1,
                    "config": {"message_loss": 0.5}}"#,
                "unsupported_config",
            ),
            (
                r#"{"graph": {"generator": "cycle", "n": 4},
                    "algorithm": {"family": "feedback"}, "runs": 1,
                    "config": {"max_rounds": 0}}"#,
                "bad_request",
            ),
            (
                r#"{"graph": {"generator": "cycle", "n": 4},
                    "algorithm": {"family": "feedback"}, "runs": 1,
                    "frobnicate": true}"#,
                "bad_request",
            ),
        ];
        for (text, code) in cases {
            assert_eq!(parse(text).unwrap_err().code, code, "{text}");
        }
    }

    #[test]
    fn self_loop_dimacs_is_a_bad_graph() {
        let err = GraphSpec::Dimacs {
            text: "p edge 3 1\ne 2 2\n".to_owned(),
        }
        .build()
        .unwrap_err();
        assert_eq!(err.code, "bad_graph");
        assert!(err.message.contains("self-loop") || err.message.contains("loop"));
    }

    #[test]
    fn shapes_the_generators_reject_are_bad_graphs() {
        for (spec, condition) in [
            (GraphSpec::Cycle { n: 2 }, "cycle needs n of at least 3"),
            (GraphSpec::Star { n: 0 }, "star needs n of at least 1"),
            (
                GraphSpec::Torus2d { rows: 2, cols: 5 },
                "torus2d needs rows and cols of at least 3",
            ),
            (
                GraphSpec::Torus2d { rows: 5, cols: 2 },
                "torus2d needs rows and cols of at least 3",
            ),
        ] {
            let err = spec.build().unwrap_err();
            assert_eq!((err.code, err.message.as_str()), ("bad_graph", condition));
        }
        // The smallest accepted shapes still build.
        assert_eq!(GraphSpec::Cycle { n: 3 }.build().unwrap().edge_count(), 3);
        assert_eq!(GraphSpec::Star { n: 1 }.build().unwrap().node_count(), 1);
        let torus = GraphSpec::Torus2d { rows: 3, cols: 3 }.build().unwrap();
        assert_eq!(torus.edge_count(), 18);
    }

    #[test]
    fn dimacs_node_count_is_capped_from_the_problem_line() {
        // The count is checked before any edge line is parsed, so the cap
        // is reported ahead of the self-loop on line 2.
        for text in [
            format!("c over the cap\np edge {} 0\n", MAX_NODES + 1),
            format!("p edge {} 1\ne 1 1\n", MAX_NODES + 1),
        ] {
            let err = GraphSpec::Dimacs { text }.build().unwrap_err();
            assert_eq!(err.code, "bad_graph");
            assert!(err.message.contains("2000000-node cap"), "{}", err.message);
        }
        // A document without a problem line is still a parse error.
        let err = GraphSpec::Dimacs {
            text: "c nothing\n".to_owned(),
        }
        .build()
        .unwrap_err();
        assert_eq!(err.code, "bad_graph");
        assert!(
            err.message.contains("missing problem line"),
            "{}",
            err.message
        );
    }

    #[test]
    fn over_dense_generators_are_rejected_before_building() {
        for graph in [
            r#"{"generator": "complete", "n": 2000000}"#,
            r#"{"generator": "gnp", "n": 2000000, "p": 0.5}"#,
        ] {
            let text = format!(
                r#"{{"graph": {graph}, "algorithm": {{"family": "feedback"}}, "runs": 1}}"#
            );
            let err = parse(&text).unwrap().graph.build().unwrap_err();
            assert_eq!(err.code, "bad_graph", "{graph}");
            assert!(err.message.contains("33554432-edge cap"), "{}", err.message);
        }
        // The cap is exact for `complete`: K_8192 has 33,550,336 edges and
        // K_8193 has 33,558,528. Neither is built here.
        assert!(GraphSpec::Complete { n: 8192 }.check_edges().is_ok());
        assert!(GraphSpec::Complete { n: 8193 }.check_edges().is_err());
    }

    #[test]
    fn all_seven_families_parse_and_classify() {
        let beeping = ["feedback", "sweep", "science", "constant"];
        let message = ["luby_priority", "luby_marking", "metivier", "greedy_local"];
        for family in beeping {
            let extra = if family == "constant" {
                r#", "p": 0.5"#
            } else {
                ""
            };
            let text = format!(
                r#"{{"graph": {{"generator": "cycle", "n": 4}},
                    "algorithm": {{"family": "{family}"{extra}}}, "runs": 1}}"#
            );
            let r = parse(&text).unwrap();
            assert!(!r.algorithm.is_message(), "{family}");
            assert!(matches!(r.algorithm, Family::Beeping(_)), "{family}");
            assert_eq!(r.algorithm.name(), family);
        }
        for family in message {
            let text = format!(
                r#"{{"graph": {{"generator": "cycle", "n": 4}},
                    "algorithm": {{"family": "{family}"}}, "runs": 1}}"#
            );
            let r = parse(&text).unwrap();
            assert!(r.algorithm.is_message(), "{family}");
            assert!(!matches!(r.algorithm, Family::Beeping(_)), "{family}");
            assert_eq!(r.algorithm.name(), family);
        }
    }

    #[test]
    fn seeds_accept_strings_and_small_integers() {
        let big = format!(
            r#"{{"graph": {{"generator": "cycle", "n": 4}},
                "algorithm": {{"family": "feedback"}},
                "seed": "{}", "runs": 1}}"#,
            u64::MAX
        );
        assert_eq!(parse(&big).unwrap().seed, u64::MAX);
        let small = r#"{"graph": {"generator": "cycle", "n": 4},
            "algorithm": {"family": "feedback"}, "seed": 12, "runs": 1}"#;
        assert_eq!(parse(small).unwrap().seed, 12);
    }

    #[test]
    fn graph_digest_separates_structures() {
        let c8 = generators::cycle(8);
        let p8 = generators::path(8);
        let c9 = generators::cycle(9);
        assert_ne!(graph_digest(&c8), graph_digest(&p8));
        assert_ne!(graph_digest(&c8), graph_digest(&c9));
        assert_eq!(graph_digest(&c8), graph_digest(&generators::cycle(8)));
    }
}
