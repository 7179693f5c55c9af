//! `simbench` — simulation-engine throughput benchmark.
//!
//! Four suites, each driven through the engines' batch path
//! (`mis_core::RunPlan`) or the application entry points:
//!
//! * **simulator** (default) — the beeping engine along the axes the
//!   workspace optimises: scalar reference vs bitset propagation kernel
//!   (single-threaded), 1 worker vs N workers through the batch runner,
//!   plus a **sharding point** (one counter-mode bitset run on a 1M+-node
//!   graph in full mode, sequential vs 4 intra-run shards). Writes
//!   `BENCH_simulator.json`.
//! * **baselines** — the message-passing engine's inbox delivery: the
//!   pull-only reference strategy `InboxStrategy::FreshVecs` vs the arena
//!   strategy, both on the one run loop, on a Luby-priority gnp workload,
//!   plus 1 worker vs N workers, plus a **views point** (the same
//!   Luby-priority engine on the lazy `LineGraphView` vs on a materialised
//!   `L(G)`). Writes `BENCH_baselines.json`.
//! * **apps** — the application reductions: maximal matching as MIS on a
//!   **materialised** line graph (the pre-view path) vs the lazy
//!   `LineGraphView`, on a ≥10k-node workload whose line graph dwarfs the
//!   base CSR, plus `AppEngine` batch determinism at 1 vs N workers, plus
//!   **colouring points** (Luby's product reduction on the lazy
//!   `ProductView` vs a materialised `G □ K_{Δ+1}`, and the iterated-MIS
//!   phase sweep on `InducedView`s vs per-phase materialised subgraphs).
//!   Writes `BENCH_apps.json`.
//! * **scale** — the out-of-core tier: one counter-mode propagation run
//!   replayed on all three adjacency backends (in-RAM CSR, delta-varint
//!   `CompressedGraph`, shard-paged `DiskGraph` fed by the streaming
//!   generators) at 1M nodes (quick) and 10M nodes (full), recording
//!   rounds/sec, adjacency bytes/node and a peak-RSS proxy. Writes
//!   `BENCH_scale.json`.
//!
//! Every point is timed by [`time_point`]: each of its configurations
//! runs `reps` times in interleaved order (2 reps in quick mode, 3 in
//! full), keeps its fastest time, and the suite fails unless every
//! configuration's last output is identical. [`write_bench`] then writes
//! the document with its `bench`/`mode` header and the
//! `outcomes_identical` flag those gates earned.
//!
//! ```text
//! simbench [--quick] [--suite simulator|baselines|apps|scale|all]
//!          [--out FILE] [--runs N] [--jobs N]
//! ```
//!
//! `--runs N` sets the seeded runs of every timed configuration (each
//! point has its own default), `--jobs N` the worker count of the
//! N-worker configurations. `--out` applies to a single suite; `--suite
//! all` writes every default file name.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mis_apps::coloring::is_proper_coloring;
use mis_apps::{iterated_mis_coloring, AppEngine};
use mis_baselines::InboxStrategy::{self, Arena, FreshVecs};
use mis_baselines::{LubyPriorityFactory, MessageEngine};
use mis_beeping::rng::trial_seed;
use mis_beeping::PropagationKernel::{self, Bitset, Scalar};
use mis_beeping::{RngMode, SimConfig};
use mis_bench::{gnp_mean_degree, gnp_mean_degree_edges};
use mis_core::engine::RunView;
use mis_core::{solve_mis_with_config, Algorithm, BatchPlan, RunPlan};
use mis_graph::stream::{DEFAULT_CACHE_BLOCKS, DEFAULT_NODES_PER_SHARD};
use mis_graph::{
    generators, ops, CompressedGraph, DiskGraph, Graph, GraphView, LineGraphView, NodeId,
    ProductView, ShardWriter,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Suite {
    Simulator,
    Baselines,
    Apps,
    Scale,
    All,
}

struct Options {
    quick: bool,
    suite: Suite,
    out: Option<String>,
    runs: Option<usize>,
    jobs: Option<usize>,
}

impl Options {
    /// Repetitions of every timed configuration.
    fn reps(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }

    /// The seeded runs of one point's configurations: `--runs`, else the
    /// point's default for the mode.
    fn runs(&self, quick: usize, full: usize) -> usize {
        self.runs.unwrap_or(if self.quick { quick } else { full })
    }

    /// The worker count of the N-worker configurations.
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(mis_core::auto_jobs)
    }
}

fn usage() -> &'static str {
    "usage: simbench [--quick] [--suite simulator|baselines|apps|scale|all] [--out FILE] [--runs N] [--jobs N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        suite: Suite::Simulator,
        out: None,
        runs: None,
        jobs: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--suite" => {
                let v = it.next().ok_or("--suite needs a value")?;
                opts.suite = match v.as_str() {
                    "simulator" => Suite::Simulator,
                    "baselines" => Suite::Baselines,
                    "apps" => Suite::Apps,
                    "scale" => Suite::Scale,
                    "all" => Suite::All,
                    other => return Err(format!("unknown suite {other:?}\n{}", usage())),
                };
            }
            "--out" => {
                opts.out = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--runs" => {
                let v = it.next().ok_or("--runs needs a value")?;
                let runs: usize = v.parse().map_err(|_| format!("bad run count {v:?}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
                opts.runs = Some(runs);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let jobs: usize = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.jobs = Some(jobs);
            }
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if opts.suite == Suite::All && opts.out.is_some() {
        return Err("--out applies to a single suite; drop it with --suite all".to_owned());
    }
    Ok(opts)
}

/// One configuration of a point: its fastest wall-clock milliseconds over
/// the reps and the output of its last rep.
#[derive(Debug)]
struct Timed<T> {
    ms: f64,
    out: T,
}

/// Times the labelled configurations of one point. Each runs `reps` times
/// (at least 1) in interleaved order, so a slow phase of a shared machine
/// hits them all alike, and keeps its fastest time (the noise-robust
/// estimator) and last output. The configurations may change only the
/// time: unless every last output is equal, the point fails with an error
/// naming `what` as the cause.
fn time_point<T: PartialEq, const N: usize>(
    what: &str,
    reps: usize,
    mut configs: [(&str, &mut dyn FnMut() -> T); N],
) -> Result<[Timed<T>; N], String> {
    let mut timed: [Option<Timed<T>>; N] = std::array::from_fn(|_| None);
    for _ in 0..reps {
        for (slot, (_, run)) in timed.iter_mut().zip(configs.iter_mut()) {
            let started = Instant::now();
            let out = run();
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let ms = slot.as_ref().map_or(ms, |t| t.ms.min(ms));
            *slot = Some(Timed { ms, out });
        }
    }
    let timed = timed.map(|t| t.expect("every configuration ran at least once"));
    for ((label, _), t) in configs.iter().zip(&timed) {
        eprintln!("  {label}: {:.1} ms", t.ms);
    }
    if timed.windows(2).any(|pair| pair[0].out != pair[1].out) {
        return Err(format!("FATAL — {what} changed the results"));
    }
    Ok(timed)
}

/// How many times faster `candidate_ms` is than `reference_ms`.
fn speedup(reference_ms: f64, candidate_ms: f64) -> f64 {
    reference_ms / candidate_ms.max(1e-9)
}

/// A value of a BENCH document. Counts are `Int`; measured values are
/// `Num` and keep three decimals; objects keep their insertion order.
#[derive(Debug)]
enum Json {
    Bool(bool),
    Int(u64),
    Num(f64),
    /// One of the program's own labels, written verbatim.
    Str(&'static str),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// `From` conversions into [`Json`], one `type => |value| variant` each.
macro_rules! json_from {
    ($($ty:ty => |$v:ident| $variant:expr;)*) => {
        $(impl From<$ty> for Json {
            fn from($v: $ty) -> Self {
                $variant
            }
        })*
    };
}

json_from! {
    bool => |b| Json::Bool(b);
    u32 => |i| Json::Int(u64::from(i));
    u64 => |i| Json::Int(i);
    usize => |i| Json::Int(i as u64);
    f64 => |x| Json::Num(x);
    &'static str => |s| Json::Str(s);
    Vec<Json> => |items| Json::Arr(items);
    Vec<(&'static str, Json)> => |fields| Json::Obj(fields);
}

/// The fields of a JSON object, in order: `obj! { "key" => value, … }`,
/// each value converted by `Json::from`.
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        vec![$(($key, Json::from($value))),*]
    };
}

impl Json {
    /// Writes the value nested `depth` levels deep: containers put each
    /// entry on its own line, indented two spaces per level.
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let (brackets, entries): (_, Vec<(Option<&str>, &Json)>) = match self {
            Json::Bool(b) => return write!(f, "{b}"),
            Json::Int(i) => return write!(f, "{i}"),
            Json::Num(x) => return write!(f, "{x:.3}"),
            Json::Str(s) => return write!(f, "\"{s}\""),
            Json::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                ['{', '}'],
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        write!(f, "{}", brackets[0])?;
        for (i, (key, value)) in entries.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(f, "{sep}\n{:indent$}", "", indent = 2 * (depth + 1))?;
            if let Some(key) = key {
                write!(f, "\"{key}\": ")?;
            }
            value.write(f, depth + 1)?;
        }
        write!(f, "\n{:indent$}{}", "", brackets[1], indent = 2 * depth)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// Writes one BENCH document: the `bench` and `mode` header, the suite's
/// fields, and `outcomes_identical`, which every gate of the suite earned
/// before this call. The path is `--out`, else `BENCH_<bench>.json`.
fn write_bench(
    opts: &Options,
    bench: &'static str,
    fields: Vec<(&'static str, Json)>,
) -> Result<(), String> {
    let mut doc = obj! {
        "bench" => bench,
        "mode" => if opts.quick { "quick" } else { "full" },
    };
    doc.extend(fields);
    doc.push(("outcomes_identical", Json::Bool(true)));
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{bench}.json"));
    std::fs::write(&path, format!("{}\n", Json::Obj(doc)))
        .map_err(|e| format!("failed to write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The `graph` object of a gnp workload.
fn gnp_json(g: &Graph) -> Vec<(&'static str, Json)> {
    obj! {
        "family" => "gnp",
        "nodes" => g.node_count(),
        "edges" => g.edge_count(),
        "mean_degree" => g.mean_degree(),
    }
}

/// The size of a graph: `{ "nodes": …, "edges": … }`.
fn size_json(nodes: usize, edges: usize) -> Vec<(&'static str, Json)> {
    obj! { "nodes" => nodes, "edges" => edges }
}

/// The derived-adjacency bytes of `L(base)` with `line_edges` edges: the
/// materialised CSR (two u32 entries per line edge plus one usize offset
/// per line node) and the lazy view's auxiliary indexing (the canonical
/// edge list, one u32 edge id per base half-edge, and the base offsets).
fn line_graph_bytes(base: &Graph, line_edges: usize) -> (usize, usize) {
    let line_nodes = base.edge_count();
    (
        2 * line_edges * 4 + (line_nodes + 1) * 8,
        line_nodes * 8 + 2 * base.edge_count() * 4 + (base.node_count() + 1) * 8,
    )
}

/// The run seeds of a batch of `runs` runs under `master`.
fn run_seeds(master: u64, runs: usize) -> Vec<u64> {
    let plan = BatchPlan::new(master, runs);
    (0..runs).map(|i| plan.run_seed(i)).collect()
}

/// `solve` run on each seed, in order.
fn each_seed<T>(seeds: &[u64], solve: impl Fn(u64) -> T) -> Vec<T> {
    seeds.iter().map(|&s| solve(s)).collect()
}

/// Mean of `f` over `items`.
fn mean_of<T>(items: &[T], f: impl Fn(&T) -> u32) -> f64 {
    items.iter().map(|x| f64::from(f(x))).sum::<f64>() / items.len().max(1) as f64
}

/// One feedback run's MIS and round count.
type RunDigest = (Vec<NodeId>, u32);

/// Solves `g` with the feedback algorithm under `seed`.
fn feedback_digest<G: GraphView + ?Sized>(g: &G, seed: u64) -> RunDigest {
    let r = solve_mis_with_config(g, &Algorithm::feedback(), seed, SimConfig::default())
        .expect("feedback terminates on a fault-free network");
    (r.mis().to_vec(), r.rounds())
}

/// The beeping-engine suite: scalar vs bitset kernel, 1 vs N workers, and
/// sequential vs sharded runs.
fn run_simulator_suite(opts: &Options) -> Result<(), String> {
    // A 10k-node random graph, dense enough that beep propagation is a
    // real cost. Quick mode shrinks everything so CI can smoke-test the
    // pipeline in seconds.
    let (n, mean_degree, capped_rounds) = if opts.quick {
        (2_000usize, 64.0, 16u32)
    } else {
        (10_000usize, 256.0, 48u32)
    };
    let (runs, reps, jobs) = (opts.runs(2, 8), opts.reps(), opts.jobs());

    eprintln!("simbench[simulator]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    eprintln!(
        "simbench[simulator]: {} nodes, {} edges, mean degree {:.1}; {runs} runs × {reps} reps, {jobs} jobs",
        graph.node_count(),
        graph.edge_count(),
        graph.mean_degree(),
    );

    // Workload 1 — kernel throughput: every node beeps with constant
    // probability ½ for a fixed number of rounds (on a graph this dense
    // nobody ever wins, so the beep density stays at ½ and the run
    // measures steady-state propagation, the quantity the bitset kernel
    // optimises).
    let run_kernel = |kernel: PropagationKernel| {
        RunPlan::new(Algorithm::constant(0.5), runs)
            .with_master_seed(0xBEEF)
            .with_jobs(1)
            .with_config(
                SimConfig::default()
                    .with_max_rounds(capped_rounds)
                    .with_kernel(kernel),
            )
            .execute(&graph)
    };
    eprintln!("simbench[simulator]: kernel workload (constant ½, {capped_rounds} rounds) …");
    let [kernel_scalar, kernel_bitset] = time_point(
        "the propagation kernel",
        reps,
        [
            ("scalar 1-thread", &mut || run_kernel(Scalar)),
            ("bitset 1-thread", &mut || run_kernel(Bitset)),
        ],
    )?;

    // Workload 2 — end to end: full feedback-algorithm runs to
    // termination, single-threaded per kernel plus the batch runner at
    // `jobs` workers. Propagation is only part of this cost (the per-node
    // automata dominate once beeps thin out), so its speedup is smaller.
    let run_feedback = |kernel: PropagationKernel, jobs: usize| {
        RunPlan::new(Algorithm::feedback(), runs)
            .with_master_seed(0xF00D)
            .with_jobs(jobs)
            .with_config(SimConfig::default().with_kernel(kernel))
            .execute(&graph)
    };
    eprintln!("simbench[simulator]: end-to-end workload (feedback to termination) …");
    let [fb_scalar, fb_bitset, fb_jobs] = time_point(
        "the kernel or the thread count",
        reps,
        [
            ("scalar 1-thread", &mut || run_feedback(Scalar, 1)),
            ("bitset 1-thread", &mut || run_feedback(Bitset, 1)),
            (&format!("bitset {jobs}-thread"), &mut || {
                run_feedback(Bitset, jobs)
            }),
        ],
    )?;

    // Workload 3 — intra-run sharding: one counter-mode propagation run
    // on a graph large enough that a *single* run dwarfs the batch
    // (1M+ nodes in full mode), bitset kernel, sequential vs 4 shards.
    // Counter-mode draws are pure in (node, round), so the shard count
    // must be invisible in the results.
    const SHARDS: usize = 4;
    let (shard_n, shard_degree, shard_rounds) = if opts.quick {
        (50_000usize, 16.0, 4u32)
    } else {
        (1_048_576usize, 16.0, 8u32)
    };
    eprintln!("simbench[simulator]: building sharding graph G({shard_n}, d≈{shard_degree}) …");
    let shard_graph = gnp_mean_degree(shard_n, shard_degree);
    let run_sharded = |shards: usize| {
        RunPlan::new(Algorithm::constant(0.5), opts.runs(1, 1))
            .with_master_seed(0x5AAD)
            .with_jobs(1)
            .with_config(
                SimConfig::default()
                    .with_max_rounds(shard_rounds)
                    .with_kernel(Bitset)
                    .with_rng_mode(RngMode::Counter)
                    .with_shards(shards),
            )
            .execute(&shard_graph)
    };
    eprintln!(
        "simbench[simulator]: sharding workload (constant ½, counter rng, {} nodes, \
         {shard_rounds} rounds, 1 vs {SHARDS} shards) …",
        shard_graph.node_count()
    );
    let [sequential, sharded] = time_point(
        "intra-run sharding",
        reps,
        [
            ("sequential", &mut || run_sharded(1)),
            (&format!("{SHARDS} shards"), &mut || run_sharded(SHARDS)),
        ],
    )?;

    let bitset_speedup = speedup(kernel_scalar.ms, kernel_bitset.ms);
    write_bench(
        opts,
        "simulator",
        obj! {
            "graph" => gnp_json(&graph),
            "runs" => runs,
            "kernel_workload" => obj! {
                "algorithm" => "constant(0.5)",
                "rounds" => capped_rounds,
                "scalar_1thread_ms" => kernel_scalar.ms,
                "bitset_1thread_ms" => kernel_bitset.ms,
                "speedup" => bitset_speedup,
            },
            "feedback_workload" => obj! {
                "algorithm" => "feedback",
                "rounds_mean" => fb_scalar.out.rounds().mean(),
                "scalar_1thread_ms" => fb_scalar.ms,
                "bitset_1thread_ms" => fb_bitset.ms,
                "speedup" => speedup(fb_scalar.ms, fb_bitset.ms),
                "jobs" => jobs,
                "bitset_jobs_ms" => fb_jobs.ms,
                "thread_speedup" => speedup(fb_bitset.ms, fb_jobs.ms),
            },
            "sharding" => obj! {
                "algorithm" => "constant(0.5)",
                "rng" => "counter",
                "nodes" => shard_graph.node_count(),
                "edges" => shard_graph.edge_count(),
                "rounds" => shard_rounds,
                "shards" => SHARDS,
                "cores" => mis_core::auto_jobs(),
                "sequential_ms" => sequential.ms,
                "sharded_ms" => sharded.ms,
                "speedup" => speedup(sequential.ms, sharded.ms),
                "outcomes_identical" => true,
            },
            "bitset_speedup" => bitset_speedup,
        },
    )
}

/// The message-engine suite: the fresh-`Vec` reference vs arena inbox
/// delivery on a Luby-priority workload, 1 vs N workers, and Luby on the
/// lazy line-graph view vs on a materialised `L(G)`.
fn run_baselines_suite(opts: &Options) -> Result<(), String> {
    // Luby's priority form exchanges a 64-bit value per edge per round —
    // the allocation-heaviest message workload in the repo, and the one
    // the arena strategy targets.
    let (n, mean_degree) = if opts.quick {
        (2_000usize, 32.0)
    } else {
        (10_000usize, 64.0)
    };
    let (runs, reps, jobs) = (opts.runs(4, 8), opts.reps(), opts.jobs());

    eprintln!("simbench[baselines]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    eprintln!(
        "simbench[baselines]: {} nodes, {} edges, mean degree {:.1}; {runs} runs × {reps} reps, {jobs} jobs",
        graph.node_count(),
        graph.edge_count(),
        graph.mean_degree(),
    );

    let run_luby = |strategy: InboxStrategy, jobs: usize| {
        RunPlan::for_engine(
            MessageEngine::new(LubyPriorityFactory::new()).with_inbox_strategy(strategy),
            runs,
        )
        .with_master_seed(0xBA5E)
        .with_jobs(jobs)
        .execute(&graph)
    };
    eprintln!("simbench[baselines]: Luby-priority workload (to termination) …");
    let [fresh, arena, arena_jobs] = time_point(
        "the inbox strategy or the thread count",
        reps,
        [
            ("fresh-vec 1-thread", &mut || run_luby(FreshVecs, 1)),
            ("arena 1-thread", &mut || run_luby(Arena, 1)),
            (&format!("arena {jobs}-thread"), &mut || {
                run_luby(Arena, jobs)
            }),
        ],
    )?;

    // Views workload — the same Luby-priority engine racing on the lazy
    // line-graph view vs on a materialised L(G). Each timed pass builds
    // its derived graph from the base CSR (exactly what a pre-view
    // reduction pays per workload), so the point measures the whole
    // derived-graph pipeline, not just the rounds.
    let (vn, vdeg) = if opts.quick {
        (600usize, 8.0)
    } else {
        (3_000usize, 16.0)
    };
    let view_runs = opts.runs(2, 4);
    eprintln!("simbench[baselines]: building views base G({vn}, d≈{vdeg}) …");
    let view_base = gnp_mean_degree(vn, vdeg);
    let line_nodes = view_base.edge_count();
    let line_edges = LineGraphView::new(&view_base).edge_count();
    eprintln!(
        "simbench[baselines]: Luby-priority on L(G) ({line_nodes} nodes, {line_edges} edges), \
         lazy view vs materialised, {view_runs} runs …"
    );
    let view_plan = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), view_runs)
        .with_master_seed(0x11E4)
        .with_jobs(1);
    let [on_materialized, on_view] = time_point(
        "the lazy line-graph view",
        reps,
        [
            ("materialized L(G)", &mut || {
                view_plan.execute(&ops::line_graph(&view_base).0)
            }),
            ("lazy view", &mut || {
                view_plan.execute(&LineGraphView::new(&view_base))
            }),
        ],
    )?;
    let (materialized_bytes, view_bytes) = line_graph_bytes(&view_base, line_edges);

    let arena_speedup = speedup(fresh.ms, arena.ms);
    let view_speedup = speedup(on_materialized.ms, on_view.ms);
    write_bench(
        opts,
        "baselines",
        obj! {
            "graph" => gnp_json(&graph),
            "runs" => runs,
            "luby_priority_workload" => obj! {
                "algorithm" => "luby_priority",
                "rounds_mean" => fresh.out.rounds().mean(),
                "fresh_vecs_1thread_ms" => fresh.ms,
                "arena_1thread_ms" => arena.ms,
                "speedup" => arena_speedup,
                "jobs" => jobs,
                "arena_jobs_ms" => arena_jobs.ms,
                "thread_speedup" => speedup(arena.ms, arena_jobs.ms),
            },
            "views_workload" => obj! {
                "algorithm" => "luby_priority",
                "surface" => "line_graph",
                "base" => size_json(view_base.node_count(), view_base.edge_count()),
                "line_graph" => size_json(line_nodes, line_edges),
                "runs" => view_runs,
                "rounds_mean" => on_view.out.rounds().mean(),
                "materialized_ms" => on_materialized.ms,
                "view_ms" => on_view.ms,
                "speedup" => view_speedup,
                "materialized_adjacency_bytes" => materialized_bytes,
                "view_aux_bytes" => view_bytes,
                "memory_ratio" => materialized_bytes as f64 / view_bytes as f64,
                "outcomes_identical" => true,
            },
            "arena_speedup" => arena_speedup,
            "view_speedup" => view_speedup,
        },
    )
}

/// The application suite: maximal matching via a materialised line graph
/// (the pre-view reduction) vs the lazy `LineGraphView`, plus `AppEngine`
/// batch determinism at 1 vs N workers, plus the two colouring reductions
/// (product colouring on `ProductView`, iterated-MIS phase sweeps on
/// `InducedView`s) raced against their materialised counterparts.
fn run_apps_suite(opts: &Options) -> Result<(), String> {
    // A base graph whose line graph dwarfs it: G(10k, d≈64) turns into a
    // ~320k-node line graph whose materialised adjacency holds ~40M
    // entries — the memory blow-up the lazy view exists to avoid.
    let (n, mean_degree) = if opts.quick {
        (2_000usize, 16.0)
    } else {
        (10_000usize, 64.0)
    };
    let (runs, reps, jobs) = (opts.runs(2, 4), opts.reps(), opts.jobs());

    eprintln!("simbench[apps]: building G({n}, d≈{mean_degree}) …");
    let graph = gnp_mean_degree(n, mean_degree);
    let line_nodes = graph.edge_count();
    let line_edges = LineGraphView::new(&graph).edge_count();
    eprintln!(
        "simbench[apps]: {} nodes, {} edges (line graph: {line_nodes} nodes, {line_edges} edges); \
         {runs} runs × {reps} reps, {jobs} jobs",
        graph.node_count(),
        graph.edge_count(),
    );
    let (materialized_bytes, view_bytes) = line_graph_bytes(&graph, line_edges);

    // Each timed pass runs every seed, building its derived graph per run
    // exactly as the application entry points do.
    let seeds = run_seeds(0xA995, runs);
    eprintln!("simbench[apps]: matching workload (feedback on L(G)) …");
    let [materialized, view] = time_point(
        "the lazy line-graph view",
        reps,
        [
            ("materialized L(G)", &mut || {
                each_seed(&seeds, |s| feedback_digest(&ops::line_graph(&graph).0, s))
            }),
            ("lazy view", &mut || {
                each_seed(&seeds, |s| feedback_digest(&LineGraphView::new(&graph), s))
            }),
        ],
    )?;

    // Engine batch path: the records must be bit-identical for any worker
    // count, and match the single-run view path seed for seed.
    let engine_plan = |jobs: usize| {
        RunPlan::for_engine(AppEngine::matching(Algorithm::feedback()), runs)
            .with_master_seed(0xA995)
            .with_jobs(jobs)
    };
    let [engine_solo, engine_jobs] = time_point(
        "the thread count",
        reps,
        [
            ("engine 1-thread", &mut || engine_plan(1).execute(&graph)),
            (&format!("engine {jobs}-thread"), &mut || {
                engine_plan(jobs).execute(&graph)
            }),
        ],
    )?;
    // The engine comparison checks the full MIS content (via an untimed
    // outcome pass), not just sizes, so a divergence that happens to
    // preserve cardinality still trips it.
    let engine_matches_view = engine_plan(1)
        .execute_outcomes(&graph)
        .iter()
        .zip(&view.out)
        .all(|(out, (mis, rounds))| RunView::mis(out) == *mis && RunView::rounds(out) == *rounds);
    if !engine_matches_view {
        return Err("FATAL — the engine batch path changed the matching results".into());
    }

    // Product-colouring point — Luby's reduction, one MIS on `G □ K_{Δ+1}`:
    // the lazy `ProductView` vs a materialised cartesian product, identical
    // seeds. The decoded colouring is verified proper before reporting.
    let (pn, pdeg) = if opts.quick {
        (300usize, 6.0)
    } else {
        (1_200usize, 8.0)
    };
    let pruns = opts.runs(2, 3);
    let pgraph = gnp_mean_degree(pn, pdeg);
    let palette = pgraph.max_degree() as u32 + 1;
    let (product_nodes, product_edges) = {
        let view = ProductView::new(&pgraph, palette);
        (view.node_count(), view.edge_count())
    };
    eprintln!(
        "simbench[apps]: product colouring on G({pn}, d≈{pdeg}) x K_{palette} \
         ({product_nodes} nodes, {product_edges} edges), {pruns} runs …"
    );
    let pseeds = run_seeds(0xC010, pruns);
    let [pmaterialized, pview] = time_point(
        "the product view",
        reps,
        [
            ("materialized product", &mut || {
                let complete = generators::complete(palette as usize);
                each_seed(&pseeds, |s| {
                    feedback_digest(&ops::cartesian_product(&pgraph, &complete), s)
                })
            }),
            ("lazy view", &mut || {
                each_seed(&pseeds, |s| {
                    feedback_digest(&ProductView::new(&pgraph, palette), s)
                })
            }),
        ],
    )?;
    // The product MIS must decode to a complete proper colouring of the
    // base graph.
    let mut product_colors = vec![u32::MAX; pn];
    for &node in &pview.out[0].0 {
        product_colors[(node / palette) as usize] = node % palette;
    }
    if product_colors.contains(&u32::MAX) || !is_proper_coloring(&pgraph, &product_colors) {
        return Err("FATAL — the product MIS decoded to an improper colouring".into());
    }

    // Iterated-colouring point — the phase sweep: lazy `InducedView`
    // phases (the shipping path) vs materialising each phase's
    // still-uncoloured subgraph, identical phase seeds through the same
    // SplitMix64 stream, so the colour classes must match exactly.
    let (inn, ideg) = if opts.quick {
        (240usize, 6.0)
    } else {
        (900usize, 10.0)
    };
    let iruns = opts.runs(2, 3);
    let igraph = gnp_mean_degree(inn, ideg);
    let iseeds = run_seeds(0x17E2, iruns);
    type ColorDigest = (Vec<u32>, u32, u32); // colours, colour count, rounds
    let sweep_view = |seed: u64| -> ColorDigest {
        let c = iterated_mis_coloring(&igraph, &Algorithm::feedback(), seed)
            .expect("iterated colouring terminates on a fault-free network");
        (c.colors().to_vec(), c.color_count(), c.rounds())
    };
    let sweep_materialized = |seed: u64| -> ColorDigest {
        let mut colors = vec![u32::MAX; igraph.node_count()];
        let mut active: Vec<NodeId> = igraph.nodes().collect();
        let mut rounds = 0u32;
        let mut color = 0u32;
        while !active.is_empty() {
            let sub = ops::induced_subgraph(&igraph, &active);
            let r = solve_mis_with_config(
                &sub,
                &Algorithm::feedback(),
                trial_seed(seed, u64::from(color)),
                SimConfig::default(),
            )
            .expect("feedback terminates on a fault-free network");
            rounds = rounds.saturating_add(r.rounds());
            for &local in r.mis() {
                colors[active[local as usize] as usize] = color;
            }
            active.retain(|&v| colors[v as usize] == u32::MAX);
            color += 1;
        }
        (colors, color, rounds)
    };
    eprintln!("simbench[apps]: iterated colouring on G({inn}, d≈{ideg}), {iruns} runs …");
    let [imaterialized, iview] = time_point(
        "the induced views",
        reps,
        [
            ("materialized phases", &mut || {
                each_seed(&iseeds, sweep_materialized)
            }),
            ("lazy views", &mut || each_seed(&iseeds, sweep_view)),
        ],
    )?;
    if !is_proper_coloring(&igraph, &iview.out[0].0) {
        return Err("FATAL — the phase sweep coloured the base graph improperly".into());
    }

    let view_speedup = speedup(materialized.ms, view.ms);
    let memory_ratio = materialized_bytes as f64 / view_bytes as f64;
    write_bench(
        opts,
        "apps",
        obj! {
            "graph" => gnp_json(&graph),
            "runs" => runs,
            "matching_workload" => obj! {
                "algorithm" => "feedback",
                "line_graph" => size_json(line_nodes, line_edges),
                "rounds_mean" => mean_of(&view.out, |(_, rounds)| *rounds),
                "materialized_ms" => materialized.ms,
                "view_ms" => view.ms,
                "speedup" => view_speedup,
                "materialized_adjacency_bytes" => materialized_bytes,
                "view_aux_bytes" => view_bytes,
                "memory_ratio" => memory_ratio,
                "jobs" => jobs,
                "engine_1thread_ms" => engine_solo.ms,
                "engine_jobs_ms" => engine_jobs.ms,
                "thread_speedup" => speedup(engine_solo.ms, engine_jobs.ms),
            },
            "product_coloring_workload" => obj! {
                "algorithm" => "feedback",
                "surface" => "product_view",
                "base" => size_json(pgraph.node_count(), pgraph.edge_count()),
                "palette" => palette,
                "product" => size_json(product_nodes, product_edges),
                "runs" => pruns,
                "rounds_mean" => mean_of(&pview.out, |(_, rounds)| *rounds),
                "materialized_ms" => pmaterialized.ms,
                "view_ms" => pview.ms,
                "speedup" => speedup(pmaterialized.ms, pview.ms),
                "outcomes_identical" => true,
            },
            "iterated_coloring_workload" => obj! {
                "algorithm" => "feedback",
                "surface" => "induced_view",
                "base" => size_json(igraph.node_count(), igraph.edge_count()),
                "runs" => iruns,
                "phases_mean" => mean_of(&iview.out, |(_, phases, _)| *phases),
                "rounds_mean" => mean_of(&iview.out, |(_, _, rounds)| *rounds),
                "materialized_ms" => imaterialized.ms,
                "view_ms" => iview.ms,
                "speedup" => speedup(imaterialized.ms, iview.ms),
                "outcomes_identical" => true,
            },
            "view_speedup" => view_speedup,
            "memory_ratio" => memory_ratio,
        },
    )
}

/// Peak-RSS proxy: the process high-water mark (`VmHWM`, kB) from
/// `/proc/self/status`. `None` off Linux; recorded as 0 in the JSON.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")
            .and_then(|v| v.trim().parse().ok())
    })
}

/// A scale point's shard directory, removed when dropped, so it goes on
/// every exit from the point: an error, a failed gate or a panic.
struct ShardDir(PathBuf);

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The out-of-core suite: the same counter-mode bitset propagation run
/// replayed on all three adjacency backends — in-RAM CSR, delta-varint
/// [`CompressedGraph`], shard-paged [`DiskGraph`] — at the 1M-node tier
/// (quick) and the 10M-node tier (full). The disk shards are produced by
/// the *streaming* generator path (edges go straight to the shard writer,
/// never through a CSR), so the point exercises the whole out-of-core
/// pipeline: bounded-memory generation, compressed storage, paged replay.
///
/// Every timing is gated on bit-identical batch reports across backends,
/// and the compressed backend must beat CSR bytes/node by each point's
/// floor (2× at the 10M tier) before anything is written.
fn run_scale_suite(opts: &Options) -> Result<(), String> {
    let rounds = if opts.quick { 4u32 } else { 8u32 };
    let (runs, reps) = (opts.runs(1, 1), opts.reps());

    /// One scale point: an in-RAM builder (the gate's reference), a
    /// streaming builder feeding the shard writer, and the compression
    /// floor the compressed backend must clear.
    struct Point {
        family: &'static str,
        label: String,
        build: Box<dyn Fn() -> Graph>,
        stream: Box<dyn Fn(&mut ShardWriter)>,
        ratio_floor: f64,
    }

    let gnp_nodes = 1usize << 20;
    let gnp_degree = 16.0;
    let mut points = vec![Point {
        family: "gnp",
        label: format!("gnp n={gnp_nodes} d≈{gnp_degree}"),
        build: Box::new(move || gnp_mean_degree(gnp_nodes, gnp_degree)),
        stream: Box::new(move |w: &mut ShardWriter| {
            gnp_mean_degree_edges(gnp_nodes, gnp_degree, |u, v| w.add_edge(u, v));
        }),
        // Random 2^16-sized gaps varint-encode to ~3 bytes, so the win at
        // mean degree 16 is real but modest.
        ratio_floor: 1.2,
    }];
    if !opts.quick {
        // 3163² = 10 004 569 nodes — the ≥10M acceptance point. Degree-4
        // lattice rows delta-encode to ~1 byte per far neighbour pair and
        // ~2–5 for the wrap-arounds, far under CSR's 24 B/node.
        let side = 3163usize;
        points.push(Point {
            family: "torus2d",
            label: format!("torus2d {side}x{side}"),
            build: Box::new(move || generators::torus2d(side, side)),
            stream: Box::new(move |w: &mut ShardWriter| {
                generators::torus2d_edges(side, side, |u, v| w.add_edge(u, v));
            }),
            ratio_floor: 2.0,
        });
    }

    let plan = RunPlan::new(Algorithm::constant(0.5), runs)
        .with_master_seed(0x5CA1E)
        .with_jobs(1)
        .with_config(
            SimConfig::default()
                .with_max_rounds(rounds)
                .with_kernel(Bitset)
                .with_rng_mode(RngMode::Counter),
        );

    let mut point_json = Vec::new();
    for point in &points {
        eprintln!("simbench[scale]: building {} in RAM …", point.label);
        let graph = (point.build)();
        let n = graph.node_count();

        let started = Instant::now();
        let compressed = CompressedGraph::from_view(&graph);
        let compress_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!("  compressed in {compress_ms:.0} ms");

        // Disk backend: stream-generate the shards (no CSR on this path),
        // then page them back through the block cache. `dir` is declared
        // before `disk`, so the shards are closed before it is removed.
        let dir = ShardDir(std::env::temp_dir().join(format!(
            "simbench-scale-{}-{}",
            std::process::id(),
            point.family
        )));
        let _ = std::fs::remove_dir_all(&dir.0);
        let started = Instant::now();
        let mut writer = ShardWriter::create(&dir.0, n, DEFAULT_NODES_PER_SHARD)
            .map_err(|e| format!("shard writer: {e}"))?;
        (point.stream)(&mut writer);
        let summary = writer.finish().map_err(|e| format!("shard writer: {e}"))?;
        let shard_write_ms = started.elapsed().as_secs_f64() * 1e3;
        eprintln!(
            "  streamed {} shard(s) in {shard_write_ms:.0} ms",
            summary.shard_count
        );
        if summary.node_count != n || summary.edge_count != graph.edge_count() {
            return Err(format!(
                "FATAL — streamed generation diverged from the in-RAM graph on {}",
                point.label
            ));
        }
        let disk = DiskGraph::open(&dir.0).map_err(|e| format!("disk graph: {e}"))?;

        eprintln!(
            "simbench[scale]: {n} nodes, {} edges; {rounds} rounds × {runs} runs × {reps} reps per backend",
            graph.edge_count()
        );
        let [on_csr, on_compressed, on_disk] = time_point(
            &format!("the adjacency backend on {}", point.label),
            reps,
            [
                ("csr", &mut || plan.execute(&graph)),
                ("compressed", &mut || plan.execute(&compressed)),
                ("disk", &mut || plan.execute(&disk)),
            ],
        )?;
        let cache = disk.cache_stats();
        let resident = disk.resident_bytes_estimate();

        // The compression floor. The 10M-node point pins the ≥2×
        // adjacency-bytes claim of the scale tier.
        let ratio = graph.adjacency_bytes() as f64 / compressed.adjacency_bytes() as f64;
        if ratio < point.ratio_floor {
            return Err(format!(
                "FATAL — compressed adjacency is only {ratio:.2}x below CSR on {} (floor {:.1}x)",
                point.label, point.ratio_floor
            ));
        }
        eprintln!(
            "  {ratio:.2}x fewer adjacency bytes compressed; disk cache {} hits, {} misses, \
             ~{:.1} MB resident",
            cache.hits,
            cache.misses,
            resident as f64 / 1e6
        );

        let backend = |adjacency_bytes: usize, ms: f64| {
            obj! {
                "adjacency_bytes" => adjacency_bytes,
                "bytes_per_node" => adjacency_bytes as f64 / n.max(1) as f64,
                "ms" => ms,
                "rounds_per_sec" => f64::from(rounds) * runs as f64 / (ms / 1e3).max(1e-9),
            }
        };
        let mut compressed_json = backend(compressed.adjacency_bytes(), on_compressed.ms);
        compressed_json.extend(obj! { "build_ms" => compress_ms });
        let mut disk_json = backend(disk.adjacency_bytes(), on_disk.ms);
        disk_json.extend(obj! {
            "shards" => summary.shard_count,
            "shard_write_ms" => shard_write_ms,
            "resident_bytes_estimate" => resident,
            "cache_hits" => cache.hits,
            "cache_misses" => cache.misses,
        });
        point_json.push(Json::from(obj! {
            "family" => point.family,
            "nodes" => n,
            "edges" => graph.edge_count(),
            "rounds" => rounds,
            "csr" => backend(graph.adjacency_bytes(), on_csr.ms),
            "compressed" => compressed_json,
            "disk" => disk_json,
            "compression_ratio" => ratio,
            "outcomes_identical" => true,
        }));
    }

    let peak_kb = peak_rss_kb().unwrap_or(0);
    eprintln!(
        "simbench[scale]: peak RSS {:.1} MB (VmHWM)",
        peak_kb as f64 / 1e3
    );
    write_bench(
        opts,
        "scale",
        obj! {
            "algorithm" => "constant(0.5)",
            "rng" => "counter",
            "kernel" => "bitset",
            "reps" => reps,
            "cache_blocks" => DEFAULT_CACHE_BLOCKS,
            "peak_rss_kb" => peak_kb,
            "points" => point_json,
        },
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let result = match opts.suite {
        Suite::Simulator => run_simulator_suite(&opts),
        Suite::Baselines => run_baselines_suite(&opts),
        Suite::Apps => run_apps_suite(&opts),
        Suite::Scale => run_scale_suite(&opts),
        Suite::All => run_simulator_suite(&opts)
            .and_then(|()| run_baselines_suite(&opts))
            .and_then(|()| run_apps_suite(&opts))
            .and_then(|()| run_scale_suite(&opts)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn time_point_interleaves_reps_and_keeps_minimum_and_last_output() {
        let log = RefCell::new(Vec::new());
        let (mut a_calls, mut b_calls) = (0u32, 0u32);
        let [a, b] = time_point(
            "the test",
            3,
            [
                ("a", &mut || {
                    a_calls += 1;
                    log.borrow_mut().push('a');
                    // Only the first rep is slow: the minimum skips it.
                    if a_calls == 1 {
                        std::thread::sleep(Duration::from_millis(60));
                    }
                    a_calls
                }),
                ("b", &mut || {
                    b_calls += 1;
                    log.borrow_mut().push('b');
                    std::thread::sleep(Duration::from_millis(5));
                    b_calls
                }),
            ],
        )
        .expect("equal last outputs pass the gate");
        assert_eq!(log.into_inner(), ['a', 'b', 'a', 'b', 'a', 'b']);
        assert_eq!((a.out, b.out), (3, 3), "each result is its last output");
        assert!(a.ms < 60.0, "a's minimum is a fast rep: {} ms", a.ms);
        assert!(b.ms >= 5.0, "b's time covers its run: {} ms", b.ms);
    }

    #[test]
    fn time_point_fails_when_the_last_outputs_differ() {
        let err = time_point(
            "the test configuration",
            2,
            [("one", &mut || 1), ("two", &mut || 2)],
        )
        .expect_err("different outputs fail the gate");
        assert_eq!(err, "FATAL — the test configuration changed the results");
    }

    #[test]
    fn json_renders_integers_measurements_order_and_nesting() {
        let doc = Json::from(obj! {
            "zeta" => u64::MAX,
            "alpha" => 2.0,
            "ms" => 0.12345,
            "label" => "gnp",
            "points" => vec![
                Json::from(obj! { "nodes" => 7usize, "ok" => true }),
                Json::from(vec![Json::from(1u32)]),
            ],
        });
        assert_eq!(
            doc.to_string(),
            "{\n  \"zeta\": 18446744073709551615,\n  \"alpha\": 2.000,\n  \"ms\": 0.123,\n  \
             \"label\": \"gnp\",\n  \"points\": [\n    {\n      \"nodes\": 7,\n      \
             \"ok\": true\n    },\n    [\n      1\n    ]\n  ]\n}"
        );
    }
}
