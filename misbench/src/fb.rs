//! `fb-sparse` and `fb-disk`: the paper's feedback algorithm, one run at a
//! time over a fixed seed list, with the default `SimConfig`.
//!
//! `fb-sparse` runs on a CSR `G(n, d≈16)` whose per-node state and
//! adjacency are far larger than L2, so per-node passes set the cost.
//! `fb-disk` runs the same algorithm on a `DiskGraph` written by
//! `write_sharded_from_view`, with a block cache a quarter of the graph's
//! blocks, so every run goes through block decode and the block LRU.

use std::path::PathBuf;

use mis_beeping::rng::trial_seed;
use mis_beeping::{RunOutcome, SimConfig, Simulator};
use mis_core::verify::check_mis;
use mis_core::FeedbackFactory;
use mis_graph::stream::write_sharded_from_view;
use mis_graph::{DiskGraph, Graph, GraphView, NodeId};

use crate::clock::{ms, now_ns, past};
use crate::digest::{check_committed, RunDigest};
use crate::report::{best_median, mean, median, note, note_samples, peak_rss_mb, Gate, Report, Samples};
use crate::trace::Tracer;
use crate::{seeds, Ctx, SETUPS};

pub struct Spec {
    log2_n: u32,
    degree: f64,
    /// Length of the run-seed list.
    seeds: usize,
    disk: Option<DiskSpec>,
}

struct DiskSpec {
    /// Decoded 64-node blocks the cache holds.
    cache_blocks: usize,
    shards: usize,
}

pub const SPARSE: Spec = Spec {
    log2_n: 18,
    degree: 16.0,
    seeds: 32,
    disk: None,
};

pub const DISK: Spec = Spec {
    log2_n: 16,
    degree: 16.0,
    seeds: 16,
    // 2^16 nodes are 1024 blocks: the cache holds a quarter of them.
    disk: Some(DiskSpec {
        cache_blocks: 256,
        shards: 4,
    }),
};

struct Fixture {
    csr: Graph,
    disk: Option<DiskGraph>,
}

/// The first run of each seed: its digest, and its MIS for the check.
struct Seen {
    digest: RunDigest,
    mis: Vec<NodeId>,
}

fn shard_dir() -> PathBuf {
    crate::out_dir().join(format!("fb-disk-shards-{}", std::process::id()))
}

fn open_disk(spec: &DiskSpec) -> DiskGraph {
    DiskGraph::open(shard_dir())
        .expect("open shard directory")
        .with_cache_blocks(spec.cache_blocks)
}

fn setup(spec: &Spec, ctx: &Ctx, first_seed: u64, tr: &Tracer) -> Fixture {
    let n = 1usize << spec.log2_n;
    let graph_seed = seeds::graph(ctx.seed);
    let csr = tr.time("graph.build", 0, graph_seed, || {
        crate::gnp(n, spec.degree, graph_seed)
    });
    let disk = spec.disk.as_ref().map(|d| {
        let dir = shard_dir();
        // A leftover directory from an interrupted run is rewritten.
        let _ = std::fs::remove_dir_all(&dir);
        tr.time("graph.shard_write", 0, graph_seed, || {
            write_sharded_from_view(&dir, &csr, n / d.shards)
        })
        .expect("write shards");
        tr.time("graph.disk_open", 0, graph_seed, || open_disk(d))
    });
    // Warm-up: one run on the measured graph.
    match &disk {
        Some(g) => drop(run_plain(g, first_seed)),
        None => drop(run_plain(&csr, first_seed)),
    }
    Fixture { csr, disk }
}

fn run_plain<G: GraphView + ?Sized>(g: &G, seed: u64) -> RunOutcome {
    Simulator::new(g, &FeedbackFactory::new(), seed, SimConfig::default()).run()
}

/// One run with a span around `Simulator::new` and around each
/// `Stepper::step`. The nodes active at round start are read with
/// `Stepper::active_count` outside the timed call and kept as the step
/// span's work count.
pub fn run_traced<G: GraphView + ?Sized>(g: &G, seed: u64, tr: &Tracer, parent: u32) -> RunOutcome {
    let open = tr.open();
    let sim = Simulator::new(g, &FeedbackFactory::new(), seed, SimConfig::default());
    tr.close(open, "beeping.new", parent, seed, g.node_count() as u64);
    let mut stepper = sim.into_stepper();
    while !stepper.is_done() {
        let active = stepper.active_count() as u64;
        let open = tr.open();
        stepper.step();
        tr.close(open, "beeping.step", parent, seed, active);
    }
    stepper.finish()
}

/// Runs the seed list round-robin until `min_runs` runs are done and
/// `seconds` have passed. Returns each run's latency in ms (from
/// `Simulator::new` to outcome), keyed by its seed's index. The first run
/// of a seed fills `seen`; every later run of it must reproduce that
/// digest.
fn measure<G: GraphView + ?Sized>(
    g: &G,
    run_seeds: &[u64],
    min_runs: usize,
    seconds: f64,
    tr: &Tracer,
    seen: &mut [Option<Seen>],
    gate: &mut Gate,
) -> Samples {
    let start = now_ns();
    let mut latencies = Vec::new();
    let mut i = 0;
    while i < min_runs || !past(start, seconds) {
        let k = i % run_seeds.len();
        let seed = run_seeds[k];
        let t0 = now_ns();
        let outcome = if tr.enabled() {
            let op = tr.open();
            let outcome = run_traced(g, seed, tr, op.id);
            tr.close(op, "fb.run", 0, seed, 0);
            outcome
        } else {
            run_plain(g, seed)
        };
        latencies.push((k as u64, ms(t0, now_ns())));
        let mis = outcome.mis();
        let digest = RunDigest::of(outcome.rounds(), outcome.terminated(), &mis);
        match &seen[k] {
            None => seen[k] = Some(Seen { digest, mis }),
            Some(first) => gate.check(first.digest == digest, || {
                format!("seed {seed}: run differs from the first run of the seed")
            }),
        }
        i += 1;
    }
    latencies
}

fn measure_fixture(
    fx: &Fixture,
    run_seeds: &[u64],
    min_runs: usize,
    seconds: f64,
    tr: &Tracer,
    seen: &mut [Option<Seen>],
    gate: &mut Gate,
) -> Samples {
    match &fx.disk {
        Some(g) => measure(g, run_seeds, min_runs, seconds, tr, seen, gate),
        None => measure(&fx.csr, run_seeds, min_runs, seconds, tr, seen, gate),
    }
}

/// Per-layer metrics of the stepper spans recorded so far: `new` and
/// `step` medians, and the exact active and tail-round shares.
pub fn stepper_layers(tr: &Tracer, n: usize, report: &mut Report) {
    let spans = tr.spans();
    let steps: Vec<_> = spans.iter().filter(|s| s.name == "beeping.step").collect();
    let pick = |keep: &dyn Fn(u64) -> bool| -> Vec<f64> {
        steps.iter().filter(|s| keep(s.work)).map(|s| s.ms()).collect()
    };
    let n = n as u64;
    let dense = pick(&|active| active * 10 >= n);
    let tail = pick(&|active| active * 100 < n);
    note("beeping.step dense (>=10% active)", &dense);
    note("beeping.step tail (<1% active)", &tail);
    report.set("beeping.new_ms", median(&tr.durations_ms("beeping.new")));
    report.set("beeping.step_ms_dense", median(&dense));
    report.set("beeping.step_ms_tail", median(&tail));
    let active: u64 = steps.iter().map(|s| s.work).sum();
    report.set(
        "beeping.active_share",
        active as f64 / (n as f64 * steps.len() as f64),
    );
    report.set(
        "beeping.tail_round_share",
        tail.len() as f64 / steps.len() as f64,
    );
}

/// Round 0 on `Graph::empty(n)`: the per-node floor of a round, with no
/// propagation work at all. Median of five runs.
pub fn edgeless_step_ms(n: usize, workload_seed: u64, tr: &Tracer, report: &mut Report) {
    let empty = Graph::empty(n);
    for rep in 0..5 {
        let seed = trial_seed(seeds::runs(workload_seed), rep);
        let mut stepper =
            Simulator::new(&empty, &FeedbackFactory::new(), seed, SimConfig::default())
                .into_stepper();
        tr.time("beeping.step.edgeless", 0, seed, || stepper.step());
    }
    report.set(
        "beeping.step_ms_edgeless",
        median(&tr.durations_ms("beeping.step.edgeless")),
    );
}

pub fn run(spec: &Spec, ctx: &Ctx, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let n = 1usize << spec.log2_n;
    let run_master = seeds::runs(ctx.seed);
    let run_seeds: Vec<u64> = (0..spec.seeds as u64)
        .map(|i| trial_seed(run_master, i))
        .collect();

    let mut setup_s = Vec::new();
    let mut fixture = None;
    for _ in 0..SETUPS {
        drop(fixture.take());
        let t0 = now_ns();
        fixture = Some(setup(spec, ctx, run_seeds[0], tr));
        setup_s.push(ms(t0, now_ns()) / 1e3);
    }
    let mut fx = fixture.expect("set up at least once");

    let off = Tracer::off();
    let mut seen: Vec<Option<Seen>> = run_seeds.iter().map(|_| None).collect();
    let pass = run_seeds.len();
    let start = now_ns();
    let untraced_s = if ctx.traced { 0.0 } else { ctx.seconds };
    let mut untraced =
        measure_fixture(&fx, &run_seeds, pass, untraced_s, &off, &mut seen, &mut report.gate);
    let peak_rss = peak_rss_mb();

    let mut traced = Vec::new();
    if ctx.traced {
        // A fresh cache, so the block hit share counts exactly one pass
        // over the seed list from cold.
        if let Some(d) = &spec.disk {
            fx.disk = Some(open_disk(d));
        }
        traced = measure_fixture(&fx, &run_seeds, pass, 0.0, tr, &mut seen, &mut report.gate);
        // Exact counts come from this one pass alone.
        stepper_layers(tr, n, &mut report);
        if let Some(disk) = &fx.disk {
            let stats = disk.cache_stats();
            report.set(
                "graph.disk_hit_share",
                stats.hits as f64 / (stats.hits + stats.misses) as f64,
            );
            report.set(
                "graph.disk_resident_mb",
                disk.resident_bytes_estimate() as f64 / f64::from(1 << 20),
            );
        }
        // Untraced and traced passes alternate, so a drift in the host's
        // speed reaches both sides of `trace.overhead` alike.
        while !past(start, ctx.seconds) {
            let gate = &mut report.gate;
            untraced.extend(measure_fixture(&fx, &run_seeds, pass, 0.0, &off, &mut seen, gate));
            traced.extend(measure_fixture(&fx, &run_seeds, pass, 0.0, tr, &mut seen, gate));
        }
        note_samples("run latency (traced)", &traced);
        edgeless_step_ms(n, ctx.seed, tr, &mut report);
    }
    note_samples("run latency (untraced)", &untraced);

    // The checks, kept out of every timing above.
    let mut rows = Vec::new();
    for (seed, first) in run_seeds.iter().zip(&seen) {
        let first = first.as_ref().expect("every seed ran");
        let ok = tr.time("core.verify", 0, *seed, || check_mis(&fx.csr, &first.mis).is_ok());
        gate_run(&mut report.gate, *seed, first.digest.terminated && ok);
        if fx.disk.is_some() {
            let out = run_plain(&fx.csr, *seed);
            let csr = RunDigest::of(out.rounds(), out.terminated(), &out.mis());
            report.gate.check(csr == first.digest, || {
                format!("seed {seed}: DiskGraph outcome differs from the CSR outcome")
            });
        }
        rows.push((seed.to_string(), first.digest.rounds, first.digest.mis_size));
    }
    check_committed(ctx, &rows, &mut report.gate);
    if let Some(disk) = fx.disk.take() {
        drop(disk);
        let _ = std::fs::remove_dir_all(shard_dir());
    }

    let rounds: Vec<f64> = rows.iter().map(|r| f64::from(r.1)).collect();
    report.set("setup_s", median(&setup_s));
    report.set("latency_ms", best_median(&untraced));
    report.set("rounds_mean", mean(&rounds));
    report.set("peak_rss_mb", peak_rss);
    if ctx.traced {
        report.set("graph.build_s", median(&tr.durations_ms("graph.build")) / 1e3);
        report.set("graph.shard_write_s", median(&tr.durations_ms("graph.shard_write")) / 1e3);
        report.set("graph.disk_open_ms", median(&tr.durations_ms("graph.disk_open")));
        report.set("core.verify_ms", median(&tr.durations_ms("core.verify")));
        report.set(
            "trace.overhead",
            best_median(&traced) / best_median(&untraced) - 1.0,
        );
    }
    report
}

fn gate_run(gate: &mut Gate, seed: u64, ok: bool) {
    gate.check(ok, || format!("seed {seed}: run did not terminate in a valid MIS"));
}
