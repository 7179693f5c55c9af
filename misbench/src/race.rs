//! `race-dense`: feedback, sweep (the Afek et al. comparator),
//! Luby-priority and Métivier race on one cache-resident dense
//! `G(4096, d≈64)`, each family over the same seed list through
//! `RunPlan` at `jobs = nproc`. One operation is one race: the four
//! families' batches back to back.

use mis_baselines::{LubyPriorityFactory, MessageEngine, MetivierFactory};
use mis_core::engine::{AlgorithmEngine, Engine, EngineRecord, RunView};
use mis_core::verify::check_mis;
use mis_core::{auto_jobs, Algorithm, RunPlan};
use mis_graph::Graph;

use crate::clock::{ms, now_ns, past};
use crate::digest::{check_committed, RunDigest};
use crate::report::{best_median, mean, median, note, note_samples, peak_rss_mb, Gate, Report, Samples};
use crate::trace::Tracer;
use crate::{fb, seeds, Ctx, SETUPS};

const NODES: usize = 4096;
const DEGREE: f64 = 64.0;
/// Seeds per family per race.
const SEEDS: usize = 16;

/// `(seed, rounds, MIS size, terminated)` of one run in a batch.
type Rec = (u64, u32, usize, bool);

struct Engines {
    feedback: AlgorithmEngine,
    sweep: AlgorithmEngine,
    luby: MessageEngine<LubyPriorityFactory>,
    metivier: MessageEngine<MetivierFactory>,
}

const FAMILIES: [&str; 4] = ["feedback", "sweep", "luby_priority", "metivier"];

/// An engine that records a span around each `Engine::run` and
/// `Engine::record` of the engine it wraps. With tracing off it only
/// forwards.
struct Traced<'a, E> {
    inner: &'a E,
    tr: &'a Tracer,
    span: &'static str,
    parent: u32,
}

impl<E: Engine<Graph>> Engine<Graph> for Traced<'_, E> {
    type Outcome = E::Outcome;
    type Record = E::Record;

    fn run(&self, graph: &Graph, seed: u64) -> E::Outcome {
        let open = self.tr.open();
        let outcome = self.inner.run(graph, seed);
        self.tr.close(open, self.span, self.parent, seed, 0);
        outcome
    }

    fn record(&self, graph: &Graph, seed: u64, outcome: &E::Outcome) -> E::Record {
        let open = self.tr.open();
        let record = self.inner.record(graph, seed, outcome);
        self.tr.close(open, "core.record", self.parent, seed, 0);
        record
    }
}

/// One family's batch: `RunPlan::execute` at `jobs = nproc`.
fn batch<E: Engine<Graph>>(
    engine: &E,
    span: &'static str,
    g: &Graph,
    master: u64,
    tr: &Tracer,
    parent: u32,
) -> Vec<Rec> {
    let open = tr.open();
    let traced = Traced {
        inner: engine,
        tr,
        span,
        parent: open.id,
    };
    let report = RunPlan::for_engine(traced, SEEDS)
        .with_master_seed(master)
        .with_jobs(auto_jobs())
        .execute(g);
    tr.close(open, "core.plan", parent, master, SEEDS as u64);
    report
        .records()
        .iter()
        .map(|r| (r.seed(), r.rounds(), r.mis_size(), r.terminated()))
        .collect()
}

fn race(e: &Engines, g: &Graph, master: u64, tr: &Tracer) -> Vec<Vec<Rec>> {
    let open = tr.open();
    let out = vec![
        batch(&e.feedback, "beeping.run.feedback", g, master, tr, open.id),
        batch(&e.sweep, "beeping.run.sweep", g, master, tr, open.id),
        batch(&e.luby, "baselines.run.luby_priority", g, master, tr, open.id),
        batch(&e.metivier, "baselines.run.metivier", g, master, tr, open.id),
    ];
    tr.close(open, "race", 0, master, 0);
    out
}

/// Re-runs every seed of a batch alone through `Engine::run`: the run
/// must terminate in a valid MIS and match the batch record.
fn verify<E: Engine<Graph>>(engine: &E, g: &Graph, recs: &[Rec], tr: &Tracer, gate: &mut Gate) {
    for &(seed, rounds, size, terminated) in recs {
        let outcome = engine.run(g, seed);
        let mis = outcome.mis();
        let valid = tr.time("core.verify", 0, seed, || check_mis(g, &mis).is_ok());
        gate.check(
            valid
                && terminated
                && outcome.terminated()
                && outcome.rounds() == rounds
                && mis.len() == size,
            || format!("seed {seed}: run is not a valid MIS or differs from its batch record"),
        );
    }
}

/// Runs races until `seconds` have passed (at least one). Returns race
/// latencies in ms, all of one work item; every race must reproduce
/// `first`, which the first race fills.
fn measure(
    e: &Engines,
    g: &Graph,
    master: u64,
    seconds: f64,
    tr: &Tracer,
    first: &mut Option<Vec<Vec<Rec>>>,
    gate: &mut Gate,
) -> Samples {
    let start = now_ns();
    let mut latencies = Vec::new();
    while latencies.is_empty() || !past(start, seconds) {
        let t0 = now_ns();
        let out = race(e, g, master, tr);
        latencies.push((0, ms(t0, now_ns())));
        match first {
            None => *first = Some(out),
            Some(f) => gate.check(*f == out, || "a race differs from the first race".to_owned()),
        }
    }
    latencies
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let master = seeds::runs(ctx.seed);
    let engines = Engines {
        feedback: AlgorithmEngine::new(Algorithm::feedback()),
        sweep: AlgorithmEngine::new(Algorithm::sweep()),
        luby: MessageEngine::new(LubyPriorityFactory::new()),
        metivier: MessageEngine::new(MetivierFactory::new()),
    };
    let off = Tracer::off();

    let mut setup_s = Vec::new();
    let mut graph = None;
    for _ in 0..SETUPS {
        drop(graph.take());
        let t0 = now_ns();
        let graph_seed = seeds::graph(ctx.seed);
        let g = tr.time("graph.build", 0, graph_seed, || crate::gnp(NODES, DEGREE, graph_seed));
        drop(race(&engines, &g, master, &off)); // warm-up
        graph = Some(g);
        setup_s.push(ms(t0, now_ns()) / 1e3);
    }
    let g = graph.expect("set up at least once");

    let mut first = None;
    let untraced_s = if ctx.traced { 0.0 } else { ctx.seconds };
    let start = now_ns();
    let mut untraced = measure(&engines, &g, master, untraced_s, &off, &mut first, &mut report.gate);
    let peak_rss = peak_rss_mb();

    if ctx.traced {
        // Untraced and traced races alternate, so a drift in the host's
        // speed reaches both sides of `trace.overhead` alike.
        let mut traced = Vec::new();
        while traced.is_empty() || !past(start, ctx.seconds) {
            let gate = &mut report.gate;
            traced.extend(measure(&engines, &g, master, 0.0, tr, &mut first, gate));
            untraced.extend(measure(&engines, &g, master, 0.0, &off, &mut first, gate));
        }
        note_samples("race latency (traced)", &traced);
        for (family, metric) in FAMILIES.iter().zip([
            "beeping.run_ms.feedback",
            "beeping.run_ms.sweep",
            "baselines.run_ms.luby_priority",
            "baselines.run_ms.metivier",
        ]) {
            let span = metric.replace("run_ms", "run");
            let runs = tr.durations_ms(&span);
            note(&format!("Engine::run {family}"), &runs);
            report.set(metric, median(&runs));
        }
        report.set("core.record_ms", median(&tr.durations_ms("core.record")));
        report.set("core.plan_overhead_ms", median(&tr.self_ms("core.plan")));
        report.set(
            "trace.overhead",
            best_median(&traced) / best_median(&untraced) - 1.0,
        );
        // The feedback seeds once more through the stepper, for the
        // per-round split of the dense regime.
        for &(seed, rounds, size, _) in &first.as_ref().expect("raced at least once")[0] {
            let outcome = fb::run_traced(&g, seed, tr, 0);
            let digest = RunDigest::of(outcome.rounds(), outcome.terminated(), &outcome.mis());
            report.gate.check(digest.rounds == rounds && digest.mis_size == size, || {
                format!("seed {seed}: stepped run differs from its batch record")
            });
        }
        fb::stepper_layers(tr, NODES, &mut report);
        fb::edgeless_step_ms(NODES, ctx.seed, tr, &mut report);
    }
    note_samples("race latency (untraced)", &untraced);

    let first = first.expect("raced at least once");
    verify(&engines.feedback, &g, &first[0], tr, &mut report.gate);
    verify(&engines.sweep, &g, &first[1], tr, &mut report.gate);
    verify(&engines.luby, &g, &first[2], tr, &mut report.gate);
    verify(&engines.metivier, &g, &first[3], tr, &mut report.gate);
    let mut rows = Vec::new();
    for (family, recs) in FAMILIES.iter().zip(&first) {
        for &(seed, rounds, size, _) in recs {
            rows.push((format!("{family}:{seed}"), rounds, size));
        }
    }
    check_committed(ctx, &rows, &mut report.gate);

    let rounds: Vec<f64> = rows.iter().map(|r| f64::from(r.1)).collect();
    report.set("setup_s", median(&setup_s));
    report.set("latency_ms", best_median(&untraced));
    report.set("rounds_mean", mean(&rounds));
    report.set("peak_rss_mb", peak_rss);
    if ctx.traced {
        report.set("graph.build_s", median(&tr.durations_ms("graph.build")) / 1e3);
        report.set("core.verify_ms", median(&tr.durations_ms("core.verify")));
    }
    report
}
