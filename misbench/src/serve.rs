//! `serve-mix`: a `mis-serve` daemon (in-process `Server::spawn`, default
//! config: 2 workers, in-memory store) driven by `nproc` `ServeClient`
//! connections in a closed loop. One operation is one cycle on one
//! connection: a repeat request from the hit set prefilled at set-up,
//! then a fresh request, each `submit` → `status` polls → `fetch_line`.
//! Fresh requests spread over run counts and two families on the same
//! `gnp` graph, so their latencies do not all sit on one poll quantum.

use std::sync::atomic::{AtomicU64, AtomicUsize};

use mis_baselines::{LubyPriorityFactory, MessageEngine};
use mis_beeping::json::Json;
use mis_beeping::rng::trial_seed;
use mis_beeping::BatchPlan;
use mis_core::engine::{AlgorithmEngine, Engine, RunView};
use mis_core::verify::check_mis;
use mis_core::{auto_jobs, Algorithm};
use mis_graph::Graph;
use mis_serve::jobs::execute_request;
use mis_serve::{cache_key, ResultStore, RunRequest, ServeClient, ServeConfig, Server};

use crate::clock::{ms, now_ns, past};
use crate::digest::check_committed;
use crate::report::{best_median, mean, median, note, note_samples, peak_rss_mb, Gate, Report, Samples};
use crate::trace::Tracer;
use crate::{seeds, Ctx, SETUPS};

const NODES: usize = 20_000;
const DEGREE: f64 = 8.0;
const FAMILIES: [&str; 2] = ["feedback", "luby_priority"];
/// Run counts the fresh requests cycle through.
const RUNS: [usize; 4] = [1, 2, 4, 16];
/// Cycles after which a connection has sent every (family, runs) pair.
const PERIOD: usize = FAMILIES.len() * RUNS.len();
/// Run counts of the hit set, whose families alternate like the fresh
/// requests'.
const HIT_RUNS: [usize; 4] = [8, 8, 16, 16];
const HIT_SET: usize = HIT_RUNS.len();
/// Sleep between `status` polls, as in `ServeClient::wait`.
const POLL_SLEEP_MS: u64 = 5;

fn request(graph_seed: u64, family: &str, seed: u64, runs: usize) -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    Json::Obj(vec![
        (
            "graph".to_owned(),
            Json::Obj(vec![
                ("generator".to_owned(), s("gnp")),
                ("n".to_owned(), Json::Num(NODES as f64)),
                ("p".to_owned(), Json::Num(DEGREE / (NODES - 1) as f64)),
                ("graph_seed".to_owned(), Json::u64_str(graph_seed)),
            ]),
        ),
        (
            "algorithm".to_owned(),
            Json::Obj(vec![("family".to_owned(), s(family))]),
        ),
        ("seed".to_owned(), Json::u64_str(seed)),
        ("runs".to_owned(), Json::Num(runs as f64)),
    ])
}

/// The `result` payload spliced into a `fetch` reply line.
fn payload(line: &str) -> &str {
    line.find("\"result\":")
        .and_then(|i| line.get(i + 9..line.len() - 1))
        .unwrap_or("")
}

/// One request's round trip.
struct Trip {
    ms: f64,
    polls: u32,
    cached: bool,
    line: String,
}

fn io_err(what: String) -> std::io::Error {
    std::io::Error::other(what)
}

/// `submit` → `status` polls → `fetch_line`, timed from submit to the
/// fetched payload, with a span around each call.
fn round_trip(
    client: &mut ServeClient,
    req: &Json,
    tr: &Tracer,
    kind: &'static str,
    id: u64,
) -> std::io::Result<Trip> {
    let t0 = now_ns();
    let open = tr.open();
    let ack = tr.time("serve.submit", open.id, id, || client.submit(req))?;
    if ack.get("ok") != Some(&Json::Bool(true)) {
        return Err(io_err(format!("submit refused: {}", ack.render())));
    }
    let job = ack
        .get("job")
        .and_then(Json::as_str)
        .ok_or_else(|| io_err("ack without a job id".to_owned()))?
        .to_owned();
    let mut polls = 0;
    loop {
        polls += 1;
        let status = tr.time("serve.status", open.id, id, || client.status(&job))?;
        match status.get("state").and_then(Json::as_str) {
            Some("done") => break,
            Some("queued" | "running") => {
                std::thread::sleep(std::time::Duration::from_millis(POLL_SLEEP_MS));
            }
            _ => return Err(io_err(format!("job failed: {}", status.render()))),
        }
    }
    let line = tr.time("serve.fetch", open.id, id, || client.fetch_line(&job))?;
    tr.close(open, kind, 0, id, line.len() as u64);
    Ok(Trip {
        ms: ms(t0, now_ns()),
        polls,
        cached: ack.get("cached") == Some(&Json::Bool(true)),
        line,
    })
}

/// The daemon, its connections, and the prefilled hit set.
struct Daemon {
    handle: mis_serve::ServerHandle,
    clients: Vec<ServeClient>,
    hit_reqs: Vec<Json>,
    hit_payloads: Vec<String>,
    graph_seed: u64,
    miss_master: u64,
}

impl Daemon {
    fn start(ctx: &Ctx) -> Self {
        let off = Tracer::off();
        let handle = Server::spawn(ServeConfig::default().with_addr("127.0.0.1:0"))
            .expect("start mis-serve");
        let mut clients: Vec<ServeClient> = (0..auto_jobs())
            .map(|_| ServeClient::connect(handle.addr()).expect("connect to mis-serve"))
            .collect();
        let graph_seed = seeds::graph(ctx.seed);
        let hit_master = seeds::hits(ctx.seed);
        let hit_reqs: Vec<Json> = (0..HIT_SET)
            .map(|h| {
                let family = FAMILIES[h % FAMILIES.len()];
                request(graph_seed, family, trial_seed(hit_master, h as u64), HIT_RUNS[h])
            })
            .collect();
        // Prefill: the connections fill the hit set between them.
        let lines: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    let (hit_reqs, n, off) = (&hit_reqs, auto_jobs(), &off);
                    s.spawn(move || {
                        (c..HIT_SET)
                            .step_by(n)
                            .map(|h| {
                                let trip = round_trip(client, &hit_reqs[h], off, "serve.prefill", h as u64)
                                    .expect("prefill request");
                                (h, trip.line)
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("prefill thread")).collect()
        });
        let mut hit_payloads = vec![String::new(); HIT_SET];
        for (h, line) in lines.into_iter().flatten() {
            hit_payloads[h] = payload(&line).to_owned();
        }
        // Warm-up: one repeat request per connection.
        for (c, client) in clients.iter_mut().enumerate() {
            round_trip(client, &hit_reqs[c % HIT_SET], &off, "serve.hit", 0)
                .expect("warm-up request");
        }
        Self {
            handle,
            clients,
            hit_reqs,
            hit_payloads,
            graph_seed,
            miss_master: seeds::misses(ctx.seed),
        }
    }

    fn stop(mut self) {
        self.clients.clear(); // connection threads end at EOF
        self.handle.stop();
    }

    /// `(hits, misses, engine_runs)` from the `cache_stats` command.
    fn cache_stats(&mut self) -> (u64, u64, u64) {
        let stats = self.clients[0].cache_stats().expect("cache_stats");
        let field = |k: &str| stats.get("stats").and_then(|s| s.get(k)).and_then(Json::as_f64);
        (
            field("hits").unwrap_or(0.0) as u64,
            field("misses").unwrap_or(0.0) as u64,
            stats.get("engine_runs").and_then(Json::as_u64_str).unwrap_or(0),
        )
    }
}

/// What one connection did in a measurement loop.
#[derive(Default)]
struct Log {
    /// Keyed by connection and position in the designed mix.
    cycle_ms: Samples,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    polls_per_miss: Vec<f64>,
    fetched_bytes: Vec<f64>,
    /// Fresh requests sent and the payloads they returned.
    misses: Vec<(Json, String)>,
    miss_runs: u64,
    hits_ok: Vec<bool>,
    broken: Option<String>,
    /// How far `cache_stats` moved: hits, misses, engine runs.
    moved: (u64, u64, u64),
}

impl Log {
    /// Appends `other`'s samples and requests. `broken` and `moved`
    /// belong to one measurement and are left as they are.
    fn absorb(&mut self, other: Self) {
        self.cycle_ms.extend(other.cycle_ms);
        self.hit_ms.extend(other.hit_ms);
        self.miss_ms.extend(other.miss_ms);
        self.polls_per_miss.extend(other.polls_per_miss);
        self.fetched_bytes.extend(other.fetched_bytes);
        self.misses.extend(other.misses);
        self.miss_runs += other.miss_runs;
        self.hits_ok.extend(other.hits_ok);
    }
}

/// One connection's closed loop, from its cycle counter `next`, until
/// `seconds` have passed (and, with `whole_periods`, the connection has
/// sent every fresh-request pair equally often).
fn client_loop(
    d: &Daemon,
    client: &mut ServeClient,
    (c, clients): (usize, usize),
    next: &mut usize,
    seconds: f64,
    whole_periods: bool,
    tr: &Tracer,
) -> Log {
    let mut log = Log::default();
    let start = now_ns();
    let mut done = 0;
    while !past(start, seconds) || (whole_periods && done % PERIOD != 0) || done == 0 {
        let j = *next;
        let id = (j * clients + c) as u64;
        let t0 = now_ns();
        let h = (j + c) % HIT_SET;
        let hit = match round_trip(client, &d.hit_reqs[h], tr, "serve.hit", id) {
            Ok(t) => t,
            Err(e) => {
                log.broken = Some(e.to_string());
                break;
            }
        };
        log.hits_ok
            .push(hit.cached && payload(&hit.line) == d.hit_payloads[h]);
        let runs = RUNS[(j / FAMILIES.len()) % RUNS.len()];
        let fresh = request(
            d.graph_seed,
            FAMILIES[j % FAMILIES.len()],
            trial_seed(d.miss_master, id),
            runs,
        );
        let miss = match round_trip(client, &fresh, tr, "serve.miss", id) {
            Ok(t) => t,
            Err(e) => {
                log.broken = Some(e.to_string());
                break;
            }
        };
        log.cycle_ms.push(((c * PERIOD + j % PERIOD) as u64, ms(t0, now_ns())));
        log.hit_ms.push(hit.ms);
        log.miss_ms.push(miss.ms);
        log.polls_per_miss.push(f64::from(miss.polls));
        log.fetched_bytes
            .extend([hit.line.len() as f64, miss.line.len() as f64]);
        log.miss_runs += runs as u64;
        let ok_miss = if miss.cached { String::new() } else { payload(&miss.line).to_owned() };
        log.misses.push((fresh, ok_miss));
        *next += 1;
        done += 1;
    }
    log
}

/// Runs every connection's loop at once and merges their logs; checks
/// that `cache_stats` moved by exactly the designed mix.
fn measure(
    d: &mut Daemon,
    next: &mut [usize],
    seconds: f64,
    whole_periods: bool,
    tr: &Tracer,
    gate: &mut Gate,
) -> Log {
    let before = d.cache_stats();
    let mut clients = std::mem::take(&mut d.clients);
    let count = clients.len();
    let logs: Vec<Log> = {
        let d = &*d;
        std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .zip(next.iter_mut())
                .enumerate()
                .map(|(c, (client, next))| {
                    s.spawn(move || client_loop(d, client, (c, count), next, seconds, whole_periods, tr))
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("client thread")).collect()
        })
    };
    d.clients = clients;
    let after = d.cache_stats();
    let mut all = Log::default();
    for log in logs {
        if let Some(e) = &log.broken {
            gate.check(false, || format!("connection failed: {e}"));
        }
        all.absorb(log);
    }
    for ok in &all.hits_ok {
        gate.check(*ok, || "a hit is not byte-identical to the miss that filled it".to_owned());
    }
    all.moved = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    let designed = (all.hits_ok.len() as u64, all.misses.len() as u64, all.miss_runs);
    gate.check(all.moved == designed, || {
        format!("cache_stats moved by {:?}, the mix was {designed:?}", all.moved)
    });
    all
}

/// Every fresh payload must equal `execute_request` run here on the same
/// request, and report every run terminated.
fn verify_misses(misses: &[(Json, String)], graph: &Graph, tr: &Tracer, gate: &mut Gate) {
    for (i, (req, got)) in misses.iter().enumerate() {
        let parsed = RunRequest::parse(req).expect("the benchmark's own request parses");
        let (progress, runs) = (AtomicUsize::new(0), AtomicU64::new(0));
        let want = tr.time("serve.execute", 0, i as u64, || {
            execute_request(&parsed, graph, 1, &progress, &runs)
        });
        let unterminated = Json::parse(got)
            .ok()
            .and_then(|p| p.get("summary").and_then(|s| s.get("unterminated")).and_then(Json::as_f64));
        gate.check(*got == want && unterminated == Some(0.0), || {
            format!("fresh request {i}: payload differs from a local execution")
        });
    }
}

/// Re-runs every run of the hit set alone: each must terminate in a valid
/// MIS with the payload's rounds and MIS size. Returns digest rows.
fn verify_hit_set(d: &Daemon, graph: &Graph, tr: &Tracer, gate: &mut Gate) -> Vec<(String, u32, usize)> {
    let mut rows = Vec::new();
    let feedback = AlgorithmEngine::new(Algorithm::feedback());
    let luby = MessageEngine::new(LubyPriorityFactory::new());
    for (h, (req, body)) in d.hit_reqs.iter().zip(&d.hit_payloads).enumerate() {
        let parsed = RunRequest::parse(req).expect("the benchmark's own request parses");
        // The per-run seed derivation `RunPlan` uses.
        let plan = BatchPlan::new(parsed.seed, parsed.runs);
        let records = Json::parse(body)
            .ok()
            .and_then(|p| p.get("records").and_then(Json::as_arr).map(<[Json]>::to_vec))
            .unwrap_or_default();
        gate.check(records.len() == parsed.runs, || format!("hit set {h}: wrong record count"));
        for (i, rec) in records.iter().enumerate() {
            let seed = plan.run_seed(i);
            let (rounds, mis, terminated) = if parsed.algorithm.is_message() {
                let o = luby.run(graph, seed);
                (o.rounds(), RunView::mis(&o), o.terminated())
            } else {
                let o = feedback.run(graph, seed);
                (o.rounds(), o.mis(), o.terminated())
            };
            let valid = tr.time("core.verify", 0, seed, || check_mis(graph, &mis).is_ok());
            let field = |k: &str| rec.get(k).and_then(Json::as_f64);
            gate.check(
                terminated
                    && valid
                    && field("rounds") == Some(f64::from(rounds))
                    && field("mis_size") == Some(mis.len() as f64)
                    && rec.get("seed").and_then(Json::as_u64_str) == Some(seed),
                || format!("hit set {h} run {i}: served record is not this run's MIS"),
            );
            rows.push((format!("h{h}:{seed}"), rounds, mis.len()));
        }
    }
    rows
}

/// Library calls of the serve layer on the hit set, outside the daemon.
fn layer_probes(d: &mut Daemon, graph: &Graph, tr: &Tracer, report: &mut Report) {
    for i in 0..20 {
        tr.time("serve.call", 0, i, || d.clients[0].ping()).expect("ping");
    }
    let store = ResultStore::in_memory();
    for rep in 0..5u64 {
        for (h, req) in d.hit_reqs.iter().enumerate() {
            let parsed = tr.time("serve.parse", 0, rep, || RunRequest::parse(req)).expect("parse");
            if rep < 3 && h == 0 {
                drop(tr.time("serve.build", 0, rep, || parsed.graph.build()).expect("build"));
            }
            let key = tr.time("serve.key", 0, rep, || cache_key(&parsed, graph));
            if rep == 0 {
                drop(store.insert(&key, d.hit_payloads[h].clone()));
            }
            let found = tr.time("serve.lookup", 0, rep, || store.lookup(&key));
            report.gate.check(found.is_some(), || format!("hit set {h}: store lookup missed"));
        }
    }
    for (span, metric) in [
        ("serve.call", "serve.call_ms"),
        ("serve.parse", "serve.parse_ms"),
        ("serve.build", "serve.build_ms"),
        ("serve.key", "serve.key_ms"),
        ("serve.lookup", "serve.lookup_ms"),
        ("serve.fetch", "serve.fetch_ms"),
    ] {
        report.set(metric, median(&tr.durations_ms(span)));
    }
    report.set("graph.build_s", median(&tr.durations_ms("serve.build")) / 1e3);
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Report {
    let mut report = Report::default();
    let off = Tracer::off();

    let mut setup_s = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let t0 = now_ns();
        daemon = Some(Daemon::start(ctx));
        setup_s.push(ms(t0, now_ns()) / 1e3);
    }
    let mut d = daemon.expect("set up at least once");
    let graph = crate::gnp(NODES, DEGREE, d.graph_seed);

    let mut next = vec![0usize; d.clients.len()];
    // The daemon keeps every job's graph, so its RSS grows with the
    // requests served. Peak RSS is read after a fixed amount of work, one
    // period of the mix per connection, so a faster daemon does not read
    // as a bigger one.
    let start = now_ns();
    let mut untraced = measure(&mut d, &mut next, 0.0, true, &off, &mut report.gate);
    let peak_rss = peak_rss_mb();
    let left = ctx.untraced_seconds() - ms(start, now_ns()) / 1e3;
    untraced.absorb(measure(&mut d, &mut next, left, false, &off, &mut report.gate));
    note_samples("cycle latency (untraced)", &untraced.cycle_ms);
    note("hit latency (untraced)", &untraced.hit_ms);
    note("miss latency (untraced)", &untraced.miss_ms);

    let mut misses = untraced.misses;
    if ctx.traced {
        let traced = measure(&mut d, &mut next, ctx.seconds / 2.0, true, tr, &mut report.gate);
        note_samples("cycle latency (traced)", &traced.cycle_ms);
        report.set("serve.hit_ms", median(&traced.hit_ms));
        report.set("serve.miss_ms", median(&traced.miss_ms));
        report.set("serve.polls_per_miss", mean(&traced.polls_per_miss));
        report.set("serve.payload_kb", mean(&traced.fetched_bytes) / 1024.0);
        let (hits, fresh, runs) = traced.moved;
        report.set("serve.hit_share", hits as f64 / (hits + fresh) as f64);
        report.set("serve.engine_runs", runs as f64 / fresh as f64);
        report.set(
            "trace.overhead",
            best_median(&traced.cycle_ms) / best_median(&untraced.cycle_ms) - 1.0,
        );
        misses.extend(traced.misses);
        layer_probes(&mut d, &graph, tr, &mut report);
    }

    verify_misses(&misses, &graph, tr, &mut report.gate);
    let rows = verify_hit_set(&d, &graph, tr, &mut report.gate);
    check_committed(ctx, &rows, &mut report.gate);
    d.stop();
    if ctx.traced {
        report.set("serve.execute_ms", median(&tr.durations_ms("serve.execute")));
        report.set("core.verify_ms", median(&tr.durations_ms("core.verify")));
    }

    let rounds: Vec<f64> = rows.iter().map(|r| f64::from(r.1)).collect();
    report.set("setup_s", median(&setup_s));
    report.set("latency_ms", best_median(&untraced.cycle_ms));
    report.set("rounds_mean", mean(&rounds));
    report.set("peak_rss_mb", peak_rss);
    report
}
