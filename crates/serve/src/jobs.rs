//! The job table, FIFO queue, and the request→engine translation that
//! workers execute.
//!
//! A submitted request becomes a [`Job`](JobSnapshot) with a monotonically
//! increasing id. A queued job holds its validated request and the graph
//! built at submission until a worker [claims](JobTable::claim) it: the
//! claim moves both into the worker's [`ClaimedJob`], and they are freed
//! when the worker finishes. A job answered from the cache at submission is
//! born done and never holds either. A claimed or born-done job is only its
//! key, state and counters, which is all `status`, `watch` and `fetch`
//! read; the table keeps that row for the daemon's lifetime.
//!
//! Worker threads pop ids off a FIFO queue, re-check the
//! store (so concurrent identical submissions run the engine once at
//! most in the common case), and execute the request through the same
//! unified [`Engine`] path every CLI batch uses: the request's
//! [`Family`](mis_baselines::Family) builds its engine from the request's
//! `SimConfig` ([`dispatch`](mis_baselines::Family::dispatch)), and
//! [`RunPlan::execute_observed`] runs the seed range over the
//! work-stealing runner, on the backend the request named. Payload bytes
//! are therefore identical to a solo run of the same (graph, config, seed
//! range) — which the protocol test suite asserts record by record.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use mis_baselines::FamilyOp;
use mis_beeping::json::Json;
use mis_core::engine::{Engine, EngineRecord};
use mis_core::{BatchReport, RunPlan};
use mis_graph::backend::{run_with_backend, BackendOp};
use mis_graph::{Graph, GraphView};

use crate::request::RunRequest;

/// Lifecycle of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Payload available in the store.
    Done,
    /// Execution failed; the message explains why.
    Error(String),
}

impl JobState {
    /// Wire name of the state.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Error(_) => "error",
        }
    }
}

struct Job {
    key: String,
    /// The request and its graph while the job is queued; `claim` takes
    /// them.
    work: Option<(RunRequest, Arc<Graph>)>,
    state: JobState,
    cached: bool,
    total_runs: usize,
    progress: Arc<AtomicUsize>,
    created_unix_ms: u64,
}

/// Point-in-time copy of a job's observable fields, handed to the status
/// and fetch handlers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Content-address of the result.
    pub key: String,
    /// Current state.
    pub state: JobState,
    /// Whether the result came from the cache rather than an engine run.
    pub cached: bool,
    /// Runs completed so far.
    pub progress: usize,
    /// Runs requested.
    pub total: usize,
    /// Submission wall-clock timestamp (operator telemetry only — never
    /// part of payloads or cache keys).
    pub created_unix_ms: u64,
}

/// Everything a worker needs to execute one claimed job. It is the only
/// owner of the job's request and graph, which are freed when it is
/// dropped.
pub struct ClaimedJob {
    /// Job id.
    pub id: u64,
    /// Content-address to publish the payload under.
    pub key: String,
    /// The validated request.
    pub request: RunRequest,
    /// The graph built at submission time.
    pub graph: Arc<Graph>,
    /// Shared per-run progress counter.
    pub progress: Arc<AtomicUsize>,
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
}

/// Thread-safe job registry plus FIFO work queue.
pub struct JobTable {
    inner: Mutex<Inner>,
    ready: Condvar,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// An empty table; ids start at 1.
    #[must_use]
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
            }),
            ready: Condvar::new(),
        }
    }

    /// Registers a queued job and wakes one worker. Returns its id.
    pub fn enqueue(
        &self,
        key: String,
        request: RunRequest,
        graph: Arc<Graph>,
        created_unix_ms: u64,
    ) -> u64 {
        let total_runs = request.runs;
        let mut inner = self.inner.lock().expect("job table poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            Job {
                key,
                work: Some((request, graph)),
                state: JobState::Queued,
                cached: false,
                total_runs,
                progress: Arc::new(AtomicUsize::new(0)),
                created_unix_ms,
            },
        );
        inner.queue.push_back(id);
        drop(inner);
        self.ready.notify_one();
        id
    }

    /// Registers a job of `total_runs` runs that was answered from the
    /// cache at submission time: born `Done`, `cached`, with full
    /// progress, and with nothing for a worker to claim.
    pub fn insert_done(&self, key: String, total_runs: usize, created_unix_ms: u64) -> u64 {
        let mut inner = self.inner.lock().expect("job table poisoned");
        let id = inner.next_id;
        inner.next_id += 1;
        inner.jobs.insert(
            id,
            Job {
                key,
                work: None,
                state: JobState::Done,
                cached: true,
                total_runs,
                progress: Arc::new(AtomicUsize::new(total_runs)),
                created_unix_ms,
            },
        );
        id
    }

    /// Blocks until a job id is available or `shutdown` is raised,
    /// polling the flag every 100 ms.
    pub fn pop_wait(&self, shutdown: &AtomicBool) -> Option<u64> {
        let mut inner = self.inner.lock().expect("job table poisoned");
        loop {
            if shutdown.load(Ordering::Relaxed) {
                return None;
            }
            if let Some(id) = inner.queue.pop_front() {
                return Some(id);
            }
            let (guard, _) = self
                .ready
                .wait_timeout(inner, Duration::from_millis(100))
                .expect("job table poisoned");
            inner = guard;
        }
    }

    /// Marks queued job `id` running and moves its request and graph out
    /// to the worker. `None` if `id` is unknown or was never queued or
    /// already claimed.
    #[must_use]
    pub fn claim(&self, id: u64) -> Option<ClaimedJob> {
        let mut inner = self.inner.lock().expect("job table poisoned");
        let job = inner.jobs.get_mut(&id)?;
        let (request, graph) = job.work.take()?;
        job.state = JobState::Running;
        Some(ClaimedJob {
            id,
            key: job.key.clone(),
            request,
            graph,
            progress: Arc::clone(&job.progress),
        })
    }

    /// Marks `id` done, recording whether the payload came from the
    /// cache.
    pub fn mark_done(&self, id: u64, cached: bool) {
        let mut inner = self.inner.lock().expect("job table poisoned");
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = JobState::Done;
            job.cached = cached;
            if cached {
                job.progress.store(job.total_runs, Ordering::Relaxed);
            }
        }
    }

    /// Marks `id` failed with a message.
    pub fn mark_error(&self, id: u64, message: impl Into<String>) {
        let mut inner = self.inner.lock().expect("job table poisoned");
        if let Some(job) = inner.jobs.get_mut(&id) {
            job.state = JobState::Error(message.into());
        }
    }

    /// A point-in-time snapshot of `id`.
    #[must_use]
    pub fn snapshot(&self, id: u64) -> Option<JobSnapshot> {
        let inner = self.inner.lock().expect("job table poisoned");
        inner.jobs.get(&id).map(|job| JobSnapshot {
            id,
            key: job.key.clone(),
            state: job.state.clone(),
            cached: job.cached,
            progress: job.progress.load(Ordering::Relaxed),
            total: job.total_runs,
            created_unix_ms: job.created_unix_ms,
        })
    }
}

// ---- Request → engine execution ------------------------------------------

/// Executes a validated request on its graph through the unified engine
/// path and renders the payload JSON. Pure in (graph, request): repeated
/// calls return byte-identical strings. `observe_run` fires once per
/// completed run (progress + engine-run accounting).
#[must_use]
pub fn execute_request(
    request: &RunRequest,
    graph: &Graph,
    jobs: usize,
    progress: &AtomicUsize,
    engine_runs: &AtomicU64,
) -> String {
    run_with_backend(
        graph,
        request.backend,
        Batch {
            request,
            jobs,
            progress,
            engine_runs,
        },
    )
}

/// A request's seed range and its observers, waiting for a backend.
#[derive(Clone, Copy)]
struct Batch<'a> {
    request: &'a RunRequest,
    jobs: usize,
    progress: &'a AtomicUsize,
    engine_runs: &'a AtomicU64,
}

impl BackendOp for Batch<'_> {
    type Out = String;

    fn run<G: GraphView + ?Sized>(self, graph: &G) -> String {
        let request = self.request;
        request
            .algorithm
            .dispatch(&request.config, ExecOp { batch: self, graph })
    }
}

/// A batch on a concrete backend, waiting for the family's engine.
struct ExecOp<'a, G: ?Sized> {
    batch: Batch<'a>,
    graph: &'a G,
}

impl<G: GraphView + ?Sized> FamilyOp<G> for ExecOp<'_, G> {
    type Out = String;

    fn run<E: Engine<G>>(self, engine: E) -> String {
        let Batch {
            request,
            jobs,
            progress,
            engine_runs,
        } = self.batch;
        let report = RunPlan::for_engine(engine, request.runs)
            .with_master_seed(request.seed)
            .with_jobs(jobs)
            .execute_observed(self.graph, |_| {
                progress.fetch_add(1, Ordering::Relaxed);
                engine_runs.fetch_add(1, Ordering::Relaxed);
            });
        render_payload(&report)
    }
}

/// Renders a batch report as the payload schema: per-run records (seed,
/// rounds, MIS size, cost, bits per channel, termination) plus the
/// aggregate summary. Key order is fixed and floats use the shortest
/// round-trip form, so equal reports render byte-identically.
fn render_payload<R: EngineRecord>(report: &BatchReport<R>) -> String {
    let records: Vec<Json> = report
        .records()
        .iter()
        .map(|r| {
            Json::Obj(vec![
                (
                    "bits_per_channel".to_owned(),
                    Json::Num(r.bits_per_channel()),
                ),
                ("cost".to_owned(), Json::Num(r.cost())),
                ("mis_size".to_owned(), Json::Num(r.mis_size() as f64)),
                ("rounds".to_owned(), Json::Num(f64::from(r.rounds()))),
                ("seed".to_owned(), Json::u64_str(r.seed())),
                ("terminated".to_owned(), Json::Bool(r.terminated())),
            ])
        })
        .collect();
    let summary = Json::Obj(vec![
        ("cost_mean".to_owned(), Json::Num(report.cost().mean())),
        ("cost_std".to_owned(), Json::Num(report.cost().std_dev())),
        (
            "mis_size_mean".to_owned(),
            Json::Num(report.mis_size().mean()),
        ),
        ("rounds_mean".to_owned(), Json::Num(report.rounds().mean())),
        (
            "rounds_std".to_owned(),
            Json::Num(report.rounds().std_dev()),
        ),
        ("runs".to_owned(), Json::Num(report.records().len() as f64)),
        (
            "unterminated".to_owned(),
            Json::Num(report.unterminated() as f64),
        ),
    ]);
    Json::Obj(vec![
        ("records".to_owned(), Json::Arr(records)),
        ("summary".to_owned(), summary),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mis_graph::generators;

    fn request(text: &str) -> RunRequest {
        RunRequest::parse(&Json::parse(text).unwrap()).unwrap()
    }

    #[test]
    fn queue_is_fifo_and_states_progress() {
        let table = JobTable::new();
        let g = Arc::new(generators::cycle(6));
        let req = request(
            r#"{"graph": {"generator": "cycle", "n": 6},
                "algorithm": {"family": "feedback"}, "runs": 2}"#,
        );
        let a = table.enqueue("k1".into(), req.clone(), Arc::clone(&g), 0);
        let b = table.enqueue("k2".into(), req, g, 0);
        assert!(a < b);
        assert_eq!(table.snapshot(a).unwrap().state, JobState::Queued);
        let stop = AtomicBool::new(false);
        assert_eq!(table.pop_wait(&stop), Some(a));
        assert_eq!(table.pop_wait(&stop), Some(b));
        let claimed = table.claim(a).unwrap();
        assert_eq!(claimed.id, a);
        assert_eq!(claimed.key, "k1");
        assert_eq!(claimed.request.runs, 2);
        assert_eq!(claimed.graph.node_count(), 6);
        assert_eq!(table.snapshot(a).unwrap().state, JobState::Running);
        table.mark_done(a, false);
        assert_eq!(table.snapshot(a).unwrap().state, JobState::Done);
        table.mark_error(b, "boom");
        assert_eq!(
            table.snapshot(b).unwrap().state,
            JobState::Error("boom".into())
        );
        stop.store(true, Ordering::Relaxed);
        assert_eq!(table.pop_wait(&stop), None);
    }

    fn holds_work(table: &JobTable, id: u64) -> bool {
        table.inner.lock().unwrap().jobs[&id].work.is_some()
    }

    #[test]
    fn cache_hit_jobs_are_born_done() {
        let table = JobTable::new();
        let req = request(
            r#"{"graph": {"generator": "cycle", "n": 6},
                "algorithm": {"family": "feedback"}, "runs": 3}"#,
        );
        let id = table.insert_done("k".into(), req.runs, 7);
        let snap = table.snapshot(id).unwrap();
        assert_eq!(snap.state, JobState::Done);
        assert!(snap.cached);
        assert_eq!(snap.progress, 3);
        assert_eq!(snap.total, 3);
        assert_eq!(snap.created_unix_ms, 7);
        // Nothing to run: no graph is held, and no worker can claim it.
        assert!(!holds_work(&table, id));
        assert!(table.claim(id).is_none());
        assert_eq!(table.snapshot(id).unwrap(), snap);
    }

    #[test]
    fn claim_moves_the_graph_out_once_and_dropping_the_claim_frees_it() {
        let table = JobTable::new();
        let g = Arc::new(generators::cycle(6));
        let req = request(
            r#"{"graph": {"generator": "cycle", "n": 6},
                "algorithm": {"family": "feedback"}, "runs": 2}"#,
        );
        let id = table.enqueue("k".into(), req, Arc::clone(&g), 0);
        assert!(holds_work(&table, id));
        let claimed = table.claim(id).unwrap();
        assert!(!holds_work(&table, id));
        assert!(table.claim(id).is_none());
        assert!(table.claim(id + 1).is_none());
        assert_eq!(Arc::strong_count(&g), 2);
        drop(claimed);
        assert_eq!(Arc::strong_count(&g), 1);
        // The row stays for status and fetch.
        assert_eq!(table.snapshot(id).unwrap().state, JobState::Running);
    }

    #[test]
    fn execution_matches_a_solo_run_plan_and_counts_runs() {
        let req = request(
            r#"{"graph": {"generator": "grid2d", "rows": 4, "cols": 5},
                "algorithm": {"family": "feedback"}, "seed": "11", "runs": 5}"#,
        );
        let g = req.graph.build().unwrap();
        let progress = AtomicUsize::new(0);
        let engine_runs = AtomicU64::new(0);
        let payload = execute_request(&req, &g, 1, &progress, &engine_runs);
        assert_eq!(progress.load(Ordering::Relaxed), 5);
        assert_eq!(engine_runs.load(Ordering::Relaxed), 5);
        // Same bytes again — execution is pure in (graph, request).
        let again = execute_request(&req, &g, 1, &progress, &engine_runs);
        assert_eq!(payload, again);
        // And the records agree with a solo RunPlan of the same shape.
        let solo = RunPlan::new(mis_core::Algorithm::feedback(), 5)
            .with_master_seed(11)
            .execute(&g);
        let parsed = Json::parse(&payload).unwrap();
        let records = parsed.get("records").and_then(Json::as_arr).unwrap();
        assert_eq!(records.len(), 5);
        for (json, record) in records.iter().zip(solo.records()) {
            assert_eq!(
                json.get("seed").and_then(Json::as_u64_str),
                Some(record.seed)
            );
            assert_eq!(
                json.get("rounds").and_then(Json::as_u32),
                Some(record.rounds)
            );
            assert_eq!(
                json.get("mis_size").and_then(Json::as_u32),
                Some(record.mis_size as u32)
            );
        }
    }

    #[test]
    fn message_families_execute_through_the_same_path() {
        let req = request(
            r#"{"graph": {"generator": "cycle", "n": 12},
                "algorithm": {"family": "luby_priority"}, "seed": "5", "runs": 3}"#,
        );
        let g = req.graph.build().unwrap();
        let progress = AtomicUsize::new(0);
        let engine_runs = AtomicU64::new(0);
        let payload = execute_request(&req, &g, 1, &progress, &engine_runs);
        assert_eq!(progress.load(Ordering::Relaxed), 3);
        let parsed = Json::parse(&payload).unwrap();
        let summary = parsed.get("summary").unwrap();
        assert_eq!(summary.get("runs").and_then(Json::as_u32), Some(3));
        assert_eq!(summary.get("unterminated").and_then(Json::as_u32), Some(0));
    }
}
