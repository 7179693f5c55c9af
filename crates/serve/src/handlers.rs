//! One function per protocol command.
//!
//! Every command is a JSON object with a `"cmd"` field; every reply is a
//! JSON object with an `"ok"` boolean. Failures are *replies*, not
//! connection state — after any error the connection accepts the next
//! frame (the protocol suite sends a malformed burst and then a `ping` on
//! the same socket).
//!
//! | `cmd` | Reply |
//! |-------|-------|
//! | `ping` | `{"ok": true, "pong": true}` |
//! | `submit` | job ack: `job` id, cache `key`, `cached`, initial `state` |
//! | `status` | job snapshot: `state`, `progress`/`total`, `cached` |
//! | `watch` | a *stream* of status lines until the job finishes |
//! | `fetch` | the stored payload, spliced byte-identically into `result` |
//! | `cache_stats` | store counters plus the daemon's `engine_runs` |
//! | `shutdown` | `{"ok": true, "stopping": true}`, then the daemon exits |

use std::sync::Arc;

use mis_beeping::json::Json;

use crate::jobs::{JobSnapshot, JobState};
use crate::protocol::error_reply;
use crate::request::{cache_key, RunRequest};
use crate::server::{now_unix_ms, ServerState};

/// What the connection loop should do with a dispatched command.
pub enum Reply {
    /// Write one reply line.
    Single(String),
    /// Stream status lines for a job until it finishes.
    Watch {
        /// The job to watch.
        job: u64,
    },
    /// Write one reply line, then stop the daemon.
    Shutdown(String),
}

fn err(code: &str, message: &str) -> Reply {
    Reply::Single(error_reply(code, message).render())
}

/// Dispatches one request line to its handler.
#[must_use]
pub fn dispatch(state: &Arc<ServerState>, line: &str) -> Reply {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return err("bad_json", &e.to_string()),
    };
    let Some(cmd) = doc.get("cmd").and_then(Json::as_str) else {
        return err("bad_request", "request needs a \"cmd\" string");
    };
    match cmd {
        "ping" => Reply::Single(
            Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("pong".to_owned(), Json::Bool(true)),
            ])
            .render(),
        ),
        "submit" => submit(state, doc.get("request")),
        "status" => match job_id(&doc) {
            Ok(job) => match state.jobs.snapshot(job) {
                Some(snap) => Reply::Single(status_json(&snap).render()),
                None => err("unknown_job", &format!("no job {job}")),
            },
            Err(reply) => reply,
        },
        "watch" => match job_id(&doc) {
            Ok(job) if state.jobs.snapshot(job).is_some() => Reply::Watch { job },
            Ok(job) => err("unknown_job", &format!("no job {job}")),
            Err(reply) => reply,
        },
        "fetch" => match job_id(&doc) {
            Ok(job) => fetch(state, job),
            Err(reply) => reply,
        },
        "cache_stats" => cache_stats(state),
        "shutdown" => Reply::Shutdown(
            Json::Obj(vec![
                ("ok".to_owned(), Json::Bool(true)),
                ("stopping".to_owned(), Json::Bool(true)),
            ])
            .render(),
        ),
        other => err("unknown_command", &format!("unknown command {other:?}")),
    }
}

fn job_id(doc: &Json) -> Result<u64, Reply> {
    let Some(field) = doc.get("job") else {
        return Err(err("bad_request", "command needs a \"job\" id"));
    };
    if let Some(id) = field.as_u64_str() {
        return Ok(id);
    }
    if let Some(x) = field.as_f64() {
        if x >= 0.0 && x.fract() == 0.0 && x <= 9_007_199_254_740_992.0 {
            return Ok(x as u64);
        }
    }
    Err(err(
        "bad_request",
        "\"job\" must be a job id (integer or decimal string)",
    ))
}

fn submit(state: &Arc<ServerState>, request: Option<&Json>) -> Reply {
    let Some(request) = request else {
        return err("bad_request", "submit needs a \"request\" object");
    };
    let request = match RunRequest::parse(request) {
        Ok(request) => request,
        Err(e) => return err(e.code, &e.message),
    };
    let graph = match request.graph.build() {
        Ok(graph) => Arc::new(graph),
        Err(e) => return err(e.code, &e.message),
    };
    let key = cache_key(&request, graph.as_ref());
    let now = now_unix_ms();
    let (id, cached, job_state) = if state.store.lookup(&key).is_some() {
        let id = state.jobs.insert_done(key.clone(), request.runs, now);
        (id, true, "done")
    } else {
        let id = state.jobs.enqueue(key.clone(), request, graph, now);
        (id, false, "queued")
    };
    Reply::Single(
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            ("cached".to_owned(), Json::Bool(cached)),
            ("job".to_owned(), Json::u64_str(id)),
            ("key".to_owned(), Json::Str(key)),
            ("state".to_owned(), Json::Str(job_state.to_owned())),
        ])
        .render(),
    )
}

/// The status reply for one job snapshot (also the `watch` stream line).
#[must_use]
pub fn status_json(snap: &JobSnapshot) -> Json {
    let mut entries = vec![
        ("ok".to_owned(), Json::Bool(true)),
        ("cached".to_owned(), Json::Bool(snap.cached)),
        (
            "created_unix_ms".to_owned(),
            Json::u64_str(snap.created_unix_ms),
        ),
    ];
    if let JobState::Error(message) = &snap.state {
        entries.push(("error".to_owned(), Json::Str(message.clone())));
    }
    entries.extend([
        ("job".to_owned(), Json::u64_str(snap.id)),
        ("key".to_owned(), Json::Str(snap.key.clone())),
        ("progress".to_owned(), Json::Num(snap.progress as f64)),
        ("state".to_owned(), Json::Str(snap.state.name().to_owned())),
        ("total".to_owned(), Json::Num(snap.total as f64)),
    ]);
    Json::Obj(entries)
}

fn fetch(state: &Arc<ServerState>, job: u64) -> Reply {
    let Some(snap) = state.jobs.snapshot(job) else {
        return err("unknown_job", &format!("no job {job}"));
    };
    match snap.state {
        JobState::Done => {
            let Some(payload) = state.store.peek(&snap.key) else {
                return err("not_ready", "payload not yet published");
            };
            // The payload is spliced in verbatim — a cache hit's `result`
            // bytes are identical to the run that produced the entry.
            Reply::Single(format!(
                "{{\"ok\":true,\"cached\":{},\"job\":\"{}\",\"key\":\"{}\",\"result\":{}}}",
                snap.cached, snap.id, snap.key, payload
            ))
        }
        JobState::Error(message) => err("job_failed", &message),
        JobState::Queued | JobState::Running => err(
            "not_ready",
            &format!("job {} is {}", snap.id, snap.state.name()),
        ),
    }
}

fn cache_stats(state: &Arc<ServerState>) -> Reply {
    let stats = state.store.stats();
    Reply::Single(
        Json::Obj(vec![
            ("ok".to_owned(), Json::Bool(true)),
            (
                "engine_runs".to_owned(),
                Json::u64_str(state.engine_runs.load(std::sync::atomic::Ordering::Relaxed)),
            ),
            (
                "started_unix_ms".to_owned(),
                Json::u64_str(state.started_unix_ms),
            ),
            (
                "stats".to_owned(),
                Json::Obj(vec![
                    ("entries".to_owned(), Json::Num(stats.entries as f64)),
                    ("hits".to_owned(), Json::Num(stats.hits as f64)),
                    ("insertions".to_owned(), Json::Num(stats.insertions as f64)),
                    ("misses".to_owned(), Json::Num(stats.misses as f64)),
                ]),
            ),
        ])
        .render(),
    )
}
