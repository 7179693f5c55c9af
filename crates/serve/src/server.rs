//! The daemon: listener lifecycle, connection threads, and engine
//! workers.
//!
//! Threading model — three kinds of threads, all owned by [`Server::run`]:
//!
//! * the **accept loop** (the calling thread), woken from `accept()` by a
//!   self-connection when shutdown is requested;
//! * one detached **connection thread** per client, reading frames with a
//!   100 ms poll timeout so it observes shutdown even mid-line; a slow or
//!   stalled client therefore blocks only its own thread, never the
//!   queue or other connections. It writes every reply and `watch` line
//!   as one frame in one write ([`write_frame`]) on a socket with Nagle
//!   off, so no reply waits on the client's delayed ACK;
//! * `workers` **engine workers** draining the job queue; each claims the
//!   job's request and graph out of the table (they are freed when the
//!   job ends), re-checks the store before running (in-flight duplicate
//!   submissions collapse to one engine execution) and publishes its
//!   payload under the job's content address. A panicking engine marks
//!   the job `error` and the worker survives.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::config::ServeConfig;
use crate::handlers::{self, Reply};
use crate::jobs::{JobState, JobTable};
use crate::protocol::{error_reply, read_frame, write_frame, Frame};
use crate::store::ResultStore;

/// Shared state every connection and worker sees.
pub struct ServerState {
    /// Startup configuration.
    pub config: ServeConfig,
    /// Content-addressed result store.
    pub store: ResultStore,
    /// Job registry and FIFO queue.
    pub jobs: JobTable,
    /// Engine runs executed since startup (cache hits add zero) — the
    /// counter the cache tests pin "zero additional work" against.
    pub engine_runs: AtomicU64,
    /// Raised once; every loop polls it.
    pub shutdown: AtomicBool,
    /// The bound listen address.
    pub addr: SocketAddr,
    /// Startup wall-clock timestamp (operator telemetry only).
    pub started_unix_ms: u64,
}

/// Milliseconds since the Unix epoch, for job/startup telemetry. Never
/// feeds payloads or cache keys.
pub(crate) fn now_unix_ms() -> u64 {
    // detlint: allow(D03) -- submission/startup timestamps are operator telemetry, never part of payloads or cache keys
    let now = std::time::SystemTime::now();
    now.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds `config.addr` and prepares the store (loading a configured
    /// cache directory).
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-directory failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = match &config.cache_dir {
            Some(dir) => ResultStore::with_dir(dir)?,
            None => ResultStore::in_memory(),
        };
        Ok(Self {
            listener,
            state: Arc::new(ServerState {
                config,
                store,
                jobs: JobTable::new(),
                engine_runs: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                addr,
                started_unix_ms: now_unix_ms(),
            }),
        })
    }

    /// The actually bound address (resolves a `:0` port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The shared state (tests read `engine_runs` and cache stats from
    /// here).
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Runs the daemon on the calling thread until a `shutdown` command
    /// (or [`ServerHandle::stop`]) raises the flag. Worker threads are
    /// joined before returning; connection threads are detached and exit
    /// on their next 100 ms poll.
    ///
    /// # Errors
    ///
    /// Propagates worker spawn failures; accept errors are tolerated.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let workers: Vec<JoinHandle<()>> = (0..state.config.workers)
            .map(|i| {
                let st = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("mis-serve-worker-{i}"))
                    .spawn(move || worker_loop(&st))
            })
            .collect::<std::io::Result<_>>()?;
        for conn in self.listener.incoming() {
            if state.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let st = Arc::clone(&state);
            let _ = std::thread::Builder::new()
                .name("mis-serve-conn".to_owned())
                .spawn(move || {
                    let _ = handle_connection(&st, stream);
                });
        }
        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Binds and runs on a background thread, returning a handle with the
    /// resolved address — the entry point used by the test suites.
    ///
    /// # Errors
    ///
    /// Propagates [`Server::bind`] and spawn failures.
    pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
        let server = Self::bind(config)?;
        let addr = server.local_addr();
        let state = server.state();
        let thread = std::thread::Builder::new()
            .name("mis-serve-accept".to_owned())
            .spawn(move || {
                let _ = server.run();
            })?;
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// A daemon running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state.
    #[must_use]
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Waits for the daemon to exit (something else must raise shutdown —
    /// typically a client `shutdown` command).
    pub fn join(self) {
        let _ = self.thread.join();
    }

    /// Raises shutdown, wakes the accept loop, and joins.
    pub fn stop(self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        wake_accept(&self.state);
        self.join();
    }
}

/// Unblocks `accept()` after the shutdown flag is raised by making one
/// throwaway connection to ourselves.
fn wake_accept(state: &ServerState) {
    let _ = TcpStream::connect(state.addr);
}

fn worker_loop(state: &ServerState) {
    while let Some(id) = state.jobs.pop_wait(&state.shutdown) {
        let Some(job) = state.jobs.claim(id) else {
            continue;
        };
        // Dequeue-time re-check: a duplicate submitted while this key was
        // queued is served from the first execution's payload.
        if state.store.peek(&job.key).is_some() {
            state.jobs.mark_done(id, true);
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            crate::jobs::execute_request(
                &job.request,
                &job.graph,
                state.config.job_jobs,
                &job.progress,
                &state.engine_runs,
            )
        }));
        match outcome {
            Ok(payload) => {
                state.store.insert(&job.key, payload);
                state.jobs.mark_done(id, false);
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "engine panicked".to_owned());
                state.jobs.mark_error(id, format!("engine panicked: {msg}"));
            }
        }
    }
}

/// Prepares an accepted socket: reads time out every 100 ms so the
/// connection thread can poll shutdown, and Nagle is off so each frame
/// leaves at once.
pub(crate) fn configure_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)
}

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) -> std::io::Result<()> {
    configure_accepted(&stream)?;
    let mut writer = stream.try_clone()?;
    let mut reader = std::io::BufReader::new(stream);
    loop {
        match read_frame(&mut reader, state.config.max_frame_bytes, &state.shutdown) {
            Frame::Line(line) => match handlers::dispatch(state, &line) {
                Reply::Single(text) => write_frame(&mut writer, &text)?,
                Reply::Watch { job } => stream_watch(state, &mut writer, job)?,
                Reply::Shutdown(text) => {
                    write_frame(&mut writer, &text)?;
                    state.shutdown.store(true, Ordering::Relaxed);
                    wake_accept(state);
                    return Ok(());
                }
            },
            Frame::TooLong => {
                let text = error_reply(
                    "frame_too_large",
                    &format!(
                        "request line exceeds {} bytes",
                        state.config.max_frame_bytes
                    ),
                )
                .render();
                write_frame(&mut writer, &text)?;
            }
            Frame::BadUtf8 => {
                let text = error_reply("bad_json", "request line is not valid UTF-8").render();
                write_frame(&mut writer, &text)?;
            }
            Frame::Eof | Frame::Truncated | Frame::Shutdown => return Ok(()),
        }
    }
}

/// Streams status lines for `job` until it finishes: one line per
/// observable change, always ending with the terminal `done`/`error`
/// status (or stopping silently on daemon shutdown).
fn stream_watch(state: &ServerState, writer: &mut TcpStream, job: u64) -> std::io::Result<()> {
    let mut last: Option<String> = None;
    loop {
        let Some(snap) = state.jobs.snapshot(job) else {
            let text = error_reply("unknown_job", &format!("no job {job}")).render();
            return write_frame(writer, &text);
        };
        let finished = matches!(snap.state, JobState::Done | JobState::Error(_));
        let line = handlers::status_json(&snap).render();
        if last.as_ref() != Some(&line) {
            write_frame(writer, &line)?;
            last = Some(line);
        }
        if finished || state.shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}
