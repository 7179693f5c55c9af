//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span holds a name, start and end (nanoseconds since the process
//! epoch), its parent span (0 = none), the run or request id it belongs
//! to, and a work count taken at the boundary (for a simulator step: the
//! nodes active at round start). Spans stay in memory and are written out
//! as JSON lines when the benchmark exits.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::clock::now_ns;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub run: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        crate::clock::ms(self.start_ns, self.end_ns)
    }
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u32,
    start_ns: u64,
}

/// Span recorder. A disabled tracer records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&self) -> Open {
        if !self.enabled {
            return Open { id: 0, start_ns: 0 };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: now_ns(),
        }
    }

    pub fn close(&self, open: Open, name: &'static str, parent: u32, run: u64, work: u64) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent,
            name,
            run,
            start_ns: open.start_ns,
            end_ns: now_ns(),
            work,
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: u32, run: u64, f: impl FnOnce() -> T) -> T {
        let open = self.open();
        let out = f();
        self.close(open, name, parent, run, 0);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Self times in ms of every span called `name`: its duration minus
    /// the part of its interval covered by the union of its children.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"run\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.parent, s.name, s.run, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}
