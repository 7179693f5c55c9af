//! Metrics, the correctness gate, and the result line.

use std::collections::BTreeMap;

use mis_beeping::json::Json;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("rounds_mean", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run reports each of them. A layer the
/// workload never calls reads 0 (no span was recorded).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.shard_write_s", "s"),
    ("graph.disk_open_ms", "ms"),
    ("graph.disk_hit_share", "ratio"),
    ("graph.disk_resident_mb", "MB"),
    ("beeping.new_ms", "ms"),
    ("beeping.step_ms_dense", "ms"),
    ("beeping.step_ms_tail", "ms"),
    ("beeping.step_ms_edgeless", "ms"),
    ("beeping.active_share", "ratio"),
    ("beeping.tail_round_share", "ratio"),
    ("beeping.run_ms.feedback", "ms"),
    ("beeping.run_ms.sweep", "ms"),
    ("baselines.run_ms.luby_priority", "ms"),
    ("baselines.run_ms.metivier", "ms"),
    ("core.record_ms", "ms"),
    ("core.plan_overhead_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("serve.call_ms", "ms"),
    ("serve.parse_ms", "ms"),
    ("serve.build_ms", "ms"),
    ("serve.key_ms", "ms"),
    ("serve.lookup_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.polls_per_miss", "count"),
    ("serve.fetch_ms", "ms"),
    ("serve.payload_kb", "KiB"),
    ("serve.hit_ms", "ms"),
    ("serve.miss_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.engine_runs", "count"),
    ("trace.overhead", "ratio"),
];

/// Checks made on a workload's outputs. Every check is one attempted
/// operation; a failed check makes the run fail.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("misbench: check failed: {}", what());
        }
    }
}

/// What one run measured, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    pub gate: Gate,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Prints one human-readable line per metric, then the result object
    /// as the last line of standard output.
    ///
    /// # Panics
    ///
    /// Panics if an untraced run left an end-to-end metric unmeasured.
    pub fn print(&self, traced: bool) {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("# {name:<32} {value:>14.4} {unit}");
            let entry = Json::Obj(vec![
                ("value".to_owned(), Json::Num(value)),
                ("unit".to_owned(), Json::Str(unit.to_owned())),
            ]);
            metrics.push((name.to_owned(), entry));
        }
        // `Json::Num` renders every number as a float; the two counts are
        // written by hand so they read as whole numbers.
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.gate.failed == 0,
            self.gate.attempted,
            self.gate.failed,
            Json::Obj(metrics).render()
        );
    }
}

/// Quantile `q` of `xs` by linear interpolation between closest ranks;
/// 0 for no samples (a layer the workload never called).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Latency samples keyed by work item: a seed of the seed list, a race,
/// a request class. Each item repeats across passes of the loop.
pub type Samples = Vec<(u64, f64)>;

/// The headline latency: the median over work items of each item's
/// fastest repeat. Host interference only ever adds time, so the fastest
/// repeat is the item's cost with the least of it, and the median over
/// items keeps the workload's own spread.
pub fn best_median(samples: &[(u64, f64)]) -> f64 {
    let mut best: BTreeMap<u64, f64> = BTreeMap::new();
    for &(item, ms) in samples {
        let b = best.entry(item).or_insert(ms);
        *b = b.min(ms);
    }
    median(&best.into_values().collect::<Vec<_>>())
}

/// Prints a timing's sample count next to its median and, with at least
/// ten samples beyond it, its p90.
pub fn note_samples(what: &str, samples: &[(u64, f64)]) {
    let xs: Vec<f64> = samples.iter().map(|s| s.1).collect();
    note(what, &xs);
    println!("#   best-per-item median={:.4} ms", best_median(samples));
}

/// [`note_samples`] for samples without items.
pub fn note(what: &str, xs: &[f64]) {
    println!(
        "# {what}: n={} p50={:.4} p90={} ms",
        xs.len(),
        median(xs),
        if xs.len() >= 100 {
            format!("{:.4}", quantile(xs, 0.9))
        } else {
            "n/a".to_owned()
        }
    );
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
