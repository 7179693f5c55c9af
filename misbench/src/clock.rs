//! The benchmark's only wall-clock reads. Every other module works in
//! nanoseconds since the process epoch, so clock values can only ever
//! become reported metrics, never inputs to a run.

use std::sync::OnceLock;

static EPOCH: OnceLock<std::time::Instant> = OnceLock::new(); // detlint: allow(D03) -- benchmark timing at the edge; readings become metrics only

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(std::time::Instant::now); // detlint: allow(D03) -- benchmark timing at the edge; readings become metrics only
    u64::try_from(epoch.elapsed().as_nanos()).expect("process ran for centuries")
}

/// Milliseconds between two [`now_ns`] readings.
pub fn ms(start_ns: u64, end_ns: u64) -> f64 {
    (end_ns - start_ns) as f64 / 1e6
}

/// Whether `seconds` have passed since `start_ns`.
pub fn past(start_ns: u64, seconds: f64) -> bool {
    (now_ns() - start_ns) as f64 / 1e9 >= seconds
}
