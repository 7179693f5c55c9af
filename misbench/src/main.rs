//! `misbench`: the workspace benchmark.
//!
//! ```text
//! misbench --workload <fb-sparse|race-dense|serve-mix|fb-disk> --seed <n>
//!          --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Each invocation runs one workload in its own process, checks every
//! output, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`) as the last line of standard output.
//! See `README.md` next to this crate for the metric → layer → workload
//! map and the span file format.

#![forbid(unsafe_code)]

mod clock;
mod digest;
mod fb;
mod race;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

use report::Report;
use trace::Tracer;

/// The workload seed whose per-seed digests are committed under
/// `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One invocation's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub bless: bool,
}

impl Ctx {
    /// Seconds the untraced measurement loop runs. A traced run spends
    /// half its time untraced (the base of `trace.overhead`) and half
    /// traced.
    pub fn untraced_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Sub-streams of the workload seed. Every graph seed and run-seed list
/// derives from `--seed` through `trial_seed`, so a claim can be
/// re-checked on an unseen seed.
pub mod seeds {
    use mis_beeping::rng::trial_seed;

    const GRAPH: u64 = 1;
    const RUNS: u64 = 2;
    const HITS: u64 = 3;
    const MISSES: u64 = 4;

    pub fn graph(workload_seed: u64) -> u64 {
        trial_seed(workload_seed, GRAPH)
    }

    /// Master seed of the run-seed list.
    pub fn runs(workload_seed: u64) -> u64 {
        trial_seed(workload_seed, RUNS)
    }

    pub fn hits(workload_seed: u64) -> u64 {
        trial_seed(workload_seed, HITS)
    }

    pub fn misses(workload_seed: u64) -> u64 {
        trial_seed(workload_seed, MISSES)
    }
}

/// Directory for span files and scratch data (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Expected-degree `G(n, p)` on the generator the serve layer uses.
pub fn gnp(n: usize, degree: f64, graph_seed: u64) -> mis_graph::Graph {
    use rand::SeedableRng;
    let p = degree / (n - 1) as f64;
    mis_graph::generators::gnp(n, p, &mut rand::rngs::SmallRng::seed_from_u64(graph_seed))
}

const USAGE: &str = "usage: misbench --workload <fb-sparse|race-dense|serve-mix|fb-disk> \
                     --seed <n> --seconds <s> --trace <0|1> [--bless]";

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            ctx.bless = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => ctx.workload.clone_from(&value),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => ctx.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => ctx.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(ctx)
}

fn main() {
    let ctx = parse_args().unwrap_or_else(|e| {
        eprintln!("misbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let tracer = Tracer::new(ctx.traced);
    let report: Report = match ctx.workload.as_str() {
        "fb-sparse" => fb::run(&fb::SPARSE, &ctx, &tracer),
        "fb-disk" => fb::run(&fb::DISK, &ctx, &tracer),
        "race-dense" => race::run(&ctx, &tracer),
        "serve-mix" => serve::run(&ctx, &tracer),
        other => {
            eprintln!("misbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if ctx.traced {
        let path = out_dir().join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("misbench: could not write {}: {e}", path.display()),
        }
    }
    report.print(ctx.traced);
    if report.gate.failed > 0 {
        std::process::exit(1);
    }
}
