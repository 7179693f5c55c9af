//! `xp` — the experiment driver.
//!
//! ```text
//! xp <experiment> [--quick] [--seed N] [--trials N] [--jobs N] [--shards N]
//!                 [--science] [--backend csr|compressed|disk]
//!                 [--on base|line|product|induced] [--out FILE] [--corpus FILE]
//! xp replay <file> [--jobs N]
//!
//! experiments:
//!   fig3         Figure 3: rounds vs n on G(n, ½)
//!   fig5         Figure 5: beeps per node vs n
//!   grid         §5: beeps per node on rectangular grids
//!   lower-bound  Theorem 1: clique-union family separation
//!   tails        Theorem 2: termination-time tails
//!   robustness   §6: parameter ablations
//!   faults       extension: message loss & late wake-ups
//!   race         extension: baselines comparison (--on races every
//!                contender on a lazy derived-graph view of each workload)
//!   quality      extension: MIS sizes vs exact optimum
//!   decay        extension: active-node decay curves
//!   apps         extension: matching / colouring / backbone via MIS
//!   sop          extension: SOP selection-time statistics (Science'11 models)
//!   potential    extension: Theorem 1 potential coverage per schedule
//!   fuzz         extension: adversarial scenario fuzzer (worst-case search;
//!                writes a replayable corpus, --corpus sets the path)
//!   all          everything above, in order
//!
//! `xp replay <file>` re-executes a corpus written by `xp fuzz` and exits
//! non-zero unless every entry reproduces byte-identically. A run that
//! cannot write its `--out` file or its fuzz corpus prints its report and
//! exits 1.
//!
//! An experiment rejects every flag it would not read rather than ignore
//! it: `--seed` and `--trials` are read by every experiment but potential
//! and replay, `--jobs` by every one but potential, `--quick` and `--out`
//! by every one but replay, `--science` by fig5, `--on` by race,
//! `--corpus` by fuzz and replay, `--shards` by decay, robustness and
//! faults, and `--backend` by decay. `all` accepts a flag wherever an
//! experiment it runs reads it, except `--shards` and `--backend`.
//! ```

#![forbid(unsafe_code)]

use std::io::Write as _;
use std::process::ExitCode;

use mis_experiments::{
    applications, decay, faults, fig3, fig5, fuzz, grid_beeps, lower_bound, potential, quality,
    race, robustness, sop, tails, Backend, Report, RunContext,
};

/// The experiments whose output depends on `--shards`.
const SHARD_READERS: [&str; 3] = ["decay", "robustness", "faults"];

/// The experiments that serve their graphs from `--backend`.
const BACKEND_READERS: [&str; 1] = ["decay"];

/// One experiment: its section title, its rendered body, and whether it
/// wrote every file it was asked to (`xp` exits 1 after the report if not).
type Runner = fn(&Options) -> (String, String, bool);

/// Every experiment `xp <name>` runs, in the order `all` runs them.
const RUNNERS: [(&str, Runner); 14] = [
    ("fig3", run_fig3),
    ("fig5", run_fig5),
    ("grid", run_grid),
    ("lower-bound", run_lower_bound),
    ("tails", run_tails),
    ("robustness", run_robustness),
    ("faults", run_faults),
    ("race", run_race),
    ("quality", run_quality),
    ("decay", run_decay),
    ("apps", run_apps),
    ("sop", run_sop),
    ("potential", run_potential),
    ("fuzz", run_fuzz),
];

#[derive(Debug, Clone)]
struct Options {
    experiment: String,
    quick: bool,
    seed: Option<u64>,
    trials: Option<usize>,
    ctx: RunContext,
    science: bool,
    on: Option<race::RaceSurface>,
    out: Option<String>,
    corpus: Option<String>,
}

fn usage() -> &'static str {
    "usage: xp <fig3|fig5|grid|lower-bound|tails|robustness|faults|race|quality|decay|apps|sop|potential|fuzz|all> \
     [--quick] [--seed N] [--trials N] [--jobs N] [--shards N] [--science] \
     [--backend csr|compressed|disk] \
     [--on base|line|product|induced] [--out FILE] [--corpus FILE]\n       xp replay <file> [--jobs N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut it = args.iter();
    let experiment = it.next().ok_or_else(|| usage().to_owned())?.clone();
    if !every_experiment_but(&[]).contains(&experiment.as_str()) {
        return Err(format!("unknown experiment {experiment:?}\n{}", usage()));
    }
    let mut opts = Options {
        experiment,
        quick: false,
        seed: None,
        trials: None,
        ctx: RunContext::default(),
        science: false,
        on: None,
        out: None,
        corpus: None,
    };
    let mut given = Vec::new();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            given.push(arg.as_str());
        }
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--science" => opts.science = true,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
            }
            "--trials" => {
                let v = it.next().ok_or("--trials needs a value")?;
                opts.trials = Some(v.parse().map_err(|_| format!("bad trial count {v:?}"))?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let jobs: usize = v.parse().map_err(|_| format!("bad job count {v:?}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_owned());
                }
                opts.ctx.jobs = jobs;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let shards: usize = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                opts.ctx.shards = Some(shards);
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs a value")?;
                opts.ctx.backend = Backend::parse(v).ok_or_else(|| {
                    format!("unknown backend {v:?} (expected csr|compressed|disk)")
                })?;
            }
            "--on" => {
                let v = it.next().ok_or("--on needs a value")?;
                opts.on = Some(race::RaceSurface::parse(v).ok_or_else(|| {
                    format!("unknown race surface {v:?} (expected base|line|product|induced)")
                })?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                opts.out = Some(v.clone());
            }
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a file path")?;
                opts.corpus = Some(v.clone());
            }
            other => {
                // `xp replay <file>` takes its corpus as a positional
                // argument.
                if opts.experiment == "replay" && opts.corpus.is_none() && !other.starts_with('-') {
                    opts.corpus = Some(other.to_owned());
                } else {
                    return Err(format!("unknown flag {other:?}\n{}", usage()));
                }
            }
        }
    }
    for flag in given {
        only_for(flag, &readers(flag), &opts.experiment)?;
    }
    Ok(opts)
}

/// Every experiment name `xp` accepts, `all` and `replay` included, but
/// those in `skip`.
fn every_experiment_but(skip: &[&str]) -> Vec<&'static str> {
    RUNNERS
        .iter()
        .map(|&(name, _)| name)
        .chain(["all", "replay"])
        .filter(|name| !skip.contains(name))
        .collect()
}

/// The experiments whose output depends on `flag`, one `parse_args` has
/// accepted. `all` reads a flag wherever an experiment it runs does, but
/// `--shards` and `--backend` are for single experiments only.
fn readers(flag: &str) -> Vec<&'static str> {
    match flag {
        "--shards" => SHARD_READERS.to_vec(),
        "--backend" => BACKEND_READERS.to_vec(),
        "--science" => vec!["fig5", "all"],
        "--on" => vec!["race", "all"],
        "--corpus" => vec!["fuzz", "replay", "all"],
        "--seed" | "--trials" => every_experiment_but(&["potential", "replay"]),
        "--jobs" => every_experiment_but(&["potential"]),
        "--quick" | "--out" => every_experiment_but(&["replay"]),
        other => unreachable!("{other} is not an xp flag"),
    }
}

/// Rejects `flag` unless `experiment` is one of the `readers` whose output
/// depends on it.
fn only_for(flag: &str, readers: &[&str], experiment: &str) -> Result<(), String> {
    if readers.contains(&experiment) {
        Ok(())
    } else {
        Err(format!(
            "{flag} applies only to {}, not to {experiment}",
            readers.join(", ")
        ))
    }
}

fn run_fig3(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        fig3::Fig3Config::quick()
    } else {
        fig3::Fig3Config::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("fig3: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Figure 3 — rounds to MIS on G(n, ½)".into(),
        fig3::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_fig5(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        fig5::Fig5Config::quick()
    } else {
        fig5::Fig5Config::paper()
    };
    if opts.science {
        config = config.with_science();
    }
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("fig5: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Figure 5 — mean beeps per node on G(n, ½)".into(),
        fig5::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_grid(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        grid_beeps::GridBeepsConfig::quick()
    } else {
        grid_beeps::GridBeepsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("grid: shapes {:?}, {} trials", config.grids, config.trials);
    (
        "§5 / Theorem 6 — beeps per node on rectangular grids".into(),
        grid_beeps::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_lower_bound(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        lower_bound::LowerBoundConfig::quick()
    } else {
        lower_bound::LowerBoundConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "lower-bound: targets {:?}, {} trials",
        config.target_sizes, config.trials
    );
    (
        "Theorem 1 — clique-union lower-bound family".into(),
        lower_bound::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_tails(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        tails::TailsConfig::quick()
    } else {
        tails::TailsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("tails: sizes {:?}, {} trials", config.sizes, config.trials);
    (
        "Theorem 2 — termination-time tails".into(),
        tails::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_robustness(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        robustness::RobustnessConfig::quick()
    } else {
        robustness::RobustnessConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("robustness: n = {}, {} trials", config.n, config.trials);
    (
        "§6 — robustness ablations".into(),
        robustness::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_faults(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        faults::FaultsConfig::quick()
    } else {
        faults::FaultsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "faults: n = {}, loss rates {:?}, {} trials",
        config.n, config.loss_rates, config.trials
    );
    (
        "Extension — fault injection".into(),
        faults::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_race(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        race::RaceConfig::quick()
    } else {
        race::RaceConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    if let Some(surface) = opts.on {
        config.surface = surface;
    }
    eprintln!(
        "race: {} trials per workload, surface {}",
        config.trials,
        config.surface.name()
    );
    let title = match config.surface {
        race::RaceSurface::Base => "Extension — baseline race".to_owned(),
        surface => format!(
            "Extension — baseline race on the lazy {} view",
            surface.name()
        ),
    };
    (title, race::run(&config, &opts.ctx).render(), true)
}

fn run_quality(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        quality::QualityConfig::quick()
    } else {
        quality::QualityConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("quality: {} trials per workload", config.trials);
    (
        "Extension — MIS size vs exact optimum".into(),
        quality::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_decay(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        decay::DecayConfig::quick()
    } else {
        decay::DecayConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("decay: n = {}, {} trials", config.n, config.trials);
    (
        "Extension — active-node decay".into(),
        decay::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_apps(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        applications::AppsConfig::quick()
    } else {
        applications::AppsConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!("apps: {} trials per workload", config.trials);
    (
        "Extension — MIS as a building block".into(),
        applications::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_sop(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        sop::SopConfig::quick()
    } else {
        sop::SopConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.trials = t;
    }
    eprintln!(
        "sop: {} trials per model on a {}x{} hex tissue",
        config.trials, config.side, config.side
    );
    (
        "Extension — SOP selection-time statistics".into(),
        sop::run(&config, &opts.ctx).render(),
        true,
    )
}

fn run_potential(opts: &Options) -> (String, String, bool) {
    let config = if opts.quick {
        potential::PotentialConfig::quick()
    } else {
        potential::PotentialConfig::paper()
    };
    eprintln!(
        "potential: {} sizes, cap {}",
        config.log_sizes.len(),
        config.cap
    );
    (
        "Extension — Theorem 1 potential coverage".into(),
        potential::run(&config).render(),
        true,
    )
}

fn run_fuzz(opts: &Options) -> (String, String, bool) {
    let mut config = if opts.quick {
        fuzz::FuzzConfig::quick()
    } else {
        fuzz::FuzzConfig::paper()
    };
    if let Some(s) = opts.seed {
        config.seed = s;
    }
    if let Some(t) = opts.trials {
        config.eval_runs = t.max(1);
    }
    eprintln!(
        "fuzz: G({}, d ≈ {}), budget {}, {} generations × {} candidates, {} eval runs",
        config.n,
        config.mean_degree,
        config.loss_budget,
        config.generations,
        config.population,
        config.eval_runs
    );
    let results = fuzz::run(&config, &opts.ctx);
    let path = opts.corpus.as_deref().unwrap_or("worst_scenarios.json");
    let wrote = match std::fs::write(path, results.corpus_string()) {
        Ok(()) => {
            eprintln!("wrote corpus {path} (replay with `xp replay {path}`)");
            true
        }
        Err(e) => {
            eprintln!("failed to write corpus {path}: {e}");
            false
        }
    };
    (
        "Extension — adversarial scenario fuzzer".into(),
        results.render(),
        wrote,
    )
}

fn run_replay(opts: &Options) -> ExitCode {
    let Some(path) = opts.corpus.as_deref() else {
        eprintln!("replay needs a corpus file: xp replay <file>\n{}", usage());
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let results = match fuzz::replay_str(&text, &opts.ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("## Replay — {path}\n\n{}", results.render());
    if results.all_match() {
        ExitCode::SUCCESS
    } else {
        eprintln!("replay mismatch: {path} no longer reproduces byte-identically");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = opts.ctx;
    if ctx.jobs > 0 {
        eprintln!("running trials on {} worker thread(s)", ctx.jobs);
    }
    if let Some(shards) = ctx.shards {
        eprintln!(
            "beeping simulations use counter-mode rng with {} intra-run shard(s)",
            if shards == 0 {
                "auto".to_owned()
            } else {
                shards.to_string()
            }
        );
    }
    if ctx.backend != Backend::default() {
        eprintln!("adjacency served from the {} backend", ctx.backend.name());
    }
    if opts.experiment == "replay" {
        return run_replay(&opts);
    }

    let mut report = Report::new();
    let mut wrote_all = true;
    let plan = RUNNERS
        .iter()
        .filter(|&&(name, _)| opts.experiment == "all" || opts.experiment == name);
    for &(_, runner) in plan {
        // detlint: allow(D03) -- progress display only; never feeds results or seeds
        let started = std::time::Instant::now();
        let (title, body, wrote) = runner(&opts);
        eprintln!("  …done in {:.1?}", started.elapsed());
        println!("## {title}\n\n{body}");
        report.push_section(title, body);
        wrote_all &= wrote;
    }

    if let Some(path) = &opts.out {
        match std::fs::File::create(path)
            .and_then(|mut f| f.write_all(report.to_markdown().as_bytes()))
        {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wrote_all {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_experiment_and_flags() {
        let opts = parse(&[
            "fig3", "--quick", "--seed", "9", "--trials", "12", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(opts.experiment, "fig3");
        assert!(opts.quick);
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.trials, Some(12));
        assert_eq!(opts.ctx.jobs, 4);
        assert!(!opts.science);
        assert_eq!(opts.on, None);
        assert_eq!(opts.out, None);
    }

    #[test]
    fn parses_race_surface() {
        for (value, surface) in [
            ("base", race::RaceSurface::Base),
            ("line", race::RaceSurface::Line),
            ("product", race::RaceSurface::Product),
            ("induced", race::RaceSurface::Induced),
        ] {
            let opts = parse(&["race", "--on", value]).unwrap();
            assert_eq!(opts.on, Some(surface));
        }
        assert!(parse(&["race", "--on"]).is_err());
        let err = parse(&["race", "--on", "torus"]).unwrap_err();
        assert!(err.contains("torus"));
        assert!(err.contains("base|line|product|induced"));
    }

    #[test]
    fn rejects_zero_jobs() {
        assert!(parse(&["fig3", "--jobs", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["fig3", "--jobs"]).is_err());
        assert!(parse(&["fig3", "--jobs", "many"]).is_err());
    }

    #[test]
    fn parses_shards() {
        let opts = parse(&["decay", "--quick", "--shards", "4"]).unwrap();
        assert_eq!(opts.ctx.shards, Some(4));
        // 0 = auto-detect, 1 = counter-mode sequential — both valid.
        assert_eq!(
            parse(&["decay", "--shards", "0"]).unwrap().ctx.shards,
            Some(0)
        );
        assert_eq!(
            parse(&["decay", "--shards", "1"]).unwrap().ctx.shards,
            Some(1)
        );
        assert_eq!(parse(&["decay"]).unwrap().ctx.shards, None);
        assert!(parse(&["decay", "--shards"]).is_err());
        assert!(parse(&["decay", "--shards", "many"]).is_err());
    }

    #[test]
    fn parses_backend() {
        for (value, backend) in [
            ("csr", Backend::Csr),
            ("compressed", Backend::Compressed),
            ("disk", Backend::Disk),
        ] {
            let opts = parse(&["decay", "--backend", value]).unwrap();
            assert_eq!(opts.ctx.backend, backend);
        }
        assert_eq!(parse(&["decay"]).unwrap().ctx.backend, Backend::Csr);
        assert!(parse(&["decay", "--backend"]).is_err());
        let err = parse(&["decay", "--backend", "ram"]).unwrap_err();
        assert!(err.contains("ram"));
        assert!(err.contains("csr|compressed|disk"));
    }

    #[test]
    fn shards_are_accepted_only_where_they_are_read() {
        for experiment in SHARD_READERS {
            assert!(
                parse(&[experiment, "--shards", "4"]).is_ok(),
                "{experiment}"
            );
        }
        for experiment in ["fig3", "race", "potential", "fuzz", "all", "replay"] {
            let err = parse(&[experiment, "--shards", "4"]).unwrap_err();
            assert!(err.contains("only to decay, robustness, faults,"), "{err}");
            assert!(err.contains(experiment), "{err}");
        }
    }

    #[test]
    fn backend_is_accepted_only_where_it_is_read() {
        assert!(parse(&["decay", "--backend", "disk"]).is_ok());
        // Even the default backend is rejected where no experiment reads it.
        for experiment in ["fig3", "race", "robustness", "all", "replay"] {
            let err = parse(&[experiment, "--backend", "csr"]).unwrap_err();
            assert!(err.contains("only to decay,"), "{err}");
            assert!(err.contains(experiment), "{err}");
        }
    }

    #[test]
    fn flags_are_rejected_where_no_experiment_reads_them() {
        for (flag, args) in [
            ("--seed", &["potential", "--quick", "--seed", "99"][..]),
            ("--trials", &["potential", "--trials", "3"]),
            ("--jobs", &["potential", "--jobs", "1"]),
            ("--seed", &["replay", "c.json", "--seed", "5"]),
            ("--trials", &["replay", "c.json", "--trials", "2"]),
            ("--quick", &["replay", "c.json", "--quick"]),
            ("--out", &["replay", "c.json", "--out", "o.md"]),
            ("--science", &["grid", "--quick", "--science"]),
            ("--on", &["grid", "--on", "line"]),
            ("--corpus", &["grid", "--corpus", "f.json"]),
        ] {
            let err = parse(args).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} applies only to ")),
                "{err}"
            );
            assert!(err.ends_with(&format!(", not to {}", args[0])), "{err}");
        }
    }

    #[test]
    fn single_experiment_flags_are_accepted_only_where_they_are_read() {
        for (args, readers) in [
            (&["--science"][..], &["fig5", "all"][..]),
            (&["--on", "line"], &["race", "all"]),
            (&["--corpus", "c.json"], &["fuzz", "replay", "all"]),
        ] {
            for experiment in every_experiment_but(&[]) {
                let mut argv = vec![experiment];
                argv.extend(args);
                match parse(&argv) {
                    Ok(_) => assert!(readers.contains(&experiment), "{argv:?} was accepted"),
                    Err(err) => {
                        assert!(!readers.contains(&experiment), "{argv:?}: {err}");
                        assert!(err.starts_with(&format!("{} applies only to", args[0])));
                    }
                }
            }
        }
    }

    #[test]
    fn all_accepts_every_flag_one_of_its_experiments_reads() {
        let opts = parse(&[
            "all",
            "--quick",
            "--seed",
            "3",
            "--trials",
            "2",
            "--jobs",
            "2",
            "--science",
            "--on",
            "line",
            "--out",
            "r.md",
            "--corpus",
            "c.json",
        ])
        .unwrap();
        assert!(opts.quick && opts.science);
        assert_eq!(
            (opts.seed, opts.trials, opts.ctx.jobs),
            (Some(3), Some(2), 2)
        );
        assert_eq!(opts.on, Some(race::RaceSurface::Line));
        assert_eq!(opts.out.as_deref(), Some("r.md"));
        assert_eq!(opts.corpus.as_deref(), Some("c.json"));
    }

    #[test]
    fn rejects_unknown_experiment() {
        let err = parse(&["nonsense", "--quick"]).unwrap_err();
        assert!(err.starts_with("unknown experiment \"nonsense\""), "{err}");
        assert!(err.contains("usage"));
    }

    #[test]
    fn parses_out_and_science() {
        let opts = parse(&["fig5", "--science", "--out", "report.md"]).unwrap();
        assert!(opts.science);
        assert_eq!(opts.out.as_deref(), Some("report.md"));
    }

    #[test]
    fn rejects_missing_experiment() {
        assert!(parse(&[]).unwrap_err().contains("usage"));
    }

    #[test]
    fn rejects_unknown_flag() {
        let err = parse(&["fig3", "--loud"]).unwrap_err();
        assert!(err.contains("--loud"));
        assert!(err.contains("usage"));
    }

    #[test]
    fn rejects_flag_without_value() {
        assert!(parse(&["fig3", "--seed"]).is_err());
        assert!(parse(&["fig3", "--trials"]).is_err());
        assert!(parse(&["fig3", "--out"]).is_err());
    }

    #[test]
    fn rejects_non_numeric_values() {
        assert!(parse(&["fig3", "--seed", "abc"]).is_err());
        assert!(parse(&["fig3", "--trials", "-2"]).is_err());
    }

    #[test]
    fn usage_lists_every_experiment() {
        for name in [
            "fig3",
            "fig5",
            "grid",
            "lower-bound",
            "tails",
            "robustness",
            "faults",
            "race",
            "quality",
            "decay",
            "apps",
            "sop",
            "potential",
            "fuzz",
            "replay",
            "all",
        ] {
            assert!(usage().contains(name), "usage is missing {name}");
        }
    }

    #[test]
    fn parses_corpus_flag() {
        let opts = parse(&["fuzz", "--quick", "--corpus", "out.json"]).unwrap();
        assert_eq!(opts.corpus.as_deref(), Some("out.json"));
        assert!(parse(&["fuzz", "--corpus"]).is_err());
    }

    #[test]
    fn fuzz_reports_a_corpus_it_could_not_write() {
        let missing = std::env::temp_dir()
            .join(format!("xp-no-such-dir-{}", std::process::id()))
            .join("c.json");
        let opts = parse(&["fuzz", "--quick", "--corpus", missing.to_str().unwrap()]).unwrap();
        let (_, body, wrote) = run_fuzz(&opts);
        assert!(!wrote, "the corpus directory does not exist");
        assert!(!body.is_empty(), "the report still renders");
    }

    #[test]
    fn replay_takes_a_positional_corpus_file() {
        let opts = parse(&["replay", "corpus.json", "--jobs", "2"]).unwrap();
        assert_eq!(opts.experiment, "replay");
        assert_eq!(opts.corpus.as_deref(), Some("corpus.json"));
        assert_eq!(opts.ctx.jobs, 2);
        // A second positional is still rejected, as is one for any other
        // experiment.
        assert!(parse(&["replay", "a.json", "b.json"]).is_err());
        assert!(parse(&["fig3", "corpus.json"]).is_err());
        // --corpus works for replay too.
        let opts = parse(&["replay", "--corpus", "c.json"]).unwrap();
        assert_eq!(opts.corpus.as_deref(), Some("c.json"));
    }
}
