//! Adversarial scenario fuzzer: worst-case search plus seed replay.
//!
//! `xp fuzz` runs the generation-based worst-case search of
//! [`AdversarySchedule`] against the repaired feedback algorithm on a
//! `G(n, d/(n-1))` workload and emits a **replayable corpus**: a JSON
//! file recording the workload, the evaluation seeds, and every kept
//! scenario together with the per-run round counts and outcome digests.
//! `xp replay <file>` re-executes each entry and checks the recorded
//! numbers byte-for-byte — the corpus doubles as a regression gate
//! (`tests/corpus/worst_scenarios_seed.json` is a committed instance).
//!
//! Everything is deterministic in the config seeds: the same fuzz
//! invocation always finds the same adversaries, and a replay on any
//! machine and any `--jobs` count reproduces the recorded digests
//! exactly.

use mis_beeping::json::Json;
use mis_beeping::rng::splitmix64;
use mis_beeping::scenario::{ChurnModel, DelayModel, LossModel, ScenarioSpec, WakePattern};
use mis_beeping::SimConfig;
use mis_core::scenario::{AdversaryReport, AdversarySchedule, EvaluatedScenario};
use mis_core::{Algorithm, FeedbackConfig};
use mis_graph::{generators, Graph};
use mis_stats::Table;
use rand::{rngs::SmallRng, SeedableRng};

use crate::RunContext;

/// Corpus format tag; replays reject anything else.
pub const CORPUS_FORMAT: &str = "mis-adversary-corpus-v1";

/// Configuration for the scenario fuzzer.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Nodes in the `G(n, d/(n-1))` workload.
    pub n: usize,
    /// Mean degree `d` of the workload.
    pub mean_degree: f64,
    /// Seed of the workload graph.
    pub graph_seed: u64,
    /// Mean per-delivery loss budget every candidate spends exactly.
    pub loss_budget: f64,
    /// Search generations.
    pub generations: usize,
    /// Candidates per generation.
    pub population: usize,
    /// Elites carried between generations.
    pub survivors: usize,
    /// Runs per candidate evaluation.
    pub eval_runs: usize,
    /// Master seed (evaluation batch; the mutation stream derives from
    /// it).
    pub seed: u64,
    /// Round cap per run.
    pub max_rounds: u32,
    /// Latest wake round mutations may schedule.
    pub max_wake: u32,
    /// Largest per-delivery delay mutations may use.
    pub max_delay: u32,
    /// Whether mutations may introduce churn.
    pub allow_churn: bool,
    /// Adversary entries kept in the corpus (besides the baseline).
    pub keep: usize,
}

impl FuzzConfig {
    /// Full-scale settings: the acceptance workload `G(1000, d ≈ 16)`.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            n: 1000,
            mean_degree: 16.0,
            graph_seed: 0x6EAF,
            loss_budget: 0.1,
            generations: 5,
            population: 8,
            survivors: 3,
            eval_runs: 5,
            seed: 0xE7A1,
            max_rounds: 20_000,
            max_wake: 64,
            max_delay: 8,
            allow_churn: true,
            keep: 4,
        }
    }

    /// A fast smoke-test variant (2 generations, small graph).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            n: 300,
            mean_degree: 12.0,
            graph_seed: 0x6EAF,
            loss_budget: 0.1,
            generations: 2,
            population: 4,
            survivors: 2,
            eval_runs: 2,
            seed: 0xE7A1,
            max_rounds: 10_000,
            max_wake: 32,
            max_delay: 4,
            allow_churn: true,
            keep: 3,
        }
    }

    /// The workload graph.
    #[must_use]
    pub fn graph(&self) -> Graph {
        let p = (self.mean_degree / (self.n.saturating_sub(1).max(1)) as f64).min(1.0);
        generators::gnp(self.n, p, &mut SmallRng::seed_from_u64(self.graph_seed))
    }

    /// The search schedule this config drives, evaluating on
    /// `ctx.jobs` workers.
    #[must_use]
    pub fn schedule(&self, ctx: &RunContext) -> AdversarySchedule {
        AdversarySchedule::new(attacked_algorithm(), self.loss_budget)
            .with_config(
                SimConfig::default()
                    .with_max_rounds(self.max_rounds)
                    .with_mis_keeps_beeping(true),
            )
            .with_generations(self.generations)
            .with_population(self.population)
            .with_survivors(self.survivors)
            .with_eval_runs(self.eval_runs)
            .with_eval_seed(self.seed)
            // detlint: allow(D02) -- frozen stream: tests/corpus/worst_scenarios_seed.json
            // was mined with this exact derivation; changing it re-rolls the
            // committed adversary search and invalidates the corpus.
            .with_search_seed(splitmix64(self.seed ^ 0xAD5E_A2C4))
            .with_jobs(ctx.jobs)
            .with_mutation_limits(self.max_wake, self.max_delay, self.allow_churn)
    }
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The algorithm under attack: feedback with the cautious-join repair
/// (the variant the fault experiments show survives unreliable
/// networks — the fuzzer looks for schedules that still hurt it).
#[must_use]
pub fn attacked_algorithm() -> Algorithm {
    Algorithm::feedback_with(FeedbackConfig::default().with_cautious_join(true))
}

/// Results of one fuzz run: the search report plus the config that
/// produced it (needed to serialise a self-describing corpus).
#[derive(Debug, Clone)]
pub struct FuzzResults {
    /// The config that ran.
    pub config: FuzzConfig,
    /// The search outcome (uniform baseline + fittest scenarios).
    pub report: AdversaryReport,
}

/// Runs the worst-case search.
///
/// # Panics
///
/// Panics on degenerate configurations (zero nodes or a loss budget
/// outside `[0, 1]`).
#[must_use]
pub fn run(config: &FuzzConfig, ctx: &RunContext) -> FuzzResults {
    assert!(config.n > 0, "need at least one node");
    let graph = config.graph();
    let report = config.schedule(ctx).search(&graph);
    FuzzResults {
        config: config.clone(),
        report,
    }
}

/// One line describing a scenario's shape, for the report table.
#[must_use]
pub fn describe_spec(spec: &ScenarioSpec) -> String {
    let loss = match spec.loss {
        LossModel::None => "loss none".to_owned(),
        LossModel::Uniform { p } => format!("loss uniform {p:.3}"),
        LossModel::PerEdge { lo, hi } => format!("loss per-edge [{lo:.3}, {hi:.3}]"),
    };
    let delay = match spec.delay {
        DelayModel::None => String::new(),
        DelayModel::Random { p, max } => format!(", delay ≤{max} @ {p:.2}"),
    };
    let wake = match &spec.wake {
        WakePattern::None => String::new(),
        WakePattern::Explicit { .. } => ", wake explicit".to_owned(),
        WakePattern::Wavefront { stride, latest } => {
            format!(", wake wavefront /{stride} ≤{latest}")
        }
        WakePattern::Alternating { round } => format!(", wake alternating @{round}"),
        WakePattern::DegreeTargeted { fraction, latest } => {
            format!(", wake hubs {:.0}% ≤{latest}", fraction * 100.0)
        }
        WakePattern::Random { fraction, latest } => {
            format!(", wake random {:.0}% ≤{latest}", fraction * 100.0)
        }
    };
    let churn = match &spec.churn {
        ChurnModel::None => String::new(),
        ChurnModel::Explicit { windows } => format!(", churn ×{}", windows.len()),
        ChurnModel::Random { p, .. } => format!(", churn random {p:.2}"),
    };
    format!("{loss}{delay}{wake}{churn}")
}

fn entry_json(label: &str, entry: &EvaluatedScenario) -> Json {
    Json::Obj(vec![
        ("label".to_owned(), Json::Str(label.to_owned())),
        ("spec".to_owned(), entry.spec.to_json()),
        (
            "rounds".to_owned(),
            Json::Arr(
                entry
                    .rounds
                    .iter()
                    .map(|&r| Json::Num(f64::from(r)))
                    .collect(),
            ),
        ),
        (
            "digests".to_owned(),
            Json::Arr(entry.digests.iter().map(|&d| Json::u64_str(d)).collect()),
        ),
        ("violations".to_owned(), Json::Num(entry.violations as f64)),
    ])
}

impl FuzzResults {
    /// The corpus entries: the uniform baseline first, then the top
    /// `keep` distinct adversaries.
    #[must_use]
    pub fn corpus_entries(&self) -> Vec<(String, &EvaluatedScenario)> {
        let uniform_json = self.report.uniform.spec.to_json_string();
        let mut entries = vec![("uniform-baseline".to_owned(), &self.report.uniform)];
        for (i, best) in self
            .report
            .best
            .iter()
            .filter(|b| b.spec.to_json_string() != uniform_json)
            .take(self.config.keep)
            .enumerate()
        {
            entries.push((format!("adversary-{}", i + 1), best));
        }
        entries
    }

    /// The replayable corpus document.
    #[must_use]
    pub fn corpus_json(&self) -> Json {
        let c = &self.config;
        Json::Obj(vec![
            ("format".to_owned(), Json::Str(CORPUS_FORMAT.to_owned())),
            (
                "workload".to_owned(),
                Json::Obj(vec![
                    ("kind".to_owned(), Json::Str("gnp-mean-degree".to_owned())),
                    ("n".to_owned(), Json::Num(c.n as f64)),
                    ("mean_degree".to_owned(), Json::Num(c.mean_degree)),
                    ("graph_seed".to_owned(), Json::u64_str(c.graph_seed)),
                ]),
            ),
            (
                "algorithm".to_owned(),
                Json::Str("feedback-cautious".to_owned()),
            ),
            (
                "config".to_owned(),
                Json::Obj(vec![
                    ("max_rounds".to_owned(), Json::Num(f64::from(c.max_rounds))),
                    ("mis_keeps_beeping".to_owned(), Json::Bool(true)),
                ]),
            ),
            (
                "eval".to_owned(),
                Json::Obj(vec![
                    ("runs".to_owned(), Json::Num(c.eval_runs as f64)),
                    ("master_seed".to_owned(), Json::u64_str(c.seed)),
                ]),
            ),
            (
                "entries".to_owned(),
                Json::Arr(
                    self.corpus_entries()
                        .iter()
                        .map(|(label, e)| entry_json(label, e))
                        .collect(),
                ),
            ),
        ])
    }

    /// The corpus rendered as a JSON string.
    #[must_use]
    pub fn corpus_string(&self) -> String {
        self.corpus_json().render()
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&[
            "scenario",
            "fitness",
            "total rounds",
            "violations",
            "unterminated",
            "shape",
        ]);
        t.numeric();
        for (label, e) in self.corpus_entries() {
            t.push_row(vec![
                label,
                e.fitness.to_string(),
                e.total_rounds().to_string(),
                e.violations.to_string(),
                e.unterminated.to_string(),
                describe_spec(&e.spec),
            ]);
        }
        let best = &self.report.best[0];
        let verdict = if self.report.beats_uniform() {
            "yes"
        } else {
            "no"
        };
        format!(
            "{}\nEvaluated {} distinct scenarios over {} generations on \
             G({}, d ≈ {}) at a conserved loss budget of {}. Best adversary \
             beats uniform: {verdict} (fitness {} vs {}). The corpus above \
             replays byte-identically via `xp replay`.\n",
            t.to_markdown(),
            self.report.evaluated,
            self.config.generations,
            self.config.n,
            self.config.mean_degree,
            self.config.loss_budget,
            best.fitness,
            self.report.uniform.fitness,
        )
    }
}

/// One replayed corpus entry and how it compared to the record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayEntry {
    /// The entry's label in the corpus.
    pub label: String,
    /// Rounds recorded in the corpus.
    pub expected_rounds: Vec<u32>,
    /// Rounds of the replay.
    pub actual_rounds: Vec<u32>,
    /// Whether the round counts matched exactly.
    pub rounds_match: bool,
    /// Whether the outcome digests matched exactly (byte-identity).
    pub digests_match: bool,
}

/// Results of replaying a corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayResults {
    /// One entry per corpus scenario, in corpus order.
    pub entries: Vec<ReplayEntry>,
}

impl ReplayResults {
    /// Whether every entry replayed byte-identically.
    #[must_use]
    pub fn all_match(&self) -> bool {
        self.entries
            .iter()
            .all(|e| e.rounds_match && e.digests_match)
    }

    /// Full markdown body.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = Table::with_columns(&["scenario", "rounds", "replayed", "digests"]);
        for e in &self.entries {
            t.push_row(vec![
                e.label.clone(),
                format!("{:?}", e.expected_rounds),
                if e.rounds_match {
                    "identical".to_owned()
                } else {
                    format!("MISMATCH {:?}", e.actual_rounds)
                },
                if e.digests_match {
                    "identical".to_owned()
                } else {
                    "MISMATCH".to_owned()
                },
            ]);
        }
        let verdict = if self.all_match() {
            "replay byte-identical: yes"
        } else {
            "replay byte-identical: NO — the corpus no longer reproduces"
        };
        format!("{}\n{verdict}\n", t.to_markdown())
    }
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("corpus: missing field {key:?}"))
}

fn usize_field(json: &Json, key: &str) -> Result<usize, String> {
    field(json, key)?
        .as_u32()
        .map(|v| v as usize)
        .ok_or_else(|| format!("corpus: field {key:?} is not a count"))
}

/// Replays a corpus document and checks every entry against its record.
///
/// # Errors
///
/// Returns a message naming the offending field when the document is not
/// a well-formed `mis-adversary-corpus-v1` corpus.
pub fn replay_str(text: &str, ctx: &RunContext) -> Result<ReplayResults, String> {
    let doc = Json::parse(text).map_err(|e| format!("corpus: {e}"))?;
    let format = field(&doc, "format")?
        .as_str()
        .ok_or("corpus: format is not a string")?;
    if format != CORPUS_FORMAT {
        return Err(format!(
            "corpus: unsupported format {format:?} (expected {CORPUS_FORMAT:?})"
        ));
    }
    let workload = field(&doc, "workload")?;
    let kind = field(workload, "kind")?
        .as_str()
        .ok_or("corpus: workload kind is not a string")?;
    if kind != "gnp-mean-degree" {
        return Err(format!("corpus: unknown workload kind {kind:?}"));
    }
    let algorithm = field(&doc, "algorithm")?
        .as_str()
        .ok_or("corpus: algorithm is not a string")?;
    if algorithm != "feedback-cautious" {
        return Err(format!("corpus: unknown algorithm {algorithm:?}"));
    }
    let sim = field(&doc, "config")?;
    let eval = field(&doc, "eval")?;
    let config = FuzzConfig {
        n: usize_field(workload, "n")?,
        mean_degree: field(workload, "mean_degree")?
            .as_f64()
            .ok_or("corpus: mean_degree is not a number")?,
        graph_seed: field(workload, "graph_seed")?
            .as_u64_str()
            .ok_or("corpus: graph_seed is not a u64 string")?,
        max_rounds: field(sim, "max_rounds")?
            .as_u32()
            .ok_or("corpus: max_rounds is not a number")?,
        eval_runs: usize_field(eval, "runs")?,
        seed: field(eval, "master_seed")?
            .as_u64_str()
            .ok_or("corpus: master_seed is not a u64 string")?,
        ..FuzzConfig::quick()
    };
    if config.max_rounds == 0 {
        return Err("corpus: max_rounds must be positive".to_owned());
    }
    if !(config.mean_degree.is_finite() && config.mean_degree >= 0.0) {
        return Err(format!(
            "corpus: mean_degree must be a finite non-negative number, got {}",
            config.mean_degree
        ));
    }
    let graph = config.graph();
    let schedule = config.schedule(ctx);
    let mut entries = Vec::new();
    for entry in field(&doc, "entries")?
        .as_arr()
        .ok_or("corpus: entries is not an array")?
    {
        let label = field(entry, "label")?
            .as_str()
            .ok_or("corpus: entry label is not a string")?
            .to_owned();
        let spec = ScenarioSpec::from_json(field(entry, "spec")?)
            .map_err(|e| format!("corpus: entry {label:?}: {e}"))?;
        let expected_rounds: Vec<u32> = field(entry, "rounds")?
            .as_arr()
            .ok_or("corpus: entry rounds is not an array")?
            .iter()
            .map(|r| r.as_u32().ok_or("corpus: round is not a number"))
            .collect::<Result<_, _>>()?;
        let expected_digests: Vec<u64> = field(entry, "digests")?
            .as_arr()
            .ok_or("corpus: entry digests is not an array")?
            .iter()
            .map(|d| d.as_u64_str().ok_or("corpus: digest is not a u64 string"))
            .collect::<Result<_, _>>()?;
        let replayed = schedule.evaluate(&graph, spec);
        entries.push(ReplayEntry {
            label,
            rounds_match: replayed.rounds == expected_rounds,
            digests_match: replayed.digests == expected_digests,
            expected_rounds,
            actual_rounds: replayed.rounds,
        });
    }
    Ok(ReplayResults { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(jobs: usize) -> RunContext {
        RunContext {
            jobs,
            ..RunContext::default()
        }
    }

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            n: 60,
            mean_degree: 8.0,
            generations: 1,
            population: 2,
            survivors: 2,
            eval_runs: 2,
            max_rounds: 5_000,
            keep: 2,
            ..FuzzConfig::quick()
        }
    }

    #[test]
    fn fuzz_is_deterministic() {
        let a = run(&tiny(), &jobs(1));
        let b = run(&tiny(), &jobs(1));
        assert_eq!(a.report, b.report);
        assert_eq!(a.corpus_string(), b.corpus_string());
    }

    #[test]
    fn corpus_round_trips_through_replay() {
        let results = run(&tiny(), &jobs(1));
        let corpus = results.corpus_string();
        let replay = replay_str(&corpus, &jobs(1)).expect("well-formed corpus");
        assert_eq!(replay.entries.len(), results.corpus_entries().len());
        assert!(replay.all_match(), "{}", replay.render());
        // Independent of the job count.
        let replay4 = replay_str(&corpus, &jobs(4)).expect("well-formed corpus");
        assert!(replay4.all_match());
    }

    #[test]
    fn replay_detects_tampered_records() {
        let results = run(&tiny(), &jobs(1));
        let corpus = results
            .corpus_string()
            .replacen("\"rounds\":[", "\"rounds\":[9999,", 1);
        let replay = replay_str(&corpus, &jobs(1)).expect("still well-formed");
        assert!(!replay.all_match());
        assert!(replay.render().contains("MISMATCH"));
    }

    #[test]
    fn replay_rejects_malformed_corpora() {
        assert!(replay_str("not json", &jobs(1)).is_err());
        assert!(replay_str("{\"format\": \"other\"}", &jobs(1))
            .unwrap_err()
            .contains("unsupported format"));
        let missing = "{\"format\": \"mis-adversary-corpus-v1\"}";
        assert!(replay_str(missing, &jobs(1))
            .unwrap_err()
            .contains("workload"));
        // Well-formed values no run can use are rejected, not panicked on.
        let seed = include_str!("../../../tests/corpus/worst_scenarios_seed.json");
        for (from, to, name) in [
            ("\"max_rounds\":10000.0", "\"max_rounds\":0", "max_rounds"),
            (
                "\"mean_degree\":12.0",
                "\"mean_degree\":-5.0",
                "mean_degree",
            ),
        ] {
            assert!(seed.contains(from), "{from}");
            let err = replay_str(&seed.replacen(from, to, 1), &jobs(1)).unwrap_err();
            assert!(err.starts_with("corpus: ") && err.contains(name), "{err}");
        }
    }

    #[test]
    fn quick_search_beats_uniform() {
        // The CI smoke asserts this via the rendered verdict line; keep a
        // direct test so regressions surface here first.
        let mut config = FuzzConfig::quick();
        config.n = 120;
        let results = run(&config, &jobs(1));
        assert!(
            results.report.beats_uniform(),
            "quick search no longer beats uniform:\n{}",
            results.render()
        );
        assert!(results.render().contains("beats uniform: yes"));
    }

    #[test]
    fn describe_spec_names_every_axis() {
        let spec = ScenarioSpec::new(1)
            .with_loss(LossModel::PerEdge { lo: 0.0, hi: 0.2 })
            .with_delay(DelayModel::Random { p: 0.2, max: 3 })
            .with_wake(WakePattern::DegreeTargeted {
                fraction: 0.25,
                latest: 16,
            })
            .with_churn(ChurnModel::Random {
                p: 0.05,
                max_len: 4,
                earliest: 0,
                latest: 8,
            });
        let text = describe_spec(&spec);
        assert!(text.contains("per-edge"));
        assert!(text.contains("delay"));
        assert!(text.contains("hubs"));
        assert!(text.contains("churn"));
    }
}
