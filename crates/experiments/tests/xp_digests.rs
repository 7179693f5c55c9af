//! Pins the rendered output of every `xp` experiment at `--quick`.
//!
//! Each row is the FNV-1a digest of one experiment's `render()`, the body
//! `xp` prints under the experiment's heading. Any change to an outcome,
//! a seed derivation or a table layout moves a digest, so a refactor that
//! claims to change none of them can prove it here. The sharded rows run
//! decay, robustness and faults with 4 intra-run shards; the disk row
//! runs decay on the disk backend, whose tables must equal the CSR ones.

use mis_experiments::{
    applications, decay, faults, fig3, fig5, fuzz, grid_beeps, lower_bound, potential, quality,
    race, robustness, sop, tails, Backend, RunContext,
};

/// `(row, fnv1a64(render()))`, in the order the test computes them.
const PINNED: &[(&str, u64)] = &[
    ("fig3", 0x539afbc67cf3f14b),
    ("fig5", 0xe982fc07ce5cbf68),
    ("grid", 0x60d9d69f1439cf16),
    ("lower-bound", 0xe025e00a53b6e206),
    ("tails", 0x9444b23e7e85d522),
    ("robustness", 0x06cb4acd3f60e142),
    ("faults", 0xb4c8ec53df646411),
    ("race", 0x9814aa3b8783ec2c),
    ("quality", 0xfd32e039a35ab338),
    ("decay", 0xb6ace5f74b7b465f),
    ("apps", 0x947649261df9977d),
    ("sop", 0x1c732ebc6b1b5d75),
    ("potential", 0x0454cf7df5e81731),
    ("race --on line", 0xd72de9b741023932),
    ("race --on product", 0xc76a44fea2080c03),
    ("race --on induced", 0x73aa18ef499a8776),
    ("fuzz", 0x87ffdc0ed5b4f21a),
    ("fuzz corpus", 0x5356732138ce6b88),
    ("decay --shards 4", 0x99a4e78442542c18),
    ("robustness --shards 4", 0xf856afe5af1e8934),
    ("faults --shards 4", 0xb20abf8e711d52d9),
    ("decay --backend disk", 0xb6ace5f74b7b465f),
];

fn fnv1a64(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in text.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn quick_experiment_outputs_match_their_pinned_digests() {
    let mut rows: Vec<(&str, u64)> = Vec::new();
    let mut pin = |name, body: String| rows.push((name, fnv1a64(&body)));
    let ctx = RunContext::default();

    pin("fig3", fig3::run(&fig3::Fig3Config::quick(), &ctx).render());
    pin("fig5", fig5::run(&fig5::Fig5Config::quick(), &ctx).render());
    pin(
        "grid",
        grid_beeps::run(&grid_beeps::GridBeepsConfig::quick(), &ctx).render(),
    );
    pin(
        "lower-bound",
        lower_bound::run(&lower_bound::LowerBoundConfig::quick(), &ctx).render(),
    );
    pin(
        "tails",
        tails::run(&tails::TailsConfig::quick(), &ctx).render(),
    );
    pin(
        "robustness",
        robustness::run(&robustness::RobustnessConfig::quick(), &ctx).render(),
    );
    pin(
        "faults",
        faults::run(&faults::FaultsConfig::quick(), &ctx).render(),
    );
    pin("race", race::run(&race::RaceConfig::quick(), &ctx).render());
    pin(
        "quality",
        quality::run(&quality::QualityConfig::quick(), &ctx).render(),
    );
    pin(
        "decay",
        decay::run(&decay::DecayConfig::quick(), &ctx).render(),
    );
    pin(
        "apps",
        applications::run(&applications::AppsConfig::quick(), &ctx).render(),
    );
    pin("sop", sop::run(&sop::SopConfig::quick(), &ctx).render());
    pin(
        "potential",
        potential::run(&potential::PotentialConfig::quick()).render(),
    );
    for (name, surface) in [
        ("race --on line", race::RaceSurface::Line),
        ("race --on product", race::RaceSurface::Product),
        ("race --on induced", race::RaceSurface::Induced),
    ] {
        pin(
            name,
            race::run(&race::RaceConfig::quick().on(surface), &ctx).render(),
        );
    }
    let fuzzed = fuzz::run(&fuzz::FuzzConfig::quick(), &ctx);
    pin("fuzz", fuzzed.render());
    pin("fuzz corpus", fuzzed.corpus_string());

    let sharded = RunContext {
        shards: Some(4),
        ..ctx
    };
    pin(
        "decay --shards 4",
        decay::run(&decay::DecayConfig::quick(), &sharded).render(),
    );
    pin(
        "robustness --shards 4",
        robustness::run(&robustness::RobustnessConfig::quick(), &sharded).render(),
    );
    pin(
        "faults --shards 4",
        faults::run(&faults::FaultsConfig::quick(), &sharded).render(),
    );

    let disk = RunContext {
        backend: Backend::Disk,
        ..ctx
    };
    pin(
        "decay --backend disk",
        decay::run(&decay::DecayConfig::quick(), &disk).render(),
    );

    let digest = |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.1);
    assert_eq!(
        digest("decay --backend disk"),
        digest("decay"),
        "the disk backend changed decay's tables"
    );
    let table: String = rows
        .iter()
        .map(|(name, h)| format!("    ({name:?}, 0x{h:016x}),\n"))
        .collect();
    let pinned: String = PINNED
        .iter()
        .map(|(name, h)| format!("    ({name:?}, 0x{h:016x}),\n"))
        .collect();
    assert_eq!(
        table, pinned,
        "xp output changed; the computed table is:\n{table}"
    );
}
