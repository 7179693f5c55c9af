//! Per-run digests and the committed digests of the default seed.

use std::fmt::Write as _;

use mis_graph::NodeId;

use crate::report::Gate;
use crate::Ctx;

/// What one run produced, small enough to keep for every seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunDigest {
    pub rounds: u32,
    pub mis_size: usize,
    /// FNV-1a over the sorted MIS node ids.
    pub mis_hash: u64,
    pub terminated: bool,
}

impl RunDigest {
    pub fn of(rounds: u32, terminated: bool, mis: &[NodeId]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in mis {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Self {
            rounds,
            mis_size: mis.len(),
            mis_hash: h,
            terminated,
        }
    }
}

/// Compares `(key, rounds, MIS size)` rows with the committed file
/// `expected/<workload>.txt` when the run uses [`crate::DEFAULT_SEED`];
/// `--bless` rewrites the file instead.
pub fn check_committed(ctx: &Ctx, rows: &[(String, u32, usize)], gate: &mut Gate) {
    if ctx.seed != crate::DEFAULT_SEED {
        return;
    }
    let mut text = String::new();
    for (key, rounds, size) in rows {
        writeln!(text, "{key} {rounds} {size}").expect("write to string");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.txt", ctx.workload));
    if ctx.bless {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create expected/");
        std::fs::write(&path, &text).expect("write digests");
        println!("# blessed {} rows into {}", rows.len(), path.display());
    } else {
        let committed = std::fs::read_to_string(&path).unwrap_or_default();
        gate.check(committed == text, || {
            format!("per-seed digests differ from {}", path.display())
        });
    }
}
