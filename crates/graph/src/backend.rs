//! Adjacency backend selection: [`run_with_backend`] runs one computation
//! against a CSR [`Graph`], its [`CompressedGraph`] re-encoding, or a
//! [`DiskGraph`] paging a temporary shard directory. Both `xp --backend`
//! and `mis-serve` requests select a backend through it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::{stream, CompressedGraph, DiskGraph, Graph, GraphView};

/// Counter making the per-process shard directories of the disk backend
/// unique.
static DISK_DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// The adjacency backend a simulation reads its topology from.
///
/// Backends change only *where adjacency lives* — never the elected MIS:
/// all three serve the same neighbour lists through [`GraphView`], so
/// outcomes are bit-identical across this choice (pinned by
/// `tests/backend_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// In-RAM compressed sparse rows — fastest, biggest (the default).
    #[default]
    Csr,
    /// In-RAM delta-varint blocks ([`CompressedGraph`]): ≥2× fewer
    /// adjacency bytes per node on regular topologies, slower decode.
    Compressed,
    /// Paged from an on-disk shard directory ([`DiskGraph`]): graphs
    /// larger than RAM, slowest.
    Disk,
}

impl Backend {
    /// Parses a backend name (`csr`, `compressed` or `disk`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "csr" => Some(Backend::Csr),
            "compressed" => Some(Backend::Compressed),
            "disk" => Some(Backend::Disk),
            _ => None,
        }
    }

    /// The name [`parse`](Self::parse) reads back.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Csr => "csr",
            Backend::Compressed => "compressed",
            Backend::Disk => "disk",
        }
    }
}

/// A simulation (or any graph computation) abstracted over the adjacency
/// backend. [`GraphView`] has generic methods, so it is not object-safe
/// and a `&dyn` can't cross this seam — implementors get the concrete
/// view through a generic method instead.
pub trait BackendOp {
    /// What the computation produces.
    type Out;
    /// Runs the computation against one concrete adjacency backend.
    fn run<G: GraphView + ?Sized>(self, g: &G) -> Self::Out;
}

/// Runs `op` against `g` served through `backend`: the CSR graph itself,
/// a [`CompressedGraph`] re-encoding, or a [`DiskGraph`] paging a
/// temporary `xp-disk-backend-<pid>-<n>` shard directory (written, used,
/// and removed per call).
///
/// # Panics
///
/// Panics if the disk backend cannot write or reopen its temporary shard
/// directory.
pub fn run_with_backend<Op: BackendOp>(g: &Graph, backend: Backend, op: Op) -> Op::Out {
    match backend {
        Backend::Csr => op.run(g),
        Backend::Compressed => op.run(&CompressedGraph::from_view(g)),
        Backend::Disk => {
            // Declared before `disk`, so it is dropped after it: the
            // directory goes even when the write, the open or `op` panics.
            let dir = ShardDir(std::env::temp_dir().join(format!(
                "xp-disk-backend-{}-{}",
                std::process::id(),
                DISK_DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
            )));
            stream::write_sharded_from_view(&dir.0, g, stream::DEFAULT_NODES_PER_SHARD)
                .expect("write disk-backend shard directory");
            let disk = DiskGraph::open(&dir.0).expect("reopen disk-backend shard directory");
            op.run(&disk)
        }
    }
}

/// A disk-backend shard directory, removed when dropped.
struct ShardDir(PathBuf);

impl Drop for ShardDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Csr, Backend::Compressed, Backend::Disk] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("ram"), None);
    }
}
