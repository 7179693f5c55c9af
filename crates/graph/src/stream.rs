//! Out-of-core graph streaming: the binary shard format, the bounded-memory
//! [`ShardWriter`], and the paged [`DiskGraph`] reader.
//!
//! The scale tier decouples graph **generation** from graph **residency**.
//! Generators emit an edge stream (see the `*_edges` variants in
//! [`generators`](crate::generators)); [`ShardWriter`] tees each edge into
//! per-shard spill files and, at [`finish`](ShardWriter::finish), converts
//! one shard at a time into the block-compressed format of
//! [`compressed`](crate::compressed) — peak memory is one shard's
//! half-edges, never the whole graph. [`write_sharded_from_view`] writes a
//! graph already in RAM. Both writers run one loop that encodes each shard
//! with the block encoder behind
//! [`CompressedGraph`](crate::CompressedGraph), writes its file, and
//! writes `meta.bin` last.
//!
//! [`DiskGraph`] is the one reader of the format. It serves the directory
//! page by page, keeping only an LRU cache of sealed blocks resident, so
//! graphs larger than RAM stream through a run. Each block is validated in
//! one pass over its bytes when it is read from disk, and its nodes are
//! then read in place; a pass over many nodes reads through one
//! [`DiskCursor`], which keeps its current block, so the nodes of one
//! block cost one cache lookup. A directory that fits in RAM after all is
//! loaded as `CompressedGraph::from_view(&DiskGraph::open(dir)?)`, one
//! cache lookup per block.
//!
//! Everything here is `std::fs` only — no external dependencies.
//!
//! # On-disk layout
//!
//! A sharded graph is a directory:
//!
//! ```text
//! meta.bin          magic "MISGRPH1", version 2, node/edge counts,
//!                   max degree, nodes per shard, shard count  (u64 LE)
//! shard-00000.bin   magic "MISSHRD1", shard id, first node, node span,
//!                   degree sum, max degree, block count  (u64 LE),
//!                   block offset table, sealed blocks
//! shard-00001.bin   …
//! ```
//!
//! Shard files hold word-aligned blocks in the exact byte format of
//! [`CompressedGraph`](crate::CompressedGraph). `nodes_per_shard` must be
//! a positive multiple of the block size so shard boundaries coincide with
//! block boundaries. [`DiskGraph::open`] checks every shard header, block
//! offsets included (they must start at 0, ascend and end within the
//! file), and that the shards' degree sums add up to twice `meta.bin`'s
//! edge count and their maximum degrees peak at its Δ.
//!
//! # Examples
//!
//! Stream a torus to shards, page it, and load it into RAM:
//!
//! ```no_run
//! use mis_graph::{generators, CompressedGraph, DiskGraph, GraphView, ShardWriter};
//!
//! let dir = std::env::temp_dir().join("torus-shards");
//! let mut w = ShardWriter::create(&dir, 30 * 30, 256)?;
//! generators::torus2d_edges(30, 30, |u, v| w.add_edge(u, v));
//! let summary = w.finish()?;
//! assert_eq!(summary.edge_count, 2 * 900);
//!
//! let paged = DiskGraph::open(&dir)?;
//! let in_ram = CompressedGraph::from_view(&paged);
//! assert_eq!(in_ram.edge_count(), paged.edge_count());
//! # Ok::<(), mis_graph::StreamError>(())
//! ```

use core::fmt;
use core::ops::ControlFlow;
use std::fs::{self, File};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::compressed::{validate_block, BlockEncoder, BlockReader, BLOCK_NODES};
use crate::{GraphError, GraphView, NeighborCursor, NodeId};

const META_MAGIC: &[u8; 8] = b"MISGRPH1";
const SHARD_MAGIC: &[u8; 8] = b"MISSHRD1";
const META_VERSION: u64 = 2;

/// Default shard granularity: 2²⁰ nodes (a multiple of the block size).
pub const DEFAULT_NODES_PER_SHARD: usize = 1 << 20;

/// Default number of blocks a [`DiskGraph`] keeps resident: validated
/// sealed blocks of 64 nodes each, held in their on-disk bytes.
pub const DEFAULT_CACHE_BLOCKS: usize = 1024;

/// Errors from the streaming layer: invalid graph input, I/O failures, or
/// a malformed/corrupt shard directory.
#[derive(Debug)]
#[non_exhaustive]
pub enum StreamError {
    /// The edge stream violated the simple-graph contract (self-loop,
    /// out-of-range endpoint) or a parser rejected its input.
    Graph(GraphError),
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A shard directory is malformed or internally inconsistent.
    Format {
        /// The offending file.
        path: PathBuf,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Graph(e) => write!(f, "invalid graph stream: {e}"),
            StreamError::Io(e) => write!(f, "I/O error: {e}"),
            StreamError::Format { path, reason } => {
                write!(f, "malformed shard file {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Graph(e) => Some(e),
            StreamError::Io(e) => Some(e),
            StreamError::Format { .. } => None,
        }
    }
}

impl From<GraphError> for StreamError {
    fn from(e: GraphError) -> Self {
        StreamError::Graph(e)
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

/// What a [`ShardWriter`] produced: the header facts of `meta.bin` plus
/// the total on-disk adjacency footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGraphSummary {
    /// Number of nodes.
    pub node_count: usize,
    /// Number of distinct undirected edges (after deduplication).
    pub edge_count: usize,
    /// Maximum degree Δ.
    pub max_degree: usize,
    /// Shard granularity the directory was written with.
    pub nodes_per_shard: usize,
    /// Number of shard files.
    pub shard_count: usize,
    /// On-disk adjacency bytes (sealed blocks plus block offset tables).
    pub adjacency_bytes: u64,
}

fn shard_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("shard-{s:05}.bin"))
}

fn spill_path(dir: &Path, s: usize) -> PathBuf {
    dir.join(format!("spill-{s:05}.tmp"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.bin")
}

fn write_u64<W: Write>(w: &mut W, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

fn format_err(path: &Path, reason: impl Into<String>) -> StreamError {
    StreamError::Format {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Writes one shard file from its sealed encoder and returns its on-disk
/// adjacency bytes (data plus offset table).
fn write_shard_file(
    path: &Path,
    shard_id: usize,
    first_node: usize,
    node_span: usize,
    encoder: &BlockEncoder,
) -> io::Result<u64> {
    let mut f = BufWriter::new(File::create(path)?);
    f.write_all(SHARD_MAGIC)?;
    write_u64(&mut f, shard_id as u64)?;
    write_u64(&mut f, first_node as u64)?;
    write_u64(&mut f, node_span as u64)?;
    write_u64(&mut f, encoder.degree_sum as u64)?;
    write_u64(&mut f, encoder.max_degree as u64)?;
    write_u64(&mut f, (encoder.block_starts.len() - 1) as u64)?;
    for &off in &encoder.block_starts {
        write_u64(&mut f, off)?;
    }
    f.write_all(&encoder.data)?;
    f.flush()?;
    Ok(encoder.data.len() as u64 + encoder.block_starts.len() as u64 * 8)
}

fn write_meta_file(dir: &Path, summary: &ShardedGraphSummary) -> io::Result<()> {
    let mut f = BufWriter::new(File::create(meta_path(dir))?);
    f.write_all(META_MAGIC)?;
    write_u64(&mut f, META_VERSION)?;
    write_u64(&mut f, summary.node_count as u64)?;
    write_u64(&mut f, summary.edge_count as u64)?;
    write_u64(&mut f, summary.max_degree as u64)?;
    write_u64(&mut f, summary.nodes_per_shard as u64)?;
    write_u64(&mut f, summary.shard_count as u64)?;
    f.flush()
}

/// The one shard-writing loop, behind [`ShardWriter::finish`] and
/// [`write_sharded_from_view`]. For each shard, `fill(first, span, encoder)`
/// pushes nodes `first..first + span` into a fresh encoder; the sealed
/// blocks become the shard file. `meta.bin` is written last, from the
/// summed degrees.
fn write_shards(
    dir: &Path,
    node_count: usize,
    nodes_per_shard: usize,
    mut fill: impl FnMut(usize, usize, &mut BlockEncoder) -> Result<(), StreamError>,
) -> Result<ShardedGraphSummary, StreamError> {
    let shard_count = node_count.div_ceil(nodes_per_shard);
    let mut degree_sum = 0usize;
    let mut max_degree = 0usize;
    let mut adjacency_bytes = 0u64;
    for s in 0..shard_count {
        let first = s * nodes_per_shard;
        let span = nodes_per_shard.min(node_count - first);
        let mut encoder = BlockEncoder::new();
        fill(first, span, &mut encoder)?;
        encoder.seal();
        degree_sum += encoder.degree_sum;
        max_degree = max_degree.max(encoder.max_degree);
        adjacency_bytes += write_shard_file(&shard_path(dir, s), s, first, span, &encoder)?;
    }
    debug_assert!(degree_sum.is_multiple_of(2), "half-edges must pair up");
    let summary = ShardedGraphSummary {
        node_count,
        edge_count: degree_sum / 2,
        max_degree,
        nodes_per_shard,
        shard_count,
        adjacency_bytes,
    };
    write_meta_file(dir, &summary)?;
    Ok(summary)
}

/// Bounded-memory writer for the sharded on-disk format.
///
/// Feed it an edge stream in any order via [`add_edge`](Self::add_edge);
/// each edge is teed to the spill files of both endpoint shards, so peak
/// memory during streaming is a handful of write buffers. At
/// [`finish`](Self::finish) each shard is sorted, deduplicated and sealed
/// into blocks independently — peak memory is one shard's half-edges, not
/// the graph's.
///
/// Errors discovered mid-stream (self-loops, out-of-range endpoints, I/O
/// failures) are latched and reported by `finish`, so edge-emitting
/// closures stay infallible. Spill files are removed on `finish` and on
/// drop.
pub struct ShardWriter {
    dir: PathBuf,
    node_count: usize,
    nodes_per_shard: usize,
    spills: Vec<BufWriter<File>>,
    error: Option<StreamError>,
    finished: bool,
}

impl ShardWriter {
    /// Creates a shard directory (and any missing parents) for a graph
    /// with `node_count` nodes at `nodes_per_shard` granularity.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Graph`] if `node_count` exceeds the `u32`
    /// index space and [`StreamError::Io`] for filesystem failures.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_shard` is zero or not a multiple of the block
    /// size ([`BLOCK_NODES`]).
    pub fn create(
        dir: impl AsRef<Path>,
        node_count: usize,
        nodes_per_shard: usize,
    ) -> Result<Self, StreamError> {
        assert!(
            nodes_per_shard > 0 && nodes_per_shard.is_multiple_of(BLOCK_NODES),
            "nodes_per_shard must be a positive multiple of {BLOCK_NODES}"
        );
        if node_count > u32::MAX as usize {
            return Err(GraphError::TooManyNodes {
                requested: node_count,
            }
            .into());
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let shard_count = node_count.div_ceil(nodes_per_shard);
        let mut spills = Vec::with_capacity(shard_count);
        for s in 0..shard_count {
            spills.push(BufWriter::new(File::create(spill_path(&dir, s))?));
        }
        Ok(Self {
            dir,
            node_count,
            nodes_per_shard,
            spills,
            error: None,
            finished: false,
        })
    }

    /// Number of shard files the directory will contain.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.spills.len()
    }

    /// Streams one undirected edge, in any orientation; duplicates are
    /// merged at [`finish`](Self::finish). Invalid edges and I/O failures
    /// latch the first error for `finish` to report, so this never fails
    /// mid-stream.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        if self.error.is_some() {
            return;
        }
        if u == v {
            self.error = Some(GraphError::SelfLoop { node: u }.into());
            return;
        }
        for w in [u, v] {
            if w as usize >= self.node_count {
                self.error = Some(
                    GraphError::NodeOutOfRange {
                        node: w,
                        node_count: self.node_count,
                    }
                    .into(),
                );
                return;
            }
        }
        let mut rec = [0u8; 8];
        for (node, nbr) in [(u, v), (v, u)] {
            rec[..4].copy_from_slice(&node.to_le_bytes());
            rec[4..].copy_from_slice(&nbr.to_le_bytes());
            let shard = node as usize / self.nodes_per_shard;
            if let Err(e) = self.spills[shard].write_all(&rec) {
                self.error = Some(e.into());
                return;
            }
        }
    }

    /// The first error latched by [`add_edge`](Self::add_edge), if any.
    #[must_use]
    pub fn error(&self) -> Option<&StreamError> {
        self.error.as_ref()
    }

    /// Sorts, deduplicates and seals every shard, writes `meta.bin`, and
    /// removes the spill files.
    ///
    /// # Errors
    ///
    /// Returns the first latched [`add_edge`](Self::add_edge) error, or
    /// any I/O error from sealing the shards.
    pub fn finish(mut self) -> Result<ShardedGraphSummary, StreamError> {
        self.finished = true;
        let result = self.finish_inner();
        self.cleanup_spills();
        result
    }

    fn finish_inner(&mut self) -> Result<ShardedGraphSummary, StreamError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        for spill in &mut self.spills {
            spill.flush()?;
        }
        self.spills.clear(); // close the spill handles
        let dir = &self.dir;
        let nodes_per_shard = self.nodes_per_shard;
        let mut neighbors: Vec<NodeId> = Vec::new();
        write_shards(dir, self.node_count, nodes_per_shard, |first, span, enc| {
            let spill = spill_path(dir, first / nodes_per_shard);
            let bytes = fs::read(&spill)?;
            if !bytes.len().is_multiple_of(8) {
                return Err(format_err(&spill, "truncated spill record"));
            }
            let mut recs: Vec<(NodeId, NodeId)> = bytes
                .chunks_exact(8)
                .map(|c| {
                    (
                        u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                        u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    )
                })
                .collect();
            drop(bytes);
            recs.sort_unstable();
            recs.dedup();
            let mut i = 0usize;
            for v in first..first + span {
                let v = v as NodeId;
                neighbors.clear();
                while i < recs.len() && recs[i].0 == v {
                    neighbors.push(recs[i].1);
                    i += 1;
                }
                enc.push(v, &neighbors);
            }
            let _ = fs::remove_file(&spill);
            Ok(())
        })
    }

    fn cleanup_spills(&mut self) {
        self.spills.clear();
        let shard_count = self.node_count.div_ceil(self.nodes_per_shard);
        for s in 0..shard_count {
            let _ = fs::remove_file(spill_path(&self.dir, s));
        }
    }
}

impl Drop for ShardWriter {
    fn drop(&mut self) {
        if !self.finished {
            self.cleanup_spills();
        }
    }
}

impl fmt::Debug for ShardWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardWriter")
            .field("dir", &self.dir)
            .field("nodes", &self.node_count)
            .field("nodes_per_shard", &self.nodes_per_shard)
            .field("shards", &self.shard_count())
            .finish()
    }
}

/// Writes an already-resident [`GraphView`] to the sharded format without
/// spill files: each shard is encoded straight from the view, read through
/// one cursor, in the same shard loop as [`ShardWriter::finish`]. Produces
/// byte-identical files to streaming the same graph's edges through a
/// [`ShardWriter`].
///
/// # Errors
///
/// Returns [`StreamError::Io`] for filesystem failures.
///
/// # Panics
///
/// Panics if `nodes_per_shard` is zero or not a multiple of the block
/// size, or if a neighbour list breaks the adjacency contract, as in
/// [`CompressedGraph::from_view`](crate::CompressedGraph::from_view).
pub fn write_sharded_from_view<G: GraphView + ?Sized>(
    dir: impl AsRef<Path>,
    g: &G,
    nodes_per_shard: usize,
) -> Result<ShardedGraphSummary, StreamError> {
    assert!(
        nodes_per_shard > 0 && nodes_per_shard.is_multiple_of(BLOCK_NODES),
        "nodes_per_shard must be a positive multiple of {BLOCK_NODES}"
    );
    let node_count = g.node_count();
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let mut cursor = g.cursor();
    write_shards(dir, node_count, nodes_per_shard, |first, span, enc| {
        enc.push_from(
            &mut cursor,
            first as NodeId..(first + span) as NodeId,
            node_count,
        );
        Ok(())
    })
}

/// Parsed `meta.bin` plus derived shard geometry.
struct MetaFile {
    node_count: usize,
    edge_count: usize,
    max_degree: usize,
    nodes_per_shard: usize,
    shard_count: usize,
}

fn read_meta(dir: &Path) -> Result<MetaFile, StreamError> {
    let path = meta_path(dir);
    let mut f = File::open(&path)?;
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != META_MAGIC {
        return Err(format_err(&path, "bad magic (not a sharded graph)"));
    }
    let version = read_u64(&mut f)?;
    if version != META_VERSION {
        return Err(format_err(&path, format!("unsupported version {version}")));
    }
    let node_count = read_u64(&mut f)? as usize;
    let edge_count = read_u64(&mut f)? as usize;
    let max_degree = read_u64(&mut f)? as usize;
    let nodes_per_shard = read_u64(&mut f)? as usize;
    let shard_count = read_u64(&mut f)? as usize;
    if node_count > u32::MAX as usize {
        return Err(format_err(&path, "node count exceeds u32 index space"));
    }
    if nodes_per_shard == 0 || !nodes_per_shard.is_multiple_of(BLOCK_NODES) {
        return Err(format_err(&path, "invalid nodes_per_shard"));
    }
    if shard_count != node_count.div_ceil(nodes_per_shard) {
        return Err(format_err(&path, "shard count disagrees with node count"));
    }
    Ok(MetaFile {
        node_count,
        edge_count,
        max_degree,
        nodes_per_shard,
        shard_count,
    })
}

/// What a shard header records past its identity fields: the degree sum
/// and maximum degree its writer sealed, and its block offsets.
struct ShardHeader {
    degree_sum: u64,
    max_degree: u64,
    block_starts: Vec<u64>,
}

/// Reads one shard header (magic through the offset table), leaving the
/// file positioned at the start of the block data. The offsets are checked
/// to start at 0, ascend and end within the file.
fn read_shard_header(
    f: &mut File,
    path: &Path,
    shard_id: usize,
    expect_first: usize,
    expect_span: usize,
) -> Result<ShardHeader, StreamError> {
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != SHARD_MAGIC {
        return Err(format_err(path, "bad shard magic"));
    }
    if read_u64(f)? as usize != shard_id {
        return Err(format_err(path, "shard id mismatch"));
    }
    if read_u64(f)? as usize != expect_first {
        return Err(format_err(path, "first-node mismatch"));
    }
    if read_u64(f)? as usize != expect_span {
        return Err(format_err(path, "node-span mismatch"));
    }
    let degree_sum = read_u64(f)?;
    let max_degree = read_u64(f)?;
    let block_count = read_u64(f)? as usize;
    if block_count != expect_span.div_ceil(BLOCK_NODES) {
        return Err(format_err(path, "block count disagrees with node span"));
    }
    let mut block_starts = Vec::with_capacity(block_count + 1);
    for _ in 0..=block_count {
        block_starts.push(read_u64(f)?);
    }
    // The writer puts block 0 at the start of the data: any other first
    // offset is a corrupt table.
    if block_starts[0] != 0 {
        return Err(format_err(path, "first block offset is not 0"));
    }
    for pair in block_starts.windows(2) {
        if pair[0] > pair[1] {
            return Err(format_err(path, "block offsets not ascending"));
        }
    }
    // A miss sizes its read buffer from these offsets: a corrupt one must
    // fail here, not as an allocation abort or a mid-run read panic.
    let data_len = f.metadata()?.len().saturating_sub(f.stream_position()?);
    if *block_starts.last().expect("offsets never empty") > data_len {
        return Err(format_err(
            path,
            "block offsets run past the end of the file",
        ));
    }
    Ok(ShardHeader {
        degree_sum,
        max_degree,
        block_starts,
    })
}

struct DiskShard {
    first_block: usize,
    data_start: u64,
    block_starts: Vec<u64>,
}

/// The end of the recency list, and the slot of a block not resident.
const NIL: u32 = u32::MAX;

/// One resident block: its validated sealed bytes and its place on the
/// recency list.
struct Slot {
    block: usize,
    bytes: Arc<[u8]>,
    /// The next more recently used slot (`NIL` at the head).
    newer: u32,
    /// The next less recently used slot (`NIL` at the tail).
    older: u32,
}

struct DiskState {
    files: Vec<File>,
    /// The resident blocks, in no order; the recency list links them by
    /// index from `head` (most recently used) to `tail`.
    slots: Vec<Slot>,
    /// Per block of the graph: its slot, or `NIL` when not resident.
    slot_of: Vec<u32>,
    head: u32,
    tail: u32,
    /// Read buffer of a miss, validated before it is cached.
    buffer: Vec<u8>,
    hits: u64,
    misses: u64,
}

impl DiskState {
    /// Takes slot `s` off the recency list.
    fn unlink(&mut self, s: u32) {
        let Slot { newer, older, .. } = self.slots[s as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    /// Puts slot `s` at the head of the recency list.
    fn push_front(&mut self, s: u32) {
        let head = self.head;
        let slot = &mut self.slots[s as usize];
        slot.newer = NIL;
        slot.older = head;
        match head {
            NIL => self.tail = s,
            h => self.slots[h as usize].newer = s,
        }
        self.head = s;
    }

    /// Serves block `b` from the cache if it is resident, making it the
    /// most recently used.
    fn lookup(&mut self, b: usize) -> Option<Arc<[u8]>> {
        let s = self.slot_of[b];
        if s == NIL {
            return None;
        }
        self.hits += 1;
        if s != self.head {
            self.unlink(s);
            self.push_front(s);
        }
        Some(Arc::clone(&self.slots[s as usize].bytes))
    }

    /// Caches block `b` as the most recently used. It must not be
    /// resident, and the cache must have room.
    fn insert(&mut self, b: usize, bytes: Arc<[u8]>) {
        let s = u32::try_from(self.slots.len()).expect("slot index fits u32");
        self.slots.push(Slot {
            block: b,
            bytes,
            newer: NIL,
            older: NIL,
        });
        self.slot_of[b] = s;
        self.push_front(s);
    }

    /// Evicts least-recently-used blocks until at most `cap` stay
    /// resident.
    fn evict_to(&mut self, cap: usize) {
        while self.slots.len() > cap {
            let victim = self.tail;
            self.unlink(victim);
            let evicted = self.slots.swap_remove(victim as usize);
            self.slot_of[evicted.block] = NIL;
            // The last slot moved into `victim`'s place: repoint its
            // neighbours on the list and its block.
            if let Some(moved) = self.slots.get(victim as usize) {
                let Slot {
                    block,
                    newer,
                    older,
                    ..
                } = *moved;
                match newer {
                    NIL => self.head = victim,
                    n => self.slots[n as usize].older = victim,
                }
                match older {
                    NIL => self.tail = victim,
                    o => self.slots[o as usize].newer = victim,
                }
                self.slot_of[block] = victim;
            }
        }
    }
}

/// Hit/miss counters of a [`DiskGraph`]'s block cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskCacheStats {
    /// Block requests served from the resident cache.
    pub hits: u64,
    /// Block requests that read a block from disk and validated it.
    pub misses: u64,
}

/// A paged, read-only graph served from a shard directory: adjacency
/// stays on disk and only an LRU cache of sealed blocks (64 nodes each)
/// is resident, so graphs larger than RAM stream through a simulation.
///
/// A miss reads the block's bytes and validates them in one pass (layout,
/// ascending lists, no self-loops, endpoints in range), re-reads after
/// eviction included; nodes are then read in place from the cached bytes.
/// A hit moves the block to the head of an index-linked recency list, and
/// a miss evicts its tail, both in O(1). Per-node calls look the block up
/// each time; a [`DiskCursor`] from [`cursor`](GraphView::cursor) keeps
/// its current block, so the simulators' passes pay one lookup per run of
/// reads inside a block.
///
/// Implements [`GraphView`], so kernels, engines, views and the sharded
/// batch machinery run on it unchanged. `edge_count`/`max_degree` come
/// from the `meta.bin` header in O(1) rather than the trait's degree-scan
/// defaults; [`open`](Self::open) checks them against the degree sums and
/// maxima of the shard headers.
///
/// Shard headers are validated at [`open`](Self::open); an I/O failure or
/// corrupt block encountered **mid-run** panics, since [`GraphView`]
/// accessors cannot report errors.
pub struct DiskGraph {
    node_count: usize,
    edge_count: usize,
    max_degree: usize,
    nodes_per_shard: usize,
    adjacency_bytes: u64,
    shards: Vec<DiskShard>,
    cache_blocks: usize,
    state: Mutex<DiskState>,
}

impl DiskGraph {
    /// Opens a shard directory, validating `meta.bin` and every shard
    /// header, in O(shards) and without reading a block (each block's
    /// payload is validated whenever it is read). The shards' degree sums
    /// must add up to twice `meta.bin`'s edge count and their maximum
    /// degrees must peak at its Δ.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::Io`] for filesystem failures and
    /// [`StreamError::Format`] for malformed directories.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StreamError> {
        let dir = dir.as_ref();
        let meta = read_meta(dir)?;
        let mut shards = Vec::with_capacity(meta.shard_count);
        let mut files = Vec::with_capacity(meta.shard_count);
        let mut adjacency_bytes = 0u64;
        let mut degree_sum = 0u64;
        let mut max_degree = 0u64;
        for s in 0..meta.shard_count {
            let path = shard_path(dir, s);
            let first = s * meta.nodes_per_shard;
            let span = meta.nodes_per_shard.min(meta.node_count - first);
            let mut f = File::open(&path)?;
            let header = read_shard_header(&mut f, &path, s, first, span)?;
            degree_sum = degree_sum
                .checked_add(header.degree_sum)
                .ok_or_else(|| format_err(&path, "degree sums overflow u64"))?;
            max_degree = max_degree.max(header.max_degree);
            let block_starts = header.block_starts;
            let data_start = f.stream_position()?;
            adjacency_bytes +=
                block_starts.last().expect("offsets never empty") + block_starts.len() as u64 * 8;
            shards.push(DiskShard {
                first_block: first / BLOCK_NODES,
                data_start,
                block_starts,
            });
            files.push(f);
        }
        // `edge_count` and `max_degree` are served from `meta.bin`, so
        // they must agree with what the writer sealed into the shards.
        if (meta.edge_count as u64).checked_mul(2) != Some(degree_sum)
            || meta.max_degree as u64 != max_degree
        {
            return Err(format_err(
                &meta_path(dir),
                "edge count or max degree disagrees with the shard headers",
            ));
        }
        Ok(Self {
            node_count: meta.node_count,
            edge_count: meta.edge_count,
            max_degree: meta.max_degree,
            nodes_per_shard: meta.nodes_per_shard,
            adjacency_bytes,
            shards,
            cache_blocks: DEFAULT_CACHE_BLOCKS,
            state: Mutex::new(DiskState {
                files,
                slots: Vec::new(),
                slot_of: vec![NIL; meta.node_count.div_ceil(BLOCK_NODES)],
                head: NIL,
                tail: NIL,
                buffer: Vec::new(),
                hits: 0,
                misses: 0,
            }),
        })
    }

    /// Sets the cache capacity in sealed blocks (≥ 1), evicting the least
    /// recently used ones beyond it. 64 nodes per block: the default of
    /// [`DEFAULT_CACHE_BLOCKS`] keeps ~65k nodes of adjacency resident.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn with_cache_blocks(mut self, blocks: usize) -> Self {
        self.cache_blocks = blocks.max(1);
        self.state
            .lock()
            .expect("disk graph lock")
            .evict_to(self.cache_blocks);
        self
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges (from the header, O(1)).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Maximum degree Δ (from the header, O(1)).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// **On-disk** adjacency bytes (sealed blocks plus offset tables) —
    /// what the directory occupies, not what is resident.
    #[must_use]
    pub fn adjacency_bytes(&self) -> usize {
        self.adjacency_bytes as usize
    }

    /// Approximate resident bytes: the block offset tables and the
    /// block-to-slot index, plus the cache at capacity — `cache_blocks`
    /// blocks (every block, if the graph has fewer) of the mean sealed
    /// block size, the directory's block bytes over its block count.
    #[must_use]
    pub fn resident_bytes_estimate(&self) -> usize {
        let blocks = self.node_count.div_ceil(BLOCK_NODES);
        let offsets: usize = self.shards.iter().map(|s| s.block_starts.len()).sum();
        let tables = offsets * core::mem::size_of::<u64>() + blocks * core::mem::size_of::<u32>();
        let sealed: u64 = self
            .shards
            .iter()
            .map(|s| s.block_starts.last().expect("offsets never empty"))
            .sum();
        let mean_block = if blocks == 0 {
            0.0
        } else {
            sealed as f64 / blocks as f64
        };
        tables + (self.cache_blocks.min(blocks) as f64 * mean_block) as usize
    }

    /// Cache hit/miss counters accumulated since `open`.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn cache_stats(&self) -> DiskCacheStats {
        let st = self.state.lock().expect("disk graph lock");
        DiskCacheStats {
            hits: st.hits,
            misses: st.misses,
        }
    }

    /// Fetches block `b`'s validated sealed bytes: from the cache, or on
    /// a miss from disk, validated and cached as the most recently used.
    fn fetch_block(&self, b: usize) -> Arc<[u8]> {
        let mut guard = self.state.lock().expect("disk graph lock");
        let st = &mut *guard;
        if let Some(bytes) = st.lookup(b) {
            return bytes;
        }
        st.misses += 1;
        let shard_idx = b * BLOCK_NODES / self.nodes_per_shard;
        let shard = &self.shards[shard_idx];
        let local = b - shard.first_block;
        let lo = shard.block_starts[local];
        let hi = shard.block_starts[local + 1];
        st.buffer.resize((hi - lo) as usize, 0);
        let file = &mut st.files[shard_idx];
        file.seek(SeekFrom::Start(shard.data_start + lo))
            .expect("seek shard block");
        file.read_exact(&mut st.buffer).expect("read shard block");
        let base = (b * BLOCK_NODES) as NodeId;
        if let Err(reason) = validate_block(&st.buffer, base, self.block_span(b), self.node_count) {
            panic!("corrupt shard block {b}: {reason}");
        }
        let bytes: Arc<[u8]> = Arc::from(&st.buffer[..]);
        st.evict_to(self.cache_blocks - 1);
        st.insert(b, Arc::clone(&bytes));
        bytes
    }

    /// Node span covered by block `b`.
    fn block_span(&self, b: usize) -> usize {
        (self.node_count - b * BLOCK_NODES).min(BLOCK_NODES)
    }

    fn assert_in_range(&self, v: NodeId) {
        assert!(
            (v as usize) < self.node_count,
            "node {v} out of range for graph with {} nodes",
            self.node_count
        );
    }
}

impl GraphView for DiskGraph {
    type Cursor<'a> = DiskCursor<'a>;

    fn cursor(&self) -> DiskCursor<'_> {
        DiskCursor {
            graph: self,
            current: None,
        }
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn degree(&self, v: NodeId) -> usize {
        self.cursor().degree(v)
    }

    fn try_for_each_neighbor<F>(&self, v: NodeId, f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        self.cursor().try_for_each_neighbor(v, f)
    }

    fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn max_degree(&self) -> usize {
        self.max_degree
    }

    fn is_empty(&self) -> bool {
        self.node_count == 0
    }
}

/// The [`NeighborCursor`] of a [`DiskGraph`]: it keeps the block it read
/// last, so consecutive reads inside one 64-node block cost one cache
/// lookup between them. A pass in ascending node order reads each block it
/// touches once. The kept block stays readable after the cache evicts it.
pub struct DiskCursor<'a> {
    graph: &'a DiskGraph,
    /// The block read last and its validated sealed bytes.
    current: Option<(usize, Arc<[u8]>)>,
}

impl DiskCursor<'_> {
    /// The reader of node `v`'s block, fetched unless it is the current
    /// one.
    fn block_of(&mut self, v: NodeId) -> BlockReader<'_> {
        self.graph.assert_in_range(v);
        let b = v as usize / BLOCK_NODES;
        if self
            .current
            .as_ref()
            .is_none_or(|(current, _)| *current != b)
        {
            self.current = Some((b, self.graph.fetch_block(b)));
        }
        let (_, bytes) = self.current.as_ref().expect("the current block is set");
        BlockReader::new(bytes, self.graph.block_span(b))
    }
}

impl NeighborCursor for DiskCursor<'_> {
    fn degree(&mut self, v: NodeId) -> usize {
        self.block_of(v).degree(v)
    }

    fn try_for_each_neighbor<F>(&mut self, v: NodeId, f: F) -> ControlFlow<()>
    where
        F: FnMut(NodeId) -> ControlFlow<()>,
    {
        self.block_of(v).try_for_each_neighbor(v, f)
    }
}

impl fmt::Debug for DiskCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskCursor")
            .field("block", &self.current.as_ref().map(|(b, _)| b))
            .finish_non_exhaustive()
    }
}

impl fmt::Debug for DiskGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiskGraph")
            .field("nodes", &self.node_count)
            .field("edges", &self.edge_count)
            .field("max_degree", &self.max_degree)
            .field("shards", &self.shards.len())
            .field("cache_blocks", &self.cache_blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, CompressedGraph, Graph};
    use rand::{rngs::SmallRng, SeedableRng};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp directory per test, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(label: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "mis-graph-stream-{label}-{}-{n}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn stream_graph(g: &Graph, dir: &Path, nodes_per_shard: usize) -> ShardedGraphSummary {
        let mut w = ShardWriter::create(dir, g.node_count(), nodes_per_shard).unwrap();
        for (u, v) in g.edges() {
            w.add_edge(u, v);
        }
        w.finish().unwrap()
    }

    fn assert_view_matches_graph<G: GraphView + ?Sized>(view: &G, g: &Graph, label: &str) {
        assert_eq!(view.node_count(), g.node_count(), "{label}: nodes");
        assert_eq!(view.edge_count(), g.edge_count(), "{label}: edges");
        assert_eq!(view.max_degree(), Graph::max_degree(g), "{label}: Δ");
        for v in 0..g.node_count() as NodeId {
            assert_eq!(view.neighbors_vec(v), g.neighbors(v), "{label}: nbrs {v}");
        }
    }

    #[test]
    fn round_trips_paged_and_loaded_into_ram() {
        let mut rng = SmallRng::seed_from_u64(0x5CA1E);
        let graphs = [
            ("gnp", generators::gnp(300, 0.05, &mut rng)),
            ("torus", generators::torus2d(10, 13)),
            ("star", generators::star(200)),
            ("edgeless", Graph::empty(100)),
            ("empty", Graph::empty(0)),
        ];
        for (label, g) in &graphs {
            let tmp = TempDir::new(label);
            let summary = stream_graph(g, tmp.path(), 128);
            assert_eq!(summary.edge_count, g.edge_count(), "{label}");
            assert_eq!(summary.max_degree, g.max_degree(), "{label}");
            let disk = DiskGraph::open(tmp.path()).unwrap();
            assert_eq!(disk.cache_stats(), DiskCacheStats::default(), "{label}");
            // Loading into RAM reads each block once, through one cursor,
            // and encodes the bytes the CSR graph encodes to.
            let loaded = CompressedGraph::from_view(&disk);
            let stats = disk.cache_stats();
            let blocks = g.node_count().div_ceil(BLOCK_NODES) as u64;
            assert_eq!(stats.hits + stats.misses, blocks, "{label}: lookups");
            assert_eq!(loaded, CompressedGraph::from_view(g), "{label}");
            assert_view_matches_graph(&loaded, g, label);
            assert_view_matches_graph(&disk.with_cache_blocks(2), g, label);
        }
    }

    #[test]
    fn streamed_shards_match_view_written_shards() {
        let mut rng = SmallRng::seed_from_u64(42);
        let cases = [
            ("gnp", generators::gnp(500, 0.02, &mut rng), 192),
            ("torus", generators::torus2d(10, 13), 64),
            ("edgeless", Graph::empty(100), 64),
            ("empty", Graph::empty(0), 64),
            ("star", generators::star(200), 128),
        ];
        for (label, g, nodes_per_shard) in &cases {
            let streamed = TempDir::new("streamed");
            let from_view = TempDir::new("from-view");
            let a = stream_graph(g, streamed.path(), *nodes_per_shard);
            let b = write_sharded_from_view(from_view.path(), g, *nodes_per_shard).unwrap();
            assert_eq!(a, b, "{label}");
            for s in 0..a.shard_count {
                let left = fs::read(shard_path(streamed.path(), s)).unwrap();
                let right = fs::read(shard_path(from_view.path(), s)).unwrap();
                assert_eq!(left, right, "{label}: shard {s} bytes differ");
            }
            assert_eq!(
                fs::read(meta_path(streamed.path())).unwrap(),
                fs::read(meta_path(from_view.path())).unwrap(),
                "{label}: meta.bin differs"
            );
        }
    }

    #[test]
    fn duplicate_and_reversed_edges_merge() {
        let tmp = TempDir::new("dups");
        let mut w = ShardWriter::create(tmp.path(), 4, 64).unwrap();
        for _ in 0..3 {
            w.add_edge(0, 1);
            w.add_edge(1, 0);
        }
        w.add_edge(2, 3);
        let summary = w.finish().unwrap();
        assert_eq!(summary.edge_count, 2);
        let g = DiskGraph::open(tmp.path()).unwrap();
        assert_eq!(g.neighbors_vec(1), vec![0]);
    }

    #[test]
    fn writer_latches_self_loop_and_range_errors() {
        let tmp = TempDir::new("selfloop");
        let mut w = ShardWriter::create(tmp.path(), 4, 64).unwrap();
        w.add_edge(1, 1);
        w.add_edge(0, 2); // ignored after the latch
        assert!(w.error().is_some());
        assert!(matches!(
            w.finish(),
            Err(StreamError::Graph(GraphError::SelfLoop { node: 1 }))
        ));

        let tmp = TempDir::new("range");
        let mut w = ShardWriter::create(tmp.path(), 4, 64).unwrap();
        w.add_edge(0, 9);
        assert!(matches!(
            w.finish(),
            Err(StreamError::Graph(GraphError::NodeOutOfRange {
                node: 9,
                ..
            }))
        ));
    }

    #[test]
    fn spills_are_removed_even_without_finish() {
        let tmp = TempDir::new("drop");
        {
            let mut w = ShardWriter::create(tmp.path(), 200, 64).unwrap();
            w.add_edge(0, 199);
        }
        let leftovers: Vec<_> = fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "spill files survived drop");
    }

    #[test]
    fn open_rejects_corruption() {
        let tmp = TempDir::new("corrupt");
        let g = generators::torus2d(8, 8);
        stream_graph(&g, tmp.path(), 64);

        // Truncate the meta file.
        let meta = fs::read(meta_path(tmp.path())).unwrap();
        fs::write(meta_path(tmp.path()), &meta[..16]).unwrap();
        assert!(DiskGraph::open(tmp.path()).is_err());
        fs::write(meta_path(tmp.path()), &meta).unwrap();

        // Flip the shard magic.
        let shard = shard_path(tmp.path(), 0);
        let mut bytes = fs::read(&shard).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&shard, &bytes).unwrap();
        assert!(matches!(
            DiskGraph::open(tmp.path()),
            Err(StreamError::Format { .. })
        ));
        bytes[0] ^= 0xff;

        // Corrupt a block payload: open reads no block, and the first read
        // of the block validates it and panics.
        let last = bytes.len() - 9;
        bytes[last] = 0xff;
        fs::write(&shard, &bytes).unwrap();
        let disk = DiskGraph::open(tmp.path()).unwrap();
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| disk.degree(0)))
            .expect_err("a corrupt block was read");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with("corrupt shard block 0"), "{message}");

        // Block offsets out of range: a last offset of 2^56, a data section
        // cut short, and offsets shifted by 8 over 8 inserted bytes. Open
        // rejects each, instead of sizing a buffer from it or panicking
        // mid-run.
        stream_graph(&g, tmp.path(), 64);
        let valid = fs::read(&shard).unwrap();
        let table = 8 + 6 * 8; // magic and 6 header words; then offsets 0, 1
        let mut huge = valid.clone();
        huge[table + 8..table + 16].copy_from_slice(&(1u64 << 56).to_le_bytes());
        let mut shifted = valid.clone();
        for word in shifted[table..table + 16].chunks_exact_mut(8) {
            let offset = u64::from_le_bytes(word.try_into().unwrap()) + 8;
            word.copy_from_slice(&offset.to_le_bytes());
        }
        shifted.splice(table + 16..table + 16, [0u8; 8]);
        for corrupt in [&huge[..], &valid[..valid.len() - 8], &shifted[..]] {
            fs::write(&shard, corrupt).unwrap();
            assert!(matches!(
                DiskGraph::open(tmp.path()),
                Err(StreamError::Format { .. })
            ));
        }

        // Missing directory entirely.
        assert!(DiskGraph::open(tmp.path().join("nope")).is_err());
    }

    /// Overwrites the little-endian `u64` at byte `at` of `path`.
    fn overwrite_u64(path: &Path, at: usize, value: u64) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn open_rejects_header_statistics_that_disagree() {
        // Byte offsets of meta.bin's edge count and Δ (after the magic,
        // version and node count), and of a shard header's degree sum and
        // maximum degree (after the magic, id, first node and node span).
        const META_EDGES: usize = 8 + 2 * 8;
        const META_DELTA: usize = 8 + 3 * 8;
        const SHARD_SUM: usize = 8 + 3 * 8;
        const SHARD_MAX: usize = 8 + 4 * 8;
        let rejected = |dir: &Path| matches!(DiskGraph::open(dir), Err(StreamError::Format { .. }));
        // torus2d(8, 8) in one shard: 128 edges, Δ = 4.
        let tmp = TempDir::new("stats");
        let g = generators::torus2d(8, 8);
        let (meta, shard) = (meta_path(tmp.path()), shard_path(tmp.path(), 0));
        let cases: [(&Path, usize, u64); 7] = [
            (&meta, META_DELTA, 1000),
            (&meta, META_DELTA, 3),
            (&meta, META_EDGES, 129),
            (&meta, META_EDGES, (1 << 63) + 128), // twice it wraps to 256
            (&shard, SHARD_SUM, 258),
            (&shard, SHARD_SUM, u64::MAX),
            (&shard, SHARD_MAX, 5),
        ];
        for (path, at, value) in cases {
            stream_graph(&g, tmp.path(), 64);
            let disk = DiskGraph::open(tmp.path()).unwrap();
            assert_eq!((disk.edge_count(), disk.max_degree()), (128, 4));
            overwrite_u64(path, at, value);
            assert!(rejected(tmp.path()), "{} at {at} = {value}", path.display());
        }

        // torus2d(8, 16) in two shards of degree sum 256 each: sums that
        // overflow u64 when added, once to a wrong total and once wrapping
        // round to the right one.
        let tmp = TempDir::new("stats-overflow");
        let g = generators::torus2d(8, 16);
        let shards = [shard_path(tmp.path(), 0), shard_path(tmp.path(), 1)];
        for sums in [[256, u64::MAX - 100], [1 << 63, (1 << 63) + 512]] {
            stream_graph(&g, tmp.path(), 64);
            for (shard, sum) in shards.iter().zip(sums) {
                overwrite_u64(shard, SHARD_SUM, sum);
            }
            assert!(rejected(tmp.path()), "degree sums {sums:?}");
        }
    }

    #[test]
    fn lru_cache_evicts_and_counts() {
        let tmp = TempDir::new("lru");
        let g = generators::torus2d(16, 16); // 256 nodes = 4 blocks
        stream_graph(&g, tmp.path(), 64);
        // A cursor reads each block of a forward sweep once.
        let disk = DiskGraph::open(tmp.path()).unwrap().with_cache_blocks(2);
        let mut cursor = disk.cursor();
        for v in 0..g.node_count() as NodeId {
            assert_eq!(cursor.degree(v), 4);
        }
        let stats = disk.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 4), "a cursor sweep");
        // Per-node calls look the block up every time.
        let disk = DiskGraph::open(tmp.path()).unwrap().with_cache_blocks(2);
        for v in 0..g.node_count() as NodeId {
            assert_eq!(disk.degree(v), 4);
        }
        let stats = disk.cache_stats();
        assert_eq!(stats.misses, 4, "one miss per block on a forward scan");
        assert!(stats.hits >= 250);
        // A second pass with only 2 of 4 blocks resident must re-read.
        for v in 0..g.node_count() as NodeId {
            assert_eq!(disk.degree(v), 4);
        }
        assert!(disk.cache_stats().misses > 4, "eviction forces re-reads");
    }

    #[test]
    fn lru_evicts_the_least_recently_used_block() {
        let tmp = TempDir::new("lru-order");
        let g = generators::torus2d(16, 16); // 256 nodes = 4 blocks
        stream_graph(&g, tmp.path(), 64);
        let disk = DiskGraph::open(tmp.path()).unwrap().with_cache_blocks(2);
        let stats = |disk: &DiskGraph| {
            let s = disk.cache_stats();
            (s.hits, s.misses)
        };
        // Blocks touched: 0, 1, 0 (hit), 2 (evicts 1), 1 (evicts 0),
        // 0 (evicts 2), 2 (evicts 1).
        let trace = [
            (0, (0, 1)),
            (64, (0, 2)),
            (1, (1, 2)),
            (128, (1, 3)),
            (65, (1, 4)),
            (2, (1, 5)),
            (129, (1, 6)),
        ];
        for (v, expected) in trace {
            assert_eq!(disk.degree(v), 4);
            assert_eq!(stats(&disk), expected, "after degree({v})");
        }
        // Shrinking keeps only the most recent block (2) resident.
        let disk = disk.with_cache_blocks(1);
        assert_eq!(disk.degree(130), 4);
        assert_eq!(stats(&disk), (2, 6), "block 2 stayed resident");
        assert_eq!(disk.degree(3), 4);
        assert_eq!(stats(&disk), (2, 7), "block 0 was evicted");
    }

    /// What one read of node `v` sees: its degree, its neighbours, and
    /// the neighbours and flow of a visit that breaks at the first
    /// neighbour above `v`.
    #[derive(Debug, PartialEq)]
    struct Read {
        degree: usize,
        neighbors: Vec<NodeId>,
        prefix: Vec<NodeId>,
        flow: ControlFlow<()>,
    }

    /// Reads `v` through `visit`, a node's `try_for_each_neighbor`, and
    /// `degree`.
    fn read(
        v: NodeId,
        degree: usize,
        mut visit: impl FnMut(&mut dyn FnMut(NodeId) -> ControlFlow<()>) -> ControlFlow<()>,
    ) -> Read {
        let mut neighbors = Vec::new();
        let _ = visit(&mut |u| {
            neighbors.push(u);
            ControlFlow::Continue(())
        });
        let mut prefix = Vec::new();
        let flow = visit(&mut |u| {
            prefix.push(u);
            if u > v {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        Read {
            degree,
            neighbors,
            prefix,
            flow,
        }
    }

    /// Reads every node of `g` through one cursor per node order
    /// (ascending, descending, shuffled) and compares each read with the
    /// per-node calls.
    fn assert_cursor_matches_per_node<G: GraphView + ?Sized>(g: &G, label: &str) {
        use rand::seq::SliceRandom;
        let ascending: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let descending: Vec<NodeId> = ascending.iter().rev().copied().collect();
        let mut shuffled = ascending.clone();
        shuffled.shuffle(&mut SmallRng::seed_from_u64(0x5EED));
        for order in [&ascending, &descending, &shuffled] {
            let mut cursor = g.cursor();
            for &v in order {
                let degree = cursor.degree(v);
                let through_cursor = read(v, degree, |f| cursor.try_for_each_neighbor(v, f));
                let per_node = read(v, g.degree(v), |f| g.try_for_each_neighbor(v, f));
                assert_eq!(through_cursor, per_node, "{label}: node {v}");
            }
        }
    }

    #[test]
    fn cursors_read_what_per_node_calls_read() {
        // 300 nodes are 5 blocks; the disk cache holds 2 of them, so the
        // disk cursor's block outlives its eviction.
        let g = generators::gnp(300, 0.05, &mut SmallRng::seed_from_u64(0xC0C0));
        assert_cursor_matches_per_node(&g, "csr");
        assert_cursor_matches_per_node(&CompressedGraph::from_view(&g), "compressed");
        let tmp = TempDir::new("cursor");
        stream_graph(&g, tmp.path(), 128);
        let disk = DiskGraph::open(tmp.path()).unwrap().with_cache_blocks(2);
        assert_cursor_matches_per_node(&disk, "disk");
        assert!(disk.cache_stats().misses > 5, "the cache evicted blocks");
        assert_cursor_matches_per_node(&crate::LineGraphView::new(&g), "line");
        assert_cursor_matches_per_node(&crate::ProductView::new(&g, 3), "product");
        let every_third: Vec<NodeId> = (0..300).step_by(3).collect();
        assert_cursor_matches_per_node(&crate::InducedView::new(&g, &every_third), "induced");
    }

    #[test]
    #[should_panic(expected = "corrupt shard block 0: bad directory width 3")]
    fn a_block_read_again_after_eviction_is_validated_again() {
        let tmp = TempDir::new("reread");
        let g = generators::torus2d(16, 16); // 256 nodes = 4 blocks
        stream_graph(&g, tmp.path(), 256);
        let disk = DiskGraph::open(tmp.path()).unwrap().with_cache_blocks(1);
        assert_eq!(disk.degree(0), 4);
        assert_eq!(disk.degree(64), 4); // evicts block 0
                                        // Overwrite block 0's directory width in place: the open file
                                        // handle reads the new bytes.
        let shard = shard_path(tmp.path(), 0);
        let mut bytes = fs::read(&shard).unwrap();
        let data_start = 8 + 6 * 8 + 5 * 8; // magic, 6 header words, 5 offsets
        bytes[data_start] = 3;
        fs::write(&shard, &bytes).unwrap();
        let _ = disk.degree(1);
    }

    #[test]
    fn empty_graph_streams() {
        let tmp = TempDir::new("empty");
        let w = ShardWriter::create(tmp.path(), 0, 64).unwrap();
        let summary = w.finish().unwrap();
        assert_eq!(summary.shard_count, 0);
        let disk = DiskGraph::open(tmp.path()).unwrap();
        assert_eq!(GraphView::edge_count(&disk), 0);
        assert!(CompressedGraph::from_view(&disk).is_empty());
    }

    #[test]
    fn summary_reports_disk_footprint() {
        let tmp = TempDir::new("bytes");
        let g = generators::torus2d(32, 32);
        let summary = stream_graph(&g, tmp.path(), 256);
        let disk = DiskGraph::open(tmp.path()).unwrap();
        assert_eq!(disk.adjacency_bytes() as u64, summary.adjacency_bytes);
        // The whole point of the tier: well under CSR's 24 B/node here.
        assert!(summary.adjacency_bytes < g.adjacency_bytes() as u64 / 2);
        assert!(disk.resident_bytes_estimate() > 0);
    }
}
