//! Deterministic randomness derivation: per-node streams and stateless
//! counter draws.
//!
//! Every simulation is reproducible from a single 64-bit master seed. Two
//! derivation disciplines coexist (selected per run by
//! [`RngMode`](crate::RngMode)):
//!
//! * **stream** — each node receives its own [`SmallRng`] stream derived
//!   with SplitMix64 ([`node_rng`]); results are independent of iteration
//!   order across *nodes*, but any draw shared between nodes (such as
//!   per-delivery loss) must consume one shared stream in a pinned
//!   reference order.
//! * **counter** — every draw is a pure hash of its coordinates via
//!   [`mix`]`(seed, domain, a, b, c)`: the answer for one `(node, round)`
//!   or `(edge, round, exchange)` query never depends on which other
//!   queries were made, or in what order, or on which thread. This is what
//!   makes the bitset kernel, and with it intra-run sharding, legal on
//!   lossy runs.
//!
//! The domain constants below keep the counter streams disjoint; the
//! `pinned_*` regression tests at the bottom freeze every derivation that
//! replay artifacts depend on.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Domain tag for the shared fault-injection stream seed (the stream-mode
/// `fault_rng` consumed by per-delivery loss draws in reference order).
pub const DOM_FAULT_STREAM: u64 = 0xFA17_0000_0000_0001;
/// Domain tag for counter-mode per-delivery loss draws, keyed by
/// `(sender, receiver, slot)` where `slot = round * 2 + exchange`.
pub const DOM_FAULT_LOSS: u64 = 0xFA17_0000_0000_0002;
/// Domain tag for counter-mode per-`(node, round)` process streams.
pub const DOM_NODE_ROUND: u64 = 0x6E52_6F75_6E64_0001;

/// SplitMix64 finalizer: a fast, well-mixed 64-bit hash.
///
/// # Examples
///
/// ```
/// let a = mis_beeping::rng::splitmix64(1);
/// let b = mis_beeping::rng::splitmix64(2);
/// assert_ne!(a, b);
/// ```
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the seed for `node`'s private stream from a master seed.
///
/// Distinct `(master, node)` pairs map to distinct, decorrelated seeds.
#[must_use]
pub fn node_seed(master: u64, node: u32) -> u64 {
    // detlint: allow(D02) -- this IS the blessed derivation primitive the rule points at
    splitmix64(master ^ splitmix64(0x6E6F_6465_0000_0000 | u64::from(node)))
}

/// Constructs `node`'s private random stream.
#[must_use]
pub fn node_rng(master: u64, node: u32) -> SmallRng {
    SmallRng::seed_from_u64(node_seed(master, node))
}

/// Derives an independent seed for trial `trial` of an experiment.
///
/// # Examples
///
/// ```
/// use mis_beeping::rng::trial_seed;
/// assert_ne!(trial_seed(7, 0), trial_seed(7, 1));
/// assert_eq!(trial_seed(7, 3), trial_seed(7, 3));
/// ```
#[must_use]
pub fn trial_seed(master: u64, trial: u64) -> u64 {
    // detlint: allow(D02) -- this IS the blessed derivation primitive the rule points at
    splitmix64(master ^ splitmix64(0x7472_6961_6C00_0000 ^ trial))
}

/// One counter-style draw: a pure 64-bit hash of a seed, a domain tag and
/// up to three query coordinates, built from chained [`splitmix64`]
/// finalisers. This is the primitive behind every stateless derivation in
/// the workspace — the scenario engine's adversary draws and the
/// simulator's counter-mode streams alike.
///
/// # Examples
///
/// ```
/// use mis_beeping::rng::mix;
/// // Pure: same coordinates, same answer, in any order on any thread.
/// assert_eq!(mix(1, 2, 3, 4, 5), mix(1, 2, 3, 4, 5));
/// assert_ne!(mix(1, 2, 3, 4, 5), mix(1, 2, 3, 5, 4));
/// ```
#[must_use]
pub fn mix(seed: u64, domain: u64, a: u64, b: u64, c: u64) -> u64 {
    // detlint: allow(D02) -- this IS the blessed derivation primitive the rule points at
    let mut h = splitmix64(seed ^ domain);
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ b);
    splitmix64(h ^ c)
}

/// A 64-bit FNV-1a hasher: the content digest behind replay
/// fingerprints (`mis_core::outcome_digest`) and `mis-serve`'s graph
/// digests and cache keys. Integers are fed little-endian, so a digest is
/// the same on every platform.
///
/// # Examples
///
/// ```
/// use mis_beeping::rng::Fnv1a;
///
/// assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
/// let mut h = Fnv1a::new();
/// h.write(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a offset basis, having hashed nothing.
    #[must_use]
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Hashes `bytes` in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Hashes the 4 little-endian bytes of `x`.
    #[inline]
    pub fn write_u32(&mut self, x: u32) {
        self.write(&x.to_le_bytes());
    }

    /// Hashes the 8 little-endian bytes of `x`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// The digest of everything hashed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)` (the standard
/// 53-bit mantissa construction).
#[must_use]
pub fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Derives the seed of the shared fault-injection stream from the run's
/// master seed ([`DOM_FAULT_STREAM`]-separated, replacing the historic
/// ad-hoc `master ^ 0xFA17…` tag).
#[must_use]
pub fn fault_stream_seed(master: u64) -> u64 {
    mix(master, DOM_FAULT_STREAM, 0, 0, 0)
}

/// Counter-mode seed of `node`'s process stream for one `round`: every
/// round reseeds from scratch, so the draws a node makes in round `r` are
/// a pure function of `(master, node, r)`.
#[must_use]
pub fn round_seed(master: u64, node: u32, round: u32) -> u64 {
    mix(master, DOM_NODE_ROUND, u64::from(node), u64::from(round), 0)
}

/// Counter-mode per-delivery loss draw: whether the beep sent by `from`
/// to `to` in slot `slot` (`round * 2 + exchange`) is dropped at loss
/// probability `loss`. Pure, so deliveries can be evaluated in any order
/// — including skipped entirely once a listener already heard a beep.
#[must_use]
pub fn loss_dropped(master: u64, from: u32, to: u32, slot: u64, loss: f64) -> bool {
    unit(mix(
        master,
        DOM_FAULT_LOSS,
        u64::from(from),
        u64::from(to),
        slot,
    )) < loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(42), splitmix64(42));
        // Consecutive inputs map far apart (any fixed bit differs w.h.p.).
        let outs: Vec<u64> = (0..64).map(splitmix64).collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "collision in splitmix64 outputs");
    }

    #[test]
    fn node_seeds_distinct_across_nodes_and_masters() {
        // detlint: allow(D01) -- membership-only collision probe, never iterated
        let mut seen = std::collections::HashSet::new();
        for master in 0..4u64 {
            for node in 0..64u32 {
                assert!(seen.insert(node_seed(master, node)));
            }
        }
    }

    #[test]
    fn node_rng_streams_differ() {
        let mut a = node_rng(9, 0);
        let mut b = node_rng(9, 1);
        let xs: Vec<u64> = (0..4).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn node_rng_reproducible() {
        let mut a = node_rng(5, 3);
        let mut b = node_rng(5, 3);
        for _ in 0..8 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn trial_seeds_distinct() {
        // detlint: allow(D01) -- membership-only collision probe, never iterated
        let mut seen = std::collections::HashSet::new();
        for t in 0..256 {
            assert!(seen.insert(trial_seed(1, t)));
        }
    }

    #[test]
    fn pinned_fnv1a_vectors() {
        let digest = |bytes: &[u8]| {
            let mut h = Fnv1a::new();
            h.write(bytes);
            h.finish()
        };
        // The published FNV-1a 64 test vectors.
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest(b"foobar"), 0x8594_4171_f739_67e8);
        // Integers are hashed as their little-endian bytes.
        let mut h = Fnv1a::default();
        h.write_u32(0x0403_0201);
        h.write_u64(0x0c0b_0a09_0807_0605);
        assert_eq!(h.finish(), digest(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]));
    }

    // ---- Stream pins: replay artifacts (the committed fuzz corpus, the
    // determinism suite) depend on these exact values. If one of these
    // tests fails, the change breaks byte-identical replay — do not
    // update the constant without migrating the artifacts.

    #[test]
    fn pinned_splitmix_reference_vector() {
        // The published SplitMix64 test vector.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn pinned_mix_values() {
        assert_eq!(mix(1, 2, 3, 4, 5), 0x415C_A65F_B706_4546);
        // The scenario engine's loss draw is mix under its own domain tag;
        // pinning one such draw freezes every adversary stream.
        assert_eq!(
            mix(31, 0x45D6_1EAF_0000_0002, 5, 9, 4),
            0x01F1_DEE9_1830_07CF
        );
        assert!(
            (unit(mix(31, 0x45D6_1EAF_0000_0002, 5, 9, 4)) - 0.007_596_904_666_741_011).abs()
                < 1e-18
        );
    }

    #[test]
    fn pinned_fault_stream_seed() {
        assert_eq!(fault_stream_seed(0xBEEF), 0x5E35_F307_4096_D671);
        assert_ne!(fault_stream_seed(0), fault_stream_seed(1));
    }

    #[test]
    fn pinned_round_seed() {
        assert_eq!(round_seed(7, 3, 11), 0xD305_1A64_259B_79E3);
        // Distinct across nodes, rounds and masters.
        // detlint: allow(D01) -- membership-only collision probe, never iterated
        let mut seen = std::collections::HashSet::new();
        for master in 0..2u64 {
            for node in 0..8u32 {
                for round in 0..8u32 {
                    assert!(seen.insert(round_seed(master, node, round)));
                }
            }
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        assert_eq!(unit(0), 0.0);
        assert!(unit(u64::MAX) < 1.0);
        for x in 0..64u64 {
            let u = unit(splitmix64(x));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn loss_draw_boundaries() {
        // loss = 0 never drops, loss = 1 always drops, and the draw is a
        // pure function of its coordinates.
        for slot in 0..16u64 {
            assert!(!loss_dropped(9, 1, 2, slot, 0.0));
            assert!(loss_dropped(9, 1, 2, slot, 1.0));
            assert_eq!(
                loss_dropped(9, 1, 2, slot, 0.5),
                loss_dropped(9, 1, 2, slot, 0.5)
            );
        }
        // Directional: the (from, to) draw differs from (to, from).
        let fwd: Vec<bool> = (0..64).map(|s| loss_dropped(9, 1, 2, s, 0.5)).collect();
        let rev: Vec<bool> = (0..64).map(|s| loss_dropped(9, 2, 1, s, 0.5)).collect();
        assert_ne!(fwd, rev);
    }
}
