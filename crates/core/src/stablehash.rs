//! Process-stable hashing and mixing primitives.
//!
//! Three guarantees in this workspace are *bit-level* and cross-crate:
//! sweeps are bit-identical at any worker count (per-graph seeds), cache
//! keys are stable across processes ([`crate::canonical`]), and per-job
//! RNG derivation is a pure function of stable keys ([`derive2`], [`mix`]).
//! All of them reduce to the two primitives here — one shared definition,
//! so a constant tweak can never desynchronize the call sites.
//!
//! Every job draws its randomness from an RNG seeded by a pure function of
//! a master seed and a stable job key — never from worker identity,
//! scheduling order, or shared-stream position — so any worker count (and
//! any interleaving) produces bit-identical results.

/// The SplitMix64 increment ("golden gamma").
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finalizer: a bijective avalanche mix of `z`.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step: advance by [`GOLDEN_GAMMA`], then finalize.
#[must_use]
pub fn splitmix64(state: u64) -> u64 {
    mix64(state.wrapping_add(GOLDEN_GAMMA))
}

/// Streaming FNV-1a (64-bit): process-stable, unlike `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// The standard FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorbs one word (little-endian bytes).
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The digest.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a of a byte string.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Mixes a sequence of words into one seed (order-sensitive), built on
/// [`splitmix64`].
#[must_use]
pub fn mix(master: u64, words: &[u64]) -> u64 {
    let mut acc = splitmix64(master);
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    acc
}

/// FNV-1a digest of a domain string, used to separate seed streams (e.g.
/// `"corpus"` vs `"batch"`) so equal indices in different contexts never
/// collide.
#[must_use]
pub fn domain_hash(domain: &str) -> u64 {
    fnv1a(domain.as_bytes())
}

/// Derives a seed in `domain` under `master`, keyed by two coordinates
/// (e.g. `(graph, depth)`).
#[must_use]
pub fn derive2(master: u64, domain: &str, a: u64, b: u64) -> u64 {
    mix(master, &[domain_hash(domain), a, b])
}

/// Widens a `usize` count/index into the `u64` seed-mixing domain.
///
/// Every stable key and seed derivation mixes machine-sized quantities
/// (node counts, depths, restart counts, job indices) into `u64` words;
/// this is the one sanctioned place that conversion happens, so call
/// sites stay free of ad-hoc `as` casts.
#[must_use]
#[expect(
    clippy::as_conversions,
    reason = "usize -> u64 is value-preserving on every supported target (all are <= 64-bit)"
)]
pub fn wide(x: usize) -> u64 {
    x as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixers_are_pure_and_discriminating() {
        assert_eq!(mix64(7), mix64(7));
        assert_ne!(mix64(7), mix64(8));
        assert_eq!(splitmix64(0), mix64(GOLDEN_GAMMA));
    }

    #[test]
    fn derivation_is_pure() {
        assert_eq!(derive2(7, "corpus", 3, 1), derive2(7, "corpus", 3, 1));
        assert_eq!(mix(7, &[3, 1]), mix(7, &[3, 1]));
    }

    #[test]
    fn domains_and_indices_separate_streams() {
        let base = derive2(7, "corpus", 0, 0);
        assert_ne!(base, derive2(7, "batch", 0, 0));
        assert_ne!(base, derive2(7, "corpus", 1, 0));
        assert_ne!(base, derive2(8, "corpus", 0, 0));
        assert_ne!(derive2(7, "x", 1, 2), derive2(7, "x", 2, 1));
    }

    #[test]
    fn job_rngs_are_reproducible() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut a = StdRng::seed_from_u64(derive2(42, "test", 5, 1));
        let mut b = StdRng::seed_from_u64(derive2(42, "test", 5, 1));
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn mix_is_order_sensitive() {
        assert_ne!(mix(1, &[2, 3]), mix(1, &[3, 2]));
        assert_ne!(mix(1, &[]), mix(2, &[]));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv64::default();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(
            w.finish(),
            fnv1a(&[0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01])
        );
    }
}
