//! A fast hasher for simulator-internal `u64` keys, and the stable
//! 128-bit fingerprint used for content addressing.
//!
//! Instruction ages, virtual page numbers and line addresses are benign
//! sequential-ish integers; SipHash's adversarial collision resistance
//! buys nothing on the simulator's innermost loops. [`FastU64Hasher`]
//! replaces it with one Fibonacci multiply plus a xor-shift, and — being
//! seed-free — makes hash-map iteration order identical across
//! processes, removing a source of run-to-run variation.
//!
//! [`fingerprint128`] serves the opposite niche: a *stable, versioned*
//! content digest (FNV-1a over 128 bits) whose value for a given byte
//! string never changes across processes, platforms or releases. The
//! experiment store keys cached simulation points by it and `.strc`
//! traces identify their content through it, so its definition is frozen:
//! changing it invalidates every on-disk store.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis, 128-bit parameterisation.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a prime, 128-bit parameterisation (2^88 + 2^8 + 0x3b).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Stable 128-bit FNV-1a fingerprint of a byte string.
///
/// Deterministic across processes, platforms and crate versions — the
/// content-addressing primitive behind the experiment store and `.strc`
/// trace digests. Not a cryptographic hash: it resists accidental
/// collisions (2⁻⁶⁴ birthday bound at billions of entries), not
/// adversarial ones.
///
/// ```
/// use trace_isa::fingerprint128;
///
/// // Pinned forever: store keys on disk depend on these exact values.
/// assert_eq!(fingerprint128(b""), 0x6c62272e07bb014262b821756295c58d);
/// assert_ne!(fingerprint128(b"conv:128"), fingerprint128(b"conv:64"));
/// ```
pub fn fingerprint128(bytes: &[u8]) -> u128 {
    let mut h = FNV128_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// Hash map keyed by `u64` using [`FastU64Hasher`].
#[allow(
    clippy::disallowed_types,
    reason = "the sanctioned deterministic map: its hasher is FastU64Hasher, not RandomState"
)]
pub type U64Map<V> = std::collections::HashMap<u64, V, BuildHasherDefault<FastU64Hasher>>;

/// Fibonacci multiply, then fold the high bits (which carry the entropy
/// after the multiply) into the low bits the hash-map bucket index is
/// taken from.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastU64Hasher(u64);

impl Hasher for FastU64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-style); u64 keys hash through `write_u64`.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn sequential_keys_hash_distinctly() {
        let hashes: std::collections::BTreeSet<u64> = (0..4096u64)
            .map(|k| {
                let mut h = FastU64Hasher::default();
                k.hash(&mut h);
                h.finish()
            })
            .collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        // Known FNV-1a/128 vector: the empty string hashes to the offset
        // basis. Single-byte changes and extensions both move the value.
        assert_eq!(fingerprint128(b""), FNV128_OFFSET);
        let base = fingerprint128(b"design=samie;seed=42");
        assert_ne!(base, fingerprint128(b"design=samie;seed=43"));
        assert_ne!(base, fingerprint128(b"design=samie;seed=42 "));
        // Deterministic: two computations agree.
        assert_eq!(base, fingerprint128(b"design=samie;seed=42"));
    }

    #[test]
    fn u64_map_round_trips() {
        let mut m: U64Map<u32> = U64Map::default();
        for k in 0..512u64 {
            m.insert(k << 13, k as u32);
        }
        assert_eq!(m.len(), 512);
        assert_eq!(m.get(&(511 << 13)), Some(&511));
        assert_eq!(m.remove(&0), Some(0));
    }
}
