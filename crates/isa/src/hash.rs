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
//!
//! FNV-1a maps a zero byte to `h ← h·P`, so a run of `k` zero bytes is
//! `h ← h·Pᵏ mod 2¹²⁸`. [`fingerprint128`] scans its input in 64-byte
//! blocks, folds each all-zero block into a pending run, and applies the
//! run in closed form (`Pᵏ` by square-and-multiply) before the next
//! non-zero block goes through the byte loop. The value is still the
//! frozen byte-serial FNV-1a/128 for every input; only mostly-zero inputs
//! such as the RV emulator's 512 KiB memory image get cheaper.

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
    const BLOCK: usize = 64;
    let mut h = FNV128_OFFSET;
    let mut zeros = 0u64;
    let mut blocks = bytes.chunks_exact(BLOCK);
    for block in &mut blocks {
        // Branch-free OR of the block's words: zero iff every byte is.
        let any = block.chunks_exact(8).fold(0u64, |acc, w| {
            acc | u64::from_ne_bytes(w.try_into().unwrap())
        });
        if any == 0 {
            zeros += BLOCK as u64;
            continue;
        }
        if zeros > 0 {
            h = h.wrapping_mul(prime_pow(zeros));
            zeros = 0;
        }
        h = fnv1a(h, block);
    }
    fnv1a(h.wrapping_mul(prime_pow(zeros)), blocks.remainder())
}

/// The byte-serial FNV-1a/128 step over `bytes`, from state `h`.
fn fnv1a(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV128_PRIME);
    }
    h
}

/// `FNV128_PRIME^k mod 2^128` by square-and-multiply: the effect of `k`
/// zero bytes on the FNV-1a state.
fn prime_pow(mut k: u64) -> u128 {
    let (mut acc, mut base) = (1u128, FNV128_PRIME);
    while k > 0 {
        if k & 1 == 1 {
            acc = acc.wrapping_mul(base);
        }
        base = base.wrapping_mul(base);
        k >>= 1;
    }
    acc
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

    /// Byte-serial FNV-1a/128, the frozen definition the block scan with
    /// closed-form zero runs must reproduce.
    fn reference(bytes: &[u8]) -> u128 {
        let mut h = FNV128_OFFSET;
        for &b in bytes {
            h ^= b as u128;
            h = h.wrapping_mul(FNV128_PRIME);
        }
        h
    }

    /// Non-zero filler bytes, different at every position.
    fn dense(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8 | 1).collect()
    }

    #[test]
    fn fingerprint_matches_the_reference_at_every_short_length() {
        // The pattern holds zero bytes too, never a whole zero block.
        let bytes: Vec<u8> = (0..200usize).map(|i| (i * 37 % 11) as u8).collect();
        for n in 0..=200 {
            assert_eq!(
                fingerprint128(&bytes[..n]),
                reference(&bytes[..n]),
                "len {n}"
            );
        }
    }

    #[test]
    fn fingerprint_matches_the_reference_on_zero_runs_at_every_offset() {
        for off in 0..64 {
            for run in 0..=130 {
                let mut bytes = dense(off);
                bytes.resize(off + run, 0);
                assert_eq!(fingerprint128(&bytes), reference(&bytes), "{off}+{run}");
                bytes.extend(dense(70));
                assert_eq!(fingerprint128(&bytes), reference(&bytes), "{off}+{run}+70");
            }
        }
    }

    #[test]
    fn a_byte_inside_a_zero_run_is_never_lost() {
        let mut bytes = vec![0u8; 4096];
        let zero = reference(&bytes);
        assert_eq!(fingerprint128(&bytes), zero);
        for at in 0..bytes.len() {
            bytes[at] = 0x80;
            let got = fingerprint128(&bytes);
            assert_eq!(got, reference(&bytes), "byte at {at}");
            assert_ne!(got, zero, "byte at {at}");
            bytes[at] = 0;
        }
    }

    #[test]
    fn fingerprint_matches_the_reference_on_an_emulator_memory_image() {
        // 512 KiB like the RV emulator's memory: text at 0, a data block
        // at 64 KiB with scattered stores, a used stack below the top.
        let mut mem = vec![0u8; 512 << 10];
        mem[..3000].copy_from_slice(&dense(3000));
        mem[0x1_0000..0x1_0000 + 1030].copy_from_slice(&dense(1030));
        for i in (0x1_2000..0x1_a000).step_by(97) {
            mem[i] = i as u8 | 1;
        }
        let top = mem.len();
        mem[top - 200..].copy_from_slice(&dense(200));
        assert_eq!(fingerprint128(&mem), reference(&mem));
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
