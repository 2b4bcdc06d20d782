//! The committed real-program pack: RV32I(M) programs under `programs/`
//! assembled, executed and registered as `rv:*` workloads.
//!
//! Each program is embedded at compile time and assembled + emulated once
//! per process (lazily, cached); the resulting [`rv_front::RvWorkload`]
//! pins both the retired-op stream the trace replays and the final
//! architectural state the [`rv_front::ArchOracle`] re-checks. The
//! workload's cache id is the *program content digest*, so editing a
//! `.s` file invalidates stored experiment points while renaming one
//! does not.
//!
//! Rust mirrors of every program's checksum live in this module's tests:
//! the emulator must agree with a native reimplementation of each
//! algorithm, which pins program *and* emulator semantics at once.

use std::sync::{Arc, OnceLock};

use rv_front::RvWorkload;

/// Names of the committed real-program workloads, in catalog order.
pub const RV_PROGRAM_NAMES: [&str; 4] = ["rv:quicksort", "rv:matmul", "rv:sieve", "rv:memcpy"];

const RV_SOURCES: [(&str, &str, &str); 4] = [
    (
        "rv:quicksort",
        "programs/quicksort.s",
        include_str!("../../../programs/quicksort.s"),
    ),
    (
        "rv:matmul",
        "programs/matmul.s",
        include_str!("../../../programs/matmul.s"),
    ),
    (
        "rv:sieve",
        "programs/sieve.s",
        include_str!("../../../programs/sieve.s"),
    ),
    (
        "rv:memcpy",
        "programs/memcpy.s",
        include_str!("../../../programs/memcpy.s"),
    ),
];

/// The assembled + executed pack (built on first use, cached for the
/// process; a committed program failing to assemble or halt is a build
/// defect, so this panics with the diagnostic rather than propagating).
pub fn rv_pack() -> &'static [Arc<RvWorkload>; 4] {
    static PACK: OnceLock<[Arc<RvWorkload>; 4]> = OnceLock::new();
    PACK.get_or_init(|| {
        RV_SOURCES.map(|(name, file, source)| {
            Arc::new(
                RvWorkload::new(name, file, source)
                    .unwrap_or_else(|e| panic!("committed program {file}: {e}")),
            )
        })
    })
}

/// Resolve an `rv:*` workload by name (case-insensitive).
pub fn rv_by_name(name: &str) -> Option<Arc<RvWorkload>> {
    rv_pack()
        .iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .map(Arc::clone)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a0_of(name: &str) -> u32 {
        rv_by_name(name).unwrap().record.state.regs[10]
    }

    /// Native mirror of `programs/quicksort.s`.
    #[test]
    fn quicksort_checksum_matches_native_mirror() {
        let mut x: u32 = 12345;
        let mut arr = [0u32; 64];
        for v in arr.iter_mut() {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
            *v = x >> 17;
        }
        arr.sort_unstable();
        let sum = arr.iter().enumerate().fold(0u32, |s, (i, &v)| {
            s.wrapping_add(v.wrapping_mul(i as u32 + 1))
        });
        assert_eq!(a0_of("rv:quicksort"), sum);
    }

    /// Native mirror of `programs/matmul.s`.
    #[test]
    fn matmul_checksum_matches_native_mirror() {
        const N: usize = 12;
        let a: Vec<u32> = (0..N * N).map(|k| (k % 7 + 1) as u32).collect();
        let b: Vec<u32> = (0..N * N).map(|k| (3 * k % 11 + 1) as u32).collect();
        let mut c = vec![0u32; N * N];
        for i in 0..N {
            for j in 0..N {
                let mut acc = 0u32;
                for k in 0..N {
                    acc = acc.wrapping_add(a[i * N + k].wrapping_mul(b[k * N + j]));
                }
                c[i * N + j] = acc;
            }
        }
        let sum = c.iter().enumerate().fold(0u32, |s, (k, &v)| {
            s.wrapping_add(v.wrapping_mul((k % 9 + 1) as u32))
        });
        assert_eq!(a0_of("rv:matmul"), sum);
    }

    /// Native mirror of `programs/sieve.s`.
    #[test]
    fn sieve_checksum_matches_native_mirror() {
        let limit = 2048usize;
        let mut composite = vec![false; limit];
        let mut p = 2;
        while p * p < limit {
            if !composite[p] {
                let mut m = p * p;
                while m < limit {
                    composite[m] = true;
                    m += p;
                }
            }
            p += 1;
        }
        let (mut count, mut sum) = (0u32, 0u32);
        for (n, &c) in composite.iter().enumerate().take(limit).skip(2) {
            if !c {
                count += 1;
                sum = sum.wrapping_add(n as u32);
            }
        }
        assert_eq!(a0_of("rv:sieve"), (count << 16) | (sum & 0xffff));
        // π(2048) = 309 — the sieve really sieved.
        assert_eq!(count, 309);
    }

    /// Native mirror of `programs/memcpy.s`.
    #[test]
    fn memcpy_checksum_matches_native_mirror() {
        let words: Vec<u32> = (0..256u32)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let mut acc = 0u32;
        for w in &words {
            acc = acc.wrapping_add(*w); // the 16 strided passes read each word once
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut off = 0usize;
        while off < 1024 {
            acc = acc.wrapping_add(bytes[off] as u32);
            off += 3;
        }
        assert_eq!(a0_of("rv:memcpy"), acc);
    }

    /// The committed programs' execution digests, as the book's
    /// architectural-oracle table prints them: a change to a program, the
    /// emulator or `fingerprint128` fails here, not only in the book diff.
    #[test]
    fn pack_digests_are_pinned() {
        const PINNED: [(&str, u64, u128, u128); 4] = [
            (
                "rv:quicksort",
                5898,
                0x1e3574d393b75feb9a4eff8d7e3e4e1e,
                0x9af0c5cdd802328e6194a1bbd36be936,
            ),
            (
                "rv:matmul",
                29138,
                0x5acff8fc072411499971556ec47f2ba1,
                0xc031200a9d263f30e8360177e8fbb996,
            ),
            (
                "rv:sieve",
                26611,
                0x7721de868d2a8ab89d0d2be6956254ab,
                0x2834db71cbd8ad4bb5900ab8a0719e7f,
            ),
            (
                "rv:memcpy",
                7163,
                0xde151dcc53159e69191de1cc29fb4da2,
                0xde79b62d8fa47ec96ccce99d05925641,
            ),
        ];
        for (w, (name, retired, ops, mem)) in rv_pack().iter().zip(PINNED) {
            assert_eq!(w.name(), name);
            assert_eq!(w.record.state.retired, retired, "{name} retired");
            assert_eq!(w.record.ops_digest(), ops, "{name} ops_digest");
            assert_eq!(w.record.state.mem_digest, mem, "{name} mem_digest");
        }
    }

    #[test]
    fn pack_periods_and_mixes_are_sane() {
        for w in rv_pack() {
            // Real program sizes: long enough to be interesting, short
            // enough that assembling the pack stays instant.
            assert!(w.period() > 2_000, "{}: {}", w.name(), w.period());
            assert!(w.period() < 200_000, "{}: {}", w.name(), w.period());
            let loads = w.record.ops.iter().filter(|o| o.class.is_load()).count();
            let stores = w.record.ops.iter().filter(|o| o.class.is_store()).count();
            assert!(loads > 100, "{} has {loads} loads", w.name());
            assert!(stores > 60, "{} has {stores} stores", w.name());
            assert!(w.record.ops.iter().all(|o| o.is_well_formed()));
            rv_front::ArchOracle::verify(w).unwrap();
        }
    }
}
