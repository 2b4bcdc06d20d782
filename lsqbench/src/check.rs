//! Correctness: every simulated point and every book is checked against
//! digests kept with the benchmark in `expected/<workload>.tsv`.
//!
//! A point's digest is `fingerprint128` over its full `SimStats` schema
//! (`visit_stat_fields`, one `name=value` line per counter); a book's is
//! `fingerprint128` over its page files in name order. The benchmark's
//! `--seed` picks one of [`SEED_FAMILY`] input seeds, so the expected
//! files cover every input the benchmark can be asked to run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use exp_store::visit_stat_fields;
use ooo_sim::SimStats;
use trace_isa::fingerprint128;

/// Number of distinct inputs `--seed` selects from.
pub const SEED_FAMILY: u64 = 16;

/// The trace seed the benchmark's `--seed` selects.
pub fn input_seed(seed: u64) -> u64 {
    1 + seed % SEED_FAMILY
}

/// Digest of every `SimStats` counter.
pub fn stats_digest(stats: &SimStats) -> u128 {
    let mut s = stats.clone();
    let mut text = String::new();
    visit_stat_fields(&mut s, |name, v| {
        let _ = writeln!(text, "{name}={v}");
    });
    fingerprint128(text.as_bytes())
}

/// Digest of a book directory: each regular file's name and bytes, in
/// name order.
pub fn pages_digest(dir: &Path) -> io::Result<u128> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            files.insert(entry.file_name(), std::fs::read(entry.path())?);
        }
    }
    let mut bytes = Vec::new();
    for (name, content) in &files {
        bytes.extend_from_slice(name.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&(content.len() as u64).to_le_bytes());
        bytes.extend_from_slice(content);
    }
    Ok(fingerprint128(&bytes))
}

/// Expected digests of one workload, keyed by `(input seed, item id)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    digests: BTreeMap<(u64, String), u128>,
}

impl Expected {
    /// The digests committed for `workload` (empty for an unknown one).
    pub fn committed(workload: &str) -> Self {
        let text = match workload {
            "paper-grid" => include_str!("../expected/paper-grid.tsv"),
            "lsq-stress" => include_str!("../expected/lsq-stress.tsv"),
            "book" => include_str!("../expected/book.tsv"),
            _ => "",
        };
        Self::parse(text).expect("committed expected digests parse")
    }

    /// Parse `seed<TAB>id<TAB>hex digest` lines (`#` starts a comment).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("expected digests line {}: `{line}`", n + 1);
            let mut cols = line.split('\t');
            let (Some(seed), Some(id), Some(hex), None) =
                (cols.next(), cols.next(), cols.next(), cols.next())
            else {
                return Err(bad());
            };
            let seed = seed.parse().map_err(|_| bad())?;
            let digest = u128::from_str_radix(hex, 16).map_err(|_| bad())?;
            digests.insert((seed, id.to_string()), digest);
        }
        Ok(Expected { digests })
    }

    /// Render in the format [`Expected::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from("# input seed\titem\tdigest (regenerate with --bless)\n");
        for ((seed, id), digest) in &self.digests {
            let _ = writeln!(out, "{seed}\t{id}\t{digest:032x}");
        }
        out
    }

    /// Record a digest (bless mode).
    pub fn insert(&mut self, seed: u64, id: &str, digest: u128) {
        self.digests.insert((seed, id.to_string()), digest);
    }

    /// Does `digest` match the one kept for `(seed, id)`? An item with
    /// no kept digest cannot be verified and fails.
    pub fn matches(&self, seed: u64, id: &str, digest: u128) -> bool {
        self.digests.get(&(seed, id.to_string())) == Some(&digest)
    }

    /// Flip one bit of the kept digest for `(seed, id)` (tests).
    #[cfg(test)]
    pub fn perturb(&mut self, seed: u64, id: &str) {
        if let Some(d) = self.digests.get_mut(&(seed, id.to_string())) {
            *d ^= 1;
        }
    }
}

/// Tally of checked items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Items checked.
    pub attempted: u64,
    /// Items whose digest did not match.
    pub failed: u64,
}

impl Tally {
    /// Count one check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}
