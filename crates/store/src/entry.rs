//! On-disk entry format: a versioned, checksummed text encoding of one
//! stored point.
//!
//! ```text
//! SAMIE-STORE v1
//! key <canonical PointKey string>
//! wall_nanos <u64>
//! stat <field> <u64>      one line per SimStats counter (fixed schema)
//! extra <name> <u64>      zero or more experiment-specific extras
//! sum <32 hex digits>     fingerprint128 of everything above
//! ```
//!
//! Decoding is strict: wrong magic, a bad checksum, an unknown line, a
//! missing or duplicated counter, and trailing garbage are all rejected
//! with a reason — a corrupt entry must never decode into plausible but
//! wrong statistics.

use ooo_sim::SimStats;
use trace_isa::fingerprint128;

/// First line of every entry file.
const MAGIC: &str = "SAMIE-STORE v1";

/// The cached outcome of one simulated point.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// Full simulation statistics of the measured interval. Every
    /// counter is a `u64`, so the round trip is exact and derived floats
    /// (IPC, energy) recompute bit-identically from a cache hit.
    pub stats: SimStats,
    /// Host wall-clock nanoseconds the original computation took — what a
    /// warm sweep saves, and the basis of the reported warm/cold speedup.
    pub wall_nanos: u64,
    /// Experiment-specific named counters that live outside [`SimStats`]
    /// (e.g. the Figure 4 sizing study's `p99_shared` occupancy
    /// quantile), in insertion order. Names must be single tokens
    /// (no whitespace).
    pub extras: Vec<(String, u64)>,
}

/// Visit every [`SimStats`] counter as a `(name, &mut u64)` pair, in the
/// fixed schema order of the entry format.
///
/// This is the single definition of the on-disk statistics schema: encode
/// reads through it, decode writes through it, and adding a field to
/// `SimStats` (or any struct nested in it) without extending the schema
/// fails to compile — see the exhaustive destructurings below.
pub fn visit_stat_fields(s: &mut SimStats, mut f: impl FnMut(&'static str, &mut u64)) {
    // Compile-time exhaustiveness guard: these patterns name every field
    // and deliberately use no `..` rest pattern, so growing SimStats /
    // CacheStats / LsqActivity / CamActivity / OccupancyIntegrals without
    // updating the `field!` list (and bumping the schema expectations)
    // is a compile error here, not a silently-zeroed counter decoded
    // from stale store entries.
    {
        let SimStats {
            cycles: _,
            committed: _,
            loads: _,
            stores: _,
            branches: _,
            mispredicts: _,
            deadlock_flushes: _,
            nospace_flushes: _,
            forwarded_loads: _,
            fetch_blocked_cycles: _,
            l1d,
            l2: _,
            l1i: _,
            dtlb_accesses: _,
            dtlb_misses: _,
            lsq,
        } = &*s;
        let mem_hier::CacheStats {
            read_accesses: _,
            write_accesses: _,
            read_hits: _,
            write_hits: _,
            evictions: _,
            writebacks: _,
            way_known_accesses: _,
        } = l1d;
        let samie_lsq::LsqActivity {
            conv_addr,
            conv_data_rw: _,
            dist_addr: _,
            dist_age: _,
            dist_age_rw: _,
            dist_data_rw: _,
            dist_tlb_rw: _,
            dist_lineid_rw: _,
            bus_sends: _,
            shared_addr: _,
            shared_age: _,
            shared_age_rw: _,
            shared_data_rw: _,
            shared_tlb_rw: _,
            shared_lineid_rw: _,
            abuf_data_rw: _,
            abuf_age_rw: _,
            occupancy,
            forwards: _,
            abuf_inserts: _,
            abuf_busy_cycles: _,
        } = lsq;
        let samie_lsq::CamActivity {
            cmp_ops: _,
            cmp_operands: _,
            reads_writes: _,
        } = conv_addr;
        let samie_lsq::OccupancyIntegrals {
            cycles: _,
            conv_entries: _,
            dist_entries: _,
            dist_slots: _,
            shared_entries: _,
            shared_slots: _,
            abuf_slots: _,
        } = occupancy;
    }
    macro_rules! field {
        ($name:literal, $($p:ident).+) => {
            f($name, &mut s.$($p).+)
        };
    }
    field!("cycles", cycles);
    field!("committed", committed);
    field!("loads", loads);
    field!("stores", stores);
    field!("branches", branches);
    field!("mispredicts", mispredicts);
    field!("deadlock_flushes", deadlock_flushes);
    field!("nospace_flushes", nospace_flushes);
    field!("forwarded_loads", forwarded_loads);
    field!("fetch_blocked_cycles", fetch_blocked_cycles);
    field!("l1d.read_accesses", l1d.read_accesses);
    field!("l1d.write_accesses", l1d.write_accesses);
    field!("l1d.read_hits", l1d.read_hits);
    field!("l1d.write_hits", l1d.write_hits);
    field!("l1d.evictions", l1d.evictions);
    field!("l1d.writebacks", l1d.writebacks);
    field!("l1d.way_known_accesses", l1d.way_known_accesses);
    field!("l2.read_accesses", l2.read_accesses);
    field!("l2.write_accesses", l2.write_accesses);
    field!("l2.read_hits", l2.read_hits);
    field!("l2.write_hits", l2.write_hits);
    field!("l2.evictions", l2.evictions);
    field!("l2.writebacks", l2.writebacks);
    field!("l2.way_known_accesses", l2.way_known_accesses);
    field!("l1i.read_accesses", l1i.read_accesses);
    field!("l1i.write_accesses", l1i.write_accesses);
    field!("l1i.read_hits", l1i.read_hits);
    field!("l1i.write_hits", l1i.write_hits);
    field!("l1i.evictions", l1i.evictions);
    field!("l1i.writebacks", l1i.writebacks);
    field!("l1i.way_known_accesses", l1i.way_known_accesses);
    field!("dtlb_accesses", dtlb_accesses);
    field!("dtlb_misses", dtlb_misses);
    field!("lsq.conv_addr.cmp_ops", lsq.conv_addr.cmp_ops);
    field!("lsq.conv_addr.cmp_operands", lsq.conv_addr.cmp_operands);
    field!("lsq.conv_addr.reads_writes", lsq.conv_addr.reads_writes);
    field!("lsq.conv_data_rw", lsq.conv_data_rw);
    field!("lsq.dist_addr.cmp_ops", lsq.dist_addr.cmp_ops);
    field!("lsq.dist_addr.cmp_operands", lsq.dist_addr.cmp_operands);
    field!("lsq.dist_addr.reads_writes", lsq.dist_addr.reads_writes);
    field!("lsq.dist_age.cmp_ops", lsq.dist_age.cmp_ops);
    field!("lsq.dist_age.cmp_operands", lsq.dist_age.cmp_operands);
    field!("lsq.dist_age.reads_writes", lsq.dist_age.reads_writes);
    field!("lsq.dist_age_rw", lsq.dist_age_rw);
    field!("lsq.dist_data_rw", lsq.dist_data_rw);
    field!("lsq.dist_tlb_rw", lsq.dist_tlb_rw);
    field!("lsq.dist_lineid_rw", lsq.dist_lineid_rw);
    field!("lsq.bus_sends", lsq.bus_sends);
    field!("lsq.shared_addr.cmp_ops", lsq.shared_addr.cmp_ops);
    field!("lsq.shared_addr.cmp_operands", lsq.shared_addr.cmp_operands);
    field!("lsq.shared_addr.reads_writes", lsq.shared_addr.reads_writes);
    field!("lsq.shared_age.cmp_ops", lsq.shared_age.cmp_ops);
    field!("lsq.shared_age.cmp_operands", lsq.shared_age.cmp_operands);
    field!("lsq.shared_age.reads_writes", lsq.shared_age.reads_writes);
    field!("lsq.shared_age_rw", lsq.shared_age_rw);
    field!("lsq.shared_data_rw", lsq.shared_data_rw);
    field!("lsq.shared_tlb_rw", lsq.shared_tlb_rw);
    field!("lsq.shared_lineid_rw", lsq.shared_lineid_rw);
    field!("lsq.abuf_data_rw", lsq.abuf_data_rw);
    field!("lsq.abuf_age_rw", lsq.abuf_age_rw);
    field!("lsq.occupancy.cycles", lsq.occupancy.cycles);
    field!("lsq.occupancy.conv_entries", lsq.occupancy.conv_entries);
    field!("lsq.occupancy.dist_entries", lsq.occupancy.dist_entries);
    field!("lsq.occupancy.dist_slots", lsq.occupancy.dist_slots);
    field!("lsq.occupancy.shared_entries", lsq.occupancy.shared_entries);
    field!("lsq.occupancy.shared_slots", lsq.occupancy.shared_slots);
    field!("lsq.occupancy.abuf_slots", lsq.occupancy.abuf_slots);
    field!("lsq.forwards", lsq.forwards);
    field!("lsq.abuf_inserts", lsq.abuf_inserts);
    field!("lsq.abuf_busy_cycles", lsq.abuf_busy_cycles);
}

/// Encode one point under its canonical key string.
///
/// # Panics
///
/// Panics if an extra's name contains whitespace (it would corrupt the
/// line format) — extras names are compile-time identifiers in practice.
pub fn encode_entry(key_canonical: &str, point: &StoredPoint) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str("key ");
    out.push_str(key_canonical);
    out.push('\n');
    out.push_str(&format!("wall_nanos {}\n", point.wall_nanos));
    let mut stats = point.stats.clone();
    visit_stat_fields(&mut stats, |name, v| {
        out.push_str(&format!("stat {name} {v}\n"));
    });
    for (name, v) in &point.extras {
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "extra name `{name}` must be a single token"
        );
        out.push_str(&format!("extra {name} {v}\n"));
    }
    out.push_str(&format!("sum {:032x}\n", fingerprint128(out.as_bytes())));
    out
}

/// A decoded entry: the canonical key it was stored under plus the point.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedEntry {
    /// Canonical [`crate::PointKey`] string copied from the entry.
    pub key_canonical: String,
    /// The cached point.
    pub point: StoredPoint,
}

impl DecodedEntry {
    /// The value of one `name=value` field of the stored canonical key
    /// (`design`, `workload`, `seed`, ..., `ver`; see
    /// [`PointKey::canonical`](crate::PointKey::canonical)), or `""` if
    /// the key has no such field.
    pub fn key_field(&self, name: &str) -> &str {
        self.key_canonical
            .split('|')
            .find_map(|part| part.strip_prefix(name)?.strip_prefix('='))
            .unwrap_or("")
    }
}

/// Decode an entry file, verifying magic, checksum and schema
/// completeness. Returns a human-readable reason on any defect.
pub fn decode_entry(text: &str) -> Result<DecodedEntry, String> {
    // Checksum first: the last line must be exactly `sum <32 lowercase
    // hex digits>\n` over everything before it, so truncation and bit rot
    // fail before field parsing (and the accepted encoding is canonical —
    // no whitespace variants alias to the same entry).
    let stripped = text
        .strip_suffix('\n')
        .ok_or("entry does not end with a newline")?;
    let body_end = stripped.rfind('\n').ok_or("entry too short")?;
    let (body, sum_line) = text.split_at(body_end + 1);
    let sum_hex = sum_line
        .strip_suffix('\n')
        .and_then(|l| l.strip_prefix("sum "))
        .ok_or("missing trailing checksum line")?;
    if sum_hex.len() != 32
        || !sum_hex
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return Err("checksum is not 32 lowercase hex digits".into());
    }
    let claimed = u128::from_str_radix(sum_hex, 16).map_err(|_| "unparsable checksum")?;
    let actual = fingerprint128(body.as_bytes());
    if claimed != actual {
        return Err(format!(
            "checksum mismatch (stored {claimed:032x}, content {actual:032x}) — truncated or corrupt entry"
        ));
    }

    let mut lines = body.lines();
    if lines.next() != Some(MAGIC) {
        return Err(format!("bad magic (expected `{MAGIC}`)"));
    }
    let key_canonical = lines
        .next()
        .and_then(|l| l.strip_prefix("key "))
        .ok_or("missing key line")?
        .to_string();
    let wall_nanos: u64 = lines
        .next()
        .and_then(|l| l.strip_prefix("wall_nanos "))
        .and_then(|v| v.parse().ok())
        .ok_or("missing or unparsable wall_nanos line")?;

    let mut stat_values: Vec<(&str, u64)> = Vec::with_capacity(70);
    let mut extras = Vec::new();
    for line in lines {
        if let Some(rest) = line.strip_prefix("stat ") {
            let (name, v) = parse_pair(rest)?;
            stat_values.push((name, v));
        } else if let Some(rest) = line.strip_prefix("extra ") {
            let (name, v) = parse_pair(rest)?;
            extras.push((name.to_string(), v));
        } else {
            return Err(format!("unknown line `{line}`"));
        }
    }

    // Fill the fixed schema; every counter must appear exactly once and
    // nothing may be left over.
    let mut stats = SimStats::default();
    let mut missing = Vec::new();
    let mut cursor = 0usize;
    let mut out_of_order = false;
    visit_stat_fields(&mut stats, |name, slot| {
        // Encode emits schema order, so the common case is a straight
        // scan; fall back to search to diagnose rather than to accept.
        match stat_values.get(cursor) {
            Some(&(n, v)) if n == name => {
                *slot = v;
                cursor += 1;
            }
            _ => {
                if let Some(&(_, v)) = stat_values.iter().find(|&&(n, _)| n == name) {
                    *slot = v;
                    out_of_order = true;
                } else {
                    missing.push(name);
                }
            }
        }
    });
    if !missing.is_empty() {
        return Err(format!("missing counters: {}", missing.join(", ")));
    }
    if out_of_order || cursor != stat_values.len() {
        return Err("counters out of schema order or duplicated".into());
    }

    Ok(DecodedEntry {
        key_canonical,
        point: StoredPoint {
            stats,
            wall_nanos,
            extras,
        },
    })
}

fn parse_pair(rest: &str) -> Result<(&str, u64), String> {
    let (name, v) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed line `{rest}`"))?;
    let v = v
        .parse()
        .map_err(|_| format!("unparsable value in `{rest}`"))?;
    Ok((name, v))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A SimStats with every counter set to a distinct value.
    pub(crate) fn distinct_stats() -> SimStats {
        let mut s = SimStats::default();
        let mut next = 1u64;
        visit_stat_fields(&mut s, |_, v| {
            *v = next;
            next += 7;
        });
        s
    }

    fn sample_point() -> StoredPoint {
        StoredPoint {
            stats: distinct_stats(),
            wall_nanos: 123_456_789,
            extras: vec![("p99_shared".into(), 6), ("filter_hits".into(), 0)],
        }
    }

    #[test]
    fn schema_covers_every_simstats_field() {
        // If a field is added to SimStats without extending the schema,
        // two stats differing only in that field would encode equally.
        let mut count = 0;
        visit_stat_fields(&mut SimStats::default(), |_, _| count += 1);
        assert_eq!(count, 70, "update the schema when SimStats changes");
        // Names are unique.
        let mut names = Vec::new();
        visit_stat_fields(&mut SimStats::default(), |n, _| names.push(n));
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    /// The dotted path of every [`SimStats`] counter, in declaration
    /// order, read off the derived `{:#?}` form: one `name: value,` or
    /// `name: Struct {` per line, closed by `}`.
    fn debug_leaf_paths() -> Vec<String> {
        let debug = format!("{:#?}", SimStats::default());
        let mut prefix: Vec<&str> = Vec::new();
        let mut leaves = Vec::new();
        for line in debug.lines().skip(1).map(str::trim) {
            if line.starts_with('}') {
                prefix.pop();
            } else if let Some((name, value)) = line.split_once(": ") {
                if value.ends_with('{') {
                    prefix.push(name);
                } else {
                    leaves.push([&prefix[..], &[name]].concat().join("."));
                }
            }
        }
        leaves
    }

    #[test]
    fn schema_names_are_the_simstats_fields() {
        let mut names = Vec::new();
        visit_stat_fields(&mut SimStats::default(), |n, _| names.push(n.to_string()));
        let fields = debug_leaf_paths();
        let unlisted: Vec<_> = fields.iter().filter(|f| !names.contains(f)).collect();
        let unknown: Vec<_> = names.iter().filter(|n| !fields.contains(n)).collect();
        assert!(
            unlisted.is_empty() && unknown.is_empty(),
            "SimStats counters without a `field!`: {unlisted:?}; \
             `field!` names that are no SimStats counter: {unknown:?}"
        );
        assert_eq!(
            names, fields,
            "`field!` lists the counters in declaration order"
        );
    }

    #[test]
    fn encode_decode_round_trips_bit_identically() {
        let p = sample_point();
        let text = encode_entry("design=conv:128|seed=1", &p);
        let d = decode_entry(&text).unwrap();
        assert_eq!(d.key_canonical, "design=conv:128|seed=1");
        assert_eq!(d.point, p);
        // Deterministic: same input, same bytes.
        assert_eq!(text, encode_entry("design=conv:128|seed=1", &p));
    }

    #[test]
    fn truncation_and_corruption_fail_loudly() {
        let text = encode_entry("k", &sample_point());
        // Any prefix (even newline-aligned ones) must fail.
        for cut in [0, 10, text.len() / 2, text.len() - 2] {
            assert!(decode_entry(&text[..cut]).is_err(), "cut at {cut}");
        }
        // A single flipped digit anywhere must fail the checksum (or the
        // parse); flip one statistics value.
        let corrupted = text.replacen("stat cycles 1\n", "stat cycles 2\n", 1);
        assert_ne!(corrupted, text, "test must actually corrupt the entry");
        let err = decode_entry(&corrupted).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn missing_and_duplicate_counters_are_rejected() {
        let p = sample_point();
        let text = encode_entry("k", &p);
        // Drop one stat line and re-checksum: schema completeness fails.
        let without: String = text
            .lines()
            .filter(|l| !l.starts_with("stat lsq.forwards ") && !l.starts_with("sum "))
            .map(|l| format!("{l}\n"))
            .collect();
        let resummed = format!("{without}sum {:032x}\n", fingerprint128(without.as_bytes()));
        let err = decode_entry(&resummed).unwrap_err();
        assert!(err.contains("missing counters"), "{err}");
        // Duplicate a line likewise.
        let dup: String = text
            .lines()
            .filter(|l| !l.starts_with("sum "))
            .flat_map(|l| {
                let n = if l.starts_with("stat cycles ") { 2 } else { 1 };
                std::iter::repeat_n(format!("{l}\n"), n)
            })
            .collect();
        let resummed = format!("{dup}sum {:032x}\n", fingerprint128(dup.as_bytes()));
        assert!(decode_entry(&resummed).is_err());
    }

    #[test]
    #[should_panic(expected = "single token")]
    fn extras_with_spaces_are_refused() {
        let mut p = sample_point();
        p.extras.push(("two words".into(), 1));
        encode_entry("k", &p);
    }
}
