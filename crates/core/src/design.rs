//! [`DesignSpec`] — the one typed descriptor every runner, sweep, CLI
//! and example constructs its LSQ from.
//!
//! A `DesignSpec` names one point of the paper's design space (plus the
//! reference designs the figures compare against) with its *full*
//! geometry. It is serializable: [`std::fmt::Display`] renders the
//! canonical spec string and [`std::str::FromStr`] parses it back, and
//! `parse(display(spec)) == spec` holds for every design family (the
//! property-test suite enforces it). That string is the wire format used
//! in CSV rows, `BENCH_sweep.json` and on the `samie-exp` command line —
//! the workspace deliberately has no serde dependency, so the canonical
//! string *is* the serialized form.
//!
//! ## Spec syntax
//!
//! ```text
//! conv[:ENTRIES]                         default 128 (Table 2)
//! filtered[:ENTRIES[:BUCKETS[:HASHES]]]  defaults 128:1024:2 (MICRO'03)
//! samie[:BANKSxENTRIESxSLOTS[:shN|shinf][:abN]]  default 64x2x8:sh8:ab64 (Table 3)
//! arb[:BANKSxROWS[:ifN]]                 default 64x2:if128 (Figure 1)
//! unbounded                              ideal LSQ, never the bottleneck
//! oracle                                 executable disambiguation spec
//! ```
//!
//! ## Examples
//!
//! ```
//! use samie_lsq::DesignSpec;
//!
//! // Parse any design from one descriptor...
//! let spec: DesignSpec = "samie:32x4x8:sh16:ab64".parse().unwrap();
//! // ...display round-trips...
//! assert_eq!(spec.to_string(), "samie:32x4x8:sh16:ab64");
//! assert_eq!(spec.to_string().parse::<DesignSpec>().unwrap(), spec);
//! // ...and build() is the single construction path to a runnable LSQ.
//! let lsq = spec.build();
//! assert_eq!(lsq.name(), "samie");
//! ```

use std::fmt;
use std::str::FromStr;

use crate::arb::{ArbConfig, ArbLsq};
use crate::checked::CheckedLsq;
use crate::conventional::ConventionalLsq;
use crate::filtered::FilteredLsq;
use crate::samie::{SamieConfig, SamieLsq};
use crate::traits::LoadStoreQueue;

/// A fully-specified LSQ design — every geometry parameter pinned.
///
/// See the [module docs](self) for the spec-string syntax and examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignSpec {
    /// Fully-associative age-ordered baseline with `entries` entries
    /// (the paper's 128-entry Table 2 baseline).
    Conventional {
        /// LSQ entries (allocation at dispatch).
        entries: usize,
    },
    /// Bloom-filtered conventional LSQ (Sethumadhavan et al., MICRO'03):
    /// `entries` entries behind `buckets`-bucket `hashes`-hash counting
    /// filters.
    Filtered {
        /// LSQ entries.
        entries: usize,
        /// Filter buckets (power of two).
        buckets: usize,
        /// Hash functions per filter.
        hashes: u32,
    },
    /// SAMIE-LSQ with an arbitrary geometry (Table 3 and the §3.5
    /// sizing-study variants).
    Samie(SamieConfig),
    /// Franklin & Sohi's Address Resolution Buffer (Figure 1).
    Arb(ArbConfig),
    /// Ideal LSQ of unlimited size — the IPC reference that is never the
    /// bottleneck and records no energy activity.
    Unbounded,
    /// The executable disambiguation specification run as a design: an
    /// unbounded structure whose every forwarding answer is cross-checked
    /// against the naive O(n²) oracle model.
    Oracle,
}

/// Error from parsing or validating a design spec string.
///
/// Renders as `` bad design spec `SPEC`: REASON ``.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignParseError {
    /// The offending spec string.
    pub spec: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for DesignParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad design spec `{}`: {}", self.spec, self.reason)
    }
}

impl std::error::Error for DesignParseError {}

impl DesignParseError {
    fn new(spec: &str, reason: impl Into<String>) -> Self {
        DesignParseError {
            spec: spec.to_string(),
            reason: reason.into(),
        }
    }
}

impl DesignSpec {
    /// Every kind keyword [`FromStr`] accepts, with its spec syntax — the
    /// rows `samie-exp designs` lists and the unknown-kind error names.
    pub const KINDS: [(&'static str, &'static str); 9] = [
        ("conv", "conv[:ENTRIES] - conventional LSQ (default 128)"),
        ("conventional", "alias of conv"),
        (
            "filtered",
            "filtered[:ENTRIES[:BUCKETS[:HASHES]]] - Bloom-filtered LSQ (default 128:1024:2)",
        ),
        ("filt", "alias of filtered"),
        (
            "samie",
            "samie[:BANKSxENTRIESxSLOTS[:shN|shinf][:abN]] - SAMIE-LSQ (default 64x2x8:sh8:ab64)",
        ),
        (
            "arb",
            "arb[:BANKSxROWS[:ifN]] - Franklin & Sohi ARB (default 64x2:if128)",
        ),
        ("unbounded", "unbounded - ideal LSQ, never the bottleneck"),
        ("ideal", "alias of unbounded"),
        (
            "oracle",
            "oracle - unbounded LSQ cross-checked against the disambiguation oracle",
        ),
    ];

    /// The paper's conventional baseline (128 entries, Table 2).
    pub fn conventional_paper() -> Self {
        DesignSpec::Conventional { entries: 128 }
    }

    /// The MICRO'03 filtered baseline at this window's scale.
    pub fn filtered_paper() -> Self {
        DesignSpec::Filtered {
            entries: 128,
            buckets: 1024,
            hashes: 2,
        }
    }

    /// SAMIE at the paper's chosen configuration (Table 3).
    pub fn samie_paper() -> Self {
        DesignSpec::Samie(SamieConfig::paper())
    }

    /// The three designs the paper's headline tables compare:
    /// conventional, filtered and SAMIE, each at its paper configuration.
    pub fn paper_trio() -> Vec<DesignSpec> {
        vec![
            Self::conventional_paper(),
            Self::filtered_paper(),
            Self::samie_paper(),
        ]
    }

    /// The design-family keyword the spec string starts with.
    pub fn kind(&self) -> &'static str {
        match self {
            DesignSpec::Conventional { .. } => "conv",
            DesignSpec::Filtered { .. } => "filtered",
            DesignSpec::Samie(_) => "samie",
            DesignSpec::Arb(_) => "arb",
            DesignSpec::Unbounded => "unbounded",
            DesignSpec::Oracle => "oracle",
        }
    }

    /// Check every geometry constraint a hand-constructed spec might
    /// violate ([`FromStr`] already enforces them during parsing).
    pub fn validate(&self) -> Result<(), DesignParseError> {
        let err = |reason: &str| Err(DesignParseError::new(&self.to_string(), reason));
        match *self {
            DesignSpec::Conventional { entries } => {
                if entries == 0 {
                    return err("entries must be positive");
                }
            }
            DesignSpec::Filtered {
                entries,
                buckets,
                hashes,
            } => {
                if entries == 0 || !buckets.is_power_of_two() || hashes == 0 {
                    return err("entries > 0, buckets a power of two, hashes > 0");
                }
            }
            DesignSpec::Samie(c) => {
                if !c.banks.is_power_of_two()
                    || c.entries_per_bank == 0
                    || c.slots_per_entry == 0
                    || c.shared_entries == 0
                    || c.abuf_slots == 0
                {
                    return err("banks must be a power of two, other dims positive");
                }
            }
            DesignSpec::Arb(c) => {
                if !c.banks.is_power_of_two() || c.rows_per_bank == 0 || c.max_inflight == 0 {
                    return err("banks must be a power of two, rows and inflight positive");
                }
            }
            DesignSpec::Unbounded | DesignSpec::Oracle => {}
        }
        Ok(())
    }

    /// Build the design — the single construction path every runner,
    /// sweep and example goes through.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`DesignSpec::validate`] (impossible for
    /// parsed specs).
    pub fn build(&self) -> Box<dyn LoadStoreQueue> {
        if let Err(e) = self.validate() {
            panic!("cannot build LSQ: {e}");
        }
        match *self {
            DesignSpec::Conventional { entries } => {
                Box::new(ConventionalLsq::with_capacity(entries))
            }
            DesignSpec::Filtered {
                entries,
                buckets,
                hashes,
            } => Box::new(FilteredLsq::new(entries, buckets, hashes)),
            DesignSpec::Samie(cfg) => Box::new(SamieLsq::new(cfg)),
            DesignSpec::Arb(cfg) => Box::new(ArbLsq::new(cfg)),
            DesignSpec::Unbounded => Box::new(ConventionalLsq::unbounded()),
            DesignSpec::Oracle => Box::new(CheckedLsq::oracle()),
        }
    }

    /// Parse a comma-separated design list.
    pub fn parse_list(specs: &str) -> Result<Vec<DesignSpec>, DesignParseError> {
        specs
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::parse)
            .collect()
    }

    /// Stable 128-bit fingerprint of the canonical spec string — the
    /// design component of an experiment-store key. Because the canonical
    /// string pins *every* geometry parameter, any change to the design
    /// yields a different fingerprint.
    pub fn fingerprint(&self) -> u128 {
        trace_isa::fingerprint128(self.to_string().as_bytes())
    }
}

impl fmt::Display for DesignSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignSpec::Conventional { entries } => write!(f, "conv:{entries}"),
            DesignSpec::Filtered {
                entries,
                buckets,
                hashes,
            } => write!(f, "filtered:{entries}:{buckets}:{hashes}"),
            DesignSpec::Samie(c) => {
                write!(
                    f,
                    "samie:{}x{}x{}:sh{}:ab{}",
                    c.banks,
                    c.entries_per_bank,
                    c.slots_per_entry,
                    if c.shared_unbounded() {
                        "inf".to_string()
                    } else {
                        c.shared_entries.to_string()
                    },
                    c.abuf_slots
                )
            }
            DesignSpec::Arb(c) => {
                write!(
                    f,
                    "arb:{}x{}:if{}",
                    c.banks, c.rows_per_bank, c.max_inflight
                )
            }
            DesignSpec::Unbounded => f.write_str("unbounded"),
            DesignSpec::Oracle => f.write_str("oracle"),
        }
    }
}

/// Split `dims` ("64x2x8") into `N` `x`-separated integers.
fn parse_dims<const N: usize>(
    spec: &str,
    dims: &str,
    what: [&str; N],
) -> Result<[usize; N], DesignParseError> {
    let parts: Vec<&str> = dims.split('x').collect();
    if parts.len() != N {
        return Err(DesignParseError::new(
            spec,
            format!("geometry must be {}", what.join("x").to_uppercase()),
        ));
    }
    let mut out = [0usize; N];
    for (i, p) in parts.iter().enumerate() {
        out[i] = p
            .parse()
            .map_err(|_| DesignParseError::new(spec, what[i]))?;
    }
    Ok(out)
}

impl FromStr for DesignSpec {
    type Err = DesignParseError;

    fn from_str(spec: &str) -> Result<Self, Self::Err> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let err = |reason: &str| Err(DesignParseError::new(spec, reason));
        let parsed = match kind {
            "conv" | "conventional" => {
                let entries = match parts.next() {
                    None => 128,
                    Some(e) => e
                        .parse()
                        .map_err(|_| DesignParseError::new(spec, "entries"))?,
                };
                DesignSpec::Conventional { entries }
            }
            "filtered" | "filt" => {
                let entries = parts
                    .next()
                    .map_or(Ok(128), str::parse)
                    .map_err(|_| DesignParseError::new(spec, "entries"))?;
                let buckets = parts
                    .next()
                    .map_or(Ok(1024), str::parse)
                    .map_err(|_| DesignParseError::new(spec, "buckets"))?;
                let hashes = parts
                    .next()
                    .map_or(Ok(2), str::parse)
                    .map_err(|_| DesignParseError::new(spec, "hashes"))?;
                DesignSpec::Filtered {
                    entries,
                    buckets,
                    hashes,
                }
            }
            "samie" => {
                let mut cfg = SamieConfig::paper();
                if let Some(geom) = parts.next() {
                    let [banks, entries, slots] =
                        parse_dims(spec, geom, ["banks", "entries", "slots"])?;
                    cfg.banks = banks;
                    cfg.entries_per_bank = entries;
                    cfg.slots_per_entry = slots;
                }
                for extra in parts.by_ref() {
                    if let Some(sh) = extra.strip_prefix("sh") {
                        cfg.shared_entries = if sh == "inf" {
                            SamieConfig::UNBOUNDED_SHARED
                        } else {
                            sh.parse()
                                .map_err(|_| DesignParseError::new(spec, "shared"))?
                        };
                    } else if let Some(ab) = extra.strip_prefix("ab") {
                        cfg.abuf_slots = ab
                            .parse()
                            .map_err(|_| DesignParseError::new(spec, "abuf"))?;
                    } else {
                        return err("expected sh<N>/shinf or ab<N>");
                    }
                }
                DesignSpec::Samie(cfg)
            }
            "arb" => {
                let mut cfg = ArbConfig::fig1(64, 2);
                if let Some(geom) = parts.next() {
                    let [banks, rows] = parse_dims(spec, geom, ["banks", "rows"])?;
                    cfg.banks = banks;
                    cfg.rows_per_bank = rows;
                }
                if let Some(extra) = parts.next() {
                    let Some(cap) = extra.strip_prefix("if") else {
                        return err("expected if<N>");
                    };
                    cfg.max_inflight = cap
                        .parse()
                        .map_err(|_| DesignParseError::new(spec, "inflight"))?;
                }
                DesignSpec::Arb(cfg)
            }
            "unbounded" | "ideal" => DesignSpec::Unbounded,
            "oracle" => DesignSpec::Oracle,
            _ => {
                let kinds: Vec<&str> = Self::KINDS.iter().map(|(kind, _)| *kind).collect();
                return err(&format!("unknown design kind (known: {})", kinds.join("/")));
            }
        };
        if parts.next().is_some() {
            return err("trailing fields");
        }
        parsed
            .validate()
            .map_err(|e| DesignParseError::new(spec, e.reason))?;
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for spec in [
            "conv:64",
            "filtered:128:1024:2",
            "samie:64x2x8:sh8:ab64",
            "samie:32x4x8:shinf:ab16",
            "arb:64x2:if128",
            "arb:8x16:if64",
            "unbounded",
            "oracle",
        ] {
            let d: DesignSpec = spec.parse().unwrap();
            assert_eq!(d.to_string(), spec, "display must round-trip");
            assert_eq!(d.to_string().parse::<DesignSpec>().unwrap(), d);
        }
    }

    #[test]
    fn parse_defaults() {
        assert_eq!(
            "conv".parse::<DesignSpec>().unwrap(),
            DesignSpec::conventional_paper()
        );
        assert_eq!(
            "filtered".parse::<DesignSpec>().unwrap(),
            DesignSpec::filtered_paper()
        );
        assert_eq!(
            "samie".parse::<DesignSpec>().unwrap(),
            DesignSpec::samie_paper()
        );
        assert_eq!(
            "arb".parse::<DesignSpec>().unwrap(),
            DesignSpec::Arb(ArbConfig::fig1(64, 2))
        );
    }

    #[test]
    fn parse_rejects_nonsense() {
        for bad in [
            "",
            "arbitrary",
            "conv:0",
            "conv:x",
            "samie:3x2x8",
            "samie:64x2",
            "samie:64x2x8:zz4",
            "filtered:128:100:2",
            "conv:128:9",
            "arb:3x2",
            "arb:64x2:zz",
            "unbounded:4",
            "oracle:1",
        ] {
            assert!(bad.parse::<DesignSpec>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn error_carries_spec_and_reason() {
        let e = "conv:0".parse::<DesignSpec>().unwrap_err();
        assert_eq!(
            e.to_string(),
            "bad design spec `conv:0`: entries must be positive"
        );
        let e = "warp:9".parse::<DesignSpec>().unwrap_err();
        assert!(e.to_string().contains("unknown design kind"));
        assert!(e.to_string().contains("samie"), "{e}");
    }

    #[test]
    fn parse_list_filters_empty_segments() {
        let ds = DesignSpec::parse_list("conv:64,,samie").unwrap();
        assert_eq!(ds.len(), 2);
        assert!(DesignSpec::parse_list("conv:64,bogus").is_err());
    }

    #[test]
    fn build_constructs_every_family() {
        for spec in ["conv", "filtered", "samie", "arb", "unbounded", "oracle"] {
            let d: DesignSpec = spec.parse().unwrap();
            let lsq = d.build();
            assert!(!lsq.name().is_empty(), "{spec}");
            assert!(lsq.can_dispatch(false) || matches!(d, DesignSpec::Arb(_)));
        }
    }

    #[test]
    fn aliases_resolve() {
        let parse = |spec: &str| spec.parse::<DesignSpec>().unwrap().to_string();
        assert_eq!(parse("conventional:64"), "conv:64");
        assert_eq!(parse("ideal"), "unbounded");
        assert_eq!(parse("filt:64"), "filtered:64:1024:2");
    }

    #[test]
    fn validate_rejects_hand_built_nonsense() {
        assert!(DesignSpec::Conventional { entries: 0 }.validate().is_err());
        assert!(DesignSpec::Samie(SamieConfig {
            banks: 3,
            ..SamieConfig::paper()
        })
        .validate()
        .is_err());
        assert!(DesignSpec::Unbounded.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot build LSQ")]
    fn build_panics_on_invalid_spec() {
        DesignSpec::Conventional { entries: 0 }.build();
    }

    #[test]
    fn fingerprint_tracks_geometry() {
        let paper = DesignSpec::samie_paper().fingerprint();
        let variant = DesignSpec::Samie(SamieConfig {
            banks: 32,
            ..SamieConfig::paper()
        })
        .fingerprint();
        assert_ne!(paper, variant);
        assert_eq!(paper, DesignSpec::samie_paper().fingerprint());
    }

    #[test]
    fn paper_trio_ids() {
        let ids: Vec<String> = DesignSpec::paper_trio()
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert_eq!(
            ids,
            ["conv:128", "filtered:128:1024:2", "samie:64x2x8:sh8:ab64"]
        );
    }
}
