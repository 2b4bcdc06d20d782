//! [`PointKey`] — the full input coordinates of one simulated point.

use trace_isa::fingerprint128;

/// Everything that determines the outcome of one simulated experiment
/// point. Two keys address the same store entry iff every field matches;
/// the content address is [`PointKey::hash128`] over the canonical
/// rendition, and the canonical string itself is stored inside each entry
/// so a (astronomically unlikely) fingerprint collision is detected
/// rather than silently served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointKey {
    /// Canonical design id (`DesignSpec` string / `LsqFactory::id`),
    /// e.g. `samie:64x2x8:sh8:ab64`.
    pub design: String,
    /// Workload cache id (`Workload::cache_id`): `spec:<name>:<fp>`,
    /// `adv:<name>:<fp>` or `strc:<content digest>`.
    pub workload: String,
    /// Trace seed.
    pub seed: u64,
    /// Instructions in the measured interval.
    pub instrs: u64,
    /// Warm-up instructions before measurement.
    pub warmup: u64,
    /// Canonical core/memory configuration (`SimConfig::canonical`).
    pub sim_config: String,
    /// Simulator semantics version ([`crate::SIM_VERSION`]).
    pub sim_version: String,
}

impl PointKey {
    /// The canonical rendition: named fields joined by `|`, hashed for
    /// the content address and stored verbatim in each entry.
    pub fn canonical(&self) -> String {
        format!(
            "design={}|workload={}|seed={}|instrs={}|warmup={}|cfg={}|ver={}",
            self.design,
            self.workload,
            self.seed,
            self.instrs,
            self.warmup,
            self.sim_config,
            self.sim_version
        )
    }

    /// Stable 128-bit content address of this key.
    pub fn hash128(&self) -> u128 {
        fingerprint128(self.canonical().as_bytes())
    }

    /// The entry file name for this key (32 hex digits + `.point`).
    pub fn file_name(&self) -> String {
        format!("{:032x}.point", self.hash128())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> PointKey {
        PointKey {
            design: "conv:128".into(),
            workload: "spec:gzip:00ff".into(),
            seed: 42,
            instrs: 120_000,
            warmup: 30_000,
            sim_config: "paper".into(),
            sim_version: "samie-sim-v1".into(),
        }
    }

    #[test]
    fn canonical_names_every_field() {
        let c = sample().canonical();
        for part in [
            "design=conv:128",
            "workload=spec:gzip:00ff",
            "seed=42",
            "instrs=120000",
            "warmup=30000",
            "cfg=paper",
            "ver=samie-sim-v1",
        ] {
            assert!(c.contains(part), "{c} missing {part}");
        }
    }

    #[test]
    fn file_name_is_hex_of_hash() {
        let k = sample();
        assert_eq!(k.file_name(), format!("{:032x}.point", k.hash128()));
        assert_eq!(k.file_name().len(), 32 + ".point".len());
    }

    /// The content address is frozen: every on-disk store names its
    /// entry files by it, so a drift in `fingerprint128` or in
    /// `canonical` would silently orphan them all.
    #[test]
    fn file_name_of_a_fixed_key_is_pinned() {
        assert_eq!(
            sample().file_name(),
            "949115a87843b8ddb69f99c101c84683.point"
        );
    }
}
