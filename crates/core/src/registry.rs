//! The extensible design registry: spec string in, buildable design out.
//!
//! [`DesignRegistry`] is the middleware between descriptor strings
//! (CLI flags, sweep grids, JSON rows) and runnable LSQs. The built-in
//! kinds all resolve through [`DesignSpec`], and downstream code can
//! [`register`](DesignRegistry::register) new kinds — a different LSQ
//! proposal, an instrumented wrapper, a remote proxy — without touching
//! any runner, sweep or CLI call site: everything downstream speaks
//! [`LsqFactory`].
//!
//! ```
//! use samie_lsq::{DesignRegistry, DesignSpec, LsqFactory, UnboundedLsq};
//! use std::sync::Arc;
//!
//! let mut reg = DesignRegistry::builtin();
//! // Built-in kinds parse through DesignSpec...
//! let samie = reg.parse("samie:32x4x8").unwrap();
//! assert_eq!(samie.id(), "samie:32x4x8:sh8:ab64");
//!
//! // ...and new kinds plug in without touching any call site.
//! reg.register("mylsq", "mylsq (a custom design)", |spec| {
//!     struct MyFactory;
//!     impl LsqFactory for MyFactory {
//!         fn id(&self) -> String {
//!             "mylsq".into()
//!         }
//!         fn build(&self) -> Box<dyn samie_lsq::LoadStoreQueue> {
//!             Box::new(UnboundedLsq::new())
//!         }
//!     }
//!     let _ = spec;
//!     Ok(Arc::new(MyFactory))
//! });
//! assert_eq!(reg.parse("mylsq").unwrap().id(), "mylsq");
//! ```

use std::sync::Arc;

use crate::design::{DesignParseError, DesignSpec};
use crate::traits::LoadStoreQueue;

/// An object-safe factory for one LSQ design: a stable identifier (the
/// canonical spec string stamped into reports) plus construction.
///
/// [`DesignSpec`] is the canonical implementation; custom designs
/// registered with a [`DesignRegistry`] provide their own.
pub trait LsqFactory: Send + Sync {
    /// Canonical descriptor of the design (round-trips through the
    /// registry that produced it).
    fn id(&self) -> String;

    /// Build a fresh instance of the design.
    fn build(&self) -> Box<dyn LoadStoreQueue>;
}

impl LsqFactory for DesignSpec {
    fn id(&self) -> String {
        self.to_string()
    }

    fn build(&self) -> Box<dyn LoadStoreQueue> {
        DesignSpec::build(self)
    }
}

/// A shared, thread-safe handle to a design factory — what sweep grids
/// and sessions carry per design.
pub type DesignHandle = Arc<dyn LsqFactory>;

type ParseFn = Box<dyn Fn(&str) -> Result<DesignHandle, DesignParseError> + Send + Sync>;

struct RegisteredKind {
    kind: &'static str,
    help: &'static str,
    parse: ParseFn,
}

/// Registry mapping design-kind keywords to parsers/factories.
pub struct DesignRegistry {
    kinds: Vec<RegisteredKind>,
}

impl DesignRegistry {
    /// An empty registry (no kinds — everything must be registered).
    pub fn empty() -> Self {
        DesignRegistry { kinds: Vec::new() }
    }

    /// The registry with every built-in design family, each resolving
    /// through [`DesignSpec`].
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        let builtin = |r: &mut Self, kind, help| {
            r.register(kind, help, |spec| {
                Ok(Arc::new(spec.parse::<DesignSpec>()?) as DesignHandle)
            });
        };
        builtin(
            &mut r,
            "conv",
            "conv[:ENTRIES] - conventional LSQ (default 128)",
        );
        builtin(&mut r, "conventional", "alias of conv");
        builtin(
            &mut r,
            "filtered",
            "filtered[:ENTRIES[:BUCKETS[:HASHES]]] - Bloom-filtered LSQ (default 128:1024:2)",
        );
        builtin(&mut r, "filt", "alias of filtered");
        builtin(
            &mut r,
            "samie",
            "samie[:BANKSxENTRIESxSLOTS[:shN|shinf][:abN]] - SAMIE-LSQ (default 64x2x8:sh8:ab64)",
        );
        builtin(
            &mut r,
            "arb",
            "arb[:BANKSxROWS[:ifN]] - Franklin & Sohi ARB (default 64x2:if128)",
        );
        builtin(
            &mut r,
            "unbounded",
            "unbounded - ideal LSQ, never the bottleneck",
        );
        builtin(&mut r, "ideal", "alias of unbounded");
        builtin(
            &mut r,
            "oracle",
            "oracle - unbounded LSQ cross-checked against the disambiguation oracle",
        );
        r
    }

    /// Register (or override) a design kind. `parse` receives the full
    /// spec string (including the kind keyword).
    pub fn register<F>(&mut self, kind: &'static str, help: &'static str, parse: F)
    where
        F: Fn(&str) -> Result<DesignHandle, DesignParseError> + Send + Sync + 'static,
    {
        self.kinds.retain(|k| k.kind != kind);
        self.kinds.push(RegisteredKind {
            kind,
            help,
            parse: Box::new(parse),
        });
    }

    /// Parse one spec string by dispatching on its leading kind keyword.
    pub fn parse(&self, spec: &str) -> Result<DesignHandle, DesignParseError> {
        let kind = spec.split(':').next().unwrap_or_default();
        let Some(k) = self.kinds.iter().find(|k| k.kind == kind) else {
            return Err(DesignParseError {
                spec: spec.to_string(),
                reason: format!(
                    "unknown design kind (registered: {})",
                    self.kind_names().join("/")
                ),
            });
        };
        (k.parse)(spec)
    }

    /// Parse a comma-separated design list (same list syntax as
    /// [`DesignSpec::parse_list`]).
    pub fn parse_list(&self, specs: &str) -> Result<Vec<DesignHandle>, DesignParseError> {
        crate::design::split_list(specs)
            .map(|s| self.parse(s))
            .collect()
    }

    /// Registered kind keywords, in registration order.
    pub fn kind_names(&self) -> Vec<&'static str> {
        self.kinds.iter().map(|k| k.kind).collect()
    }

    /// One `(kind, help)` line per registered kind — the CLI's
    /// `samie-exp designs` listing.
    pub fn help_lines(&self) -> Vec<(&'static str, &'static str)> {
        self.kinds.iter().map(|k| (k.kind, k.help)).collect()
    }
}

impl Default for DesignRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_parses_every_family() {
        let r = DesignRegistry::builtin();
        for spec in [
            "conv:64",
            "filtered",
            "samie:32x4x8",
            "arb",
            "unbounded",
            "oracle",
        ] {
            let f = r.parse(spec).unwrap();
            assert!(!f.id().is_empty());
            let _ = f.build();
        }
    }

    #[test]
    fn aliases_resolve() {
        let r = DesignRegistry::builtin();
        assert_eq!(r.parse("conventional:64").unwrap().id(), "conv:64");
        assert_eq!(r.parse("ideal").unwrap().id(), "unbounded");
        assert_eq!(r.parse("filt:64").unwrap().id(), "filtered:64:1024:2");
    }

    #[test]
    fn unknown_kind_lists_registered() {
        let r = DesignRegistry::builtin();
        let e = r.parse("warp:9").err().expect("unknown kind must fail");
        assert!(e.to_string().contains("samie"), "{e}");
    }

    #[test]
    fn custom_kind_overrides_and_lists() {
        let mut r = DesignRegistry::builtin();
        let n0 = r.kind_names().len();
        struct Fixed;
        impl LsqFactory for Fixed {
            fn id(&self) -> String {
                "fixed".into()
            }
            fn build(&self) -> Box<dyn LoadStoreQueue> {
                DesignSpec::Unbounded.build()
            }
        }
        r.register("fixed", "fixed - test double", |_| Ok(Arc::new(Fixed)));
        assert_eq!(r.kind_names().len(), n0 + 1);
        assert_eq!(r.parse("fixed:whatever").unwrap().id(), "fixed");
        // Re-registering replaces, not duplicates.
        r.register("fixed", "fixed - v2", |_| Ok(Arc::new(Fixed)));
        assert_eq!(r.kind_names().len(), n0 + 1);
        assert!(r.help_lines().iter().any(|(_, h)| h.ends_with("v2")));
    }

    #[test]
    fn parse_list_through_registry() {
        let r = DesignRegistry::builtin();
        let ds = r.parse_list("conv:64,samie,oracle").unwrap();
        assert_eq!(ds.len(), 3);
        assert!(r.parse_list("conv,warp").is_err());
    }
}
