//! Design factories: the object-safe handle sweep grids, sessions and
//! the fuzzer carry per design.
//!
//! [`DesignSpec`] is the one design grammar — every `--designs` list
//! parses through [`DesignSpec::parse_list`] — and it implements
//! [`LsqFactory`]. A custom design implements the trait itself and
//! runs wherever a [`DesignHandle`] goes, without touching any runner,
//! sweep or session:
//!
//! ```
//! use samie_lsq::{ConventionalLsq, DesignHandle, DesignSpec, LsqFactory};
//! use std::sync::Arc;
//!
//! struct MyFactory;
//! impl LsqFactory for MyFactory {
//!     fn id(&self) -> String {
//!         "mylsq".into()
//!     }
//!     fn build(&self) -> Box<dyn samie_lsq::LoadStoreQueue> {
//!         Box::new(ConventionalLsq::unbounded())
//!     }
//! }
//!
//! let designs: Vec<DesignHandle> = vec![
//!     Arc::new("samie:32x4x8".parse::<DesignSpec>().unwrap()),
//!     Arc::new(MyFactory),
//! ];
//! assert_eq!(designs[0].id(), "samie:32x4x8:sh8:ab64");
//! assert_eq!(designs[1].id(), "mylsq");
//! ```

use std::sync::Arc;

use crate::design::DesignSpec;
use crate::traits::LoadStoreQueue;

/// An object-safe factory for one LSQ design: a stable identifier (the
/// canonical spec string stamped into reports) plus construction.
///
/// [`DesignSpec`] is the canonical implementation; a custom design (a
/// test double, an instrumented wrapper such as [`checked`](crate::checked()))
/// provides its own.
pub trait LsqFactory: Send + Sync {
    /// Canonical descriptor of the design (for a [`DesignSpec`], its
    /// spec string).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_parses_every_family() {
        for (kind, _) in DesignSpec::KINDS {
            let f: DesignHandle = Arc::new(kind.parse::<DesignSpec>().unwrap());
            assert!(!f.id().is_empty());
            let _ = f.build();
        }
    }
}
