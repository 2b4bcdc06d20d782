//! Executable specification of memory disambiguation.
//!
//! A deliberately naive O(n²) model of what *any* correct LSQ must answer:
//! a load forwards from the youngest older store with a known, fully
//! covering address whose datum is ready; it must wait if the youngest
//! older overlapping known store cannot forward; otherwise it accesses the
//! cache. The property-test suites run random op sequences through the
//! real LSQs and through this oracle and require identical answers
//! (modulo each design's documented extra conservatism, e.g. SAMIE's
//! AddrBuffer ordering rule). [`CheckedLsq::oracle`](crate::CheckedLsq::oracle)
//! runs the same specification in-pipeline as `DesignSpec::Oracle`.

use crate::types::{Age, ForwardStatus, MemOp};

/// An in-flight op as the oracle sees it.
#[derive(Debug, Clone, Copy)]
pub struct OracleOp {
    /// The op.
    pub op: MemOp,
    /// Has its address been computed?
    pub addr_known: bool,
    /// For stores: is the datum available?
    pub data_ready: bool,
}

impl OracleOp {
    /// An op whose address is known.
    pub fn known(op: MemOp, data_ready: bool) -> Self {
        OracleOp {
            op,
            addr_known: true,
            data_ready,
        }
    }
}

/// The forwarding decision a correct LSQ must reach for the load of age
/// `load_age`, given the set of in-flight ops.
///
/// Panics if `load_age` does not identify a load with a known address.
pub fn forward_status(ops: &[OracleOp], load_age: Age) -> ForwardStatus {
    let load = ops
        .iter()
        .find(|o| o.op.age == load_age)
        .expect("load not among ops");
    assert!(
        !load.op.is_store && load.addr_known,
        "oracle query needs a known-address load"
    );
    let candidate = ops
        .iter()
        .filter(|o| {
            o.op.is_store && o.addr_known && o.op.age < load_age && o.op.mref.overlaps(load.op.mref)
        })
        .max_by_key(|o| o.op.age);
    match candidate {
        None => ForwardStatus::AccessCache,
        Some(st) if st.op.mref.covers(load.op.mref) && st.data_ready => {
            ForwardStatus::Forward { store: st.op.age }
        }
        Some(_) => ForwardStatus::Wait,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace_isa::MemRef;

    fn st(age: Age, addr: u64, size: u8, ready: bool) -> OracleOp {
        OracleOp::known(MemOp::store(age, MemRef::new(addr, size)), ready)
    }

    fn ld(age: Age, addr: u64, size: u8) -> OracleOp {
        OracleOp::known(MemOp::load(age, MemRef::new(addr, size)), false)
    }

    #[test]
    fn no_store_accesses_cache() {
        let ops = [ld(5, 0x100, 4)];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::AccessCache);
    }

    #[test]
    fn youngest_older_wins() {
        let ops = [
            st(1, 0x100, 8, true),
            st(3, 0x100, 8, true),
            ld(5, 0x104, 4),
        ];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::Forward { store: 3 });
    }

    #[test]
    fn partial_overlap_waits_even_with_older_cover() {
        // Store 3 partially overlaps and is youngest -> Wait, even though
        // store 1 covers.
        let ops = [
            st(1, 0x100, 8, true),
            st(3, 0x106, 4, true),
            ld(5, 0x104, 4),
        ];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::Wait);
    }

    #[test]
    fn unknown_addresses_are_invisible() {
        let mut blind = st(1, 0x100, 8, true);
        blind.addr_known = false;
        let ops = [blind, ld(5, 0x100, 4)];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::AccessCache);
    }

    #[test]
    fn data_not_ready_waits() {
        let ops = [st(1, 0x100, 8, false), ld(5, 0x100, 4)];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::Wait);
    }

    #[test]
    fn younger_stores_ignored() {
        let ops = [ld(5, 0x100, 4), st(7, 0x100, 8, true)];
        assert_eq!(forward_status(&ops, 5), ForwardStatus::AccessCache);
    }
}
