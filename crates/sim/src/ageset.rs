//! A sorted-vector set of instruction ages.
//!
//! The pipeline's scheduling sets (ready queues, pending loads, unknown
//! store addresses) hold at most a ROB's worth of monotonically allocated
//! ages and are scanned oldest-first every cycle. A sorted `Vec` beats a
//! `BTreeSet` here on every operation that matters: iteration is a slice
//! walk, min is `first()`, membership updates are a binary search plus a
//! bounded `memmove`, and the common insert (an age younger than
//! everything resident) is a plain `push`.

use samie_lsq::Age;

/// An ordered set of ages backed by a sorted vector.
#[derive(Debug, Clone, Default)]
pub struct AgeSet {
    v: Vec<Age>,
}

impl AgeSet {
    /// An empty set.
    pub fn new() -> Self {
        AgeSet { v: Vec::new() }
    }

    /// Number of resident ages.
    #[inline]
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Is the set empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Oldest resident age.
    #[inline]
    pub fn first(&self) -> Option<Age> {
        self.v.first().copied()
    }

    /// Is any resident age strictly older than `age`?
    #[inline]
    pub fn any_below(&self, age: Age) -> bool {
        self.v.first().is_some_and(|&f| f < age)
    }

    /// Ascending view of the resident ages.
    #[inline]
    pub fn as_slice(&self) -> &[Age] {
        &self.v
    }

    /// Insert `age` (must not already be resident). Ages are allocated
    /// monotonically, so the append fast path covers almost every insert.
    #[inline]
    pub fn insert(&mut self, age: Age) {
        match self.v.last() {
            Some(&last) if last >= age => {
                let i = self.v.partition_point(|&a| a < age);
                debug_assert!(self.v.get(i) != Some(&age), "duplicate age {age}");
                self.v.insert(i, age);
            }
            _ => self.v.push(age),
        }
    }

    /// Remove `age`; returns whether it was resident.
    #[inline]
    pub fn remove(&mut self, age: Age) -> bool {
        let i = self.v.partition_point(|&a| a < age);
        if self.v.get(i) == Some(&age) {
            self.v.remove(i);
            true
        } else {
            false
        }
    }

    /// Walk the ages oldest-first and compact the set in the same pass.
    /// `visit` returns `Some(keep)` for each age it decides on, or `None`
    /// to stop: that age and every younger one stay. Removing `k` visited
    /// ages costs one `memmove` of the unvisited tail, not `k`.
    pub fn retain_oldest_first(&mut self, mut visit: impl FnMut(Age) -> Option<bool>) {
        let (mut read, mut write) = (0, 0);
        while read < self.v.len() {
            let age = self.v[read];
            let Some(keep) = visit(age) else {
                break;
            };
            if keep {
                self.v[write] = age;
                write += 1;
            }
            read += 1;
        }
        if write < read {
            self.v.copy_within(read.., write);
            self.v.truncate(self.v.len() - (read - write));
        }
    }

    /// Drop every age.
    #[inline]
    pub fn clear(&mut self) {
        self.v.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_order() {
        let mut s = AgeSet::new();
        for a in [5, 1, 9, 3, 7] {
            s.insert(a);
        }
        assert_eq!(s.as_slice(), &[1, 3, 5, 7, 9]);
        assert_eq!(s.first(), Some(1));
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn remove_reports_membership() {
        let mut s = AgeSet::new();
        s.insert(2);
        s.insert(4);
        assert!(s.remove(2));
        assert!(!s.remove(3));
        assert_eq!(s.as_slice(), &[4]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
    }

    #[test]
    fn retain_oldest_first_compacts_and_keeps_the_unvisited_tail() {
        let mut s = AgeSet::new();
        for a in 1..=8 {
            s.insert(a);
        }
        let mut visited = Vec::new();
        s.retain_oldest_first(|a| {
            visited.push(a);
            match a {
                6 => None,
                _ => Some(a % 2 == 1),
            }
        });
        assert_eq!(visited, [1, 2, 3, 4, 5, 6]);
        assert_eq!(s.as_slice(), &[1, 3, 5, 6, 7, 8]);
        s.retain_oldest_first(|_| Some(false));
        assert!(s.is_empty());
    }

    #[test]
    fn any_below_checks_the_minimum() {
        let mut s = AgeSet::new();
        assert!(!s.any_below(100));
        s.insert(10);
        assert!(!s.any_below(10));
        assert!(s.any_below(11));
    }
}
