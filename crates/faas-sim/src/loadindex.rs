//! Per-function least-loaded instance index for committed dispatch.
//!
//! Committed-assignment policies (`PerRequest`, `TargetConcurrency`,
//! `CostAware`) send every request to the live instance with the least
//! outstanding load, ties broken to the lowest instance index. Instance
//! indices are stable ids, so dead instances keep their slots forever and
//! a function's slot count grows with its whole history; a per-request
//! scan over every slot would make dispatch cost grow with run length.
//!
//! [`LoadIndex`] keeps the same per-slot `u32` loads (dead slots pinned at
//! `u32::MAX`) as the leaves of a tournament tree: each internal node holds
//! the smaller of its children's packed keys `load << 32 | idx`. Comparing
//! packed keys *is* comparing `(load, idx)` tuples — the load sits in the
//! high half, the index breaks ties in the low half — so the root is
//! exactly the `min` over `(load, idx)` that a linear scan returns.
//! Dead and padding leaves read as `u64::MAX`, above every live key.
//!
//! Reading the minimum is O(1); a load change rewrites the path from its
//! leaf to the root, stopping at the first ancestor whose value does not
//! change, so it is O(log n) worst case. Appending a slot is amortised
//! O(1): the tree is rebuilt only when the slot count outgrows its
//! power-of-two leaf capacity.

/// Packed key of a dead or never-spawned leaf: loses every comparison.
const DEAD: u64 = u64::MAX;

/// Tournament tree over per-instance loads; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct LoadIndex {
    /// Leaf values, one per instance slot ever spawned: the outstanding
    /// load of a live instance, `u32::MAX` for a dead one.
    loads: Vec<u32>,
    /// Internal nodes over `tree.len()` leaves (a power of two ≥ 2, or 0
    /// before the first slot). Node 1 is the root and node `i` has
    /// children `2i` and `2i + 1`; a child number `c ≥ tree.len()` is leaf
    /// `c - tree.len()`. `tree[0]` is unused.
    tree: Vec<u64>,
}

impl LoadIndex {
    /// The per-slot loads, `u32::MAX` marking dead slots.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn loads(&self) -> &[u32] {
        &self.loads
    }

    /// The least-loaded live slot as `(load, idx)`, ties broken to the
    /// lowest index; `None` when there are no slots or all are dead.
    #[inline]
    pub(crate) fn min(&self) -> Option<(u32, usize)> {
        match self.tree.get(1) {
            None | Some(&DEAD) => None,
            Some(&key) => Some(((key >> 32) as u32, (key & u64::from(u32::MAX)) as usize)),
        }
    }

    /// Appends a live slot holding `load`.
    pub(crate) fn push(&mut self, load: u32) {
        debug_assert_ne!(load, u32::MAX, "a live load cannot be the dead marker");
        let idx = self.loads.len();
        self.loads.push(load);
        if idx < self.tree.len() {
            self.fix_up(idx);
        } else {
            self.rebuild((self.tree.len() * 2).max(2));
        }
    }

    /// Adds `n` to live slot `idx`'s load.
    #[inline]
    pub(crate) fn add(&mut self, idx: usize, n: u32) {
        debug_assert_ne!(self.loads[idx], u32::MAX, "load change on a dead slot {idx}");
        self.loads[idx] += n;
        self.fix_up(idx);
    }

    /// Subtracts `n` from live slot `idx`'s load.
    #[inline]
    pub(crate) fn sub(&mut self, idx: usize, n: u32) {
        debug_assert_ne!(self.loads[idx], u32::MAX, "load change on a dead slot {idx}");
        self.loads[idx] -= n;
        self.fix_up(idx);
    }

    /// Marks slot `idx` dead: it never wins the minimum again.
    pub(crate) fn unlive(&mut self, idx: usize) {
        debug_assert_ne!(self.loads[idx], u32::MAX, "dying instance already dead");
        self.loads[idx] = u32::MAX;
        self.fix_up(idx);
    }

    #[inline]
    fn leaf_key(&self, leaf: usize) -> u64 {
        match self.loads.get(leaf) {
            Some(&load) if load != u32::MAX => (u64::from(load) << 32) | leaf as u64,
            _ => DEAD,
        }
    }

    #[inline]
    fn child_key(&self, child: usize) -> u64 {
        match child.checked_sub(self.tree.len()) {
            Some(leaf) => self.leaf_key(leaf),
            None => self.tree[child],
        }
    }

    /// Recomputes the ancestors of `leaf`, stopping at the first node
    /// whose value is unchanged (everything above it is then unchanged
    /// too). A parent's new value is the minimum of its updated child and
    /// that child's sibling, so each level reads one node.
    #[inline]
    fn fix_up(&mut self, leaf: usize) {
        let pair = leaf & !1;
        let mut key = self.leaf_key(pair).min(self.leaf_key(pair + 1));
        let mut node = (leaf + self.tree.len()) >> 1;
        while self.tree[node] != key {
            self.tree[node] = key;
            if node == 1 {
                break;
            }
            key = key.min(self.tree[node ^ 1]);
            node >>= 1;
        }
    }

    /// Resizes to `capacity` leaves and recomputes every internal node.
    fn rebuild(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two() && capacity >= self.loads.len());
        self.tree.clear();
        self.tree.resize(capacity, DEAD);
        for node in (1..capacity).rev() {
            self.tree[node] = self.child_key(2 * node).min(self.child_key(2 * node + 1));
        }
    }
}

/// Reference minimum by linear scan: the least load, then the first slot
/// holding it. The oracle for debug-build dispatch checks and the
/// property tests.
#[cfg(any(test, debug_assertions))]
pub(crate) fn scan_min(loads: &[u32]) -> Option<(u32, usize)> {
    match loads.iter().copied().min() {
        None | Some(u32::MAX) => None,
        Some(min) => Some((min, loads.iter().position(|&l| l == min).expect("minimum just found"))),
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn empty_and_all_dead_have_no_minimum() {
        let mut index = LoadIndex::default();
        assert_eq!(index.min(), None);
        for _ in 0..5 {
            index.push(0);
        }
        for idx in 0..5 {
            index.unlive(idx);
        }
        assert_eq!(index.min(), None);
        assert_eq!(scan_min(index.loads()), None);
    }

    #[test]
    fn ties_break_to_the_lowest_index() {
        let mut index = LoadIndex::default();
        for load in [3, 1, 2, 1, 1] {
            index.push(load);
        }
        assert_eq!(index.min(), Some((1, 1)));
        index.add(1, 1);
        assert_eq!(index.min(), Some((1, 3)));
        index.unlive(3);
        assert_eq!(index.min(), Some((1, 4)));
        index.sub(0, 3);
        assert_eq!(index.min(), Some((0, 0)));
    }

    #[test]
    fn growth_keeps_the_minimum() {
        let mut index = LoadIndex::default();
        index.push(5);
        for n in 1..=130u32 {
            index.push(5 + n);
            assert_eq!(index.min(), Some((5, 0)), "after growing to {} slots", n + 1);
        }
        index.unlive(0);
        assert_eq!(index.min(), Some((6, 1)));
    }

    /// Interpreted op stream: `k` picks a slot modulo the current length.
    #[derive(Debug, Clone)]
    enum Op {
        Push(u32),
        Add(usize, u32),
        Sub(usize, u32),
        Unlive(usize),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // Pushes weighted up so sequences cross several power-of-two
        // capacity boundaries; small loads so ties are common.
        prop_oneof![
            (0u32..4).prop_map(Op::Push),
            (0u32..4).prop_map(Op::Push),
            (0usize..512, 1u32..3).prop_map(|(k, n)| Op::Add(k, n)),
            (0usize..512, 1u32..3).prop_map(|(k, n)| Op::Sub(k, n)),
            (0usize..512).prop_map(Op::Unlive),
        ]
    }

    proptest! {
        /// Random push/add/sub/unlive sequences keep the index's minimum
        /// equal to the linear scan over a model of the loads, including
        /// the empty and all-dead states.
        #[test]
        fn min_matches_the_linear_scan(ops in proptest::collection::vec(op_strategy(), 0..400)) {
            let mut index = LoadIndex::default();
            let mut model: Vec<u32> = Vec::new();
            prop_assert_eq!(index.min(), None);
            for op in ops {
                match op {
                    Op::Push(load) => {
                        index.push(load);
                        model.push(load);
                    }
                    Op::Add(k, n) if !model.is_empty() && model[k % model.len()] != u32::MAX => {
                        let idx = k % model.len();
                        index.add(idx, n);
                        model[idx] += n;
                    }
                    Op::Sub(k, n) if !model.is_empty() && model[k % model.len()] != u32::MAX => {
                        let idx = k % model.len();
                        let n = n.min(model[idx]);
                        index.sub(idx, n);
                        model[idx] -= n;
                    }
                    Op::Unlive(k) if !model.is_empty() && model[k % model.len()] != u32::MAX => {
                        let idx = k % model.len();
                        index.unlive(idx);
                        model[idx] = u32::MAX;
                    }
                    _ => {} // change to a missing or dead slot: no-op
                }
                prop_assert_eq!(index.loads(), &model[..]);
                prop_assert_eq!(index.min(), scan_min(&model));
            }
            // Retire every slot: the index must report no minimum.
            for (idx, &load) in model.iter().enumerate() {
                if load != u32::MAX {
                    index.unlive(idx);
                }
            }
            prop_assert_eq!(index.min(), None);
        }
    }
}
