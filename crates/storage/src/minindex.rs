//! A tournament tree answering "which slot holds the smallest key?".
//!
//! The cluster's write-log appends go to the least-backlogged gear-0 disk.
//! A scan for the smallest `next_free` costs one pass over every gear-0
//! queue (64 on the medium cluster) per off-loaded replica; the tree
//! answers in O(1) and re-settles one leaf-to-root path (log₂ n compares)
//! when a disk's `next_free` moves.
//!
//! Keys compare as `(key, slot)`, so among equal keys the lowest slot wins
//! — exactly the first minimum `Iterator::min_by_key` returns over slots
//! in ascending order.

use gm_sim::time::SimTime;

/// Min-index over a fixed number of slots keyed by [`SimTime`].
#[derive(Debug, Clone)]
pub(crate) struct MinIndex {
    /// Leaf keys, padded to a power of two with `SimTime(u64::MAX)`.
    keys: Vec<SimTime>,
    /// Heap-ordered winners: `tree[1]` is the overall minimum's slot, node
    /// `i`'s children are `2i` and `2i + 1`, leaves sit at `width + slot`.
    tree: Vec<u32>,
    width: usize,
    /// Real (unpadded) slots.
    len: usize,
}

impl MinIndex {
    /// An index over `keys.len()` slots (at least one).
    pub(crate) fn new(keys: impl ExactSizeIterator<Item = SimTime>) -> Self {
        let n = keys.len();
        assert!(n >= 1, "min-index needs at least one slot");
        let width = n.next_power_of_two();
        let mut padded: Vec<SimTime> = keys.collect();
        padded.resize(width, SimTime(u64::MAX));
        let mut tree = vec![0u32; 2 * width];
        for (slot, t) in tree[width..].iter_mut().enumerate() {
            *t = slot as u32;
        }
        let mut index = MinIndex { keys: padded, tree, width, len: n };
        for node in (1..width).rev() {
            index.tree[node] = index.winner(node);
        }
        index
    }

    /// The better of `node`'s two children. Padding slots carry the largest
    /// key and the largest indices, so they never beat a real slot.
    fn winner(&self, node: usize) -> u32 {
        let (a, b) = (self.tree[2 * node], self.tree[2 * node + 1]);
        // `a` is the left (lower-slot) contender: it wins ties.
        if self.keys[b as usize] < self.keys[a as usize] {
            b
        } else {
            a
        }
    }

    /// Number of slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot with the smallest key (lowest slot among ties).
    #[inline]
    pub(crate) fn min(&self) -> usize {
        self.tree[1] as usize
    }

    /// Set `slot`'s key and re-settle its path to the root.
    #[inline]
    pub(crate) fn update(&mut self, slot: usize, key: SimTime) {
        self.keys[slot] = key;
        let mut node = (self.width + slot) / 2;
        while node >= 1 {
            self.tree[node] = self.winner(node);
            node /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_min(keys: &[SimTime]) -> usize {
        (0..keys.len()).min_by_key(|&i| keys[i]).unwrap()
    }

    #[test]
    fn ties_pick_the_lowest_slot() {
        let keys = [SimTime(5); 7];
        let mut idx = MinIndex::new(keys.iter().copied());
        assert_eq!(idx.min(), 0);
        idx.update(0, SimTime(6));
        assert_eq!(idx.min(), 1);
        idx.update(4, SimTime(1));
        idx.update(2, SimTime(1));
        assert_eq!(idx.min(), 2, "lowest slot among the tied minimum");
    }

    #[test]
    fn single_slot() {
        let mut idx = MinIndex::new([SimTime(3)].into_iter());
        assert_eq!(idx.min(), 0);
        idx.update(0, SimTime(9));
        assert_eq!(idx.min(), 0);
    }

    #[test]
    fn tracks_a_linear_scan_under_random_updates() {
        for n in [1usize, 2, 3, 5, 64, 100] {
            let mut keys: Vec<SimTime> = (0..n).map(|i| SimTime((i as u64 * 7) % 5)).collect();
            let mut idx = MinIndex::new(keys.iter().copied());
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
            for _ in 0..2_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let slot = (x >> 33) as usize % n;
                let key = SimTime((x >> 13) % 8);
                keys[slot] = key;
                idx.update(slot, key);
                assert_eq!(idx.min(), first_min(&keys), "n={n}");
            }
        }
    }
}
