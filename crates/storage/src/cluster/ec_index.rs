//! The dense erasure-coding overlay: which objects are on EC, and where
//! their shards live.
//!
//! Every object has one `u32` slot in `stripe_of`: [`NO_STRIPE`] while it
//! follows the frozen replicated directory, else the index of its stripe
//! in one flat shard arena of stride `k + m`. A promoted object's stripe
//! goes on a free list and is handed to the next demotion before the arena
//! grows, so the arena is as large as the most objects ever on EC at once
//! and no object owns a heap allocation.

/// `stripe_of` entry of an object that is not on EC.
const NO_STRIPE: u32 = u32::MAX;

#[derive(Debug)]
pub(super) struct EcIndex {
    /// Shards per stripe (`k + m`).
    width: usize,
    /// Per object: its stripe, or [`NO_STRIPE`].
    stripe_of: Vec<u32>,
    /// Stripe `s` holds its shard disks at `shards[s * width..][..width]`.
    shards: Vec<u32>,
    /// Stripes released by promotions, reused last-freed first.
    free: Vec<u32>,
}

impl EcIndex {
    /// An empty overlay over `objects` objects with `width`-shard stripes.
    pub(super) fn new(objects: usize, width: usize) -> Self {
        EcIndex { width, stripe_of: vec![NO_STRIPE; objects], shards: Vec::new(), free: Vec::new() }
    }

    /// Objects currently on EC: the arena's stripes less the free ones.
    pub(super) fn len(&self) -> usize {
        self.shards.len() / self.width - self.free.len()
    }

    /// Whether `obj` is on EC.
    #[inline]
    pub(super) fn contains(&self, obj: usize) -> bool {
        self.stripe_of[obj] != NO_STRIPE
    }

    /// The shard disks of `obj`, in shard order, if it is on EC.
    #[inline]
    pub(super) fn get(&self, obj: usize) -> Option<&[u32]> {
        let s = self.stripe_of[obj];
        (s != NO_STRIPE).then(|| &self.shards[s as usize * self.width..][..self.width])
    }

    /// Give `obj` a stripe and return its shard slots for the caller to
    /// fill. `obj` must not be on EC already.
    pub(super) fn insert(&mut self, obj: usize) -> &mut [u32] {
        debug_assert!(!self.contains(obj), "object {obj} is already on EC");
        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = (self.shards.len() / self.width) as u32;
                self.shards.resize(self.shards.len() + self.width, 0);
                s
            }
        };
        self.stripe_of[obj] = s;
        &mut self.shards[s as usize * self.width..][..self.width]
    }

    /// Take `obj` off EC, freeing its stripe. Returns whether it was on EC.
    pub(super) fn remove(&mut self, obj: usize) -> bool {
        let s = std::mem::replace(&mut self.stripe_of[obj], NO_STRIPE);
        if s == NO_STRIPE {
            return false;
        }
        self.free.push(s);
        true
    }

    /// The EC objects with their shard disks, in ascending object order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.stripe_of.len()).filter_map(|obj| self.get(obj).map(|shards| (obj, shards)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freed_stripes_are_reused_before_the_arena_grows() {
        let mut ec = EcIndex::new(8, 3);
        ec.insert(5).copy_from_slice(&[1, 2, 3]);
        ec.insert(2).copy_from_slice(&[4, 5, 6]);
        assert_eq!(ec.len(), 2);
        assert!(ec.remove(5));
        assert!(!ec.remove(5), "a replicated object has nothing to free");
        ec.insert(7).copy_from_slice(&[7, 8, 9]);
        assert_eq!(ec.shards.len(), 6, "the freed stripe was reused");
        assert_eq!(ec.get(7), Some(&[7, 8, 9][..]));
        assert_eq!(ec.get(2), Some(&[4, 5, 6][..]));
        assert_eq!(ec.get(5), None);
        let listed: Vec<(usize, Vec<u32>)> = ec.iter().map(|(o, s)| (o, s.to_vec())).collect();
        assert_eq!(listed, vec![(2, vec![4, 5, 6]), (7, vec![7, 8, 9])]);
    }
}
