//! Data objects and replica metadata.
//!
//! The unit of placement is a fixed-identity *object* (think: chunk, extent
//! or volume slice). Each object has `R` replicas placed on distinct disks
//! by a [`crate::layout::Layout`]. Replica order matters: replica 0 is the
//! *primary* and, under the gear layout, lives in the always-on gear.

use serde::{Deserialize, Serialize};

/// Opaque object identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// Flat disk index within the cluster (`server * bays + bay`).
pub type DiskIdx = usize;

/// A placed data object.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataObject {
    /// Identifier.
    pub id: ObjectId,
    /// Size in bytes.
    pub size_bytes: u64,
    /// Disks holding each replica, in replica order (0 = primary). All
    /// entries are distinct.
    pub replicas: Vec<DiskIdx>,
}

/// Generalized directory entry: how an object's bytes are laid across
/// disks. The frozen directory always stores the replicated form; the
/// temperature layer overlays [`Placement::Erasure`] entries for objects it
/// has demoted to cold erasure coding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// `R`-way replication: full copies on distinct disks, index 0 primary.
    Replicated {
        /// Disks holding each replica, in replica order.
        replicas: Vec<DiskIdx>,
    },
    /// `k + m` erasure coding: any `k` of the `k + m` shards reconstruct
    /// the object; each shard holds `ceil(size / k)` bytes.
    Erasure {
        /// Data shards required for a read.
        k: usize,
        /// Parity shards tolerated as losses.
        m: usize,
        /// Disks holding each shard (`k + m` distinct entries).
        shards: Vec<DiskIdx>,
    },
}

impl Placement {
    /// All disks holding a piece of this object.
    pub fn disks(&self) -> &[DiskIdx] {
        match self {
            Placement::Replicated { replicas } => replicas,
            Placement::Erasure { shards, .. } => shards,
        }
    }
}

impl DataObject {
    /// Construct, asserting replica distinctness.
    pub fn new(id: ObjectId, size_bytes: u64, replicas: Vec<DiskIdx>) -> Self {
        debug_assert!(
            {
                let mut sorted = replicas.clone();
                sorted.sort_unstable();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "object {id:?} has duplicate replica disks: {replicas:?}"
        );
        DataObject { id, size_bytes, replicas }
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replicas.len()
    }

    /// The primary replica's disk.
    pub fn primary(&self) -> DiskIdx {
        self.replicas[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_basics() {
        let o = DataObject::new(ObjectId(7), 1 << 20, vec![3, 9, 17]);
        assert_eq!(o.replication(), 3);
        assert_eq!(o.primary(), 3);
        assert_eq!(o.size_bytes, 1 << 20);
    }

    /// The check is a `debug_assert!`, so an optimised build has nothing
    /// to test.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate replica disks")]
    fn duplicate_replicas_panic_in_debug() {
        let _ = DataObject::new(ObjectId(1), 1, vec![2, 5, 2]);
    }
}
