//! The assembled storage cluster.
//!
//! [`Cluster`] owns the servers, disks, per-disk FCFS timelines, the object
//! directory, the gear controller and the write log, and exposes the three
//! operations schedulers compose:
//!
//! 1. [`Cluster::set_active_gears`] — spatial matching: power servers (and
//!    their disks) of gears `g..` down, `..g` up. Gear 0 can never be
//!    powered off (it holds the primary copy of every object under the gear
//!    layout, plus the write log).
//! 2. [`Cluster::serve_batch`] / [`Cluster::serve_request`] — route a
//!    slot's (or one) interactive I/O: reads go to the least-backlogged
//!    *active* replica (with on-demand spin-up as a last resort for layouts
//!    that orphan objects); writes hit every active replica and off-load
//!    powered-down replicas to the write log.
//! 3. [`Cluster::add_sequential_work`] / [`Cluster::reclaim`] — batch work
//!    placement and write-log replay.
//!
//! [`Cluster::end_slot`] integrates the slot's energy: per-disk busy/idle/
//! standby blending, per-server linear CPU power (utilisation proxied by
//! the mean busy fraction of the server's disks), plus the spin-up and
//! boot surcharges incurred during the slot. Overhead energy (spin-ups,
//! reclaim replay work) is also reported separately so the loss-breakdown
//! experiment can attribute it.

use crate::batch::RequestBatch;
use crate::cache::{LruCache, CACHE_HIT_SERVICE};
use crate::disk::{Disk, DiskSpec};
use crate::failure::FailureReport;
use crate::layout::{obj_hash, LayoutKind, Topology};
use crate::minindex::MinIndex;
use crate::object::{DataObject, DiskIdx, ObjectId, Placement};
use crate::queue::{DiskQueue, ServedRequest};
use crate::request::{IoKind, IoRequest};
use crate::server::{Server, ServerSpec};
use crate::temperature::{EwmaEstimator, EwmaParams, Temperature, TemperatureEstimator};
use crate::writelog::WriteLog;
use gm_sim::time::{SimDuration, SimTime};
use gm_sim::LogHistogram;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

mod ec_index;
use ec_index::EcIndex;

/// Static cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Physical shape (servers × bays, gear count).
    pub topology: Topology,
    /// Disk model.
    pub disk: DiskSpec,
    /// Server model.
    pub server: ServerSpec,
    /// Replication factor (≤ gears for the gear layout).
    pub replication: usize,
    /// Placement strategy.
    pub layout: LayoutKind,
    /// Placement seed.
    pub layout_seed: u64,
    /// Number of objects to pre-place.
    pub objects: usize,
    /// Object size in bytes (uniform; object-size spread is carried by
    /// request sizes instead, which is what latency actually sees).
    pub object_size_bytes: u64,
    /// Aggregate RAM read-cache capacity in bytes (0 = disabled). Models
    /// the gear-0 frontends' page cache at object granularity.
    pub cache_bytes: u64,
}

impl ClusterSpec {
    /// Check what the request path relies on: object ids must fit the
    /// 32-bit object column of a [`RequestBatch`].
    pub fn validate(&self) -> Result<(), String> {
        if self.objects > u32::MAX as usize {
            return Err(format!(
                "cluster.objects = {}, expected at most 2^32 - 1 (requests store 32-bit object ids)",
                self.objects
            ));
        }
        Ok(())
    }

    /// Check a temperature layer for this cluster before
    /// [`Cluster::enable_tiering`] builds it: valid EWMA parameters, a
    /// `cold_fraction_target` in `[0, 1]`, at least one data and one
    /// parity shard, and a `k + m` stripe that fits the gears.
    pub fn validate_tiering(
        &self,
        params: &EwmaParams,
        cold_fraction_target: f64,
        k: usize,
        m: usize,
    ) -> Result<(), String> {
        self.validate()?;
        params.validate()?;
        if !(0.0..=1.0).contains(&cold_fraction_target) {
            return Err(format!(
                "cold_fraction_target = {cold_fraction_target}, expected a value in [0, 1]"
            ));
        }
        if k == 0 || m == 0 {
            return Err(format!("EC ({k}+{m}) needs k >= 1 data and m >= 1 parity shards"));
        }
        let topo = self.topology;
        let per_gear = topo.servers_per_gear() * topo.bays;
        if (k + m).div_ceil(topo.gears) > per_gear {
            return Err(format!(
                "EC ({k}+{m}) shards do not fit {} gears of {per_gear} disks",
                topo.gears
            ));
        }
        Ok(())
    }

    /// The default medium data center of the reconstruction: 48 servers ×
    /// 4 disks, 3-way gear replication, 100 k objects of 64 MiB.
    pub fn medium_dc() -> Self {
        ClusterSpec {
            topology: Topology::new(48, 4, 3),
            disk: DiskSpec::enterprise_sata(),
            server: ServerSpec::storage_node(),
            replication: 3,
            layout: LayoutKind::Gear,
            layout_seed: 0x6EA2,
            objects: 100_000,
            object_size_bytes: 64 << 20,
            cache_bytes: 0,
        }
    }

    /// A small cluster for tests/examples: 6 servers × 2 disks, 3 gears.
    pub fn small() -> Self {
        ClusterSpec {
            topology: Topology::new(6, 2, 3),
            disk: DiskSpec::enterprise_sata(),
            server: ServerSpec::storage_node(),
            replication: 3,
            layout: LayoutKind::Gear,
            layout_seed: 7,
            objects: 1_000,
            object_size_bytes: 16 << 20,
            cache_bytes: 0,
        }
    }
}

/// Current gear activation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GearState {
    /// Gears `0..active` are powered.
    pub active: usize,
    /// Total gear count.
    pub total: usize,
}

/// Energy integrated for one slot, by component (Wh).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SlotEnergy {
    /// Disk energy (all states, including transition draw).
    pub disks_wh: f64,
    /// Server CPU-side energy.
    pub servers_wh: f64,
    /// Of the total, energy attributable to spin-up/boot surcharges.
    pub spinup_overhead_wh: f64,
    /// Marginal energy of write-log reclaim replay work done this slot.
    pub reclaim_overhead_wh: f64,
    /// Marginal energy of on-demand (availability-forced) spin-ups.
    pub forced_spinup_count: u64,
}

impl SlotEnergy {
    /// Total IT load of the slot (Wh).
    pub fn total_wh(&self) -> f64 {
        self.disks_wh + self.servers_wh
    }
}

/// The immutable part of a cluster: its spec plus the fully placed object
/// directory.
///
/// Placing the directory (`objects` × `replication` layout decisions) is
/// the expensive half of cluster construction and depends only on the
/// [`ClusterSpec`], so sweeps build it once and share an
/// `Arc<ClusterLayout>` across runs; every run's [`Cluster`] then carries
/// only the cheap mutable state (disks, queues, write log, counters).
/// Nothing in the simulation mutates the directory — failures track
/// rebuild state per *disk*, not per object.
///
/// The serve path reads replicas through a flattened copy of the
/// directory (CSR: object `o`'s replicas are
/// `replica_disks[replica_offsets[o]..replica_offsets[o + 1]]`, in replica
/// order), so picking a replica is two array loads instead of a pointer
/// chase into a per-object `Vec`.
#[derive(Debug, Clone)]
pub struct ClusterLayout {
    spec: ClusterSpec,
    directory: Vec<DataObject>,
    replica_offsets: Vec<u32>,
    replica_disks: Vec<u32>,
}

impl ClusterLayout {
    /// Place every object of `spec` and freeze the result.
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(spec.replication >= 1);
        let topo = spec.topology;
        let layout = spec.layout.build(spec.layout_seed);
        let directory = (0..spec.objects)
            .map(|i| {
                let id = ObjectId(i as u64);
                DataObject::new(
                    id,
                    spec.object_size_bytes,
                    layout.place(&topo, id, spec.replication),
                )
            })
            .collect::<Vec<DataObject>>();
        let mut replica_offsets = Vec::with_capacity(directory.len() + 1);
        let mut replica_disks = Vec::with_capacity(directory.len() * spec.replication);
        replica_offsets.push(0);
        for obj in &directory {
            replica_disks.extend(obj.replicas.iter().map(|&d| d as u32));
            replica_offsets
                .push(u32::try_from(replica_disks.len()).expect("replica count fits u32"));
        }
        ClusterLayout { spec, directory, replica_offsets, replica_disks }
    }

    /// Index range of object `obj`'s replicas in `replica_disks`.
    #[inline]
    fn replica_range(&self, obj: usize) -> std::ops::Range<usize> {
        self.replica_offsets[obj] as usize..self.replica_offsets[obj + 1] as usize
    }

    /// The spec the layout was placed for.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The placed object directory.
    pub fn directory(&self) -> &[DataObject] {
        &self.directory
    }
}

/// The full mutable state of a [`Cluster`], for checkpointing.
///
/// The immutable half (the [`ClusterLayout`]: spec + placed directory) is
/// deliberately absent — it is a pure function of config and is rebuilt or
/// cache-shared on restore. The lazily-built disk→objects reverse index is
/// also excluded (rebuilt on first use; its contents are layout-derived).
/// All fields mirror [`Cluster`]'s mutable fields exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterSnapshot {
    /// Per-server power state.
    pub servers: Vec<Server>,
    /// Per-disk power/transition state and lifetime counters.
    pub disks: Vec<Disk>,
    /// Per-disk FCFS timelines.
    pub queues: Vec<DiskQueue>,
    /// Off-loaded write log.
    pub writelog: WriteLog,
    /// Gears `0..active` powered.
    pub active_gears: usize,
    /// Per-disk awaiting-rebuild flags.
    pub pending_rebuild: Vec<bool>,
    /// Lifetime failure counters.
    pub total_failures: u64,
    /// Objects that went through an exposure window with no intact replica.
    pub total_lost_objects: u64,
    /// Total rebuild work generated (bytes).
    pub total_rebuild_bytes: u64,
    /// Reads served with every replica awaiting rebuild.
    pub degraded_reads: u64,
    /// Surcharge energy accrued since the last `end_slot` (zero at slot
    /// boundaries, carried for robustness).
    pub pending_surcharge_wh: f64,
    /// Reclaim busy time accrued since the last `end_slot`.
    pub pending_reclaim_busy: SimDuration,
    /// On-demand spin-ups since the last `end_slot`.
    pub pending_forced_spinups: u64,
    /// Lifetime spin-up count.
    pub total_spinups: u64,
    /// Lifetime forced spin-up count.
    pub total_forced_spinups: u64,
    /// RAM read-cache arena (recency order, hit/miss counters).
    pub cache: LruCache,
    /// Temperature-tier state, present iff tiering was enabled. Absent in
    /// pre-tiering snapshots (v1), which restore onto tiering-off clusters.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tiering: Option<TieringSnapshot>,
}

/// Serialized temperature-tier state (mirrors [`Tiering`]'s dynamic
/// fields; thresholds and EC geometry come from config on restore).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TieringSnapshot {
    /// Smoothed per-object access rates.
    pub rate: Vec<f64>,
    /// Hits accumulated since the last `tier_step`.
    pub hits: Vec<u32>,
    /// Current per-object temperature.
    pub temp: Vec<Temperature>,
    /// Erasure-coded objects: `(object index, shard disks)`, sorted by
    /// object index for byte-stable snapshots.
    pub ec: Vec<(u32, Vec<DiskIdx>)>,
    /// Objects with an in-flight migration, sorted.
    pub migrating: Vec<u32>,
    /// Raw bytes currently consumed across all placements.
    pub capacity_bytes: u64,
}

/// One slot's classifier output: tier census plus the migration work the
/// scheduler should enqueue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TierStep {
    /// Objects classified hot.
    pub hot: u64,
    /// Objects classified warm.
    pub warm: u64,
    /// Objects classified cold.
    pub cold: u64,
    /// Object indices selected for replicated→EC demotion this slot.
    pub demote: Vec<u32>,
    /// Object indices selected for EC→replicated promotion this slot.
    pub promote: Vec<u32>,
    /// Total I/O bytes the demotions will cost (read replica + write shards).
    pub demote_bytes: u64,
    /// Total I/O bytes the promotions will cost (read shards + write replicas).
    pub promote_bytes: u64,
}

/// Why [`Cluster::restore_state`] refused a snapshot. A refused snapshot
/// leaves the cluster untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The per-server or per-disk vectors do not match the topology.
    Shape {
        /// Servers in the snapshot.
        servers: usize,
        /// Disks in the snapshot.
        disks: usize,
        /// Servers in the topology.
        topology_servers: usize,
        /// Disks in the topology.
        topology_disks: usize,
    },
    /// `active_gears` is outside `1..=gears`.
    ActiveGears {
        /// The snapshot's active gear count.
        active: usize,
        /// The topology's gear count.
        gears: usize,
    },
    /// Tiering is on in one of the cluster and the snapshot and off in the
    /// other.
    TieringMismatch {
        /// Whether the cluster has tiering on.
        cluster: bool,
        /// Whether the snapshot carries tier state.
        snapshot: bool,
    },
    /// A per-object tier vector tracks a different number of objects.
    TierObjects {
        /// The vector's length in the snapshot.
        snapshot: usize,
        /// The cluster's object count.
        cluster: usize,
    },
    /// An `ec` or `migrating` entry names an object the cluster lacks.
    TierObjectIndex {
        /// The list (`"ec"` or `"migrating"`).
        list: &'static str,
        /// The object index.
        obj: u32,
        /// The cluster's object count.
        objects: usize,
    },
    /// An `ec` or `migrating` list is not strictly ascending.
    TierListOrder {
        /// The list (`"ec"` or `"migrating"`).
        list: &'static str,
        /// The first entry not above its predecessor.
        obj: u32,
    },
    /// An EC stripe does not have `k + m` shards.
    StripeWidth {
        /// The object.
        obj: u32,
        /// Its shard count in the snapshot.
        width: usize,
        /// `k + m`.
        expected: usize,
    },
    /// An EC shard sits on a disk the cluster lacks.
    ShardDisk {
        /// The object.
        obj: u32,
        /// The shard's disk.
        disk: DiskIdx,
        /// The cluster's disk count.
        disks: usize,
    },
    /// Two shards of one EC stripe sit on the same disk.
    DuplicateShard {
        /// The object.
        obj: u32,
        /// The repeated disk.
        disk: DiskIdx,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let on_off = |on: bool| if on { "on" } else { "off" };
        match self {
            RestoreError::Shape { servers, disks, topology_servers, topology_disks } => write!(
                f,
                "cluster snapshot shape ({servers} servers, {disks} disks) does not match \
                 topology ({topology_servers} servers, {topology_disks} disks)"
            ),
            RestoreError::ActiveGears { active, gears } => {
                write!(f, "cluster snapshot active_gears {active} out of range 1..={gears}")
            }
            RestoreError::TieringMismatch { cluster, snapshot } => write!(
                f,
                "tiering mismatch: cluster {}, snapshot {}",
                on_off(*cluster),
                on_off(*snapshot)
            ),
            RestoreError::TierObjects { snapshot, cluster } => {
                write!(f, "tiering snapshot tracks {snapshot} objects, cluster has {cluster}")
            }
            RestoreError::TierObjectIndex { list, obj, objects } => {
                write!(f, "tiering snapshot {list} entry {obj} is not one of {objects} objects")
            }
            RestoreError::TierListOrder { list, obj } => {
                write!(f, "tiering snapshot {list} list is not strictly ascending at {obj}")
            }
            RestoreError::StripeWidth { obj, width, expected } => write!(
                f,
                "tiering snapshot stripe of object {obj} has {width} shards, expected {expected}"
            ),
            RestoreError::ShardDisk { obj, disk, disks } => {
                write!(f, "tiering snapshot stripe of object {obj} names disk {disk} of {disks}")
            }
            RestoreError::DuplicateShard { obj, disk } => {
                write!(f, "tiering snapshot stripe of object {obj} holds two shards on disk {disk}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Live temperature-tier state: per-object access tracking, the swappable
/// classifier, the EC placement overlay, and capacity accounting. Boxed on
/// [`Cluster`] so tiering-off runs pay one pointer.
#[derive(Debug)]
struct Tiering {
    /// Ceiling on the cold fraction of the fleet (demotion stops there).
    cold_fraction_target: f64,
    /// EC data shards.
    k: usize,
    /// EC parity shards.
    m: usize,
    /// The estimator (EWMA today; the trait keeps it swappable).
    estimator: EwmaEstimator,
    /// Serve hits per object since the last `tier_step`.
    hits: Vec<u32>,
    /// Current temperature per object.
    temp: Vec<Temperature>,
    /// EC placement overlay: each object's shard disks, if it is on EC.
    /// Objects absent here still follow the frozen replicated directory.
    ec: EcIndex,
    /// Per-object in-flight-migration flag (placement flips at completion).
    migrating: Vec<bool>,
    /// Number of set `migrating` flags.
    in_flight: usize,
    /// Raw bytes consumed across all placements.
    capacity_bytes: u64,
    /// Reused buffers of the EC read's shard choice: the chosen shards
    /// with their forced flags, and candidates being ordered by backlog.
    pick: Vec<(DiskIdx, bool)>,
    order: Vec<DiskIdx>,
}

/// Deterministic EC shard placement for `obj` into `shards` (its `k + m`
/// stripe), packed bottom-up: shard `s` goes to gear `s / per_gear`, so
/// the `k` data shards fill the lowest (powered-first) gears and parity
/// sits above them. Where the stripe fits gear 0 this mirrors the gear
/// layout's replica-0 guarantee — a normal k-shard read never forces a
/// spin-up; parity is only touched by writes (write-log offloaded when
/// dark) and rebuilds. Spread within the gear by object hash with linear
/// probing for distinctness.
fn place_ec_shards(spec: &ClusterSpec, obj: usize, shards: &mut [u32]) {
    let topo = spec.topology;
    let per_gear = topo.servers_per_gear() * topo.bays;
    let id = ObjectId(obj as u64);
    let seed = spec.layout_seed ^ 0xEC0D_E000;
    for s in 0..shards.len() {
        let gear = s / per_gear;
        let base = gear * per_gear;
        let start = (obj_hash(seed, id, s as u64) % per_gear as u64) as usize;
        let mut probe = 0;
        loop {
            let d = (base + (start + probe) % per_gear) as u32;
            if !shards[..s].contains(&d) {
                shards[s] = d;
                break;
            }
            probe += 1;
            debug_assert!(probe <= per_gear, "gear {gear} exhausted placing shard {s}");
        }
    }
}

/// The live cluster.
pub struct Cluster {
    layout: Arc<ClusterLayout>,
    servers: Vec<Server>,
    disks: Vec<Disk>,
    queues: Vec<DiskQueue>,
    writelog: WriteLog,
    active_gears: usize,
    /// Slot width used for background-interference accounting.
    slot_width: SimDuration,
    /// Per-disk: failed and awaiting rebuild (disk is physically replaced
    /// immediately, but holds no data until `mark_rebuilt`).
    pending_rebuild: Vec<bool>,
    /// Reverse index disk → objects with a replica there (built lazily on
    /// the first failure; empty until then).
    disk_objects: Vec<Vec<u32>>,
    /// Lifetime failure counters.
    total_failures: u64,
    total_lost_objects: u64,
    total_rebuild_bytes: u64,
    /// Reads whose every replica was awaiting rebuild (served degraded).
    degraded_reads: u64,
    /// Surcharge energy (spin-ups, boots) incurred since the last
    /// `end_slot`, already destined for that slot's total.
    pending_surcharge_wh: f64,
    /// Reclaim busy time added since the last `end_slot`.
    pending_reclaim_busy: SimDuration,
    /// On-demand spin-ups since the last `end_slot`.
    pending_forced_spinups: u64,
    /// Lifetime counters.
    total_spinups: u64,
    total_forced_spinups: u64,
    /// Read cache (disabled at zero capacity).
    cache: LruCache,
    /// Temperature-tier state (None = tiering off; the default).
    tiering: Option<Box<Tiering>>,
    /// Per-disk availability: the server is on, the disk spinning or
    /// spinning up, and not awaiting rebuild. Derived from `servers`,
    /// `disks` and `pending_rebuild`, and refreshed wherever one of those
    /// changes, so the serve path reads one flag per replica.
    available: Vec<bool>,
    /// Min-index over the gear-0 disks' `next_free`: the write-log disk
    /// pick. Updated by [`Cluster::serve_on`], the only non-test caller of
    /// `DiskQueue::serve`, which is the only writer of `next_free`.
    log_disks: MinIndex,
}

impl Cluster {
    /// Build a cluster and place all objects (cold path: places a fresh
    /// layout; sweeps should share one via [`Cluster::from_layout`]).
    pub fn new(spec: ClusterSpec) -> Self {
        Cluster::from_layout(Arc::new(ClusterLayout::new(spec)))
    }

    /// Build the mutable cluster state over a shared immutable layout.
    pub fn from_layout(layout: Arc<ClusterLayout>) -> Self {
        let spec = &layout.spec;
        let topo = spec.topology;
        let gears = topo.gears;
        let mut cluster = Cluster {
            servers: (0..topo.servers).map(|_| Server::new(spec.server)).collect(),
            disks: (0..topo.n_disks()).map(|_| Disk::new(spec.disk)).collect(),
            queues: (0..topo.n_disks()).map(|_| DiskQueue::new()).collect(),
            writelog: WriteLog::new(gears),
            active_gears: gears,
            slot_width: SimDuration::from_hours(1),
            pending_rebuild: vec![false; topo.n_disks()],
            disk_objects: Vec::new(),
            total_failures: 0,
            total_lost_objects: 0,
            total_rebuild_bytes: 0,
            degraded_reads: 0,
            pending_surcharge_wh: 0.0,
            pending_reclaim_busy: SimDuration::ZERO,
            pending_forced_spinups: 0,
            total_spinups: 0,
            total_forced_spinups: 0,
            cache: LruCache::new(spec.cache_bytes),
            tiering: None,
            available: vec![false; topo.n_disks()],
            log_disks: MinIndex::new(topo.disks_in_gear_range(0).map(|_| SimTime::ZERO)),
            layout,
        };
        cluster.refresh_available(0..topo.n_disks());
        cluster
    }

    /// Turn the temperature layer on: track per-object access, classify
    /// hot/warm/cold each `tier_step`, and overlay `k + m` erasure coding
    /// for demoted objects. Must be called before any traffic (capacity
    /// accounting starts from the all-replicated state).
    ///
    /// # Panics
    /// If [`ClusterSpec::validate_tiering`] rejects the arguments.
    pub fn enable_tiering(
        &mut self,
        params: EwmaParams,
        cold_fraction_target: f64,
        k: usize,
        m: usize,
    ) {
        let spec = &self.layout.spec;
        if let Err(e) = spec.validate_tiering(&params, cold_fraction_target, k, m) {
            panic!("{e}");
        }
        let n = spec.objects;
        self.tiering = Some(Box::new(Tiering {
            cold_fraction_target,
            k,
            m,
            estimator: EwmaEstimator::new(params, n),
            hits: vec![0; n],
            temp: vec![Temperature::Warm; n],
            ec: EcIndex::new(n, k + m),
            migrating: vec![false; n],
            in_flight: 0,
            capacity_bytes: n as u64 * spec.replication as u64 * spec.object_size_bytes,
            pick: Vec::with_capacity(k),
            order: Vec::with_capacity(k + m),
        }));
    }

    /// Whether the temperature layer is on.
    pub fn tiering_enabled(&self) -> bool {
        self.tiering.is_some()
    }

    /// Raw bytes consumed across all placements. With tiering off this is
    /// the constant `objects × replication × size`.
    pub fn capacity_in_use_bytes(&self) -> u64 {
        match &self.tiering {
            Some(t) => t.capacity_bytes,
            None => {
                let s = &self.layout.spec;
                s.objects as u64 * s.replication as u64 * s.object_size_bytes
            }
        }
    }

    /// Number of objects currently on erasure coding.
    pub fn ec_objects(&self) -> usize {
        self.tiering.as_ref().map_or(0, |t| t.ec.len())
    }

    /// Tier migrations selected by `tier_step` and not yet completed.
    pub fn migrations_in_flight(&self) -> usize {
        self.tiering.as_ref().map_or(0, |t| t.in_flight)
    }

    /// Whether `obj` has a tier migration in flight.
    pub fn is_migrating(&self, obj: usize) -> bool {
        self.tiering.as_ref().is_some_and(|t| t.migrating[obj])
    }

    /// Current placement of an object: the frozen replicated directory
    /// entry, unless the temperature layer has demoted it to EC.
    pub fn placement_of(&self, obj: usize) -> Placement {
        if let Some(t) = &self.tiering {
            if let Some(shards) = t.ec.get(obj) {
                let shards = shards.iter().map(|&d| d as DiskIdx).collect();
                return Placement::Erasure { k: t.k, m: t.m, shards };
            }
        }
        Placement::Replicated { replicas: self.layout.directory[obj].replicas.clone() }
    }

    /// Run one classification slot of width `hours`: fold the accumulated
    /// serve hits into the estimator, reclassify every object, and select up
    /// to `max_migrations` demotions and promotions. Demotion stops at the
    /// cold-fraction ceiling; both directions skip objects already
    /// migrating. Selected objects are marked in-flight — the placement
    /// flips when the caller reports the migration job complete via
    /// [`Cluster::complete_migration`]. No-op with tiering off.
    ///
    /// One ascending pass does it all. An object's class depends only on
    /// its own state, demotion wants Cold and promotion Hot (no object
    /// qualifies for both), and both stop conditions only ever become
    /// true, so picking in the pass selects exactly the lowest-index
    /// candidates separate demotion and promotion scans would.
    pub fn tier_step(&mut self, hours: f64, max_migrations: usize) -> TierStep {
        let Some(t) = &mut self.tiering else {
            return TierStep::default();
        };
        let spec = &self.layout.spec;
        // Demotions stop at the cold-fraction ceiling, which counts EC
        // residents and in-flight work.
        let ceiling = (t.cold_fraction_target * spec.objects as f64).floor() as usize;
        let mut cold_footprint = t.ec.len() + t.in_flight;
        let mut out = TierStep::default();
        let Tiering { estimator, hits, temp, ec, migrating, .. } = &mut **t;
        for obj in 0..hits.len() {
            estimator.observe(obj, hits[obj], hours);
            hits[obj] = 0;
            let class = estimator.classify(obj, temp[obj]);
            temp[obj] = class;
            match class {
                Temperature::Hot => {
                    out.hot += 1;
                    if out.promote.len() < max_migrations && !migrating[obj] && ec.contains(obj) {
                        migrating[obj] = true;
                        out.promote.push(obj as u32);
                    }
                }
                Temperature::Warm => out.warm += 1,
                Temperature::Cold => {
                    out.cold += 1;
                    if out.demote.len() < max_migrations
                        && cold_footprint < ceiling
                        && !migrating[obj]
                        && !ec.contains(obj)
                    {
                        migrating[obj] = true;
                        cold_footprint += 1;
                        out.demote.push(obj as u32);
                    }
                }
            }
        }
        t.in_flight += out.demote.len() + out.promote.len();
        let size = spec.object_size_bytes;
        let shard_bytes = size.div_ceil(t.k as u64);
        out.demote_bytes = out.demote.len() as u64 * (size + (t.k + t.m) as u64 * shard_bytes);
        out.promote_bytes =
            out.promote.len() as u64 * (t.k as u64 * shard_bytes + spec.replication as u64 * size);
        out
    }

    /// Flip the placement of migrated objects once their (scheduled,
    /// green-matched) copy work has executed. `demote` installs EC shards
    /// and releases the replicas; promotion restores the directory replicas
    /// and releases the shards. Returns `(bytes released, bytes written)` —
    /// the capacity-conservation pair the auditor checks.
    pub fn complete_migration(&mut self, objs: &[u32], demote: bool) -> (u64, u64) {
        if objs.is_empty() {
            return (0, 0);
        }
        let spec = &self.layout.spec;
        let t = self.tiering.as_mut().expect("migration needs tiering");
        for &o in objs {
            let obj = o as usize;
            let was_migrating = std::mem::replace(&mut t.migrating[obj], false);
            debug_assert!(was_migrating, "completing a migration that was never scheduled");
            t.in_flight -= usize::from(was_migrating);
            if demote {
                place_ec_shards(spec, obj, t.ec.insert(obj));
            } else {
                let was_ec = t.ec.remove(obj);
                debug_assert!(was_ec, "promoting a replicated object");
            }
        }
        let n = objs.len() as u64;
        let ec_bytes = n * (t.k + t.m) as u64 * spec.object_size_bytes.div_ceil(t.k as u64);
        let replica_bytes = n * spec.replication as u64 * spec.object_size_bytes;
        let (released, written) =
            if demote { (replica_bytes, ec_bytes) } else { (ec_bytes, replica_bytes) };
        t.capacity_bytes = t.capacity_bytes - released + written;
        (released, written)
    }

    /// Capture the full mutable state for checkpointing. The layout is not
    /// captured (see [`ClusterSnapshot`]); restoring pairs this state with
    /// a layout rebuilt from the resume config.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            servers: self.servers.clone(),
            disks: self.disks.clone(),
            queues: self.queues.clone(),
            writelog: self.writelog.clone(),
            active_gears: self.active_gears,
            pending_rebuild: self.pending_rebuild.clone(),
            total_failures: self.total_failures,
            total_lost_objects: self.total_lost_objects,
            total_rebuild_bytes: self.total_rebuild_bytes,
            degraded_reads: self.degraded_reads,
            pending_surcharge_wh: self.pending_surcharge_wh,
            pending_reclaim_busy: self.pending_reclaim_busy,
            pending_forced_spinups: self.pending_forced_spinups,
            total_spinups: self.total_spinups,
            total_forced_spinups: self.total_forced_spinups,
            cache: self.cache.clone(),
            tiering: self.tiering.as_ref().map(|t| {
                let ec =
                    t.ec.iter()
                        .map(|(o, s)| (o as u32, s.iter().map(|&d| d as DiskIdx).collect()))
                        .collect();
                let migrating: Vec<u32> =
                    (0..t.migrating.len() as u32).filter(|&o| t.migrating[o as usize]).collect();
                TieringSnapshot {
                    rate: t.estimator.rate.clone(),
                    hits: t.hits.clone(),
                    temp: t.temp.clone(),
                    ec,
                    migrating,
                    capacity_bytes: t.capacity_bytes,
                }
            }),
        }
    }

    /// Overlay a previously captured state onto this (freshly assembled)
    /// cluster, keeping its layout and slot width. The whole snapshot is
    /// checked against this cluster before anything is written, so a
    /// refused snapshot leaves the cluster as it was: its per-server and
    /// per-disk vectors must match the topology (a snapshot cannot resume
    /// under a different cluster shape), and its tier state must match
    /// the cluster's tiering and be well formed: per-object vectors of the
    /// cluster's length, `ec` and `migrating` lists of in-range objects in
    /// strictly ascending order, and EC stripes of `k + m` distinct disks
    /// of this cluster.
    pub fn restore_state(&mut self, snap: &ClusterSnapshot) -> Result<(), RestoreError> {
        let topo = self.layout.spec.topology;
        if snap.servers.len() != topo.servers
            || snap.disks.len() != topo.n_disks()
            || snap.queues.len() != topo.n_disks()
            || snap.pending_rebuild.len() != topo.n_disks()
        {
            return Err(RestoreError::Shape {
                servers: snap.servers.len(),
                disks: snap.disks.len(),
                topology_servers: topo.servers,
                topology_disks: topo.n_disks(),
            });
        }
        if snap.active_gears == 0 || snap.active_gears > topo.gears {
            return Err(RestoreError::ActiveGears { active: snap.active_gears, gears: topo.gears });
        }
        match (&self.tiering, &snap.tiering) {
            (None, None) => {}
            (Some(t), Some(ts)) => self.check_tiering_snapshot(t, ts)?,
            (mine, theirs) => {
                return Err(RestoreError::TieringMismatch {
                    cluster: mine.is_some(),
                    snapshot: theirs.is_some(),
                })
            }
        }
        self.servers = snap.servers.clone();
        self.disks = snap.disks.clone();
        self.queues = snap.queues.clone();
        self.writelog = snap.writelog.clone();
        self.active_gears = snap.active_gears;
        self.pending_rebuild = snap.pending_rebuild.clone();
        self.refresh_available(0..topo.n_disks());
        self.log_disks =
            MinIndex::new(topo.disks_in_gear_range(0).map(|d| self.queues[d].next_free()));
        // The reverse index is lazily derived from the layout; drop any
        // stale copy so the first post-restore failure rebuilds it.
        self.disk_objects = Vec::new();
        self.total_failures = snap.total_failures;
        self.total_lost_objects = snap.total_lost_objects;
        self.total_rebuild_bytes = snap.total_rebuild_bytes;
        self.degraded_reads = snap.degraded_reads;
        self.pending_surcharge_wh = snap.pending_surcharge_wh;
        self.pending_reclaim_busy = snap.pending_reclaim_busy;
        self.pending_forced_spinups = snap.pending_forced_spinups;
        self.total_spinups = snap.total_spinups;
        self.total_forced_spinups = snap.total_forced_spinups;
        self.cache = snap.cache.clone();
        if let (Some(t), Some(ts)) = (&mut self.tiering, &snap.tiering) {
            let n = t.hits.len();
            t.estimator.rate = ts.rate.clone();
            t.hits = ts.hits.clone();
            t.temp = ts.temp.clone();
            t.ec = EcIndex::new(n, t.k + t.m);
            for (o, shards) in &ts.ec {
                for (slot, &d) in t.ec.insert(*o as usize).iter_mut().zip(shards) {
                    *slot = d as u32;
                }
            }
            t.migrating = vec![false; n];
            for &o in &ts.migrating {
                t.migrating[o as usize] = true;
            }
            t.in_flight = ts.migrating.len();
            t.capacity_bytes = ts.capacity_bytes;
        }
        Ok(())
    }

    /// Check a tier snapshot against the live tier state `t` before any of
    /// it is restored (see [`Cluster::restore_state`]).
    fn check_tiering_snapshot(
        &self,
        t: &Tiering,
        ts: &TieringSnapshot,
    ) -> Result<(), RestoreError> {
        let n = t.hits.len();
        for len in [ts.rate.len(), ts.hits.len(), ts.temp.len()] {
            if len != n {
                return Err(RestoreError::TierObjects { snapshot: len, cluster: n });
            }
        }
        fn check_list(
            list: &'static str,
            objs: impl Iterator<Item = u32>,
            n: usize,
        ) -> Result<(), RestoreError> {
            let mut prev = None;
            for obj in objs {
                if obj as usize >= n {
                    return Err(RestoreError::TierObjectIndex { list, obj, objects: n });
                }
                if prev.is_some_and(|p| p >= obj) {
                    return Err(RestoreError::TierListOrder { list, obj });
                }
                prev = Some(obj);
            }
            Ok(())
        }
        check_list("ec", ts.ec.iter().map(|(o, _)| *o), n)?;
        check_list("migrating", ts.migrating.iter().copied(), n)?;
        let (width, disks) = (t.k + t.m, self.layout.spec.topology.n_disks());
        for (obj, shards) in &ts.ec {
            if shards.len() != width {
                return Err(RestoreError::StripeWidth {
                    obj: *obj,
                    width: shards.len(),
                    expected: width,
                });
            }
            for (i, &disk) in shards.iter().enumerate() {
                if disk >= disks {
                    return Err(RestoreError::ShardDisk { obj: *obj, disk, disks });
                }
                if shards[..i].contains(&disk) {
                    return Err(RestoreError::DuplicateShard { obj: *obj, disk });
                }
            }
        }
        Ok(())
    }

    /// The static spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.layout.spec
    }

    /// The shared immutable layout.
    pub fn layout(&self) -> &Arc<ClusterLayout> {
        &self.layout
    }

    /// Set the slot width used for background-interference accounting
    /// (defaults to 1 hour; call once before the run if the clock differs).
    pub fn set_slot_width(&mut self, width: SimDuration) {
        assert!(width.0 > 0);
        self.slot_width = width;
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.layout.spec.topology
    }

    /// Current gear state.
    pub fn gear_state(&self) -> GearState {
        GearState { active: self.active_gears, total: self.layout.spec.topology.gears }
    }

    /// The object directory.
    pub fn directory(&self) -> &[DataObject] {
        &self.layout.directory
    }

    /// The write log.
    pub fn write_log(&self) -> &WriteLog {
        &self.writelog
    }

    /// Lifetime spin-up count (policy-driven + forced).
    pub fn total_spinups(&self) -> u64 {
        self.total_spinups
    }

    /// Lifetime disk failures injected.
    pub fn total_failures(&self) -> u64 {
        self.total_failures
    }

    /// Objects that went through an exposure window with no intact replica.
    pub fn total_lost_objects(&self) -> u64 {
        self.total_lost_objects
    }

    /// Total rebuild work generated by failures (bytes).
    pub fn total_rebuild_bytes(&self) -> u64 {
        self.total_rebuild_bytes
    }

    /// Reads served while every replica was awaiting rebuild.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads
    }

    /// Whether `disk` is awaiting rebuild.
    pub fn is_rebuilding(&self, disk: DiskIdx) -> bool {
        self.pending_rebuild[disk]
    }

    /// The read cache (disabled at zero capacity).
    pub fn cache(&self) -> &LruCache {
        &self.cache
    }

    /// Cumulative spin-up count of one disk (failure-model input).
    pub fn disk_spinups(&self, disk: DiskIdx) -> u64 {
        self.disks[disk].spinup_count()
    }

    /// Whether `disk` is currently in standby (failure-model input).
    pub fn disk_in_standby(&self, disk: DiskIdx) -> bool {
        matches!(self.disks[disk].state(), crate::disk::DiskPowerState::Standby)
    }

    /// Build (once) the reverse index disk → object ids.
    fn ensure_disk_index(&mut self) {
        if !self.disk_objects.is_empty() {
            return;
        }
        self.disk_objects = vec![Vec::new(); self.layout.spec.topology.n_disks()];
        for obj in &self.layout.directory {
            for &d in &obj.replicas {
                self.disk_objects[d].push(obj.id.0 as u32);
            }
        }
    }

    /// Inject a disk failure at `now`. The drive is logically replaced at
    /// once (blank); its replicas must be re-created by
    /// [`Cluster::rebuild_step`]/[`Cluster::mark_rebuilt`]. Returns the
    /// failure's blast radius. Failing an already-rebuilding disk extends
    /// the window but generates no new work.
    pub fn fail_disk(&mut self, disk: DiskIdx, now: SimTime) -> FailureReport {
        self.ensure_disk_index();
        self.total_failures += 1;
        if self.pending_rebuild[disk] {
            return FailureReport { disk, affected_objects: 0, lost_objects: 0, rebuild_bytes: 0 };
        }
        // Exposure check before marking, so co-failed disks are visible.
        // Objects the temperature layer moved to EC are skipped here (their
        // replicas were released) and scanned via the EC overlay instead.
        let mut lost = 0usize;
        let mut affected = 0usize;
        for &oid in &self.disk_objects[disk] {
            if self.is_ec(oid as usize) {
                continue;
            }
            let obj = &self.layout.directory[oid as usize];
            let intact = obj.replicas.iter().any(|&d| d != disk && !self.pending_rebuild[d]);
            if !intact {
                lost += 1;
            }
            affected += 1;
        }
        let mut rebuild_bytes = affected as u64 * self.layout.spec.object_size_bytes;
        // EC overlay: a shard on the failed disk is rebuilt by reading k
        // survivors and writing the replacement; more than m failed shards
        // is data loss.
        if let Some(t) = &self.tiering {
            let shard_bytes = self.layout.spec.object_size_bytes.div_ceil(t.k as u64);
            for (_, shards) in t.ec.iter() {
                if !shards.contains(&(disk as u32)) {
                    continue;
                }
                affected += 1;
                rebuild_bytes += (t.k as u64 + 1) * shard_bytes;
                let failed = shards
                    .iter()
                    .map(|&d| d as DiskIdx)
                    .filter(|&d| d == disk || self.pending_rebuild[d])
                    .count();
                if failed > t.m {
                    lost += 1;
                }
            }
        }
        self.pending_rebuild[disk] = true;
        // The replacement drive spins up fresh (it must be written to).
        let srv = self.layout.spec.topology.server_of_disk(disk);
        if self.servers[srv].is_on() {
            self.disks[disk].spin_up(now);
        }
        self.refresh_available(disk..disk + 1);
        self.total_lost_objects += lost as u64;
        self.total_rebuild_bytes += rebuild_bytes;
        FailureReport { disk, affected_objects: affected, lost_objects: lost, rebuild_bytes }
    }

    /// Perform `bytes` of rebuild toward `disk` at `now`: sequential reads
    /// from surviving replicas plus the sequential write onto the
    /// replacement. The caller (scheduler) decides when this runs —
    /// rebuild is schedulable work like any other batch job.
    pub fn rebuild_step(&mut self, disk: DiskIdx, bytes: u64, now: SimTime) -> ServedRequest {
        debug_assert!(self.pending_rebuild[disk], "rebuild_step on a healthy disk");
        // Write onto the replacement drive.
        let ready = self.ensure_disk_up(disk, now, false);
        let service = self.layout.spec.disk.service_time(bytes, true);
        self.queues[disk].add_background(now, ready, service)
    }

    /// Declare `disk` fully re-populated.
    pub fn mark_rebuilt(&mut self, disk: DiskIdx) {
        self.pending_rebuild[disk] = false;
        self.refresh_available(disk..disk + 1);
    }

    /// Lifetime forced (availability-driven) spin-up count.
    pub fn total_forced_spinups(&self) -> u64 {
        self.total_forced_spinups
    }

    /// Recompute the availability flags of `disks` from the server, disk
    /// and rebuild state (see the `available` field).
    fn refresh_available(&mut self, disks: std::ops::Range<DiskIdx>) {
        let topo = self.layout.spec.topology;
        for d in disks {
            self.available[d] = !self.pending_rebuild[d]
                && self.servers[topo.server_of_disk(d)].is_on()
                && self.disks[d].ready_at().is_some();
        }
    }

    /// Ready instant of `disk`, spinning it (and booting its server) up on
    /// demand if necessary. `forced` marks availability-driven spin-ups.
    fn ensure_disk_up(&mut self, disk: DiskIdx, now: SimTime, forced: bool) -> SimTime {
        if self.available[disk] {
            // Server on and disk spinning (or spinning up): nothing to power.
            return self.ready_of_available(disk, now);
        }
        let topo = self.layout.spec.topology;
        let srv = topo.server_of_disk(disk);
        let mut ready = now;
        let booted = self.servers[srv].power_on();
        if booted {
            self.pending_surcharge_wh += self.layout.spec.server.poweron_extra_wh();
            ready = now + SimDuration::from_secs_f64(self.layout.spec.server.poweron_latency_s);
        }
        let spun = self.disks[disk].spin_up(now);
        if spun {
            self.pending_surcharge_wh += self.layout.spec.disk.spinup_extra_wh();
            self.total_spinups += 1;
            if forced {
                self.pending_forced_spinups += 1;
                self.total_forced_spinups += 1;
            }
        }
        if booted || spun {
            self.refresh_available(topo.disks_of_server(srv));
        }
        match self.disks[disk].ready_at() {
            Some(t) => ready.max(t),
            None => ready,
        }
    }

    /// [`Cluster::ensure_disk_up`] for an available disk, which powers
    /// nothing: the request waits only for a spin-up still in flight.
    #[inline]
    fn ready_of_available(&self, disk: DiskIdx, now: SimTime) -> SimTime {
        debug_assert!(self.available[disk]);
        match self.disks[disk].ready_at() {
            Some(t) => now.max(t),
            None => now,
        }
    }

    /// Power gears `0..active` on and the rest off. Gear 0 is always kept
    /// on. Disks that are mid-I/O finish their backlog regardless (the
    /// timeline cursor is independent of power state; a real system would
    /// drain before parking — the energy difference is the tail of one
    /// request).
    pub fn set_active_gears(&mut self, active: usize, now: SimTime) {
        let active = active.clamp(1, self.layout.spec.topology.gears);
        let topo = self.layout.spec.topology;
        for g in 0..topo.gears {
            let powered = g < active;
            let spg = topo.servers_per_gear();
            for srv in g * spg..(g + 1) * spg {
                if powered {
                    if self.servers[srv].power_on() {
                        self.pending_surcharge_wh += self.layout.spec.server.poweron_extra_wh();
                    }
                    for d in topo.disks_of_server(srv) {
                        if self.disks[d].spin_up(now) {
                            self.pending_surcharge_wh += self.layout.spec.disk.spinup_extra_wh();
                            self.total_spinups += 1;
                        }
                    }
                } else {
                    for d in topo.disks_of_server(srv) {
                        self.disks[d].spin_down(now);
                    }
                    // Only power the server off if every disk actually
                    // parked (spin-downs mid-transition are refused).
                    if topo.disks_of_server(srv).all(|d| {
                        matches!(self.disks[d].state(), crate::disk::DiskPowerState::Standby)
                    }) {
                        self.servers[srv].power_off();
                    }
                }
            }
        }
        self.active_gears = active;
        self.refresh_available(0..topo.n_disks());
    }

    /// Serve one interactive request. Returns the client-visible outcome.
    ///
    /// The one-request entry point over the same kernel as
    /// [`Cluster::serve_batch`]: reads go to the least-backlogged
    /// available replica (forced spin-up of an intact one as a last
    /// resort), writes hit every available replica and off-load the rest
    /// to the write log.
    pub fn serve_request(&mut self, req: &IoRequest) -> ServedRequest {
        match (self.cache.is_enabled(), self.tiering.is_some()) {
            (false, false) => self.serve_one::<false, false>(req),
            (true, false) => self.serve_one::<true, false>(req),
            (false, true) => self.serve_one::<false, true>(req),
            (true, true) => self.serve_one::<true, true>(req),
        }
    }

    /// Serve a slot's whole batch in one pass, in arrival order, recording
    /// each request's latency (seconds) into `hist`. Identical, request by
    /// request, to calling [`Cluster::serve_request`] on each
    /// `batch.request(i)` and recording its latency; the read-cache and
    /// tiering branches are taken once per batch instead of per request.
    pub fn serve_batch(&mut self, batch: &RequestBatch, hist: &mut LogHistogram) {
        self.serve_batch_with(batch, |served| hist.record(served.latency.as_secs_f64()));
    }

    /// [`Cluster::serve_batch`] with every outcome handed to `sink`.
    fn serve_batch_with(&mut self, batch: &RequestBatch, sink: impl FnMut(ServedRequest)) {
        match (self.cache.is_enabled(), self.tiering.is_some()) {
            (false, false) => self.serve_all::<false, false>(batch, sink),
            (true, false) => self.serve_all::<true, false>(batch, sink),
            (false, true) => self.serve_all::<false, true>(batch, sink),
            (true, true) => self.serve_all::<true, true>(batch, sink),
        }
    }

    fn serve_all<const CACHE: bool, const TIERING: bool>(
        &mut self,
        batch: &RequestBatch,
        mut sink: impl FnMut(ServedRequest),
    ) {
        for req in batch.iter() {
            sink(self.serve_one::<CACHE, TIERING>(&req));
        }
    }

    /// The per-request kernel. `CACHE` and `TIERING` must equal
    /// `self.cache.is_enabled()` and `self.tiering.is_some()`; with the
    /// cache off, probes, fills and invalidations are no-ops, so skipping
    /// them changes nothing.
    #[inline(always)]
    fn serve_one<const CACHE: bool, const TIERING: bool>(
        &mut self,
        req: &IoRequest,
    ) -> ServedRequest {
        let obj_idx = req.object.0 as usize;
        if TIERING {
            // Access tracking on the hot path: one saturating add.
            let t = self.tiering.as_mut().expect("tiering on");
            t.hits[obj_idx] = t.hits[obj_idx].saturating_add(1);
        }
        let spec = &self.layout.spec.disk;
        // Service times, once per request: the request's own and the
        // sequential write-log append of the same bytes.
        let append = SimDuration::from_secs_f64(req.size_bytes as f64 / spec.transfer_bps);
        let service =
            if req.sequential { append } else { spec.avg_seek + spec.avg_rotation + append };
        match req.kind {
            IoKind::Read => {
                // RAM cache absorbs hot reads without touching a disk.
                if CACHE && self.cache.probe(req.object) {
                    let completion = req.arrival + CACHE_HIT_SERVICE;
                    return ServedRequest {
                        start: req.arrival,
                        completion,
                        latency: CACHE_HIT_SERVICE,
                    };
                }
                if TIERING && self.is_ec(obj_idx) {
                    let served = self.serve_ec_read(req, obj_idx);
                    if CACHE {
                        self.cache.insert(req.object, self.layout.spec.object_size_bytes);
                    }
                    return served;
                }
                // Least-backlogged available replica; the first one wins ties.
                let mut best: Option<(DiskIdx, SimTime)> = None;
                for at in self.layout.replica_range(obj_idx) {
                    let d = self.layout.replica_disks[at] as usize;
                    if self.available[d] {
                        let free = self.queues[d].next_free();
                        if best.is_none_or(|(_, b)| free < b) {
                            best = Some((d, free));
                        }
                    }
                }
                let (disk, ready) = match best {
                    Some((d, _)) => (d, self.ready_of_available(d, req.arrival)),
                    None => self.spin_up_for_read(obj_idx, req.arrival),
                };
                let served = self.serve_on(disk, req.arrival, ready, service);
                if CACHE {
                    self.cache.insert(req.object, self.layout.spec.object_size_bytes);
                }
                served
            }
            IoKind::Write => {
                if CACHE {
                    self.cache.invalidate(req.object);
                }
                if TIERING && self.is_ec(obj_idx) {
                    return self.serve_ec_write(req, obj_idx);
                }
                // Primary (gear 0 under the gear layout) takes the write in
                // the client's critical path; other available replicas
                // absorb it too; the rest are off-loaded to the log.
                let replicas = self.layout.replica_range(obj_idx);
                let primary = replicas.start;
                let mut ack = None;
                for at in replicas {
                    let disk = self.layout.replica_disks[at] as usize;
                    if at == primary || self.available[disk] {
                        let ready = self.ensure_disk_up(disk, req.arrival, at == primary);
                        let served = self.serve_on(disk, req.arrival, ready, service);
                        if at == primary {
                            ack = Some(served);
                        }
                    } else {
                        self.offload_write(disk, req.size_bytes, req.arrival, append);
                    }
                }
                ack.expect("primary replica always written")
            }
        }
    }

    /// Whether the temperature layer holds `obj` on erasure coding.
    #[inline]
    fn is_ec(&self, obj: usize) -> bool {
        self.tiering.as_ref().is_some_and(|t| t.ec.contains(obj))
    }

    /// A read with no available replica (non-gear layouts, or failures):
    /// forced spin-up of the least-backlogged replica that still holds
    /// data, or — every replica awaiting rebuild — degraded service from
    /// the primary's replacement. Returns the disk and its ready instant.
    #[cold]
    fn spin_up_for_read(&mut self, obj_idx: usize, arrival: SimTime) -> (DiskIdx, SimTime) {
        let replicas = &self.layout.replica_disks[self.layout.replica_range(obj_idx)];
        let intact = replicas
            .iter()
            .map(|&d| d as usize)
            .filter(|&d| !self.pending_rebuild[d])
            .min_by_key(|&d| self.queues[d].next_free());
        let disk = match intact {
            Some(d) => d,
            None => {
                self.degraded_reads += 1;
                replicas[0] as usize
            }
        };
        self.ensure_disk_up(disk, arrival, true);
        (disk, self.ensure_disk_up(disk, arrival, false))
    }

    /// Serve a foreground request on `disk` — the only non-test caller of
    /// `DiskQueue::serve` — and keep the write-log disk index in step with
    /// the disk's new `next_free`.
    #[inline]
    fn serve_on(
        &mut self,
        disk: DiskIdx,
        arrival: SimTime,
        ready: SimTime,
        service: SimDuration,
    ) -> ServedRequest {
        let served = self.queues[disk].serve(arrival, ready, service, self.slot_width);
        if disk < self.log_disks.len() {
            self.log_disks.update(disk, self.queues[disk].next_free());
        }
        served
    }

    /// Off-load `bytes` aimed at the dark `disk` to the write log: book
    /// them against its gear and append them (a sequential write of
    /// duration `append`) on the least-backlogged gear-0 disk.
    fn offload_write(&mut self, disk: DiskIdx, bytes: u64, arrival: SimTime, append: SimDuration) {
        let gear = self.layout.spec.topology.gear_of_disk(disk);
        self.writelog.offload(gear, bytes);
        let log_disk = self.log_disks.min();
        let ready = self.ensure_disk_up(log_disk, arrival, false);
        self.serve_on(log_disk, arrival, ready, append);
    }

    /// Serve a read of an erasure-coded object: fan-in from the `k`
    /// least-backlogged available shards, spinning intact shards up on
    /// demand (forced) when fewer than `k` are powered. With fewer than `k`
    /// intact shards the read is degraded — reconstruction would need data
    /// that is mid-rebuild — and is served from whatever shards exist.
    fn serve_ec_read(&mut self, req: &IoRequest, obj_idx: usize) -> ServedRequest {
        // Detach the tier state so its shard list can be borrowed while the
        // disks are driven: no per-request copy of the shards.
        let mut tiering = self.tiering.take().expect("EC read needs tiering");
        let Tiering { k, ec, pick, order, .. } = &mut *tiering;
        let (k, shards) = (*k, ec.get(obj_idx).expect("EC read of a replicated object"));
        let shards = || shards.iter().map(|&d| d as DiskIdx);
        // Choose k shards: available first, then intact (forced spin-up),
        // each group in backlog order with shard order breaking ties.
        pick.clear();
        order.clear();
        order.extend(shards().filter(|&d| self.available[d]));
        order.sort_by_key(|&d| self.queues[d].next_free());
        pick.extend(order.iter().take(k).map(|&d| (d, false)));
        if pick.len() < k {
            order.clear();
            order.extend(
                shards()
                    .filter(|&d| !self.pending_rebuild[d] && !pick.iter().any(|&(c, _)| c == d)),
            );
            order.sort_by_key(|&d| self.queues[d].next_free());
            let missing = k - pick.len();
            pick.extend(order.iter().take(missing).map(|&d| (d, true)));
        }
        if pick.len() < k {
            // Fewer than k intact shards: degraded service from whatever
            // shard replacements exist (mirrors the replicated fallback).
            self.degraded_reads += 1;
            for d in shards() {
                if pick.len() == k {
                    break;
                }
                if !pick.iter().any(|&(c, _)| c == d) {
                    pick.push((d, true));
                }
            }
        }
        let per_shard = req.size_bytes.div_ceil(k as u64);
        let service = self.layout.spec.disk.service_time(per_shard, req.sequential);
        let mut slowest: Option<ServedRequest> = None;
        for &(d, forced) in pick.iter() {
            if forced {
                self.ensure_disk_up(d, req.arrival, true);
            }
            let ready = self.ensure_disk_up(d, req.arrival, false);
            let served = self.serve_on(d, req.arrival, ready, service);
            slowest = Some(match slowest {
                Some(prev) if prev.completion >= served.completion => prev,
                _ => served,
            });
        }
        self.tiering = Some(tiering);
        // The client sees the slowest shard (k-fan-in barrier).
        slowest.expect("k >= 1 shards served")
    }

    /// Serve a write to an erasure-coded object: a full-stripe update of
    /// all `k + m` shards. Shard 0 carries the ack; powered-down shards
    /// off-load to the write log exactly like replicated writes.
    fn serve_ec_write(&mut self, req: &IoRequest, obj_idx: usize) -> ServedRequest {
        let tiering = self.tiering.take().expect("EC write needs tiering");
        let shards = tiering.ec.get(obj_idx).expect("EC write to a replicated object");
        let per_shard = req.size_bytes.div_ceil(tiering.k as u64);
        let service = self.layout.spec.disk.service_time(per_shard, req.sequential);
        let append = self.layout.spec.disk.service_time(per_shard, true);
        let mut ack = None;
        for (s, disk) in shards.iter().map(|&d| d as DiskIdx).enumerate() {
            if s == 0 || self.available[disk] {
                let ready = self.ensure_disk_up(disk, req.arrival, s == 0);
                let served = self.serve_on(disk, req.arrival, ready, service);
                if s == 0 {
                    ack = Some(served);
                }
            } else {
                self.offload_write(disk, per_shard, req.arrival, append);
            }
        }
        self.tiering = Some(tiering);
        ack.expect("shard 0 always written")
    }

    /// Add `bytes` of sequential batch work on `disk` starting no earlier
    /// than `now` (the disk is spun up on demand, counted as policy-driven).
    pub fn add_sequential_work(
        &mut self,
        disk: DiskIdx,
        bytes: u64,
        now: SimTime,
    ) -> ServedRequest {
        let ready = self.ensure_disk_up(disk, now, false);
        let service = self.layout.spec.disk.service_time(bytes, true);
        self.queues[disk].add_background(now, ready, service)
    }

    /// Replay up to `budget_bytes` of off-loaded writes for each *powered*
    /// gear. The replay work is sequential writes on the target gear's
    /// disks; its busy time is tagged as reclaim overhead. Returns total
    /// bytes replayed.
    pub fn reclaim(&mut self, budget_bytes: u64, now: SimTime) -> u64 {
        let topo = self.layout.spec.topology;
        let mut replayed = 0;
        for gear in 1..self.active_gears {
            let bytes = self.writelog.reclaim(gear, budget_bytes);
            if bytes == 0 {
                continue;
            }
            replayed += bytes;
            // Spread the replay across the gear's disks round-robin.
            let disks = topo.disks_in_gear_range(gear);
            let per = bytes / disks.len() as u64;
            let service_per = self.layout.spec.disk.service_time(per.max(1), true);
            for d in disks {
                let ready = self.ensure_disk_up(d, now, false);
                self.queues[d].add_background(now, ready, service_per);
                self.pending_reclaim_busy += service_per;
            }
        }
        replayed
    }

    /// Integrate one slot ending at `slot_end` of width `width`.
    pub fn end_slot(&mut self, slot_end: SimTime, width: SimDuration) -> SlotEnergy {
        let topo = self.layout.spec.topology;
        let mut out = SlotEnergy::default();

        // Settle spin-up transitions that completed within the slot.
        for d in &mut self.disks {
            d.settle(slot_end);
        }

        // Disk energy: drain busy time, blend power.
        let mut busy_frac = vec![0.0f64; topo.servers];
        for idx in 0..self.disks.len() {
            let busy = self.queues[idx].take_busy_in(width);
            out.disks_wh += self.disks[idx].account_slot(busy, width);
            busy_frac[topo.server_of_disk(idx)] +=
                busy.as_secs_f64() / width.as_secs_f64() / topo.bays as f64;
        }

        // Server energy: CPU utilisation proxied by mean disk busy fraction.
        let hours = width.as_hours_f64();
        for (srv, server) in self.servers.iter_mut().enumerate() {
            out.servers_wh += server.account_slot(busy_frac[srv].min(1.0), hours);
        }

        // Surcharges incurred during this slot.
        out.spinup_overhead_wh = self.pending_surcharge_wh;
        out.disks_wh += self.pending_surcharge_wh; // surcharges ride on the disk/server bill
        self.pending_surcharge_wh = 0.0;

        // Reclaim overhead: marginal (active − idle) power over the replay
        // busy time. The busy time itself is already inside `disks_wh`; the
        // overhead figure is attribution, not additional energy.
        let marginal_w = self.layout.spec.disk.active_w - self.layout.spec.disk.idle_w;
        out.reclaim_overhead_wh = self.pending_reclaim_busy.as_hours_f64() * marginal_w;
        self.pending_reclaim_busy = SimDuration::ZERO;

        out.forced_spinup_count = self.pending_forced_spinups;
        self.pending_forced_spinups = 0;

        out
    }

    /// Power draw (W) the cluster would average if every active component
    /// idled — the floor the gear controller plans against.
    pub fn idle_power_at_gears(&self, gears: usize) -> f64 {
        let topo = self.layout.spec.topology;
        let gears = gears.clamp(1, topo.gears);
        let on_servers = gears * topo.servers_per_gear();
        let off_servers = topo.servers - on_servers;
        on_servers as f64
            * (self.layout.spec.server.idle_w + topo.bays as f64 * self.layout.spec.disk.idle_w)
            + off_servers as f64
                * (self.layout.spec.server.off_w
                    + topo.bays as f64 * self.layout.spec.disk.standby_w)
    }

    /// Peak power draw (W) with `gears` active and every disk/CPU saturated.
    pub fn peak_power_at_gears(&self, gears: usize) -> f64 {
        let topo = self.layout.spec.topology;
        let gears = gears.clamp(1, topo.gears);
        let on_servers = gears * topo.servers_per_gear();
        let off_servers = topo.servers - on_servers;
        on_servers as f64
            * (self.layout.spec.server.peak_w + topo.bays as f64 * self.layout.spec.disk.active_w)
            + off_servers as f64
                * (self.layout.spec.server.off_w
                    + topo.bays as f64 * self.layout.spec.disk.standby_w)
    }
}

#[cfg(test)]
mod serve_kernel_equivalence;

#[cfg(test)]
mod tier_pass_equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::new(ClusterSpec::small())
    }

    const HOUR: SimDuration = SimDuration(gm_sim::time::MICROS_PER_HOUR);

    #[test]
    fn builds_and_places_objects() {
        let c = small_cluster();
        assert_eq!(c.directory().len(), 1_000);
        for obj in c.directory() {
            assert_eq!(obj.replication(), 3);
        }
        assert_eq!(c.gear_state(), GearState { active: 3, total: 3 });
    }

    #[test]
    fn read_served_by_active_replica() {
        let mut c = small_cluster();
        let req = IoRequest::read(SimTime::from_secs(10), ObjectId(5), 1 << 20);
        let served = c.serve_request(&req);
        assert!(served.latency.as_secs_f64() < 0.1, "uncontended read is fast");
    }

    #[test]
    fn gear_down_keeps_reads_available() {
        let mut c = small_cluster();
        c.set_active_gears(1, SimTime::ZERO);
        assert_eq!(c.gear_state().active, 1);
        // Every object still readable without forced spin-ups.
        for i in 0..100 {
            let req = IoRequest::read(SimTime::from_secs(1), ObjectId(i), 64 << 10);
            let _ = c.serve_request(&req);
        }
        assert_eq!(c.total_forced_spinups(), 0, "gear layout never orphans reads");
    }

    #[test]
    fn gear_zero_cannot_be_powered_off() {
        let mut c = small_cluster();
        c.set_active_gears(0, SimTime::ZERO);
        assert_eq!(c.gear_state().active, 1, "clamped to 1");
    }

    #[test]
    fn writes_offload_to_log_when_gears_down() {
        let mut c = small_cluster();
        c.set_active_gears(1, SimTime::ZERO);
        let before = c.write_log().total_offloaded();
        let req = IoRequest::write(SimTime::from_secs(5), ObjectId(7), 1 << 20);
        let served = c.serve_request(&req);
        // Two replicas (gears 1, 2) off-loaded.
        assert_eq!(c.write_log().total_offloaded() - before, 2 << 20);
        assert!(served.latency.as_secs_f64() < 0.1);
    }

    #[test]
    fn reclaim_replays_after_gear_up() {
        let mut c = small_cluster();
        c.set_active_gears(1, SimTime::ZERO);
        for i in 0..20 {
            let req = IoRequest::write(SimTime::from_secs(i), ObjectId(i), 1 << 20);
            c.serve_request(&req);
        }
        assert!(c.write_log().pending_total() > 0);
        // Nothing reclaimable while gears are down.
        assert_eq!(c.reclaim(u64::MAX, SimTime::from_secs(100)), 0);
        c.set_active_gears(3, SimTime::from_secs(200));
        let replayed = c.reclaim(u64::MAX, SimTime::from_secs(300));
        assert_eq!(replayed, 40 << 20);
        assert_eq!(c.write_log().pending_total(), 0);
        let e = c.end_slot(SimTime::from_hours(1), HOUR);
        assert!(e.reclaim_overhead_wh > 0.0, "replay work attributed");
    }

    #[test]
    fn random_layout_forces_spinups_when_gated() {
        let mut spec = ClusterSpec::small();
        spec.layout = LayoutKind::Random;
        let mut c = Cluster::new(spec);
        c.set_active_gears(1, SimTime::ZERO);
        for i in 0..200 {
            let req = IoRequest::read(SimTime::from_secs(1), ObjectId(i), 64 << 10);
            c.serve_request(&req);
        }
        assert!(c.total_forced_spinups() > 0, "random layout orphans some reads");
    }

    #[test]
    fn slot_energy_drops_when_gears_down() {
        let mut on = small_cluster();
        let e_on = on.end_slot(SimTime::from_hours(1), HOUR);
        let mut off = small_cluster();
        off.set_active_gears(1, SimTime::ZERO);
        // Let the spin-down settle one slot, then measure a clean slot.
        off.end_slot(SimTime::from_hours(1), HOUR);
        let e_off = off.end_slot(SimTime::from_hours(2), HOUR);
        assert!(
            e_off.total_wh() < e_on.total_wh() * 0.55,
            "gated {} vs full {}",
            e_off.total_wh(),
            e_on.total_wh()
        );
    }

    #[test]
    fn idle_and_peak_power_bounds() {
        let c = small_cluster();
        // 6 servers × (110 + 2×8) = 756 W at full idle.
        assert!((c.idle_power_at_gears(3) - 756.0).abs() < 1e-9);
        // Peak: 6 × (220 + 2×11.5) = 1458 W.
        assert!((c.peak_power_at_gears(3) - 1458.0).abs() < 1e-9);
        // One gear: 2 on, 4 off → 2×126 + 4×(6+2) = 284 W idle.
        assert!((c.idle_power_at_gears(1) - 284.0).abs() < 1e-9);
        assert!(c.idle_power_at_gears(1) < c.idle_power_at_gears(2));
        assert!(c.idle_power_at_gears(2) < c.idle_power_at_gears(3));
    }

    #[test]
    fn spinup_overhead_reported_in_slot() {
        let mut c = small_cluster();
        c.set_active_gears(1, SimTime::ZERO);
        c.end_slot(SimTime::from_hours(1), HOUR);
        c.set_active_gears(3, SimTime::from_hours(1));
        let e = c.end_slot(SimTime::from_hours(2), HOUR);
        assert!(e.spinup_overhead_wh > 0.0);
        assert!(c.total_spinups() >= 8, "8 disks spun back up");
    }

    #[test]
    fn failure_generates_rebuild_work_and_routes_around() {
        let mut c = small_cluster();
        let report = c.fail_disk(0, SimTime::from_secs(10));
        assert!(report.affected_objects > 0);
        assert_eq!(report.rebuild_bytes, report.affected_objects as u64 * (16 << 20));
        assert_eq!(report.lost_objects, 0, "replication 3: single failure loses nothing");
        assert!(c.is_rebuilding(0));
        assert_eq!(c.total_failures(), 1);
        // Reads for objects homed on disk 0 are served elsewhere.
        for i in 0..200 {
            let req = IoRequest::read(SimTime::from_secs(20), ObjectId(i), 64 << 10);
            c.serve_request(&req);
        }
        assert_eq!(c.degraded_reads(), 0, "two intact replicas remain");
        // Rebuild and recover.
        c.rebuild_step(0, report.rebuild_bytes, SimTime::from_secs(30));
        c.mark_rebuilt(0);
        assert!(!c.is_rebuilding(0));
    }

    #[test]
    fn correlated_failures_lose_objects() {
        let mut c = small_cluster();
        // Fail one disk per gear; under the gear layout any object whose
        // three replicas land exactly on those disks is exposed.
        let r0 = c.fail_disk(0, SimTime::from_secs(1)); // gear 0
        let r1 = c.fail_disk(4, SimTime::from_secs(2)); // gear 1
        let r2 = c.fail_disk(8, SimTime::from_secs(3)); // gear 2
        assert_eq!(r0.lost_objects + r1.lost_objects, 0, "first two failures survivable");
        // With 12 disks (4 per gear) and 1000 objects, ~1000/64 objects
        // have exactly this replica triple.
        assert!(r2.lost_objects > 0, "triple failure must expose some objects");
        assert_eq!(c.total_lost_objects(), r2.lost_objects as u64);
    }

    #[test]
    fn double_failure_of_same_disk_adds_no_work() {
        let mut c = small_cluster();
        let first = c.fail_disk(3, SimTime::from_secs(1));
        let again = c.fail_disk(3, SimTime::from_secs(2));
        assert!(first.rebuild_bytes > 0);
        assert_eq!(again.rebuild_bytes, 0);
        assert_eq!(c.total_rebuild_bytes(), first.rebuild_bytes);
        assert_eq!(c.total_failures(), 2, "the event is still counted");
    }

    #[test]
    fn all_replicas_rebuilding_degrades_reads() {
        let mut c = small_cluster();
        // Find an object's full replica set and fail it all.
        let replicas = c.directory()[0].replicas.clone();
        let oid = c.directory()[0].id;
        for &d in &replicas {
            c.fail_disk(d, SimTime::from_secs(1));
        }
        let req = IoRequest::read(SimTime::from_secs(5), oid, 64 << 10);
        c.serve_request(&req);
        assert!(c.degraded_reads() >= 1);
    }

    #[test]
    fn cache_serves_repeated_reads_from_ram() {
        let mut spec = ClusterSpec::small();
        spec.cache_bytes = 10 * spec.object_size_bytes;
        let mut c = Cluster::new(spec);
        let req = IoRequest::read(SimTime::from_secs(1), ObjectId(5), 1 << 20);
        let cold = c.serve_request(&req);
        let warm = c.serve_request(&IoRequest::read(SimTime::from_secs(2), ObjectId(5), 1 << 20));
        assert!(warm.latency < cold.latency, "hit beats media");
        assert_eq!(warm.latency, crate::cache::CACHE_HIT_SERVICE);
        assert_eq!(c.cache().hits(), 1);
        assert_eq!(c.cache().misses(), 1);
        // A write invalidates; the next read misses again.
        c.serve_request(&IoRequest::write(SimTime::from_secs(3), ObjectId(5), 1 << 20));
        let after_write =
            c.serve_request(&IoRequest::read(SimTime::from_secs(4), ObjectId(5), 1 << 20));
        assert!(after_write.latency > crate::cache::CACHE_HIT_SERVICE);
        assert_eq!(c.cache().misses(), 2);
    }

    #[test]
    fn zero_cache_changes_nothing() {
        let mut c = small_cluster();
        let r1 = c.serve_request(&IoRequest::read(SimTime::from_secs(1), ObjectId(5), 1 << 20));
        let r2 = c.serve_request(&IoRequest::read(SimTime::from_secs(30), ObjectId(5), 1 << 20));
        // Both reads hit media; service time identical at equal queue state.
        assert_eq!(r1.latency, r2.latency);
        assert_eq!(c.cache().hits() + c.cache().misses(), 0, "disabled cache never probed");
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        // Drive a cluster through gear changes, a failure, cached reads and
        // writes; snapshot; restore onto a fresh cluster over the same
        // layout; both must then serve identical traffic identically.
        let mut spec = ClusterSpec::small();
        spec.cache_bytes = 10 * spec.object_size_bytes;
        let layout = Arc::new(ClusterLayout::new(spec));
        let mut a = Cluster::from_layout(layout.clone());
        a.set_active_gears(1, SimTime::ZERO);
        for i in 0..50 {
            a.serve_request(&IoRequest::read(SimTime::from_secs(i), ObjectId(i), 1 << 20));
            a.serve_request(&IoRequest::write(SimTime::from_secs(i), ObjectId(i + 50), 1 << 20));
        }
        a.fail_disk(2, SimTime::from_secs(60));
        a.end_slot(SimTime::from_hours(1), HOUR);

        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).expect("snapshot serialises");
        let snap2: ClusterSnapshot = serde_json::from_str(&json).expect("snapshot deserialises");
        let mut b = Cluster::from_layout(layout);
        b.restore_state(&snap2).expect("same topology restores");

        assert_eq!(b.gear_state(), a.gear_state());
        assert_eq!(b.total_failures(), a.total_failures());
        assert!(b.is_rebuilding(2));
        for i in 0..100 {
            let req = IoRequest::read(
                SimTime::from_hours(1) + SimDuration::from_secs(i),
                ObjectId(i),
                1 << 20,
            );
            let ra = a.serve_request(&req);
            let rb = b.serve_request(&req);
            assert_eq!(ra, rb, "request {i} diverged after restore");
        }
        let ea = a.end_slot(SimTime::from_hours(2), HOUR);
        let eb = b.end_slot(SimTime::from_hours(2), HOUR);
        assert_eq!(ea.total_wh().to_bits(), eb.total_wh().to_bits());
        assert_eq!(a.cache().hits(), b.cache().hits());
    }

    #[test]
    fn snapshot_rejects_mismatched_topology() {
        let a = small_cluster();
        let snap = a.snapshot();
        let mut spec = ClusterSpec::small();
        spec.topology = Topology::new(3, 2, 3);
        let mut b = Cluster::new(spec);
        assert!(b.restore_state(&snap).is_err());
    }

    /// A small cluster with tiering on and every object already demoted to
    /// `k + m` erasure coding (no traffic → the whole fleet cools).
    fn tiered_cluster_all_cold(k: usize, m: usize) -> Cluster {
        let mut c = Cluster::new(ClusterSpec::small());
        c.enable_tiering(EwmaParams::default(), 1.0, k, m);
        for _ in 0..8 {
            let step = c.tier_step(1.0, usize::MAX);
            if !step.demote.is_empty() {
                c.complete_migration(&step.demote, true);
            }
        }
        assert_eq!(c.ec_objects(), 1_000, "idle fleet fully demoted");
        c
    }

    #[test]
    fn demotion_halves_capacity_and_reads_fan_in() {
        let mut c = Cluster::new(ClusterSpec::small());
        c.enable_tiering(EwmaParams::default(), 1.0, 4, 2);
        let replicated = c.capacity_in_use_bytes();
        assert_eq!(replicated, 1_000 * 3 * (16 << 20));
        let mut c = tiered_cluster_all_cold(4, 2);
        // 4+2 EC at 4 MiB shards: 24 MiB per object vs 48 MiB replicated.
        assert_eq!(c.capacity_in_use_bytes(), 1_000 * 6 * (4 << 20));
        match c.placement_of(0) {
            Placement::Erasure { k, m, shards } => {
                assert_eq!((k, m), (4, 2));
                let mut sorted = shards.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), 6, "shard disks distinct: {shards:?}");
            }
            p => panic!("object 0 should be EC, got {p:?}"),
        }
        // Reads still served, no degradation, cache fill intact.
        let served = c.serve_request(&IoRequest::read(SimTime::from_secs(1), ObjectId(0), 1 << 20));
        assert!(served.latency.as_secs_f64() < 0.2);
        assert_eq!(c.degraded_reads(), 0);
    }

    #[test]
    fn ec_survives_m_failures_and_rebuilds() {
        let mut c = tiered_cluster_all_cold(4, 2);
        let shards = match c.placement_of(0) {
            Placement::Erasure { shards, .. } => shards,
            _ => unreachable!(),
        };
        let shard_bytes = (16u64 << 20).div_ceil(4);
        let mut reports = vec![];
        for &d in shards.iter().take(2) {
            reports.push(c.fail_disk(d, SimTime::from_secs(1)));
        }
        // Any object has at most 2 shards on 2 disks: m = 2 tolerated.
        assert_eq!(c.total_lost_objects(), 0, "m shard losses lose nothing");
        // Rebuilding one lost shard reads k survivors + writes 1.
        assert!(reports[0].rebuild_bytes >= (4 + 1) * shard_bytes);
        assert!(reports[0].affected_objects > 0);
        for (i, &d) in shards.iter().take(2).enumerate() {
            c.rebuild_step(d, reports[i].rebuild_bytes, SimTime::from_secs(10));
            c.mark_rebuilt(d);
            assert!(!c.is_rebuilding(d));
        }
        // Fully healed: reads are clean again.
        c.serve_request(&IoRequest::read(SimTime::from_secs(20), ObjectId(0), 1 << 20));
        assert_eq!(c.degraded_reads(), 0);
    }

    #[test]
    fn ec_m_plus_one_failures_expose_objects() {
        let mut c = tiered_cluster_all_cold(4, 2);
        let shards = match c.placement_of(0) {
            Placement::Erasure { shards, .. } => shards,
            _ => unreachable!(),
        };
        for &d in shards.iter().take(3) {
            c.fail_disk(d, SimTime::from_secs(1));
        }
        assert!(c.total_lost_objects() >= 1, "m+1 = 3 shard losses must expose at least object 0");
    }

    #[test]
    fn ec_degraded_read_while_all_shards_pending() {
        let mut c = tiered_cluster_all_cold(4, 2);
        let shards = match c.placement_of(0) {
            Placement::Erasure { shards, .. } => shards,
            _ => unreachable!(),
        };
        for &d in &shards {
            c.fail_disk(d, SimTime::from_secs(1));
        }
        let before = c.degraded_reads();
        c.serve_request(&IoRequest::read(SimTime::from_secs(5), ObjectId(0), 1 << 20));
        assert!(c.degraded_reads() > before, "all-shards-pending read is degraded");
    }

    #[test]
    fn hot_ec_object_promotes_back_to_replication() {
        let mut c = tiered_cluster_all_cold(4, 2);
        let cap_cold = c.capacity_in_use_bytes();
        // Hammer object 0 until the classifier calls it hot again.
        let mut promoted = false;
        for slot in 0..10 {
            for i in 0..20u64 {
                c.serve_request(&IoRequest::read(
                    SimTime::from_secs(slot * 3600 + i),
                    ObjectId(0),
                    64 << 10,
                ));
            }
            let step = c.tier_step(1.0, 8);
            if step.promote.contains(&0) {
                assert!(step.promote_bytes > 0);
                let (released, written) = c.complete_migration(&step.promote, false);
                assert_eq!(released, step.promote.len() as u64 * 6 * (4 << 20));
                assert_eq!(written, step.promote.len() as u64 * 3 * (16 << 20));
                promoted = true;
                break;
            }
        }
        assert!(promoted, "sustained traffic must promote the object");
        assert!(matches!(c.placement_of(0), Placement::Replicated { .. }));
        assert!(c.capacity_in_use_bytes() > cap_cold);
    }

    #[test]
    fn tier_step_respects_budget_and_ceiling() {
        let mut c = Cluster::new(ClusterSpec::small());
        c.enable_tiering(EwmaParams::default(), 0.1, 4, 2);
        let mut demoted = 0usize;
        for _ in 0..20 {
            let step = c.tier_step(1.0, 7);
            assert!(step.demote.len() <= 7, "per-slot budget respected");
            demoted += step.demote.len();
            c.complete_migration(&step.demote, true);
        }
        assert_eq!(demoted, 100, "cold-fraction ceiling caps demotion at 10%");
        assert_eq!(c.ec_objects(), 100);
    }

    #[test]
    fn tiering_snapshot_roundtrips_and_rejects_mismatch() {
        let mut a = tiered_cluster_all_cold(4, 2);
        a.serve_request(&IoRequest::read(SimTime::from_secs(1), ObjectId(3), 1 << 20));
        let snap = a.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let snap2: ClusterSnapshot = serde_json::from_str(&json).unwrap();
        let mut b = Cluster::from_layout(a.layout().clone());
        b.enable_tiering(EwmaParams::default(), 1.0, 4, 2);
        b.restore_state(&snap2).expect("tiering-on snapshot restores");
        assert_eq!(b.ec_objects(), a.ec_objects());
        assert_eq!(b.capacity_in_use_bytes(), a.capacity_in_use_bytes());
        assert_eq!(b.placement_of(5), a.placement_of(5));
        // Tiering-off cluster refuses a tiering-on snapshot and vice versa.
        let mut off = Cluster::from_layout(a.layout().clone());
        assert!(off.restore_state(&snap2).is_err());
        let off_snap = Cluster::from_layout(a.layout().clone()).snapshot();
        let mut on = Cluster::from_layout(a.layout().clone());
        on.enable_tiering(EwmaParams::default(), 1.0, 4, 2);
        assert!(on.restore_state(&off_snap).is_err());
    }

    /// A malformed tier snapshot is refused with a typed error before
    /// anything is written: no panic on out-of-range indices, no stripe
    /// that would panic when served, and no half-restored cluster.
    #[test]
    fn malformed_tiering_snapshots_are_refused_untouched() {
        type Doctor = fn(&mut TieringSnapshot);
        type Expected = fn(&RestoreError) -> bool;
        let a = tiered_cluster_all_cold(4, 2);
        let good = a.snapshot();
        let cases: [(&str, Doctor, Expected); 9] = [
            (
                "migrating index past the objects",
                |t| t.migrating = vec![3, 1_000],
                |e| {
                    matches!(e, RestoreError::TierObjectIndex { list: "migrating", obj: 1_000, .. })
                },
            ),
            (
                "ec index past the objects",
                |t| t.ec.push((1_000, t.ec[0].1.clone())),
                |e| matches!(e, RestoreError::TierObjectIndex { list: "ec", obj: 1_000, .. }),
            ),
            (
                "unsorted migrating list",
                |t| t.migrating = vec![5, 3],
                |e| matches!(e, RestoreError::TierListOrder { list: "migrating", obj: 3 }),
            ),
            (
                "repeated ec entry",
                |t| t.ec[1].0 = t.ec[0].0,
                |e| matches!(e, RestoreError::TierListOrder { list: "ec", .. }),
            ),
            (
                "short stripe",
                |t| {
                    t.ec[7].1.pop();
                },
                |e| matches!(e, RestoreError::StripeWidth { obj: 7, width: 5, expected: 6 }),
            ),
            (
                "shard on a missing disk",
                |t| t.ec[2].1[4] = 12,
                |e| matches!(e, RestoreError::ShardDisk { obj: 2, disk: 12, disks: 12 }),
            ),
            (
                "two shards on one disk",
                |t| t.ec[9].1[3] = t.ec[9].1[0],
                |e| matches!(e, RestoreError::DuplicateShard { obj: 9, .. }),
            ),
            (
                "rate vector too short",
                |t| {
                    t.rate.pop();
                },
                |e| matches!(e, RestoreError::TierObjects { snapshot: 999, cluster: 1_000 }),
            ),
            (
                "temperature vector too long",
                |t| t.temp.push(Temperature::Hot),
                |e| matches!(e, RestoreError::TierObjects { snapshot: 1_001, cluster: 1_000 }),
            ),
        ];
        for (what, doctor, expected) in cases {
            let mut bad = good.clone();
            // Non-tier state differs too, so a half-restore would show.
            bad.active_gears = 1;
            bad.total_failures += 7;
            doctor(bad.tiering.as_mut().expect("tiering on"));
            let mut c = Cluster::from_layout(a.layout().clone());
            c.enable_tiering(EwmaParams::default(), 1.0, 4, 2);
            let before = serde_json::to_string(&c.snapshot()).unwrap();
            let err = c.restore_state(&bad).expect_err(what);
            assert!(expected(&err), "{what}: unexpected error {err:?}");
            assert_eq!(
                serde_json::to_string(&c.snapshot()).unwrap(),
                before,
                "{what}: the refused snapshot changed the cluster"
            );
        }
    }

    #[test]
    fn tiering_off_snapshot_has_no_tiering_field() {
        let c = small_cluster();
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        assert!(!json.contains("tiering"), "absent field keeps v1 snapshots byte-identical");
    }

    #[test]
    fn sequential_work_lands_on_disk() {
        let mut c = small_cluster();
        let served = c.add_sequential_work(0, 1 << 30, SimTime::from_secs(1));
        // 1 GiB at 140 MB/s ≈ 7.7 s.
        assert!(served.latency.as_secs_f64() > 7.0 && served.latency.as_secs_f64() < 8.5);
        let e = c.end_slot(SimTime::from_hours(1), HOUR);
        assert!(e.disks_wh > 0.0);
    }
}
