//! # gm-storage — massive storage system substrate
//!
//! Models the storage cluster GreenMatch schedules: servers full of disks,
//! replicated data laid out so that subsets of the cluster can be powered
//! down without losing availability, per-disk FCFS service with realistic
//! seek/rotate/transfer times, spin-up/spin-down state machines with their
//! energy surcharges, and a write-offloading log that absorbs writes aimed
//! at powered-down replicas.
//!
//! Module map:
//!
//! * [`disk`] — the disk power/performance model (Active/Idle/Standby +
//!   spin-up transitions, service times).
//! * [`server`] — server CPU power model ("idle burns half of peak") and
//!   whole-server power gating.
//! * [`object`] — data objects and replica metadata.
//! * [`layout`] — replica placement: **gear layout** (replica *r* in gear
//!   group *r*, the power-proportional design), plus random, chained
//!   declustering and copyset baselines for the layout ablation.
//! * [`cluster`] — the assembled cluster: topology, directory, gear
//!   controller, routing of reads to the lowest active replica, per-slot
//!   power integration.
//! * [`queue`] — per-disk FCFS timelines producing exact per-request
//!   latencies, with backlog carried across slot boundaries.
//! * [`writelog`] — write off-loading for powered-down gears and the
//!   reclaim (replay) bookkeeping.
//! * [`request`] — I/O request types.
//! * [`batch`] — one slot's requests as columns ([`RequestBatch`]), the
//!   unit [`Cluster::serve_batch`] serves in one pass.
//! * [`temperature`] — hot/warm/cold classification (EWMA with hysteresis)
//!   driving replicated↔erasure-coded tier migration.
//!
//! Power is in watts, energy in watt-hours, sizes in bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod cluster;
pub mod disk;
pub mod failure;
pub mod layout;
mod minindex;
pub mod object;
pub mod queue;
pub mod request;
pub mod server;
pub mod temperature;
pub mod writelog;

pub use batch::RequestBatch;
pub use cache::LruCache;
pub use cluster::{Cluster, ClusterLayout, ClusterSnapshot, ClusterSpec, GearState, RestoreError};
pub use disk::{Disk, DiskPowerState, DiskSpec};
pub use failure::{FailureDice, FailureReport, FailureSpec, HOURS_PER_YEAR};
pub use layout::{
    ChainedDeclustering, CopysetLayout, GearLayout, Layout, LayoutKind, RandomLayout, Topology,
};
pub use object::{DataObject, ObjectId, Placement};
pub use queue::{DiskQueue, ServedRequest};
pub use request::{IoKind, IoRequest};
pub use server::{Server, ServerSpec};
pub use temperature::{EwmaEstimator, EwmaParams, Temperature, TemperatureEstimator};
pub use writelog::WriteLog;
