//! # gm-workload — storage workload generators and traces
//!
//! The workload of a massive storage system, as renewable-aware scheduling
//! sees it, has two halves:
//!
//! * **Interactive streams** ([`interactive`]) — latency-critical I/O that
//!   must be served the moment it arrives (the "web jobs" of the
//!   opportunistic-scheduling literature). Modeled as overlapping request
//!   streams with diurnal intensity, Zipf object popularity, lognormal
//!   request sizes and a configurable read/write mix. Requests are
//!   synthesised per slot from seeded streams, so every policy sees the
//!   byte-identical workload.
//! * **Batch jobs** ([`batch`], [`job`]) — deferrable bulk storage work
//!   (scrubbing, backup, analytics scans, replication repair) with a
//!   deadline and therefore *slack*: the scheduler may move it into green
//!   windows. Work is measured in bytes of sequential I/O and is divisible
//!   across slots and disks.
//!
//! [`trace`] assembles both halves into a [`trace::Workload`] with presets
//! whose *shape* mirrors the medium-private-cloud traces this literature
//! evaluates on (≈790 interactive streams of ~12 h, ≈3100 batch jobs of
//! ~6 h of work with 12 h deadlines, over one non-holiday week), plus CSV
//! import/export so external traces can be substituted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod feed;
pub mod interactive;
pub mod job;
pub mod stats;
pub mod trace;

pub use batch::BatchGenerator;
pub use feed::{EventFeed, FeedBatch, FeedSender};
/// The columnar slot batch lives next to the cluster that serves it.
pub use gm_storage::RequestBatch;
pub use interactive::{InteractiveError, InteractiveSpec, InteractiveStream, LiveCursor};
pub use job::{BatchJob, BatchKind, JobId, JobState};
pub use stats::{characterize, WorkloadStats};
pub use trace::{PendingSlotBatch, Workload, WorkloadError, WorkloadSpec};
