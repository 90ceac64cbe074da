//! # gm-sim — deterministic simulation kernel
//!
//! The GreenMatch reproduction is a *trace-driven, slotted* simulation:
//! scheduling decisions happen on a coarse slotted clock (1 hour by
//! default, matching the paper-era convention of hourly renewable-energy
//! prediction), while intra-slot storage service is resolved at
//! microsecond resolution on per-disk FCFS timelines (`gm-storage`).
//!
//! This crate provides the substrate every other crate builds on:
//!
//! * [`time`] — integer microsecond [`time::SimTime`] / [`time::SimDuration`]
//!   and the slotted [`time::SlotClock`]. Integer time makes every run
//!   bit-for-bit reproducible.
//! * [`rng`] — named, independently-seeded RNG streams so adding a new
//!   consumer of randomness never perturbs existing ones.
//! * [`dist`] — the probability distributions the workload and energy models
//!   need (exponential, Poisson, Weibull, lognormal, Zipf, AR(1)), written
//!   against [`rand::Rng`] so no extra dependency is required.
//! * [`pool`] — a process-wide helping work pool for deterministic
//!   fan-out (sharded synthesis, per-site phases, sweep runs); safe to
//!   nest at any width because submitters help drain their own batches.
//! * [`series`] — fixed-width slot time series with integration helpers
//!   (power ⇒ energy bookkeeping).
//! * [`stats`] — streaming moments (Welford) and counters.
//! * [`hist`] — a log-bucketed latency histogram with quantile queries.
//!
//! Everything here is intentionally free of I/O and wall-clock access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod hist;
pub mod pool;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use hist::LogHistogram;
pub use pool::WorkPool;
pub use rng::RngFactory;
pub use series::TimeSeries;
pub use stats::{Counter, StreamingStats};
pub use time::{
    SimDuration, SimTime, SlotClock, SlotIdx, MICROS_PER_DAY, MICROS_PER_HOUR, MICROS_PER_MIN,
    MICROS_PER_SEC,
};
