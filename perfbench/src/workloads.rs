//! The three benchmark workloads: how each one's configuration is built
//! and the feed producer the service workload needs.
//!
//! Every workload drives the library the way one kind of user does:
//!
//! * `week-replay` — the sweep runner: one materialised world, warmed by
//!   an untimed week so the memoised slot batches are filled, then whole
//!   weeks back to back over it. Execute (interactive serving) dominates.
//! * `mega-service` — `gm-serve`: a cold 10⁶-stream world at three times
//!   the preset's interactive rate, batch arrivals pushed through an
//!   `EventFeed` by a producer thread, noisy forecast and admission. Each
//!   slot is synthesised once, as a live service sees it.
//! * `geo-archive` — a batch-heavy three-site archive with failures,
//!   tiering and admission; interactive traffic is a trickle, so the
//!   tier classifier and the matcher dominate.

use gm_energy::solar::SolarProfile;
use gm_storage::{ClusterSpec, FailureSpec, Topology};
use gm_workload::EventFeed;
use greenmatch::config::{
    AdmissionConfig, ExperimentConfig, ForecastKind, SiteConfig, SourceKind, TieringConfig,
};
use greenmatch::world::World;
use std::fmt;
use std::thread::JoinHandle;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WeekReplay,
    MegaService,
    GeoArchive,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::WeekReplay, Kind::MegaService, Kind::GeoArchive];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::WeekReplay => "week-replay",
            Kind::MegaService => "mega-service",
            Kind::GeoArchive => "geo-archive",
        }
    }

    /// Whether episodes reuse one world whose slot batches are memoised
    /// after the untimed warm-up week. A cold workload materialises a
    /// fresh world for every episode instead.
    pub fn warm(self) -> bool {
        self != Kind::MegaService
    }

    /// The experiment configuration at workload seed `seed`.
    pub fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Kind::WeekReplay => ExperimentConfig::medium(seed),
            Kind::MegaService => {
                let mut cfg = ExperimentConfig::mega(seed)
                    .with_forecast(ForecastKind::Noisy { cv: 0.3 })
                    .with_admission(AdmissionConfig { alpha: 0.9, defer_slots: 4 });
                cfg.workload.interactive.rate_rps *= 3.0;
                cfg
            }
            Kind::GeoArchive => geo_archive(seed),
        }
    }
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// R-Geo's three 12-server sites eight hours apart with 10 m² of PV each,
/// turned into an archive: interactive volume at 1 % and batch jobs at
/// six times the medium week, with failures, tiering and admission on.
fn geo_archive(seed: u64) -> ExperimentConfig {
    let cluster = {
        let mut spec = ClusterSpec::medium_dc();
        spec.topology = Topology::new(12, 4, 3);
        spec
    };
    let site = |name: &str, offset: i64| SiteConfig {
        name: name.to_string(),
        cluster: cluster.clone(),
        source: SourceKind::Solar { area_m2: 10.0, profile: SolarProfile::SunnySummer },
        forecast: ForecastKind::Noisy { cv: 0.3 },
        battery: None,
        utc_offset_hours: offset,
    };
    let mut cfg = ExperimentConfig::medium(seed);
    cfg.cluster = cluster.clone();
    cfg.workload = gm_workload::WorkloadSpec::medium_week(cluster.objects);
    cfg.workload.interactive.rate_rps *= 0.01;
    cfg.workload.batch.jobs *= 6;
    cfg.energy.battery = None;
    cfg.with_forecast(ForecastKind::Noisy { cv: 0.3 })
        .with_sites(vec![site("west", 0), site("mid", 8), site("east", 16)])
        .with_wan_cost(200)
        .with_failures(FailureSpec::nearline())
        .with_tiering(TieringConfig::default())
        .with_admission(AdmissionConfig { alpha: 0.9, defer_slots: 4 })
}

/// The batch-arrival producer of the service workload: a thread that
/// pushes each slot's arrivals into the feed the simulation drains.
pub struct Producer(JoinHandle<()>);

impl Producer {
    /// Start producing `cfg`'s arrivals from `world`; returns the feed to
    /// hand to the simulation builder.
    pub fn start(cfg: &ExperimentConfig, world: &World) -> (Producer, EventFeed) {
        let workload = world.workload.clone();
        let (mut tx, feed) = EventFeed::new();
        let (clock, slots) = (cfg.clock, cfg.slots);
        let handle = std::thread::spawn(move || {
            for slot in 0..slots {
                if !tx.send_slot(slot, workload.batch_arrivals_in_slot(clock, slot)) {
                    return;
                }
            }
        });
        (Producer(handle), feed)
    }

    /// Wait for the producer to finish.
    pub fn join(self) {
        self.0.join().expect("feed producer panicked");
    }
}
