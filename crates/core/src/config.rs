//! Experiment configuration.
//!
//! An [`ExperimentConfig`] fully determines a run: cluster, workload,
//! energy system (source, battery, grid, forecaster), policy, seed and
//! horizon. All fields are serde-serialisable so the bench harness can
//! archive the exact configuration next to every result.

use crate::policy::PolicyKind;
use gm_energy::battery::BatterySpec;
use gm_energy::forecast::{
    EwmaForecaster, Forecaster, NoisyOracle, OracleForecaster, PersistenceForecaster,
};
use gm_energy::grid::Grid;
use gm_energy::solar::{SolarFarm, SolarFarmSpec, SolarProfile};
use gm_energy::supply::{MixedSource, PowerSource};
use gm_energy::wind::{TurbineSpec, WindFarm, WindProfile};
use gm_sim::time::SimDuration;
use gm_sim::{RngFactory, SlotClock, TimeSeries};
use gm_storage::ClusterSpec;
use gm_workload::trace::WorkloadSpec;
use serde::{Deserialize, Serialize};

/// Which renewable source supplies the site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceKind {
    /// No on-site renewables (pure-grid reference).
    None,
    /// PV farm of the given area.
    Solar {
        /// Total panel area (m²).
        area_m2: f64,
        /// Weather preset.
        profile: SolarProfile,
    },
    /// Wind turbine of the given nameplate power.
    Wind {
        /// Rated power (W).
        rated_w: f64,
        /// Wind climate preset.
        profile: WindProfile,
    },
    /// Solar + wind.
    Mixed {
        /// PV area (m²).
        area_m2: f64,
        /// Solar weather preset.
        solar_profile: SolarProfile,
        /// Turbine rated power (W).
        rated_w: f64,
        /// Wind climate preset.
        wind_profile: WindProfile,
    },
    /// A measured production trace in the interchange CSV format
    /// (`gm_energy::traces`), read from disk at materialisation time —
    /// the substitution point for real PV-logger data.
    TraceCsv {
        /// Label for reports.
        label: String,
        /// Path to the CSV file.
        path: String,
    },
}

/// Why a configuration could not be materialised into a runnable
/// simulation.
///
/// `Display` keeps the exact wording the old panicking path used, so
/// `materialize` (the compatibility wrapper) panics with byte-identical
/// messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A [`SourceKind::TraceCsv`] file could not be read from disk.
    TraceRead {
        /// Trace label from the config.
        label: String,
        /// Path that failed to open.
        path: String,
        /// Underlying I/O error text.
        error: String,
    },
    /// A [`SourceKind::TraceCsv`] file was read but failed to parse.
    TraceParse {
        /// Trace label from the config.
        label: String,
        /// Parse error text.
        error: String,
    },
    /// The configuration itself is unusable (e.g. zero slots).
    Invalid {
        /// What is wrong.
        message: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::TraceRead { label, path, error } => {
                write!(f, "trace {label}: cannot read {path}: {error}")
            }
            ConfigError::TraceParse { label, error } => write!(f, "trace {label}: {error}"),
            ConfigError::Invalid { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SourceKind {
    /// Materialise the source into a frozen per-slot power trace (W).
    ///
    /// Panics if a [`SourceKind::TraceCsv`] file is missing or malformed —
    /// a configured measurement file that cannot be read is a setup error,
    /// not a condition to silently zero-fill. Prefer [`try_materialize`]
    /// (`SourceKind::try_materialize`) when the caller wants to report the
    /// problem instead.
    pub fn materialize(&self, clock: SlotClock, slots: usize, rngs: &RngFactory) -> TimeSeries {
        self.try_materialize(clock, slots, rngs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Materialise the source, reporting a missing or malformed trace file
    /// as a [`ConfigError`] instead of panicking.
    pub fn try_materialize(
        &self,
        clock: SlotClock,
        slots: usize,
        rngs: &RngFactory,
    ) -> Result<TimeSeries, ConfigError> {
        Ok(match *self {
            SourceKind::None => TimeSeries::zeros(clock, slots),
            SourceKind::TraceCsv { ref label, ref path } => {
                let csv = std::fs::read_to_string(path).map_err(|e| ConfigError::TraceRead {
                    label: label.clone(),
                    path: path.clone(),
                    error: e.to_string(),
                })?;
                let trace = gm_energy::traces::trace_from_csv(&csv, clock).map_err(|e| {
                    ConfigError::TraceParse { label: label.clone(), error: e.to_string() }
                })?;
                // Re-window onto the requested horizon (zero-padded).
                TimeSeries::from_values(clock, (0..slots).map(|s| trace.get(s)).collect())
            }
            SourceKind::Solar { area_m2, profile } => {
                SolarFarm::new(SolarFarmSpec::with_area(area_m2, profile), rngs)
                    .materialize(clock, slots)
            }
            SourceKind::Wind { rated_w, profile } => {
                WindFarm::new(TurbineSpec::small_site(rated_w), profile, rngs)
                    .materialize(clock, slots)
            }
            SourceKind::Mixed { area_m2, solar_profile, rated_w, wind_profile } => {
                MixedSource::new()
                    .with(Box::new(SolarFarm::new(
                        SolarFarmSpec::with_area(area_m2, solar_profile),
                        rngs,
                    )))
                    .with(Box::new(WindFarm::new(
                        TurbineSpec::small_site(rated_w),
                        wind_profile,
                        rngs,
                    )))
                    .materialize(clock, slots)
            }
        })
    }

    /// Label for reports.
    pub fn label(&self) -> String {
        match self {
            SourceKind::None => "no-renewables".into(),
            SourceKind::Solar { area_m2, profile } => format!("{}:{area_m2:.0}m2", profile.label()),
            SourceKind::Wind { rated_w, profile } => {
                format!("{}:{:.0}kW", profile.label(), rated_w / 1000.0)
            }
            SourceKind::Mixed { .. } => "mixed".into(),
            SourceKind::TraceCsv { label, .. } => format!("trace:{label}"),
        }
    }
}

/// Which production forecaster the policy plans with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ForecastKind {
    /// Error-free (the era's validation convention).
    Oracle,
    /// Same-hour-yesterday persistence.
    Persistence,
    /// Per-hour-of-day EWMA with the given smoothing factor.
    Ewma {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
    /// Oracle with multiplicative lognormal error.
    Noisy {
        /// Error coefficient of variation.
        cv: f64,
    },
}

impl ForecastKind {
    /// Build the forecaster over a materialised trace.
    pub fn build(
        &self,
        trace: &TimeSeries,
        clock: SlotClock,
        rngs: &RngFactory,
    ) -> Box<dyn Forecaster + Send> {
        match *self {
            ForecastKind::Oracle => Box::new(OracleForecaster::new(trace.clone())),
            ForecastKind::Persistence => Box::new(PersistenceForecaster::new(trace.clone())),
            ForecastKind::Ewma { alpha } => {
                Box::new(EwmaForecaster::new(alpha, clock.slots_per_day()))
            }
            ForecastKind::Noisy { cv } => Box::new(NoisyOracle::new(trace.clone(), cv, rngs)),
        }
    }
}

/// When the harness lets the battery discharge into a deficit.
///
/// Charging is always eager (surplus is otherwise curtailed); *discharge*
/// timing is a real design choice: draining eagerly may leave nothing for
/// the expensive/dirty evening peak.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum DischargeStrategy {
    /// Cover any deficit as soon as it appears (the common default).
    #[default]
    Eager,
    /// Discharge only while the grid is at peak price/carbon
    /// (07:00–23:00); off-peak deficits go straight to the (cheap, clean)
    /// grid, preserving charge for the next peak.
    PeakOnly,
    /// Keep the given fraction of the usable window in reserve except
    /// during the evening carbon peak (17:00–23:00), when the reserve may
    /// be spent too.
    Reserve(f64),
}

/// The temperature-tiering layer of an experiment (None = every object
/// stays on replication forever, the historic behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieringConfig {
    /// Classifier smoothing and hot/cold thresholds.
    pub ewma: gm_storage::EwmaParams,
    /// Ceiling on the fraction of objects allowed onto erasure coding.
    pub cold_fraction_target: f64,
    /// EC data shards.
    pub ec_k: usize,
    /// EC parity shards.
    pub ec_m: usize,
    /// Deadline window migration jobs get (they enter the deferrable pool,
    /// so the matcher steers their bytes into green slots within this
    /// window).
    pub migration_deadline_hours: u64,
    /// Per-direction cap on objects selected per slot (bounds the burst).
    pub max_migrations_per_slot: usize,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            ewma: gm_storage::EwmaParams::default(),
            cold_fraction_target: 0.5,
            ec_k: 4,
            ec_m: 2,
            migration_deadline_hours: 24,
            max_migrations_per_slot: 512,
        }
    }
}

/// Streaming admission control (None = accept everything, the historic
/// behaviour).
///
/// With admission on, newly arriving deferrable batch jobs pass a
/// *Cucumber-style* energy-aware gate before they ever reach the planner:
/// a job is accepted only while the `alpha`-confidence **lower band** of
/// the green-energy forecast over its feasible window covers the energy
/// already committed to accepted work plus its own demand. Jobs that fail
/// the check are held (deferred) for up to `defer_slots` slots — arrivals
/// are re-examined each slot as the forecast rolls forward — and rejected
/// once deferral can no longer help. Rejected work never enters the job
/// pool, so the matcher prices only admitted bytes. Internally spawned
/// repair and migration jobs bypass admission: they are obligations, not
/// offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Confidence level of the green lower band in `[0.5, 1)`: higher
    /// alpha = a more pessimistic supply estimate = a tighter gate.
    pub alpha: f64,
    /// How many slots an arrival may be held awaiting headroom before the
    /// gate must decide (0 = decide on arrival).
    pub defer_slots: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { alpha: 0.9, defer_slots: 4 }
    }
}

/// The energy side of an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyConfig {
    /// Renewable source.
    pub source: SourceKind,
    /// ESD, if any.
    pub battery: Option<BatterySpec>,
    /// Grid backup.
    pub grid: Grid,
    /// Forecaster the policy plans with.
    pub forecast: ForecastKind,
    /// Battery discharge timing.
    #[serde(default)]
    pub discharge: DischargeStrategy,
}

/// One site of a (possibly geo-federated) experiment: a cluster, its
/// renewable supply, the forecaster planning over that supply, and an
/// optional battery.
///
/// A single-site experiment never needs to touch this type — the flat
/// fields of [`ExperimentConfig`] *are* the one-site sugar, and
/// [`ExperimentConfig::site_configs`] derives the equivalent one-element
/// site list from them. Multi-site experiments install explicit sites via
/// [`ExperimentConfig::with_sites`]; site 0 is always the **home** site,
/// which hosts the interactive workload and the failure-injection dice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteConfig {
    /// Label for reports and per-site breakdowns.
    pub name: String,
    /// The site's cluster.
    pub cluster: ClusterSpec,
    /// The site's renewable supply.
    pub source: SourceKind,
    /// Forecaster planning over this site's supply.
    pub forecast: ForecastKind,
    /// The site's battery, if any.
    pub battery: Option<BatterySpec>,
    /// Longitude offset in whole hours: the site's materialised production
    /// trace is rotated so its diurnal peak arrives this many hours later
    /// in simulation time (a site this many time zones west of the home
    /// site). 0 for the home site.
    #[serde(default)]
    pub utc_offset_hours: i64,
}

impl SiteConfig {
    /// Materialise this site's production trace: the source is materialised
    /// with `rngs`, then rotated by [`SiteConfig::utc_offset_hours`] so an
    /// offset site's solar noon lands later in simulation time.
    pub fn try_materialize_trace(
        &self,
        clock: SlotClock,
        slots: usize,
        rngs: &RngFactory,
    ) -> Result<TimeSeries, ConfigError> {
        let base = self.source.try_materialize(clock, slots, rngs)?;
        let shift = self.offset_slots(clock, slots);
        if shift == 0 {
            return Ok(base);
        }
        let rotated =
            (0..slots).map(|s| base.get((s + slots - shift) % slots)).collect::<Vec<f64>>();
        Ok(TimeSeries::from_values(clock, rotated))
    }

    /// The trace rotation in slots implied by the UTC offset (modulo the
    /// horizon; 0 when the offset is smaller than one slot).
    fn offset_slots(&self, clock: SlotClock, slots: usize) -> usize {
        if slots == 0 || self.utc_offset_hours == 0 {
            return 0;
        }
        let shift =
            (self.utc_offset_hours as f64 * 3600.0 / clock.width().as_secs_f64()).round() as i64;
        shift.rem_euclid(slots as i64) as usize
    }
}

/// A complete, reproducible experiment description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Cluster to simulate.
    pub cluster: ClusterSpec,
    /// Workload to drive it with.
    pub workload: WorkloadSpec,
    /// Energy system.
    pub energy: EnergyConfig,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Disk-failure injection (None = reliable hardware). When enabled,
    /// failures spawn repair jobs that the policy schedules like any other
    /// deferrable work, and exposure windows are tracked as data-loss
    /// events.
    pub failures: Option<gm_storage::FailureSpec>,
    /// Master seed (workload, weather, placement noise).
    pub seed: u64,
    /// Number of slots to run.
    pub slots: usize,
    /// Slot clock.
    pub clock: SlotClock,
    /// Geo-federated sites. Empty (the default) means the flat fields above
    /// describe the single site; when non-empty, `sites[0]` is the home
    /// site and must mirror the flat `cluster`/`energy` fields (use
    /// [`Self::with_sites`], which keeps them in sync).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub sites: Vec<SiteConfig>,
    /// Per-unit WAN transfer cost the matcher charges for placing batch
    /// work at a non-home site, on the [`crate::matcher::BROWN_COST`] scale
    /// (one unit = [`crate::matcher::UNIT_BYTES`]). 0 = free transfers.
    #[serde(default)]
    pub wan_cost_per_unit: i64,
    /// Temperature-tiered storage: hot/warm/cold classification with
    /// erasure-coded demotion of cold objects, migration bytes scheduled
    /// through the matcher. `None` (the default, omitted from archived
    /// JSON) keeps the historic uniform-replication behaviour and leaves
    /// every trace byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub tiering: Option<TieringConfig>,
    /// Streaming admission control over newly arriving batch jobs (see
    /// [`AdmissionConfig`]). `None` (the default, omitted from archived
    /// JSON) accepts every arrival and leaves every trace byte-identical.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub admission: Option<AdmissionConfig>,
}

impl ExperimentConfig {
    /// A small, fast configuration for tests and the quickstart example:
    /// 6-server cluster, scaled-down week, modest PV + LI battery.
    pub fn small_demo(seed: u64) -> Self {
        let cluster = ClusterSpec::small();
        let workload = WorkloadSpec::small_week(cluster.objects);
        ExperimentConfig {
            cluster,
            workload,
            energy: EnergyConfig {
                source: SourceKind::Solar { area_m2: 15.0, profile: SolarProfile::SunnySummer },
                battery: Some(BatterySpec::lithium_ion(10_000.0)),
                grid: Grid::typical_eu(),
                forecast: ForecastKind::Oracle,
                discharge: DischargeStrategy::Eager,
            },
            policy: PolicyKind::GreenMatch { delay_fraction: 1.0 },
            failures: None,
            seed,
            slots: 7 * 24,
            clock: SlotClock::hourly(),
            sites: Vec::new(),
            wan_cost_per_unit: 0,
            tiering: None,
            admission: None,
        }
    }

    /// The medium data center of the headline experiments: 48 servers,
    /// full medium week, PV sized at ~1/3 of the zero-brown area, 40 kWh
    /// LI battery.
    pub fn medium(seed: u64) -> Self {
        let cluster = ClusterSpec::medium_dc();
        let workload = WorkloadSpec::medium_week(cluster.objects);
        ExperimentConfig {
            cluster,
            workload,
            energy: EnergyConfig {
                source: SourceKind::Solar { area_m2: 120.0, profile: SolarProfile::SunnySummer },
                battery: Some(BatterySpec::lithium_ion(40_000.0)),
                grid: Grid::typical_eu(),
                forecast: ForecastKind::Oracle,
                discharge: DischargeStrategy::Eager,
            },
            policy: PolicyKind::GreenMatch { delay_fraction: 1.0 },
            failures: None,
            seed,
            slots: 7 * 24,
            clock: SlotClock::hourly(),
            sites: Vec::new(),
            wan_cost_per_unit: 0,
            tiering: None,
            admission: None,
        }
    }

    /// The mega stress configuration: the medium data center driven by the
    /// [`WorkloadSpec::mega_week`] million-stream interactive workload
    /// (same aggregate request volume as `medium`, split over 10⁶
    /// sessions). Exists to prove the workload kernel scales — per-slot
    /// synthesis cost follows the *live* stream count, not the population.
    pub fn mega(seed: u64) -> Self {
        let mut cfg = ExperimentConfig::medium(seed);
        cfg.workload = WorkloadSpec::mega_week(cfg.cluster.objects);
        cfg
    }

    /// Horizon as a duration.
    pub fn horizon(&self) -> SimDuration {
        self.clock.width() * self.slots as u64
    }

    // --- chainable builder surface -------------------------------------
    //
    // Start from a preset and override the knobs under study:
    //
    // ```
    // use greenmatch::config::ExperimentConfig;
    // use greenmatch::policy::PolicyKind;
    //
    // let cfg = ExperimentConfig::small_demo(42)
    //     .with_policy(PolicyKind::AllOn)
    //     .with_slots(24);
    // ```

    /// Use the given scheduling policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Use any renewable source (see also [`Self::with_solar`] /
    /// [`Self::with_wind`] shorthands).
    #[must_use]
    pub fn with_source(mut self, source: SourceKind) -> Self {
        self.energy.source = source;
        self
    }

    /// Power the site from a PV farm of the given area.
    #[must_use]
    pub fn with_solar(mut self, area_m2: f64, profile: SolarProfile) -> Self {
        self.energy.source = SourceKind::Solar { area_m2, profile };
        self
    }

    /// Power the site from a wind turbine of the given nameplate power.
    #[must_use]
    pub fn with_wind(mut self, rated_w: f64, profile: WindProfile) -> Self {
        self.energy.source = SourceKind::Wind { rated_w, profile };
        self
    }

    /// Install the given battery (`None` removes it; a bare `BatterySpec`
    /// works too, via `Into<Option<_>>`).
    #[must_use]
    pub fn with_battery(mut self, battery: impl Into<Option<BatterySpec>>) -> Self {
        self.energy.battery = battery.into();
        self
    }

    /// Plan with the given production forecaster.
    #[must_use]
    pub fn with_forecast(mut self, forecast: ForecastKind) -> Self {
        self.energy.forecast = forecast;
        self
    }

    /// Enable (or with `None`, disable) disk-failure injection.
    #[must_use]
    pub fn with_failures(mut self, failures: impl Into<Option<gm_storage::FailureSpec>>) -> Self {
        self.failures = failures.into();
        self
    }

    /// Simulate the given number of slots.
    #[must_use]
    pub fn with_slots(mut self, slots: usize) -> Self {
        self.slots = slots;
        self
    }

    /// Use the given master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable (or with `None`, disable) temperature-tiered storage (see
    /// [`Self::tiering`]).
    #[must_use]
    pub fn with_tiering(mut self, tiering: impl Into<Option<TieringConfig>>) -> Self {
        self.tiering = tiering.into();
        self
    }

    /// Enable (or with `None`, disable) streaming admission control (see
    /// [`Self::admission`]).
    #[must_use]
    pub fn with_admission(mut self, admission: impl Into<Option<AdmissionConfig>>) -> Self {
        self.admission = admission.into();
        self
    }

    // --- the site layer ------------------------------------------------

    /// Install an explicit (multi-)site list. `sites[0]` becomes the home
    /// site and the flat `cluster`/`energy` fields are overwritten to
    /// mirror it, so code reading the flat fields (planning model, cache
    /// keys, report labels) stays consistent with the site list.
    ///
    /// # Panics
    /// Panics on an empty site list.
    #[must_use]
    pub fn with_sites(mut self, sites: Vec<SiteConfig>) -> Self {
        assert!(!sites.is_empty(), "an experiment needs at least one site");
        self.cluster = sites[0].cluster.clone();
        self.energy.source = sites[0].source.clone();
        self.energy.forecast = sites[0].forecast;
        self.energy.battery = sites[0].battery;
        self.sites = sites;
        self
    }

    /// Charge the matcher the given per-unit WAN cost for cross-site
    /// placement (see [`Self::wan_cost_per_unit`]).
    #[must_use]
    pub fn with_wan_cost(mut self, wan_cost_per_unit: i64) -> Self {
        self.wan_cost_per_unit = wan_cost_per_unit;
        self
    }

    /// Number of sites (1 for the flat single-site form).
    pub fn n_sites(&self) -> usize {
        self.sites.len().max(1)
    }

    /// The effective site list: the explicit `sites`, or the one-site
    /// equivalent of the flat fields when no explicit sites are configured.
    pub fn site_configs(&self) -> Vec<SiteConfig> {
        if self.sites.is_empty() {
            vec![SiteConfig {
                name: "site0".to_string(),
                cluster: self.cluster.clone(),
                source: self.energy.source.clone(),
                forecast: self.energy.forecast,
                battery: self.energy.battery,
                utc_offset_hours: 0,
            }]
        } else {
            self.sites.clone()
        }
    }

    /// Per-site master seed. Site 0 uses the run seed unchanged (so the
    /// single-site path draws exactly the historic streams and shares
    /// cache keys with flat configs); further sites get seeds derived via
    /// splitmix so their weather noise is independent.
    pub fn site_seed(&self, site: usize) -> u64 {
        if site == 0 {
            return self.seed;
        }
        let mut s = self.seed ^ (site as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        gm_sim::rng::splitmix64(&mut s)
    }

    /// Check everything a build would otherwise trip over with a panic or
    /// silently misread, before anything builds. Both build paths run it
    /// (materialising a world, and stepping over a supplied one):
    ///
    /// * at least one slot;
    /// * the home-site mirror: with explicit sites, the flat fields must
    ///   equal `sites[0]` (guaranteed by [`Self::with_sites`]; hand-built
    ///   or deserialised configs are checked here), and the home site has
    ///   `utc_offset_hours = 0`;
    /// * every site's cluster (`ClusterSpec::validate`), forecaster (EWMA
    ///   `alpha` in `(0, 1]`, noisy `cv` finite and `>= 0`) and battery
    ///   (capacity finite and `>= 0`, rate limits `>= 0`, `dod` and daily
    ///   self-discharge in `[0, 1]`, `efficiency` in `(0, 1]`, cycle life
    ///   `> 0`), and the tiering section against the home cluster it
    ///   tiers (`ClusterSpec::validate_tiering`);
    /// * the workload spec (`WorkloadSpec::validate`), whose interactive
    ///   objects must exist on the home cluster;
    /// * the admission gate's confidence level `alpha`, which must be a
    ///   finite value in `[0.5, 1)`;
    /// * the policy's `delay_fraction` in `[0, 1]` and window `horizon`
    ///   of at least one slot;
    /// * the grid: every value finite and `>= 0`, the base carbon
    ///   intensity `> 0` (carbon pricing divides by it);
    /// * a `Reserve` discharge fraction in `[0, 1]`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let invalid = |message: String| ConfigError::Invalid { message };
        if self.slots == 0 {
            return Err(invalid("experiment needs at least one slot".to_string()));
        }
        if let Some(home) = self.sites.first() {
            if home.cluster != self.cluster
                || home.source != self.energy.source
                || home.forecast != self.energy.forecast
                || home.battery != self.energy.battery
            {
                return Err(invalid(
                    "sites[0] must mirror the flat cluster/energy fields \
                     (build multi-site configs with with_sites)"
                        .to_string(),
                ));
            }
            if home.utc_offset_hours != 0 {
                return Err(invalid("the home site must have utc_offset_hours = 0".to_string()));
            }
        }
        let sites = self.site_configs();
        // (field, (value, accepted, what it must be)); the first rejected
        // entry is reported.
        let unit = |x: f64| (x, (0.0..=1.0).contains(&x), "in [0, 1]");
        let open_unit = |x: f64| (x, x > 0.0 && x <= 1.0, "in (0, 1]");
        let non_neg = |x: f64| (x, x.is_finite() && x >= 0.0, "finite and >= 0");
        let pos = |x: f64| (x, x.is_finite() && x > 0.0, "finite and > 0");
        let rate = |x: f64| (x, x >= 0.0, ">= 0");
        let mut checks: Vec<(String, (f64, bool, &str))> = Vec::new();
        for site in &sites {
            site.cluster.validate().map_err(|e| invalid(format!("site {}: {e}", site.name)))?;
            let field = |name: &str| format!("site {}: {name}", site.name);
            match site.forecast {
                ForecastKind::Ewma { alpha } => {
                    checks.push((field("forecast alpha"), open_unit(alpha)))
                }
                ForecastKind::Noisy { cv } => checks.push((field("forecast cv"), non_neg(cv))),
                ForecastKind::Oracle | ForecastKind::Persistence => {}
            }
            if let Some(b) = &site.battery {
                // Rate limits and cycle life may be infinite (an ideal store).
                for (name, check) in [
                    ("battery.capacity_wh", non_neg(b.capacity_wh)),
                    ("battery.dod", unit(b.dod)),
                    ("battery.efficiency", open_unit(b.efficiency)),
                    ("battery.charge_rate_per_hour", rate(b.charge_rate_per_hour)),
                    ("battery.discharge_to_charge_ratio", rate(b.discharge_to_charge_ratio)),
                    ("battery.self_discharge_per_day", unit(b.self_discharge_per_day)),
                    ("battery.cycle_life", (b.cycle_life, b.cycle_life > 0.0, "> 0")),
                ] {
                    checks.push((field(name), check));
                }
            }
        }
        if let PolicyKind::GreenMatch { delay_fraction: f }
        | PolicyKind::GreenMatchCarbon { delay_fraction: f }
        | PolicyKind::GreenMatchWindow { delay_fraction: f, .. } = self.policy
        {
            checks.push(("policy: delay_fraction".into(), unit(f)));
        }
        if let PolicyKind::GreenMatchWindow { horizon, .. } = self.policy {
            checks.push(("policy: horizon (slots)".into(), pos(horizon as f64)));
        }
        let grid = &self.energy.grid;
        for (name, check) in [
            ("grid.base_carbon_g_per_kwh", pos(grid.base_carbon_g_per_kwh)),
            ("grid.peak_carbon_g_per_kwh", non_neg(grid.peak_carbon_g_per_kwh)),
            ("grid.offpeak_price_per_kwh", non_neg(grid.offpeak_price_per_kwh)),
            ("grid.peak_price_per_kwh", non_neg(grid.peak_price_per_kwh)),
        ] {
            checks.push((name.into(), check));
        }
        if let DischargeStrategy::Reserve(frac) = self.energy.discharge {
            checks.push(("discharge: Reserve fraction".into(), unit(frac)));
        }
        if let Some((field, (value, _, expected))) = checks.into_iter().find(|(_, c)| !c.1) {
            return Err(invalid(format!("{field} = {value} must be {expected}")));
        }
        self.workload.validate().map_err(|e| invalid(e.to_string()))?;
        let (objects, home_objects) = (self.workload.interactive.objects, sites[0].cluster.objects);
        if objects > home_objects {
            return Err(invalid(format!(
                "workload spec: interactive.objects = {objects} exceeds the home cluster's \
                 {home_objects} objects"
            )));
        }
        if let Some(t) = &self.tiering {
            sites[0]
                .cluster
                .validate_tiering(&t.ewma, t.cold_fraction_target, t.ec_k, t.ec_m)
                .map_err(|e| invalid(format!("tiering: {e}")))?;
        }
        if let Some(gate) = &self.admission {
            if !(0.5..1.0).contains(&gate.alpha) {
                return Err(invalid(format!(
                    "admission: alpha = {} must be a confidence level in [0.5, 1)",
                    gate.alpha
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_materialize_to_requested_length() {
        let rngs = RngFactory::new(1);
        let c = SlotClock::hourly();
        for src in [
            SourceKind::None,
            SourceKind::Solar { area_m2: 50.0, profile: SolarProfile::SunnySummer },
            SourceKind::Wind { rated_w: 10_000.0, profile: WindProfile::SteadyCoastal },
            SourceKind::Mixed {
                area_m2: 50.0,
                solar_profile: SolarProfile::SunnySummer,
                rated_w: 10_000.0,
                wind_profile: WindProfile::SteadyCoastal,
            },
        ] {
            let trace = src.materialize(c, 48, &rngs);
            assert_eq!(trace.len(), 48, "{}", src.label());
            assert!(trace.values().iter().all(|v| *v >= 0.0));
        }
        // None produces exactly zero; mixed at least as much as either part.
        assert_eq!(SourceKind::None.materialize(c, 5, &rngs).sum(), 0.0);
    }

    #[test]
    fn mixed_is_sum_of_parts() {
        let rngs = RngFactory::new(9);
        let c = SlotClock::hourly();
        let solar = SourceKind::Solar { area_m2: 30.0, profile: SolarProfile::SunnySummer }
            .materialize(c, 72, &rngs);
        let wind = SourceKind::Wind { rated_w: 8_000.0, profile: WindProfile::CalmWeek }
            .materialize(c, 72, &rngs);
        let mixed = SourceKind::Mixed {
            area_m2: 30.0,
            solar_profile: SolarProfile::SunnySummer,
            rated_w: 8_000.0,
            wind_profile: WindProfile::CalmWeek,
        }
        .materialize(c, 72, &rngs);
        // Same seed ⇒ same component streams ⇒ exact sum.
        for s in 0..72 {
            assert!((mixed.get(s) - (solar.get(s) + wind.get(s))).abs() < 1e-9);
        }
    }

    #[test]
    fn forecasters_build() {
        let rngs = RngFactory::new(2);
        let c = SlotClock::hourly();
        let trace = TimeSeries::from_values(c, vec![5.0; 48]);
        for kind in [
            ForecastKind::Oracle,
            ForecastKind::Persistence,
            ForecastKind::Ewma { alpha: 0.5 },
            ForecastKind::Noisy { cv: 0.2 },
        ] {
            let mut f = kind.build(&trace, c, &rngs);
            assert_eq!(f.predict(0, 4).len(), 4);
        }
    }

    #[test]
    fn presets_are_consistent() {
        let small = ExperimentConfig::small_demo(1);
        assert_eq!(small.slots, 168);
        assert_eq!(small.horizon(), SimDuration::from_days(7));
        assert_eq!(small.workload.interactive.objects, small.cluster.objects);
        let medium = ExperimentConfig::medium(1);
        assert_eq!(medium.workload.interactive.objects, medium.cluster.objects);
    }

    #[test]
    fn retired_knobs_in_archived_json_are_ignored() {
        // Configs and snapshots archived while `matcher_warm_start`,
        // `site_parallel`, `feed_arrivals` and the snapshot's
        // `arrivals_cursor` existed still load; the fields select nothing.
        const RETIRED: &str =
            r#""matcher_warm_start":false,"site_parallel":false,"feed_arrivals":true,"#;
        let cfg = ExperimentConfig::small_demo(3).with_slots(24);
        let json = serde_json::to_string(&cfg).expect("serialises");
        for field in ["matcher_warm_start", "site_parallel", "feed_arrivals"] {
            assert!(!json.contains(field), "{field} is no longer written");
        }
        let archived = json.replacen('{', &format!("{{{RETIRED}"), 1);
        let back: ExperimentConfig = serde_json::from_str(&archived).expect("parses");
        assert_eq!(serde_json::to_string(&back).expect("serialises"), json);

        let mut sim = crate::Simulation::builder(&cfg).build().expect("builds");
        for _ in 0..9 {
            sim.step();
        }
        let snap = sim.snapshot().to_json();
        drop(sim);
        assert!(!snap.contains("arrivals_cursor"), "the cursor is no longer written");
        let archived = snap.replacen(r#""cfg":{"#, &format!(r#""cfg":{{{RETIRED}"#), 1);
        let archived = archived.replacen('{', r#"{"arrivals_cursor":57,"#, 1);
        assert_ne!(archived, snap, "the snapshot embeds its config");
        let back = crate::Snapshot::from_json(&archived).expect("parses");
        assert_eq!(back.to_json(), snap);

        // A stale cursor value changes nothing: the resume replays the
        // workload from the snapshot's slot, like the cold run.
        let resumed = crate::Simulation::builder(&cfg)
            .resume_from(&back)
            .build()
            .expect("restores")
            .run_to_end();
        let cold = crate::harness::run_experiment(&cfg);
        assert_eq!(
            serde_json::to_string(&resumed).expect("serialises"),
            serde_json::to_string(&cold).expect("serialises")
        );
    }

    #[test]
    fn tiering_knob_defaults_off_and_roundtrips() {
        let cfg = ExperimentConfig::small_demo(3);
        assert!(cfg.tiering.is_none());
        let json = serde_json::to_string(&cfg).expect("serialises");
        assert!(!json.contains("tiering"), "default stays out of archived JSON");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert!(back.tiering.is_none(), "omitted field deserialises to off");
        let tiered = cfg.with_tiering(TieringConfig::default());
        let json = serde_json::to_string(&tiered).expect("serialises");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.tiering, tiered.tiering);
        assert_eq!(back.tiering.unwrap().ec_k, 4);
    }

    #[test]
    fn admission_knob_defaults_off_and_roundtrips() {
        let cfg = ExperimentConfig::small_demo(3);
        assert!(cfg.admission.is_none());
        let json = serde_json::to_string(&cfg).expect("serialises");
        assert!(!json.contains("admission"), "default stays out of archived JSON");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert!(back.admission.is_none(), "omitted field deserialises to off");
        let gated = cfg.with_admission(AdmissionConfig::default());
        let json = serde_json::to_string(&gated).expect("serialises");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.admission, gated.admission);
        assert!((back.admission.unwrap().alpha - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mega_preset_keeps_mediums_aggregate_rate() {
        let mega = ExperimentConfig::mega(1);
        let medium = ExperimentConfig::medium(1);
        assert_eq!(mega.workload.interactive.streams, 1_000_000);
        let mega_rate =
            mega.workload.interactive.streams as f64 * mega.workload.interactive.rate_rps;
        let medium_rate =
            medium.workload.interactive.streams as f64 * medium.workload.interactive.rate_rps;
        assert!((mega_rate - medium_rate).abs() < 1e-6);
        assert_eq!(mega.cluster, medium.cluster);
    }

    #[test]
    fn source_shorthands_mirror_with_source() {
        let a = ExperimentConfig::small_demo(1).with_solar(80.0, SolarProfile::SunnySummer);
        let b = ExperimentConfig::small_demo(1)
            .with_source(SourceKind::Solar { area_m2: 80.0, profile: SolarProfile::SunnySummer });
        assert_eq!(a.energy.source, b.energy.source);
        let w = ExperimentConfig::small_demo(1).with_wind(9_000.0, WindProfile::SteadyCoastal);
        assert_eq!(
            w.energy.source,
            SourceKind::Wind { rated_w: 9_000.0, profile: WindProfile::SteadyCoastal }
        );
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = ExperimentConfig::small_demo(3);
        let json = serde_json::to_string(&cfg).expect("serialises");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.slots, cfg.slots);
        assert_eq!(back.policy, cfg.policy);
    }
}
