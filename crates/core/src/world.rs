//! The shared immutable world of a simulation, and its memo cache.
//!
//! Materialising an [`ExperimentConfig`] splits into two halves:
//!
//! * the **world** — the generated workload population, the materialised
//!   green production trace and the placed cluster layout. Expensive to
//!   build, immutable once built, and a pure function of a *subset* of the
//!   config (each component's inputs are listed on its key function below);
//! * the **per-run state** — disks, queues, battery, ledger, policy,
//!   forecaster, job tables. Cheap, mutable, and rebuilt for every run.
//!
//! A sweep whose points differ only by policy or a scheduler knob shares
//! one [`World`]; points differing only in battery size share the same
//! workload *and* trace while re-placing nothing. [`WorldCache`] performs
//! that sharing: each component is memoised under a key derived from
//! exactly the config fields that feed it, so a 60-run sweep materialises
//! each distinct component once and clones `Arc`s thereafter.
//!
//! Determinism: every component is produced by a deterministic function of
//! `(spec, seed)` with a self-contained [`gm_sim::RngFactory`] (named
//! streams are fresh and identical on every call), so a cache hit is
//! byte-for-byte indistinguishable from a cold rebuild — the telemetry
//! tests pin this.

use crate::config::{ConfigError, ExperimentConfig, SiteConfig, SourceKind};
use gm_sim::{RngFactory, TimeSeries};
use gm_storage::ClusterLayout;
use gm_workload::trace::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The immutable inputs of one *site*: its green production trace and its
/// placed cluster layout. A single-site world has exactly one of these.
#[derive(Clone)]
pub struct SiteWorld {
    /// Materialised green production trace (W per slot), already rotated
    /// by the site's UTC offset.
    pub green_trace: Arc<TimeSeries>,
    /// Placed cluster layout (spec + object directory).
    pub layout: Arc<ClusterLayout>,
}

/// The immutable inputs of one simulation run, shareable across runs.
///
/// Cloning a `World` clones `Arc`s only. Simulations only ever borrow the
/// contents immutably (the phase pipeline takes `&Workload`,
/// `&TimeSeries`, `&ClusterLayout`); all mutable state lives in the
/// [`crate::simulation::Simulation`] itself.
///
/// The workload is global (interactive traffic and batch arrivals enter at
/// the home site); traces and layouts are per-site, one [`SiteWorld`] per
/// entry of [`ExperimentConfig::site_configs`]. `sites[0]` is the home
/// site.
#[derive(Clone)]
pub struct World {
    /// Generated workload population (interactive streams + batch jobs).
    pub workload: Arc<Workload>,
    /// Per-site immutable components; index 0 is the home site.
    pub sites: Vec<SiteWorld>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("batch_jobs", &self.workload.batch_jobs().len())
            .field("sites", &self.sites.len())
            .field("trace_slots", &self.green_trace().len())
            .field("objects", &self.layout().directory().len())
            .finish()
    }
}

impl World {
    /// The home site's green production trace.
    pub fn green_trace(&self) -> &Arc<TimeSeries> {
        &self.sites[0].green_trace
    }

    /// The home site's cluster layout.
    pub fn layout(&self) -> &Arc<ClusterLayout> {
        &self.sites[0].layout
    }

    /// Materialise every component through a fresh, private
    /// [`WorldCache`]: nothing is shared with other worlds, but sites with
    /// identical cluster sections share one placed layout.
    pub fn try_materialize(cfg: &ExperimentConfig) -> Result<World, ConfigError> {
        WorldCache::new().get_or_materialize(cfg)
    }

    /// Materialise through `cache`: each component is built at most once
    /// per distinct key and shared as an `Arc` thereafter.
    pub fn try_materialize_in(
        cfg: &ExperimentConfig,
        cache: &WorldCache,
    ) -> Result<World, ConfigError> {
        cache.get_or_materialize(cfg)
    }
}

/// One memoised component family: key → build-once cell.
///
/// The per-key cell lock is what makes concurrent misses safe *and*
/// single-build: the map lock is only held to look up the cell, never
/// while materialising, and racing workers on the same key serialise on
/// the cell so exactly one of them pays the build. A build that fails
/// leaves its cell empty and returns the error to its caller.
struct Shard<T> {
    map: Mutex<HashMap<String, Cell<T>>>,
}

/// One key's build-once cell: empty until a build succeeds.
type Cell<T> = Arc<Mutex<Option<Arc<T>>>>;

impl<T> Default for Shard<T> {
    fn default() -> Self {
        Shard { map: Mutex::new(HashMap::new()) }
    }
}

impl<T> Shard<T> {
    fn get_or_build(
        &self,
        key: String,
        stats: &CacheStats,
        build: impl FnOnce() -> Result<T, ConfigError>,
    ) -> Result<Arc<T>, ConfigError> {
        let cell = {
            let mut map = self.map.lock().expect("world cache lock");
            map.entry(key).or_default().clone()
        };
        // A build that panicked leaves the cell empty, as a failed one does.
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = &*slot {
            stats.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(build()?);
        *slot = Some(Arc::clone(&value));
        stats.misses.fetch_add(1, Ordering::Relaxed);
        Ok(value)
    }
}

#[derive(Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Concurrent memo cache for [`World`] components.
///
/// Component keys are derived from exactly the config fields that feed the
/// component (see the `*_key` functions), so sweeps share aggressively:
/// sixty policy variants over one scenario hit one workload, one trace and
/// one layout. Hit/miss counters cover all three component families.
#[derive(Default)]
pub struct WorldCache {
    workloads: Shard<Workload>,
    traces: Shard<TimeSeries>,
    layouts: Shard<ClusterLayout>,
    stats: CacheStats,
}

/// Every world-component key of `cfg`, in a fixed order: the workload key
/// first, then each site's trace key and layout key. Snapshots store these
/// strings instead of the materialised components — a checkpoint
/// *references* its world; resuming re-materialises (or cache-hits) the
/// same components from the resume config and can compare key sets to tell
/// an exact resume from a cross-world branch.
pub fn world_keys(cfg: &ExperimentConfig) -> Vec<String> {
    let mut keys = vec![format!("workload/{}", workload_key(cfg))];
    for (i, site) in cfg.site_configs().iter().enumerate() {
        keys.push(format!("trace/{}", trace_key(cfg, site, cfg.site_seed(i))));
        keys.push(format!("layout/{}", layout_key(site)));
    }
    keys
}

/// Key of the workload component: the master seed plus the workload
/// section — `Workload::generate(spec, seed)` reads nothing else.
fn workload_key(cfg: &ExperimentConfig) -> String {
    let spec = serde_json::to_string(&cfg.workload).expect("workload spec serialises");
    format!("{}|{spec}", cfg.seed)
}

/// Key of one site's green-trace component: the site's seed, renewable
/// source, UTC offset, plus clock and slot count. Battery, grid,
/// forecaster and discharge strategy are deliberately excluded — they
/// shape settlement, not production — so a battery or forecast sweep
/// shares one trace. Sites with identical sources but different offsets
/// miss each other (the rotation changes the materialised values).
fn trace_key(cfg: &ExperimentConfig, site: &SiteConfig, site_seed: u64) -> String {
    let source = serde_json::to_string(&site.source).expect("source serialises");
    let clock = serde_json::to_string(&cfg.clock).expect("clock serialises");
    format!("{site_seed}|{}|{clock}|{source}|{}", cfg.slots, site.utc_offset_hours)
}

/// Key of one site's cluster-layout component: the whole cluster section.
/// The placement itself reads only topology/layout/objects, but the layout
/// carries its spec (disk, server, cache models) into every run built from
/// it, so any cluster-section change must miss. Sites with identical
/// cluster specs share one placed layout (placement is seeded by
/// `layout_seed`, not the master seed).
fn layout_key(site: &SiteConfig) -> String {
    serde_json::to_string(&site.cluster).expect("cluster spec serialises")
}

impl WorldCache {
    /// An empty cache.
    pub fn new() -> Self {
        WorldCache::default()
    }

    /// The process-wide cache the bench harness feeds every run through.
    pub fn global() -> &'static WorldCache {
        static GLOBAL: OnceLock<WorldCache> = OnceLock::new();
        GLOBAL.get_or_init(WorldCache::new)
    }

    /// Materialise `cfg`'s world, reusing every component already built
    /// under the same key.
    ///
    /// The config is checked ([`ExperimentConfig::validate`]) before
    /// anything builds. Components build in the order layouts,
    /// workload, traces, so a missing trace file surfaces only after the
    /// cluster and workload build.
    ///
    /// A [`SourceKind::TraceCsv`] source bypasses the trace shard (reading
    /// a file is fallible and the file may change between runs); all
    /// synthetic sources are infallible and cache cleanly.
    pub fn get_or_materialize(&self, cfg: &ExperimentConfig) -> Result<World, ConfigError> {
        cfg.validate()?;
        let site_cfgs = cfg.site_configs();
        let invalid = |message: String| ConfigError::Invalid { message };
        let layouts = site_cfgs
            .iter()
            .map(|site| {
                self.layouts.get_or_build(layout_key(site), &self.stats, || {
                    Ok(ClusterLayout::new(site.cluster.clone()))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let workload = self.workloads.get_or_build(workload_key(cfg), &self.stats, || {
            Workload::try_generate(cfg.workload.clone(), cfg.seed)
                .map_err(|e| invalid(e.to_string()))
        })?;
        let mut sites = Vec::with_capacity(site_cfgs.len());
        for (i, (site, layout)) in site_cfgs.iter().zip(layouts).enumerate() {
            let site_seed = cfg.site_seed(i);
            let rngs = RngFactory::new(site_seed);
            let green_trace = if matches!(site.source, SourceKind::TraceCsv { .. }) {
                Arc::new(site.try_materialize_trace(cfg.clock, cfg.slots, &rngs)?)
            } else {
                self.traces.get_or_build(trace_key(cfg, site, site_seed), &self.stats, || {
                    site.try_materialize_trace(cfg.clock, cfg.slots, &rngs)
                })?
            };
            sites.push(SiteWorld { green_trace, layout });
        }
        Ok(World { workload, sites })
    }

    /// Component lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.stats.hits.load(Ordering::Relaxed)
    }

    /// Component lookups that had to materialise.
    pub fn misses(&self) -> u64 {
        self.stats.misses.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for WorldCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldCache")
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_and_cached_worlds_agree() {
        let cfg = ExperimentConfig::small_demo(5);
        let cold = World::try_materialize(&cfg).expect("materialises");
        let cache = WorldCache::new();
        let warm = World::try_materialize_in(&cfg, &cache).expect("materialises");
        assert_eq!(cold.green_trace().values(), warm.green_trace().values());
        assert_eq!(cold.workload.batch_jobs(), warm.workload.batch_jobs());
        assert_eq!(cold.layout().directory().len(), warm.layout().directory().len());
    }

    #[test]
    fn same_config_hits_all_three_shards() {
        let cfg = ExperimentConfig::small_demo(5);
        let cache = WorldCache::new();
        let a = cache.get_or_materialize(&cfg).expect("first");
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        let b = cache.get_or_materialize(&cfg).expect("second");
        assert_eq!((cache.hits(), cache.misses()), (3, 3));
        assert!(Arc::ptr_eq(&a.workload, &b.workload));
        assert!(Arc::ptr_eq(a.green_trace(), b.green_trace()));
        assert!(Arc::ptr_eq(a.layout(), b.layout()));
    }

    #[test]
    fn policy_change_shares_the_whole_world() {
        use crate::policy::PolicyKind;
        let cache = WorldCache::new();
        let a = cache.get_or_materialize(&ExperimentConfig::small_demo(5)).expect("a");
        let b = cache
            .get_or_materialize(&ExperimentConfig::small_demo(5).with_policy(PolicyKind::AllOn))
            .expect("b");
        assert_eq!(cache.misses(), 3, "second config rebuilt nothing");
        assert_eq!(cache.hits(), 3);
        assert!(Arc::ptr_eq(&a.workload, &b.workload));
        assert!(Arc::ptr_eq(a.green_trace(), b.green_trace()));
        assert!(Arc::ptr_eq(a.layout(), b.layout()));
    }

    #[test]
    fn battery_sweep_shares_trace_but_seed_change_misses() {
        use gm_energy::battery::BatterySpec;
        let cache = WorldCache::new();
        let base = ExperimentConfig::small_demo(5);
        cache.get_or_materialize(&base).expect("base");
        let bigger = base.clone().with_battery(BatterySpec::lithium_ion(99_000.0));
        let w = cache.get_or_materialize(&bigger).expect("bigger battery");
        assert_eq!(cache.misses(), 3, "battery size feeds no world component");
        let other_seed = base.with_seed(6);
        let w2 = cache.get_or_materialize(&other_seed).expect("other seed");
        assert_eq!(
            cache.misses(),
            5,
            "seed feeds workload and trace (layout has its own placement seed)"
        );
        assert!(!Arc::ptr_eq(&w.workload, &w2.workload));
        assert!(Arc::ptr_eq(w.layout(), w2.layout()), "layout key excludes the master seed");
    }

    #[test]
    fn sites_with_equal_clusters_share_one_layout() {
        let base = ExperimentConfig::small_demo(5);
        let mut sites = base.site_configs();
        for (name, offset) in [("east", 8), ("south", -4)] {
            let mut site = sites[0].clone();
            site.name = name.into();
            site.utc_offset_hours = offset;
            sites.push(site);
        }
        let world = World::try_materialize(&base.with_sites(sites)).expect("materialises");
        assert_eq!(world.sites.len(), 3);
        for site in &world.sites[1..] {
            assert!(Arc::ptr_eq(&site.layout, world.layout()), "equal clusters, one layout");
            assert!(!Arc::ptr_eq(&site.green_trace, world.green_trace()), "offsets differ");
        }
    }

    #[test]
    fn degenerate_workload_specs_are_typed_errors_not_panics() {
        type Edit = fn(&mut ExperimentConfig);
        let cases: [(&str, Edit); 10] = [
            ("interactive.zipf_s", |c| c.workload.interactive.zipf_s = f64::NAN),
            ("interactive.zipf_s", |c| c.workload.interactive.zipf_s = -0.5),
            ("interactive.size_cv", |c| c.workload.interactive.size_cv = -1.0),
            ("interactive.mean_size_bytes", |c| {
                c.workload.interactive.mean_size_bytes = f64::INFINITY
            }),
            ("interactive.rate_rps", |c| c.workload.interactive.rate_rps = f64::NAN),
            ("interactive.read_fraction", |c| c.workload.interactive.read_fraction = 1.5),
            ("interactive.diurnal_amplitude", |c| c.workload.interactive.diurnal_amplitude = 2.0),
            ("interactive.objects", |c| c.workload.interactive.objects = 0),
            ("exceeds the home cluster", |c| {
                c.workload.interactive.objects = c.cluster.objects + 1
            }),
            ("batch.mean_bytes", |c| c.workload.batch.mean_bytes = 0.0),
        ];
        let cache = WorldCache::new();
        for (field, edit) in cases {
            let mut cfg = ExperimentConfig::small_demo(5);
            edit(&mut cfg);
            match cache.get_or_materialize(&cfg) {
                Err(ConfigError::Invalid { message }) => {
                    assert!(message.contains(field), "{field}: {message}")
                }
                other => panic!("{field}: expected ConfigError::Invalid, got {other:?}"),
            }
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "rejected before any build");
        // The cache still builds a sound config afterwards.
        cache.get_or_materialize(&ExperimentConfig::small_demo(5)).expect("sound config");
    }

    #[test]
    fn bad_tiering_and_cluster_sections_are_typed_errors_before_any_build() {
        use crate::config::TieringConfig;
        use crate::simulation::Simulation;
        type Edit = fn(&mut TieringConfig);
        let cases: [(&str, Edit); 14] = [
            ("ewma.alpha", |t| t.ewma.alpha = 0.0),
            ("ewma.alpha", |t| t.ewma.alpha = 1.5),
            ("ewma.alpha", |t| t.ewma.alpha = f64::NAN),
            ("hysteresis", |t| t.ewma.hot_rate = f64::INFINITY),
            ("hysteresis", |t| t.ewma.cold_rate = f64::NAN),
            ("hysteresis", |t| (t.ewma.hot_rate, t.ewma.cold_rate) = (0.1, 1.0)),
            ("hysteresis", |t| t.ewma.cold_rate = -1.0),
            ("needs k >= 1", |t| t.ec_k = 0),
            ("needs k >= 1", |t| t.ec_m = 0),
            ("do not fit 3 gears of 4 disks", |t| (t.ec_k, t.ec_m) = (10, 3)),
            ("cold_fraction_target", |t| t.cold_fraction_target = 1.5),
            ("cold_fraction_target", |t| t.cold_fraction_target = -0.1),
            ("cold_fraction_target", |t| t.cold_fraction_target = f64::NAN),
            ("at most 2^32 - 1", |_| {}),
        ];
        let cache = WorldCache::new();
        for (i, (expected, edit)) in cases.into_iter().enumerate() {
            let mut tiering = TieringConfig::default();
            edit(&mut tiering);
            let mut cfg = ExperimentConfig::small_demo(5).with_tiering(tiering);
            if i == cases.len() - 1 {
                cfg.cluster.objects = u32::MAX as usize + 1;
            }
            match Simulation::builder(&cfg).cache(&cache).build() {
                Err(ConfigError::Invalid { message }) => {
                    assert!(message.contains(expected), "{expected}: {message}")
                }
                Err(other) => panic!("{expected}: expected ConfigError::Invalid, got {other:?}"),
                Ok(_) => panic!("{expected}: expected ConfigError::Invalid, got a simulation"),
            }
        }
        // An oversized cluster is rejected without tiering too.
        let mut cfg = ExperimentConfig::small_demo(5);
        cfg.cluster.objects = u32::MAX as usize + 1;
        assert!(matches!(cache.get_or_materialize(&cfg), Err(ConfigError::Invalid { .. })));
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "rejected before any build");
        let sound = ExperimentConfig::small_demo(5).with_tiering(TieringConfig::default());
        Simulation::builder(&sound).cache(&cache).build().expect("sound tiering section");
        // A caller-supplied world does not skip the checks.
        let world = World::try_materialize(&sound).expect("sound config");
        let mut bad = sound;
        bad.tiering.as_mut().expect("tiering on").ewma.alpha = 0.0;
        let built = Simulation::builder(&bad).world(world).build();
        assert!(matches!(built, Err(ConfigError::Invalid { .. })), "supplied world");
    }

    /// Build `cfg` over a freshly materialised world and through the
    /// cache, expecting both to fail with a message containing `expected`.
    fn assert_rejected_on_both_paths(cfg: &ExperimentConfig, world: World, expected: &str) {
        use crate::simulation::Simulation;
        let cache = WorldCache::new();
        let built = [
            ("materialised", Simulation::builder(cfg).cache(&cache).build()),
            ("supplied world", Simulation::builder(cfg).world(world).build()),
        ];
        for (path, built) in built {
            match built {
                Err(ConfigError::Invalid { message }) => {
                    assert!(message.contains(expected), "{path}: {message}")
                }
                Err(other) => panic!("{path}: expected ConfigError::Invalid, got {other:?}"),
                Ok(_) => panic!("{path}: expected ConfigError::Invalid, got a simulation"),
            }
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "rejected before any build");
    }

    #[test]
    fn a_broken_home_mirror_is_rejected_over_a_supplied_world() {
        let sound = ExperimentConfig::small_demo(1).with_slots(4);
        let world = World::try_materialize(&sound).expect("sound config");
        // Explicit sites, then the flat battery dropped: sites[0] still
        // carries the 10 kWh battery the run would silently use.
        let bad = sound.clone().with_sites(sound.site_configs()).with_battery(None);
        assert_rejected_on_both_paths(&bad, world, "sites[0] must mirror");
    }

    #[test]
    fn admission_alpha_outside_its_range_is_a_typed_error() {
        use crate::config::AdmissionConfig;
        let sound = ExperimentConfig::small_demo(1).with_slots(4);
        for alpha in [1.5, 1.0, 0.49, -0.9, f64::NAN, f64::INFINITY] {
            let world = World::try_materialize(&sound).expect("sound config");
            let bad = sound.clone().with_admission(AdmissionConfig { alpha, defer_slots: 2 });
            assert_rejected_on_both_paths(&bad, world, "admission: alpha");
        }
        for alpha in [0.5, 0.9, 0.999] {
            let cfg = sound.clone().with_admission(AdmissionConfig { alpha, defer_slots: 2 });
            cfg.validate().unwrap_or_else(|e| panic!("alpha {alpha}: {e}"));
        }
    }
}
