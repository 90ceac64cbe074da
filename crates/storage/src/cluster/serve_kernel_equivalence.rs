//! The serve kernel against its per-request oracle.
//!
//! The oracle is the straightforward serve path the kernel replaced: it
//! reads replicas from the per-object directory, derives availability from
//! the server, disk and rebuild state on every call, picks the write-log
//! disk by scanning gear 0, and copies EC shard lists. Clusters driven by
//! [`Cluster::serve_batch`], by [`Cluster::serve_request`] and by the
//! oracle through the same random history — gear changes, failures and
//! rebuilds, background work, reclaim, tier steps with EC demotions and
//! promotions, snapshot resumes, the read cache on or off — must agree on every served
//! request, every histogram and every byte of their snapshots.

use super::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

impl Cluster {
    /// Availability from first principles.
    fn oracle_available(&self, disk: DiskIdx) -> bool {
        let srv = self.layout.spec.topology.server_of_disk(disk);
        !self.pending_rebuild[disk]
            && self.servers[srv].is_on()
            && self.disks[disk].ready_at().is_some()
    }

    /// The spin-up helper without the availability shortcut. It still
    /// refreshes the `available` flags so the shared paths the test also
    /// drives (batch work, reclaim, rebuild) see the same state.
    fn oracle_ensure_disk_up(&mut self, disk: DiskIdx, now: SimTime, forced: bool) -> SimTime {
        let srv = self.layout.spec.topology.server_of_disk(disk);
        let mut ready = now;
        if self.servers[srv].power_on() {
            self.pending_surcharge_wh += self.layout.spec.server.poweron_extra_wh();
            ready = now + SimDuration::from_secs_f64(self.layout.spec.server.poweron_latency_s);
        }
        if self.disks[disk].spin_up(now) {
            self.pending_surcharge_wh += self.layout.spec.disk.spinup_extra_wh();
            self.total_spinups += 1;
            if forced {
                self.pending_forced_spinups += 1;
                self.total_forced_spinups += 1;
            }
        }
        let topo = self.layout.spec.topology;
        self.refresh_available(topo.disks_of_server(srv));
        match self.disks[disk].ready_at() {
            Some(t) => ready.max(t),
            None => ready,
        }
    }

    fn oracle_log_disk(&self) -> DiskIdx {
        self.layout
            .spec
            .topology
            .disks_in_gear_range(0)
            .min_by_key(|&d| self.queues[d].next_free())
            .expect("gear 0 is never empty")
    }

    /// Serve one request the pre-kernel way.
    fn oracle_serve(&mut self, req: &IoRequest) -> ServedRequest {
        let obj_idx = req.object.0 as usize;
        let obj_size = self.layout.directory[obj_idx].size_bytes;
        if let Some(t) = &mut self.tiering {
            t.hits[obj_idx] = t.hits[obj_idx].saturating_add(1);
        }
        match req.kind {
            IoKind::Read => {
                if self.cache.probe(req.object) {
                    let completion = req.arrival + CACHE_HIT_SERVICE;
                    return ServedRequest {
                        start: req.arrival,
                        completion,
                        latency: CACHE_HIT_SERVICE,
                    };
                }
                if self.tiering.as_ref().is_some_and(|t| t.ec.contains(obj_idx)) {
                    let served = self.oracle_ec_read(req, obj_idx);
                    self.cache.insert(req.object, obj_size);
                    return served;
                }
                let replicas = self.layout.directory[obj_idx].replicas.clone();
                let best_active = replicas
                    .iter()
                    .copied()
                    .filter(|&d| self.oracle_available(d))
                    .min_by_key(|&d| self.queues[d].next_free());
                let (disk, forced, degraded) = match best_active {
                    Some(d) => (d, false, false),
                    None => {
                        let intact = replicas
                            .iter()
                            .copied()
                            .filter(|&d| !self.pending_rebuild[d])
                            .min_by_key(|&d| self.queues[d].next_free());
                        match intact {
                            Some(d) => (d, true, false),
                            None => (replicas[0], true, true),
                        }
                    }
                };
                if degraded {
                    self.degraded_reads += 1;
                }
                if forced {
                    self.oracle_ensure_disk_up(disk, req.arrival, true);
                }
                let ready = self.oracle_ensure_disk_up(disk, req.arrival, false);
                let service = self.layout.spec.disk.service_time(req.size_bytes, req.sequential);
                let served = self.queues[disk].serve(req.arrival, ready, service, self.slot_width);
                self.cache.insert(req.object, obj_size);
                served
            }
            IoKind::Write => {
                self.cache.invalidate(req.object);
                if self.tiering.as_ref().is_some_and(|t| t.ec.contains(obj_idx)) {
                    return self.oracle_ec_write(req, obj_idx);
                }
                let mut ack: Option<ServedRequest> = None;
                let n_replicas = self.layout.directory[obj_idx].replicas.len();
                for r in 0..n_replicas {
                    let disk = self.layout.directory[obj_idx].replicas[r];
                    if r == 0 || self.oracle_available(disk) {
                        let forced = r == 0 && !self.oracle_available(disk);
                        let ready = self.oracle_ensure_disk_up(disk, req.arrival, forced);
                        let service =
                            self.layout.spec.disk.service_time(req.size_bytes, req.sequential);
                        let served =
                            self.queues[disk].serve(req.arrival, ready, service, self.slot_width);
                        if r == 0 {
                            ack = Some(served);
                        }
                    } else {
                        let gear = self.layout.spec.topology.gear_of_disk(disk);
                        self.writelog.offload(gear, req.size_bytes);
                        let log_disk = self.oracle_log_disk();
                        let service = self.layout.spec.disk.service_time(req.size_bytes, true);
                        let ready = self.oracle_ensure_disk_up(log_disk, req.arrival, false);
                        self.queues[log_disk].serve(req.arrival, ready, service, self.slot_width);
                    }
                }
                ack.expect("primary replica always written")
            }
        }
    }

    fn oracle_ec_read(&mut self, req: &IoRequest, obj_idx: usize) -> ServedRequest {
        let k = self.tiering.as_ref().expect("EC read needs tiering").k;
        let shards = self.placement_of(obj_idx).disks().to_vec();
        let mut chosen: Vec<(DiskIdx, bool)> = Vec::with_capacity(k);
        let mut avail: Vec<DiskIdx> =
            shards.iter().copied().filter(|&d| self.oracle_available(d)).collect();
        avail.sort_by_key(|&d| self.queues[d].next_free());
        for &d in avail.iter().take(k) {
            chosen.push((d, false));
        }
        if chosen.len() < k {
            let mut intact: Vec<DiskIdx> = shards
                .iter()
                .copied()
                .filter(|&d| !self.pending_rebuild[d] && !chosen.iter().any(|&(c, _)| c == d))
                .collect();
            intact.sort_by_key(|&d| self.queues[d].next_free());
            for &d in &intact {
                if chosen.len() == k {
                    break;
                }
                chosen.push((d, true));
            }
        }
        if chosen.len() < k {
            self.degraded_reads += 1;
            for &d in &shards {
                if chosen.len() == k {
                    break;
                }
                if !chosen.iter().any(|&(c, _)| c == d) {
                    chosen.push((d, true));
                }
            }
        }
        let per_shard = req.size_bytes.div_ceil(k as u64);
        let mut slowest: Option<ServedRequest> = None;
        for &(d, forced) in &chosen {
            if forced {
                self.oracle_ensure_disk_up(d, req.arrival, true);
            }
            let ready = self.oracle_ensure_disk_up(d, req.arrival, false);
            let service = self.layout.spec.disk.service_time(per_shard, req.sequential);
            let served = self.queues[d].serve(req.arrival, ready, service, self.slot_width);
            slowest = Some(match slowest {
                Some(prev) if prev.completion >= served.completion => prev,
                _ => served,
            });
        }
        slowest.expect("k >= 1 shards served")
    }

    fn oracle_ec_write(&mut self, req: &IoRequest, obj_idx: usize) -> ServedRequest {
        let (k, n_shards) = {
            let t = self.tiering.as_ref().expect("EC write needs tiering");
            (t.k, t.k + t.m)
        };
        let shards = self.placement_of(obj_idx).disks().to_vec();
        let per_shard = req.size_bytes.div_ceil(k as u64);
        let mut ack: Option<ServedRequest> = None;
        for (s, &disk) in shards.iter().enumerate().take(n_shards) {
            if s == 0 || self.oracle_available(disk) {
                let forced = s == 0 && !self.oracle_available(disk);
                let ready = self.oracle_ensure_disk_up(disk, req.arrival, forced);
                let service = self.layout.spec.disk.service_time(per_shard, req.sequential);
                let served = self.queues[disk].serve(req.arrival, ready, service, self.slot_width);
                if s == 0 {
                    ack = Some(served);
                }
            } else {
                let gear = self.layout.spec.topology.gear_of_disk(disk);
                self.writelog.offload(gear, per_shard);
                let log_disk = self.oracle_log_disk();
                let service = self.layout.spec.disk.service_time(per_shard, true);
                let ready = self.oracle_ensure_disk_up(log_disk, req.arrival, false);
                self.queues[log_disk].serve(req.arrival, ready, service, self.slot_width);
            }
        }
        ack.expect("shard 0 always written")
    }

    /// The kernel's derived state matches what it is derived from.
    fn check_kernel_state(&self) -> Result<(), String> {
        for d in 0..self.disks.len() {
            if self.available[d] != self.oracle_available(d) {
                return Err(format!("availability flag of disk {d} is stale"));
            }
        }
        if self.log_disks.min() != self.oracle_log_disk() {
            return Err(format!(
                "log-disk index picks {}, a scan picks {}",
                self.log_disks.min(),
                self.oracle_log_disk()
            ));
        }
        Ok(())
    }
}

/// One random scenario: cluster shape, layout, cache and tiering.
fn scenario_cluster(rng: &mut SmallRng) -> (Arc<ClusterLayout>, Option<(usize, usize)>) {
    let mut spec = ClusterSpec::small();
    spec.objects = 300;
    let (topology, replication) = match rng.gen_range(0..3u32) {
        0 => (Topology::new(6, 2, 3), 3),
        1 => (Topology::new(12, 4, 3), 3),
        _ => (Topology::new(8, 2, 2), 2),
    };
    spec.topology = topology;
    spec.replication = replication;
    spec.layout = if rng.gen_bool(0.75) { LayoutKind::Gear } else { LayoutKind::Random };
    spec.layout_seed = rng.gen_range(0..1_000u64);
    spec.cache_bytes = if rng.gen_bool(0.5) { 20 * spec.object_size_bytes } else { 0 };
    let ec = rng.gen_bool(0.5).then(|| if rng.gen_bool(0.5) { (4, 2) } else { (2, 1) });
    (Arc::new(ClusterLayout::new(spec)), ec)
}

/// A slot's requests: arrival-ordered, skewed toward a few hot objects so
/// the cache and EC objects see repeats, with the odd size past 2³² B.
/// Returned as plain rows for the per-request paths and as the compact
/// batch `serve_batch` reads, so the gate also checks the batch decoding.
fn random_batch(
    rng: &mut SmallRng,
    slot: u64,
    objects: u64,
    write_share: f64,
) -> (Vec<IoRequest>, RequestBatch) {
    let n = rng.gen_range(0..250usize);
    let start = slot * 3_600_000_000;
    let mut arrivals: Vec<u64> =
        (0..n).map(|_| start + rng.gen_range(0..3_600_000_000u64)).collect();
    arrivals.sort_unstable();
    let rows: Vec<IoRequest> = arrivals
        .into_iter()
        .map(|t| {
            let object =
                if rng.gen_bool(0.4) { rng.gen_range(0..8u64) } else { rng.gen_range(0..objects) };
            let size = if rng.gen_bool(0.01) {
                rng.gen_range((1u64 << 32)..(1u64 << 34))
            } else {
                rng.gen_range(512..(4u64 << 20))
            };
            if rng.gen_bool(write_share) {
                IoRequest::write(SimTime(t), ObjectId(object), size)
            } else {
                IoRequest::read(SimTime(t), ObjectId(object), size)
            }
        })
        .collect();
    let batch = rows.iter().copied().collect();
    (rows, batch)
}

fn snapshot_json(c: &Cluster) -> String {
    serde_json::to_string(&c.snapshot()).expect("snapshot serialises")
}

fn hist_json(h: &LogHistogram) -> String {
    serde_json::to_string(h).expect("histogram serialises")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn serve_batch_matches_the_per_request_oracle(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (layout, ec) = scenario_cluster(&mut rng);
        let spec = layout.spec().clone();
        let n_disks = spec.topology.n_disks();
        // Four clusters through one history: `serve_batch` into a
        // histogram, the same kernel with every outcome collected, the
        // kernel one `serve_request` at a time, and the oracle.
        const HIST: usize = 0;
        const ORACLE: usize = 3;
        let mut clusters: Vec<Cluster> =
            (0..4).map(|_| Cluster::from_layout(Arc::clone(&layout))).collect();
        if let Some((k, m)) = ec {
            for c in &mut clusters {
                c.enable_tiering(EwmaParams::default(), 0.5, k, m);
            }
        }
        let write_share = rng.gen_range(0.0..0.7);
        for slot in 0..rng.gen_range(4..12u64) {
            let now = SimTime(slot * 3_600_000_000);
            let gears = rng.gen_range(1..spec.topology.gears + 1);
            // Failures lean on gear 0, where primaries and data shards live.
            let gear0 = spec.topology.disks_in_gear_range(0).len();
            let fail_range = if rng.gen_bool(0.5) { gear0 } else { n_disks };
            let fail = rng.gen_bool(0.5).then(|| rng.gen_range(0..fail_range));
            let heal = rng.gen_bool(0.2).then(|| rng.gen_range(0..n_disks));
            let work = rng
                .gen_bool(0.5)
                .then(|| (rng.gen_range(0..n_disks), rng.gen_range(1..(1u64 << 32))));
            let max_migrations = rng.gen_range(0..40usize);
            let reclaim_budget = rng.gen_range(0..(256u64 << 20));
            let (rows, batch) = random_batch(&mut rng, slot, spec.objects as u64, write_share);
            let resume = rng.gen_bool(0.25);
            let mut served: Vec<Vec<ServedRequest>> = vec![Vec::new(); 4];
            let mut hists: Vec<LogHistogram> =
                (0..4).map(|_| LogHistogram::for_latency_secs()).collect();
            let mut energies = Vec::new();
            for (i, c) in clusters.iter_mut().enumerate() {
                if ec.is_some() {
                    let step = c.tier_step(1.0, max_migrations);
                    c.complete_migration(&step.demote, true);
                    c.complete_migration(&step.promote, false);
                }
                c.set_active_gears(gears, now);
                if let Some(d) = fail {
                    c.fail_disk(d, now);
                }
                if let Some(d) = heal.filter(|&d| c.is_rebuilding(d)) {
                    c.mark_rebuilt(d);
                }
                if let Some((d, bytes)) = work {
                    c.add_sequential_work(d, bytes, now);
                }
                if resume && i != ORACLE {
                    // Serve from a cluster resumed from this one's snapshot:
                    // the derived state must be rebuilt from restored state.
                    let mut resumed = Cluster::from_layout(Arc::clone(&layout));
                    if let Some((k, m)) = ec {
                        resumed.enable_tiering(EwmaParams::default(), 0.5, k, m);
                    }
                    resumed.restore_state(&c.snapshot()).map_err(|e| e.to_string())?;
                    *c = resumed;
                }
                match i {
                    HIST => c.serve_batch(&batch, &mut hists[HIST]),
                    1 => c.serve_batch_with(&batch, |s| served[1].push(s)),
                    2 => served[2].extend(rows.iter().map(|req| c.serve_request(req))),
                    _ => served[ORACLE].extend(rows.iter().map(|req| c.oracle_serve(req))),
                }
                if i != HIST {
                    for s in &served[i] {
                        hists[i].record(s.latency.as_secs_f64());
                    }
                }
                c.reclaim(reclaim_budget, now + SimDuration::from_secs(1800));
                if i != ORACLE {
                    c.check_kernel_state()?;
                }
                let e = c.end_slot(now + SimDuration::from_hours(1), SimDuration::from_hours(1));
                energies.push([
                    e.disks_wh.to_bits(),
                    e.servers_wh.to_bits(),
                    e.spinup_overhead_wh.to_bits(),
                    e.reclaim_overhead_wh.to_bits(),
                    e.forced_spinup_count,
                ]);
            }
            let oracle_state = snapshot_json(&clusters[ORACLE]);
            let oracle_hist = hist_json(&hists[ORACLE]);
            for i in 0..ORACLE {
                if i != HIST {
                    prop_assert_eq!(&served[i], &served[ORACLE], "requests of {}, slot {}", i, slot);
                }
                prop_assert_eq!(energies[i], energies[ORACLE], "energy of {}, slot {}", i, slot);
                prop_assert_eq!(hist_json(&hists[i]), oracle_hist.clone(), "histogram of {}", i);
                prop_assert!(
                    snapshot_json(&clusters[i]) == oracle_state,
                    "state of {} diverged at slot {}", i, slot
                );
            }
        }
    }
}

#[test]
fn write_log_ties_pick_the_lowest_gear0_disk() {
    // Fresh cluster: every gear-0 disk has next_free = 0. At gear 1 a
    // write's primary lands on its gear-0 replica and the two dark
    // replicas append to the log on the lowest-index idle gear-0 disks.
    let mut c = Cluster::new(ClusterSpec::small());
    c.set_active_gears(1, SimTime::ZERO);
    let gear0: Vec<DiskIdx> = c.topology().disks_in_gear_range(0).collect();
    let obj = (0..c.directory().len())
        .find(|&o| c.directory()[o].primary() != gear0[0])
        .expect("some object's primary is not disk 0");
    let primary = c.directory()[obj].primary();
    c.serve_request(&IoRequest::write(SimTime::from_secs(1), ObjectId(obj as u64), 1 << 20));
    let mut expected: Vec<DiskIdx> = gear0.iter().copied().filter(|&d| d != primary).collect();
    expected.truncate(2);
    expected.push(primary);
    expected.sort_unstable();
    let touched: Vec<DiskIdx> =
        gear0.iter().copied().filter(|&d| c.queues[d].served() > 0).collect();
    assert_eq!(touched, expected, "log appends on the lowest idle gear-0 disks");
    c.check_kernel_state().unwrap();
}
