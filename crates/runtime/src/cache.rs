//! The partition-plan cache.
//!
//! DAG construction + acyclic partitioning is a pure function of circuit
//! *structure*, and so is gate fusion — which is why the cache stores the
//! plan in its *fused* form ([`FusedSinglePlan`]): a warm hit skips
//! partitioning *and* fusion (the grouping plus every fused-group matrix
//! product), leaving only the state-vector sweeps. The runtime serves one
//! plan shape, a single-level plan on a world of one rank or of several, so
//! the cache holds that shape only. The cache key is the structural
//! [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint) plus the
//! plan's working-set limit (every plan is fused at
//! [`DEFAULT_FUSION_WIDTH`](hisvsim_statevec::DEFAULT_FUSION_WIDTH)); the
//! cached value is the immutable fused plan behind an `Arc`, shared by
//! every concurrent execution.
//!
//! Two properties matter under a concurrent scheduler:
//!
//! * **In-flight deduplication** — when eight identical jobs arrive at once,
//!   exactly one worker computes the plan while the other seven block on the
//!   per-key entry lock and then count as hits. Without this, a cold cache
//!   would plan the same circuit once per worker.
//! * **Bounded size** — entries are evicted least-recently-used beyond
//!   [`CAPACITY`]; pending (in-flight) entries are never evicted.
//!
//! A snapshot and a shipped job carry the plan's [`Partition`]. A partition
//! that comes from outside the process becomes a plan one way,
//! [`validate_and_fuse`].

use hisvsim_circuit::Circuit;
use hisvsim_core::FusedSinglePlan;
use hisvsim_dag::{CircuitDag, Partition};
use hisvsim_partition::PartitionBuildError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Plans a [`PlanCache`] holds before it evicts the least recently used.
pub const CAPACITY: usize = 256;

/// Cache key: structural fingerprint plus the plan's working-set limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlanKey {
    /// [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint) of
    /// the job's circuit.
    pub fingerprint: u64,
    /// Working-set limit.
    pub limit: usize,
}

/// The one way an untrusted partition — a snapshot entry or a plan shipped
/// to a worker — becomes a plan: checked against the circuit's `dag` at
/// `limit` qubits (the error says why it does not fit), then fused.
pub fn validate_and_fuse(
    partition: Partition,
    circuit: &Circuit,
    dag: &CircuitDag,
    limit: usize,
) -> Result<Arc<FusedSinglePlan>, String> {
    partition.validate(dag, limit).map_err(|e| e.to_string())?;
    Ok(fuse(partition, circuit, dag))
}

/// Fuse every part over the circuit's `dag`, under a `plan/fuse` span.
pub(crate) fn fuse(
    partition: Partition,
    circuit: &Circuit,
    dag: &CircuitDag,
) -> Arc<FusedSinglePlan> {
    let _span = hisvsim_obs::span("plan", "fuse");
    Arc::new(FusedSinglePlan::new(circuit, dag, partition))
}

/// Where a served plan came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Found fused in memory (or computed by a concurrent worker while this
    /// one waited on the per-key lock).
    Memory,
    /// Rebuilt from a disk-persisted partition: partitioning skipped, only
    /// re-fusion paid.
    Warm,
    /// Planned from scratch.
    Planned,
}

impl PlanSource {
    /// True unless the plan was computed from scratch.
    pub fn is_hit(self) -> bool {
        !matches!(self, PlanSource::Planned)
    }
}

/// Hit/miss/eviction counters, surfaced in batch reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a present (or just-computed-by-another-worker)
    /// entry.
    pub hits: u64,
    /// Lookups served by re-fusing a disk-persisted partition (no
    /// partitioning work, only re-fusion).
    pub warm_hits: u64,
    /// Lookups that had to compute the plan from scratch.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Lookups that blocked on another worker's in-flight computation of
    /// the same key and then observed its result (deduplicated planning
    /// work; these also count as `hits`).
    pub inflight_dedups: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Hits (in-memory + warm) over total lookups (0.0 when the cache was
    /// never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.warm_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.warm_hits) as f64 / total as f64
        }
    }

    /// Counter-wise difference (`self - earlier`), for per-batch deltas.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            warm_hits: self.warm_hits - earlier.warm_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            inflight_dedups: self.inflight_dedups - earlier.inflight_dedups,
            entries: self.entries,
        }
    }
}

/// One slot: the plan once computed, plus its LRU stamp.
struct Slot {
    value: Mutex<Option<Arc<FusedSinglePlan>>>,
    last_used: AtomicU64,
}

/// The concurrent plan cache. Cheap to share (`Arc<PlanCache>`); all methods
/// take `&self`.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<Slot>>>,
    /// Disk-loaded partitions awaiting their first use (each is promoted —
    /// re-fused — into `map` on first lookup, then removed from here).
    warm: Mutex<HashMap<PlanKey, Partition>>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inflight_dedups: AtomicU64,
    tick: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most [`CAPACITY`] plans.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the plan for `key`, computing (and inserting) it with
    /// `compute` on a miss. `compute` reports whether it planned from
    /// scratch ([`PlanSource::Planned`]) or rebuilt a disk-persisted
    /// partition ([`PlanSource::Warm`], see [`PlanCache::take_warm`]), and
    /// the counters attribute the lookup accordingly. Concurrent callers
    /// with the same key block until the first finishes and then observe a
    /// hit ([`PlanSource::Memory`]). Failed computations are not cached; the
    /// error is returned and the slot removed so a later submission can
    /// retry.
    pub fn get_or_plan<F>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> Result<(Arc<FusedSinglePlan>, PlanSource), PartitionBuildError>
    where
        F: FnOnce() -> Result<(Arc<FusedSinglePlan>, PlanSource), PartitionBuildError>,
    {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = {
            let mut map = self.map.lock().expect("plan cache poisoned");
            let slot = Arc::clone(map.entry(key).or_insert_with(|| {
                Arc::new(Slot {
                    value: Mutex::new(None),
                    last_used: AtomicU64::new(stamp),
                })
            }));
            slot.last_used.store(stamp, Ordering::Relaxed);
            slot
        };

        // The per-key lock serialises computation for this key only. A
        // contended lock here means another worker is planning this exact
        // key right now — if its result is there once the lock is acquired,
        // this lookup was an in-flight dedup (a hit that never existed in
        // the map when the lookup started).
        let contended = slot.value.try_lock().is_err();
        let mut value = slot.value.lock().expect("plan slot poisoned");
        if let Some(plan) = value.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if contended {
                self.inflight_dedups.fetch_add(1, Ordering::Relaxed);
            }
            return Ok((Arc::clone(plan), PlanSource::Memory));
        }
        match compute() {
            Ok((plan, source)) => {
                match source {
                    PlanSource::Warm => self.warm_hits.fetch_add(1, Ordering::Relaxed),
                    _ => self.misses.fetch_add(1, Ordering::Relaxed),
                };
                *value = Some(Arc::clone(&plan));
                drop(value);
                self.enforce_capacity(&key);
                Ok((plan, source))
            }
            Err(e) => {
                drop(value);
                // Forget the failed slot so future submissions retry.
                self.map.lock().expect("plan cache poisoned").remove(&key);
                Err(e)
            }
        }
    }

    /// Remove and return the disk-persisted partition for `key`, if one was
    /// loaded. Called from inside a `compute` closure: the caller re-fuses
    /// the partition against its circuit and returns the rebuilt plan with
    /// [`PlanSource::Warm`], so the entry graduates into the in-memory map.
    pub fn take_warm(&self, key: &PlanKey) -> Option<Partition> {
        self.warm.lock().expect("warm store poisoned").remove(key)
    }

    /// Number of disk-loaded partitions not yet promoted into memory.
    pub fn warm_len(&self) -> usize {
        self.warm.lock().expect("warm store poisoned").len()
    }

    /// Load a snapshot written by [`PlanCache::save_snapshot`] into the warm
    /// store (merging over whatever is already there). Returns the number of
    /// entries read. A file that does not parse as a list of
    /// `(PlanKey, Partition)` pairs is refused whole; a key field the key no
    /// longer has is ignored. An entry is trusted no further than its key:
    /// it serves a plan only once its partition validates against the job's
    /// circuit ([`validate_and_fuse`]), and is replanned when it does not
    /// fit.
    pub fn load_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let entries: Vec<(PlanKey, Partition)> = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let loaded = entries.len();
        self.warm
            .lock()
            .expect("warm store poisoned")
            .extend(entries);
        Ok(loaded)
    }

    /// Persist every completed entry's partition (plus any still-unpromoted
    /// warm entries) to `path` as JSON, so the next process starts warm.
    /// Fused matrices are intentionally not persisted — receivers re-fuse on
    /// first use, keeping the snapshot small and the fused form
    /// process-local. The file is written beside `path` and renamed over it,
    /// so a crash mid-save leaves the previous snapshot, never a truncated
    /// one. Returns the number of entries written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let mut entries: Vec<(PlanKey, Partition)> = {
            let warm = self.warm.lock().expect("warm store poisoned");
            warm.iter().map(|(k, v)| (*k, v.clone())).collect()
        };
        {
            let map = self.map.lock().expect("plan cache poisoned");
            for (key, slot) in map.iter() {
                let Ok(value) = slot.value.try_lock() else {
                    continue; // in-flight: nothing completed to persist
                };
                if let Some(plan) = value.as_ref() {
                    entries.push((*key, plan.partition.clone()));
                }
            }
        }
        // Deterministic order keeps snapshots diffable (the full key sorts,
        // so identical keys are adjacent for the dedup below).
        entries.sort_by_key(|(k, _)| *k);
        entries.dedup_by_key(|(k, _)| *k);
        let json = serde_json::to_string(&entries)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let path = path.as_ref();
        let staged = staging_path(path);
        // Synced before the rename, so after a crash `path` holds the old
        // snapshot or the new one, never a prefix. A rename lost with the
        // crash only leaves the old one: the next start is colder, not wrong.
        let saved = std::fs::File::create(&staged)
            .and_then(|mut file| {
                file.write_all(json.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&staged, path));
        if saved.is_err() {
            std::fs::remove_file(&staged).ok();
        }
        saved.map(|()| entries.len())
    }

    /// Evict least-recently-used completed entries beyond [`CAPACITY`],
    /// keeping `just_inserted` and all pending entries.
    fn enforce_capacity(&self, just_inserted: &PlanKey) {
        let mut map = self.map.lock().expect("plan cache poisoned");
        while map.len() > CAPACITY {
            let victim = map
                .iter()
                .filter(|(k, slot)| {
                    *k != just_inserted
                        && slot.value.try_lock().map(|v| v.is_some()).unwrap_or(false)
                })
                .min_by_key(|(_, slot)| slot.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // everything else is pending or protected
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inflight_dedups: self.inflight_dedups.load(Ordering::Relaxed),
            entries: self.map.lock().expect("plan cache poisoned").len(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A temporary file beside `path`, unique per save within and across
/// processes, that [`PlanCache::save_snapshot`] renames over `path`.
fn staging_path(path: &Path) -> PathBuf {
    static SAVES: AtomicU64 = AtomicU64::new(0);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SAVES.fetch_add(1, Ordering::Relaxed)
    ));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use hisvsim_circuit::generators;

    fn key_of(circuit: &hisvsim_circuit::Circuit, limit: usize) -> PlanKey {
        PlanKey {
            fingerprint: circuit.fingerprint(),
            limit,
        }
    }

    fn plan_for(circuit: &hisvsim_circuit::Circuit, limit: usize) -> Arc<FusedSinglePlan> {
        let dag = CircuitDag::from_circuit(circuit);
        let partition = Planner.plan_single(&dag, limit).unwrap();
        Arc::new(FusedSinglePlan::new(circuit, &dag, partition))
    }

    /// A cold lookup's `compute`: plan `circuit` at `limit` from scratch.
    fn planned(
        circuit: &hisvsim_circuit::Circuit,
        limit: usize,
    ) -> Result<(Arc<FusedSinglePlan>, PlanSource), PartitionBuildError> {
        Ok((plan_for(circuit, limit), PlanSource::Planned))
    }

    #[test]
    fn second_identical_submit_is_a_hit_with_the_same_plan() {
        let cache = PlanCache::new();
        let circuit = generators::qft(10);
        let key = key_of(&circuit, 5);

        let (first, source1) = cache.get_or_plan(key, || planned(&circuit, 5)).unwrap();
        assert_eq!(source1, PlanSource::Planned, "cold cache must miss");
        let (second, source2) = cache
            .get_or_plan(key, || panic!("second submit must not recompute"))
            .unwrap();
        assert_eq!(
            source2,
            PlanSource::Memory,
            "identical resubmission must hit"
        );
        // The very same Arc is shared, so the executed plan is identical.
        assert!(Arc::ptr_eq(&first, &second));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_limits_are_different_entries() {
        let cache = PlanCache::new();
        let circuit = generators::qft(10);
        for limit in [4usize, 5, 6] {
            let (_, source) = cache
                .get_or_plan(key_of(&circuit, limit), || planned(&circuit, limit))
                .unwrap();
            assert_eq!(source, PlanSource::Planned);
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        // The cache never looks inside a plan, so one shared plan stands in
        // for CAPACITY + 1 distinct keys.
        let cache = PlanCache::new();
        let circuit = generators::qft(8);
        let plan = plan_for(&circuit, 4);
        let key = |fingerprint: u64| PlanKey {
            fingerprint,
            limit: 4,
        };
        let fill = |fingerprint: u64| {
            let (_, source) = cache
                .get_or_plan(key(fingerprint), || {
                    Ok((Arc::clone(&plan), PlanSource::Planned))
                })
                .unwrap();
            source
        };
        for fingerprint in 0..CAPACITY as u64 {
            assert_eq!(fill(fingerprint), PlanSource::Planned);
        }
        assert_eq!(cache.stats().evictions, 0);
        // Touch key 0 so key 1 is the LRU victim.
        assert_eq!(fill(0), PlanSource::Memory);
        assert_eq!(fill(CAPACITY as u64), PlanSource::Planned);

        let stats = cache.stats();
        assert_eq!(stats.entries, CAPACITY);
        assert_eq!(stats.evictions, 1);
        // Key 0 survived; key 1 was evicted and must recompute.
        assert_eq!(fill(0), PlanSource::Memory);
        assert_eq!(fill(1), PlanSource::Planned);
    }

    #[test]
    fn concurrent_identical_submissions_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(PlanCache::new());
        let circuit = Arc::new(generators::qft(10));
        let computations = Arc::new(AtomicUsize::new(0));
        let key = key_of(&circuit, 5);

        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let circuit = Arc::clone(&circuit);
                let computations = Arc::clone(&computations);
                scope.spawn(move || {
                    cache
                        .get_or_plan(key, || {
                            computations.fetch_add(1, Ordering::SeqCst);
                            planned(&circuit, 5)
                        })
                        .unwrap();
                });
            }
        });

        assert_eq!(
            computations.load(Ordering::SeqCst),
            1,
            "in-flight dedup failed"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn failed_plans_are_not_cached() {
        let cache = PlanCache::new();
        let circuit = generators::adder(8); // Toffolis: arity 3
        let dag = CircuitDag::from_circuit(&circuit);
        let key = key_of(&circuit, 2);
        let attempt = cache.get_or_plan(key, || {
            let partition = Planner.plan_single(&dag, 2)?;
            Ok((fuse(partition, &circuit, &dag), PlanSource::Planned))
        });
        assert!(attempt.is_err());
        assert_eq!(cache.stats().entries, 0);
        // A later submission retries (and may succeed at a higher limit).
        let (_, source) = cache
            .get_or_plan(key_of(&circuit, 4), || planned(&circuit, 4))
            .unwrap();
        assert_eq!(source, PlanSource::Planned);
    }

    #[test]
    fn snapshot_roundtrip_promotes_warm_entries_without_replanning() {
        let dir = std::env::temp_dir().join(format!("hisvsim-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");

        // First process: plan once, persist.
        let circuit = generators::qft(10);
        let key = key_of(&circuit, 5);
        let first_cache = PlanCache::new();
        let (original, _) = first_cache
            .get_or_plan(key, || planned(&circuit, 5))
            .unwrap();
        assert_eq!(first_cache.save_snapshot(&path).unwrap(), 1);

        // "Restarted" process: load, then serve the same key by re-fusing
        // the persisted partition — zero partitioning calls.
        let second_cache = PlanCache::new();
        assert_eq!(second_cache.load_snapshot(&path).unwrap(), 1);
        assert_eq!(second_cache.warm_len(), 1);
        let (rebuilt, source) = second_cache
            .get_or_plan(key, || {
                let partition = second_cache
                    .take_warm(&key)
                    .expect("warm entry must be present");
                let dag = CircuitDag::from_circuit(&circuit);
                let plan = validate_and_fuse(partition, &circuit, &dag, 5).unwrap();
                Ok((plan, PlanSource::Warm))
            })
            .unwrap();
        assert_eq!(source, PlanSource::Warm);
        assert_eq!(second_cache.warm_len(), 0, "warm entry must be promoted");
        // The re-fused plan executes the identical partition.
        assert_eq!(original.partition, rebuilt.partition);
        let stats = second_cache.stats();
        assert_eq!(
            (stats.warm_hits, stats.misses, stats.hits),
            (1, 0, 0),
            "warm promotion must not count as a planning miss"
        );
        // The promoted entry now serves from memory.
        let (_, source) = second_cache
            .get_or_plan(key, || panic!("promoted entry must hit"))
            .unwrap();
        assert_eq!(source, PlanSource::Memory);
        assert!(second_cache.stats().hit_rate() > 0.9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_entries_serve_a_plan_only_once_their_partition_validates() {
        // An entry an older build wrote may carry key fields the key has
        // since lost (a fusion width, a strategy, a
        // planner level); it loads under the two it still has. Like any warm
        // entry it then serves a job only if its partition validates at the
        // key's limit: the entry at limit 5 does, so the warm run plans
        // nothing and matches a cold run bit for bit; the one at limit 3
        // holds a partition with parts wider than 3 qubits, so its job plans
        // afresh.
        use crate::scheduler::{Scheduler, SchedulerConfig};
        use crate::selector::EngineKind;
        use crate::SimJob;
        let submitted = generators::qft(9);
        let job = |limit: usize| {
            SimJob::new(submitted.clone())
                .with_engine(EngineKind::Hier)
                .with_limit(limit)
        };
        let cold = Scheduler::new(SchedulerConfig::default()).run_batch(vec![job(5), job(3)]);
        assert_eq!(cold.stats.cache.misses, 2);

        // The runner plans, and keys, the circuit with its SWAPs relabeled.
        let (circuit, _) = submitted.relabel_swaps();
        let dag = CircuitDag::from_circuit(&circuit);
        let planned = Planner.plan_single(&dag, 5).unwrap();
        assert!(planned.validate(&dag, 3).is_err());
        let entry = |limit: usize| {
            format!(
                r#"[{{"fingerprint":{},"limit":{limit},"fusion":3,"strategy":"Dag","effort":"Fast"}},{}]"#,
                circuit.fingerprint(),
                serde_json::to_string(&planned).unwrap()
            )
        };
        let dir = std::env::temp_dir().join(format!("hisvsim-old-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("older.json");
        std::fs::write(&path, format!("[{},{}]", entry(5), entry(3))).unwrap();

        let warm = Scheduler::new(SchedulerConfig::default());
        assert_eq!(warm.cache().load_snapshot(&path).unwrap(), 2);
        let batch = warm.run_batch(vec![job(5), job(3)]);
        assert_eq!(
            (batch.stats.cache.warm_hits, batch.stats.cache.misses),
            (1, 1),
            "the valid entry serves its job, the invalid one is replanned"
        );
        assert_eq!(warm.cache().warm_len(), 0);
        for (warm, cold) in batch.results.iter().zip(&cold.results) {
            assert_eq!(warm.state, cold.state, "a warm run must match a cold run");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plans_serialize_and_roundtrip() {
        // The "plans are serializable" contract: the partition inside a
        // cached plan can be shipped to another process and reused verbatim
        // — the receiver re-fuses locally.
        let circuit = generators::qft(9);
        let dag = CircuitDag::from_circuit(&circuit);
        let plan = Planner.plan_single(&dag, 5).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: Partition = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        back.validate(&dag, 5).unwrap();
    }
}
