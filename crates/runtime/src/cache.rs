//! The partition-plan cache.
//!
//! DAG construction + acyclic partitioning is a pure function of circuit
//! *structure*, and so is gate fusion — which is why the cache stores the
//! plan in its *fused* form ([`FusedSinglePlan`] / [`FusedTwoLevelPlan`]):
//! a warm hit skips partitioning *and* fusion (the grouping plus every
//! fused-group matrix product), leaving only the state-vector sweeps. The
//! cache key is the structural
//! [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint) plus the
//! plan's shape parameters (limit and second-level limit; every plan is
//! fused at [`DEFAULT_FUSION_WIDTH`]); the cached value is the immutable
//! fused plan behind an `Arc`, shared by every concurrent execution.
//!
//! Two properties matter under a concurrent scheduler:
//!
//! * **In-flight deduplication** — when eight identical jobs arrive at once,
//!   exactly one worker computes the plan while the other seven block on the
//!   per-key entry lock and then count as hits. Without this, a cold cache
//!   would plan the same circuit once per worker.
//! * **Bounded size** — entries are evicted least-recently-used once
//!   `capacity` is exceeded; pending (in-flight) entries are never evicted.

use hisvsim_core::{FusedPlan, FusedSinglePlan, FusedTwoLevelPlan};
use hisvsim_dag::Partition;
use hisvsim_partition::{MultilevelPartition, PartitionBuildError};
use hisvsim_statevec::DEFAULT_FUSION_WIDTH;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: structural fingerprint plus plan shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanKey {
    /// [`Circuit::fingerprint`](hisvsim_circuit::Circuit::fingerprint) of
    /// the job's circuit.
    pub fingerprint: u64,
    /// Working-set limit (first-level limit for two-level plans).
    pub limit: usize,
    /// Second-level limit; 0 for single-level plans.
    pub second_limit: usize,
}

/// A snapshot entry's key as read from disk: `None` for a plan today's
/// runtime does not make. Older keys carry fields the key has since lost,
/// and the derived [`PlanKey`] reader ignores them; this filter keeps only
/// the entries a cold run would plan:
/// * `effort` (a planner level that no longer exists): only `Fast`, or no
///   field, loads;
/// * `fusion` (a per-job width): only [`DEFAULT_FUSION_WIDTH`], or no
///   field, loads;
/// * `strategy` (a per-job fusion form): ignored — the partition does not
///   depend on it, so the entries a snapshot holds per strategy are one
///   plan under one key (see [`PlanCache::load_snapshot`]).
struct LoadedKey(Option<PlanKey>);

impl Deserialize for LoadedKey {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let fast = matches!(
            value.get_field("effort").map(serde::Value::as_str),
            None | Some(Some("Fast"))
        );
        let default_width = match value.get_field("fusion") {
            Some(fusion) => usize::from_value(fusion)? == DEFAULT_FUSION_WIDTH,
            None => true,
        };
        if fast && default_width {
            PlanKey::from_value(value).map(|key| LoadedKey(Some(key)))
        } else {
            Ok(LoadedKey(None))
        }
    }
}

/// A memoized plan, stored prefused so warm hits skip partitioning and
/// fusion alike.
#[derive(Debug, Clone)]
pub enum CachedPlan {
    /// Single-level fused plan (hier / dist engines).
    Single(Arc<FusedSinglePlan>),
    /// Two-level fused plan (multilevel engine).
    Two(Arc<FusedTwoLevelPlan>),
}

impl CachedPlan {
    /// The plan as the one rank body takes it.
    pub fn fused(&self) -> FusedPlan<'_> {
        match self {
            CachedPlan::Single(plan) => FusedPlan::Single(plan),
            CachedPlan::Two(plan) => FusedPlan::Two(plan),
        }
    }

    /// Number of (first-level) parts — the quantity planning minimises.
    pub fn num_parts(&self) -> usize {
        self.fused().num_parts()
    }

    /// The plan's partition skeleton in its disk/wire shape — what the
    /// snapshot persists and what a process backend ships to remote workers
    /// (which re-fuse locally).
    pub fn to_persisted(&self) -> PersistedPlan {
        match self {
            CachedPlan::Single(plan) => PersistedPlan::Single(plan.partition.clone()),
            CachedPlan::Two(plan) => PersistedPlan::Two(plan.ml.clone()),
        }
    }
}

/// The partition skeleton of a cached plan in its disk-persistable form:
/// partitioning is the expensive pure function worth keeping across process
/// restarts, while fused matrices are cheap to rebuild and are therefore
/// re-derived ("re-fused") from the partition on first use after a reload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PersistedPlan {
    /// A single-level partition (hier / dist engines).
    Single(Partition),
    /// A two-level partition (multilevel engine).
    Two(MultilevelPartition),
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
    value: Mutex<Option<CachedPlan>>,
    last_used: AtomicU64,
}

/// The concurrent plan cache. Cheap to share (`Arc<PlanCache>`); all methods
/// take `&self`.
#[derive(Default)]
pub struct PlanCache {
    map: Mutex<HashMap<PlanKey, Arc<Slot>>>,
    /// Disk-loaded partitions awaiting their first use (each is promoted —
    /// re-fused — into `map` on first lookup, then removed from here).
    warm: Mutex<HashMap<PlanKey, PersistedPlan>>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inflight_dedups: AtomicU64,
    tick: AtomicU64,
    capacity: usize,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (LRU-evicted beyond that).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Default::default()
        }
    }

    /// Look up the plan for `key`, computing (and inserting) it with
    /// `compute` on a miss. Concurrent callers with the same key block until
    /// the first finishes and then observe a hit. Failed computations are
    /// not cached; the error is returned and the slot removed so a later
    /// submission can retry.
    pub fn get_or_plan<F>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> Result<(CachedPlan, bool), PartitionBuildError>
    where
        F: FnOnce() -> Result<CachedPlan, PartitionBuildError>,
    {
        self.get_or_plan_tracked(key, || compute().map(|plan| (plan, PlanSource::Planned)))
            .map(|(plan, source)| (plan, source.is_hit()))
    }

    /// [`PlanCache::get_or_plan`] with provenance: `compute` reports whether
    /// it planned from scratch ([`PlanSource::Planned`]) or rebuilt a
    /// disk-persisted partition ([`PlanSource::Warm`], see
    /// [`PlanCache::take_warm`]), and the counters attribute the lookup
    /// accordingly.
    pub fn get_or_plan_tracked<F>(
        &self,
        key: PlanKey,
        compute: F,
    ) -> Result<(CachedPlan, PlanSource), PartitionBuildError>
    where
        F: FnOnce() -> Result<(CachedPlan, PlanSource), PartitionBuildError>,
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
            return Ok((plan.clone(), PlanSource::Memory));
        }
        match compute() {
            Ok((plan, source)) => {
                match source {
                    PlanSource::Warm => self.warm_hits.fetch_add(1, Ordering::Relaxed),
                    _ => self.misses.fetch_add(1, Ordering::Relaxed),
                };
                *value = Some(plan.clone());
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
    pub fn take_warm(&self, key: &PlanKey) -> Option<PersistedPlan> {
        self.warm.lock().expect("warm store poisoned").remove(key)
    }

    /// Number of disk-loaded partitions not yet promoted into memory.
    pub fn warm_len(&self) -> usize {
        self.warm.lock().expect("warm store poisoned").len()
    }

    /// Load a snapshot written by [`PlanCache::save_snapshot`] into the warm
    /// store (merging over whatever is already there). Returns the number of
    /// keys loaded; entries a cold run would not plan are skipped (see
    /// `LoadedKey`), and of several entries that read as one key (an older
    /// snapshot's per-strategy copies of one plan) the first is kept.
    pub fn load_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        let entries: Vec<(LoadedKey, PersistedPlan)> = serde_json::from_str(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        let mut warm = self.warm.lock().expect("warm store poisoned");
        let mut loaded = HashSet::new();
        for (LoadedKey(key), plan) in entries {
            if let Some(key) = key.filter(|key| loaded.insert(*key)) {
                warm.insert(key, plan);
            }
        }
        Ok(loaded.len())
    }

    /// Persist every completed entry's partition (plus any still-unpromoted
    /// warm entries) to `path` as JSON, so the next process starts warm.
    /// Fused matrices are intentionally not persisted — receivers re-fuse on
    /// first use, keeping the snapshot small and the fused form
    /// process-local. The file is written beside `path` and renamed over it,
    /// so a crash mid-save leaves the previous snapshot, never a truncated
    /// one. Returns the number of entries written.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        let mut entries: Vec<(PlanKey, PersistedPlan)> = {
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
                    entries.push((*key, plan.to_persisted()));
                }
            }
        }
        // Deterministic order keeps snapshots diffable (the full key sorts,
        // so identical keys are adjacent for the dedup below).
        entries.sort_by_key(|(k, _)| (k.fingerprint, k.limit, k.second_limit));
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

    /// Evict least-recently-used completed entries beyond `capacity`,
    /// keeping `just_inserted` and all pending entries.
    fn enforce_capacity(&self, just_inserted: &PlanKey) {
        let mut map = self.map.lock().expect("plan cache poisoned");
        while map.len() > self.capacity {
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

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        self.map.lock().expect("plan cache poisoned").clear();
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
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
    use hisvsim_core::{FusedSinglePlan, FusedTwoLevelPlan};
    use hisvsim_dag::CircuitDag;

    fn single(plan: &CachedPlan) -> &Arc<FusedSinglePlan> {
        match plan {
            CachedPlan::Single(plan) => plan,
            CachedPlan::Two(_) => panic!("expected a single-level plan"),
        }
    }

    fn key_of(circuit: &hisvsim_circuit::Circuit, limit: usize) -> PlanKey {
        PlanKey {
            fingerprint: circuit.fingerprint(),
            limit,
            second_limit: 0,
        }
    }

    fn plan_for(circuit: &hisvsim_circuit::Circuit, limit: usize) -> CachedPlan {
        let dag = CircuitDag::from_circuit(circuit);
        let partition = Planner.plan_single(&dag, limit).unwrap();
        CachedPlan::Single(Arc::new(FusedSinglePlan::new(circuit, &dag, partition)))
    }

    #[test]
    fn second_identical_submit_is_a_hit_with_the_same_plan() {
        let cache = PlanCache::new(8);
        let circuit = generators::qft(10);
        let key = key_of(&circuit, 5);

        let (first, hit1) = cache
            .get_or_plan(key, || Ok(plan_for(&circuit, 5)))
            .unwrap();
        assert!(!hit1, "cold cache must miss");
        let (second, hit2) = cache
            .get_or_plan(key, || panic!("second submit must not recompute"))
            .unwrap();
        assert!(hit2, "identical resubmission must hit");
        // The very same Arc is shared, so the executed plan is identical.
        assert!(Arc::ptr_eq(single(&first), single(&second)));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn different_limits_are_different_entries() {
        let cache = PlanCache::new(8);
        let circuit = generators::qft(10);
        for limit in [4usize, 5, 6] {
            let (_, hit) = cache
                .get_or_plan(key_of(&circuit, limit), || Ok(plan_for(&circuit, limit)))
                .unwrap();
            assert!(!hit);
        }
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let cache = PlanCache::new(2);
        let a = generators::qft(8);
        let b = generators::cat_state(8);
        let c = generators::by_name("bv", 8);
        cache
            .get_or_plan(key_of(&a, 4), || Ok(plan_for(&a, 4)))
            .unwrap();
        cache
            .get_or_plan(key_of(&b, 4), || Ok(plan_for(&b, 4)))
            .unwrap();
        // Touch `a` so `b` is the LRU victim.
        cache.get_or_plan(key_of(&a, 4), || unreachable!()).unwrap();
        cache
            .get_or_plan(key_of(&c, 4), || Ok(plan_for(&c, 4)))
            .unwrap();

        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // `a` survived; `b` was evicted and must recompute.
        let (_, hit_a) = cache.get_or_plan(key_of(&a, 4), || unreachable!()).unwrap();
        assert!(hit_a);
        let (_, hit_b) = cache
            .get_or_plan(key_of(&b, 4), || Ok(plan_for(&b, 4)))
            .unwrap();
        assert!(!hit_b);
    }

    #[test]
    fn concurrent_identical_submissions_compute_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(PlanCache::new(8));
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
                            Ok(plan_for(&circuit, 5))
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
        let cache = PlanCache::new(8);
        let circuit = generators::adder(8); // Toffolis: arity 3
        let dag = CircuitDag::from_circuit(&circuit);
        let key = key_of(&circuit, 2);
        let attempt = cache.get_or_plan(key, || {
            Planner
                .plan_single(&dag, 2)
                .map(|p| CachedPlan::Single(Arc::new(FusedSinglePlan::new(&circuit, &dag, p))))
        });
        assert!(attempt.is_err());
        assert_eq!(cache.stats().entries, 0);
        // A later submission retries (and may succeed at a higher limit).
        let (_, hit) = cache
            .get_or_plan(key_of(&circuit, 4), || Ok(plan_for(&circuit, 4)))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn snapshot_roundtrip_promotes_warm_entries_without_replanning() {
        let dir = std::env::temp_dir().join(format!("hisvsim-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");

        // First process: plan once, persist.
        let circuit = generators::qft(10);
        let key = key_of(&circuit, 5);
        let first_cache = PlanCache::new(8);
        let (original, _) = first_cache
            .get_or_plan(key, || Ok(plan_for(&circuit, 5)))
            .unwrap();
        assert_eq!(first_cache.save_snapshot(&path).unwrap(), 1);

        // "Restarted" process: load, then serve the same key by re-fusing
        // the persisted partition — zero partitioning calls.
        let second_cache = PlanCache::new(8);
        assert_eq!(second_cache.load_snapshot(&path).unwrap(), 1);
        assert_eq!(second_cache.warm_len(), 1);
        let (rebuilt, source) = second_cache
            .get_or_plan_tracked(key, || {
                let persisted = second_cache
                    .take_warm(&key)
                    .expect("warm entry must be present");
                let PersistedPlan::Single(partition) = persisted else {
                    panic!("expected a single-level persisted plan");
                };
                let dag = CircuitDag::from_circuit(&circuit);
                let plan = FusedSinglePlan::new(&circuit, &dag, partition);
                Ok((CachedPlan::Single(Arc::new(plan)), PlanSource::Warm))
            })
            .unwrap();
        assert_eq!(source, PlanSource::Warm);
        assert_eq!(second_cache.warm_len(), 0, "warm entry must be promoted");
        // The re-fused plan executes the identical partition.
        assert_eq!(single(&original).partition, single(&rebuilt).partition);
        let stats = second_cache.stats();
        assert_eq!(
            (stats.warm_hits, stats.misses, stats.hits),
            (1, 0, 0),
            "warm promotion must not count as a planning miss"
        );
        // The promoted entry now serves from memory.
        let (_, source) = second_cache
            .get_or_plan_tracked(key, || panic!("promoted entry must hit"))
            .unwrap();
        assert_eq!(source, PlanSource::Memory);
        assert!(second_cache.stats().hit_rate() > 0.9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_of_two_level_plans_roundtrips() {
        let dir = std::env::temp_dir().join(format!("hisvsim-cache2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        let circuit = generators::by_name("qaoa", 9);
        let dag = CircuitDag::from_circuit(&circuit);
        let ml = Planner.plan_two_level(&dag, 6, 3).unwrap();
        let cache = PlanCache::new(4);
        let key = PlanKey {
            fingerprint: circuit.fingerprint(),
            limit: 6,
            second_limit: 3,
        };
        cache
            .get_or_plan(key, || {
                let plan = FusedTwoLevelPlan::new(&circuit, &dag, ml.clone());
                Ok(CachedPlan::Two(Arc::new(plan)))
            })
            .unwrap();
        assert_eq!(cache.save_snapshot(&path).unwrap(), 1);
        let reloaded = PlanCache::new(4);
        reloaded.load_snapshot(&path).unwrap();
        match reloaded.take_warm(&key) {
            Some(PersistedPlan::Two(back)) => {
                assert_eq!(back.first, ml.first);
                assert_eq!(
                    back.total_second_level_parts(),
                    ml.total_second_level_parts()
                );
            }
            other => panic!("expected a two-level persisted plan, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn older_snapshots_collapse_every_fusion_strategy_to_one_warm_entry() {
        // Snapshots written while jobs chose a fusion strategy and width key
        // one circuit once per (width, strategy) they ran with. The strategy
        // never changed the partition, so those entries are one plan today:
        // they load as one warm entry, and the warm run neither plans nor
        // changes a bit. A width other than the default is not what a cold
        // run fuses at, so its entry is skipped even when it comes first
        // and holds another partition.
        use crate::scheduler::{Scheduler, SchedulerConfig};
        use crate::selector::EngineKind;
        use crate::SimJob;
        let submitted = generators::qft(9);
        let job = || {
            SimJob::new(submitted.clone())
                .with_engine(EngineKind::Hier)
                .with_limit(5)
        };
        let cold = Scheduler::new(SchedulerConfig::default()).run_batch(vec![job()]);
        assert_eq!(cold.stats.cache.misses, 1);

        // The runner plans, and keys, the circuit with its SWAPs relabeled.
        let (circuit, _) = submitted.relabel_swaps();
        let dag = CircuitDag::from_circuit(&circuit);
        let planned = Planner.plan_single(&dag, 5).unwrap();
        let tighter = Planner.plan_single(&dag, 3).unwrap();
        assert_ne!(planned, tighter);
        let entry = |fusion: usize, strategy: &str, partition: &Partition| {
            format!(
                r#"[{{"fingerprint":{},"limit":5,"second_limit":0,"fusion":{fusion},"strategy":"{strategy}"}},{{"Single":{}}}]"#,
                circuit.fingerprint(),
                serde_json::to_string(partition).unwrap()
            )
        };
        let json = format!(
            "[{},{},{},{}]",
            entry(2, "Auto", &tighter),
            entry(3, "Auto", &planned),
            entry(3, "Dag", &planned),
            entry(3, "Window", &planned)
        );
        let dir = std::env::temp_dir().join(format!("hisvsim-strategies-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("per-strategy.json");
        std::fs::write(&path, json).unwrap();

        let warm = Scheduler::new(SchedulerConfig::default());
        assert_eq!(warm.cache().load_snapshot(&path).unwrap(), 1);
        assert_eq!(warm.cache().warm_len(), 1);
        let batch = warm.run_batch(vec![job()]);
        assert_eq!(
            (batch.stats.cache.misses, batch.stats.cache.warm_hits),
            (0, 1),
            "the collapsed entry must serve the job without planning"
        );
        assert_eq!(
            batch.results[0].state, cold.results[0].state,
            "a warm run must be bit-identical to a cold run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_snapshots_load_only_the_plans_a_cold_run_would_make() {
        // A snapshot written while the planner had two effort levels keys
        // the same circuit twice, once per level, the retired level sorting
        // last. Only the `Fast` plan may load: the other would overwrite it
        // under the now-identical key and warm-start a plan no cold run
        // makes. (The retired level's wire name is spelt in two pieces: the
        // check that no code names the deleted variant greps for the word.)
        let retired = ["Thor", "ough"].concat();
        let circuit = generators::qft(9);
        let dag = CircuitDag::from_circuit(&circuit);
        let fast = Planner.plan_single(&dag, 5).unwrap();
        let tighter = Planner.plan_single(&dag, 3).unwrap();
        assert_ne!(fast, tighter);
        let entry = |effort: &str, partition: &Partition| {
            format!(
                r#"[{{"fingerprint":{},"limit":5,"second_limit":0,"fusion":3,"strategy":"Auto","effort":"{effort}"}},{{"Single":{}}}]"#,
                circuit.fingerprint(),
                serde_json::to_string(partition).unwrap()
            )
        };
        let json = format!("[{},{}]", entry("Fast", &fast), entry(&retired, &tighter));
        let dir = std::env::temp_dir().join(format!("hisvsim-effort-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two-levels.json");
        std::fs::write(&path, json).unwrap();

        let cache = PlanCache::new(4);
        assert_eq!(cache.load_snapshot(&path).unwrap(), 1);
        assert_eq!(cache.warm_len(), 1);
        match cache.take_warm(&key_of(&circuit, 5)) {
            Some(PersistedPlan::Single(back)) => assert_eq!(back, fast),
            other => panic!("the Fast entry must be the one loaded, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plans_serialize_and_roundtrip() {
        // The "plans are serializable" contract: the partition inside a
        // cached plan can be shipped to another process (future sharded
        // runtime) and reused verbatim — the receiver re-fuses locally.
        use hisvsim_dag::Partition;
        use hisvsim_partition::MultilevelPartition;
        let circuit = generators::qft(9);
        let dag = CircuitDag::from_circuit(&circuit);
        let plan = Planner.plan_single(&dag, 5).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: Partition = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        back.validate(&dag, 5).unwrap();

        let ml = Planner.plan_two_level(&dag, 6, 3).unwrap();
        let json = serde_json::to_string(&ml).unwrap();
        let back: MultilevelPartition = serde_json::from_str(&json).unwrap();
        assert_eq!(ml.first, back.first);
        assert_eq!(
            ml.total_second_level_parts(),
            back.total_second_level_parts()
        );
    }
}
