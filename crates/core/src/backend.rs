//! First-class backend layer for the lineage cache (paper §3.3, §4).
//!
//! The cache's probe map is backend-agnostic: every entry carries a
//! [`BackendId`] naming the tier that owns its object. Admission,
//! eviction, and hit-side materialization are delegated through the
//! [`CacheBackend`] trait, and the set of tiers attached to a cache is a
//! [`BackendRegistry`] — the driver-local store, the disk-spill tier,
//! Spark, and the GPU are all plain registry entries, and external crates
//! can register additional tiers without touching the cache itself.
//!
//! Every `MAKE_SPACE` path scores victims through one shared
//! [`EvictionPolicy`]: eq. (1) cost&size scoring for entry-granularity
//! tiers and eq. (2) recency/height/cost scoring for GPU free pointers.

use crate::cache::config::CachePolicy;
use crate::cache::entry::{CacheEntry, CachedObject};
use crate::cache::sharded::{Inflight, ShardedEntryMap};
use crate::lineage::LineageId;
use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Identifies the cache tier owning an entry's object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// Driver-local in-memory matrices and scalars.
    Local,
    /// Driver-local disk-spill binaries.
    Disk,
    /// Simulated Spark cluster (RDD handles).
    Spark,
    /// Simulated GPU device (managed pointers).
    Gpu,
    /// An externally registered tier.
    Custom(u16),
}

impl BackendId {
    /// Short tag for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendId::Local => "local",
            BackendId::Disk => "disk",
            BackendId::Spark => "spark",
            BackendId::Gpu => "gpu",
            BackendId::Custom(_) => "custom",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendId::Custom(n) => write!(f, "custom#{n}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// The unified eviction policy: one scoring function per granularity,
/// parameterized by the cache's cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvictionPolicy {
    /// Cost model: `Paper` scores by eq. (1) exactly; `DelayedHits`
    /// adds the TTNA-discounted aggregate-delay term.
    pub policy: CachePolicy,
}

impl EvictionPolicy {
    /// Half-life (in virtual-clock ticks) of the TTNA discount: an
    /// entry expected back within `TTNA_HALF_LIFE` ticks keeps more
    /// than half of its aggregate-delay credit; one expected back much
    /// later keeps almost none.
    pub const TTNA_HALF_LIFE: f64 = 64.0;

    /// A policy with the given cost model.
    pub fn with_policy(policy: CachePolicy) -> Self {
        Self { policy }
    }

    /// Eq. (1) score `(r_h + r_m + r_j) * c(o) / s(o)` — smallest is
    /// evicted first.
    pub fn cost_size_score(refs: u64, cost: f64, size: usize) -> f64 {
        (refs as f64).max(1.0) * cost / size.max(1) as f64
    }

    /// Eq. (1) applied to an entry's reuse metadata.
    pub fn entry_score(e: &CacheEntry) -> f64 {
        Self::cost_size_score(e.hits + e.misses + e.jobs, e.compute_cost, e.size)
    }

    /// Delayed-hits extension of eq. (1):
    /// `refs.max(1) * (c(o) + aggregate_delay * discount) / s(o)` where
    /// `aggregate_delay = miss_waiters * c(o)` (every coalesced waiter
    /// stacked behind a miss paid the full recompute latency again) and
    /// `discount = H / (H + TTNA)` fades the credit of entries not
    /// expected back soon. An entry with no observed inter-probe gap yet
    /// carries no TTNA evidence, so its delay credit is *not* discounted
    /// (`discount = 1`): a freshly readmitted batch-serving entry keeps
    /// its waiter protection through the window before its next probe
    /// instead of collapsing back to eq. (1) and thrashing. With zero
    /// observed waiters the delay term vanishes and the score is
    /// *exactly* eq. (1) — the `Paper` policy is the zero-pressure fixed
    /// point, not an approximation of it.
    pub fn delayed_hits_score(e: &CacheEntry) -> f64 {
        let refs = ((e.hits + e.misses + e.jobs) as f64).max(1.0);
        let discount = if e.probe_gaps == 0 {
            1.0
        } else {
            Self::TTNA_HALF_LIFE / (Self::TTNA_HALF_LIFE + e.ttna_ewma)
        };
        let aggregate_delay = e.miss_waiters as f64 * e.compute_cost;
        refs * (e.compute_cost + aggregate_delay * discount) / e.size.max(1) as f64
    }

    /// The entry score under this policy's cost model.
    pub fn score(&self, e: &CacheEntry) -> f64 {
        match self.policy {
            CachePolicy::Paper => Self::entry_score(e),
            CachePolicy::DelayedHits => Self::delayed_hits_score(e),
        }
    }

    /// Eq. (2) score `T_a(o) + 1/h(o) + c(o)` (each term normalized) —
    /// smallest is recycled/freed first.
    pub fn gpu_score(last_access: u64, clock: u64, height: u32, cost: f64, max_cost: f64) -> f64 {
        let ta = if clock == 0 {
            0.0
        } else {
            last_access as f64 / clock as f64
        };
        let inv_h = 1.0 / height.max(1) as f64;
        let c = if max_cost > 0.0 { cost / max_cost } else { 0.0 };
        ta + inv_h + c
    }
}

/// Position of an evictable entry in its shard's victim index: the
/// eq. (1) score (order-preserving bits), then the content-derived
/// lineage hash, then the raw interned id (which only separates equal
/// content hashes). Comparable across shards, so the global victim is
/// the minimum of the shard heads.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VictimKey {
    score: u64,
    id: LineageId,
}

impl VictimKey {
    fn new(score: f64, id: LineageId) -> Self {
        // Map the f64 onto a u64 whose unsigned order is the float
        // order (sign bit flipped for positives, all bits for
        // negatives); -0.0 folds into 0.0 so equal scores stay ties.
        let bits = if score == 0.0 { 0.0f64 } else { score }.to_bits();
        let score = if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        };
        Self { score, id }
    }

    pub(crate) fn id(self) -> LineageId {
        self.id
    }

    fn tuple(&self) -> (u64, u64, u32) {
        (self.score, self.id.content_hash(), self.id.raw())
    }
}

impl PartialEq for VictimKey {
    fn eq(&self, other: &Self) -> bool {
        self.tuple() == other.tuple()
    }
}

impl Eq for VictimKey {}

impl PartialOrd for VictimKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VictimKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.tuple().cmp(&other.tuple())
    }
}

/// The tiers whose entries are eq. (1) eviction candidates, one victim
/// index per tier (GPU pointers are scored by eq. (2) in the GPU memory
/// manager; custom tiers evict on their own).
const INDEXED_TIERS: [BackendId; 3] = [BackendId::Local, BackendId::Disk, BackendId::Spark];

fn tier_slot(tier: BackendId) -> Option<usize> {
    INDEXED_TIERS.iter().position(|t| *t == tier)
}

/// The victim index (tier slot) and position of `e` stored under `key`,
/// or `None` when the entry is no eviction candidate: pinned entries,
/// local scalars and placeholders, and entries of unindexed tiers.
fn victim_key(
    policy: &EvictionPolicy,
    key: LineageId,
    e: &CacheEntry,
) -> Option<(usize, VictimKey)> {
    let local_non_matrix =
        e.backend == BackendId::Local && !matches!(e.object, Some(CachedObject::Matrix(_)));
    if e.pinned || local_non_matrix {
        return None;
    }
    Some((tier_slot(e.backend)?, VictimKey::new(policy.score(e), key)))
}

/// One shard of the unified probe map: lineage keys to entries (any
/// backend), the shard's ordered indexes of eviction candidates (one per
/// eq. (1) tier: local matrices, disk records, Spark RDDs), and its
/// in-flight computation markers. Shards are hash-partitioned and
/// independently locked inside [`ShardedEntryMap`]; the logical clock is
/// global to the sharded map.
///
/// The entry map is private so that every mutation re-keys the index:
/// entries change only through [`insert`](Self::insert),
/// [`remove`](Self::remove), [`drain`](Self::drain) and the
/// [`EntryGuard`] that [`get_mut`](Self::get_mut) returns, which moves
/// the entry to its new index position when dropped. Scores depend only
/// on the entry's own fields (no time decay), so an index kept current
/// at mutation time is exact at selection time.
#[derive(Default)]
pub struct EntryMap {
    entries: HashMap<LineageId, CacheEntry>,
    /// Eviction candidates in eq. (1) victim order, one set per
    /// `INDEXED_TIERS` slot.
    evictable: [BTreeSet<VictimKey>; INDEXED_TIERS.len()],
    policy: EvictionPolicy,
    /// In-flight computations keyed by lineage id: a second session
    /// probing one of these blocks on the marker instead of recomputing.
    pub inflight: HashMap<LineageId, Arc<Inflight>>,
}

impl EntryMap {
    /// Creates an empty shard scoring victims under `policy`.
    pub fn new(policy: CachePolicy) -> Self {
        Self {
            policy: EvictionPolicy::with_policy(policy),
            ..Self::default()
        }
    }

    /// The entry for `key`.
    pub fn get(&self, key: &LineageId) -> Option<&CacheEntry> {
        self.entries.get(key)
    }

    /// Mutable access to the entry for `key`; the guard re-keys the
    /// victim index when dropped.
    pub fn get_mut(&mut self, key: &LineageId) -> Option<EntryGuard<'_>> {
        let entry = self.entries.get_mut(key)?;
        let before = victim_key(&self.policy, *key, entry);
        Some(EntryGuard {
            key: *key,
            entry,
            evictable: &mut self.evictable,
            policy: self.policy,
            before,
        })
    }

    /// Inserts (or replaces) the entry for `key`, returning the old one.
    pub fn insert(&mut self, key: LineageId, e: CacheEntry) -> Option<CacheEntry> {
        let new = victim_key(&self.policy, key, &e);
        let old = self.entries.insert(key, e);
        if let Some(old) = &old {
            self.unindex(key, old);
        }
        if let Some((slot, k)) = new {
            self.evictable[slot].insert(k);
        }
        old
    }

    /// Removes and returns the entry for `key`.
    pub fn remove(&mut self, key: &LineageId) -> Option<CacheEntry> {
        let old = self.entries.remove(key)?;
        self.unindex(*key, &old);
        Some(old)
    }

    fn unindex(&mut self, key: LineageId, e: &CacheEntry) {
        if let Some((slot, k)) = victim_key(&self.policy, key, e) {
            self.evictable[slot].remove(&k);
        }
    }

    /// Removes every entry (in-flight markers stay).
    pub fn drain(&mut self) -> impl Iterator<Item = (LineageId, CacheEntry)> + '_ {
        self.evictable.iter_mut().for_each(BTreeSet::clear);
        self.entries.drain()
    }

    /// Number of entries (placeholders included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the shard holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every entry, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (LineageId, &CacheEntry)> {
        self.entries.iter().map(|(k, e)| (*k, e))
    }

    /// Number of eviction candidates of `tier` (0 for unindexed tiers).
    pub fn evictable_len(&self, tier: BackendId) -> usize {
        tier_slot(tier).map_or(0, |slot| self.evictable[slot].len())
    }

    /// The eviction candidates of `tier`, lowest eq. (1) score first
    /// (none for unindexed tiers).
    pub(crate) fn evictable(
        &self,
        tier: BackendId,
    ) -> impl Iterator<Item = (VictimKey, &CacheEntry)> {
        tier_slot(tier)
            .into_iter()
            .flat_map(|slot| self.evictable[slot].iter())
            .map(|k| (*k, &self.entries[&k.id]))
    }

    /// Rebuilds the victim indexes from the entries and compares them
    /// with the maintained ones (a debug check for tests).
    pub fn check_index(&self) -> Result<(), String> {
        let mut rebuilt: [BTreeSet<VictimKey>; INDEXED_TIERS.len()] = Default::default();
        for (k, e) in &self.entries {
            if let Some((slot, key)) = victim_key(&self.policy, *k, e) {
                rebuilt[slot].insert(key);
            }
        }
        for (slot, tier) in INDEXED_TIERS.iter().enumerate() {
            let (kept, fresh) = (&self.evictable[slot], &rebuilt[slot]);
            if kept != fresh {
                return Err(format!(
                    "{tier} victim index out of date: {} stale and {} missing of {} candidates",
                    kept.difference(fresh).count(),
                    fresh.difference(kept).count(),
                    fresh.len()
                ));
            }
        }
        Ok(())
    }
}

/// Mutable access to one entry of an [`EntryMap`]. Dropping the guard
/// moves the entry to the index position its new hits, misses, jobs,
/// size, cost, pin, backend, TTNA or waiter count give it.
pub struct EntryGuard<'a> {
    key: LineageId,
    entry: &'a mut CacheEntry,
    evictable: &'a mut [BTreeSet<VictimKey>; INDEXED_TIERS.len()],
    policy: EvictionPolicy,
    before: Option<(usize, VictimKey)>,
}

impl Deref for EntryGuard<'_> {
    type Target = CacheEntry;

    fn deref(&self) -> &CacheEntry {
        self.entry
    }
}

impl DerefMut for EntryGuard<'_> {
    fn deref_mut(&mut self) -> &mut CacheEntry {
        self.entry
    }
}

impl Drop for EntryGuard<'_> {
    fn drop(&mut self) {
        let after = victim_key(&self.policy, self.key, self.entry);
        if after == self.before {
            return;
        }
        if let Some((slot, k)) = self.before {
            self.evictable[slot].remove(&k);
        }
        if let Some((slot, k)) = after {
            self.evictable[slot].insert(k);
        }
    }
}

/// Outcome of a hit-side [`CacheBackend::materialize`].
#[derive(Debug)]
pub enum Materialized {
    /// The object is reusable (backend resources acquired as needed).
    Hit(CachedObject),
    /// The entry is no longer usable (lost spill file, stale pointer);
    /// the cache drops it and reports a miss.
    Stale,
}

/// Point-in-time report of one backend, aggregated by the registry into
/// the unified per-backend stats report.
#[derive(Debug, Clone)]
pub struct BackendSnapshot {
    /// The reporting tier.
    pub id: BackendId,
    /// Bytes currently accounted to the tier.
    pub used: usize,
    /// Byte budget (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Entries owned in the probe map (filled by the cache; a backend
    /// alone cannot see the map).
    pub entries: usize,
    /// Backend-specific counters (spills, recycles, jobs, ...).
    pub detail: Vec<(&'static str, u64)>,
}

impl fmt::Display for BackendSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let budget = if self.budget == usize::MAX {
            "inf".to_string()
        } else {
            format!("{}", self.budget)
        };
        write!(
            f,
            "{:<7} used={}/{} entries={}",
            self.id.to_string(),
            self.used,
            budget,
            self.entries
        )?;
        for (k, v) in &self.detail {
            write!(f, " {k}={v}")?;
        }
        Ok(())
    }
}

/// One cache tier: admission, hit-side materialization, eviction, and
/// accounting for the entries it owns.
///
/// Methods receive the *sharded* probe map with **no shard lock held**:
/// implementations lock the shards they touch (one at a time — see the
/// lock discipline in [`crate::cache::sharded`]) and may take their own
/// accounting locks under a shard lock, never the reverse order. The
/// registry is passed so tiers can cooperate — e.g. the local tier
/// spills into the disk tier, and the disk tier promotes hot entries
/// back through the local tier. Pinned and in-flight entries are never
/// eviction victims: pinned entries are filtered by victim selection,
/// and in-flight markers live outside the entry map entirely.
pub trait CacheBackend: Send + Sync {
    /// The tier this backend implements.
    fn id(&self) -> BackendId;

    /// MAKE_SPACE + admission of `entry` (not yet inserted in the map).
    /// The backend evicts its own victims as needed, updates accounting,
    /// performs side effects (persist, mark-cached), and may adjust
    /// `entry.size`. Returns false to reject the object entirely.
    fn put(
        &self,
        map: &ShardedEntryMap,
        reg: &BackendRegistry,
        key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool;

    /// Hit-side conversion of the stored object into a reusable one:
    /// disk read (and optional promotion), RDD materialization checks,
    /// GPU pointer acquisition. Updates the entry's reuse counters and
    /// the per-backend hit statistics.
    fn materialize(
        &self,
        map: &ShardedEntryMap,
        reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized;

    /// Evicts this tier's victims (eq. (1)/(2) order) until at least
    /// `bytes` are freed or no victims remain. `skip` protects the entry
    /// currently being admitted/promoted. Returns bytes freed.
    fn evict_until(
        &self,
        map: &ShardedEntryMap,
        reg: &BackendRegistry,
        bytes: usize,
        skip: Option<LineageId>,
    ) -> usize;

    /// Bytes currently accounted to this tier.
    fn used(&self) -> usize;

    /// Byte budget of this tier (`usize::MAX` = unbounded).
    fn budget(&self) -> usize;

    /// Uniform stats report (the cache fills `entries`).
    fn snapshot(&self) -> BackendSnapshot;

    /// Releases backend resources held by an entry leaving the cache
    /// (unpersist, unmark, spill-file removal) and reverses accounting.
    fn release(&self, entry: &CacheEntry);

    /// Downcast support for backend-concrete accessors.
    fn as_any(&self) -> &dyn Any;
}

/// The ordered set of tiers attached to one cache.
#[derive(Default, Clone)]
pub struct BackendRegistry {
    backends: Vec<Arc<dyn CacheBackend>>,
}

impl BackendRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tier, replacing any previous tier with the same id.
    pub fn register(&mut self, backend: Arc<dyn CacheBackend>) {
        let id = backend.id();
        self.backends.retain(|b| b.id() != id);
        self.backends.push(backend);
    }

    /// Looks a tier up by id.
    pub fn get(&self, id: BackendId) -> Option<&Arc<dyn CacheBackend>> {
        self.backends.iter().find(|b| b.id() == id)
    }

    /// True when a tier with this id is registered.
    pub fn contains(&self, id: BackendId) -> bool {
        self.get(id).is_some()
    }

    /// Iterates the registered tiers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn CacheBackend>> {
        self.backends.iter()
    }

    /// Downcasts a registered tier to its concrete type.
    pub fn downcast<T: 'static>(&self, id: BackendId) -> Option<&T> {
        self.get(id).and_then(|b| b.as_any().downcast_ref::<T>())
    }

    /// Aggregates every tier's [`CacheBackend::snapshot`] into one
    /// per-backend report (entry counts left at zero; the cache fills
    /// them from the probe map).
    pub fn snapshots(&self) -> Vec<BackendSnapshot> {
        self.backends.iter().map(|b| b.snapshot()).collect()
    }
}

impl fmt::Debug for BackendRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.backends.iter().map(|b| b.id()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_id_tags_and_display() {
        assert_eq!(BackendId::Local.as_str(), "local");
        assert_eq!(BackendId::Spark.as_str(), "spark");
        assert_eq!(BackendId::Custom(3).to_string(), "custom#3");
        assert_eq!(BackendId::Gpu.to_string(), "gpu");
    }

    #[test]
    fn eq1_orders_by_value_density() {
        // Expensive & small beats cheap & large; references scale up.
        let precious = EvictionPolicy::cost_size_score(5, 1e9, 8);
        let bulky = EvictionPolicy::cost_size_score(5, 1.0, 1 << 30);
        assert!(precious > bulky);
        assert!(
            EvictionPolicy::cost_size_score(10, 10.0, 100)
                > EvictionPolicy::cost_size_score(1, 10.0, 100)
        );
        // Zero references count as one (freshly admitted entries).
        assert_eq!(
            EvictionPolicy::cost_size_score(0, 10.0, 100),
            EvictionPolicy::cost_size_score(1, 10.0, 100)
        );
    }

    #[test]
    fn eq2_prefers_stale_tall_cheap() {
        let stale_tall_cheap = EvictionPolicy::gpu_score(1, 100, 10, 1.0, 100.0);
        let fresh_short_costly = EvictionPolicy::gpu_score(99, 100, 1, 100.0, 100.0);
        assert!(stale_tall_cheap < fresh_short_costly);
        // Degenerate clocks/costs do not divide by zero.
        assert!(EvictionPolicy::gpu_score(0, 0, 0, 0.0, 0.0).is_finite());
    }

    #[test]
    fn registry_replaces_same_id_and_downcasts() {
        struct Dummy(u64);
        impl CacheBackend for Dummy {
            fn id(&self) -> BackendId {
                BackendId::Custom(1)
            }
            fn put(
                &self,
                _: &ShardedEntryMap,
                _: &BackendRegistry,
                _: LineageId,
                _: &mut CacheEntry,
            ) -> bool {
                true
            }
            fn materialize(
                &self,
                _: &ShardedEntryMap,
                _: &BackendRegistry,
                _: LineageId,
            ) -> Materialized {
                Materialized::Stale
            }
            fn evict_until(
                &self,
                _: &ShardedEntryMap,
                _: &BackendRegistry,
                _: usize,
                _: Option<LineageId>,
            ) -> usize {
                0
            }
            fn used(&self) -> usize {
                0
            }
            fn budget(&self) -> usize {
                usize::MAX
            }
            fn snapshot(&self) -> BackendSnapshot {
                BackendSnapshot {
                    id: self.id(),
                    used: 0,
                    budget: usize::MAX,
                    entries: 0,
                    detail: vec![],
                }
            }
            fn release(&self, _: &CacheEntry) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut reg = BackendRegistry::new();
        reg.register(Arc::new(Dummy(1)));
        reg.register(Arc::new(Dummy(2)));
        assert_eq!(reg.iter().count(), 1, "same id replaced");
        assert_eq!(reg.downcast::<Dummy>(BackendId::Custom(1)).unwrap().0, 2);
        assert!(!reg.contains(BackendId::Gpu));
        assert!(reg.snapshots().len() == 1);
    }
}
