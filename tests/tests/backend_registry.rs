//! Integration tests for the first-class backend layer: registering a
//! custom tier without touching the cache, concurrent probe/put over the
//! split locks, and property checks that eviction follows the eq. (1)
//! cost&size and eq. (2) GPU scoring of the shared `EvictionPolicy`.

use memphis_core::cache::config::CacheConfig;
use memphis_core::cache::entry::{CacheEntry, CachedObject};
use memphis_core::cache::LineageCache;
use memphis_core::lineage::{LineageId, LineageItem};
use memphis_core::{
    BackendId, BackendRegistry, BackendSnapshot, CacheBackend, EvictionPolicy, Materialized,
    ShardedEntryMap,
};
use memphis_matrix::Matrix;
use proptest::prelude::*;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ----------------------------------------------------------------------
// Custom backend registration (no cache changes required)
// ----------------------------------------------------------------------

/// A minimal external tier: unbounded, counts traffic, keeps byte
/// accounting like any registered backend.
#[derive(Default)]
struct ShadowBackend {
    used: Mutex<usize>,
    puts: AtomicU64,
    hits: AtomicU64,
}

impl CacheBackend for ShadowBackend {
    fn id(&self) -> BackendId {
        BackendId::Custom(7)
    }

    fn put(
        &self,
        _map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        _key: LineageId,
        entry: &mut CacheEntry,
    ) -> bool {
        *self.used.lock().unwrap() += entry.size;
        self.puts.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn materialize(
        &self,
        map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        key: LineageId,
    ) -> Materialized {
        self.hits.fetch_add(1, Ordering::Relaxed);
        map.with_entry(key, |e| {
            let e = e.expect("probed entries exist");
            e.hits += 1;
            Materialized::Hit(e.object.clone().expect("cached entries have objects"))
        })
    }

    fn evict_until(
        &self,
        _map: &ShardedEntryMap,
        _reg: &BackendRegistry,
        _bytes: usize,
        _skip: Option<LineageId>,
    ) -> usize {
        0
    }

    fn used(&self) -> usize {
        *self.used.lock().unwrap()
    }

    fn budget(&self) -> usize {
        usize::MAX
    }

    fn snapshot(&self) -> BackendSnapshot {
        BackendSnapshot {
            id: self.id(),
            used: self.used(),
            budget: self.budget(),
            entries: 0,
            detail: vec![
                ("puts", self.puts.load(Ordering::Relaxed)),
                ("hits", self.hits.load(Ordering::Relaxed)),
            ],
        }
    }

    fn release(&self, entry: &CacheEntry) {
        *self.used.lock().unwrap() -= entry.size;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[test]
fn custom_backend_registers_and_serves_probes() {
    let shadow = Arc::new(ShadowBackend::default());
    let cache = LineageCache::new(CacheConfig::test()).with_backend(shadow.clone());

    let item = LineageItem::leaf("ext");
    assert!(cache.put_on(
        &item,
        CachedObject::Scalar(42.0),
        5.0,
        16,
        1,
        BackendId::Custom(7),
    ));
    let hit = cache.probe(&item).expect("custom tier serves the probe");
    assert!(matches!(hit.object, CachedObject::Scalar(v) if v == 42.0));
    assert_eq!(shadow.puts.load(Ordering::Relaxed), 1);
    assert_eq!(shadow.hits.load(Ordering::Relaxed), 1);

    // The unified report covers the external tier, with entry counts
    // filled from the probe map.
    let snaps = cache.backend_snapshots();
    let s = snaps
        .iter()
        .find(|s| s.id == BackendId::Custom(7))
        .expect("registered tier reports");
    assert_eq!(s.entries, 1);
    assert_eq!(s.used, 16);
    assert!(cache.backend_report().contains("custom#7"));

    // Clearing releases through the tier and reverses its accounting.
    cache.clear();
    assert_eq!(shadow.used(), 0);
}

// ----------------------------------------------------------------------
// Concurrent probe/put smoke test over the split locks
// ----------------------------------------------------------------------

#[test]
fn concurrent_probe_put_smoke() {
    let mut cfg = CacheConfig::test();
    cfg.local_budget = 64 << 10;
    let cache = Arc::new(LineageCache::new(cfg));
    let threads = 4;
    let rounds = 200;

    std::thread::scope(|s| {
        for t in 0..threads {
            let cache = Arc::clone(&cache);
            s.spawn(move || {
                for i in 0..rounds {
                    // Shared keys collide across threads; private keys
                    // churn the local tier through its budget.
                    let shared = LineageItem::leaf(&format!("shared{}", i % 8));
                    let private = LineageItem::leaf(&format!("t{t}_i{i}"));
                    let m = Matrix::zeros(8, 8);
                    cache.put(
                        &shared,
                        CachedObject::Matrix(Arc::new(m.clone())),
                        2.0,
                        m.size_bytes(),
                        1,
                    );
                    cache.put(&private, CachedObject::Matrix(Arc::new(m)), 1.0, 512, 1);
                    let _ = cache.probe(&shared);
                    let _ = cache.probe(&private);
                }
            });
        }
    });

    // Per-backend accounting stayed within budget and the probe map is
    // consistent with the registered tiers.
    for s in cache.backend_snapshots() {
        if s.budget != usize::MAX {
            assert!(
                s.used <= s.budget,
                "{} used {} exceeds budget {}",
                s.id,
                s.used,
                s.budget
            );
        }
    }
    assert!(cache.stats().hits > 0, "shared keys must produce hits");
}

// ----------------------------------------------------------------------
// Eviction-order and budget properties
// ----------------------------------------------------------------------

/// Two caches in one process, driven by the same puts and probes, evict
/// the same victims in the same order — also when every shard holds far
/// more than 64 eviction candidates. Each cache's shard maps iterate in
/// their own per-map random order, so selection must not depend on it.
#[test]
fn eviction_sequence_is_identical_across_caches() {
    let size = Matrix::zeros(4, 4).size_bytes();
    let resident = 400; // ~100 candidates in each of 4 shards
    let extra = 150;
    let make = || {
        let mut cfg = CacheConfig::test();
        cfg.spill_to_disk = false;
        cfg.shards = 4;
        cfg.local_budget = size * resident;
        LineageCache::new(cfg)
    };
    let items: Vec<_> = (0..resident + extra)
        .map(|i| LineageItem::leaf(&format!("det{i}")))
        .collect();
    let victims_of = |cache: &LineageCache| {
        let mut live: Vec<LineageId> = Vec::new();
        let mut victims = Vec::new();
        for (i, item) in items.iter().enumerate() {
            let cost = 1.0 + ((i * 7919) % 97) as f64;
            let m = Arc::new(Matrix::zeros(4, 4));
            cache.put(item, CachedObject::Matrix(m), cost, size, 1);
            if i % 3 == 0 {
                let _ = cache.probe(&items[i / 2]);
            }
            live.push(item.lid);
            live.retain(|k| {
                let kept = cache.peek(*k).is_some();
                if !kept {
                    victims.push(k.content_hash());
                }
                kept
            });
        }
        victims
    };
    let (a, b) = (make(), make());
    let first = victims_of(&a);
    assert_eq!(first.len(), extra, "one eviction per put beyond the budget");
    assert_eq!(first, victims_of(&b), "victim sequences diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming puts of equal-size entries with distinct costs and room
    /// for all but one: the single eviction must pick the minimum eq. (1)
    /// score, i.e. the cheapest entry.
    #[test]
    fn eviction_order_follows_eq1(costs in proptest::collection::vec(1.0f64..1000.0, 3..10)) {
        // Index-scaled epsilon keeps scores distinct even if the
        // generator repeats a value, so the victim is unambiguous.
        let costs: Vec<f64> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| c + i as f64 * 1e-3)
            .collect();
        // The eviction fires while the last entry is admitted, so the
        // victim is the minimum score among the already-present entries.
        let min_idx = costs[..costs.len() - 1]
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();

        let size = Matrix::zeros(8, 8).size_bytes();
        let mut cfg = CacheConfig::test();
        cfg.spill_to_disk = false;
        cfg.local_budget = size * (costs.len() - 1);
        let cache = LineageCache::new(cfg);
        let items: Vec<_> = (0..costs.len())
            .map(|i| LineageItem::leaf(&format!("m{i}")))
            .collect();
        for (item, cost) in items.iter().zip(&costs) {
            let m = Matrix::zeros(8, 8);
            cache.put(item, CachedObject::Matrix(Arc::new(m)), *cost, size, 1);
        }
        for (i, item) in items.iter().enumerate() {
            let hit = cache.probe(item).is_some();
            if i == min_idx {
                prop_assert!(!hit, "minimum-score entry must be evicted");
            } else {
                prop_assert!(hit, "higher-score entries must survive");
            }
        }
    }

    /// After every put, every bounded tier's accounted bytes stay within
    /// its budget (spill enabled: drops flow into the disk tier).
    #[test]
    fn per_backend_used_within_budget(
        sizes in proptest::collection::vec(1usize..64, 1..30),
        budget_kb in 4usize..32,
    ) {
        let mut cfg = CacheConfig::test();
        cfg.local_budget = budget_kb << 10;
        let cache = LineageCache::new(cfg);
        for (i, rows) in sizes.iter().enumerate() {
            let m = Matrix::zeros(*rows, 8);
            let item = LineageItem::leaf(&format!("s{i}"));
            cache.put(&item, CachedObject::Matrix(Arc::new(m)), 1.0, rows * 64, 1);
            for s in cache.backend_snapshots() {
                if s.budget != usize::MAX {
                    prop_assert!(s.used <= s.budget, "{} over budget", s.id);
                }
            }
        }
    }

    /// Eq. (2) ordering: staler, shorter-lineage, cheaper pointers score
    /// lower (are recycled/freed first).
    #[test]
    fn gpu_score_monotonic_in_eq2_terms(
        last in 0u64..100,
        clock in 100u64..200,
        height in 1u32..50,
        cost in 0.0f64..100.0,
    ) {
        let max_cost = 100.0;
        let s = EvictionPolicy::gpu_score(last, clock, height, cost, max_cost);
        prop_assert!(EvictionPolicy::gpu_score(last + 1, clock, height, cost, max_cost) >= s);
        prop_assert!(EvictionPolicy::gpu_score(last, clock, height + 1, cost, max_cost) <= s);
        prop_assert!(EvictionPolicy::gpu_score(last, clock, height, cost + 1.0, max_cost) >= s);
    }
}
