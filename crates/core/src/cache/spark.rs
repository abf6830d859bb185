//! Spark-side cache management helpers: reuse budget, lazy garbage
//! collection of dangling RDD/broadcast references, and asynchronous
//! materialization (paper §4.1).

use crate::stats::ReuseStats;
use memphis_sparksim::{RddRef, SparkContext};
use std::collections::HashSet;
use std::sync::Arc;

/// Fraction of Spark storage memory usable for reuse-persisted RDDs
/// (paper: 80%, the rest reserved for broadcasts and compiler
/// checkpoints).
pub const SPARK_REUSE_FRACTION: f64 = 0.8;

/// The Spark backend attachment of the lineage cache.
pub struct SparkBackend {
    /// Driver handle to the simulated cluster.
    pub sc: SparkContext,
    /// Bytes of storage memory the cache may use for reuse-persisted RDDs
    /// (the paper's 80% heuristic; the rest is reserved for broadcasts and
    /// compiler checkpoints).
    pub reuse_budget: usize,
    /// Run materialization `count()` jobs inline instead of on a spawned
    /// thread — deterministic mode for tests.
    pub sync_materialize: bool,
}

impl SparkBackend {
    /// Attaches a cluster, reserving [`SPARK_REUSE_FRACTION`] of its
    /// storage memory for reuse.
    pub fn new(sc: SparkContext) -> Self {
        let reuse_budget = (sc.storage_capacity() as f64 * SPARK_REUSE_FRACTION) as usize;
        Self {
            sc,
            reuse_budget,
            sync_materialize: false,
        }
    }

    /// Triggers the cheap `count()` materialization job for an RDD whose
    /// reuse kept it lazy for too long (paper: after `k` cache misses),
    /// either inline or on a background thread.
    pub fn trigger_materialize(&self, rdd: &RddRef, stats: &Arc<ReuseStats>) {
        ReuseStats::inc(&stats.rdd_materialize_jobs);
        if self.sync_materialize {
            self.sc.count(rdd);
        } else {
            let sc = self.sc.clone();
            let rdd = rdd.clone();
            std::thread::spawn(move || {
                sc.count(&rdd);
            });
        }
    }

    /// Lazy garbage collection (paper Figure 6): once `root` is
    /// materialized, walk its ancestor chain and release stale resources —
    /// shuffle files of non-cached ancestors and broadcast variables not
    /// protected by other (unmaterialized) cache entries.
    ///
    /// `cached_rdds` are RDD ids referenced by live cache entries (never
    /// cleaned here; their own GC runs when they materialize), and
    /// `protected_broadcasts` are broadcast ids still needed by
    /// unmaterialized entries.
    ///
    /// When the cluster runs with fault injection enabled, "materialized"
    /// is never permanent — an executor kill or a cached-block drop can
    /// force recomputation through any ancestor at any time — so instead
    /// of `destroy()`ing broadcasts (which would dangle under recompute,
    /// the failure of §2.2) GC downgrades to `unpersist()`: executor
    /// copies are released but the driver value stays fetchable.
    ///
    /// Returns `(shuffles_cleaned, broadcasts_released)`.
    pub fn lazy_gc(
        &self,
        root: &RddRef,
        cached_rdds: &HashSet<u64>,
        protected_broadcasts: &HashSet<u64>,
        stats: &Arc<ReuseStats>,
    ) -> (u64, u64) {
        let mut shuffles = 0;
        let mut broadcasts = 0;
        let recompute_possible = self.sc.config().fault_plan.is_active();
        let mut release = |bc: &memphis_sparksim::BroadcastRef| {
            if protected_broadcasts.contains(&bc.id().0) {
                return;
            }
            if recompute_possible {
                if bc.unpersist() {
                    broadcasts += 1;
                    ReuseStats::inc(&stats.gc_broadcasts_unpersisted);
                }
            } else if !bc.is_destroyed() {
                bc.destroy();
                broadcasts += 1;
                ReuseStats::inc(&stats.gc_broadcasts_destroyed);
            }
        };
        // The root's own broadcast (e.g. the vector of a broadcast-based
        // matmul) is releasable too: the materialized partitions no longer
        // need it.
        if let Some(bc) = root.broadcast() {
            release(&bc);
        }
        // Ancestor shuffle files may still be needed to recompute lost or
        // evicted partitions of the root: only release them when the root
        // is disk-backed (its partitions can never be dropped silently).
        let root_disk_backed = matches!(
            root.persist_level(),
            Some(memphis_sparksim::StorageLevel::MemoryAndDisk)
                | Some(memphis_sparksim::StorageLevel::Disk)
        );
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<RddRef> = root.parents();
        while let Some(rdd) = stack.pop() {
            if !visited.insert(rdd.id().0) {
                continue;
            }
            if cached_rdds.contains(&rdd.id().0) {
                // Another cache entry owns this RDD; stop descending — its
                // own lazy GC handles its ancestors.
                continue;
            }
            if root_disk_backed && rdd.shuffle_id().is_some() {
                self.sc.cleanup_shuffle(&rdd);
                shuffles += 1;
                ReuseStats::inc(&stats.gc_rdds_released);
            }
            if let Some(bc) = rdd.broadcast() {
                release(&bc);
            }
            stack.extend(rdd.parents());
        }
        (shuffles, broadcasts)
    }

    /// Collects the broadcast ids reachable from an RDD's lineage —
    /// used to compute the protected set for unmaterialized entries.
    pub fn reachable_broadcasts(root: &RddRef) -> HashSet<u64> {
        let mut out = HashSet::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack = vec![root.clone()];
        while let Some(rdd) = stack.pop() {
            if !visited.insert(rdd.id().0) {
                continue;
            }
            if let Some(bc) = rdd.broadcast() {
                out.insert(bc.id().0);
            }
            stack.extend(rdd.parents());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memphis_matrix::{BlockedMatrix, Matrix};
    use memphis_sparksim::SparkConfig;
    use std::sync::Arc as StdArc;

    fn ctx() -> SparkContext {
        SparkContext::new(SparkConfig::local_test())
    }

    #[test]
    fn budget_is_fraction_of_storage() {
        let sc = ctx();
        let b = SparkBackend::new(sc.clone());
        assert_eq!(
            b.reuse_budget,
            (sc.storage_capacity() as f64 * 0.8) as usize
        );
    }

    #[test]
    fn lazy_gc_cleans_shuffles_and_broadcasts() {
        let sc = ctx();
        let backend = SparkBackend::new(sc.clone());
        let stats = StdArc::new(ReuseStats::default());
        let m = Matrix::filled(16, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        let shuffled = sc.reduce_by_key(
            &mapped,
            "agg",
            StdArc::new(|k, m| vec![(*k, m.deep_clone())]),
            StdArc::new(|a, _| a),
            2,
        );
        sc.count(&shuffled); // materialize shuffle files
        assert!(sc.runtime().shuffle.retained() > 0);

        let final_rdd = sc.map(&shuffled, "final", StdArc::new(|k, m| (*k, m.deep_clone())));
        // Ancestor shuffle cleanup requires a disk-backed root (otherwise
        // recomputing lost partitions would need the shuffle files).
        final_rdd.persist(memphis_sparksim::StorageLevel::MemoryAndDisk);
        let (shf, bcs) = backend.lazy_gc(&final_rdd, &HashSet::new(), &HashSet::new(), &stats);
        assert_eq!(shf, 1);
        assert_eq!(bcs, 1);
        assert!(bc.is_destroyed());
        assert_eq!(sc.runtime().shuffle.retained(), 0);
    }

    #[test]
    fn lazy_gc_respects_protected_sets() {
        let sc = ctx();
        let backend = SparkBackend::new(sc.clone());
        let stats = StdArc::new(ReuseStats::default());
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        let final_rdd = sc.map(&mapped, "final", StdArc::new(|k, m| (*k, m.deep_clone())));

        // Protect the broadcast.
        let protected: HashSet<u64> = [bc.id().0].into_iter().collect();
        backend.lazy_gc(&final_rdd, &HashSet::new(), &protected, &stats);
        assert!(!bc.is_destroyed());

        // Protect the intermediate RDD: traversal must stop there.
        let cached: HashSet<u64> = [mapped.id().0].into_iter().collect();
        backend.lazy_gc(&final_rdd, &cached, &HashSet::new(), &stats);
        assert!(!bc.is_destroyed(), "stopped before reaching the broadcast");
    }

    #[test]
    fn lazy_gc_unpersists_instead_of_destroying_under_faults() {
        // With fault injection active, a "materialized" RDD can lose
        // cached partitions at any time; GC must keep broadcasts
        // recomputable (unpersist) rather than destroying them.
        let mut cfg = SparkConfig::local_test();
        cfg.fault_plan = memphis_sparksim::FaultPlan::seeded(7).with_executor_kill(u64::MAX, 0, 0); // active plan, never fires
        let sc = SparkContext::new(cfg);
        let backend = SparkBackend::new(sc.clone());
        let stats = StdArc::new(ReuseStats::default());
        let m = Matrix::filled(16, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc = sc.broadcast(Matrix::filled(1, 4, 2.0));
        let mapped = sc.map_with_broadcast(
            &src,
            "withB",
            &bc,
            StdArc::new(|k, m, _| (*k, m.deep_clone())),
        );
        sc.count(&mapped); // executors pull the chunks
        assert!(bc.delivered_executors() > 0);

        let (_, released) = backend.lazy_gc(&mapped, &HashSet::new(), &HashSet::new(), &stats);
        assert_eq!(released, 1);
        assert!(!bc.is_destroyed(), "faulty cluster must not destroy");
        assert_eq!(bc.delivered_executors(), 0, "executor copies released");
        assert_eq!(stats.snapshot().gc_broadcasts_unpersisted, 1);
        assert_eq!(stats.snapshot().gc_broadcasts_destroyed, 0);

        // Recompute through the broadcast still works.
        assert_eq!(sc.count(&mapped), 4, "one record per block");
    }

    #[test]
    fn reachable_broadcasts_traverses_dag() {
        let sc = ctx();
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let bc1 = sc.broadcast(Matrix::scalar(1.0));
        let bc2 = sc.broadcast(Matrix::scalar(2.0));
        let a = sc.map_with_broadcast(&src, "a", &bc1, StdArc::new(|k, m, _| (*k, m.deep_clone())));
        let b2 = sc.map_with_broadcast(&a, "b", &bc2, StdArc::new(|k, m, _| (*k, m.deep_clone())));
        let set = SparkBackend::reachable_broadcasts(&b2);
        assert!(set.contains(&bc1.id().0));
        assert!(set.contains(&bc2.id().0));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn sync_materialize_runs_inline() {
        let sc = ctx();
        let mut backend = SparkBackend::new(sc.clone());
        backend.sync_materialize = true;
        let stats = StdArc::new(ReuseStats::default());
        let m = Matrix::filled(8, 4, 1.0);
        let b = BlockedMatrix::from_dense(&m, 4).unwrap();
        let src = sc.parallelize_blocked(&b, "X");
        let mapped = sc.map(&src, "id", StdArc::new(|k, m| (*k, m.deep_clone())));
        mapped.persist(sc.default_storage_level());
        backend.trigger_materialize(&mapped, &stats);
        assert!(sc.is_fully_cached(&mapped));
        assert_eq!(stats.snapshot().rdd_materialize_jobs, 1);
    }
}
