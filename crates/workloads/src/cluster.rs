//! Single-threaded deterministic cluster harness: a skewed multi-tenant
//! read/compute trace driven through [`ClusterCache`], with optional
//! mid-run membership churn and write invalidations.
//!
//! Every decision (tenant, item, hot-vs-cold, invalidation target) is a
//! SplitMix64 hash of `(seed, salt, request)`, so a run is a pure
//! function of [`ClusterParams`] — the node-count-invariance proptests
//! compare the *digest* (an order-sensitive fold of every served
//! object's fingerprint) across cluster sizes, and whole
//! [`ClusterStatsSnapshot`]s across repeated runs.

use memphis_cluster::{ClusterCache, ClusterConfig, ClusterProbed, ClusterStatsSnapshot, NodeId};
use memphis_core::{CachedObject, LItem, LineageItem};
use memphis_matrix::hash::{self, mix, seeded, unit};
use std::collections::HashSet;
use std::sync::Arc;

mod salt {
    pub const TENANT: u64 = 0xc1a0_0001;
    pub const SKEW: u64 = 0xc1a0_0002;
    pub const HOT: u64 = 0xc1a0_0003;
    pub const COLD: u64 = 0xc1a0_0004;
    pub const INVALIDATE: u64 = 0xc1a0_0005;
}

/// Parameters of one cluster harness run.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Initial node count (ids `0..nodes`).
    pub nodes: usize,
    /// Seed for every deterministic decision.
    pub seed: u64,
    /// Distinct lineage items in the trace.
    pub items: usize,
    /// Leading items forming the skewed hotspot.
    pub hot_items: usize,
    /// Probability a request targets the hotspot.
    pub hot_frac: f64,
    /// Requests to drive.
    pub requests: usize,
    /// Tenants (routed to origin nodes by hash).
    pub tenants: usize,
    /// Run a rebalance epoch every this many requests (0 = never).
    pub epoch_every: usize,
    /// Invalidate one hot item every this many requests (0 = never) —
    /// exercises write coherence (replica invalidation + recompute).
    pub invalidate_every: usize,
    /// Mid-run churn: a node joins at 1/3 of the trace and node 0
    /// leaves at 2/3.
    pub churn: bool,
    /// Replica copies per hot item.
    pub replicas: usize,
    /// Top-k replicated items.
    pub hot_k: usize,
    /// Heat threshold for replication.
    pub hot_min_probes: u64,
    /// Rebalance budget per epoch.
    pub rebalance_moves: usize,
    /// Per-node cache budget in bytes.
    pub node_budget: usize,
}

impl ClusterParams {
    /// Small deterministic run for tests and proptests.
    pub fn test(nodes: usize, seed: u64) -> Self {
        Self {
            nodes,
            seed,
            items: 24,
            hot_items: 4,
            hot_frac: 0.7,
            requests: 300,
            tenants: 8,
            epoch_every: 40,
            invalidate_every: 0,
            churn: false,
            replicas: 1,
            hot_k: 4,
            hot_min_probes: 3,
            rebalance_moves: 8,
            node_budget: 1 << 20,
        }
    }

    /// The gated configuration: 4 nodes, churn on, replication on,
    /// periodic invalidations — every counter class exercised.
    pub fn gate(seed: u64) -> Self {
        Self {
            nodes: 4,
            seed,
            items: 32,
            hot_items: 4,
            hot_frac: 0.75,
            requests: 600,
            tenants: 8,
            epoch_every: 50,
            invalidate_every: 150,
            churn: true,
            replicas: 2,
            hot_k: 4,
            hot_min_probes: 3,
            rebalance_moves: 6,
            node_budget: 1 << 20,
        }
    }
}

/// Outcome of one harness run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Order-sensitive FNV fold of every served object's fingerprint —
    /// node-count invariant by construction (payloads depend only on
    /// the item index).
    pub digest: u64,
    /// Cluster counter snapshot at the end of the run.
    pub stats: ClusterStatsSnapshot,
    /// Requests driven.
    pub requests: u64,
    /// Computations of an item whose result should still have been
    /// cached (invalidated items are excused). Churn alone must never
    /// force one, so a healthy run reports 0.
    pub recomputes: u64,
    /// Write invalidations the harness issued.
    pub invalidations_issued: u64,
    /// Hot-item reads served per node (computes excluded), sorted by
    /// node id.
    pub hot_serves: Vec<(NodeId, u64)>,
    /// `max(hot_serves) / sum(hot_serves)`, in thousandths — the
    /// flattening metric replication is judged by.
    pub hot_max_share_x1000: u64,
    /// Leftover queued moves after the final drain (should be 0).
    pub pending_moves: u64,
}

/// The trace's lineage item `i`.
pub fn cluster_item(i: usize) -> LItem {
    LineageItem::leaf(&format!("cluster/item{i}"))
}

/// The deterministic payload of item `i`: a 16x16 embedding matrix
/// (~2 KiB) whose fingerprint depends only on `i`.
pub fn cluster_payload(i: usize) -> CachedObject {
    CachedObject::Matrix(Arc::new(crate::data::embeddings(
        16,
        16,
        0xC1A0 ^ (i as u64),
    )))
}

fn object_fingerprint(o: &CachedObject) -> u64 {
    match o {
        CachedObject::Matrix(m) => m.fingerprint(),
        CachedObject::Scalar(s) => s.to_bits(),
        _ => 0,
    }
}

fn object_size(o: &CachedObject) -> usize {
    match o {
        CachedObject::Matrix(m) => m.size_bytes(),
        _ => std::mem::size_of::<f64>(),
    }
}

/// Analytical compute cost of a trace item.
const ITEM_COST: f64 = 50.0;

/// Drives the trace and returns the report. Single-threaded: requests
/// are processed in order, so the digest is well-defined.
pub fn run_cluster(p: &ClusterParams) -> ClusterReport {
    assert!(p.nodes >= 1 && p.items > p.hot_items && p.hot_items > 0);
    let _span = memphis_obs::span_with(memphis_obs::cat::CLUSTER, "cluster_harness", || {
        format!("nodes={} seed={} requests={}", p.nodes, p.seed, p.requests)
    });
    let cfg = ClusterConfig {
        seed: p.seed,
        node_budget: p.node_budget,
        shards: 8,
        replicas: p.replicas,
        hot_k: p.hot_k,
        hot_min_probes: p.hot_min_probes,
        rebalance_moves: p.rebalance_moves,
        net: memphis_cluster::NetworkModel::test(),
    };
    let node_ids: Vec<NodeId> = (0..p.nodes as NodeId).collect();
    let cluster = ClusterCache::new(cfg, &node_ids);

    let join_at = if p.churn { p.requests / 3 } else { usize::MAX };
    let leave_at = if p.churn {
        2 * p.requests / 3
    } else {
        usize::MAX
    };

    let mut digest = hash::FNV_OFFSET;
    let mut fold = |v: u64| digest = hash::fold(digest, v);
    let mut computed: HashSet<usize> = HashSet::new();
    let mut recomputes = 0u64;
    let mut invalidations_issued = 0u64;
    let mut hot_counts: std::collections::BTreeMap<NodeId, u64> = std::collections::BTreeMap::new();

    for r in 0..p.requests {
        if r == join_at {
            cluster.join(p.nodes as NodeId);
        }
        if r == leave_at {
            cluster.leave(0);
        }
        if p.invalidate_every > 0 && r > 0 && r % p.invalidate_every == 0 {
            let idx = (seeded(p.seed, salt::INVALIDATE, r as u64) % p.hot_items as u64) as usize;
            cluster.invalidate(&cluster_item(idx));
            computed.remove(&idx);
            invalidations_issued += 1;
        }

        let tenant = seeded(p.seed, salt::TENANT, r as u64) % p.tenants as u64;
        let origin = cluster.route_hash(mix(p.seed ^ mix(tenant)));
        let idx = if unit(seeded(p.seed, salt::SKEW, r as u64)) < p.hot_frac {
            (seeded(p.seed, salt::HOT, r as u64) % p.hot_items as u64) as usize
        } else {
            p.hot_items
                + (seeded(p.seed, salt::COLD, r as u64) % (p.items - p.hot_items) as u64) as usize
        };
        let item = cluster_item(idx);

        match cluster.probe_or_begin_from(origin, &item) {
            ClusterProbed::Hit { hit, locality } => {
                fold(object_fingerprint(&hit.object));
                if idx < p.hot_items {
                    let server = locality.node().unwrap_or(origin);
                    *hot_counts.entry(server).or_insert(0) += 1;
                }
            }
            ClusterProbed::Compute(g) => {
                let obj = cluster_payload(idx);
                fold(object_fingerprint(&obj));
                let size = object_size(&obj);
                cluster.complete_from(g, obj, ITEM_COST, size);
                if !computed.insert(idx) {
                    recomputes += 1;
                }
            }
        }

        if p.epoch_every > 0 && (r + 1) % p.epoch_every == 0 {
            cluster.rebalance_epoch();
        }
    }

    // Final drain so no move stays queued at report time.
    let mut guard = 0;
    while cluster.pending_moves() > 0 {
        cluster.rebalance_epoch();
        guard += 1;
        assert!(guard < 1024, "rebalance queue never drained");
    }

    let stats = cluster.stats();
    let hot_serves: Vec<(NodeId, u64)> = hot_counts.into_iter().collect();
    let total: u64 = hot_serves.iter().map(|&(_, c)| c).sum();
    let max: u64 = hot_serves.iter().map(|&(_, c)| c).max().unwrap_or(0);
    ClusterReport {
        digest,
        stats,
        requests: p.requests as u64,
        recomputes,
        invalidations_issued,
        hot_serves,
        hot_max_share_x1000: (max * 1000).checked_div(total).unwrap_or(0),
        pending_moves: cluster.pending_moves() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_is_deterministic() {
        let p = ClusterParams::test(3, 42);
        let a = run_cluster(&p);
        let b = run_cluster(&p);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.hot_serves, b.hot_serves);
    }

    #[test]
    fn digest_is_node_count_invariant() {
        let d1 = run_cluster(&ClusterParams::test(1, 7)).digest;
        let d4 = run_cluster(&ClusterParams::test(4, 7)).digest;
        assert_eq!(d1, d4);
    }

    #[test]
    fn churn_never_recomputes_without_invalidations() {
        let mut p = ClusterParams::test(4, 42);
        p.churn = true;
        let r = run_cluster(&p);
        assert_eq!(r.recomputes, 0, "join/leave must not lose entries");
        assert_eq!(r.pending_moves, 0);
        assert!(r.stats.rebalance_moves > 0, "churn must move something");
    }

    #[test]
    fn gate_config_exercises_every_counter_class() {
        let r = run_cluster(&ClusterParams::gate(42));
        assert!(r.stats.remote_hits > 0);
        assert!(r.stats.replica_hits > 0);
        assert!(r.stats.rebalance_moves > 0);
        assert!(r.stats.replica_invalidations > 0);
        assert!(r.stats.transfer_bytes > 0);
        assert_eq!(r.invalidations_issued, 3);
        assert_eq!(r.recomputes, 0, "only invalidations may force recomputes");
    }
}
