//! Skewed multi-tenant latency harness: the delayed-hits demonstration
//! trace behind `exp_latency` and the `latency_*` keys of the bench gate.
//!
//! Three request classes share one under-provisioned cache:
//!
//! * **fan-out** items arrive in coalesced batches — one probe serves
//!   the whole batch on a hit, but a miss stacks every batched arrival
//!   behind the same recompute (the delayed-hits effect). Per-probe
//!   reference counting systematically under-credits them: eq. (1)
//!   sees one probe where the serving layer sees a whole batch.
//! * **steady** items arrive singly and often — eq. (1) credits them
//!   fully and keeps them resident under either policy.
//! * **cold** items are scan-like pollution: rarely re-accessed,
//!   slightly costlier than a fan-out recompute. The pool exceeds the
//!   budget, so *something* must stay homeless; the right choice is the
//!   cold class.
//! * **stream** items are one-shot background traffic — a fresh
//!   identity every round, never re-accessed. Each admission forces an
//!   eviction decision, and that decision is where the policies part:
//!   eq. (1) scores a freshly readmitted fan-out entry `1 × c_fan`
//!   (refs count probes, not arrivals), *below* a disposable stream
//!   item's `c_stream`, so `Paper` evicts the batch-serving entry
//!   every round and its whole batch pays the recompute again next
//!   round. `DelayedHits` keeps the waiter-boosted fan-out entries and
//!   lets the stream churn itself.
//!
//! Under `CachePolicy::DelayedHits` the observed waiters-per-miss feed
//! the aggregate-delay term, fan-out entries out-score the cold
//! squatters, and the p99 of per-arrival virtual latency drops. The
//! stream of served objects is policy-independent by construction
//! (payloads are pure functions of the item), so the served digest is
//! bit-identical between policies — only latency and the new counters
//! may differ.
//!
//! Everything is single-threaded and seeded: arrivals come from
//! SplitMix64 decisions, groups are processed in class/index order, and
//! the digest is an order-sensitive FNV fold.

use memphis_core::cache::entry::CachedObject;
use memphis_core::cache::{LineageCache, MemoryPressure, Probed};
use memphis_core::lineage::{LItem, LineageItem};
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_core::{CacheConfig, CachePolicy};
use memphis_matrix::hash::{self, seeded, unit};
use std::sync::Arc;

mod salt {
    pub const FANOUT: u64 = 0x1a7e_0001;
    pub const STEADY: u64 = 0x1a7e_0002;
    pub const COLD: u64 = 0x1a7e_0003;
    pub const STREAM: u64 = 0x1a7e_0004;
}

/// Virtual ticks a cache hit costs an arrival.
const HIT_TICKS: u64 = 1;

/// Parameters of one latency harness run.
#[derive(Debug, Clone)]
pub struct LatencyParams {
    /// Decision seed (every arrival pattern derives from it).
    pub seed: u64,
    /// Trace rounds driven.
    pub rounds: usize,
    /// Leading rounds excluded from the latency sample (cold-start
    /// compulsory misses are not the policy comparison's subject).
    pub warmup_rounds: usize,
    /// Fan-out class: distinct items.
    pub fanout_items: usize,
    /// Arrivals coalesced into each fan-out batch.
    pub fanout: usize,
    /// Per-round probability a fan-out item's batch arrives.
    pub fanout_prob: f64,
    /// Recompute cost (= miss latency in ticks) of fan-out items.
    pub cost_fanout: f64,
    /// Steady class: distinct items.
    pub steady_items: usize,
    /// Per-round probability a steady item arrives (singly).
    pub steady_prob: f64,
    /// Recompute cost of steady items.
    pub cost_steady: f64,
    /// Cold class: distinct items.
    pub cold_items: usize,
    /// Per-round probability a cold item arrives (singly).
    pub cold_prob: f64,
    /// Recompute cost of cold items — just above `cost_fanout`, so
    /// eq. (1) ranks a freshly readmitted fan-out entry *below* cold
    /// pollution and churns the wrong class.
    pub cost_cold: f64,
    /// One-shot stream items admitted per round (fresh identities,
    /// never re-accessed) — the constant admission pressure that forces
    /// an eviction decision every round. Must be at least the fan-out
    /// item count for the eq. (1) trap to close: every freshly
    /// readmitted fan-out entry must be evictable before its next
    /// batch probes it.
    pub stream_per_round: usize,
    /// Recompute cost of stream items — strictly between `cost_fanout`
    /// and `cost_cold`: above a fresh fan-out entry (so eq. (1) evicts
    /// the fan-out entry first) and below everything established.
    pub cost_stream: f64,
    /// Local budget in payload-sized slots (the item pool exceeds it).
    pub budget_slots: usize,
    /// Probe-map shards.
    pub shards: usize,
    /// Rounds `[from, to)` during which the harness reports `Shed`
    /// memory pressure (exercising the MURS-style admission gate).
    pub pressure_window: (usize, usize),
}

impl LatencyParams {
    /// The gated configuration: the full skewed trace behind
    /// `exp_latency` and the `latency_*` baseline keys.
    pub fn gate(seed: u64) -> Self {
        Self {
            seed,
            rounds: 260,
            warmup_rounds: 20,
            fanout_items: 6,
            fanout: 16,
            fanout_prob: 0.5,
            cost_fanout: 20.0,
            steady_items: 20,
            steady_prob: 0.8,
            cost_steady: 100.0,
            cold_items: 16,
            cold_prob: 0.01,
            cost_cold: 30.0,
            stream_per_round: 6,
            cost_stream: 25.0,
            budget_slots: 30,
            shards: 8,
            pressure_window: (60, 220),
        }
    }

    /// A fast configuration for unit/property tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            rounds: 60,
            warmup_rounds: 8,
            fanout_items: 3,
            fanout: 8,
            fanout_prob: 0.5,
            cost_fanout: 20.0,
            steady_items: 8,
            steady_prob: 0.8,
            cost_steady: 100.0,
            cold_items: 6,
            cold_prob: 0.05,
            cost_cold: 30.0,
            stream_per_round: 3,
            cost_stream: 25.0,
            budget_slots: 12,
            shards: 4,
            pressure_window: (20, 50),
        }
    }
}

/// Outcome of one harness run.
#[derive(Debug, Clone)]
pub struct LatencyReport {
    /// Order-sensitive FNV fold of every served arrival's object
    /// fingerprint — policy-independent by construction.
    pub digest: u64,
    /// Arrivals served (warmup included).
    pub served: u64,
    /// Arrivals that coalesced behind another arrival's miss (batch
    /// size minus one, summed over missing fan-out batches).
    pub coalesced_arrivals: u64,
    /// Per-arrival virtual latency in ticks, post-warmup rounds only.
    /// Foreground classes (fan-out, steady, cold) only — the one-shot
    /// stream class is background traffic with no re-access and sits
    /// outside the serving SLO (its arrivals still flow into `served`
    /// and the digest).
    pub latencies: Vec<u64>,
    /// Cache counters at the end of the run.
    pub reuse: ReuseStatsSnapshot,
}

/// The trace's lineage item for class `class` ("fan", "std", "cold")
/// and index `i`.
pub fn latency_item(class: &str, i: usize) -> LItem {
    LineageItem::leaf(&format!("latency/{class}{i}"))
}

/// Deterministic payload of an item: a 16x16 embedding matrix (~2 KiB)
/// whose fingerprint depends only on the class salt and index.
pub fn latency_payload(class_salt: u64, i: usize) -> CachedObject {
    CachedObject::Matrix(Arc::new(crate::data::embeddings(
        16,
        16,
        class_salt ^ (i as u64),
    )))
}

/// One arrival group of a round: `group` arrivals of the same item
/// probing once (the serving layer coalesces them).
struct Group {
    item: LItem,
    class_salt: u64,
    index: usize,
    cost: f64,
    arrivals: u64,
    tenant: u16,
    /// Foreground arrivals contribute latency samples; background
    /// (stream) arrivals do not.
    foreground: bool,
}

/// Drives the skewed trace under `policy` and returns the report.
/// Single-threaded: groups are processed in class/index order, so the
/// digest and every counter are deterministic functions of the params.
pub fn run_latency(p: &LatencyParams, policy: CachePolicy) -> LatencyReport {
    assert!(p.rounds > p.warmup_rounds && p.fanout >= 2 && p.budget_slots >= 2);
    let _span = memphis_obs::span_with(memphis_obs::cat::CACHE, "latency_harness", || {
        format!("seed={} rounds={} policy={policy:?}", p.seed, p.rounds)
    });
    let payload_bytes = match latency_payload(salt::FANOUT, 0) {
        CachedObject::Matrix(m) => m.size_bytes(),
        _ => unreachable!(),
    };
    let mut config = CacheConfig::test();
    config.local_budget = payload_bytes * p.budget_slots;
    config.shards = p.shards;
    config.spill_to_disk = false;
    config.policy = policy;
    let cache = LineageCache::new(config);

    let mut digest = hash::FNV_OFFSET;
    let mut fold = |v: u64| digest = hash::fold(digest, v);
    let mut served = 0u64;
    let mut coalesced_arrivals = 0u64;
    let mut latencies: Vec<u64> = Vec::new();

    for round in 0..p.rounds {
        let in_window = round >= p.pressure_window.0 && round < p.pressure_window.1;
        cache.set_memory_pressure(if in_window {
            MemoryPressure::Shed
        } else {
            MemoryPressure::Normal
        });

        // Deterministic arrival groups, in class/index order.
        let mut groups: Vec<Group> = Vec::new();
        for i in 0..p.fanout_items {
            if unit(seeded(p.seed, salt::FANOUT, (round * 1024 + i) as u64)) < p.fanout_prob {
                groups.push(Group {
                    item: latency_item("fan", i),
                    class_salt: salt::FANOUT,
                    index: i,
                    cost: p.cost_fanout,
                    arrivals: p.fanout as u64,
                    tenant: 0,
                    foreground: true,
                });
            }
        }
        for i in 0..p.steady_items {
            if unit(seeded(p.seed, salt::STEADY, (round * 1024 + i) as u64)) < p.steady_prob {
                groups.push(Group {
                    item: latency_item("std", i),
                    class_salt: salt::STEADY,
                    index: i,
                    cost: p.cost_steady,
                    arrivals: 1,
                    tenant: 1,
                    foreground: true,
                });
            }
        }
        for i in 0..p.cold_items {
            if unit(seeded(p.seed, salt::COLD, (round * 1024 + i) as u64)) < p.cold_prob {
                groups.push(Group {
                    item: latency_item("cold", i),
                    class_salt: salt::COLD,
                    index: i,
                    cost: p.cost_cold,
                    arrivals: 1,
                    tenant: 2,
                    foreground: true,
                });
            }
        }
        // One-shot stream admissions close the round: a freshly
        // readmitted fan-out entry has to survive them to ever be
        // probed again.
        for j in 0..p.stream_per_round {
            let idx = round * 64 + j;
            groups.push(Group {
                item: latency_item("stream", idx),
                class_salt: salt::STREAM,
                index: idx,
                cost: p.cost_stream,
                arrivals: 1,
                tenant: 3,
                foreground: false,
            });
        }

        for g in groups {
            let per_arrival = match cache.probe_or_begin_as(&g.item, Some(g.tenant)) {
                Probed::Hit(hit) | Probed::Coalesced(hit) => {
                    let f = fingerprint_of(&hit.object);
                    for _ in 0..g.arrivals {
                        fold(f);
                    }
                    HIT_TICKS
                }
                Probed::Compute(guard) => {
                    let obj = latency_payload(g.class_salt, g.index);
                    let f = fingerprint_of(&obj);
                    cache.complete(guard, obj, g.cost, payload_bytes, 1);
                    // Every batched arrival beyond the first coalesced
                    // behind this miss — the aggregate-delay evidence.
                    if g.arrivals > 1 {
                        cache.note_miss_waiters(&g.item, g.arrivals - 1);
                        coalesced_arrivals += g.arrivals - 1;
                    }
                    for _ in 0..g.arrivals {
                        fold(f);
                    }
                    g.cost as u64
                }
            };
            served += g.arrivals;
            if g.foreground && round >= p.warmup_rounds {
                for _ in 0..g.arrivals {
                    latencies.push(per_arrival);
                }
            }
        }
    }

    LatencyReport {
        digest,
        served,
        coalesced_arrivals,
        latencies,
        reuse: cache.stats(),
    }
}

fn fingerprint_of(o: &CachedObject) -> u64 {
    match o {
        CachedObject::Matrix(m) => m.fingerprint(),
        CachedObject::Scalar(s) => s.to_bits(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_deterministic() {
        let a = run_latency(&LatencyParams::tiny(7), CachePolicy::Paper);
        let b = run_latency(&LatencyParams::tiny(7), CachePolicy::Paper);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.served, b.served);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.reuse, b.reuse);
    }

    #[test]
    fn policies_serve_identical_streams() {
        let paper = run_latency(&LatencyParams::tiny(42), CachePolicy::Paper);
        let mad = run_latency(&LatencyParams::tiny(42), CachePolicy::DelayedHits);
        assert_eq!(
            paper.digest, mad.digest,
            "served bytes must not depend on policy"
        );
        assert_eq!(paper.served, mad.served);
    }

    #[test]
    fn paper_policy_reports_zero_new_counters() {
        let paper = run_latency(&LatencyParams::tiny(42), CachePolicy::Paper);
        assert_eq!(paper.reuse.mad_evictions, 0);
        assert_eq!(paper.reuse.ttna_admission_rejects, 0);
        assert_eq!(paper.reuse.delayed_hit_ticks_saved, 0);
    }
}
