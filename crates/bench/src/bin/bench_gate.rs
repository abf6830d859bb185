//! The counter gate: runs the six deterministic gate workloads from
//! `memphis_bench::golden` (concurrency, serve, recovery, cluster,
//! latency, script) plus a ~10x concurrency/serving stress under
//! virtual time, writes every counter to one flat JSON report, and
//! (optionally) compares it against a committed baseline, exiting
//! non-zero when any baseline key diverges.
//!
//! Usage: `bench_gate <out.json> [baseline.json]`
//!
//! The baseline's keys are the gate: every key in the baseline must be
//! in the report with an equal value (the counters are exact by
//! construction). Report keys the baseline leaves out — wall clock and
//! ops/sec of the stress — vary with the host and are informational.

use memphis_bench::gate::{compare, percentile, render};
use memphis_bench::golden::{
    run_cluster_gate, run_concurrency_gate, run_latency_gate, run_recovery_gate, run_script_gate,
    run_serve_gate, serve_gate_spec, ClusterGateParams, ConcGateParams, LatencyGateParams,
    RecoveryGateParams, ScriptGateParams, ServeGateParams,
};
use memphis_serve::{open_loop, Outcome};
use std::collections::HashMap;

/// The stress keys: ~10x the baseline serving trace, double the
/// rendezvous sessions, 10x the churned eviction set. Latency is
/// virtual (`finished - arrival` in scheduler ticks, the arrival map
/// regenerated from the same seeded trace the scheduler consumed), so
/// tick and counter keys are exact; the wall-clock keys are not.
fn stress() -> Vec<(&'static str, u64)> {
    let cp = ConcGateParams {
        items: 256,
        rounds: 32,
        churn: 1280,
        sessions: 16,
    };
    let oc = run_concurrency_gate(&cp);
    // Probe-loop operations: every round probes every item, plus the
    // churned puts (each a probe-scale cache operation).
    let conc_ops = (cp.items * cp.rounds + cp.churn) as u64;
    let conc_secs = oc.elapsed.as_secs_f64().max(1e-9);

    let sp = ServeGateParams {
        requests: 960,
        workers: 8,
        ..ServeGateParams::full()
    };
    let arrivals: HashMap<u64, u64> = open_loop(sp.seed, &serve_gate_spec(&sp))
        .into_iter()
        .map(|r| (r.id, r.arrival))
        .collect();
    let rep = run_serve_gate(&sp);
    assert!(
        rep.invariants_hold(),
        "stress serve invariants failed: {:?}",
        rep.counters
    );
    let latencies: Vec<u64> = rep
        .outcomes
        .iter()
        .filter_map(|(id, o)| match o {
            Outcome::Completed { finished, .. } => Some(finished.saturating_sub(arrivals[id])),
            _ => None,
        })
        .collect();
    let serve_secs = rep.elapsed.as_secs_f64().max(1e-9);

    vec![
        ("perf_conc_items", cp.items as u64),
        ("perf_conc_hits", oc.hits),
        ("perf_conc_duplicates", oc.duplicates),
        ("perf_stress_requests", sp.requests as u64),
        ("perf_stress_completed", rep.counters.completed),
        ("perf_stress_shed", rep.counters.shed),
        ("perf_stress_ticks", rep.ticks),
        (
            "perf_stress_latency_p50_ticks",
            percentile(&latencies, 50.0),
        ),
        (
            "perf_stress_latency_p99_ticks",
            percentile(&latencies, 99.0),
        ),
        (
            "perf_conc_ops_per_sec",
            (conc_ops as f64 / conc_secs) as u64,
        ),
        ("perf_conc_wall_ms", oc.elapsed.as_millis() as u64),
        (
            "perf_serve_req_per_sec",
            (rep.counters.completed as f64 / serve_secs) as u64,
        ),
        ("perf_serve_wall_ms", rep.elapsed.as_millis() as u64),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(out_path) = args.next() else {
        eprintln!("usage: bench_gate <out.json> [baseline.json]");
        std::process::exit(2);
    };
    let baseline_path = args.next();

    let o = run_concurrency_gate(&ConcGateParams::full());
    let s = run_serve_gate(&ServeGateParams::full());
    let r = run_recovery_gate(&RecoveryGateParams::full());
    let c = run_cluster_gate(&ClusterGateParams::full());
    let l = run_latency_gate(&LatencyGateParams::full());
    let sc = run_script_gate(&ScriptGateParams::full());
    assert!(
        s.invariants_hold(),
        "serve gate invariants failed: {:?}",
        s.counters
    );
    assert!(
        c.invariants_hold(),
        "cluster gate invariants failed: {:?}",
        c.report.stats
    );
    assert!(
        l.invariants_hold(),
        "latency gate invariants failed: p99 paper={} delayed={} digests {:016x}/{:016x}",
        l.p99_paper,
        l.p99_delayed,
        l.paper.digest,
        l.delayed.digest
    );
    assert!(
        sc.invariants_hold(),
        "script gate invariants failed: {sc:?}"
    );
    let mut pairs = vec![
        ("hits", o.hits),
        ("recomputes", o.recomputes),
        ("evictions", o.evictions),
        ("coalesced_hits", o.coalesced_hits),
        ("duplicates", o.duplicates),
        ("serve_shed", s.counters.shed),
        ("serve_coalesced", s.counters.coalesced),
        ("serve_quota_evictions", s.counters.quota_evictions),
        ("serve_completed", s.counters.completed),
        ("segments_recovered", r.segments_recovered),
        ("entries_recovered", r.entries_recovered),
        ("entries_rehydrated", r.entries_rehydrated),
        ("checksum_rejects", r.checksum_rejects),
        ("manifest_swaps", r.manifest_swaps),
        ("remote_hits", c.report.stats.remote_hits),
        ("remote_misses", c.report.stats.remote_misses),
        ("transfer_bytes", c.report.stats.transfer_bytes),
        ("rebalance_moves", c.report.stats.rebalance_moves),
        ("replica_hits", c.report.stats.replica_hits),
        (
            "replica_invalidations",
            c.report.stats.replica_invalidations,
        ),
        ("handoff_hits", c.report.stats.handoff_hits),
        ("remote_coalesced", c.report.stats.remote_coalesced),
        ("cluster_computes", c.report.stats.computes),
        ("latency_served", l.paper.served),
        ("latency_p99_paper", l.p99_paper),
        ("latency_p99_delayed", l.p99_delayed),
        ("latency_mad_evictions", l.delayed.reuse.mad_evictions),
        (
            "latency_ttna_rejects",
            l.delayed.reuse.ttna_admission_rejects,
        ),
        (
            "latency_delay_ticks_saved",
            l.delayed.reuse.delayed_hit_ticks_saved,
        ),
        ("script_programs_fuzzed", sc.programs_fuzzed),
        ("script_divergences", sc.divergences),
        ("script_lowered_nodes", sc.lowered_nodes),
        ("script_corpus_scripts", sc.corpus_scripts),
        ("script_corpus_digest", sc.corpus_digest),
        ("wall_clock_ms", o.elapsed.as_millis() as u64),
    ];
    pairs.extend(stress());
    let report = render(&pairs);
    std::fs::write(&out_path, &report).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("bench_gate: wrote {out_path}");
    print!("{report}");

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let baseline = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let diff = compare(&report, &baseline);
    for (key, got) in &diff.matches {
        println!("bench_gate: {key:<30} {got} == baseline");
    }
    for (key, got, want) in &diff.regressions {
        eprintln!("bench_gate: {key:<30} {got} != baseline {want}  REGRESSION");
    }
    for key in &diff.missing {
        eprintln!("bench_gate: {key:<30} missing from report");
    }
    if !diff.passed() {
        eprintln!("bench_gate: deterministic counters diverged from {baseline_path}");
        std::process::exit(1);
    }
    println!(
        "bench_gate: all {} baseline keys match {baseline_path}",
        diff.matches.len()
    );
}
