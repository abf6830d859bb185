//! Per-layer metrics, named `<module>.<metric>`: counts from the public
//! stats snapshots (as deltas over the timed loop, per instance), and
//! times from the spans of traced instances (per traced instance).

use crate::percentile;
use memphis_core::stats::ReuseStatsSnapshot;
use memphis_engine::context::EngineStats;
use memphis_gpusim::GpuStatsSnapshot;
use memphis_obs::{EventKind, Trace, TraceEvent};
use memphis_sparksim::stats::StatsSnapshot;
use memphis_sparksim::CostModel;
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::time::Duration;

/// Cumulative counters of every layer a workload drives; layers a
/// workload does not use stay zero.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub engine: EngineStats,
    pub reuse: ReuseStatsSnapshot,
    pub spark: StatsSnapshot,
    pub gpu: GpuStatsSnapshot,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Span-derived totals, accumulated over the traced instances.
#[derive(Default)]
pub struct SpanTotals {
    /// Self time (duration minus same-thread children) per (cat, name).
    self_ns: BTreeMap<(&'static str, &'static str), u64>,
    instr_ns: Vec<u64>,
    cache_probe_ns: Vec<u64>,
    cache_put_ns: Vec<u64>,
    job_busy_ns: u64,
    task_ns: u64,
    spill_bytes: u64,
    instance_ns: u64,
    uncovered_ns: u64,
    /// Traced instances absorbed.
    pub instances: u64,
    /// Events the recorder lost to ring overwrites.
    pub dropped: u64,
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0, None::<(u64, u64)>);
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

impl SpanTotals {
    /// Folds in the trace of one traced instance.
    pub fn absorb(&mut self, trace: &Trace) {
        self.dropped += trace.dropped;
        let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &trace.events {
            if e.event.kind == EventKind::Span {
                by_thread.entry(e.tid).or_default().push(e);
            }
        }
        for mut list in by_thread.into_values() {
            // Spans on one thread nest; a parent sorts before the children
            // it encloses.
            list.sort_by_key(|e| (e.event.ts_ns, Reverse(e.end_ns())));
            let mut child_ns = vec![0u64; list.len()];
            let mut stack: Vec<usize> = Vec::new();
            for (k, e) in list.iter().enumerate() {
                while stack
                    .last()
                    .is_some_and(|&p| list[p].end_ns() <= e.event.ts_ns)
                {
                    stack.pop();
                }
                if let Some(&p) = stack.last() {
                    child_ns[p] += e.end_ns().min(list[p].end_ns()) - e.event.ts_ns;
                }
                stack.push(k);
            }
            for (e, child) in list.iter().zip(child_ns) {
                *self.self_ns.entry((e.event.cat, e.event.name)).or_default() +=
                    e.event.dur_ns.saturating_sub(child);
            }
        }
        let durations = |cat, name| trace.spans(cat, name).into_iter().map(|e| e.event.dur_ns);
        self.instr_ns
            .extend(durations(memphis_obs::cat::INTERP, "instr"));
        self.cache_probe_ns
            .extend(durations(memphis_obs::cat::CACHE, "probe"));
        self.cache_put_ns
            .extend(durations(memphis_obs::cat::CACHE, "put"));
        self.task_ns += durations(memphis_obs::cat::SCHED, "task").sum::<u64>();
        self.job_busy_ns +=
            memphis_obs::analysis::busy_ns(&trace.spans(memphis_obs::cat::SCHED, "job"));
        self.spill_bytes += trace
            .instants(memphis_obs::cat::CACHE, "spill")
            .iter()
            .filter_map(|e| e.event.arg.map(|(_, v)| v))
            .sum::<u64>();
        // Share of each instance that no program span covers, on any
        // thread.
        for inst in trace.spans(crate::BENCH, "instance") {
            let (s, e) = (inst.event.ts_ns, inst.end_ns());
            let covered = union_ns(
                trace
                    .events
                    .iter()
                    .filter(|x| x.event.kind == EventKind::Span && x.event.cat != crate::BENCH)
                    .map(|x| (x.event.ts_ns.max(s), x.end_ns().min(e)))
                    .filter(|(a, b)| a < b)
                    .collect(),
            );
            self.instance_ns += e - s;
            self.uncovered_ns += (e - s) - covered;
            self.instances += 1;
        }
    }

    fn self_ms(&self, cat: &str, names: &[&str]) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|((c, n), _)| *c == cat && (names.is_empty() || names.contains(n)))
            .map(|(_, v)| v)
            .sum();
        ns as f64 / 1e6
    }
}

/// Everything the per-layer report reads besides the counters.
pub struct Gauges {
    pub resident_bytes: usize,
    pub spill_dir_bytes: u64,
    pub spark_cost: Option<CostModel>,
    pub spark_storage_bytes: usize,
    pub spark_leaked_bytes: usize,
    pub gpu_kernel_launch: Duration,
    pub possible_hits: u64,
    pub trace_overhead: f64,
}

const MB: f64 = (1 << 20) as f64;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50_us(ns: &[u64]) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64 / 1e3).collect();
    percentile(&mut v, 0.5)
}

/// Sum of the delays the Spark simulator injects as sleeps, from its
/// public counters and cost model (summed over threads, so it may exceed
/// wall time). Broadcast bytes have no counter; only the per-chunk
/// overhead of broadcasts is counted.
fn spark_modelled_ms(d: &StatsSnapshot, cost: &CostModel) -> f64 {
    let ns = cost.job_launch.as_nanos() as f64 * d.jobs as f64
        + cost.task_launch.as_nanos() as f64 * d.tasks as f64
        + cost.shuffle_ns_per_byte * (d.shuffle_bytes_written + d.shuffle_bytes_read) as f64
        + cost.collect_ns_per_byte * d.bytes_collected as f64
        + cost.broadcast_chunk_overhead.as_nanos() as f64 * d.broadcast_chunks_sent as f64;
    ns / 1e6
}

/// The per-layer metrics of one traced run over `instances` instances.
pub fn report(
    before: &Counters,
    after: &Counters,
    instances: usize,
    spans: &SpanTotals,
    g: &Gauges,
) -> Vec<Metric> {
    let n = instances.max(1) as f64;
    let t = spans.instances.max(1) as f64;
    let (e0, e1) = (&before.engine, &after.engine);
    let (r0, r1) = (&before.reuse, &after.reuse);
    let (s0, s1) = (&before.spark, &after.spark);
    let gd = after.gpu.delta(&before.gpu);
    let sd = StatsSnapshot {
        jobs: s1.jobs - s0.jobs,
        tasks: s1.tasks - s0.tasks,
        shuffle_bytes_written: s1.shuffle_bytes_written - s0.shuffle_bytes_written,
        shuffle_bytes_read: s1.shuffle_bytes_read - s0.shuffle_bytes_read,
        bytes_collected: s1.bytes_collected - s0.bytes_collected,
        broadcast_chunks_sent: s1.broadcast_chunks_sent - s0.broadcast_chunks_sent,
        ..StatsSnapshot::default()
    };
    let per = |a: u64, b: u64| (b - a) as f64 / n;
    let ms = |ns: u64| ns as f64 / 1e6 / n;
    let instructions = (e1.instructions - e0.instructions) as f64;
    let reused = (e1.reused - e0.reused) as f64;
    let probes = (r1.probes - r0.probes) as f64;
    let gpu_modelled_ns = gd.alloc_free_wait_ns
        + gd.transfer_wait_ns
        + gd.kernels * g.gpu_kernel_launch.as_nanos() as u64;
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("engine.instructions", instructions / n, "count/inst"),
        m("engine.reused_frac", ratio(reused, instructions), "ratio"),
        m(
            "engine.executed_cp",
            per(e0.executed_cp, e1.executed_cp),
            "count/inst",
        ),
        m(
            "engine.executed_sp",
            per(e0.executed_sp, e1.executed_sp),
            "count/inst",
        ),
        m(
            "engine.executed_gpu",
            per(e0.executed_gpu, e1.executed_gpu),
            "count/inst",
        ),
        m("engine.instr_us_p50", p50_us(&spans.instr_ns), "us"),
        m(
            "engine.trace_ms",
            spans.self_ms(memphis_obs::cat::INTERP, &["trace"]) / t,
            "ms/inst",
        ),
        m(
            "engine.probe_ms",
            spans.self_ms(memphis_obs::cat::INTERP, &["probe"]) / t,
            "ms/inst",
        ),
        m(
            "engine.execute_ms",
            spans.self_ms(memphis_obs::cat::INTERP, &["execute"]) / t,
            "ms/inst",
        ),
        m(
            "engine.put_ms",
            spans.self_ms(memphis_obs::cat::INTERP, &["put"]) / t,
            "ms/inst",
        ),
        m(
            "engine.async_ms",
            spans.self_ms(memphis_obs::cat::ASYNC, &[]) / t,
            "ms/inst",
        ),
        m("cache.probes", probes / n, "count/inst"),
        m(
            "cache.hit_ratio",
            ratio((r1.hits - r0.hits) as f64, probes),
            "ratio",
        ),
        m(
            "cache.hit_ratio_of_possible",
            ratio(reused, g.possible_hits as f64),
            "ratio",
        ),
        m(
            "cache.hits_local",
            per(r0.hits_local, r1.hits_local),
            "count/inst",
        ),
        m(
            "cache.hits_rdd",
            per(r0.hits_rdd, r1.hits_rdd),
            "count/inst",
        ),
        m(
            "cache.hits_gpu",
            per(r0.hits_gpu, r1.hits_gpu),
            "count/inst",
        ),
        m(
            "cache.hits_func",
            per(r0.hits_func, r1.hits_func),
            "count/inst",
        ),
        m("cache.probe_us_p50", p50_us(&spans.cache_probe_ns), "us"),
        m("cache.put_us_p50", p50_us(&spans.cache_put_ns), "us"),
        m(
            "cache.put_ms",
            spans.self_ms(memphis_obs::cat::CACHE, &["put"]) / t,
            "ms/inst",
        ),
        m(
            "cache.spills",
            per(r0.local_spills, r1.local_spills),
            "count/inst",
        ),
        m(
            "cache.drops",
            per(r0.local_drops, r1.local_drops),
            "count/inst",
        ),
        m("cache.resident_mb", g.resident_bytes as f64 / MB, "MB"),
        m(
            "cache.gpu_recycled",
            per(r0.gpu_recycled, r1.gpu_recycled),
            "count/inst",
        ),
        m(
            "cache.gpu_reused",
            per(r0.gpu_reused, r1.gpu_reused),
            "count/inst",
        ),
        m(
            "cache.gpu_evicted_to_host",
            per(r0.gpu_evicted_to_host, r1.gpu_evicted_to_host),
            "count/inst",
        ),
        m("disk.hits", per(r0.hits_disk, r1.hits_disk), "count/inst"),
        m("disk.spill_bytes", spans.spill_bytes as f64 / t, "B/inst"),
        m(
            "disk.compactions",
            per(r0.manifest_swaps, r1.manifest_swaps),
            "count/inst",
        ),
        m("disk.dir_mb", g.spill_dir_bytes as f64 / MB, "MB"),
        m("sparksim.jobs", sd.jobs as f64 / n, "count/inst"),
        m("sparksim.tasks", sd.tasks as f64 / n, "count/inst"),
        m(
            "sparksim.jobs_peak_concurrent",
            s1.jobs_peak_concurrent as f64,
            "count",
        ),
        m(
            "sparksim.shuffle_bytes",
            (sd.shuffle_bytes_written + sd.shuffle_bytes_read) as f64 / n,
            "B/inst",
        ),
        m(
            "sparksim.bytes_collected",
            sd.bytes_collected as f64 / n,
            "B/inst",
        ),
        m(
            "sparksim.partitions_evicted",
            per(s0.partitions_evicted, s1.partitions_evicted),
            "count/inst",
        ),
        m(
            "sparksim.job_ms",
            spans.job_busy_ns as f64 / 1e6 / t,
            "ms/inst",
        ),
        m(
            "sparksim.task_ms",
            spans.task_ns as f64 / 1e6 / t,
            "ms/inst",
        ),
        m(
            "sparksim.modelled_ms",
            g.spark_cost
                .as_ref()
                .map_or(0.0, |c| spark_modelled_ms(&sd, c) / n),
            "ms/inst",
        ),
        m(
            "sparksim.storage_used_mb",
            g.spark_storage_bytes as f64 / MB,
            "MB",
        ),
        m(
            "sparksim.storage_leaked_mb",
            g.spark_leaked_bytes as f64 / MB,
            "MB",
        ),
        m("gpusim.kernels", gd.kernels as f64 / n, "count/inst"),
        m("gpusim.allocs", gd.allocs as f64 / n, "count/inst"),
        m("gpusim.syncs", gd.syncs as f64 / n, "count/inst"),
        m("gpusim.h2d_bytes", gd.h2d_bytes as f64 / n, "B/inst"),
        m("gpusim.d2h_bytes", gd.d2h_bytes as f64 / n, "B/inst"),
        m("gpusim.sync_wait_ms", ms(gd.sync_wait_ns), "ms/inst"),
        m("gpusim.compute_ms", ms(gd.compute_ns), "ms/inst"),
        m(
            "gpusim.alloc_free_wait_ms",
            ms(gd.alloc_free_wait_ns),
            "ms/inst",
        ),
        m(
            "gpusim.transfer_wait_ms",
            ms(gd.transfer_wait_ns),
            "ms/inst",
        ),
        m("gpusim.modelled_ms", ms(gpu_modelled_ns), "ms/inst"),
        m("bench.trace_overhead", g.trace_overhead, "ratio"),
        m(
            "bench.unattributed_share",
            ratio(spans.uncovered_ns as f64, spans.instance_ns as f64),
            "ratio",
        ),
    ]
}
