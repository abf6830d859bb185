//! End-to-end MEMPHIS benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hcv-grid|tune-evict|gpu-score> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a single-client closed loop of a
//! fixed number of instances, about `--seconds` worth (see
//! `Kind::instances`), after setting it up several times to time set-up.
//! Idle-priority threads keep the CPUs awake meanwhile (see `awake`).
//! Every instance's checksum is then compared with the same instance run
//! with reuse off. With `--trace 0` the end-to-end metrics are reported,
//! latency percentiles and throughput as medians over consecutive chunks
//! of the run (see `CHUNKS`); with `--trace 1` every other instance is
//! traced and the per-layer metrics are reported instead.
//! A run record goes to stderr; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod awake;
mod layers;
mod workloads;

use layers::{Gauges, Metric, SpanTotals};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};
use workloads::{Kind, Workload};

/// Span category of the benchmark's own spans.
pub const BENCH: &str = "bench";
/// Set-ups per run; `setup_s` is their median. HCV's set-up takes about
/// 0.15 ms, and the median of fewer set-ups swung twofold between runs.
const SETUP_REPS: usize = 101;
/// Consecutive, equal-count chunks the timed loop is cut into. Latency
/// percentiles and throughput are taken per chunk and reported as their
/// median, so a slow phase of a shared host that covers fewer than half
/// of the chunks does not move them (a whole-run 90th percentile moves
/// as soon as a slow phase covers a tenth of the run).
const CHUNKS: usize = 10;

const USAGE: &str = "usage: perfbench --workload <hcv-grid|tune-evict|gpu-score> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let workload = get("--workload")?.to_string();
    let kind = Kind::parse(&workload).ok_or(format!("unknown workload {workload}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        kind,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace,
    })
}

/// Linearly interpolated quantile `q` of `v` (sorted in place); 0 if empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median over `CHUNKS` consecutive equal-count chunks of `0..n` of
/// `per_chunk(start, end)`.
fn chunk_median(n: usize, per_chunk: impl Fn(usize, usize) -> f64) -> f64 {
    let chunks = CHUNKS.min(n).max(1);
    let mut v: Vec<f64> = (0..chunks)
        .map(|c| per_chunk(c * n / chunks, (c + 1) * n / chunks))
        .collect();
    percentile(&mut v, 0.5)
}

/// Median over the chunks of `ms` (in run order) of their quantile `q`.
fn chunk_percentile(ms: &[f64], q: f64) -> f64 {
    chunk_median(ms.len(), |a, b| percentile(&mut ms[a..b].to_vec(), q))
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Filesystem type of the mount holding `dir`.
fn filesystem(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && dir.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, fs)| fs)
}

/// What one run measured.
struct Outcome {
    attempted: usize,
    failed: usize,
    first_failure: Option<String>,
    dropped_events: u64,
    spark_slots: Option<usize>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn run(args: &Args, scratch: &Path) -> Outcome {
    // Set up several times; the last set-up drives the timed loop. No
    // set-up pre-fills the lineage cache.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(workloads::setup(
            args.kind,
            args.seed,
            args.kind.instances(args.seconds),
            scratch,
        ));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut wl = last.expect("SETUP_REPS > 0");

    let before = wl.counters();
    let mut spans = SpanTotals::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    // End of each instance, in seconds since the loop started.
    let mut end_s = Vec::new();
    let mut results = Vec::new();
    let t0 = Instant::now();
    for i in 0..args.kind.instances(args.seconds) {
        let traced = args.trace && i % 2 == 1;
        if traced {
            memphis_obs::enable();
        }
        let start = Instant::now();
        let r = {
            let _instance = memphis_obs::span(BENCH, "instance");
            wl.run(i)
        };
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if traced {
            memphis_obs::disable();
            // Drain after every instance so the per-thread rings never
            // overwrite an event.
            spans.absorb(&memphis_obs::drain());
            memphis_obs::reset();
            traced_ms.push(ms);
        } else {
            plain_ms.push(ms);
        }
        results.push(r);
        end_s.push(t0.elapsed().as_secs_f64());
    }
    let peak_rss_mb = peak_rss_mb();
    let after = wl.counters();
    let n = results.len();

    let spark_cost = wl.spark().map(|sc| sc.config().cost.clone());
    let spark_slots = wl.spark().map(|sc| sc.config().total_cores());
    let mut gauges = Gauges {
        resident_bytes: wl.resident_bytes(),
        spill_dir_bytes: dir_bytes(scratch),
        spark_cost,
        spark_storage_bytes: wl.spark().map_or(0, |sc| sc.storage_used()),
        spark_leaked_bytes: 0,
        gpu_kernel_launch: wl
            .gpu()
            .map_or(Duration::ZERO, |g| g.config().kernel_launch),
        possible_hits: wl.possible_hits(n),
        trace_overhead: 0.0,
    };

    // Correctness, outside the timed loop: every instance against its
    // reuse-off reference, with the `verify_checks` tolerance.
    let tol = wl.tolerance();
    let mut failed = 0;
    let mut first_failure = None;
    for (i, got) in results.iter().enumerate() {
        let verdict = match (got, wl.reference(i)) {
            (Ok(g), Ok(want)) if (g - want).abs() <= tol * (1.0 + want.abs()) => Ok(()),
            (Ok(g), Ok(want)) => Err(format!("instance {i}: {g} != reference {want}")),
            (Err(e), _) => Err(format!("instance {i}: {e}")),
            (_, Err(e)) => Err(format!("instance {i} reference: {e}")),
        };
        if let Err(msg) = verdict {
            failed += 1;
            first_failure.get_or_insert(msg);
        }
    }
    // Spark storage that outlives every context and cache.
    gauges.spark_leaked_bytes = wl.release().unwrap_or(0);

    let plain_p50 = chunk_percentile(&plain_ms, 0.5);
    gauges.trace_overhead = if args.trace {
        chunk_percentile(&traced_ms, 0.5) / plain_p50
    } else {
        0.0
    };
    let chunk_rate = chunk_median(n, |a, b| {
        let from = if a == 0 { 0.0 } else { end_s[a - 1] };
        (b - a) as f64 / (end_s[b - 1] - from)
    });
    let m = |name, value, unit| Metric { name, value, unit };
    let end_to_end = vec![
        m("latency_ms_p50", plain_p50, "ms"),
        m("latency_ms_p90", chunk_percentile(&plain_ms, 0.9), "ms"),
        m("instances_per_s", chunk_rate, "1/s"),
        m("setup_s", percentile(&mut setup_s, 0.5), "s"),
        m("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let per_layer = layers::report(&before, &after, n, &spans, &gauges);
    Outcome {
        attempted: n,
        failed,
        first_failure,
        dropped_events: spans.dropped,
        spark_slots,
        end_to_end,
        per_layer,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    // Spill files of the lineage cache and the Spark block manager go to
    // the benchmark's own scratch area, emptied before and after a run.
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join("scratch");
    std::fs::remove_dir_all(&scratch).ok();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let fs = filesystem(&scratch);
    let awake = awake::KeepAwake::start(workloads::nproc());
    let spinning = awake.spinning;
    let out = run(&args, &scratch);
    drop(awake);
    std::fs::remove_dir_all(&scratch).ok();

    let correct = out.failed == 0 && out.dropped_events == 0;
    let nproc = workloads::nproc();
    let mut record = format!(
        "perfbench: workload={} seed={} seconds={} trace={}\n\
         host: nproc={nproc} cp_threads={nproc} spark task slots={} spill dir filesystem={fs}\n\
         keep-awake: {spinning} of {nproc} CPUs kept busy by idle-priority threads\n\
         flush policy: every committed spill is fsynced (segment append, then manifest line)\n\
         instances={} failed={} error_rate={} dropped_trace_events={}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.spark_slots.map_or("none".into(), |n| n.to_string()),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64,
        out.dropped_events,
    );
    if let Some(f) = &out.first_failure {
        let _ = writeln!(record, "first failure: {f}");
    }
    let shown = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for metric in shown {
        let _ = writeln!(
            record,
            "  {:<32} {:>14.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    eprint!("{record}");

    let metrics: Vec<String> = shown
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}
