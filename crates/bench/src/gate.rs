//! Gate-report plumbing for `bench_gate`: flat JSON rendering/parsing
//! and the exact-match comparison against the committed baseline.
//!
//! The vendored serde is serialize-only, so both ends of the report are
//! hand-rolled: a flat `{"key": integer, ...}` object is all the gate
//! ever needs. **The baseline's keys are the gate**: every key present
//! in `ci/BENCH_baseline.json` is compared for equality, not within a
//! tolerance band, because every gated counter is deterministic by
//! construction. Report keys absent from the baseline (wall clock,
//! throughput) ride along informationally.

use std::collections::HashMap;

/// Renders a flat `{"k": v, ...}` JSON object.
pub fn render(pairs: &[(&str, u64)]) -> String {
    let body = pairs
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!("{{\n{body}\n}}\n")
}

/// Parses a flat string-to-integer JSON object (whitespace-tolerant;
/// ignores anything that is not a `"key": <digits>` pair).
pub fn parse(s: &str) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    let mut rest = s;
    while let Some(q0) = rest.find('"') {
        rest = &rest[q0 + 1..];
        let Some(q1) = rest.find('"') else { break };
        let key = rest[..q1].to_string();
        rest = &rest[q1 + 1..];
        let Some(c) = rest.find(':') else { break };
        let after = rest[c + 1..].trim_start();
        let digits: String = after.chars().take_while(|ch| ch.is_ascii_digit()).collect();
        if !digits.is_empty() {
            if let Ok(v) = digits.parse() {
                out.insert(key, v);
            }
        }
        rest = &rest[c + 1..];
    }
    out
}

/// Result of one gated comparison.
#[derive(Debug, Default)]
pub struct GateDiff {
    /// `(key, value)` for counters equal to the baseline.
    pub matches: Vec<(String, u64)>,
    /// `(key, got, want)` for diverged counters.
    pub regressions: Vec<(String, u64, u64)>,
    /// Baseline keys absent from the report.
    pub missing: Vec<String>,
}

impl GateDiff {
    /// True when every baseline counter matched.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty() && self.missing.is_empty()
    }
}

/// Diffs a report against a baseline (both flat JSON strings) over
/// every key of the baseline, in sorted key order. Report keys the
/// baseline does not carry are ignored.
pub fn compare(report: &str, baseline: &str) -> GateDiff {
    let current = parse(report);
    let mut expected: Vec<(String, u64)> = parse(baseline).into_iter().collect();
    expected.sort_unstable();
    let mut diff = GateDiff::default();
    for (key, want) in expected {
        match current.get(&key) {
            Some(&got) if got == want => diff.matches.push((key, got)),
            Some(&got) => diff.regressions.push((key, got, want)),
            None => diff.missing.push(key),
        }
    }
    diff
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]);
/// 0 for an empty sample.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let report = render(&[("hits", 448), ("wall_clock_ms", 12)]);
        let parsed = parse(&report);
        assert_eq!(parsed.get("hits"), Some(&448));
        assert_eq!(parsed.get("wall_clock_ms"), Some(&12));
    }

    const BASELINE: &str = include_str!("../../../ci/BENCH_baseline.json");

    #[test]
    fn compare_gates_every_baseline_key() {
        let base = parse(BASELINE);
        assert!(!base.is_empty(), "baseline must parse");
        let pairs: Vec<(&str, u64)> = base.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        // A report carrying the baseline plus informational extras passes.
        let report = render(&[pairs.clone(), vec![("wall_clock_ms", 9000)]].concat());
        let diff = compare(&report, BASELINE);
        assert!(diff.passed(), "{:?}", diff.regressions);
        assert_eq!(diff.matches.len(), base.len());

        // Altering any single baseline value fails the gate on exactly
        // that key.
        for (key, &want) in &base {
            let bad: Vec<(&str, u64)> = pairs
                .iter()
                .map(|&(k, v)| (k, if k == key { v ^ 1 } else { v }))
                .collect();
            let diff = compare(&report, &render(&bad));
            assert!(!diff.passed(), "altering {key} must fail the gate");
            assert_eq!(diff.regressions, vec![(key.clone(), want, want ^ 1)]);
        }
    }

    #[test]
    fn compare_flags_only_gated_divergence() {
        let gated = [
            ("hits", 448),
            ("recomputes", 64),
            ("evictions", 64),
            ("coalesced_hits", 7),
            ("duplicates", 0),
            ("serve_shed", 6),
            ("serve_coalesced", 1),
            ("serve_quota_evictions", 5),
        ];
        let base = render(&gated);
        // Identical gated counters; wall clock and extra keys differ
        // freely because the baseline does not carry them.
        let extras = [
            ("wall_clock_ms", 9000),
            ("perf_stress_latency_p99_ticks", 42),
        ];
        let report = render(&[&gated[..], &extras[..]].concat());
        let diff = compare(&report, &base);
        assert!(diff.passed(), "{:?}", diff.regressions);
        assert_eq!(diff.matches.len(), gated.len());

        let bad = report.replace("\"hits\": 448", "\"hits\": 447");
        let diff = compare(&bad, &base);
        assert!(!diff.passed());
        assert_eq!(diff.regressions, vec![("hits".to_string(), 447, 448)]);
    }

    /// Asserts the committed baseline carries every key of `slice`, a
    /// report equal to it passes, and setting `key` to `to` in the
    /// report fails the gate on exactly that key.
    fn assert_gates_slice(slice: &[&str], key: &str, to: u64) {
        let base = parse(BASELINE);
        for k in slice {
            assert!(base.contains_key(*k), "baseline must gate {k}");
        }
        assert!(compare(BASELINE, BASELINE).passed());
        let want = base[key];
        assert_ne!(want, to);
        let bad = BASELINE.replace(&format!("\"{key}\": {want}"), &format!("\"{key}\": {to}"));
        let diff = compare(&bad, BASELINE);
        assert!(!diff.passed());
        assert_eq!(diff.regressions, vec![(key.to_string(), to, want)]);
    }

    #[test]
    fn compare_keys_gates_the_recovery_slice() {
        assert_gates_slice(
            &[
                "segments_recovered",
                "entries_rehydrated",
                "checksum_rejects",
                "manifest_swaps",
            ],
            "checksum_rejects",
            4,
        );
    }

    #[test]
    fn compare_keys_gates_the_cluster_slice() {
        assert_gates_slice(
            &[
                "remote_hits",
                "remote_misses",
                "transfer_bytes",
                "rebalance_moves",
                "replica_hits",
                "replica_invalidations",
            ],
            "replica_hits",
            0,
        );
    }

    #[test]
    fn compare_keys_gates_the_latency_slice() {
        assert_gates_slice(
            &[
                "latency_served",
                "latency_p99_paper",
                "latency_p99_delayed",
                "latency_mad_evictions",
                "latency_ttna_rejects",
                "latency_delay_ticks_saved",
            ],
            "latency_p99_delayed",
            20,
        );
    }

    #[test]
    fn compare_keys_gates_the_script_slice() {
        assert_gates_slice(
            &[
                "script_programs_fuzzed",
                "script_divergences",
                "script_lowered_nodes",
                "script_corpus_scripts",
                "script_corpus_digest",
            ],
            "script_divergences",
            3,
        );
    }

    #[test]
    fn compare_reports_missing_keys() {
        let base = render(&[("hits", 1), ("evictions", 2)]);
        let report = render(&[("hits", 1)]);
        let diff = compare(&report, &base);
        assert_eq!(diff.missing, vec!["evictions".to_string()]);
        assert!(!diff.passed());
    }

    #[test]
    fn percentile_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
