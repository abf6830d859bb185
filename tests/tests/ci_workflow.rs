//! Structural validation of `.github/workflows/ci.yml` (no YAML parser
//! is vendored, so this checks the structure a broken edit is most
//! likely to violate: indentation, required jobs/steps, and that every
//! script the workflow invokes exists and is executable) plus the CI
//! helper scripts themselves.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // tests/ -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn workflow() -> String {
    std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml"))
        .expect("ci workflow exists")
}

/// Leading-space count of a line.
fn indent(line: &str) -> usize {
    line.len() - line.trim_start_matches(' ').len()
}

#[test]
fn workflow_is_structurally_valid_yaml() {
    let y = workflow();
    for (i, line) in y.lines().enumerate() {
        let n = i + 1;
        assert!(!line.contains('\t'), "ci.yml:{n}: tab in YAML");
        assert!(
            line.trim_end() == line,
            "ci.yml:{n}: trailing whitespace breaks some parsers"
        );
        if !line.trim().is_empty() {
            assert_eq!(indent(line) % 2, 0, "ci.yml:{n}: odd indentation");
        }
        // Flow-style `key: value` lines must not leave an unterminated
        // single/double quote.
        let quotes = line.matches('"').count();
        assert_eq!(quotes % 2, 0, "ci.yml:{n}: unbalanced double quote");
    }
    // Top-level skeleton.
    for key in ["name:", "on:", "jobs:"] {
        assert!(
            y.lines().any(|l| l.starts_with(key)),
            "ci.yml: missing top-level `{key}`"
        );
    }
    // Triggers: push to main and pull requests.
    assert!(y.contains("push:"), "ci.yml: missing push trigger");
    assert!(y.contains("pull_request:"), "ci.yml: missing PR trigger");
}

#[test]
fn workflow_defines_lint_and_test_jobs_with_caching() {
    let y = workflow();
    for job in ["  lint:", "  test:"] {
        assert!(
            y.lines().any(|l| l == job),
            "ci.yml: missing job `{}`",
            job.trim()
        );
    }
    // The lint job fails early and independently.
    assert!(y.contains("cargo clippy --all-targets -- -D warnings"));
    assert!(y.contains("cargo fmt --check"));
    // Both jobs cache the cargo registry and target dir, keyed on the
    // lockfile.
    assert_eq!(
        y.matches("uses: actions/cache@").count(),
        2,
        "ci.yml: both jobs must cache cargo artifacts"
    );
    assert!(y.contains("hashFiles('Cargo.lock')"));
    assert!(y.contains("~/.cargo/registry"));
    assert!(y.contains("target"));
    // The test job runs the staged pipeline without duplicating lint.
    assert!(y.contains("./ci.sh --skip-lint"));
}

#[test]
fn workflow_uploads_observability_artifacts() {
    let y = workflow();
    assert!(
        y.contains("uses: actions/upload-artifact@"),
        "ci.yml: missing artifact upload"
    );
    assert!(y.contains("exp_concurrent.trace.json"));
    assert!(y.contains("exp_concurrent.metrics.json"));
    assert!(y.contains("exp_serve.trace.json"));
    assert!(y.contains("exp_serve.metrics.json"));
    assert!(y.contains("exp_cluster.trace.json"));
    assert!(y.contains("exp_cluster.metrics.json"));
    assert!(y.contains("exp_latency.trace.json"));
    assert!(y.contains("exp_latency.metrics.json"));
    assert!(y.contains("exp_script.trace.json"));
    assert!(y.contains("exp_script.metrics.json"));
    // The counter gate's report rides along with the traces.
    assert!(y.contains("BENCH_gate.json"));
    assert!(
        y.contains("--trace") && y.contains("--json"),
        "ci.yml: exp run must request trace + metrics artifacts"
    );
}

#[test]
fn workflow_actions_are_version_pinned() {
    let y = workflow();
    for line in y.lines() {
        let Some(action) = line
            .trim()
            .strip_prefix("uses: ")
            .or_else(|| line.trim().strip_prefix("- uses: "))
        else {
            continue;
        };
        assert!(
            action.contains('@') && !action.ends_with("@main") && !action.ends_with("@master"),
            "ci.yml: action `{action}` must be pinned to a release tag"
        );
    }
}

#[test]
fn invoked_scripts_exist_and_are_executable() {
    #[cfg(unix)]
    use std::os::unix::fs::PermissionsExt;
    let root = repo_root();
    // `ci.sh` is the only script the workflow invokes.
    let path = root.join("ci.sh");
    let meta = std::fs::metadata(&path)
        .unwrap_or_else(|e| panic!("ci.sh referenced by CI is missing: {e}"));
    #[cfg(unix)]
    assert!(
        meta.permissions().mode() & 0o111 != 0,
        "ci.sh must be executable"
    );
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.starts_with("#!"), "ci.sh must start with a shebang");
    assert!(body.contains("set -euo pipefail"), "ci.sh must fail fast");
    // The bench gate compares every key of the committed baseline, so
    // the baseline must carry every counter the gate is meant to pin.
    let baseline = std::fs::read_to_string(root.join("ci/BENCH_baseline.json")).unwrap();
    for key in [
        "hits",
        "recomputes",
        "evictions",
        "coalesced_hits",
        "duplicates",
        "serve_shed",
        "serve_coalesced",
        "serve_quota_evictions",
        "serve_completed",
        "segments_recovered",
        "entries_recovered",
        "entries_rehydrated",
        "checksum_rejects",
        "manifest_swaps",
        "remote_hits",
        "remote_misses",
        "transfer_bytes",
        "rebalance_moves",
        "replica_hits",
        "replica_invalidations",
        "handoff_hits",
        "remote_coalesced",
        "cluster_computes",
        "latency_served",
        "latency_p99_paper",
        "latency_p99_delayed",
        "latency_mad_evictions",
        "latency_ttna_rejects",
        "latency_delay_ticks_saved",
        "script_programs_fuzzed",
        "script_divergences",
        "script_lowered_nodes",
        "script_corpus_scripts",
        "script_corpus_digest",
        "perf_conc_items",
        "perf_conc_hits",
        "perf_conc_duplicates",
        "perf_stress_requests",
        "perf_stress_completed",
        "perf_stress_shed",
        "perf_stress_ticks",
        "perf_stress_latency_p50_ticks",
        "perf_stress_latency_p99_ticks",
    ] {
        assert!(
            baseline.contains(&format!("\"{key}\"")),
            "BENCH_baseline.json: missing gated counter `{key}`"
        );
    }
}

#[test]
fn ci_script_defines_all_stages() {
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    for stage in [
        "stage_build",
        "stage_test",
        "stage_chaos",
        "stage_obs",
        "stage_concurrency",
        "stage_serve",
        "stage_cluster",
        "stage_recovery",
        "stage_latency",
        "stage_script",
        "stage_bench_gate",
        "stage_lint",
    ] {
        assert!(
            sh.contains(&format!("{stage}()")),
            "ci.sh: missing stage function {stage}"
        );
    }
    // One counter gate: the bench_gate stage builds and runs the gate
    // binary against the committed baseline; there is no second perf
    // binary or report.
    assert!(sh.contains("--bin bench_gate"));
    assert!(sh.contains("bench_gate BENCH_gate.json ci/BENCH_baseline.json"));
    assert!(!sh.contains("stage_perf") && !sh.contains("perf_stress"));
    assert!(!repo_root().join("BENCH_pr6.json").exists());
    assert!(!repo_root().join("ci/bench_gate.sh").exists());
    // The concurrency stage runs under both chaos seeds, parallel and
    // single-threaded.
    assert!(sh.contains("--test concurrency"));
    assert!(sh.contains("42 1337"));
    assert!(sh.contains("--skip-lint"));
    // The serve stage runs the disk-tier and serving suites plus the
    // full experiment binary.
    assert!(sh.contains("--test disk_tier"));
    assert!(sh.contains("--test serving"));
    assert!(sh.contains("--bin exp_serve"));
    // The cluster stage runs the sharding/churn/replication suite under
    // both chaos seeds (plus a single-threaded pass) and the full
    // experiment binary.
    assert!(sh.contains("--test cluster"));
    assert!(sh.contains("--bin exp_cluster"));
    // The recovery stage runs the crash-recovery differential suite
    // under both chaos seeds, with one single-threaded pass.
    assert!(sh.contains("--test crash_recovery"));
    // The latency stage runs the delayed-hits suite under both chaos
    // seeds (plus a single-threaded pass) and the full experiment
    // binary.
    assert!(sh.contains("--test latency"));
    assert!(sh.contains("--bin exp_latency"));
    // The script stage runs the frontend + fuzzer suites under both
    // chaos seeds (plus a single-threaded pass) and the full experiment
    // binary.
    assert!(sh.contains("--test script"));
    assert!(sh.contains("-p memphis-script"));
    assert!(sh.contains("--bin exp_script"));
}

#[test]
fn ci_script_prints_stage_summary_on_failure() {
    // `set -e` kills the script mid-stage on the first red command; an
    // EXIT trap must still print the stage-timing summary and mark the
    // failing stage, or red runs lose their most useful output.
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    assert!(
        sh.contains("trap print_summary EXIT"),
        "ci.sh: the stage summary must be installed as an EXIT trap"
    );
    let trap_fn = sh
        .split("print_summary()")
        .nth(1)
        .expect("ci.sh: print_summary function missing");
    let body: String = trap_fn.chars().take(1200).collect();
    assert!(
        body.contains("FAILED"),
        "ci.sh: the trap must mark the failing stage"
    );
    assert!(
        body.contains("local status=$?"),
        "ci.sh: the trap must capture the exit status before any command"
    );
    // The trap decides pass/fail from the recorded status, and the
    // in-flight stage is tracked so a mid-stage abort can be attributed.
    assert!(sh.contains("CURRENT_STAGE="));
    assert!(body.contains("ci: all checks passed"));
}
