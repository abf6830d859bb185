//! Script frontend experiment: the DML-like corpus plus the structured
//! differential workload fuzzer.
//!
//! For seeds 42 and 1337:
//!
//! * compiles every committed corpus script, round-trips it through the
//!   pretty-printer (parse → print → parse must lower to the identical
//!   program), and runs the full differential (reuse-on vs reuse-off,
//!   `Paper` vs `DelayedHits`, warm-restart-after-spill, RECOMPUTE from
//!   lineage), asserting bit-identical sink digests across all five
//!   configurations;
//! * fuzzes 200 generated well-typed programs through the same
//!   differential, asserting zero divergences — any divergence would be
//!   minimized and written to a runnable `.dml` repro under the system
//!   temp directory;
//! * asserts the campaign is counter-exact across repeated runs.
//!
//! Supports the shared `--trace` / `--json` observability flags.

use memphis_bench::golden::{run_script_gate, ScriptGateParams};
use memphis_bench::{header, obs_finish, obs_init, obs_record};
use memphis_workloads::script;

const FUZZ_PROGRAMS: u64 = 200;

fn main() {
    obs_init();
    header(
        "memphis-script: DML corpus + structured differential fuzzer",
        "every script runs reuse-on vs reuse-off, Paper vs DelayedHits, \
         and warm-restart-after-spill, and its sinks are RECOMPUTEd from \
         lineage; sink digests must be bit-identical in all five \
         configurations, for the committed corpus and for 200 generated \
         programs per seed",
    );

    // Corpus: round-trip stability + the differential.
    for (name, src) in script::CORPUS {
        let c = memphis_script::compile(src)
            .unwrap_or_else(|e| panic!("corpus script {name} must compile: {e}"));
        let ast = memphis_script::parse(src)
            .unwrap_or_else(|e| panic!("corpus script {name} must parse: {e}"));
        let printed = memphis_script::print_source(&ast);
        let c2 = memphis_script::compile(&printed)
            .unwrap_or_else(|e| panic!("pretty-printed {name} must re-compile: {e}"));
        assert_eq!(
            memphis_script::canonical_debug(&c.program),
            memphis_script::canonical_debug(&c2.program),
            "{name}: parse -> print -> parse changed the lowered program"
        );
        let digests = script::differential_digests(&c, name)
            .unwrap_or_else(|e| panic!("corpus script {name} must run: {e:?}"));
        assert!(
            script::digests_agree(&digests),
            "corpus script {name} diverged: {digests:?}"
        );
        println!(
            "corpus {name:<10} nodes={:<4} digest={:016x}  (reuse-on/off, delayed-hits, warm-restart, recompute agree)",
            c.node_count(),
            digests[0].1
        );
    }

    for seed in [42u64, 1337] {
        let repro_dir = std::env::temp_dir().join(format!("memphis_exp_script_{seed}"));
        let report = script::fuzz_campaign(seed, FUZZ_PROGRAMS, Some(&repro_dir));
        assert_eq!(report.programs, FUZZ_PROGRAMS, "seed {seed}");
        assert_eq!(
            report.divergences,
            0,
            "seed {seed}: divergences found, repros in {}: {:?}",
            repro_dir.display(),
            report.repros
        );

        // Full determinism: a repeated campaign is counter-exact.
        let again = script::fuzz_campaign(seed, FUZZ_PROGRAMS, None);
        assert_eq!(again.programs, report.programs, "seed {seed}");
        assert_eq!(again.divergences, report.divergences, "seed {seed}");
        assert_eq!(
            again.lowered_nodes, report.lowered_nodes,
            "seed {seed}: lowered node count drifted across runs"
        );

        println!(
            "seed={seed:<5} programs={} divergences={} lowered_nodes={}",
            report.programs, report.divergences, report.lowered_nodes
        );
        obs_record(
            "exp_script",
            [
                ("seed", seed),
                ("programs", report.programs),
                ("divergences", report.divergences),
                ("lowered_nodes", report.lowered_nodes),
            ],
        );
    }

    // The gated slice, printed for cross-checking against the committed
    // baseline (ci/BENCH_baseline.json).
    let gate = run_script_gate(&ScriptGateParams::full());
    assert!(gate.invariants_hold(), "{gate:?}");
    println!(
        "gate: programs_fuzzed={} divergences={} lowered_nodes={} corpus_scripts={} corpus_digest={}",
        gate.programs_fuzzed,
        gate.divergences,
        gate.lowered_nodes,
        gate.corpus_scripts,
        gate.corpus_digest
    );
    obs_finish();
}
