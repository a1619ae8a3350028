//! Integration proof for the host-time & allocation observatory.
//!
//! Three guarantees, end to end through the real corpus harness:
//!
//! 1. **Observation does not perturb.** Enabling hostprof leaves guest
//!    output, `ExecStats`, the `Metrics` registry (cycle data *and* the
//!    opcode/digram census) and the checksum bit-identical. `BENCH_*.json`
//!    documents are rendered from those stats, so their identity follows.
//! 2. **Spans conserve.** Every parent span covers the sum of its direct
//!    children in wall time, allocation count and bytes — including spans
//!    recorded by shards that ran concurrently under `--jobs 4`.
//! 3. **Deterministic telemetry is `--jobs`-invariant.** Span entry
//!    counts, allocation attribution and the census are byte-identical
//!    between a sequential and a 4-worker run — the invariant the CI
//!    host-observatory lane byte-diffs.
//! 4. **The warm hot path does not allocate.** Once tiered up, `fibo`'s
//!    calls allocate nothing on the host, and `sieve`'s only grow the
//!    guest heap.

use std::sync::{Mutex, MutexGuard, OnceLock};

use nomap_fleet::FleetConfig;
use nomap_hostprof::{alloc_counters, set_enabled, snapshot, CountingAlloc, SpanReport};
use nomap_vm::{Architecture, Metrics, Vm};
use nomap_workloads::fleet::{corpus, run_corpus_sharded, run_workload_observed, CorpusMerge};
use nomap_workloads::RunSpec;

/// Real allocation attribution needs the counting allocator installed in
/// this test binary (opt-in per binary, exactly like the `nomap` CLI).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Hostprof's enable flag and span registry are process-global; the tests
/// that flip them must not interleave.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn enabling_hostprof_leaves_observed_results_bit_identical() {
    let _guard = serial();
    let w = corpus().into_iter().find(|w| w.id == "S01").unwrap();
    let spec = RunSpec::quick(Architecture::NoMap);

    set_enabled(false);
    let off = run_workload_observed(&w, spec).unwrap();

    nomap_hostprof::reset();
    set_enabled(true);
    let on = run_workload_observed(&w, spec).unwrap();
    set_enabled(false);

    assert_eq!(on.stats, off.stats, "ExecStats must not change under observation");
    assert_eq!(on.metrics, off.metrics, "Metrics (cycles + census) must not change");
    assert_eq!(on.checksum, off.checksum);
    assert_eq!(on.output, off.output, "guest output must not change");

    let report = snapshot();
    assert!(
        report.spans.contains_key("workload:S01"),
        "the enabled run must have recorded the shard span: {:?}",
        report.spans.keys().collect::<Vec<_>>()
    );
    assert_eq!(report.spans["workload:S01"].count, 1);
}

#[test]
fn corpus_spans_nest_and_conserve_under_parallel_shards() {
    let _guard = serial();
    nomap_hostprof::reset();
    set_enabled(true);
    // Steady spec so shards tier up and compile spans nest under the
    // workload spans; 5 shards over 4 workers forces real contention.
    let specs: Vec<_> =
        corpus().into_iter().take(5).map(|w| (w, RunSpec::steady(Architecture::NoMap))).collect();
    let run = run_corpus_sharded(&specs, &FleetConfig::with_jobs(4));
    set_enabled(false);
    assert_eq!(run.summary.failed, 0);

    let report = snapshot();
    assert!(report.spans.keys().any(|k| k.starts_with("workload:")));
    assert!(
        report.spans.keys().any(|k| k.contains("/compile:")),
        "steady-state shards must record nested compile spans: {:?}",
        report.spans.keys().collect::<Vec<_>>()
    );
    let violations = report.conservation_violations();
    assert!(violations.is_empty(), "span conservation violated: {violations:?}");
}

#[test]
fn deterministic_telemetry_is_jobs_invariant() {
    let _guard = serial();
    let specs: Vec<_> =
        corpus().into_iter().take(8).map(|w| (w, RunSpec::quick(Architecture::NoMap))).collect();
    let run_with = |jobs: usize| -> (SpanReport, Metrics) {
        nomap_hostprof::reset();
        set_enabled(true);
        let run = run_corpus_sharded(&specs, &FleetConfig::with_jobs(jobs));
        set_enabled(false);
        assert_eq!(run.summary.failed, 0);
        let merged =
            CorpusMerge::from_runs(run.shards.iter().filter_map(|s| s.outcome.as_ref().ok()));
        (snapshot(), merged.metrics)
    };

    let (seq, seq_metrics) = run_with(1);
    let (par, par_metrics) = run_with(4);

    assert_eq!(seq_metrics.opcodes, par_metrics.opcodes, "opcode census must be jobs-invariant");
    assert_eq!(seq_metrics.digrams, par_metrics.digrams, "digram census must be jobs-invariant");
    assert_eq!(
        seq.spans.keys().collect::<Vec<_>>(),
        par.spans.keys().collect::<Vec<_>>(),
        "the span set must be jobs-invariant"
    );
    for (path, a) in &seq.spans {
        let b = &par.spans[path];
        assert_eq!(a.count, b.count, "entry count for {path}");
        assert_eq!(a.allocs, b.allocs, "allocation count for {path}");
        assert_eq!(a.alloc_bytes, b.alloc_bytes, "allocation bytes for {path}");
    }
}

/// Host allocations of 10 `run()` calls of corpus program `id` under
/// `arch`, after 120 warm-up calls.
fn steady_allocs(id: &str, arch: Architecture) -> u64 {
    let w = corpus().into_iter().find(|w| w.id == id).unwrap();
    let mut vm = Vm::new(w.source, arch).unwrap();
    vm.run_main().unwrap();
    for _ in 0..120 {
        vm.call("run", &[]).unwrap();
    }
    set_enabled(true);
    let (before, _) = alloc_counters();
    for _ in 0..10 {
        vm.call("run", &[]).unwrap();
    }
    let (after, _) = alloc_counters();
    set_enabled(false);
    after - before
}

#[test]
fn warm_hot_path_does_not_allocate() {
    let _guard = serial();
    for arch in [Architecture::Base, Architecture::NoMap] {
        // Recursive calls: register files, arguments and profiles are all
        // reused or borrowed.
        assert_eq!(steady_allocs("fibo", arch), 0, "fibo under {arch:?}");
        // Each run() allocates a 1024-element guest array; the only host
        // allocations left are the guest heap's occasional growth.
        let sieve = steady_allocs("sieve", arch);
        assert!(sieve < 10, "sieve under {arch:?} made {sieve} allocations");
    }
}
