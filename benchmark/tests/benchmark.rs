//! Shrunken runs of every workload through the library API.

use nomap_benchmark::compare::{bounds, Bound};
use nomap_benchmark::oracle::{self, Oracle};
use nomap_benchmark::reference::R0_S;
use nomap_benchmark::spans::check_well_formed;
use nomap_benchmark::{run, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use nomap_profile::{parse_json, Json};
use nomap_vm::Value;

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let opts = Options { trace, scale: Scale::SMOKE, ..Options::new(workload, seed, 0.0) };
    run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn every_workload_runs_correctly_and_repeats_exactly() {
    for w in Workload::ALL {
        let a = smoke(w, 1, false);
        assert!(a.correct(), "{}: {:?}", w.name(), a.failures);
        assert!(a.attempted > 0);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{}", w.name());
        for m in &a.metrics {
            assert!(m.value > 0.0 && m.value.is_finite(), "{}: {} = {}", w.name(), m.name, m.value);
        }
        let b = smoke(w, 1, false);
        assert_eq!(a.window, b.window, "{}: counts differ between runs", w.name());
        assert_eq!(a.metric("sim_cycles"), b.metric("sim_cycles"));
        assert_eq!(a.digests, b.digests);
    }
}

#[test]
fn seeds_move_contention_digests_but_not_corpus_cycles() {
    let (a, b) = (smoke(Workload::SteadyNomap, 1, false), smoke(Workload::SteadyNomap, 2, false));
    assert_eq!(a.window, b.window);
    let (a, b) = (smoke(Workload::ColdStart, 1, false), smoke(Workload::ColdStart, 7, false));
    assert_eq!(a.window, b.window);
    let (a, b) = (smoke(Workload::Aborts, 1, false), smoke(Workload::Aborts, 2, false));
    assert!(a.correct() && b.correct());
    assert_eq!(a.digests.len(), 12);
    let changed = a.digests.iter().zip(&b.digests).filter(|(x, y)| x.1 != y.1).count();
    assert!(changed > 0, "no contention digest depends on the guest seed");
}

#[test]
fn traced_runs_report_every_layer_with_well_formed_spans() {
    for w in Workload::ALL {
        let out = smoke(w, 1, true);
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        assert!(check_well_formed(&out.spans).is_empty());
        // Every timed op is one top-level span with its own op id, and
        // each `vm.call` sits below an op of the same id.
        let ops: Vec<_> = out.spans.iter().filter(|s| s.name == "op").collect();
        assert!(!ops.is_empty(), "{}", w.name());
        assert!(ops.iter().all(|s| s.parent.is_none()));
        for s in out.spans.iter().filter(|s| s.name == "vm.call") {
            let parent = &out.spans[s.parent.expect("vm.call has a parent")];
            assert_eq!(parent.op, s.op);
        }
        for layer in ["frontend.parse_s", "ir.ipa_s", "jit.baseline_compile_s", "bench.ref_s"] {
            assert!(out.metric(layer).unwrap() > 0.0, "{}: {layer}", w.name());
        }
        assert!(out.metric("core.compiles").unwrap() > 0.0, "{}", w.name());
        assert!(out.metric("trace.events").unwrap() > 0.0, "{}", w.name());
        assert_eq!(out.metric("profile.ledger_cycles").map(|c| c > 0.0), Some(true));
    }
}

#[test]
fn aborts_workload_takes_conflict_aborts() {
    let out = smoke(Workload::Aborts, 3, true);
    assert!(out.metric("htm.aborts.conflict").unwrap() > 0.0);
    assert!(out.metric("contention.steps_per_mcycle").unwrap() > 0.0);
    assert_eq!(out.metric("contention.audit_diags"), Some(0.0));
}

#[test]
fn a_tampered_expected_value_fails_ops() {
    for (w, program) in [(Workload::SteadyNomap, "fibo"), (Workload::ColdStart, "S01")] {
        let mut opts = Options { scale: Scale::SMOKE, ..Options::new(w, 1, 0.0) };
        opts.oracle.set(program, Value::new_int32(-1));
        let out = run(&opts).unwrap();
        assert!(!out.correct());
        assert!(out.failures.iter().any(|f| f.starts_with(program)), "{:?}", out.failures);
    }
}

#[test]
fn host_times_are_normalised_by_the_reference_kernel() {
    let out = smoke(Workload::SteadyBase, 1, false);
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    assert_eq!(out.ops.len(), 8);
    for op in &out.ops {
        assert!(op.ref_s >= out.ref_s, "{}: local R below the run's best", op.label);
        assert!(close(op.norm_s(), op.raw_s * R0_S / op.ref_s));
    }
    let insts: u64 = out.ops.iter().map(|o| o.insts).sum();
    let norm: f64 = out.ops.iter().map(|o| o.norm_s()).sum();
    let raw: f64 = out.ops.iter().map(|o| o.raw_s).sum();
    assert!(close(out.metric("sim_minsts_per_s").unwrap(), insts as f64 / norm / 1e6));
    assert!(close(out.raw("sim_minsts_per_s").unwrap(), insts as f64 / raw / 1e6));
}

#[test]
fn the_oracle_comes_from_the_interpreter_and_agrees_with_native_kernels() {
    let committed = Oracle::committed();
    assert_eq!(oracle::generate().unwrap(), committed);
    assert!(oracle::native_cross_check(&committed).is_empty());
    assert_eq!(Oracle::parse(&committed.render()).unwrap(), committed);
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let text = include_str!("../../BENCHMARK.json");
    let doc = parse_json(text).unwrap();
    let field = |m: &Json, key: &str| m.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
    let entries = |key: &str| -> Vec<(String, String)> {
        let list = doc.get(key).and_then(Json::as_array).unwrap();
        list.iter().map(|m| (field(m, "name"), field(m, "unit"))).collect()
    };
    let catalogue = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
    };
    assert_eq!(entries("end_to_end"), catalogue(&END_TO_END));
    assert_eq!(entries("per_layer"), catalogue(&PER_LAYER));
    let workloads: Vec<String> = entries("workloads").into_iter().map(|(n, _)| n).collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
    let rules = bounds(text).unwrap();
    let setup = rules.iter().find(|b| b.name == "setup_s").unwrap();
    assert!(rules.iter().all(|b: &Bound| b.bound <= setup.bound && b.bound <= 0.25));
}
