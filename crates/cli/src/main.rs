//! `nomap` — command-line driver for the NoMap VM.
//!
//! ```text
//! nomap run <file.js> [--arch <name>] [--tier <cap>] [--warmup N] [--stats]
//! nomap trace <file.js> [--arch <name>] [--warmup N] [--ring N] [--last N] [--jsonl <path>]
//! nomap profile <file.js> [--arch <name>] [--tier <cap>] [--warmup N] [--top N] [--json]
//! nomap bench-diff <old> <new> [--threshold PCT]
//! nomap lint <file.js> [--arch <name>] [--warmup N] [--json] [--deny-warnings]
//! nomap prove <file.js> [--arch <name>] [--warmup N] [--census] [--json]
//! nomap ipa <file.js> [--arch <name>] [--warmup N] [--json]
//! nomap memdep <file.js> [--arch <name>] [--warmup N] [--json]
//! nomap aborts <file.js> [--arch <name>] [--warmup N] [--top N] [--json] [--calibration]
//! nomap aborts --contention [--arch <name>] [--jobs N] [--json]
//! nomap census [lint|prove|ipa|memdep|aborts]... [--arch <name>] [--warmup N] [--jobs N] [--out <dir>]
//! nomap disasm <file.js> <function> [--arch <name>] [--tier <baseline|dfg|ftl>]
//! nomap corpus [--arch <name>] [--warmup N] [--jobs N] [--budget CYCLES]
//! nomap hostprof [--arch <name>] [--warmup N] [--jobs N] [--top N] [--json] [--digrams] [--flame <path>] [--hostbench-dir <dir>]
//! nomap archs
//! ```
//!
//! The script's top level runs once; if it defines `run()`, that function is
//! warmed to steady state and measured. `trace` replays the same protocol
//! with lifecycle-event tracing enabled and prints a timeline plus a
//! metrics summary (optionally streaming every event as JSON Lines).
//! `profile` runs with cycle attribution enabled and prints the hot-spot
//! tables (every simulated cycle charged to a function × tier × region
//! scope). `bench-diff` compares two `BENCH_*.json` cycle-count files (or
//! two directories of them) and exits nonzero on regressions — the CI perf
//! gate.
//!
//! `lint`, `prove`, `ipa`, `memdep` and `aborts` are the static-vs-dynamic
//! reports: each warms the script (top level once, then `run()` `--warmup`
//! times, default 150) and recompiles every function. `lint` runs the
//! verifier gauntlet between every pass. `prove` joins the dynamic check
//! tallies against the static range/type verdicts (the check-elision
//! census). `ipa` prints the interprocedural summary report: the call
//! graph, the per-function summary table as validated by `ipa-tv`, and the
//! verdict delta of compiling with and without it. `memdep` prints what
//! the memory-dependence stage eliminated and sunk, with the lifted checks
//! each transform crossed and the `memdep-tv` error tally. `aborts` is the
//! abort-forensics observatory: per-abort blame (faulting cache set,
//! footprints at the point of failure, ladder attempt) plus the
//! static-vs-dynamic footprint calibration table; `--calibration` prints
//! only the table and `--top N` bounds the blame listing. Each exits
//! nonzero when its failure predicate fires (an error diagnostic, a
//! reachable proved-to-fail check, a verdict regression, a `memdep-tv`
//! error, an unexplained under-prediction). `aborts --contention` instead
//! audits the shared-heap contention workloads for conflict soundness.
//!
//! `census` runs those reports over the whole bundled corpus: each
//! (architecture, workload) pair the requested reports need is warmed
//! once and feeds every report. With no kinds it runs all five, each under
//! its default architectures; `--arch` restricts every report to one.
//! Without `--out` the documents go to stdout; with it each lands in
//! `<dir>/<name>.txt` (`prove_corpus_base`, `ipa_census`, `lint_nomap`,
//! ...) with its JSON beside it. `corpus` runs every bundled workload
//! through the sharded `nomap-fleet` harness. `hostprof` runs the same
//! corpus with the host-time & allocation observatory enabled: stdout
//! carries only deterministic counters (opcode/digram census, span entry
//! and allocation counts), while wall-clock tables and `host-span` JSON
//! Lines events go to stderr. `--digrams` prints just the digram table
//! (the committed `results/digrams.txt`), `--flame` writes collapsed
//! stacks for flamegraph tools, `--hostbench-dir` writes the
//! `HOSTBENCH_corpus.json` document, and `--json` prints that document to
//! stdout instead of the tables (it embeds nondeterministic wall times).
//!
//! Every corpus sweep shards over `--jobs N` (or `NOMAP_JOBS`) workers;
//! stdout is byte-identical for any worker count and scheduling telemetry
//! goes to stderr. Usage errors — including a missing or malformed flag
//! value — exit 2; runtime errors exit 1.

use std::fmt::Display;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

/// The counting allocator is opt-in per binary; installing it here gives
/// `nomap hostprof` real allocation attribution. Every other subcommand
/// pays one relaxed atomic load per allocation (observatory disabled).
#[global_allocator]
static ALLOC: nomap_hostprof::CountingAlloc = nomap_hostprof::CountingAlloc;

use nomap_fleet::FleetConfig;
use nomap_trace::{obj, JsonValue};
use nomap_vm::{
    bench_diff, diagnostic_json, AbortsReport, Architecture, BenchRows, CheckKind, CorpusReport,
    HotSpotReport, InstCategory, IpaReport, JsonlSink, LintReport, MemdepReport, ProveReport, Tier,
    TierLimit, TraceEvent, Vm, VmConfig,
};
use nomap_workloads::census::{run_census, CensusSpec, Kind};
use nomap_workloads::fleet::{corpus, report_summary, run_corpus_sharded, CorpusMerge};
use nomap_workloads::RunSpec;

const USAGE: &str = "usage:
  nomap run <file.js> [--arch <name>] [--tier <cap>] [--warmup N] [--stats]
  nomap trace <file.js> [--arch <name>] [--warmup N] [--ring N] [--last N] [--jsonl <path>]
  nomap profile <file.js> [--arch <name>] [--tier <cap>] [--warmup N] [--top N] [--json]
  nomap bench-diff <old> <new> [--threshold PCT]
  nomap lint <file.js> [--arch <name>] [--warmup N] [--json] [--deny-warnings]
  nomap prove <file.js> [--arch <name>] [--warmup N] [--census] [--json]
  nomap ipa <file.js> [--arch <name>] [--warmup N] [--json]
  nomap memdep <file.js> [--arch <name>] [--warmup N] [--json]
  nomap aborts <file.js> [--arch <name>] [--warmup N] [--top N] [--json] [--calibration]
  nomap aborts --contention [--arch <name>] [--jobs N] [--json]
  nomap census [lint|prove|ipa|memdep|aborts]... [--arch <name>] [--warmup N] [--jobs N] [--out <dir>]
  nomap disasm <file.js> <function> [--arch <name>] [--tier <baseline|dfg|ftl>]
  nomap corpus [--arch <name>] [--warmup N] [--jobs N] [--budget CYCLES]
  nomap hostprof [--arch <name>] [--warmup N] [--jobs N] [--top N] [--json] [--digrams] [--flame <path>] [--hostbench-dir <dir>]
  nomap archs";

/// A subcommand's outcome. `Err` carries the exit code of an error that
/// was already reported on stderr.
type Outcome = Result<ExitCode, ExitCode>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("trace") => cmd_trace(rest),
        Some("profile") => cmd_profile(rest),
        Some("bench-diff") => cmd_bench_diff(rest),
        Some("lint") => cmd_lint(rest),
        Some("prove") => cmd_prove(rest),
        Some("ipa") => cmd_ipa(rest),
        Some("memdep") => cmd_memdep(rest),
        Some("aborts") => cmd_aborts(rest),
        Some("census") => cmd_census(rest),
        Some("disasm") => cmd_disasm(rest),
        Some("corpus") => cmd_corpus(rest),
        Some("hostprof") => cmd_hostprof(rest),
        Some("archs") => {
            for a in Architecture::ALL {
                println!("{}", a.name());
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprintln!("{USAGE}");
            Err(ExitCode::from(2))
        }
    };
    outcome.unwrap_or_else(|code| code)
}

/// Reports a usage error: exit 2.
fn usage_error(e: impl Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::from(2)
}

/// Reports a runtime error: exit 1.
fn failure(e: impl Display) -> ExitCode {
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// Success unless `failed`.
fn status(failed: bool) -> Outcome {
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Flags that take a value. Any other `--` argument is a switch; anything
/// else is positional.
const VALUE_FLAGS: [&str; 13] = [
    "--arch",
    "--warmup",
    "--jobs",
    "--out",
    "--top",
    "--tier",
    "--ring",
    "--last",
    "--jsonl",
    "--budget",
    "--flame",
    "--hostbench-dir",
    "--threshold",
];

/// The bare arguments: neither flags nor flag values.
fn positionals(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a.as_str()) {
            it.next();
        } else if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

fn has_switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value after flag `name`, when given. A flag followed by nothing or
/// by another flag is a usage error.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v)),
        _ => Err(format!("{name}: missing value")),
    }
}

/// A numeric flag's value, when given.
fn parsed_flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag_value(args, name)?
        .map(|s| s.parse().map_err(|_| format!("{name}: expected a number, got `{s}`")))
        .transpose()
}

/// `--arch`, when given.
fn arch_flag(args: &[String]) -> Result<Option<Architecture>, String> {
    flag_value(args, "--arch")?
        .map(|s| {
            Architecture::ALL
                .into_iter()
                .find(|a| a.name().eq_ignore_ascii_case(s))
                .ok_or_else(|| format!("--arch: unknown architecture `{s}`"))
        })
        .transpose()
}

/// The first bare argument: the script path.
fn script(args: &[String]) -> Result<&str, String> {
    positionals(args).first().copied().ok_or_else(|| "missing script path".to_owned())
}

fn parse_tier_limit(s: &str) -> Option<TierLimit> {
    Some(match s.to_ascii_lowercase().as_str() {
        "interpreter" | "interp" => TierLimit::Interpreter,
        "baseline" => TierLimit::Baseline,
        "dfg" => TierLimit::Dfg,
        "ftl" => TierLimit::Ftl,
        _ => return None,
    })
}

/// Builds the VM for the script under `--arch` (default `NoMap`) and the
/// `--tier` cap.
fn build_vm(args: &[String]) -> Result<Vm, ExitCode> {
    let file = script(args).map_err(usage_error)?;
    let arch = arch_flag(args).map_err(usage_error)?;
    let mut config = VmConfig::new(arch.unwrap_or(Architecture::NoMap));
    if let Some(s) = flag_value(args, "--tier").map_err(usage_error)? {
        config.tier_limit = parse_tier_limit(s)
            .ok_or_else(|| usage_error(format!("--tier: unknown tier cap `{s}`")))?;
    }
    let src = std::fs::read_to_string(file).map_err(|e| failure(format!("{file}: {e}")))?;
    Vm::with_config(&src, config).map_err(failure)
}

/// Runs the script's top level, printing its output, then `run()` (when
/// defined) `calls` times.
fn warm(vm: &mut Vm, calls: u32, print_output: bool) -> Result<(), ExitCode> {
    vm.run_main().map_err(failure)?;
    if print_output {
        print!("{}", vm.output());
    }
    if vm.program.function_ids.contains_key("run") {
        for _ in 0..calls {
            vm.call("run", &[]).map_err(failure)?;
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Outcome {
    let warmup = parsed_flag(args, "--warmup").map_err(usage_error)?.unwrap_or(120);
    let mut vm = build_vm(args)?;
    warm(&mut vm, warmup, true)?;
    if vm.program.function_ids.contains_key("run") {
        vm.reset_stats();
        println!("run() = {:?}", vm.call("run", &[]).map_err(failure)?);
    }
    if has_switch(args, "--stats") {
        let s = &vm.stats;
        println!("--- steady-state statistics ({}) ---", vm.config.arch.name());
        println!("instructions : {}", s.total_insts());
        for c in InstCategory::ALL {
            println!("  {:<8}   : {}", format!("{c:?}"), s.insts(c));
        }
        println!(
            "cycles       : {} (TM {}, non-TM {})",
            s.total_cycles(),
            s.cycles_tm,
            s.cycles_non_tm
        );
        println!("checks       : {}", s.total_checks());
        for k in CheckKind::ALL {
            println!("  {:<9}  : {}", format!("{k:?}"), s.checks(k));
        }
        println!(
            "transactions : {} begun, {} committed, {} aborted",
            s.tx_begun,
            s.tx_committed,
            s.total_aborts()
        );
        println!("deopts       : {}", s.deopts);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Outcome {
    let warmup: u32 = parsed_flag(args, "--warmup").map_err(usage_error)?.unwrap_or(120);
    let ring = parsed_flag(args, "--ring").map_err(usage_error)?.unwrap_or(65536);
    let show_last = parsed_flag(args, "--last").map_err(usage_error)?.unwrap_or(40);
    let jsonl_path = flag_value(args, "--jsonl").map_err(usage_error)?;
    let mut vm = build_vm(args)?;
    vm.enable_tracing(ring);
    if let Some(path) = jsonl_path {
        let f = std::fs::File::create(path).map_err(|e| failure(format!("{path}: {e}")))?;
        vm.add_trace_sink(Box::new(JsonlSink::new(std::io::BufWriter::new(f))));
    }
    warm(&mut vm, warmup.saturating_add(1), true)?;
    vm.flush_trace();

    let events = vm.trace();
    let total = vm.trace_emitted();
    println!("--- event timeline ({} under {}) ---", total, vm.config.arch.name());
    if events.len() < total as usize {
        println!("(ring retained the most recent {} of {total} events)", events.len());
    }
    let skip = events.len().saturating_sub(show_last);
    if skip > 0 {
        println!("... {skip} earlier events (rerun with --last N to see more) ...");
    }
    for rec in &events[skip..] {
        println!("{}", rec.event.render(rec.seq, rec.cycles));
    }
    println!();
    println!("--- trace summary ---");
    print!("{}", vm.trace_metrics().summary());
    println!(
        "compiles: {} dfg, {} ftl; deopts: {}",
        vm.stats.dfg_compiles, vm.stats.ftl_compiles, vm.stats.deopts
    );
    if let Some(path) = jsonl_path {
        println!("jsonl: {total} events written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_profile(args: &[String]) -> Outcome {
    let warmup: u32 = parsed_flag(args, "--warmup").map_err(usage_error)?.unwrap_or(120);
    let top = parsed_flag(args, "--top").map_err(usage_error)?.unwrap_or(20);
    let as_json = has_switch(args, "--json");
    let mut vm = build_vm(args)?;
    // Profile the whole execution — warm-up included — so tier-up, deopt
    // replay and the §V-C retry ladder all show up in the attribution.
    vm.enable_profiling();
    warm(&mut vm, warmup.saturating_add(1), !as_json)?;
    let report =
        HotSpotReport::new(vm.profile().expect("profiling enabled").clone(), vm.profile_names())
            .with_stats_total(vm.stats.total_cycles());
    if as_json {
        println!("{}", report.to_json().render());
    } else {
        println!("--- cycle attribution ({}) ---", vm.config.arch.name());
        print!("{}", report.render_text(top));
    }
    Ok(ExitCode::SUCCESS)
}

/// Loads one `BENCH_*.json` file, or every `BENCH_*.json` under a
/// directory merged into one row set keyed by artifact-qualified bench
/// names.
fn load_bench_rows(path: &str) -> Result<BenchRows, String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    if !meta.is_dir() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        return BenchRows::parse(&text).map_err(|e| format!("{path}: {e}"));
    }
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{path}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{path}: no BENCH_*.json files"));
    }
    let mut merged = BenchRows::new("all");
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let rows = BenchRows::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        for r in &rows.rows {
            merged.push(&format!("{}/{}", rows.artifact, r.bench), &r.config, r.cycles, r.insts);
        }
    }
    Ok(merged)
}

fn cmd_bench_diff(args: &[String]) -> Outcome {
    let (&[old_path, new_path, ..], Ok(threshold_pct)) =
        (positionals(args).as_slice(), parsed_flag::<f64>(args, "--threshold"))
    else {
        return Err(usage_error(
            "usage: nomap bench-diff <old.json|dir> <new.json|dir> [--threshold PCT]",
        ));
    };
    let threshold_pct = threshold_pct.unwrap_or(2.0);
    let threshold = threshold_pct / 100.0;
    let old = load_bench_rows(old_path).map_err(failure)?;
    let new = load_bench_rows(new_path).map_err(failure)?;
    let diff = bench_diff(&old, &new, threshold);
    print!("{}", diff.render(threshold));
    if diff.is_ok() {
        println!("bench-diff OK: {} row(s) within {threshold_pct}% of baseline", new.rows.len());
    } else {
        println!(
            "bench-diff FAILED: {} regression(s), {} missing row(s) (threshold {threshold_pct}%)",
            diff.regressions.len(),
            diff.missing.len()
        );
    }
    status(!diff.is_ok())
}

/// The front half every single-file report mode shares: reads the script
/// and runs report `R` over it under `--arch` (default `NoMap`) after
/// `--warmup` (default 150) `run()` calls.
fn single_file<R: CorpusReport>(args: &[String]) -> Result<(&str, Architecture, R), ExitCode> {
    let file = script(args).map_err(usage_error)?;
    let arch = arch_flag(args).map_err(usage_error)?.unwrap_or(Architecture::NoMap);
    let warmup = parsed_flag(args, "--warmup").map_err(usage_error)?.unwrap_or(150);
    let src = std::fs::read_to_string(file).map_err(|e| failure(format!("{file}: {e}")))?;
    let report = R::from_source(&src, arch, warmup).map_err(failure)?;
    Ok((file, arch, report))
}

/// A single-file report's exit status: failure when its predicate fires.
fn report_status<R: CorpusReport>(report: &R) -> Outcome {
    match report.failures() {
        0 => Ok(ExitCode::SUCCESS),
        n => Err(failure(format!("{n} {}", R::FAILURE))),
    }
}

/// A single-file report mode: `--json` prints the report's JSON,
/// otherwise `render` prints its text.
fn cmd_report<R: CorpusReport>(args: &[String], render: impl FnOnce(Architecture, &R)) -> Outcome {
    let (_, arch, report) = single_file::<R>(args)?;
    if has_switch(args, "--json") {
        println!("{}", report.to_json(arch).render());
    } else {
        render(arch, &report);
    }
    report_status(&report)
}

fn cmd_lint(args: &[String]) -> Outcome {
    let (file, arch, report) = single_file::<LintReport>(args)?;
    let errors = report.failures();
    if has_switch(args, "--json") {
        for d in &report.diagnostics {
            println!("{}", diagnostic_json(d).render());
        }
        let summary: Vec<(&str, JsonValue)> = vec![
            ("functions", report.functions.into()),
            ("stages", report.stages.into()),
            ("findings", report.diagnostics.len().into()),
            ("errors", errors.into()),
            ("clean", report.clean().into()),
        ];
        println!("{}", obj(summary).render());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{file}: {} function(s), {} verification stage(s), {} finding(s) ({errors} error(s)) under {}",
            report.functions,
            report.stages,
            report.diagnostics.len(),
            arch.name()
        );
    }
    if has_switch(args, "--deny-warnings") && !report.diagnostics.is_empty() {
        return Err(ExitCode::FAILURE);
    }
    report_status(&report)
}

fn cmd_prove(args: &[String]) -> Outcome {
    cmd_report(args, |arch, report: &ProveReport| {
        if has_switch(args, "--census") {
            println!("--- check census ({}) ---", arch.name());
            print!("{}", report.render_census());
            for d in &report.diagnostics {
                println!("{d}");
            }
        }
        println!("{}", report.summary(arch));
    })
}

fn cmd_ipa(args: &[String]) -> Outcome {
    cmd_report(args, |arch, report: &IpaReport| {
        println!("--- interprocedural summary report ({}) ---", arch.name());
        print!("{}", report.render());
    })
}

fn cmd_memdep(args: &[String]) -> Outcome {
    cmd_report(args, |arch, report: &MemdepReport| {
        println!("--- memory-dependence transform census ({}) ---", arch.name());
        print!("{}", report.render());
    })
}

/// `nomap aborts` — abort forensics and the static-vs-dynamic footprint
/// calibration observatory for one script; the corpus sweep is
/// `nomap census aborts`.
fn cmd_aborts(args: &[String]) -> Outcome {
    if has_switch(args, "--contention") {
        return cmd_aborts_contention(args);
    }
    if positionals(args).is_empty() {
        return Err(usage_error("missing script path (the corpus sweep is `nomap census aborts`)"));
    }
    let top = parsed_flag(args, "--top").map_err(usage_error)?.unwrap_or(20);
    let top = if has_switch(args, "--calibration") { 0 } else { top };
    cmd_report(args, |arch, report: &AbortsReport| {
        println!("--- abort forensics ({}) ---", arch.name());
        print!("{}", report.render(top));
    })
}

/// `nomap aborts --contention` — runs every contention workload under
/// both placement policies through the sharded fleet and audits each
/// conflict blame record for soundness: the blamed agent must be a
/// different, existing agent, and the fault site must be present and lie
/// inside the aborting agent's shared-segment window. Stdout is
/// canonical-order and byte-identical for any `--jobs`; exits nonzero on
/// any diagnostic or shard failure.
fn cmd_aborts_contention(args: &[String]) -> Outcome {
    let arch = arch_flag(args).map_err(usage_error)?.unwrap_or(Architecture::NoMap);
    let fleet = FleetConfig::from_args(args).map_err(usage_error)?;
    let as_json = has_switch(args, "--json");
    let workloads = nomap_workloads::contention();
    let mut jobs = Vec::new();
    for w in &workloads {
        for policy in nomap_workloads::Placement::ALL {
            jobs.push((w.clone(), policy));
        }
    }
    let run = nomap_fleet::run_sharded(jobs.len(), &fleet, |i| {
        let (w, policy) = &jobs[i];
        nomap_workloads::run_contention(w, *policy, &nomap_workloads::ContentionSpec::steady(arch))
            .map_err(|e| format!("{}/{}: {e}", w.id, policy.key()))
    });
    let mut diags = 0usize;
    let mut failed = 0usize;
    let mut docs: Vec<JsonValue> = Vec::new();
    for (i, shard) in run.shards.iter().enumerate() {
        let (w, policy) = &jobs[i];
        match &shard.outcome {
            Ok(r) => {
                println!("{}", r.render());
                for d in &r.diagnostics {
                    println!("  {d}");
                }
                diags += r.diagnostics.len();
                if as_json {
                    docs.push(obj(vec![
                        ("id", w.id.into()),
                        ("policy", policy.key().into()),
                        ("conflicts", r.conflict_aborts().into()),
                        ("aborts", r.total_aborts().into()),
                        ("begun", r.stats.tx_begun.into()),
                        ("checksum", format!("{:#018x}", r.checksum).into()),
                        ("diags", (r.diagnostics.len() as u64).into()),
                    ]));
                }
            }
            Err(e) => {
                println!(
                    "contention {}/{} FAILED after {} attempt(s): {e}",
                    w.id,
                    policy.key(),
                    shard.attempts
                );
                failed += 1;
            }
        }
    }
    println!(
        "aborts --contention: {} runs under {}: {} diagnostic(s), {} failed",
        run.summary.shards,
        arch.name(),
        diags,
        failed
    );
    if as_json {
        let doc = obj(vec![
            ("arch", arch.name().into()),
            ("runs", JsonValue::Array(docs)),
            ("diags", (diags as u64).into()),
        ]);
        println!("{}", doc.render());
    }
    report_summary(&run.summary);
    status(diags > 0 || failed > 0)
}

/// `nomap census` — the static-vs-dynamic reports over the whole bundled
/// corpus. Each (architecture, workload) pair the requested reports need
/// is warmed once and feeds every report; documents come out in canonical
/// order, byte-identical for any `--jobs`. Exits nonzero when a shard
/// fails or any report's failure predicate fires.
fn cmd_census(args: &[String]) -> Outcome {
    let (spec, fleet, out) = census_args(args).map_err(usage_error)?;
    let census = run_census(&corpus(), &spec, &fleet);
    for e in &census.errors {
        eprintln!("error: {e}");
    }
    report_summary(&census.summary);
    match out {
        Some(dir) => {
            let dir = Path::new(dir);
            std::fs::create_dir_all(dir).map_err(|e| failure(format!("{}: {e}", dir.display())))?;
            for doc in &census.documents {
                for (ext, body) in [("txt", &doc.text), ("json", &doc.json)] {
                    let path = dir.join(format!("{}.{ext}", doc.name));
                    std::fs::write(&path, body)
                        .map_err(|e| failure(format!("{}: {e}", path.display())))?;
                }
            }
            eprintln!(
                "census: {} document(s) written to {}",
                census.documents.len(),
                dir.display()
            );
        }
        None => census.documents.iter().for_each(|doc| print!("{}", doc.text)),
    }
    status(!census.errors.is_empty())
}

/// Parses `nomap census` arguments: report kinds (all five when none is
/// named), `--arch`, `--warmup` (default 40), `--jobs` and `--out`.
fn census_args(args: &[String]) -> Result<(CensusSpec, FleetConfig, Option<&str>), String> {
    let (arch, warmup) = (arch_flag(args)?, parsed_flag(args, "--warmup")?.unwrap_or(40));
    let (fleet, out) = (FleetConfig::from_args(args)?, flag_value(args, "--out")?);
    let mut kinds = Vec::new();
    for name in positionals(args) {
        kinds.push(Kind::parse(name).ok_or_else(|| {
            let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
            format!("unknown census kind `{name}` (expected one of {})", known.join(", "))
        })?);
    }
    if kinds.is_empty() {
        kinds = Kind::ALL.to_vec();
    }
    Ok((CensusSpec { kinds, arch, warmup }, fleet, out))
}

fn cmd_disasm(args: &[String]) -> Outcome {
    let func = *positionals(args).get(1).ok_or_else(|| usage_error("missing function name"))?;
    let mut vm = build_vm(args)?;
    let tier = match flag_value(args, "--tier").map_err(usage_error)? {
        Some("baseline") => Tier::Baseline,
        Some("dfg") => Tier::Dfg,
        None | Some("ftl") => Tier::Ftl,
        Some(other) => return Err(usage_error(format!("--tier: unknown tier `{other}`"))),
    };
    vm.run_main().map_err(failure)?;
    if vm.program.function_ids.contains_key("run") {
        for _ in 0..150 {
            if vm.call("run", &[]).is_err() {
                break;
            }
        }
    }
    let text = vm.disassemble(func, tier).ok_or_else(|| {
        failure(format!("`{func}` has no {tier:?} code (not hot enough, or unknown function)"))
    })?;
    println!("; {} at {tier:?} under {}", func, vm.config.arch.name());
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

/// The steady-state corpus spec both corpus sweeps share: `--arch`
/// (default `NoMap`) and `--warmup` (default 120).
fn corpus_spec(args: &[String]) -> Result<RunSpec, ExitCode> {
    let mut spec =
        RunSpec::steady(arch_flag(args).map_err(usage_error)?.unwrap_or(Architecture::NoMap));
    spec.warmup = parsed_flag(args, "--warmup").map_err(usage_error)?.unwrap_or(120);
    Ok(spec)
}

/// `nomap corpus` — run every bundled workload (SunSpider, Kraken,
/// Shootout; 53 in all) through the sharded fleet harness and print one
/// canonical-order line per workload plus a merged corpus summary.
/// Scheduling telemetry (wall-times, queue occupancy) goes to stderr so
/// stdout stays byte-identical for any `--jobs` value.
fn cmd_corpus(args: &[String]) -> Outcome {
    let mut spec = corpus_spec(args)?;
    if let Some(cycles) = parsed_flag(args, "--budget").map_err(usage_error)? {
        spec = spec.with_budget(cycles);
    }
    let fleet = FleetConfig::from_args(args).map_err(usage_error)?;
    let specs: Vec<_> = corpus().into_iter().map(|w| (w, spec)).collect();
    let run = run_corpus_sharded(&specs, &fleet);
    for shard in &run.shards {
        let id = specs[shard.index].0.id;
        match &shard.outcome {
            Ok(r) => println!(
                "{:<6} checksum={:?} insts={} cycles={} commits={} aborts={}",
                id,
                r.checksum,
                r.stats.total_insts(),
                r.stats.total_cycles(),
                r.stats.tx_committed,
                r.stats.total_aborts()
            ),
            Err(e) => println!("{id:<6} FAILED after {} attempt(s): {e}", shard.attempts),
        }
    }
    let merged = CorpusMerge::from_runs(run.shards.iter().filter_map(|s| s.outcome.as_ref().ok()));
    if !merged.output.is_empty() {
        print!("{}", merged.output);
    }
    println!(
        "corpus: {} workloads under {}: {} insts, {} cycles, {} tx committed, {} profiled cycles, {} failed",
        run.summary.shards,
        spec.config.arch.name(),
        merged.stats.total_insts(),
        merged.stats.total_cycles(),
        merged.stats.tx_committed,
        merged.profile.ledger.total(),
        run.summary.failed
    );
    report_summary(&run.summary);
    status(run.summary.failed > 0)
}

/// Top-`top` rows of a census map, count-descending then name ascending —
/// the deterministic dynamic-frequency tables `hostprof` prints and the CI
/// host-observatory lane byte-diffs across `--jobs` values.
fn census_table(
    kind: &str,
    counts: &std::collections::BTreeMap<String, u64>,
    top: usize,
) -> String {
    let mut rows: Vec<(&String, &u64)> = counts.iter().collect();
    rows.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let mut out = String::new();
    out.push_str(&format!("{:<32} {:>14}\n", kind, "count"));
    for (name, n) in rows.into_iter().take(top) {
        out.push_str(&format!("{name:<32} {n:>14}\n"));
    }
    out
}

/// `nomap hostprof` — run the corpus under the host-time & allocation
/// observatory. Stdout carries only deterministic counters (byte-identical
/// for any `--jobs` value); wall-clock span tables, `host-span` trace
/// events and fleet scheduling telemetry go to stderr. Exits nonzero on
/// shard failure or a span-conservation violation (a parent span reporting
/// less wall time or allocation than the sum of its direct children).
fn cmd_hostprof(args: &[String]) -> Outcome {
    let spec = corpus_spec(args)?;
    let top = parsed_flag(args, "--top").map_err(usage_error)?.unwrap_or(32);
    let flame_path = flag_value(args, "--flame").map_err(usage_error)?;
    let hostbench_dir = flag_value(args, "--hostbench-dir").map_err(usage_error)?;
    let fleet = FleetConfig::from_args(args).map_err(usage_error)?;
    let as_json = has_switch(args, "--json");

    nomap_hostprof::reset();
    nomap_hostprof::set_enabled(true);
    let specs: Vec<_> = corpus().into_iter().map(|w| (w, spec)).collect();
    let run = run_corpus_sharded(&specs, &fleet);
    nomap_hostprof::set_enabled(false);

    for shard in &run.shards {
        if let Err(e) = &shard.outcome {
            let id = specs[shard.index].0.id;
            eprintln!("{id:<6} FAILED after {} attempt(s): {e}", shard.attempts);
        }
    }
    let merged = CorpusMerge::from_runs(run.shards.iter().filter_map(|s| s.outcome.as_ref().ok()));
    let report = nomap_hostprof::snapshot();
    let doc = || {
        nomap_hostprof::render_doc(
            "corpus",
            &report,
            &merged.metrics.opcodes,
            &merged.metrics.digrams,
        )
    };

    if has_switch(args, "--digrams") {
        print!("{}", census_table("digram", &merged.metrics.digrams, top));
    } else if as_json {
        print!("{}", doc());
    } else {
        println!("--- opcode census (dynamic counts, {}) ---", spec.config.arch.name());
        print!("{}", census_table("opcode", &merged.metrics.opcodes, top));
        println!();
        println!("--- digram census (dynamic counts, statically adjacent) ---");
        print!("{}", census_table("digram", &merged.metrics.digrams, top));
        println!();
        println!("--- host spans (deterministic columns) ---");
        print!("{}", report.render_deterministic());
    }

    eprintln!("--- host spans by wall time ---");
    eprint!("{}", report.render_wall());
    for (seq, (path, s)) in report.spans.iter().enumerate() {
        let ev = TraceEvent::HostSpan {
            path: path.clone(),
            count: s.count,
            wall_ns: s.wall_ns,
            allocs: s.allocs,
            alloc_bytes: s.alloc_bytes,
        };
        eprintln!("{}", ev.to_json(seq as u64, 0).render());
    }
    report_summary(&run.summary);

    let violations = report.conservation_violations();
    for v in &violations {
        eprintln!("conservation violation: {v}");
    }

    if let Some(path) = flame_path {
        std::fs::write(path, report.collapsed()).map_err(|e| failure(format!("{path}: {e}")))?;
        eprintln!("flamegraph: collapsed stacks written to {path}");
    }
    if let Some(dir) = hostbench_dir {
        let path = Path::new(dir).join("HOSTBENCH_corpus.json");
        std::fs::write(&path, doc()).map_err(|e| failure(format!("{}: {e}", path.display())))?;
        eprintln!("hostbench: host telemetry written to {}", path.display());
    }
    status(run.summary.failed > 0 || !violations.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn missing_arch_value_is_a_usage_error() {
        assert_eq!(arch_flag(&args("t.js --arch")), Err("--arch: missing value".to_owned()));
        assert_eq!(arch_flag(&args("--arch --jobs 2")), Err("--arch: missing value".to_owned()));
    }

    #[test]
    fn unknown_arch_is_a_usage_error() {
        let err = arch_flag(&args("--arch x.json")).unwrap_err();
        assert!(err.starts_with("--arch:"), "{err}");
        assert_eq!(arch_flag(&args("--arch nomap_rtm")), Ok(Some(Architecture::NoMapRtm)));
        assert_eq!(arch_flag(&args("t.js")), Ok(None));
    }

    #[test]
    fn missing_warmup_value_is_a_usage_error() {
        assert_eq!(
            parsed_flag::<u32>(&args("t.js --warmup"), "--warmup"),
            Err("--warmup: missing value".to_owned())
        );
    }

    #[test]
    fn malformed_warmup_is_a_usage_error() {
        let err = parsed_flag::<u32>(&args("t.js --warmup abc"), "--warmup").unwrap_err();
        assert!(err.starts_with("--warmup:"), "{err}");
        assert_eq!(parsed_flag::<u32>(&args("t.js --warmup 7"), "--warmup"), Ok(Some(7)));
    }

    #[test]
    fn missing_jobs_value_is_a_usage_error() {
        for line in ["--jobs", "prove --jobs --out dir"] {
            let err = census_args(&args(line)).unwrap_err();
            assert!(err.starts_with("--jobs:"), "{line}: {err}");
        }
    }

    #[test]
    fn malformed_jobs_is_a_usage_error() {
        for line in ["--jobs two", "--jobs 0"] {
            let err = census_args(&args(line)).unwrap_err();
            assert!(err.starts_with("--jobs:"), "{line}: {err}");
        }
    }

    #[test]
    fn flag_values_are_never_positionals() {
        let a = args("prove --out x.json --jobs 2 --arch Base --warmup 40 --json memdep");
        assert_eq!(positionals(&a), ["prove", "memdep"]);
        let (spec, fleet, out) = census_args(&a).unwrap();
        assert_eq!(spec.kinds, [Kind::Prove, Kind::Memdep]);
        assert_eq!(spec.arch, Some(Architecture::Base));
        assert_eq!(spec.warmup, 40);
        assert_eq!(fleet.jobs, 2);
        assert_eq!(out, Some("x.json"));
    }

    #[test]
    fn census_defaults_to_every_kind_and_rejects_unknown_ones() {
        let none = args("");
        let (spec, _, out) = census_args(&none).unwrap();
        assert_eq!(spec.kinds, Kind::ALL);
        assert_eq!((spec.arch, spec.warmup, out), (None, 40, None));
        let err = census_args(&args("lint_corpus")).unwrap_err();
        assert!(err.contains("unknown census kind `lint_corpus`"), "{err}");
    }
}
