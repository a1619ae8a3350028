//! Command line of the NoMap host-speed benchmark.
//!
//! ```text
//! nomap-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! nomap-benchmark compare <A> <B>
//! nomap-benchmark expected
//! ```
//!
//! A run prints a header line, detail lines and, last, one JSON result.
//! A traced run also writes its spans to `benchmark/out/`.

use std::process::ExitCode;

use nomap_benchmark::{compare, oracle, run, spans, Options, Workload};

#[global_allocator]
static ALLOC: nomap_hostprof::CountingAlloc = nomap_hostprof::CountingAlloc;

const USAGE: &str =
    "usage: nomap-benchmark --workload <steady-nomap|steady-base|cold-start|observed|aborts> \
                     [--seed N] [--seconds S] [--trace 0|1]\n\
                     \x20      nomap-benchmark compare <A> <B>\n\
                     \x20      nomap-benchmark expected";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        Some("expected") if args.len() == 1 => expected(),
        _ => match parse(&args) {
            Ok(opts) => bench(&opts),
            Err(msg) => {
                eprintln!("{msg}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options::new(Workload::SteadyNomap, 1, 15.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn bench(opts: &Options) -> ExitCode {
    println!(
        "{} workload={} seed={} trace={} seconds={}",
        compare::HEADER,
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        opts.seconds
    );
    let out = match run(opts) {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("nomap-benchmark: {msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "reference kernel: best R = {:.6} s, R0 = {:.6} s, checksum {}; each time is normalised \
         by the best R within {} s of it",
        out.ref_s,
        nomap_benchmark::reference::R0_S,
        if out.ref_ok { "ok" } else { "WRONG" },
        nomap_benchmark::reference::WINDOW_S
    );
    for note in &out.notes {
        println!("{note}");
    }
    for (name, raw) in &out.raw {
        println!("raw {name} = {raw}");
    }
    for failure in &out.failures {
        println!("failure: {failure}");
    }
    for problem in spans::check_well_formed(&out.spans) {
        println!("span error: {problem}");
    }
    if opts.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let file = format!("{}-seed{}.spans.jsonl", opts.workload.name(), opts.seed);
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(format!("{dir}/{file}"), spans::to_jsonl(&out.spans)));
        if let Err(e) = written {
            eprintln!("nomap-benchmark: cannot write benchmark/out/{file}: {e}");
            return ExitCode::FAILURE;
        }
        println!("spans: {} written to benchmark/out/{file}", out.spans.len());
    }
    println!("{}", out.result_json());
    ExitCode::SUCCESS
}

fn compare_files(a: &str, b: &str) -> ExitCode {
    let bench_json = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| -> Result<Vec<compare::Row>, String> {
        let rules = compare::bounds(&read(bench_json)?)?;
        let set_a = compare::parse_transcript(&read(a)?)?;
        let set_b = compare::parse_transcript(&read(b)?)?;
        Ok(compare::compare(&rules, &set_a, &set_b))
    })();
    match result {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("nomap-benchmark compare: {msg}");
            ExitCode::from(2)
        }
    }
}

fn expected() -> ExitCode {
    match oracle::generate() {
        Ok(o) => {
            print!("{}", o.render());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("nomap-benchmark expected: {msg}");
            ExitCode::FAILURE
        }
    }
}
