//! The corpus census over three of the cheapest workloads: every report's
//! rows equal the workloads' lines in the committed corpus results, the
//! documents are identical for any worker count, and `--arch` restricts
//! the sweep to one warm-up per workload.

use nomap_fleet::FleetConfig;
use nomap_vm::Architecture;
use nomap_workloads::census::{run_census, Census, CensusSpec, Kind};
use nomap_workloads::fleet::corpus;
use nomap_workloads::Workload;

const CHEAP: [&str; 3] = ["S22", "S24", "S25"];

fn cheap() -> Vec<Workload> {
    corpus().into_iter().filter(|w| CHEAP.contains(&w.id)).collect()
}

/// The lines of `results/<name>.txt` that name one of the cheap workloads.
fn committed_rows(name: &str) -> Vec<String> {
    let path = format!("{}/../../results/{name}.txt", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .filter(|l| l.split_whitespace().any(|t| CHEAP.contains(&t)))
        .map(str::to_owned)
        .collect()
}

fn names(census: &Census) -> Vec<&str> {
    census.documents.iter().map(|d| d.name.as_str()).collect()
}

#[test]
fn every_report_matches_the_committed_rows_at_any_jobs() {
    let workloads = cheap();
    let spec = CensusSpec { kinds: Kind::ALL.to_vec(), arch: None, warmup: 40 };
    let one = run_census(&workloads, &spec, &FleetConfig::with_jobs(1));
    assert!(one.errors.is_empty(), "{:?}", one.errors);
    // Base, NoMap, NoMap_BC and NoMap_RTM: each warmed once per workload.
    assert_eq!(one.summary.shards, 4 * CHEAP.len());
    assert_eq!(
        names(&one),
        [
            "lint_nomap",
            "lint_nomap_rtm",
            "lint_nomap_bc",
            "prove_corpus_base",
            "prove_corpus_nomap",
            "ipa_census",
            "memdep_census",
            "abort_census"
        ]
    );
    for doc in &one.documents {
        let mut lines: Vec<&str> = doc.text.lines().collect();
        let summary = lines.pop().expect("a summary line");
        if doc.name.starts_with("lint_") {
            // The corpus lints clean: no error rows.
            assert!(lines.is_empty(), "{}", doc.text);
            assert!(summary.starts_with("linted 3 workloads under NoMap"), "{summary}");
        } else {
            assert_eq!(lines, committed_rows(&doc.name), "{}", doc.name);
        }
        assert!(doc.json.starts_with("{\"census\":"), "{}", doc.name);
    }

    let two = run_census(&workloads, &spec, &FleetConfig::with_jobs(2));
    assert!(two.errors.is_empty(), "{:?}", two.errors);
    assert_eq!(one.documents, two.documents);
}

#[test]
fn arch_restricts_every_report_to_one_warm_up_per_workload() {
    let workloads = cheap();
    let spec = CensusSpec {
        kinds: vec![Kind::Memdep, Kind::Prove],
        arch: Some(Architecture::NoMap),
        warmup: 40,
    };
    let census = run_census(&workloads, &spec, &FleetConfig::sequential());
    assert!(census.errors.is_empty(), "{:?}", census.errors);
    assert_eq!(census.summary.shards, CHEAP.len());
    assert_eq!(names(&census), ["prove_corpus_nomap", "memdep_census"]);
    let memdep = &census.documents[1].text;
    let rows: Vec<&str> = memdep.lines().filter(|l| l.starts_with("NoMap ")).collect();
    let committed = committed_rows("memdep_census");
    let expected: Vec<&str> =
        committed.iter().map(String::as_str).filter(|l| l.starts_with("NoMap ")).collect();
    assert_eq!(rows, expected);
    assert_eq!(memdep.lines().count(), CHEAP.len() + 1, "{memdep}");
}
