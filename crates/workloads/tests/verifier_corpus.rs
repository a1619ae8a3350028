//! Corpus-wide pass-sanitizer check: every bundled workload (SunSpider,
//! Kraken, Shootout) must lint verifier-clean — the strict SSA verifier,
//! transaction-safety checker and bounds translation validator find no
//! errors at any stage of any tier's compilation, with realistic profiles
//! from a short warmup. Capacity-overflow *warnings* are allowed (some
//! kernels really do overwhelm the HTM; that is what the §V-C ladder is
//! for).

use nomap_vm::{Architecture, CorpusReport, LintReport};
use nomap_workloads::{kraken, shootout, sunspider, Workload};

fn lint_all(arch: Architecture, warmup: u32) {
    let suites: [&[Workload]; 3] = [&sunspider(), &kraken(), &shootout()];
    let mut linted = 0;
    for w in suites.iter().flat_map(|s| s.iter()) {
        let report = LintReport::from_source(w.source, arch, warmup)
            .unwrap_or_else(|e| panic!("{} failed to lint: {e}", w.id));
        assert!(
            report.clean(),
            "{} ({}) is not verifier-clean under {arch:?}: {:#?}",
            w.id,
            w.name,
            report.errors().collect::<Vec<_>>()
        );
        assert!(report.stages > 0, "{}: no verification ran", w.id);
        linted += 1;
    }
    assert!(linted >= 51, "corpus shrank? linted only {linted}");
}

#[test]
fn corpus_is_verifier_clean_under_nomap() {
    lint_all(Architecture::NoMap, 10);
}

#[test]
fn corpus_is_verifier_clean_under_rtm_and_bc() {
    // No-SOF hardware and the strip-all-checks best case exercise the
    // sof-unsupported and post-strip verifier paths.
    lint_all(Architecture::NoMapRtm, 3);
    lint_all(Architecture::NoMapBc, 3);
}
