//! The corpus programs each workload runs, and their batch sizes.

use nomap_workloads::{evaluation_suites, shootout, sunspider};

/// Steady-state programs with the `run()` calls per timed batch (about
/// 25 ms each under NoMap on the reference machine). Together they span
/// transactional loops (S03, nbody, heapsort, sieve), deep recursion with
/// heavy allocation (fibo, takfp), object churn that lives in the runtime
/// (binarytrees) and a working set larger than the simulated L1 (K07).
pub const STEADY: [(&str, u32); 8] = [
    ("S03", 8),
    ("nbody", 12),
    ("heapsort", 6),
    ("sieve", 11),
    ("fibo", 18),
    ("takfp", 1),
    ("binarytrees", 45),
    ("K07", 4),
];

/// The only corpus programs that take check aborts at steady state, with
/// their batch sizes; the `aborts` workload runs them beside contention.
pub const ABORTING: [(&str, u32); 2] = [("histmix", 7), ("K08", 2)];

/// SunSpider is the start-up suite. S20 is left out: it alone costs about
/// as much as the other 25 programs together.
pub fn cold_start() -> Vec<&'static str> {
    sunspider().into_iter().map(|w| w.id).filter(|id| *id != "S20").collect()
}

/// MiniJS source of a corpus program.
///
/// # Panics
///
/// Panics on an id that is not in the corpus (the lists above are fixed).
pub fn source(id: &str) -> &'static str {
    evaluation_suites()
        .into_iter()
        .chain(shootout())
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("`{id}` is not a corpus program"))
        .source
}

/// Every corpus program any workload runs, with its source.
pub fn all_corpus_programs() -> Vec<(&'static str, &'static str)> {
    let mut ids: Vec<&str> = STEADY.iter().chain(&ABORTING).map(|(id, _)| *id).collect();
    ids.extend(cold_start());
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(|id| (id, source(id))).collect()
}
