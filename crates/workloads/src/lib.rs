//! Benchmark workloads for the NoMap reproduction.
//!
//! The paper evaluates the SunSpider (26) and Kraken (14) suites plus the
//! Shootout suite for its motivating Figure 1. The original benchmark
//! sources cannot be reproduced verbatim, so each program here is a
//! MiniJS kernel modelled on its namesake's *category* — the same mix of
//! array traffic, int32 overflow exposure, property access, floating-point
//! math, string work and recursion — sized for simulation. Suite membership
//! (the `AvgS` subsets of paper Table III) is encoded per workload.
//!
//! # Example
//!
//! ```
//! use nomap_workloads::{sunspider, run_workload, RunSpec};
//! use nomap_vm::Architecture;
//!
//! let w = &sunspider()[0]; // S01
//! let out = run_workload(w, RunSpec::quick(Architecture::Base))?;
//! assert!(out.stats.total_insts() > 0);
//! # Ok::<(), nomap_vm::VmError>(())
//! ```

pub mod census;
pub mod contention;
pub mod fleet;
mod harness;
mod kraken;
pub mod native;
mod shootout;
mod sunspider;

pub use contention::{
    audit_conflicts, contention, run_contention, ConflictBlame, ContentionRun, ContentionSpec,
    ContentionWorkload, Placement,
};
pub use harness::{run_workload, RunOutput, RunSpec};
pub use kraken::kraken;
pub use shootout::shootout;
pub use sunspider::sunspider;

/// Which suite a workload belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SunSpider (S01–S26).
    SunSpider,
    /// Kraken (K01–K14).
    Kraken,
    /// Shootout (Figure 1).
    Shootout,
}

/// One benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short id (`"S13"`, `"K08"`, `"fibo"`).
    pub id: &'static str,
    /// Original benchmark this kernel is modelled on.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// Included in the paper's `AvgS` subset (Table III).
    pub in_avgs: bool,
    /// MiniJS source; defines globals and a `run()` entry point returning a
    /// numeric checksum.
    pub source: &'static str,
}

/// All SunSpider + Kraken workloads (the paper's evaluation set).
pub fn evaluation_suites() -> Vec<Workload> {
    let mut v = sunspider();
    v.extend(kraken());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_paper() {
        assert_eq!(sunspider().len(), 26);
        assert_eq!(kraken().len(), 14);
        assert_eq!(shootout().len(), 13);
    }

    #[test]
    fn avgs_membership_matches_table_iii() {
        let s: Vec<&str> = sunspider().iter().filter(|w| w.in_avgs).map(|w| w.id).collect();
        assert_eq!(
            s,
            [
                "S01", "S03", "S04", "S05", "S06", "S07", "S10", "S11", "S12", "S13", "S14", "S15",
                "S16", "S18", "S19", "S20"
            ]
        );
        let k: Vec<&str> = kraken().iter().filter(|w| w.in_avgs).map(|w| w.id).collect();
        assert_eq!(k, ["K01", "K05", "K06", "K07", "K08", "K11", "K12", "K13", "K14"]);
    }

    #[test]
    fn all_sources_parse() {
        for w in evaluation_suites().iter().chain(shootout().iter()) {
            nomap_bytecode::compile_program(w.source).unwrap_or_else(|e| panic!("{}: {e}", w.id));
        }
    }
}
