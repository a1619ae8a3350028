//! The NoMap virtual machine: a four-tier MiniJS engine (Interpreter →
//! Baseline → DFG → FTL) with profiling, on-stack-replacement exits,
//! hardware-transaction support and per-category execution statistics —
//! everything needed to regenerate the paper's tables and figures.
//!
//! # Quickstart
//!
//! ```
//! use nomap_vm::{Architecture, Vm};
//!
//! let src = "
//!     function sum(a, n) {
//!         var s = 0;
//!         for (var i = 0; i < n; i++) { s += a[i]; }
//!         return s;
//!     }
//!     var data = new Array(100);
//!     for (var j = 0; j < 100; j++) { data[j] = j; }
//!     function run() { return sum(data, 100); }
//! ";
//! let mut vm = Vm::new(src, Architecture::NoMap)?;
//! vm.run_main()?;                       // top-level setup
//! let warm = vm.call("run", &[])?;      // interpreter tier
//! for _ in 0..200 { vm.call("run", &[])?; }  // tiers up to FTL
//! vm.reset_stats();
//! let v = vm.call("run", &[])?;         // measured, steady state
//! assert_eq!(v, warm);
//! assert!(vm.stats.total_insts() > 0);
//! # Ok::<(), nomap_vm::VmError>(())
//! ```

mod aborts;
mod corpus;
mod error;
mod exec;
mod interp;
mod ipa_report;
mod lint;
mod memdep_report;
mod profiler;
mod prove;
mod tiering;
mod vm;

pub use aborts::{AbortSite, AbortsFnRow, AbortsReport};
pub use corpus::{CorpusReport, Warmed};
pub use error::VmError;
pub use ipa_report::{IpaFnReport, IpaReport};
pub use lint::{diagnostic_json, LintReport};
pub use memdep_report::{MemdepFnReport, MemdepReport};
pub use nomap_core::{Architecture, AuditOptions, TxnScope};
pub use nomap_hostprof::OpcodeCensus;
pub use nomap_ir::passes::PassConfig;
pub use nomap_machine::{
    AbortReason, CheckKind, CycleLedger, ExecStats, InstCategory, RegionKey, RegionKind,
    SharedSegment, Tier, TxCharacter, SHARED_LINE_WORDS,
};
pub use nomap_profile::{bench_diff, BenchRows, HotSpotReport, ProfileData};
pub use nomap_runtime::{Value, ARR_STORAGE};
pub use nomap_trace::{
    obj, JsonValue, JsonlSink, Metrics, Recorded, TraceEvent, TraceSink, Tracer,
};
pub use nomap_verify::{DiagCode, Diagnostic, Severity};
pub use prove::{CensusClass, CensusRow, ProveReport};
pub use tiering::{TierLimit, TierThresholds};
pub use vm::{AgentLink, Vm, VmConfig};
