//! The corpus-report protocol: one warmed VM per (program, architecture)
//! that every static-vs-dynamic report reads.
//!
//! `nomap lint`, `prove`, `ipa`, `memdep` and `aborts` all start the same
//! way: run the guest's top level once, call `run()` (when defined)
//! `warmup` times so the profiles carry the speculation a real run would
//! JIT, then recompile every function and join the static verdicts with
//! what the warm-up observed. [`Warmed`] is that warm-up, done once;
//! [`CorpusReport`] is what each report adds on top of it. Reports only
//! recompile, they never run the guest again, so any number of them can
//! share one `Warmed` and the order they run in does not matter.

use std::cell::RefCell;
use std::rc::Rc;

use nomap_core::{Architecture, TxnScope};
use nomap_trace::{JsonValue, TraceEvent, TraceSink};

use crate::error::VmError;
use crate::vm::{Vm, VmConfig};

/// A guest program after the census warm-up.
pub struct Warmed {
    /// The VM, with profiling and tracing still enabled.
    pub(crate) vm: Vm,
    /// Every `tx-abort-blame` and `ladder-step` event of the warm-up, in
    /// emission order, with its cycle stamp.
    pub(crate) events: Vec<(u64, TraceEvent)>,
}

/// Collects blame and ladder events without the ring's capacity bound.
struct Collector {
    events: Rc<RefCell<Vec<(u64, TraceEvent)>>>,
}

impl TraceSink for Collector {
    fn record(&mut self, _seq: u64, cycles: u64, event: &TraceEvent) {
        match event {
            TraceEvent::TxAbortBlame { .. } | TraceEvent::LadderStep { .. } => {
                self.events.borrow_mut().push((cycles, event.clone()));
            }
            _ => {}
        }
    }
}

impl Warmed {
    /// Builds `source` under `arch` and warms it: the top level runs once,
    /// then `run()` (when defined) is called `warmup` times, stopping at
    /// the first guest error. Guest errors do not fail the warm-up —
    /// partial profiles are still better than none.
    ///
    /// The pass sanitizer and footprint seeding are off, so the warm-up
    /// behaves exactly like an unaudited run and the §V-C ladder the
    /// abort report observes is the real one.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Compile`] when `source` does not parse.
    pub fn new(source: &str, arch: Architecture, warmup: u32) -> Result<Self, VmError> {
        let mut config = VmConfig::new(arch);
        config.sanitize = false;
        config.seed_scope = false;
        let mut vm = Vm::with_config(source, config)?;
        vm.enable_profiling();
        vm.enable_tracing(1); // the collector sink retains what the reports need
        let events = Rc::new(RefCell::new(Vec::new()));
        vm.add_trace_sink(Box::new(Collector { events: Rc::clone(&events) }));
        let _ = vm.run_main();
        if vm.program.function_ids.contains_key("run") {
            for _ in 0..warmup {
                if vm.call("run", &[]).is_err() {
                    break;
                }
            }
        }
        let events = events.take();
        Ok(Warmed { vm, events })
    }

    /// The architecture the program was warmed under.
    pub fn arch(&self) -> Architecture {
        self.vm.config.arch
    }

    /// The FTL transaction scope recompilations start from: the whole
    /// loop nest under a transactional architecture, none under `Base`.
    pub(crate) fn ftl_scope(&self) -> TxnScope {
        if self.arch().uses_transactions() {
            TxnScope::Nest
        } else {
            TxnScope::None
        }
    }
}

/// One static-vs-dynamic report over a warmed program, and how its corpus
/// census renders: one row per (architecture, workload) pair, a closing
/// summary line per document, one JSON document beside it, and a failure
/// predicate that fails the census.
pub trait CorpusReport: Sized {
    /// The census kind (`nomap census <KIND>` and the single-file mode).
    const KIND: &'static str;
    /// Architectures a corpus census sweeps when no `--arch` is given, in
    /// row order.
    const ARCHS: &'static [Architecture];
    /// What [`CorpusReport::failures`] counts, for the error message.
    const FAILURE: &'static str;

    /// Analyses one warmed program. Must not run the guest.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Jit`] when IR construction fails during
    /// recompilation.
    fn analyze(w: &mut Warmed) -> Result<Self, VmError>;

    /// Warms `source` under `arch` and analyses it (the single-file
    /// modes).
    ///
    /// # Errors
    ///
    /// See [`Warmed::new`] and [`CorpusReport::analyze`].
    fn from_source(source: &str, arch: Architecture, warmup: u32) -> Result<Self, VmError> {
        Self::analyze(&mut Warmed::new(source, arch, warmup)?)
    }

    /// The document (`--out` file stem) the rows under `arch` belong to.
    /// Architectures that share a stem share one document and one
    /// summary line.
    fn document(arch: Architecture) -> String;

    /// The census lines for workload `id` under `arch`.
    fn lines(&self, id: &str, arch: Architecture) -> Vec<String>;

    /// A document's closing totals line over its successful reports.
    /// `archs` are the document's architectures.
    fn summary_line(archs: &[Architecture], reports: &[&Self]) -> String;

    /// The whole report as JSON.
    fn to_json(&self, arch: Architecture) -> JsonValue;

    /// How often the report's failure predicate fires; nonzero fails the
    /// census and the single-file mode.
    fn failures(&self) -> usize;
}

/// Architecture names joined for a summary line (`NoMap`, `Base+NoMap`).
pub(crate) fn arch_names(archs: &[Architecture]) -> String {
    archs.iter().map(|a| a.name()).collect::<Vec<_>>().join("+")
}
