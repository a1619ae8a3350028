//! Hardware transactional memory models.
//!
//! * [`HtmKind::Rot`] — IBM POWER8 Rollback-Only Transactions (paper §V-A):
//!   only the **write** footprint is buffered (here: in the 256 KB L2);
//!   commits need no write-buffer drain; a Sticky Overflow Flag (SOF) is
//!   checked at the outermost `XEnd`.
//! * [`HtmKind::Rtm`] — Intel Restricted Transactional Memory (§VI-B):
//!   writes must fit the 32 KB L1D, **reads** must fit the 256 KB L2,
//!   `XEnd` stalls for the write buffer, transactional reads are slower,
//!   and there is no SOF.
//!
//! Capacity is modelled deterministically: a transaction aborts when the
//! speculative lines mapping to any one cache set exceed that cache's
//! associativity — the precise condition under which real hardware could no
//! longer keep the footprint cached.

use std::collections::{HashMap, HashSet};

use nomap_runtime::Memory;

use crate::cache::CacheConfig;
use crate::inst::CheckKind;

/// Which HTM the machine provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HtmKind {
    /// No HTM (the `Base` configuration).
    None,
    /// Lightweight rollback-only transactions (write-footprint in L2, SOF).
    Rot,
    /// Heavyweight Intel RTM (writes in L1D, reads in L2, no SOF).
    Rtm,
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// An explicit `AbortIf` fired (a formerly-SMP-guarding check failed).
    Check(CheckKind),
    /// The speculative footprint no longer fits the cache.
    Capacity,
    /// The sticky overflow flag was set when `XEnd` executed.
    StickyOverflow,
    /// The access touched a shared-segment line speculatively written by
    /// another agent's in-flight transaction; `agent` identifies the
    /// conflicting writer.
    Conflict {
        /// Id of the agent whose speculative write owns the line.
        agent: u32,
    },
}

/// Abort-reason class names in [`crate::ExecStats`] `tx_aborts` slot order.
pub const ABORT_CLASSES: [&str; 4] = ["check", "capacity", "sticky-overflow", "conflict"];

/// Dense index of an abort reason's class — the `ExecStats::tx_aborts`
/// slot it is tallied in.
pub fn abort_reason_index(reason: AbortReason) -> usize {
    match reason {
        AbortReason::Check(_) => 0,
        AbortReason::Capacity => 1,
        AbortReason::StickyOverflow => 2,
        AbortReason::Conflict { .. } => 3,
    }
}

/// Canonical coarse name of an abort reason (`check`, `capacity`,
/// `sticky-overflow`, `conflict`): the JSONL `reason` member and the
/// `ExecStats` slot names.
pub fn abort_reason_class(reason: AbortReason) -> &'static str {
    ABORT_CLASSES[abort_reason_index(reason)]
}

/// Canonical short name for a check kind (the suffix of `check:<kind>`
/// bookkeeping keys; `nomap_trace::check_name` delegates here).
pub fn check_kind_key(kind: CheckKind) -> &'static str {
    match kind {
        CheckKind::Bounds => "bounds",
        CheckKind::Overflow => "overflow",
        CheckKind::Type => "type",
        CheckKind::Property => "property",
        CheckKind::Other => "other",
    }
}

/// Canonical composite abort bookkeeping key: check aborts keep their kind
/// (`check:bounds`), the rest use their class name. The `ProfileData` and
/// trace `Metrics` abort tables are keyed by it.
pub fn abort_reason_key(reason: AbortReason) -> String {
    match reason {
        AbortReason::Check(k) => format!("check:{}", check_kind_key(k)),
        other => abort_reason_class(other).to_owned(),
    }
}

/// The faulting access of a capacity or conflict abort: exactly where the
/// speculation stopped being viable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Word address of the access that overflowed a set (capacity) or hit
    /// a foreign speculatively-written line (conflict).
    pub word_addr: u64,
    /// Cache line (tag address) of that access.
    pub line: u64,
    /// Index of the victim set.
    pub set: u64,
    /// Speculative lines the victim set was asked to hold, counting the
    /// faulting line — the *true demanded* way count: at least
    /// associativity + 1 for a capacity fault (later same-set insertions
    /// in the same batch raise it further), and the accessor's own
    /// occupancy of the set (possibly 0) for a conflict fault.
    pub set_ways: u32,
    /// True when the faulting access was a write; false for an RTM
    /// read-set overflow or a conflicting read.
    pub is_write: bool,
}

/// Forensic record of one abort, captured at the point of failure —
/// before rollback destroys the speculative state it describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortBlame {
    /// The faulting access (capacity aborts only; check and SOF aborts
    /// have no faulting address).
    pub fault: Option<FaultSite>,
    /// Distinct lines in the write set when the abort fired.
    pub write_lines: u64,
    /// Write footprint in bytes when the abort fired.
    pub write_bytes: u64,
    /// Distinct lines in the read set (RTM only; 0 when the model does
    /// not bound reads).
    pub read_lines: u64,
    /// Read footprint in bytes when the abort fired.
    pub read_bytes: u64,
    /// Dynamic instructions executed inside the doomed transaction.
    pub instructions: u64,
}

/// Per-transaction characterization, reported at commit (Table IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxOutcome {
    /// Distinct cache lines written × line size.
    pub write_footprint_bytes: u64,
    /// Distinct cache lines read × line size (RTM only; 0 when the model
    /// does not bound reads).
    pub read_footprint_bytes: u64,
    /// Maximum number of speculative ways any one set needed.
    pub max_assoc: u32,
    /// Dynamic instructions executed inside the transaction.
    pub instructions: u64,
}

/// Geometry + policy for one HTM flavour.
#[derive(Debug, Clone, Copy)]
pub struct HtmModel {
    /// Which flavour.
    pub kind: HtmKind,
    /// Cache level bounding the write footprint.
    pub write_cache: CacheConfig,
    /// Cache level bounding the read footprint (RTM only).
    pub read_cache: Option<CacheConfig>,
    /// Whether the ISA provides the Sticky Overflow Flag.
    pub has_sof: bool,
}

impl HtmModel {
    /// The paper's lightweight HTM: ROT with writes bounded by L2 and SOF
    /// support.
    pub fn rot() -> Self {
        HtmModel {
            kind: HtmKind::Rot,
            write_cache: CacheConfig::l2(),
            read_cache: None,
            has_sof: true,
        }
    }

    /// Intel RTM: writes bounded by L1D, reads by L2, no SOF.
    pub fn rtm() -> Self {
        HtmModel {
            kind: HtmKind::Rtm,
            write_cache: CacheConfig::l1d(),
            read_cache: Some(CacheConfig::l2()),
            has_sof: false,
        }
    }

    /// No HTM at all.
    pub fn none() -> Self {
        HtmModel {
            kind: HtmKind::None,
            write_cache: CacheConfig::l2(),
            read_cache: None,
            has_sof: false,
        }
    }
}

/// Live state of the (flattened) transaction nest.
#[derive(Debug, Clone, Default)]
pub struct TxState {
    depth: u32,
    undo: Vec<(u64, u64)>,
    write_lines: HashSet<u64>,
    write_sets: HashMap<u64, u32>,
    read_lines: HashSet<u64>,
    read_sets: HashMap<u64, u32>,
    max_assoc: u32,
    sof: bool,
    blame: Option<AbortBlame>,
    /// Instructions executed since the outermost XBegin (maintained by the
    /// executor).
    pub instructions: u64,
}

impl TxState {
    /// Creates idle (non-transactional) state.
    pub fn new() -> Self {
        Self::default()
    }

    /// True while inside a transaction.
    pub fn active(&self) -> bool {
        self.depth > 0
    }

    /// Enters a transaction (flattened nesting: inner begins only bump the
    /// depth). Clears SOF at the outermost begin, per §V-B.
    pub fn begin(&mut self) {
        if self.depth == 0 {
            self.undo.clear();
            self.write_lines.clear();
            self.write_sets.clear();
            self.read_lines.clear();
            self.read_sets.clear();
            self.max_assoc = 0;
            self.sof = false;
            self.blame = None;
            self.instructions = 0;
        }
        self.depth += 1;
    }

    /// Sets the sticky overflow flag (integer overflow inside the
    /// transaction).
    pub fn set_sof(&mut self) {
        if self.depth > 0 {
            self.sof = true;
        }
    }

    /// Whether SOF is currently set.
    pub fn sof(&self) -> bool {
        self.sof
    }

    /// Records a transactional write. Returns `Err(Capacity)` when the
    /// write footprint exceeds what `model.write_cache` can buffer.
    pub fn on_write(
        &mut self,
        model: &HtmModel,
        word_addr: u64,
        old: u64,
    ) -> Result<(), AbortReason> {
        debug_assert!(self.active());
        self.undo.push((word_addr, old));
        let byte = word_addr * nomap_runtime::WORD_BYTES;
        let line = model.write_cache.line_of(byte);
        if self.write_lines.insert(line) {
            let set = model.write_cache.set_of(byte);
            let n = self.write_sets.entry(set).or_insert(0);
            *n += 1;
            self.max_assoc = self.max_assoc.max(*n);
            if *n > model.write_cache.ways {
                let set_ways = *n;
                self.note_capacity_fault(
                    model,
                    FaultSite { word_addr, line, set, set_ways, is_write: true },
                );
                return Err(AbortReason::Capacity);
            }
        }
        Ok(())
    }

    /// Records a transactional read (only bounded under RTM).
    pub fn on_read(&mut self, model: &HtmModel, word_addr: u64) -> Result<(), AbortReason> {
        debug_assert!(self.active());
        let Some(read_cache) = model.read_cache else {
            return Ok(());
        };
        let byte = word_addr * nomap_runtime::WORD_BYTES;
        let line = read_cache.line_of(byte);
        if self.read_lines.insert(line) {
            let set = read_cache.set_of(byte);
            let n = self.read_sets.entry(set).or_insert(0);
            *n += 1;
            if *n > read_cache.ways {
                let set_ways = *n;
                self.note_capacity_fault(
                    model,
                    FaultSite { word_addr, line, set, set_ways, is_write: false },
                );
                return Err(AbortReason::Capacity);
            }
        }
        Ok(())
    }

    /// Registers a capacity fault. The first fault owns the blame record;
    /// later same-set, same-direction insertions (the executor keeps
    /// feeding the footprint until the abort lands so the undo log stays
    /// complete) only raise `set_ways` to the true demanded count.
    fn note_capacity_fault(&mut self, model: &HtmModel, fault: FaultSite) {
        match &mut self.blame {
            Some(blame) => {
                if let Some(f) = blame.fault.as_mut() {
                    if f.is_write == fault.is_write && f.set == fault.set {
                        f.set_ways = f.set_ways.max(fault.set_ways);
                    }
                }
            }
            None => self.blame = Some(self.blame_at(model, Some(fault))),
        }
    }

    /// Captures blame for a cross-agent conflict abort: the faulting
    /// access pinned to the shared line another agent's in-flight
    /// transaction speculatively wrote. The footprint snapshot is the
    /// accessor's own; `set_ways` is its occupancy of the victim set
    /// (possibly 0 — conflicts are not capacity pressure). First blame
    /// wins, matching the capacity path.
    pub fn capture_conflict(&mut self, model: &HtmModel, word_addr: u64, is_write: bool) {
        if self.blame.is_some() {
            return;
        }
        let cache = if is_write {
            model.write_cache
        } else {
            model.read_cache.unwrap_or(model.write_cache)
        };
        let byte = word_addr * nomap_runtime::WORD_BYTES;
        let line = cache.line_of(byte);
        let set = cache.set_of(byte);
        let occupancy = if is_write { &self.write_sets } else { &self.read_sets };
        let set_ways = occupancy.get(&set).copied().unwrap_or(0);
        self.blame = Some(
            self.blame_at(model, Some(FaultSite { word_addr, line, set, set_ways, is_write })),
        );
    }

    /// Leaves one nesting level. At the outermost level, checks SOF and
    /// either commits (returning the transaction's characterization) or
    /// requests an abort. Inner ends return `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`AbortReason::StickyOverflow`] when SOF is set at the
    /// outermost end.
    pub fn end(&mut self, model: &HtmModel) -> Result<Option<TxOutcome>, AbortReason> {
        debug_assert!(self.active());
        if self.depth > 1 {
            self.depth -= 1;
            return Ok(None);
        }
        if model.has_sof && self.sof {
            return Err(AbortReason::StickyOverflow);
        }
        self.depth = 0;
        let outcome = TxOutcome {
            write_footprint_bytes: self.write_lines.len() as u64 * model.write_cache.line_bytes,
            read_footprint_bytes: self.read_footprint_bytes(model),
            max_assoc: self.max_assoc,
            instructions: self.instructions,
        };
        self.undo.clear();
        Ok(Some(outcome))
    }

    /// Aborts the whole nest: rolls back every buffered write (newest
    /// first) and resets to idle. Returns the number of undone writes.
    pub fn abort(&mut self, mem: &mut Memory) -> usize {
        let n = self.undo.len();
        for (addr, old) in self.undo.drain(..).rev() {
            mem.poke(addr, old);
        }
        self.depth = 0;
        self.sof = false;
        self.blame = None;
        self.write_lines.clear();
        self.write_sets.clear();
        self.read_lines.clear();
        self.read_sets.clear();
        n
    }

    /// Current write footprint in bytes (for the §V-C placement estimator).
    pub fn write_footprint_bytes(&self, model: &HtmModel) -> u64 {
        self.write_lines.len() as u64 * model.write_cache.line_bytes
    }

    /// Current read footprint in bytes (0 when the model does not bound
    /// reads).
    pub fn read_footprint_bytes(&self, model: &HtmModel) -> u64 {
        match model.read_cache {
            Some(rc) => self.read_lines.len() as u64 * rc.line_bytes,
            None => 0,
        }
    }

    /// The blame record captured by the access that failed, if any. Read
    /// it before [`TxState::abort`] — rollback clears it along with the
    /// state it describes.
    pub fn blame(&self) -> Option<AbortBlame> {
        self.blame
    }

    /// Blame for an abort with no faulting access (a check fired, or SOF
    /// at `XEnd`): the current speculative-footprint snapshot.
    pub fn snapshot_blame(&self, model: &HtmModel) -> AbortBlame {
        self.blame_at(model, None)
    }

    fn blame_at(&self, model: &HtmModel, fault: Option<FaultSite>) -> AbortBlame {
        AbortBlame {
            fault,
            write_lines: self.write_lines.len() as u64,
            write_bytes: self.write_footprint_bytes(model),
            read_lines: self.read_lines.len() as u64,
            read_bytes: self.read_footprint_bytes(model),
            instructions: self.instructions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_reports_footprint() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        // Three writes in two lines (words 0,1 share a 64B line; word 8 is
        // the next line).
        tx.on_write(&model, 0x10_0000, 0).unwrap();
        tx.on_write(&model, 0x10_0001, 0).unwrap();
        tx.on_write(&model, 0x10_0008, 0).unwrap();
        let out = tx.end(&model).unwrap().unwrap();
        assert_eq!(out.write_footprint_bytes, 128);
        assert_eq!(out.max_assoc, 1);
        assert!(!tx.active());
    }

    #[test]
    fn rot_capacity_by_set_conflict() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        let sets = model.write_cache.sets();
        let words_per_line = model.write_cache.line_bytes / 8;
        // Write 8 lines that all map to set 0: fine. The 9th aborts.
        for i in 0..8 {
            tx.on_write(&model, i * sets * words_per_line, 0).unwrap();
        }
        let r = tx.on_write(&model, 8 * sets * words_per_line, 0);
        assert_eq!(r, Err(AbortReason::Capacity));
    }

    #[test]
    fn rtm_read_capacity() {
        let model = HtmModel::rtm();
        let mut tx = TxState::new();
        tx.begin();
        let read_cache = model.read_cache.unwrap();
        let sets = read_cache.sets();
        let words_per_line = read_cache.line_bytes / 8;
        for i in 0..8 {
            tx.on_read(&model, i * sets * words_per_line).unwrap();
        }
        assert_eq!(tx.on_read(&model, 8 * sets * words_per_line), Err(AbortReason::Capacity));
    }

    #[test]
    fn rot_ignores_reads() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        for i in 0..100_000 {
            tx.on_read(&model, i * 8).unwrap();
        }
    }

    #[test]
    fn sof_aborts_at_outermost_end() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        tx.begin(); // nested
        tx.set_sof();
        assert_eq!(tx.end(&model), Ok(None)); // inner end: no SOF check
        assert_eq!(tx.end(&model), Err(AbortReason::StickyOverflow));
    }

    #[test]
    fn rtm_has_no_sof() {
        let model = HtmModel::rtm();
        let mut tx = TxState::new();
        tx.begin();
        tx.set_sof();
        assert!(tx.end(&model).unwrap().is_some());
    }

    #[test]
    fn abort_rolls_back_in_reverse() {
        let model = HtmModel::rot();
        let mut mem = Memory::new();
        let a = mem.alloc(2).unwrap();
        mem.poke(a, 111);
        mem.poke(a + 1, 222);
        let mut tx = TxState::new();
        tx.begin();
        // Two writes to the same address: undo must restore the *first* old
        // value.
        tx.on_write(&model, a, 111).unwrap();
        mem.poke(a, 1);
        tx.on_write(&model, a, 1).unwrap();
        mem.poke(a, 2);
        tx.on_write(&model, a + 1, 222).unwrap();
        mem.poke(a + 1, 9);
        let undone = tx.abort(&mut mem);
        assert_eq!(undone, 3);
        assert_eq!(mem.peek(a), 111);
        assert_eq!(mem.peek(a + 1), 222);
        assert!(!tx.active());
    }

    #[test]
    fn canonical_abort_keys_are_stable() {
        assert_eq!(abort_reason_key(AbortReason::Capacity), "capacity");
        assert_eq!(abort_reason_key(AbortReason::StickyOverflow), "sticky-overflow");
        assert_eq!(abort_reason_key(AbortReason::Conflict { agent: 7 }), "conflict");
        assert_eq!(abort_reason_key(AbortReason::Check(CheckKind::Bounds)), "check:bounds");
        for kind in CheckKind::ALL {
            assert_eq!(
                abort_reason_key(AbortReason::Check(kind)),
                format!("check:{}", check_kind_key(kind))
            );
            assert_eq!(abort_reason_class(AbortReason::Check(kind)), "check");
        }
        for (i, class) in ABORT_CLASSES.iter().enumerate() {
            let reason = match i {
                0 => AbortReason::Check(CheckKind::Other),
                1 => AbortReason::Capacity,
                2 => AbortReason::StickyOverflow,
                _ => AbortReason::Conflict { agent: 0 },
            };
            assert_eq!(abort_reason_index(reason), i);
            assert_eq!(abort_reason_class(reason), *class);
        }
    }

    #[test]
    fn commit_reports_read_footprint_under_rtm() {
        let model = HtmModel::rtm();
        let mut tx = TxState::new();
        tx.begin();
        // Two read lines, one write line.
        tx.on_read(&model, 0x20_0000).unwrap();
        tx.on_read(&model, 0x20_0008).unwrap();
        tx.on_write(&model, 0x30_0000, 0).unwrap();
        let out = tx.end(&model).unwrap().unwrap();
        assert_eq!(out.read_footprint_bytes, 128);
        assert_eq!(out.write_footprint_bytes, 64);
    }

    #[test]
    fn rot_commit_reports_zero_read_footprint() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        tx.on_read(&model, 0x20_0000).unwrap();
        tx.on_write(&model, 0x30_0000, 0).unwrap();
        let out = tx.end(&model).unwrap().unwrap();
        assert_eq!(out.read_footprint_bytes, 0);
    }

    #[test]
    fn write_capacity_captures_blame_at_the_fault() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        let sets = model.write_cache.sets();
        let words_per_line = model.write_cache.line_bytes / 8;
        for i in 0..8 {
            tx.on_write(&model, i * sets * words_per_line, 0).unwrap();
        }
        assert!(tx.blame().is_none(), "no blame before a failed access");
        let fault_word = 8 * sets * words_per_line;
        assert_eq!(tx.on_write(&model, fault_word, 0), Err(AbortReason::Capacity));
        let blame = tx.blame().expect("capacity abort must leave blame");
        let fault = blame.fault.expect("capacity blame carries the faulting access");
        assert_eq!(fault.word_addr, fault_word);
        assert_eq!(fault.line, model.write_cache.line_of(fault_word * 8));
        assert_eq!(fault.set, 0);
        assert_eq!(fault.set_ways, model.write_cache.ways + 1);
        assert!(fault.is_write);
        assert_eq!(blame.write_lines, 9);
        assert_eq!(blame.write_bytes, 9 * model.write_cache.line_bytes);
        assert_eq!(blame.read_lines, 0);
        // Later same-set insertions (the executor drains the whole access
        // batch before the abort lands) raise set_ways to the true
        // demanded count; the rest of the record keeps its at-fault
        // snapshot and the faulting access stays the first one.
        for i in 9..12 {
            assert_eq!(
                tx.on_write(&model, i * sets * words_per_line, 0),
                Err(AbortReason::Capacity)
            );
        }
        let blame = tx.blame().unwrap();
        let fault = blame.fault.unwrap();
        assert_eq!(fault.word_addr, fault_word, "first fault owns the blame");
        assert_eq!(fault.set_ways, model.write_cache.ways + 4, "true demanded way count");
        assert_eq!(blame.write_lines, 9, "footprint snapshot stays at-fault");
        // A different set overflowing does not disturb the victim set's tally.
        let other_set_word = words_per_line; // set 1
        for i in 0..=8 {
            let _ = tx.on_write(&model, other_set_word + i * sets * words_per_line, 0);
        }
        assert_eq!(tx.blame().unwrap().fault.unwrap().set_ways, model.write_cache.ways + 4);
        let mut mem = Memory::new();
        tx.abort(&mut mem);
        assert!(tx.blame().is_none(), "abort must clear blame");
    }

    #[test]
    fn read_capacity_captures_read_fault_blame() {
        let model = HtmModel::rtm();
        let mut tx = TxState::new();
        tx.begin();
        tx.on_write(&model, 0x40_0000, 0).unwrap();
        let read_cache = model.read_cache.unwrap();
        let sets = read_cache.sets();
        let words_per_line = read_cache.line_bytes / 8;
        for i in 0..8 {
            tx.on_read(&model, i * sets * words_per_line).unwrap();
        }
        assert_eq!(tx.on_read(&model, 8 * sets * words_per_line), Err(AbortReason::Capacity));
        let blame = tx.blame().unwrap();
        let fault = blame.fault.unwrap();
        assert!(!fault.is_write);
        assert_eq!(fault.set_ways, read_cache.ways + 1);
        assert_eq!(blame.read_lines, 9);
        assert_eq!(blame.read_bytes, 9 * read_cache.line_bytes);
        assert_eq!(blame.write_lines, 1);
        // Continued same-set read traffic raises the demanded count.
        assert_eq!(tx.on_read(&model, 9 * sets * words_per_line), Err(AbortReason::Capacity));
        assert_eq!(tx.blame().unwrap().fault.unwrap().set_ways, read_cache.ways + 2);
    }

    #[test]
    fn conflict_blame_pins_the_shared_line() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        tx.on_write(&model, 0x10_0000, 0).unwrap();
        tx.instructions = 7;
        let fault_word = 0x10_0000u64; // same line as the own write
        tx.capture_conflict(&model, fault_word, false);
        let blame = tx.blame().expect("conflict capture must leave blame");
        let fault = blame.fault.expect("conflict blame carries the faulting access");
        assert_eq!(fault.word_addr, fault_word);
        assert_eq!(fault.line, model.write_cache.line_of(fault_word * 8));
        assert!(!fault.is_write);
        // ROT does not track reads: the accessor holds nothing in the set.
        assert_eq!(fault.set_ways, 0);
        assert_eq!(blame.write_lines, 1);
        assert_eq!(blame.instructions, 7);
        // First blame wins; a later capture must not overwrite it.
        tx.capture_conflict(&model, 0x20_0000, true);
        assert_eq!(tx.blame().unwrap().fault.unwrap().word_addr, fault_word);
        // A conflicting *write* reports the accessor's own set occupancy.
        let mut tx2 = TxState::new();
        tx2.begin();
        tx2.on_write(&model, fault_word, 0).unwrap();
        tx2.capture_conflict(&model, fault_word + 1, true);
        let f2 = tx2.blame().unwrap().fault.unwrap();
        assert!(f2.is_write);
        assert_eq!(f2.set_ways, 1);
    }

    #[test]
    fn snapshot_blame_has_no_fault_but_current_footprints() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        tx.on_write(&model, 0x10_0000, 0).unwrap();
        tx.on_write(&model, 0x10_0008, 0).unwrap();
        tx.instructions = 42;
        let blame = tx.snapshot_blame(&model);
        assert!(blame.fault.is_none());
        assert_eq!(blame.write_lines, 2);
        assert_eq!(blame.write_bytes, 128);
        assert_eq!(blame.instructions, 42);
    }

    #[test]
    fn begin_clears_stale_blame() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        let sets = model.write_cache.sets();
        let words_per_line = model.write_cache.line_bytes / 8;
        for i in 0..=8 {
            let _ = tx.on_write(&model, i * sets * words_per_line, 0);
        }
        assert!(tx.blame().is_some());
        let mut mem = Memory::new();
        tx.abort(&mut mem);
        tx.begin();
        assert!(tx.blame().is_none());
    }

    /// Deterministic splitmix64 stream for the rollback property test.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn abort_restores_memory_and_clears_sw_bits_for_random_writes() {
        use crate::cache::CacheSim;

        // Random transactional write sequences, mirroring the executor's
        // write path (undo log + SW marks in the cache sim). The address
        // range spans far more than 8 lines per set so LRU set-conflict
        // evictions occur; abort must still restore memory byte-identically
        // and the flash-clear must leave zero SW bits.
        for (seed, model) in [(1u64, HtmModel::rot()), (2, HtmModel::rtm()), (99, HtmModel::rot())]
        {
            let mut rng = seed;
            let mut mem = Memory::new();
            let span = 16 * 1024u64; // words: 128 KB, > both caches' sets×ways
            let base = mem.alloc(span).unwrap();
            for i in 0..span {
                mem.poke(base + i, splitmix64(&mut rng));
            }
            let snapshot: Vec<u64> = (0..span).map(|i| mem.peek(base + i)).collect();

            let mut tx = TxState::new();
            let mut cache = CacheSim::new();
            tx.begin();
            for _ in 0..4096 {
                let addr = base + splitmix64(&mut rng) % span;
                let old = mem.peek(addr);
                // The executor records the write first, then lands it; the
                // capacity verdict does not gate the memory update here
                // because the abort path must cope either way.
                let _ = tx.on_write(&model, addr, old);
                mem.poke(addr, splitmix64(&mut rng));
                let in_l1 = model.write_cache.size_bytes <= 32 * 1024;
                cache.access_word(addr, in_l1, true);
                if tx.blame().is_some() {
                    break;
                }
            }
            let undone = tx.abort(&mut mem);
            cache.flash_clear_sw();
            assert!(undone > 0, "seed {seed}: no writes buffered");
            for (i, want) in snapshot.iter().enumerate() {
                assert_eq!(mem.peek(base + i as u64), *want, "seed {seed}: word {i} not restored");
            }
            assert_eq!(cache.l1.sw_line_count(), 0, "seed {seed}: SW bits left in L1");
            assert_eq!(cache.l2.sw_line_count(), 0, "seed {seed}: SW bits left in L2");
            assert!(!tx.active());
        }
    }

    #[test]
    fn commit_keeps_memory_and_clears_sw_bits_for_random_writes() {
        use crate::cache::CacheSim;

        // Commit-path twin of the abort property test: random transactional
        // write sequences sized to fit both models' capacity, mirroring the
        // executor's write path (undo log + SW marks) and its XEnd
        // flash-clear. Commit must keep every new value and leave zero SW
        // bits at either cache level — conflict detection reads those bits,
        // so a leak here would fabricate conflicts.
        for (seed, model) in [(3u64, HtmModel::rot()), (4, HtmModel::rtm()), (77, HtmModel::rtm())]
        {
            let mut rng = seed;
            let mut mem = Memory::new();
            // 16 KB of words: at most 257 contiguous lines over ≥64 sets,
            // well under 8 ways per set for both L1D and L2 geometries.
            let span = 2048u64;
            let base = mem.alloc(span).unwrap();
            for i in 0..span {
                mem.poke(base + i, splitmix64(&mut rng));
            }
            let mut expected: Vec<u64> = (0..span).map(|i| mem.peek(base + i)).collect();

            let mut tx = TxState::new();
            let mut cache = CacheSim::new();
            tx.begin();
            for _ in 0..1024 {
                let addr = base + splitmix64(&mut rng) % span;
                let old = mem.peek(addr);
                tx.on_write(&model, addr, old).unwrap();
                let val = splitmix64(&mut rng);
                mem.poke(addr, val);
                expected[(addr - base) as usize] = val;
                let in_l1 = model.write_cache.size_bytes <= 32 * 1024;
                cache.access_word(addr, in_l1, true);
            }
            assert!(cache.l2.sw_line_count() > 0, "seed {seed}: test never marked SW bits");
            let out = tx.end(&model).unwrap().expect("footprint fits: commit");
            cache.flash_clear_sw(); // XEnd's 5-cycle flash-clear
            assert!(out.write_footprint_bytes > 0);
            for (i, want) in expected.iter().enumerate() {
                assert_eq!(mem.peek(base + i as u64), *want, "seed {seed}: word {i} lost");
            }
            assert_eq!(cache.l1.sw_line_count(), 0, "seed {seed}: SW bits left in L1");
            assert_eq!(cache.l2.sw_line_count(), 0, "seed {seed}: SW bits left in L2");
            assert!(!tx.active());
        }
    }

    #[test]
    fn begin_clears_sof() {
        let model = HtmModel::rot();
        let mut tx = TxState::new();
        tx.begin();
        tx.set_sof();
        let mut mem = Memory::new();
        tx.abort(&mut mem);
        tx.begin();
        assert!(!tx.sof());
        assert!(tx.end(&model).unwrap().is_some());
    }
}
