//! The VM-side cycle-attribution profiler state.
//!
//! [`nomap_profile::ProfileData`] is the passive data model; this module
//! holds the live context the executor needs to *fill* it: which guest
//! frame is running (so runtime-helper and memory cycles have an owner) and
//! whether the current frame is a Baseline re-execution after a
//! transactional abort or a deoptimization (so replay cycles land in the
//! `txn-retry-ladder` / `deopt-replay` regions instead of `main`).
//!
//! The profiler is optional (`Vm::enable_profiling`) and observation-only:
//! with it disabled every charge site degenerates to the exact pre-existing
//! `ExecStats` update, and with it enabled neither `ExecStats` nor program
//! results change — only the ledger fills in. The VM routes every cycle
//! through one choke point (`Vm::add_cycles`), which is what makes the
//! conservation invariant (ledger total == `ExecStats::total_cycles()`)
//! structural rather than aspirational.

use nomap_machine::{CheckKind, RegionKey, RegionKind, Tier};
use nomap_profile::ProfileData;

/// Counts kept in dense slots between folds into keyed maps. The executor
/// counts on every accounting flush, memory access and check; adding to a
/// slot costs far less than a map lookup, and the maps end up with the
/// same entries and sums: addition commutes, and zero is never added, as
/// the maps skip zero charges too.
#[derive(Debug)]
pub(crate) struct Tally<K> {
    counts: Vec<u64>,
    /// Every nonzero slot once, with its key.
    touched: Vec<(usize, K)>,
}

impl<K> Default for Tally<K> {
    fn default() -> Self {
        Tally { counts: Vec::new(), touched: Vec::new() }
    }
}

impl<K: Copy> Tally<K> {
    /// Adds `n` to `slot`, which stands for `key`.
    #[inline]
    pub fn add(&mut self, slot: usize, key: K, n: u64) {
        if n == 0 {
            return;
        }
        if slot >= self.counts.len() {
            self.counts.resize(slot + 1, 0);
        }
        let count = &mut self.counts[slot];
        if *count == 0 {
            self.touched.push((slot, key));
        }
        *count += n;
    }

    /// Hands every nonzero count to `f` with its key and zeroes it.
    pub fn drain(&mut self, mut f: impl FnMut(K, u64)) {
        for (slot, key) in self.touched.drain(..) {
            f(key, std::mem::take(&mut self.counts[slot]));
        }
    }
}

/// Tiers per function in a dense slot table.
const TIERS: usize = 5;

/// Dense index of `(func, tier)`; [`RegionKey::OTHER_FUNC`] takes slot 0.
#[inline]
pub(crate) fn func_tier_slot(func: u32, tier: Tier) -> usize {
    let tier = match tier {
        Tier::Interpreter => 0,
        Tier::Baseline => 1,
        Tier::Dfg => 2,
        Tier::Ftl => 3,
        Tier::Runtime => 4,
    };
    func.wrapping_add(1) as usize * TIERS + tier
}

/// Region kinds per (function, tier) in a dense slot table.
const KINDS: usize = 6 + CheckKind::ALL.len();

#[inline]
fn region_slot(key: RegionKey) -> usize {
    let kind = match key.kind {
        RegionKind::Main => 0,
        RegionKind::TxnBody => 1,
        RegionKind::TxnRetryLadder => 2,
        RegionKind::Compile => 3,
        RegionKind::DeoptReplay => 4,
        RegionKind::Other => 5,
        RegionKind::Check(k) => 6 + k.index(),
    };
    func_tier_slot(key.func, key.tier) * KINDS + kind
}

#[inline]
fn check_slot(func: u32, kind: CheckKind) -> usize {
    func.wrapping_add(1) as usize * CheckKind::ALL.len() + kind.index()
}

/// Why the current frame is executing: straight-line progress, the §V-C
/// retry ladder (Baseline re-execution after a transactional abort), or a
/// deoptimization replay (Baseline re-execution after an OSR exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayMode {
    /// Ordinary forward execution.
    Normal,
    /// Re-executing in Baseline after a transactional abort.
    TxnRetry,
    /// Re-executing in Baseline after a deoptimization.
    DeoptReplay,
}

/// Live profiling state owned by the VM when profiling is enabled.
#[derive(Debug)]
pub(crate) struct Profiler {
    /// The profile being collected.
    pub data: ProfileData,
    /// Stack of (function id, tier) for the guest frames currently
    /// executing; the top owns runtime-helper and memory cycles.
    pub ctx: Vec<(u32, Tier)>,
    /// Replay mode of the currently executing frame. Callees inherit it:
    /// work done on behalf of a retry/replay is part of its cost.
    pub mode: ReplayMode,
    /// Cycle charges, instruction credits and executed checks not yet in
    /// `data`; [`Profiler::fold`] moves them there when a host call
    /// returns.
    cycles: Tally<RegionKey>,
    insts: Tally<(u32, Tier)>,
    checks: Tally<(u32, CheckKind)>,
}

impl Profiler {
    pub fn new() -> Self {
        Profiler {
            data: ProfileData::new(),
            ctx: Vec::new(),
            mode: ReplayMode::Normal,
            cycles: Tally::default(),
            insts: Tally::default(),
            checks: Tally::default(),
        }
    }

    /// Charges `cycles` to an attribution scope.
    #[inline]
    pub fn charge(&mut self, key: RegionKey, cycles: u64) {
        self.cycles.add(region_slot(key), key, cycles);
    }

    /// Credits `n` dynamic instructions to (func, tier).
    #[inline]
    pub fn record_insts(&mut self, func: u32, tier: Tier, n: u64) {
        self.insts.add(func_tier_slot(func, tier), (func, tier), n);
    }

    /// Records one executed check of `kind` in `func`.
    #[inline]
    pub fn record_check(&mut self, func: u32, kind: CheckKind) {
        self.checks.add(check_slot(func, kind), (func, kind), 1);
    }

    /// Moves the tallies into `data`.
    pub fn fold(&mut self) {
        let data = &mut self.data;
        self.cycles.drain(|key, n| data.charge(key, n));
        self.insts.drain(|(func, tier), n| data.record_insts(func, tier, n));
        self.checks.drain(|(func, kind), n| data.record_checks(func, kind, n));
    }

    /// Clears the profile (measurement-window reset).
    pub fn reset(&mut self) {
        self.fold();
        self.data.reset();
    }

    /// The frame cycles should be attributed to (the `<vm>` bucket outside
    /// any guest frame, e.g. top-level compilation triggers).
    #[inline]
    pub fn ctx_top(&self) -> (u32, Tier) {
        self.ctx.last().copied().unwrap_or((RegionKey::OTHER_FUNC, Tier::Runtime))
    }

    /// Region kind for ordinary execution cycles: transactional work is
    /// `txn-body`; outside a transaction the frame's replay mode decides.
    #[inline]
    pub fn exec_kind(&self, in_tx: bool) -> RegionKind {
        if in_tx {
            RegionKind::TxnBody
        } else {
            match self.mode {
                ReplayMode::Normal => RegionKind::Main,
                ReplayMode::TxnRetry => RegionKind::TxnRetryLadder,
                ReplayMode::DeoptReplay => RegionKind::DeoptReplay,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_drains_each_nonzero_slot_once_with_its_sum() {
        let mut t = Tally::default();
        t.add(7, 'a', 2);
        t.add(0, 'b', 0);
        t.add(7, 'a', 3);
        t.add(2, 'c', 1);
        let mut out = Vec::new();
        t.drain(|k, n| out.push((k, n)));
        assert_eq!(out, [('a', 5), ('c', 1)]);
        t.drain(|k, n| out.push((k, n)));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distinct_keys_never_share_a_slot() {
        let funcs = [RegionKey::OTHER_FUNC, 0, 1, 2, 57];
        let tiers = [Tier::Interpreter, Tier::Baseline, Tier::Dfg, Tier::Ftl, Tier::Runtime];
        let mut kinds = vec![
            RegionKind::Main,
            RegionKind::TxnBody,
            RegionKind::TxnRetryLadder,
            RegionKind::Compile,
            RegionKind::DeoptReplay,
            RegionKind::Other,
        ];
        kinds.extend(CheckKind::ALL.iter().map(|&k| RegionKind::Check(k)));
        let mut regions = std::collections::BTreeMap::new();
        let mut func_tiers = std::collections::BTreeMap::new();
        let mut checks = std::collections::BTreeMap::new();
        for &func in &funcs {
            for &tier in &tiers {
                assert!(func_tiers.insert(func_tier_slot(func, tier), (func, tier)).is_none());
                for &kind in &kinds {
                    let key = RegionKey { func, tier, kind };
                    assert!(regions.insert(region_slot(key), key).is_none());
                }
            }
            for &kind in &CheckKind::ALL {
                assert!(checks.insert(check_slot(func, kind), (func, kind)).is_none());
            }
        }
    }
}
