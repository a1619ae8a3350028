//! The raw profile a VM run produces: the cycle ledger plus the per-site
//! tables the hot-spot report ranks.

use std::collections::BTreeMap;

use nomap_machine::{AbortReason, CheckKind, CycleLedger, RegionKey, Tier};
use nomap_trace::Histogram;

/// One deoptimization site: a (function, SMP) pair with the bytecode
/// offset the Baseline frame resumed at and the check kind that fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeoptSite {
    /// Bytecode offset of the Baseline re-entry.
    pub bc: u32,
    /// Check kind that fired (the kind of the *first* hit is kept; sites
    /// are keyed by SMP, whose kind never changes across hits).
    pub kind: CheckKind,
    /// Times this SMP was taken.
    pub count: u64,
}

/// Everything the VM-side profiler collects for one measurement window.
///
/// All fields merge commutatively, mirroring `ExecStats::merge`, so
/// per-shard profiles can be folded into one suite profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileData {
    /// Exact cycle attribution (total == `ExecStats::total_cycles()`).
    pub ledger: CycleLedger,
    /// Dynamic instructions per (function, tier) — the denominator for
    /// check densities.
    pub insts: BTreeMap<(u32, Tier), u64>,
    /// Executed checks per (function, check kind).
    pub checks: BTreeMap<(u32, CheckKind), u64>,
    /// Deoptimization sites keyed by (function, SMP id).
    pub deopt_sites: BTreeMap<(u32, u32), DeoptSite>,
    /// Transaction aborts per (function, reason name); the function is the
    /// transaction owner (`RegionKey::OTHER_FUNC` when unowned).
    pub aborts: BTreeMap<(u32, String), u64>,
    /// Write-footprint sketch (bytes at abort) per aborting function.
    pub abort_footprint: BTreeMap<u32, Histogram>,
    /// Committed transactions per owner function.
    pub tx_commits: BTreeMap<u32, u64>,
    /// Write-footprint sketch (bytes at commit) per owner function.
    pub commit_footprint: BTreeMap<u32, Histogram>,
    /// Read-footprint sketch (bytes at commit) per owner function
    /// (nonzero only when the HTM bounds reads, i.e. RTM).
    pub commit_read_footprint: BTreeMap<u32, Histogram>,
    /// Capacity aborts per (function, victim-set speculative ways) — the
    /// set-pressure table the abort-forensics report joins against the
    /// static footprint estimator.
    pub abort_set_pressure: BTreeMap<(u32, u32), u64>,
    /// Read-footprint sketch (bytes at abort) per aborting function.
    pub abort_read_footprint: BTreeMap<u32, Histogram>,
}

impl ProfileData {
    /// Empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `cycles` to an attribution scope (delegates to the ledger).
    #[inline]
    pub fn charge(&mut self, key: RegionKey, cycles: u64) {
        self.ledger.charge(key, cycles);
    }

    /// Credits `n` dynamic instructions to (func, tier).
    #[inline]
    pub fn record_insts(&mut self, func: u32, tier: Tier, n: u64) {
        if n > 0 {
            *self.insts.entry((func, tier)).or_insert(0) += n;
        }
    }

    /// Records `n` executed checks of `kind` in `func`.
    #[inline]
    pub fn record_checks(&mut self, func: u32, kind: CheckKind, n: u64) {
        *self.checks.entry((func, kind)).or_insert(0) += n;
    }

    /// Records one taken deoptimization at (func, smp).
    pub fn record_deopt(&mut self, func: u32, smp: u32, bc: u32, kind: CheckKind) {
        self.deopt_sites.entry((func, smp)).or_insert(DeoptSite { bc, kind, count: 0 }).count += 1;
    }

    /// Records one transaction abort owned by `func` with the footprint at
    /// the abort point.
    pub fn record_abort(&mut self, func: u32, reason: AbortReason, footprint_bytes: u64) {
        *self.aborts.entry((func, nomap_machine::abort_reason_key(reason))).or_insert(0) += 1;
        self.abort_footprint.entry(func).or_default().record(footprint_bytes);
    }

    /// Records one committed transaction owned by `func` with its write
    /// and read footprints, for the static-vs-dynamic calibration join.
    pub fn record_commit(&mut self, func: u32, write_bytes: u64, read_bytes: u64) {
        *self.tx_commits.entry(func).or_insert(0) += 1;
        self.commit_footprint.entry(func).or_default().record(write_bytes);
        self.commit_read_footprint.entry(func).or_default().record(read_bytes);
    }

    /// Records the blame forensics of one abort owned by `func`:
    /// `set_ways` is the victim set's speculative occupancy (capacity
    /// aborts only), `read_bytes` the read footprint at the fault.
    pub fn record_blame(&mut self, func: u32, set_ways: Option<u32>, read_bytes: u64) {
        if let Some(ways) = set_ways {
            *self.abort_set_pressure.entry((func, ways)).or_insert(0) += 1;
        }
        self.abort_read_footprint.entry(func).or_default().record(read_bytes);
    }

    /// Clears the profile (measurement-window reset).
    pub fn reset(&mut self) {
        *self = ProfileData::default();
    }

    /// Total instructions credited to `func` across all tiers.
    pub fn func_insts(&self, func: u32) -> u64 {
        self.insts.iter().filter(|((f, _), _)| *f == func).map(|(_, n)| n).sum()
    }

    /// Folds another profile into this one. All counter sums saturate so a
    /// long fleet run folding many shards cannot overflow-panic in debug
    /// while wrapping in release.
    pub fn merge(&mut self, other: &ProfileData) {
        self.ledger.merge(&other.ledger);
        for (k, v) in &other.insts {
            let c = self.insts.entry(*k).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, v) in &other.checks {
            let c = self.checks.entry(*k).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (k, site) in &other.deopt_sites {
            let s = self.deopt_sites.entry(*k).or_insert(DeoptSite {
                bc: site.bc,
                kind: site.kind,
                count: 0,
            });
            s.count = s.count.saturating_add(site.count);
        }
        for (k, v) in &other.aborts {
            let c = self.aborts.entry(k.clone()).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (f, h) in &other.abort_footprint {
            self.abort_footprint.entry(*f).or_default().merge(h);
        }
        for (f, v) in &other.tx_commits {
            let c = self.tx_commits.entry(*f).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (f, h) in &other.commit_footprint {
            self.commit_footprint.entry(*f).or_default().merge(h);
        }
        for (f, h) in &other.commit_read_footprint {
            self.commit_read_footprint.entry(*f).or_default().merge(h);
        }
        for (k, v) in &other.abort_set_pressure {
            let c = self.abort_set_pressure.entry(*k).or_insert(0);
            *c = c.saturating_add(*v);
        }
        for (f, h) in &other.abort_read_footprint {
            self.abort_read_footprint.entry(*f).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use nomap_machine::RegionKind;

    use super::*;

    fn sample() -> ProfileData {
        let mut p = ProfileData::new();
        p.charge(RegionKey { func: 0, tier: Tier::Ftl, kind: RegionKind::TxnBody }, 100);
        p.record_insts(0, Tier::Ftl, 80);
        p.record_checks(0, CheckKind::Bounds, 1);
        p.record_deopt(0, 3, 12, CheckKind::Type);
        p.record_abort(0, AbortReason::Capacity, 4096);
        p
    }

    #[test]
    fn merge_is_commutative_across_all_tables() {
        let a = sample();
        let mut b = sample();
        b.charge(RegionKey { func: 1, tier: Tier::Baseline, kind: RegionKind::Main }, 7);
        b.record_abort(0, AbortReason::Check(CheckKind::Bounds), 64);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.ledger.total(), 207);
        assert_eq!(ab.checks[&(0, CheckKind::Bounds)], 2);
        assert_eq!(ab.deopt_sites[&(0, 3)].count, 2);
        assert_eq!(ab.aborts[&(0, "capacity".to_owned())], 2);
        assert_eq!(ab.aborts[&(0, "check:bounds".to_owned())], 1);
        assert_eq!(ab.abort_footprint[&0].count, 3);
        assert_eq!(ab.func_insts(0), 160);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut p = sample();
        let snapshot = p.clone();
        p.merge(&ProfileData::new());
        assert_eq!(p, snapshot);
        let mut empty = ProfileData::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn merge_saturates_at_u64_max_instead_of_panicking() {
        let mut p = ProfileData::new();
        p.insts.insert((0, Tier::Ftl), u64::MAX);
        p.checks.insert((0, CheckKind::Bounds), u64::MAX);
        p.deopt_sites.insert((0, 1), DeoptSite { bc: 0, kind: CheckKind::Type, count: u64::MAX });
        p.aborts.insert((0, "capacity".to_owned()), u64::MAX);
        p.ledger.charge(RegionKey { func: 0, tier: Tier::Ftl, kind: RegionKind::Main }, u64::MAX);
        let other = p.clone();
        p.merge(&other);
        assert_eq!(p.insts[&(0, Tier::Ftl)], u64::MAX);
        assert_eq!(p.checks[&(0, CheckKind::Bounds)], u64::MAX);
        assert_eq!(p.deopt_sites[&(0, 1)].count, u64::MAX);
        assert_eq!(p.aborts[&(0, "capacity".to_owned())], u64::MAX);
        assert_eq!(p.ledger.total(), u64::MAX);
    }

    #[test]
    fn commit_and_blame_tables_merge_commutatively() {
        let mut a = ProfileData::new();
        a.record_commit(0, 640, 0);
        a.record_commit(0, 1280, 256);
        a.record_blame(0, Some(9), 0);
        let mut b = ProfileData::new();
        b.record_commit(0, 320, 0);
        b.record_commit(1, 64, 0);
        b.record_blame(0, Some(9), 512);
        b.record_blame(1, None, 0); // check abort: no set pressure

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.tx_commits[&0], 3);
        assert_eq!(ab.tx_commits[&1], 1);
        assert_eq!(ab.commit_footprint[&0].count, 3);
        assert_eq!(ab.commit_footprint[&0].max, 1280);
        assert_eq!(ab.commit_read_footprint[&0].max, 256);
        assert_eq!(ab.abort_set_pressure[&(0, 9)], 2);
        assert!(!ab.abort_set_pressure.contains_key(&(1, 0)));
        assert_eq!(ab.abort_read_footprint[&0].max, 512);
        assert_eq!(ab.abort_read_footprint[&1].count, 1);
    }
}
