//! Value profiles collected by the lower tiers and consumed by DFG/FTL.
//!
//! The paper's checks exist precisely because higher tiers *speculate* on
//! these profiles: a `Type` check guards an observed-kind speculation, a
//! `Property` check guards an observed-shape speculation, an `Overflow`
//! check guards the int32 representation, and `Bounds`/hole checks guard
//! observed array behaviour.

use nomap_bytecode::{FuncId, SiteId};

use crate::shape::ShapeId;

/// Coarse runtime kind of a value, as observed at a profiling site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// int32 number.
    Int32,
    /// double number.
    Double,
    /// boolean.
    Bool,
    /// string cell.
    Str,
    /// plain object cell.
    Object,
    /// array cell.
    Array,
    /// `undefined`, `null` or the hole sentinel.
    Other,
}

impl ValueKind {
    fn bit(self) -> u8 {
        match self {
            ValueKind::Int32 => 1,
            ValueKind::Double => 2,
            ValueKind::Bool => 4,
            ValueKind::Str => 8,
            ValueKind::Object => 16,
            ValueKind::Array => 32,
            ValueKind::Other => 64,
        }
    }
}

/// A set of observed [`ValueKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSet(u8);

impl KindSet {
    /// The empty set.
    pub const EMPTY: KindSet = KindSet(0);

    /// Adds a kind.
    pub fn insert(&mut self, k: ValueKind) {
        self.0 |= k.bit();
    }

    /// Membership test.
    pub fn contains(self, k: ValueKind) -> bool {
        self.0 & k.bit() != 0
    }

    /// True when no kinds were observed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True when exactly `k` was observed.
    pub fn is_only(self, k: ValueKind) -> bool {
        self.0 == k.bit()
    }

    /// True when only numeric kinds (int32/double) were observed.
    pub fn is_numeric(self) -> bool {
        !self.is_empty() && self.0 & !(1 | 2) == 0
    }

    /// True when only int32 was observed.
    pub fn is_int32_only(self) -> bool {
        self.0 == 1
    }
}

/// Profile for one bytecode site.
#[derive(Debug, Clone, Default)]
pub struct SiteProfile {
    /// Times the site executed.
    pub count: u64,
    /// Kinds observed for the first operand (or the loaded value).
    pub kinds_a: KindSet,
    /// Kinds observed for the second operand.
    pub kinds_b: KindSet,
    /// Kinds observed for the result.
    pub result: KindSet,
    /// An int32 fast path overflowed into a double here.
    pub overflowed: bool,
    /// Object shapes observed (property sites); capped at 4.
    pub shapes: Vec<ShapeId>,
    /// More than 4 shapes were seen.
    pub megamorphic: bool,
    /// Slot of the property under the recorded monomorphic shape.
    pub slot: Option<u32>,
    /// An array read hit a hole.
    pub saw_hole: bool,
    /// An array access went out of bounds.
    pub saw_oob: bool,
    /// A property write caused a shape transition here.
    pub saw_transition: bool,
}

impl SiteProfile {
    /// Records an observed shape.
    pub fn record_shape(&mut self, s: ShapeId) {
        if self.megamorphic || self.shapes.contains(&s) {
            return;
        }
        if self.shapes.len() >= 4 {
            self.megamorphic = true;
        } else {
            self.shapes.push(s);
        }
    }

    /// The single shape observed, if the site is monomorphic.
    pub fn monomorphic_shape(&self) -> Option<ShapeId> {
        if !self.megamorphic && self.shapes.len() == 1 {
            Some(self.shapes[0])
        } else {
            None
        }
    }
}

/// Profile for one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionProfile {
    /// Completed invocations.
    pub call_count: u64,
    /// Loop back edges taken (drives OSR-style tier-up for hot loops).
    pub back_edges: u64,
    /// Deoptimizations from optimized code.
    pub deopt_count: u64,
    /// Transactional capacity aborts observed (drives the §V-C ladder).
    pub capacity_aborts: u64,
    /// Per-site profiles.
    pub sites: Vec<SiteProfile>,
}

/// All function profiles, indexed by [`FuncId`].
#[derive(Debug, Clone, Default)]
pub struct ProfileStore {
    funcs: Vec<FunctionProfile>,
}

impl ProfileStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, f: FuncId) {
        if self.funcs.len() <= f.0 as usize {
            self.funcs.resize_with(f.0 as usize + 1, FunctionProfile::default);
        }
    }

    /// Mutable profile for `f`.
    pub fn func_mut(&mut self, f: FuncId) -> &mut FunctionProfile {
        self.ensure(f);
        &mut self.funcs[f.0 as usize]
    }

    /// Shared view of `f`'s profile, if present.
    pub fn func_ref(&self, f: FuncId) -> Option<&FunctionProfile> {
        self.funcs.get(f.0 as usize)
    }

    /// Mutable site profile for `(f, s)`.
    pub fn site_mut(&mut self, f: FuncId, s: SiteId) -> &mut SiteProfile {
        self.ensure(f);
        let fp = &mut self.funcs[f.0 as usize];
        if fp.sites.len() <= s.0 as usize {
            fp.sites.resize_with(s.0 as usize + 1, SiteProfile::default);
        }
        &mut fp.sites[s.0 as usize]
    }

    /// Site profile for `(f, s)`, if recorded.
    pub fn site(&self, f: FuncId, s: SiteId) -> Option<&SiteProfile> {
        self.funcs.get(f.0 as usize)?.sites.get(s.0 as usize)
    }

    /// Sum of deopt counts over all functions (paper §III-A2).
    pub fn total_deopts(&self) -> u64 {
        self.funcs.iter().map(|f| f.deopt_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kindset_operations() {
        let mut k = KindSet::EMPTY;
        assert!(k.is_empty());
        k.insert(ValueKind::Int32);
        assert!(k.is_int32_only() && k.is_numeric());
        k.insert(ValueKind::Double);
        assert!(k.is_numeric() && !k.is_int32_only());
        k.insert(ValueKind::Str);
        assert!(!k.is_numeric());
        assert!(k.contains(ValueKind::Str));
    }

    #[test]
    fn shape_recording_caps_at_megamorphic() {
        let mut s = SiteProfile::default();
        s.record_shape(ShapeId(1));
        s.record_shape(ShapeId(1));
        assert_eq!(s.monomorphic_shape(), Some(ShapeId(1)));
        for i in 2..=5 {
            s.record_shape(ShapeId(i));
        }
        assert!(s.megamorphic);
        assert_eq!(s.monomorphic_shape(), None);
    }

    #[test]
    fn store_grows_on_demand() {
        let mut p = ProfileStore::new();
        p.site_mut(FuncId(3), SiteId(5)).count += 1;
        assert_eq!(p.site(FuncId(3), SiteId(5)).unwrap().count, 1);
        assert!(p.site(FuncId(2), SiteId(0)).is_none());
        p.func_mut(FuncId(1)).deopt_count = 2;
        p.func_mut(FuncId(3)).deopt_count = 5;
        assert_eq!(p.total_deopts(), 7);
    }
}
