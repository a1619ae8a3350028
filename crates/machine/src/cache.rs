//! Two-level cache simulator (L1D 32 KB 8-way, L2 256 KB 8-way, 64 B lines
//! — the Skylake i7 of paper §VI), with LRU replacement.
//!
//! The HTM models track their own speculative footprints (see
//! [`crate::htm`]); the cache simulator answers hit/miss questions for the
//! cycle model and carries per-line speculative-write (SW) bits so the
//! flash-clear at commit is observable.

use nomap_runtime::WORD_BYTES;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// The evaluation machine's L1D: 32 KB, 8-way, 64 B lines.
    pub fn l1d() -> Self {
        CacheConfig { size_bytes: 32 * 1024, ways: 8, line_bytes: 64 }
    }

    /// The evaluation machine's L2: 256 KB, 8-way, 64 B lines.
    pub fn l2() -> Self {
        CacheConfig { size_bytes: 256 * 1024, ways: 8, line_bytes: 64 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * self.ways as u64)
    }

    /// Set index of a byte address.
    pub fn set_of(&self, byte_addr: u64) -> u64 {
        self.line_of(byte_addr) & (self.sets() - 1)
    }

    /// Line (tag) address of a byte address.
    pub fn line_of(&self, byte_addr: u64) -> u64 {
        byte_addr >> self.line_bytes.trailing_zeros()
    }

    /// Panics unless the line size, associativity and set count are all
    /// powers of two — the shift/mask address split relies on it.
    fn assert_power_of_two(&self) {
        assert!(
            self.line_bytes.is_power_of_two()
                && self.ways.is_power_of_two()
                && self.sets().is_power_of_two()
                && self.sets() * self.line_bytes * self.ways as u64 == self.size_bytes,
            "cache geometry must be powers of two: {self:?}"
        );
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    sw: bool,
    lru: u64,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in L1.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed both levels.
    Memory,
}

/// One cache level: `sets × ways` lines in one flat array (set `s` holds
/// `lines[s * ways..(s + 1) * ways]`).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// Indices of the lines whose SW bit went from clear to set since the
    /// last flash clear: every line with its SW bit set is listed (a
    /// refilled way may be listed twice), so clearing these clears all.
    sw_marked: Vec<u32>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// When the geometry is not all powers of two.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.assert_power_of_two();
        Cache {
            cfg,
            lines: vec![Line::default(); (cfg.sets() * cfg.ways as u64) as usize],
            ways: cfg.ways as usize,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.sets() - 1,
            sw_marked: Vec::new(),
            tick: 0,
        }
    }

    /// Looks up `byte_addr`, filling on miss. Returns `(hit, evicted_sw)`
    /// where `evicted_sw` reports that a speculatively-written line was
    /// evicted (a capacity condition for HTM).
    pub fn access(&mut self, byte_addr: u64, mark_sw: bool) -> (bool, bool) {
        self.tick += 1;
        let tag = byte_addr >> self.line_shift;
        let first = (tag & self.set_mask) as usize * self.ways;
        let lines = &mut self.lines[first..first + self.ways];
        if let Some(way) = lines.iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut lines[way];
            line.lru = self.tick;
            if mark_sw && !line.sw {
                line.sw = true;
                self.sw_marked.push((first + way) as u32);
            }
            return (true, false);
        }
        // Miss: choose a victim. Prefer invalid, then non-SW LRU, then SW
        // LRU (whose eviction the HTM must observe).
        let victim = if let Some(i) = lines.iter().position(|l| !l.valid) {
            i
        } else if let Some((i, _)) =
            lines.iter().enumerate().filter(|(_, l)| !l.sw).min_by_key(|(_, l)| l.lru)
        {
            i
        } else {
            lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("cache has ways")
        };
        let evicted_sw = lines[victim].valid && lines[victim].sw;
        lines[victim] = Line { tag, valid: true, sw: mark_sw, lru: self.tick };
        if mark_sw {
            self.sw_marked.push((first + victim) as u32);
        }
        (false, evicted_sw)
    }

    /// Flash-clears all SW bits (commit/abort; a few cycles in hardware,
    /// paper §VI-A1). Only the lines marked since the last clear are
    /// visited.
    pub fn flash_clear_sw(&mut self) {
        for i in self.sw_marked.drain(..) {
            self.lines[i as usize].sw = false;
        }
    }

    /// Number of lines currently marked speculative.
    pub fn sw_line_count(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid && l.sw).count() as u64
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }
}

/// The two-level hierarchy used by the executor.
///
/// # Example
///
/// ```
/// use nomap_machine::{AccessOutcome, CacheSim};
///
/// let mut sim = CacheSim::new();
/// let (first, _) = sim.access_word(0x1000_0000, false, false);
/// let (again, _) = sim.access_word(0x1000_0000, false, false);
/// assert_eq!(first, AccessOutcome::Memory);
/// assert_eq!(again, AccessOutcome::L1);
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    /// L1 data cache.
    pub l1: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Hits/misses counters: `[l1_hits, l2_hits, mem_accesses]`.
    pub counts: [u64; 3],
}

impl Default for CacheSim {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheSim {
    /// Creates the paper's L1D+L2 hierarchy.
    pub fn new() -> Self {
        CacheSim {
            l1: Cache::new(CacheConfig::l1d()),
            l2: Cache::new(CacheConfig::l2()),
            counts: [0; 3],
        }
    }

    /// Performs a word access at simulated word address `word_addr`.
    /// `sw_l1`/`sw_l2` mark the line speculative at each level. Returns the
    /// outcome plus whether an SW line was evicted at either level.
    pub fn access_word(
        &mut self,
        word_addr: u64,
        sw_l1: bool,
        sw_l2: bool,
    ) -> (AccessOutcome, bool) {
        let byte = word_addr * WORD_BYTES;
        let (l1_hit, ev1) = self.l1.access(byte, sw_l1);
        if l1_hit {
            self.counts[0] += 1;
            // L2 is inclusive in this model; keep its SW bit in sync.
            if sw_l2 {
                let (_, ev2) = self.l2.access(byte, true);
                return (AccessOutcome::L1, ev1 || ev2);
            }
            return (AccessOutcome::L1, ev1);
        }
        let (l2_hit, ev2) = self.l2.access(byte, sw_l2);
        if l2_hit {
            self.counts[1] += 1;
        } else {
            self.counts[2] += 1;
        }
        (if l2_hit { AccessOutcome::L2 } else { AccessOutcome::Memory }, ev1 || ev2)
    }

    /// Commit/abort: clear speculative bits at both levels.
    pub fn flash_clear_sw(&mut self) {
        self.l1.flash_clear_sw();
        self.l2.flash_clear_sw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_geometry() {
        let l1 = CacheConfig::l1d();
        assert_eq!(l1.sets(), 64);
        let l2 = CacheConfig::l2();
        assert_eq!(l2.sets(), 512);
        assert_eq!(l1.set_of(0), l1.set_of(64 * 64)); // wraps at sets*line
        assert_ne!(l1.set_of(0), l1.set_of(64));
    }

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(CacheConfig::l1d());
        assert_eq!(c.access(0x1000, false), (false, false));
        assert_eq!(c.access(0x1008, false), (true, false)); // same line
        assert_eq!(c.access(0x1040, false), (false, false)); // next line
    }

    #[test]
    fn lru_eviction() {
        let cfg = CacheConfig { size_bytes: 2 * 64, ways: 2, line_bytes: 64 };
        let mut c = Cache::new(cfg);
        // One set; fill both ways, touch the first, then insert a third.
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // line 0 is now MRU
        c.access(128, false); // evicts line 64
        assert!(c.access(0, false).0);
        assert!(!c.access(64, false).0);
    }

    #[test]
    fn sw_lines_resist_eviction() {
        let cfg = CacheConfig { size_bytes: 2 * 64, ways: 2, line_bytes: 64 };
        let mut c = Cache::new(cfg);
        c.access(0, true); // SW line, LRU
        c.access(64, false);
        c.access(128, false); // should evict line 64 (non-SW) not line 0
        assert!(c.access(0, false).0);
        assert_eq!(c.sw_line_count(), 1);
    }

    #[test]
    fn sw_eviction_is_reported() {
        let cfg = CacheConfig { size_bytes: 2 * 64, ways: 2, line_bytes: 64 };
        let mut c = Cache::new(cfg);
        c.access(0, true);
        c.access(64, true);
        let (_, evicted_sw) = c.access(128, true); // all ways SW: must evict one
        assert!(evicted_sw);
    }

    #[test]
    fn flash_clear_resets_sw() {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(0, true);
        assert_eq!(c.sw_line_count(), 1);
        c.flash_clear_sw();
        assert_eq!(c.sw_line_count(), 0);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_geometry_is_rejected() {
        Cache::new(CacheConfig { size_bytes: 3 * 64, ways: 3, line_bytes: 64 });
    }

    /// Deterministic splitmix64 stream for the flash-clear property test.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The tracked flash clear leaves every line exactly as a sweep of all
    /// lines would, over random access sequences with commits and aborts —
    /// including SW lines evicted and refilled between clears.
    #[test]
    fn tracked_flash_clear_matches_full_sweep() {
        let small = CacheConfig { size_bytes: 4 * 2 * 64, ways: 2, line_bytes: 64 };
        for seed in 0..48u64 {
            let mut rng = seed;
            let cfg = if seed % 2 == 0 { small } else { CacheConfig::l1d() };
            let span = cfg.size_bytes * 3;
            let mut tracked = Cache::new(cfg);
            let mut swept = Cache::new(cfg);
            let mut in_tx = false;
            for step in 0..2000 {
                match splitmix64(&mut rng) % 16 {
                    0 => in_tx = !in_tx,
                    // Commit or abort: both flash-clear.
                    1 if in_tx => {
                        tracked.flash_clear_sw();
                        for line in &mut swept.lines {
                            line.sw = false;
                        }
                        assert_eq!(tracked.lines, swept.lines, "seed {seed} step {step}");
                        in_tx = false;
                    }
                    _ => {
                        let addr = splitmix64(&mut rng) % span;
                        let mark = in_tx && splitmix64(&mut rng).is_multiple_of(2);
                        assert_eq!(
                            tracked.access(addr, mark),
                            swept.access(addr, mark),
                            "seed {seed} step {step}"
                        );
                    }
                }
            }
            tracked.flash_clear_sw();
            for line in &mut swept.lines {
                line.sw = false;
            }
            assert_eq!(tracked.lines, swept.lines, "seed {seed}");
            assert_eq!(tracked.sw_line_count(), 0, "seed {seed}");
        }
    }

    #[test]
    fn hierarchy_counts() {
        let mut sim = CacheSim::new();
        let (o, _) = sim.access_word(0x100, false, false);
        assert_eq!(o, AccessOutcome::Memory);
        let (o, _) = sim.access_word(0x100, false, false);
        assert_eq!(o, AccessOutcome::L1);
        assert_eq!(sim.counts, [1, 0, 1]);
    }
}
