//! Set-associative cache model with MESI line states.
//!
//! One structure serves every level: the 2-way FIFO write-through L1 D-cache,
//! the direct-mapped L1 I-cache, the 8-way shared L2 (the system's coherence
//! point), and the MCM-attached L3. Caches operate on *line addresses*
//! (`addr >> line_shift`); coherence state is kept per line so the hierarchy
//! can classify remote hits as shared vs. modified interventions the way the
//! POWER4 HPM does.

/// MESI coherence state of a cached line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Mesi {
    /// Not present.
    #[default]
    Invalid,
    /// Present, clean, possibly also cached elsewhere.
    Shared,
    /// Present, clean, only copy.
    Exclusive,
    /// Present, dirty, only copy.
    Modified,
}

/// Replacement policy for a cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Replacement {
    /// First-in-first-out (POWER4's L1 D-cache).
    Fifo,
    /// Least-recently-used (approximated; used for L2/L3/I-cache).
    Lru,
}

/// Static configuration of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// POWER4 L1 D-cache: 32 KB, 2-way, FIFO, 128 B lines.
    #[must_use]
    pub fn power4_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 128,
            ways: 2,
            replacement: Replacement::Fifo,
        }
    }

    /// POWER4 L1 I-cache: 64 KB, direct-mapped, 128 B lines.
    #[must_use]
    pub fn power4_l1i() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 128,
            ways: 1,
            replacement: Replacement::Lru,
        }
    }

    /// POWER4 shared L2: ~1.4 MB, 8-way, 128 B lines.
    #[must_use]
    pub fn power4_l2() -> Self {
        CacheConfig {
            size_bytes: 1440 * 1024,
            line_bytes: 128,
            ways: 8,
            replacement: Replacement::Lru,
        }
    }

    /// POWER4 MCM-attached L3: 32 MB, 8-way, 512 B lines.
    #[must_use]
    pub fn power4_l3() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024 * 1024,
            line_bytes: 512,
            ways: 8,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not internally consistent (sizes not
    /// powers of two, capacity not divisible by `line_bytes * ways`, or any
    /// field zero).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.ways > 0, "need at least one way");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways as u64) && lines > 0,
            "capacity must be a whole number of sets"
        );
        // POWER4's L2 has 1440 sets, so set counts need not be powers of two;
        // indexing uses modulo rather than a mask.
        (lines / self.ways as u64) as usize
    }
}

/// High 64 bits of `lowbits * d`, where `lowbits` is a full 128-bit value.
/// Never overflows: the sum is bounded by `2^64 * d - 1 < 2^128`.
#[inline]
pub(crate) const fn mul128_hi64(lowbits: u128, d: u64) -> u64 {
    let bottom = ((lowbits as u64 as u128) * d as u128) >> 64;
    let top = (lowbits >> 64) * d as u128;
    ((bottom + top) >> 64) as u64
}

/// Precomputed magic constant for [`fastmod64`]: `ceil(2^128 / d)`.
/// For `d == 1` the wrapping add yields 0, and `fastmod64` then correctly
/// returns `x % 1 == 0` for every `x`.
#[inline]
pub(crate) const fn fastmod_magic(d: u64) -> u128 {
    (u128::MAX / d as u128).wrapping_add(1)
}

/// Exact `x % d` via Lemire's fastmod: one 128-bit multiply-low and one
/// 128×64 high multiply instead of a hardware divide. `m` must be
/// `fastmod_magic(d)`. POWER4's L2 has 1440 (non-power-of-two) sets, so set
/// indexing cannot be a mask and the per-access `%` showed up hot.
#[inline]
pub(crate) const fn fastmod64(x: u64, m: u128, d: u64) -> u64 {
    mul128_hi64(m.wrapping_mul(x as u128), d)
}

/// A set-associative cache over line addresses.
///
/// Lines are stored as parallel arrays (tags / states / stamps) rather than
/// an array of structs: a set walk that only compares tags then touches one
/// host cache line per 8-way set instead of three, which is what the
/// reconcile-phase L2 walks are bound by. Field-for-field the stored values
/// and every observable result are identical to the former layout.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    sets: u64,
    /// `fastmod_magic(sets)`, fixed at construction.
    fastmod_m: u128,
    /// `log2(line_bytes)`; line size is asserted to be a power of two.
    line_shift: u32,
    /// Full line address per slot (simpler than split tag/index and just
    /// as fast here); meaningful only where `states` is not `Invalid`.
    tags: Vec<u64>,
    states: Vec<Mesi>,
    /// LRU timestamp or FIFO insertion order.
    stamps: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache from its configuration.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        let slots = sets * cfg.ways;
        SetAssocCache {
            cfg,
            sets: sets as u64,
            fastmod_m: fastmod_magic(sets as u64),
            line_shift: cfg.line_bytes.trailing_zeros(),
            tags: vec![0; slots],
            states: vec![Mesi::Invalid; slots],
            stamps: vec![0; slots],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Line address (cache-line granule) of a byte address.
    #[inline]
    #[must_use]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// Byte address of the start of line `line` — the inverse of
    /// [`SetAssocCache::line_of`]. Used when turning line-granule events
    /// (e.g. prefetches) back into addresses for the shared-hierarchy
    /// event buffers.
    #[inline]
    #[must_use]
    pub fn addr_of_line(&self, line: u64) -> u64 {
        line << self.line_shift
    }

    #[inline]
    fn set_range(&self, line: u64) -> core::ops::Range<usize> {
        let set = fastmod64(line, self.fastmod_m, self.sets) as usize;
        let start = set * self.cfg.ways;
        start..start + self.cfg.ways
    }

    /// Looks up `line`; on a hit updates recency and returns the state.
    /// Counts toward hit/miss statistics.
    pub fn access(&mut self, line: u64) -> Option<Mesi> {
        self.access_at(line).map(|(_, state)| state)
    }

    /// Like [`SetAssocCache::access`], additionally reporting the global
    /// slot index of the hit line so a caller holding strong residency
    /// knowledge (the MRU line filter in `machine.rs`) can re-touch the
    /// line later via [`SetAssocCache::rehit`] without repeating the walk.
    pub(crate) fn access_at(&mut self, line: u64) -> Option<(usize, Mesi)> {
        self.tick += 1;
        let tick = self.tick;
        let is_lru = self.cfg.replacement == Replacement::Lru;
        for i in self.set_range(line) {
            if self.tags[i] == line && self.states[i] != Mesi::Invalid {
                if is_lru {
                    self.stamps[i] = tick;
                }
                self.hits += 1;
                return Some((i, self.states[i]));
            }
        }
        self.misses += 1;
        None
    }

    /// Replays a hit on a known-resident line at `slot`: identical counter,
    /// tick, and recency effects to [`SetAssocCache::access`] hitting that
    /// line, minus the set walk. The caller must guarantee residency (the
    /// MRU filters do, by invalidating their note whenever an insert could
    /// have displaced the line).
    pub(crate) fn rehit(&mut self, slot: usize) -> Mesi {
        self.tick += 1;
        self.hits += 1;
        debug_assert!(
            self.states[slot] != Mesi::Invalid,
            "rehit of an invalid slot"
        );
        if self.cfg.replacement == Replacement::Lru {
            self.stamps[slot] = self.tick;
        }
        self.states[slot]
    }

    /// Replays a known miss: identical counter and tick effects to
    /// [`SetAssocCache::access`] missing, minus the set walk.
    pub(crate) fn remiss(&mut self) {
        self.tick += 1;
        self.misses += 1;
    }

    /// Looks up `line` without disturbing recency or statistics (a coherence
    /// snoop from another cache).
    #[must_use]
    pub fn probe(&self, line: u64) -> Option<Mesi> {
        self.set_range(line)
            .find(|&i| self.tags[i] == line && self.states[i] != Mesi::Invalid)
            .map(|i| self.states[i])
    }

    /// Inserts `line` in `state`, evicting the replacement victim if the set
    /// is full. Returns the evicted `(line, state)` if a valid line was
    /// displaced.
    ///
    /// Inserting a line that is already present just updates its state.
    pub fn insert(&mut self, line: u64, state: Mesi) -> Option<(u64, Mesi)> {
        self.insert_at(line, state).1
    }

    /// Like [`SetAssocCache::insert`], additionally reporting the global
    /// slot index the line landed in (for the MRU line filter).
    pub(crate) fn insert_at(&mut self, line: u64, state: Mesi) -> (usize, Option<(u64, Mesi)>) {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(line);
        // Already present: refresh state.
        for i in range.clone() {
            if self.tags[i] == line && self.states[i] != Mesi::Invalid {
                self.states[i] = state;
                self.stamps[i] = tick;
                return (i, None);
            }
        }
        // Free way?
        for i in range.clone() {
            if self.states[i] == Mesi::Invalid {
                self.tags[i] = line;
                self.states[i] = state;
                self.stamps[i] = tick;
                return (i, None);
            }
        }
        // Evict: lowest stamp is both LRU victim and FIFO head (FIFO never
        // refreshes stamps on access, so the lowest stamp is oldest-inserted).
        let mut best = range.start;
        for i in range {
            if self.stamps[i] < self.stamps[best] {
                best = i;
            }
        }
        let victim = (self.tags[best], self.states[best]);
        self.tags[best] = line;
        self.states[best] = state;
        self.stamps[best] = tick;
        (best, Some(victim))
    }

    /// Changes the state of a present line (coherence downgrade/upgrade).
    /// No-op when the line is absent.
    pub fn set_state(&mut self, line: u64, state: Mesi) {
        for i in self.set_range(line) {
            if self.tags[i] == line && self.states[i] != Mesi::Invalid {
                self.states[i] = state;
                return;
            }
        }
    }

    /// Changes the state of the line at a known slot — the walk-free form
    /// of [`SetAssocCache::set_state`] for callers that just located the
    /// line via [`SetAssocCache::access_at`].
    pub(crate) fn set_state_at(&mut self, slot: usize, state: Mesi) {
        debug_assert!(
            self.states[slot] != Mesi::Invalid,
            "set_state_at of an invalid slot"
        );
        self.states[slot] = state;
    }

    /// Invalidates a line. Returns its former state if it was present.
    pub fn invalidate(&mut self, line: u64) -> Option<Mesi> {
        for i in self.set_range(line) {
            if self.tags[i] == line && self.states[i] != Mesi::Invalid {
                let s = self.states[i];
                self.states[i] = Mesi::Invalid;
                return Some(s);
            }
        }
        None
    }

    /// `(hits, misses)` counted by [`SetAssocCache::access`].
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of valid lines currently held.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.states
            .iter()
            .filter(|&&st| st != Mesi::Invalid)
            .count()
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Mesi {
    /// The checkpoint tag of this state: one word per line in the cache's
    /// state slice.
    fn tag(self) -> u8 {
        match self {
            Mesi::Invalid => 0,
            Mesi::Shared => 1,
            Mesi::Exclusive => 2,
            Mesi::Modified => 3,
        }
    }

    /// The state a checkpoint tag of at most 3 encodes.
    fn from_tag(tag: u8) -> Mesi {
        match tag {
            1 => Mesi::Shared,
            2 => Mesi::Exclusive,
            3 => Mesi::Modified,
            _ => Mesi::Invalid,
        }
    }
}

impl Persist for SetAssocCache {
    /// Sizing (`cfg`, `sets`, fastmod constants) is config-derived and
    /// rebuilt by construction; only line contents and statistics persist.
    // jas-lint: allow(D009, reason = "cfg and the sets/fastmod_m/line_shift sizing are config-derived, rebuilt by construction")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_word_slice(io, &mut self.tags);
        snap::persist_byte_slice(io, &mut self.states, 3, Mesi::tag, Mesi::from_tag);
        snap::persist_word_slice(io, &mut self.stamps);
        self.tick.persist(io);
        self.hits.persist(io);
        self.misses.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize, replacement: Replacement) -> SetAssocCache {
        // 4 sets when 2-way x 128B lines: 1 KB.
        SetAssocCache::new(CacheConfig {
            size_bytes: (128 * ways * 4) as u64,
            line_bytes: 128,
            ways,
            replacement,
        })
    }

    #[test]
    fn power4_shapes_are_consistent() {
        assert_eq!(CacheConfig::power4_l1d().sets(), 128);
        assert_eq!(CacheConfig::power4_l1i().sets(), 512);
        assert_eq!(CacheConfig::power4_l2().sets(), 1440);
        assert_eq!(CacheConfig::power4_l3().sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        let _ = CacheConfig {
            size_bytes: 300,
            line_bytes: 100,
            ways: 1,
            replacement: Replacement::Lru,
        }
        .sets();
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny(2, Replacement::Lru);
        let line = c.line_of(0x1000);
        assert_eq!(c.access(line), None);
        c.insert(line, Mesi::Exclusive);
        assert_eq!(c.access(line), Some(Mesi::Exclusive));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, Replacement::Lru);
        // Three lines mapping to the same set (stride = sets * line).
        let a = 0u64;
        let b = 4; // same set in a 4-set cache (line addresses)
        let d = 8;
        c.insert(a, Mesi::Shared);
        c.insert(b, Mesi::Shared);
        assert!(c.access(a).is_some()); // a is now most recent
        let evicted = c.insert(d, Mesi::Shared).expect("must evict");
        assert_eq!(evicted.0, b);
        assert!(c.probe(a).is_some());
        assert!(c.probe(b).is_none());
    }

    #[test]
    fn fifo_ignores_recency() {
        let mut c = tiny(2, Replacement::Fifo);
        let (a, b, d) = (0u64, 4, 8);
        c.insert(a, Mesi::Shared);
        c.insert(b, Mesi::Shared);
        assert!(c.access(a).is_some()); // touching a must NOT save it under FIFO
        let evicted = c.insert(d, Mesi::Shared).expect("must evict");
        assert_eq!(evicted.0, a, "FIFO evicts oldest insertion");
    }

    #[test]
    fn insert_existing_updates_state() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(3, Mesi::Shared);
        assert_eq!(c.insert(3, Mesi::Modified), None);
        assert_eq!(c.probe(3), Some(Mesi::Modified));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn set_state_and_invalidate() {
        let mut c = tiny(2, Replacement::Lru);
        c.insert(5, Mesi::Modified);
        c.set_state(5, Mesi::Shared);
        assert_eq!(c.probe(5), Some(Mesi::Shared));
        assert_eq!(c.invalidate(5), Some(Mesi::Shared));
        assert_eq!(c.probe(5), None);
        assert_eq!(c.invalidate(5), None);
    }

    #[test]
    fn probe_does_not_affect_lru_or_stats() {
        let mut c = tiny(2, Replacement::Lru);
        let (a, b, d) = (0u64, 4, 8);
        c.insert(a, Mesi::Shared);
        c.insert(b, Mesi::Shared);
        let _ = c.probe(a); // must not refresh a
        let evicted = c.insert(d, Mesi::Shared).expect("must evict");
        assert_eq!(evicted.0, a);
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny(1, Replacement::Lru); // direct-mapped, 4 sets
        for line in 0..4u64 {
            assert_eq!(c.insert(line, Mesi::Shared), None);
        }
        assert_eq!(c.occupancy(), 4);
        for line in 0..4u64 {
            assert!(c.access(line).is_some());
        }
    }

    #[test]
    fn line_of_uses_configured_line_size() {
        let c = tiny(2, Replacement::Lru);
        assert_eq!(c.line_of(0), 0);
        assert_eq!(c.line_of(127), 0);
        assert_eq!(c.line_of(128), 1);
    }

    /// Pins the Lemire reduction against the hardware `%` for every set
    /// count the POWER4 shapes use, plus adversarial divisors and line
    /// addresses (edge-of-range, near-multiple, and pseudo-random values).
    #[test]
    fn fastmod_matches_modulo_for_all_power4_set_counts() {
        let divisors: [u64; 9] = [
            CacheConfig::power4_l1d().sets() as u64, // 128
            CacheConfig::power4_l1i().sets() as u64, // 512
            CacheConfig::power4_l2().sets() as u64,  // 1440 (non-power-of-2)
            CacheConfig::power4_l3().sets() as u64,  // 8192
            1,
            3,
            1439,
            u64::MAX,
            u64::MAX - 1,
        ];
        for &d in &divisors {
            let m = fastmod_magic(d);
            let mut probes: Vec<u64> = vec![
                0,
                1,
                d.wrapping_sub(1),
                d,
                d.wrapping_add(1),
                d.wrapping_mul(3),
                d.wrapping_mul(3).wrapping_sub(1),
                u64::MAX,
                u64::MAX - 1,
                u64::MAX / 2,
            ];
            // Pseudo-random 64-bit probes (SplitMix64-style walk).
            let mut z = 0x1234_5678_9ABC_DEF0u64;
            for _ in 0..10_000 {
                z = z
                    .wrapping_add(0x9E37_79B9_7F4A_7C15)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                probes.push(z);
            }
            for x in probes {
                assert_eq!(fastmod64(x, m, d), x % d, "x={x} d={d}");
            }
        }
    }

    #[test]
    fn slot_indexed_paths_match_walked_paths() {
        // Drive two identical caches: one via access/insert, one via the
        // slot-returning variants plus rehit, and require identical stats,
        // recency, and victim choices.
        for replacement in [Replacement::Lru, Replacement::Fifo] {
            let mut a = tiny(2, replacement);
            let mut b = tiny(2, replacement);
            let lines = [0u64, 4, 0, 0, 8, 4, 0, 12, 8, 0];
            let mut last: Option<(u64, usize)> = None;
            for &line in &lines {
                let sa = a.access(line);
                let hit_b = match last {
                    Some((l, slot)) if l == line => Some((slot, b.rehit(slot))),
                    _ => b.access_at(line),
                };
                assert_eq!(sa, hit_b.map(|(_, s)| s));
                match hit_b {
                    Some((slot, _)) => last = Some((line, slot)),
                    None => {
                        a.insert(line, Mesi::Shared);
                        let (slot, _) = b.insert_at(line, Mesi::Shared);
                        last = Some((line, slot));
                    }
                }
            }
            assert_eq!(a.stats(), b.stats());
            // Force evictions in both and require identical victims.
            for conflict in [16u64, 20, 24, 28] {
                assert_eq!(
                    a.insert(conflict, Mesi::Shared),
                    b.insert(conflict, Mesi::Shared),
                    "victim divergence ({replacement:?})"
                );
            }
        }
    }
}
