//! Property-based tests for the microarchitectural structures: each model
//! is checked against a simple reference implementation or an invariant
//! that must hold for every access sequence.

use crate::branch::{BranchConfig, BranchUnit};
use crate::cache::{CacheConfig, Mesi, Replacement, SetAssocCache};
use crate::prefetch::{PrefetchConfig, Prefetcher};
use crate::tlb::TranslationCache;
use jas_simkernel::snapshot::{Loader, PerWord, Persist, Saver};
use proptest::prelude::*;
use std::collections::HashMap;

/// Reference model of a fully associative LRU cache of `cap` entries.
struct RefLru {
    cap: usize,
    entries: Vec<u64>, // most recent last
}

impl RefLru {
    fn new(cap: usize) -> Self {
        RefLru {
            cap,
            entries: Vec::new(),
        }
    }
    fn lookup(&mut self, tag: u64) -> bool {
        if let Some(i) = self.entries.iter().position(|&t| t == tag) {
            self.entries.remove(i);
            self.entries.push(tag);
            true
        } else {
            false
        }
    }
    fn insert(&mut self, tag: u64) {
        if let Some(i) = self.entries.iter().position(|&t| t == tag) {
            self.entries.remove(i);
        } else if self.entries.len() == self.cap {
            self.entries.remove(0);
        }
        self.entries.push(tag);
    }
}

/// Saves `sut` through the bulk `Saver` and the per-word reference (same
/// bytes required), then loads the image cut at every word boundary into
/// `fresh()` both ways: the verdicts and the loaded states must agree.
fn assert_bulk_matches_per_word<T: Persist>(sut: &mut T, fresh: impl Fn() -> T) {
    let save = |v: &mut T| {
        let mut saver = Saver::new();
        v.persist(&mut saver);
        saver.into_bytes()
    };
    let image = save(sut);
    let mut slow = PerWord(Saver::new());
    sut.persist(&mut slow);
    assert_eq!(image, slow.0.into_bytes());
    for cut in (0..=image.len()).step_by(8) {
        let (mut fast, mut slow) = (fresh(), fresh());
        let mut fast_io = Loader::new(&image[..cut]);
        fast.persist(&mut fast_io);
        let mut slow_io = PerWord(Loader::new(&image[..cut]));
        slow.persist(&mut slow_io);
        assert_eq!(fast_io.finish(), slow_io.0.finish(), "cut at byte {cut}");
        assert_eq!(save(&mut fast), save(&mut slow), "cut at byte {cut}");
    }
}

proptest! {
    /// A cache's tag, state and stamp arrays and a branch unit's PHT and
    /// BTB move through the bulk primitives exactly as word by word, for
    /// every truncation of their image.
    #[test]
    fn bulk_snapshots_match_per_word(
        ops in proptest::collection::vec((0u8..4, 0u64..64), 1..60),
    ) {
        let cfg = CacheConfig {
            size_bytes: 128 * 2 * 4,
            line_bytes: 128,
            ways: 2,
            replacement: Replacement::Lru,
        };
        let mut cache = SetAssocCache::new(cfg);
        let bcfg = BranchConfig {
            pht_entries: 8,
            history_bits: 3,
            btb_entries: 4,
        };
        let mut branch = BranchUnit::new(bcfg);
        let states = [Mesi::Shared, Mesi::Exclusive, Mesi::Modified];
        for (kind, v) in ops {
            let line = v % 16;
            match kind {
                0 => {
                    cache.insert(line, states[(v % 3) as usize]);
                }
                1 => {
                    cache.access(line);
                }
                _ => {
                    branch.resolve_conditional(v, kind == 2);
                    branch.resolve_indirect(v % 5, v);
                }
            }
        }
        assert_bulk_matches_per_word(&mut cache, || SetAssocCache::new(cfg));
        assert_bulk_matches_per_word(&mut branch, || BranchUnit::new(bcfg));
    }

    /// The translation cache behaves exactly like a reference LRU, through
    /// all three entry points (`lookup`, `insert`, `lookup_or_insert`).
    #[test]
    fn translation_cache_matches_reference_lru(
        cap in 1usize..16,
        ops in proptest::collection::vec((0u8..3, 0u64..32), 1..300),
    ) {
        let mut sut = TranslationCache::new(cap);
        let mut reference = RefLru::new(cap);
        for (kind, tag) in ops {
            match kind {
                0 => {
                    sut.insert(tag);
                    reference.insert(tag);
                }
                1 => {
                    // Lookups refresh recency in both models on hit.
                    prop_assert_eq!(sut.lookup(tag), reference.lookup(tag));
                }
                _ => {
                    let hit = reference.lookup(tag);
                    if !hit {
                        reference.insert(tag);
                    }
                    prop_assert_eq!(sut.lookup_or_insert(tag), hit);
                }
            }
            prop_assert!(sut.occupancy() <= cap);
        }
    }

    /// A second access to the same line always hits, regardless of history,
    /// as long as no other access mapped to the same set in between.
    #[test]
    fn cache_immediate_reaccess_hits(lines in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 128,
            ways: 2,
            replacement: Replacement::Fifo,
        });
        for line in lines {
            if c.access(line).is_none() {
                c.insert(line, Mesi::Shared);
            }
            prop_assert!(c.probe(line).is_some(), "line just inserted must be present");
        }
    }

    /// Occupancy never exceeds capacity and eviction returns only lines
    /// that were actually resident.
    #[test]
    fn cache_occupancy_bounded(lines in proptest::collection::vec(0u64..100_000, 1..500)) {
        let cfg = CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 128,
            ways: 2,
            replacement: Replacement::Lru,
        };
        let capacity = (cfg.size_bytes / cfg.line_bytes) as usize;
        let mut c = SetAssocCache::new(cfg);
        let mut resident: HashMap<u64, ()> = HashMap::new();
        for line in lines {
            if let Some((victim, _)) = c.insert(line, Mesi::Shared) {
                prop_assert!(resident.remove(&victim).is_some(), "evicted a non-resident line");
            }
            resident.insert(line, ());
            prop_assert!(c.occupancy() <= capacity);
            prop_assert_eq!(c.occupancy(), resident.len());
        }
    }

    /// The branch predictor's misprediction rate on a fully biased branch
    /// converges to ~0 for any interleaving of other sites.
    #[test]
    fn biased_branch_learned_despite_noise(
        noise_sites in proptest::collection::vec(1u64..64, 0..200),
    ) {
        let mut b = BranchUnit::new(BranchConfig::default());
        // Warm up the target site.
        for _ in 0..8 {
            b.resolve_conditional(0xDEAD_0000, true);
        }
        let mut miss = 0;
        for (i, &site) in noise_sites.iter().enumerate() {
            b.resolve_conditional(site * 0x9E37_79B9, i % 2 == 0);
            if !b.resolve_conditional(0xDEAD_0000, true).correct {
                miss += 1;
            }
        }
        // Aliasing could cause occasional misses but never systematic ones.
        prop_assert!(miss * 5 <= noise_sites.len().max(4), "missed {miss}/{}", noise_sites.len());
    }

    /// The prefetcher never emits more lines than its configured depth and
    /// never reports both an allocation and an advance for one access.
    #[test]
    fn prefetcher_output_bounded(lines in proptest::collection::vec(0u64..2_000, 1..400)) {
        let cfg = PrefetchConfig::default();
        let mut p = Prefetcher::new(cfg);
        for line in lines {
            let d = p.on_l1_load(line, true);
            prop_assert!(d.l1_lines.len() + d.l2_lines.len() <= cfg.max_depth as usize);
            prop_assert!(!(d.allocated && d.advanced));
            prop_assert!(p.active_streams() <= cfg.streams);
        }
    }

    /// The exact-equivalence fast paths (MRU line filter in front of the
    /// L1 D-cache, IERAT/DERAT frame filters, slot-replay hits) must be
    /// bit-identical to the full paths: same HPM counters, same cycle
    /// charges, same cache statistics and occupancy, and same replacement
    /// victims afterwards.
    #[test]
    fn fast_paths_are_bit_identical(
        ops in proptest::collection::vec((0u8..8, 0u64..96, any::<bool>()), 1..400),
    ) {
        use crate::address::Region;
        use crate::machine::{Machine, MachineConfig};
        use crate::uop::MicroOp;

        let build = |fast_paths: bool| {
            Machine::new(MachineConfig {
                fast_paths,
                ..MachineConfig::default()
            })
        };
        let mut on = build(true);
        let mut off = build(false);
        let heap = Region::JavaHeap.base();
        let code = Region::JitCode.base();
        let mut ia = code;
        for (i, &(kind, idx, flag)) in ops.iter().enumerate() {
            // Mix of tight same-line reuse (16 B steps — the allocation
            // write pattern), line strides (sequential, wakes the
            // prefetcher), and frame strides (ERAT/TLB pressure).
            let ea = match kind % 3 {
                0 => heap + idx * 16,
                1 => heap + idx * 128,
                _ => heap + idx * 4096,
            };
            let op = match kind {
                0 | 1 => MicroOp::Load { ea },
                2 | 3 => MicroOp::Store { ea },
                4 => MicroOp::Larx { ea },
                5 => MicroOp::CondBranch { site: idx, taken: flag },
                6 => MicroOp::Sync,
                _ => MicroOp::Alu,
            };
            // Fetch addresses advance like real code: mostly sequential,
            // occasionally jumping to a new page.
            ia = if idx % 13 == 0 { code + idx * 4096 } else { ia + 4 };
            let ca = on.exec(0, ia, op);
            let cb = off.exec(0, ia, op);
            prop_assert_eq!(ca.to_bits(), cb.to_bits(), "cycle divergence at op {}", i);
            if kind == 4 {
                // A LARX is always followed by its STCX in real streams.
                let st = MicroOp::Stcx { ea, fail: flag };
                ia += 4;
                prop_assert_eq!(on.exec(0, ia, st).to_bits(), off.exec(0, ia, st).to_bits());
            }
        }
        prop_assert_eq!(on.counters(0), off.counters(0));
        prop_assert_eq!(on.l1d(0).stats(), off.l1d(0).stats());
        prop_assert_eq!(on.l1i(0).stats(), off.l1i(0).stats());
        prop_assert_eq!(on.l1d(0).occupancy(), off.l1d(0).occupancy());
        prop_assert_eq!(on.l1i(0).occupancy(), off.l1i(0).occupancy());
        // Identical replacement victims from here on: force evictions in
        // cloned L1 Ds and require the same line to fall out of every set.
        let mut va = on.l1d(0).clone();
        let mut vb = off.l1d(0).clone();
        for probe in 0..96u64 {
            let conflict = va.line_of(heap + probe * 4096) ^ 0x5555;
            prop_assert_eq!(
                va.insert(conflict, Mesi::Shared),
                vb.insert(conflict, Mesi::Shared),
                "victim divergence at probe {}", probe
            );
        }
    }

    /// The back-to-back store replay note in `MemorySystem` is bit-identical
    /// to the full store path: same return values and identical L2/L3
    /// internals (lines, states, stamps, ticks, hit/miss counts) for any
    /// interleaving of stores, load misses, fetches, and prefetches across
    /// chips. The `slow` system has its note cleared before every event, so
    /// every one of its stores takes the full invalidate-walk path.
    #[test]
    fn store_replay_note_is_bit_identical(
        ops in proptest::collection::vec((0u8..8, 0usize..2, 0u64..512), 1..400),
    ) {
        use crate::hierarchy::{MemorySystem, Topology};
        let mk = || {
            MemorySystem::new(
                Topology::default(),
                CacheConfig {
                    size_bytes: 16 * 1024,
                    line_bytes: 128,
                    ways: 2,
                    replacement: Replacement::Lru,
                },
                CacheConfig {
                    size_bytes: 64 * 1024,
                    line_bytes: 512,
                    ways: 4,
                    replacement: Replacement::Fifo,
                },
            )
        };
        let mut fast = mk();
        let mut slow = mk();
        for (i, &(kind, chip, blk)) in ops.iter().enumerate() {
            // 16 B strides: eight consecutive blocks share a 128 B line,
            // reproducing the allocation-write runs the note targets.
            let addr = blk * 16;
            slow.clear_store_note();
            match kind {
                // Biased toward stores — the path under test.
                0..=4 => prop_assert_eq!(
                    fast.store(chip, addr),
                    slow.store(chip, addr),
                    "store divergence at op {}", i
                ),
                5 => prop_assert_eq!(fast.load_miss(chip, addr), slow.load_miss(chip, addr)),
                6 => prop_assert_eq!(fast.fetch_inst(chip, addr), slow.fetch_inst(chip, addr)),
                _ => {
                    fast.prefetch_into_l2(chip, addr);
                    slow.prefetch_into_l2(chip, addr);
                }
            }
        }
        // The note itself differs by construction (slow's is cleared before
        // every event); drop both so the compare covers only cache state.
        fast.clear_store_note();
        slow.clear_store_note();
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// The prefetcher's no-match scan-note replay is bit-identical to the
    /// full stream scan: same decisions and same internal state for any
    /// access sequence. The `slow` engine has its note cleared before every
    /// call, so it always walks the stream table.
    #[test]
    fn prefetch_scan_note_is_bit_identical(
        ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..500),
    ) {
        let mut fast = Prefetcher::new(PrefetchConfig::default());
        let mut slow = Prefetcher::new(PrefetchConfig::default());
        for (i, &(line, miss)) in ops.iter().enumerate() {
            slow.clear_scan_note();
            prop_assert_eq!(
                fast.on_l1_load(line, miss),
                slow.on_l1_load(line, miss),
                "decision divergence at op {}", i
            );
        }
        // The note itself differs by construction; drop both so the compare
        // covers streams, recent-miss filter, and tick.
        fast.clear_scan_note();
        slow.clear_scan_note();
        prop_assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    }

    /// A pure ascending walk eventually turns (almost) every access into a
    /// stream hit.
    #[test]
    fn prefetcher_locks_onto_any_ascending_walk(start in 0u64..1_000_000, len in 16usize..200) {
        let mut p = Prefetcher::new(PrefetchConfig::default());
        let mut advanced = 0;
        for i in 0..len as u64 {
            if p.on_l1_load(start + i, true).advanced {
                advanced += 1;
            }
        }
        // All but the first couple of accesses ride the stream.
        prop_assert!(advanced >= len - 4, "only {advanced}/{len} advanced");
    }
}
