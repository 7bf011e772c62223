//! The JVM facade: heap + collector + JIT + monitors behind one API.
//!
//! The workload layer calls [`Jvm::begin_tx`]/[`Jvm::alloc_in_tx`]/
//! [`Jvm::end_tx`] as transactions run; session state goes through
//! [`Jvm::touch_session`]. Allocation failures trigger a stop-the-world
//! collection automatically; each collection is recorded as a [`GcCycle`]
//! the execution layer drains via [`Jvm::take_gc_cycles`] to inject the
//! pause into the simulated timeline and the verbose-GC log.

use crate::gc::{collect, collect_minor, GcPolicy, GcReport};
use crate::heap::{AllocError, HeapConfig, SimHeap};
use crate::jit::Jit;
use crate::locks::{LockOutcome, MonitorId, MonitorTable};
use crate::method::{MethodId, MethodRegistry};
use crate::object::{ObjectClass, ObjectId};
use jas_simkernel::{DetMap, Rng};

/// JVM configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JvmConfig {
    /// Heap shape (already scaled; see DESIGN.md "heap scaling").
    pub heap: HeapConfig,
    /// Denominator of the heap scale (16 = heap is 1/16 of the paper's 1 GB).
    /// Used only for full-scale reporting.
    pub heap_scale: u64,
    /// GC policy.
    pub gc: GcPolicy,
    /// Target live-set size in bytes (long-lived data is expired beyond it;
    /// the paper observed ~20% of a 1 GB heap live).
    pub live_target: u64,
    /// JIT code-cache capacity in bytes.
    pub code_cache: u64,
    /// Generational mode (an extension over the paper's flat-heap J9
    /// configuration): when set, a minor collection runs every time this
    /// many bytes have been allocated, and full collections only on
    /// exhaustion.
    pub minor_every_bytes: Option<u64>,
}

impl Default for JvmConfig {
    fn default() -> Self {
        let heap = HeapConfig::default();
        JvmConfig {
            heap,
            heap_scale: 16,
            gc: GcPolicy::default(),
            live_target: heap.capacity / 5,
            code_cache: 64 << 20,
            minor_every_bytes: None,
        }
    }
}

/// Handle for allocations scoped to one in-flight transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TxHandle(u64);

/// One recorded garbage collection.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcCycle {
    /// Ordinal of the collection (1-based).
    pub index: u64,
    /// Whether this was a minor (young-generation) collection.
    pub minor: bool,
    /// Bytes requested by the allocation that failed.
    pub trigger_bytes: u64,
    /// The collector's report.
    pub report: GcReport,
    /// Heap used-bytes after the cycle (includes dark matter).
    pub used_after: u64,
    /// Cumulative bytes allocated since the previous cycle.
    pub allocated_since_last: u64,
}

/// The simulated JVM.
#[derive(Clone, Debug)]
pub struct Jvm {
    cfg: JvmConfig,
    heap: SimHeap,
    registry: MethodRegistry,
    jit: Jit,
    monitors: MonitorTable,
    long_roots: Vec<ObjectId>,
    long_root_bytes: u64,
    tx_roots: DetMap<u64, Vec<ObjectId>>,
    next_tx: u64,
    gc_cycles: Vec<GcCycle>,
    gc_count: u64,
    allocated_since_gc: u64,
}

impl Jvm {
    /// Boots a JVM with the standard software stack registered.
    #[must_use]
    pub fn new(cfg: JvmConfig) -> Self {
        let registry = MethodRegistry::standard_stack();
        let jit = Jit::new(registry.len(), cfg.code_cache);
        Jvm {
            cfg,
            heap: SimHeap::new(cfg.heap),
            registry,
            jit,
            monitors: MonitorTable::tuned(),
            long_roots: Vec::new(),
            long_root_bytes: 0,
            tx_roots: DetMap::new(),
            next_tx: 0,
            gc_cycles: Vec::new(),
            gc_count: 0,
            allocated_since_gc: 0,
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &JvmConfig {
        &self.cfg
    }

    /// The heap (read-only).
    #[must_use]
    pub fn heap(&self) -> &SimHeap {
        &self.heap
    }

    /// Cumulative bytes allocated over the VM's lifetime (monotonic; the
    /// allocation-epoch trace events carry this value).
    #[must_use]
    pub fn allocated_bytes(&self) -> u64 {
        self.heap.total_allocated_bytes()
    }

    /// The method registry.
    #[must_use]
    pub fn registry(&self) -> &MethodRegistry {
        &self.registry
    }

    /// The JIT compiler.
    #[must_use]
    pub fn jit(&self) -> &Jit {
        &self.jit
    }

    /// Lock statistics so far.
    #[must_use]
    pub fn monitors_stats(&self) -> crate::locks::LockStats {
        self.monitors.stats()
    }

    /// Opens a transaction allocation scope.
    pub fn begin_tx(&mut self) -> TxHandle {
        let h = self.next_tx;
        self.next_tx += 1;
        self.tx_roots.insert(h, Vec::new());
        TxHandle(h)
    }

    /// Allocates an object inside a transaction scope, garbage-collecting
    /// transparently when the heap is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the heap cannot satisfy the allocation even after a
    /// compacting collection (a configuration error), or if `tx` is stale.
    pub fn alloc_in_tx(&mut self, tx: TxHandle, class: ObjectClass, rng: &mut Rng) -> ObjectId {
        let id = self.alloc_with_gc(class);
        let roots = self
            .tx_roots
            .get_mut(&tx.0)
            .expect("stale transaction handle");
        // Wire the object into the transaction's object graph: the first
        // object is the root; later ones hang off random earlier ones.
        if let Some(&parent) = roots.last() {
            if rng.chance(0.7) {
                self.heap.add_ref(parent, id);
            }
        }
        roots.push(id);
        id
    }

    /// Closes a transaction scope; its objects become garbage (unless
    /// reachable from long-lived state).
    ///
    /// # Panics
    ///
    /// Panics if `tx` was already ended.
    pub fn end_tx(&mut self, tx: TxHandle) {
        self.tx_roots
            .remove(&tx.0)
            .expect("transaction ended twice");
    }

    /// Allocates long-lived session/cache state and expires the oldest
    /// long-lived data beyond the configured live target.
    pub fn touch_session(&mut self, rng: &mut Rng) -> ObjectId {
        let session = self.alloc_with_gc(ObjectClass::Session);
        // Root the session immediately: a GC triggered by one of the child
        // allocations below must not sweep it.
        self.long_roots.push(session);
        self.long_root_bytes += self.heap.size_of(session);
        // Sessions carry a small object graph.
        for _ in 0..3 {
            let child_class = if rng.chance(0.5) {
                ObjectClass::Bean
            } else {
                ObjectClass::CharArray
            };
            let child = self.alloc_with_gc(child_class);
            self.heap.add_ref(session, child);
            self.long_root_bytes += self.heap.size_of(child);
        }
        // Session expiry keeps the live set near the target.
        while self.long_root_bytes > self.cfg.live_target && self.long_roots.len() > 1 {
            let expired = self.long_roots.remove(0);
            // The root and its children become unreachable; subtract an
            // estimate of the subgraph (exact bytes are reclaimed at GC).
            self.long_root_bytes = self
                .long_root_bytes
                .saturating_sub(self.heap.size_of(expired) + 3 * ObjectClass::Bean.size());
        }
        session
    }

    fn alloc_with_gc(&mut self, class: ObjectClass) -> ObjectId {
        self.allocated_since_gc += class.size();
        if let Some(threshold) = self.cfg.minor_every_bytes {
            if self.allocated_since_gc >= threshold {
                self.run_minor_gc();
            }
        }
        match self.heap.allocate(class, &[]) {
            Ok(id) => id,
            Err(AllocError::OutOfMemory) => {
                self.run_gc(class.size());
                match self.heap.allocate(class, &[]) {
                    Ok(id) => id,
                    Err(AllocError::OutOfMemory) => {
                        // Fragmentation: force a compacting collection.
                        self.run_compacting_gc(class.size());
                        self.heap
                            .allocate(class, &[])
                            .expect("heap exhausted even after compaction; enlarge the heap")
                    }
                }
            }
        }
    }

    fn roots(&self) -> Vec<ObjectId> {
        let mut roots = self.long_roots.clone();
        for txr in self.tx_roots.values() {
            roots.extend_from_slice(txr);
        }
        roots
    }

    fn run_gc(&mut self, trigger_bytes: u64) {
        let roots = self.roots();
        let report = collect(&mut self.heap, &roots, self.cfg.gc);
        self.record_cycle(trigger_bytes, report, false);
    }

    fn run_minor_gc(&mut self) {
        let roots = self.roots();
        let report = collect_minor(&mut self.heap, &roots, self.cfg.gc);
        self.record_cycle(0, report, true);
    }

    fn run_compacting_gc(&mut self, trigger_bytes: u64) {
        let roots = self.roots();
        let policy = GcPolicy {
            compact_free_threshold: u64::MAX,
            ..self.cfg.gc
        };
        let report = collect(&mut self.heap, &roots, policy);
        self.record_cycle(trigger_bytes, report, false);
    }

    fn record_cycle(&mut self, trigger_bytes: u64, report: GcReport, minor: bool) {
        self.gc_count += 1;
        self.gc_cycles.push(GcCycle {
            index: self.gc_count,
            minor,
            trigger_bytes,
            report,
            used_after: self.heap.used_bytes(),
            allocated_since_last: self.allocated_since_gc,
        });
        self.allocated_since_gc = 0;
    }

    /// Forces a full collection right now, regardless of heap pressure —
    /// the injection point for GC-storm faults. The cycle is recorded like
    /// any allocation-triggered one, so verbose-gc logs and pause
    /// accounting stay consistent.
    pub fn force_gc(&mut self) {
        self.run_gc(0);
    }

    /// Drains collections that happened since the last call (the execution
    /// layer injects their pauses into the timeline).
    pub fn take_gc_cycles(&mut self) -> Vec<GcCycle> {
        core::mem::take(&mut self.gc_cycles)
    }

    /// Total collections so far.
    #[must_use]
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    /// Records `count` invocations of `method`, possibly JIT-compiling it.
    /// Returns the compilation work units generated (0 when no compile).
    pub fn record_invocations(&mut self, method: MethodId, count: u64) -> f64 {
        if self.registry.get(method).component.is_java() {
            self.jit
                .record_invocations(&mut self.registry, method, count);
        }
        self.jit.take_pending_work()
    }

    /// Acquires a monitor on behalf of running Java code.
    pub fn lock(&mut self, monitor: MonitorId, rng: &mut Rng) -> LockOutcome {
        self.monitors.acquire(monitor, rng)
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for TxHandle {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
    }
}

impl Persist for GcCycle {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.index.persist(io);
        self.minor.persist(io);
        self.trigger_bytes.persist(io);
        self.report.persist(io);
        self.used_after.persist(io);
        self.allocated_since_last.persist(io);
    }
}

impl Persist for Jvm {
    /// `cfg` is rebuilt from configuration; the heap, JIT, registry
    /// JIT-status bits, lock statistics, GC roots and bookkeeping are the
    /// mutable state.
    // jas-lint: allow(D009, reason = "cfg is construction-time configuration")
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.heap.persist(io);
        self.jit.persist(io);
        self.registry.persist(io);
        self.monitors.persist(io);
        self.long_roots.persist(io);
        self.long_root_bytes.persist(io);
        snap::persist_map(io, &mut self.tx_roots);
        self.next_tx.persist(io);
        self.gc_cycles.persist(io);
        self.gc_count.persist(io);
        self.allocated_since_gc.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_vm() -> Jvm {
        Jvm::new(JvmConfig {
            heap: HeapConfig {
                capacity: 2 * 1024 * 1024,
                min_chunk: 64,
            },
            heap_scale: 512,
            live_target: 400 * 1024,
            ..JvmConfig::default()
        })
    }

    #[test]
    fn forced_gc_records_a_cycle_like_any_other() {
        let mut vm = small_vm();
        assert_eq!(vm.gc_count(), 0);
        vm.force_gc();
        assert_eq!(vm.gc_count(), 1);
        let cycles = vm.take_gc_cycles();
        assert_eq!(cycles.len(), 1);
        assert!(!cycles[0].minor);
        assert_eq!(cycles[0].trigger_bytes, 0);
    }

    #[test]
    fn tx_objects_die_after_end_tx() {
        let mut vm = small_vm();
        let mut rng = Rng::new(1);
        let tx = vm.begin_tx();
        for _ in 0..100 {
            vm.alloc_in_tx(tx, ObjectClass::Bean, &mut rng);
        }
        vm.end_tx(tx);
        // Force a GC by allocating until exhaustion.
        let mut spin = Rng::new(2);
        while vm.gc_count() == 0 {
            let t = vm.begin_tx();
            vm.alloc_in_tx(t, ObjectClass::Buffer, &mut spin);
            vm.end_tx(t);
        }
        let cycles = vm.take_gc_cycles();
        assert!(!cycles.is_empty());
        // The 100 dead beans must have been reclaimed.
        assert!(cycles[0].report.swept_objects >= 100);
    }

    #[test]
    fn live_tx_objects_survive_gc() {
        let mut vm = small_vm();
        let mut rng = Rng::new(3);
        let tx = vm.begin_tx();
        let keep = vm.alloc_in_tx(tx, ObjectClass::Bean, &mut rng);
        // Exhaust the heap with garbage from other transactions.
        while vm.gc_count() == 0 {
            let t = vm.begin_tx();
            vm.alloc_in_tx(t, ObjectClass::Buffer, &mut rng);
            vm.end_tx(t);
        }
        // `keep` must still be valid: address lookup does not panic.
        let _ = vm.heap().address_of(keep);
        vm.end_tx(tx);
    }

    #[test]
    fn gc_happens_periodically_under_steady_allocation() {
        let mut vm = small_vm();
        let mut rng = Rng::new(4);
        let mut allocs_between = Vec::new();
        let mut last_total = 0u64;
        for _ in 0..60_000 {
            let t = vm.begin_tx();
            for _ in 0..3 {
                vm.alloc_in_tx(t, ObjectClass::Bean, &mut rng);
            }
            vm.end_tx(t);
            for c in vm.take_gc_cycles() {
                allocs_between.push(c.allocated_since_last);
                last_total = c.used_after;
            }
        }
        assert!(
            allocs_between.len() >= 3,
            "expected several GCs, got {}",
            allocs_between.len()
        );
        let _ = last_total;
        // Allocation between GCs should be near the free heap size and
        // roughly constant (periodic GCs, as in the paper).
        let mean = allocs_between.iter().sum::<u64>() as f64 / allocs_between.len() as f64;
        for &a in &allocs_between[1..] {
            assert!(
                (a as f64) > mean * 0.5 && (a as f64) < mean * 1.5,
                "wildly varying GC period: {a} vs mean {mean}"
            );
        }
    }

    #[test]
    fn sessions_hold_live_bytes_near_target() {
        let mut vm = small_vm();
        let mut rng = Rng::new(5);
        for _ in 0..5_000 {
            vm.touch_session(&mut rng);
        }
        // Run a GC to settle the true live set.
        while vm.gc_count() == 0 {
            let t = vm.begin_tx();
            vm.alloc_in_tx(t, ObjectClass::Buffer, &mut rng);
            vm.end_tx(t);
        }
        let live = vm.heap().live_bytes();
        let target = vm.config().live_target;
        assert!(
            live > target / 4 && live < target * 2,
            "live {live} should be near target {target}"
        );
    }

    #[test]
    fn invocation_recording_compiles_hot_methods() {
        let mut vm = small_vm();
        let hot = vm
            .registry()
            .iter()
            .find(|(_, m)| m.component.is_java())
            .map(|(id, _)| id)
            .unwrap();
        let work = vm.record_invocations(hot, 20_000);
        assert!(work > 0.0, "hot method must compile");
        assert!(vm.registry().get(hot).jitted);
        assert!(vm.jit().compiled_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "stale transaction handle")]
    fn alloc_after_end_tx_panics() {
        let mut vm = small_vm();
        let mut rng = Rng::new(6);
        let tx = vm.begin_tx();
        vm.end_tx(tx);
        vm.alloc_in_tx(tx, ObjectClass::Bean, &mut rng);
    }

    #[test]
    fn gc_cycles_report_dark_matter_growth() {
        let mut vm = small_vm();
        let mut rng = Rng::new(7);
        let mut reports = Vec::new();
        for _ in 0..60_000 {
            let t = vm.begin_tx();
            let class = if rng.chance(0.6) {
                ObjectClass::Small
            } else {
                ObjectClass::Bean
            };
            vm.alloc_in_tx(t, class, &mut rng);
            if rng.chance(0.1) {
                vm.touch_session(&mut rng);
            }
            vm.end_tx(t);
            reports.extend(vm.take_gc_cycles());
        }
        assert!(reports.len() >= 2);
        // No compaction in steady state (paper behaviour).
        assert!(
            reports.iter().filter(|c| c.report.compacted).count() == 0,
            "healthy heap must not compact"
        );
    }
}
