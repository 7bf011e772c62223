//! Per-layer kernel replays: each times one layer's public hot-path call
//! from outside, on inputs drawn from the workload's own seed, profile and
//! sizes, and reports its operation count beside its time.

use crate::median;
use crate::workloads::Setup;
use jas2004::profiles::{profile_for, FootprintConfig};
use jas2004::{Engine, SutConfig};
use jas_cpu::prefetch::PrefetchDecision;
use jas_cpu::{
    BranchUnit, Machine, MemorySystem, Mesi, MicroOp, Mmu, Prefetcher, SetAssocCache, StreamGen,
};
use jas_db::{BTree, Database};
use jas_jvm::{Component, Jvm};
use jas_simkernel::{Loader, Rng, Saver, SimDuration, SimTime, WakeHeap};
use jas_workload::{catalog_popularity, Driver, DriverConfig, JasScenario};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed batches per kernel; the reported time is their median.
const BATCHES: usize = 5;
/// Micro-ops replayed per `cpu` batch.
const CPU_OPS: usize = 200_000;
/// B-tree lookups per batch.
const BTREE_LOOKUPS: usize = 200_000;
/// Arrival draws per batch (at least the run's own arrivals).
const MIN_ARRIVAL_DRAWS: u64 = 100_000;
/// Wake-heap rounds per batch.
const WAKE_ROUNDS: usize = 100_000;
/// Collections per `jvm` batch.
const GC_PER_BATCH: usize = 2;

/// One kernel's result: operations per batch and median ns per operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelRow {
    /// Operations in one batch (identical in every batch).
    pub ops: u64,
    /// Median host nanoseconds per operation.
    pub ns_per_op: f64,
}

/// Runs `batch` [`BATCHES`] times; each call returns its op count and the
/// host time of its measured region.
fn measure(mut batch: impl FnMut() -> (u64, Duration)) -> KernelRow {
    let mut ops = None;
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (n, dt) = batch();
            assert!(
                ops.is_none_or(|o| o == n),
                "a kernel batch changed its op count"
            );
            ops = Some(n);
            dt.as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    KernelRow {
        ops: ops.unwrap_or(0),
        ns_per_op: median(&ns),
    }
}

fn timed(f: impl FnOnce() -> u64) -> (u64, Duration) {
    let t0 = Instant::now();
    let n = f();
    (n, t0.elapsed())
}

/// The `cpu` layer's kernels.
#[derive(Clone, Copy, Debug)]
pub struct CpuKernels {
    /// `StreamGen::next_op`.
    pub stream: KernelRow,
    /// `Machine::exec` (core 0, private state plus immediate reconcile).
    pub machine: KernelRow,
    /// `SetAssocCache::access` (plus the fill on a miss) on the L1 D.
    pub l1d: KernelRow,
    /// `Mmu::translate_data`.
    pub tlb: KernelRow,
    /// `BranchUnit::resolve_conditional`.
    pub branch: KernelRow,
    /// `Prefetcher::on_l1_load_into` for every load.
    pub prefetch: KernelRow,
    /// `MemorySystem::load_miss` for every L1 load miss.
    pub hierarchy: KernelRow,
}

fn ea_of(op: MicroOp) -> Option<(u64, bool)> {
    match op {
        MicroOp::Load { ea } | MicroOp::Larx { ea } => Some((ea, true)),
        MicroOp::Store { ea } | MicroOp::Stcx { ea, .. } => Some((ea, false)),
        _ => None,
    }
}

/// The first stream generator the engine builds (component-major fork
/// order: the first component on core 0), so the replayed ops are the
/// start of the workload's own instruction stream.
fn workload_stream(cfg: &SutConfig) -> StreamGen {
    let fp = FootprintConfig {
        heap_bytes: cfg.jvm.heap.capacity,
        jit_code_bytes: 10 << 20,
        buffer_pool_bytes: cfg.db.pool_pages as u64 * cfg.db.page_bytes,
    };
    let component = Component::ALL[0];
    let mut rng = Rng::new(cfg.seed);
    StreamGen::new(
        profile_for(component, &fp),
        rng.fork(&format!("{}/0", component.name())),
        1,
    )
}

/// Replays the workload's micro-op stream through each `cpu` structure.
#[must_use]
pub fn cpu(cfg: &SutConfig) -> CpuKernels {
    let mc = &cfg.machine;
    let stream = measure(|| {
        let mut gen = workload_stream(cfg);
        timed(|| {
            for _ in 0..CPU_OPS {
                black_box(gen.next_op());
            }
            CPU_OPS as u64
        })
    });
    let mut gen = workload_stream(cfg);
    let ops: Vec<(u64, MicroOp)> = (0..CPU_OPS).map(|_| gen.next_op()).collect();

    let machine = measure(|| {
        let mut m = Machine::new(mc.clone());
        timed(|| {
            for &(ia, op) in &ops {
                black_box(m.exec(0, ia, op));
            }
            ops.len() as u64
        })
    });

    let refs: Vec<(u64, bool)> = ops.iter().filter_map(|&(_, op)| ea_of(op)).collect();
    let l1d = measure(|| {
        let mut c = SetAssocCache::new(mc.l1d);
        timed(|| {
            for &(ea, _) in &refs {
                let line = c.line_of(ea);
                if c.access(line).is_none() {
                    black_box(c.insert(line, Mesi::Exclusive));
                }
            }
            refs.len() as u64
        })
    });
    // Load misses of the same L1 replay feed the prefetcher and the
    // shared hierarchy.
    let mut c = SetAssocCache::new(mc.l1d);
    let loads: Vec<(u64, bool)> = refs
        .iter()
        .filter_map(|&(ea, is_load)| {
            let line = c.line_of(ea);
            let miss = c.access(line).is_none();
            if miss {
                c.insert(line, Mesi::Exclusive);
            }
            is_load.then_some((line, miss))
        })
        .collect();
    let misses: Vec<u64> = loads
        .iter()
        .filter(|(_, miss)| *miss)
        .map(|&(line, _)| c.addr_of_line(line))
        .collect();

    let tlb = measure(|| {
        let mut mmu = Mmu::new(mc.mmu);
        timed(|| {
            for &(ea, _) in &refs {
                black_box(mmu.translate_data(ea, mc.addr_map.page_size(ea)));
            }
            refs.len() as u64
        })
    });
    let branch = measure(|| {
        let mut unit = BranchUnit::new(mc.branch);
        timed(|| {
            let mut n = 0;
            for &(_, op) in &ops {
                if let MicroOp::CondBranch { site, taken } = op {
                    black_box(unit.resolve_conditional(site, taken));
                    n += 1;
                }
            }
            n
        })
    });
    let prefetch = measure(|| {
        let mut pf = Prefetcher::new(mc.prefetch);
        let mut decision = PrefetchDecision::default();
        timed(|| {
            for &(line, miss) in &loads {
                pf.on_l1_load_into(line, miss, &mut decision);
                black_box(&decision);
            }
            loads.len() as u64
        })
    });
    let hierarchy = measure(|| {
        let mut mem = MemorySystem::new(mc.topology, mc.l2, mc.l3);
        timed(|| {
            for &addr in &misses {
                black_box(mem.load_miss(0, addr));
            }
            misses.len() as u64
        })
    });
    CpuKernels {
        stream,
        machine,
        l1d,
        tlb,
        branch,
        prefetch,
        hierarchy,
    }
}

/// `jvm`: full collections of a heap warmed to the workload's live set
/// the way the engine warms its own. `ops` counts objects marked.
#[must_use]
pub fn gc(cfg: &SutConfig) -> KernelRow {
    let mut jvm = Jvm::new(cfg.jvm);
    let target = cfg.jvm.live_target * 4 / 5;
    let mut rng = Rng::new(cfg.seed).fork("session-warmup");
    while jvm.heap().live_bytes() < target {
        jvm.touch_session(&mut rng);
    }
    // The first collection sweeps the warm-up garbage; later ones mark
    // the same live set.
    jvm.force_gc();
    let _ = jvm.take_gc_cycles();
    measure(|| {
        let t0 = Instant::now();
        for _ in 0..GC_PER_BATCH {
            jvm.force_gc();
        }
        let dt = t0.elapsed();
        let marked = jvm
            .take_gc_cycles()
            .iter()
            .map(|c| c.report.marked_objects)
            .sum();
        (marked, dt)
    })
}

/// `db`: B-tree lookups at the size of the workload's customer table, on
/// keys drawn the way request plans draw them. Returns the timing row and
/// the nodes visited per lookup.
#[must_use]
pub fn btree(cfg: &SutConfig) -> (KernelRow, f64) {
    let mut db = Database::new(cfg.db);
    let rows = JasScenario::new(&mut db, cfg.ir, cfg.seed)
        .schema()
        .initial_rows
        .customers
        .max(1);
    let mut tree = BTree::new(64);
    for key in 0..rows {
        tree.insert(key, key);
    }
    // The request plans' key pick: a Zipf hot set mapped onto the table,
    // blended with a uniform tail.
    let zipf = catalog_popularity();
    let mut rng = Rng::new(cfg.seed ^ 0x4A53);
    let keys: Vec<u64> = (0..BTREE_LOOKUPS)
        .map(|_| {
            if rng.chance(0.7) {
                (zipf.sample(&mut rng) as u64 * 37) % rows
            } else {
                rng.next_below(rows)
            }
        })
        .collect();
    let nodes: u64 = keys
        .iter()
        .map(|&k| u64::from(tree.lookup(k).nodes_touched))
        .sum();
    let row = measure(|| {
        timed(|| {
            for &k in &keys {
                black_box(tree.lookup(k));
            }
            keys.len() as u64
        })
    });
    (row, nodes as f64 / keys.len() as f64)
}

/// `workload`: the run's arrival stream (the scenario's `next_arrival`,
/// with the run's curve). Returns the timing row and the number of
/// arrivals that fall inside the simulated window.
#[must_use]
pub fn arrivals(setup: &Setup) -> (KernelRow, u64) {
    let cfg = &setup.cfg;
    let end = setup.plan.end();
    let stream = || Driver::with_curve(DriverConfig::at_ir(cfg.ir), cfg.curve.clone());
    let mut d = stream();
    let mut at = SimTime::ZERO;
    let mut in_window = 0u64;
    loop {
        at += d.next_arrival().0;
        if at >= end {
            break;
        }
        in_window += 1;
    }
    let draws = in_window.max(MIN_ARRIVAL_DRAWS);
    let row = measure(|| {
        let mut d = stream();
        timed(|| {
            for _ in 0..draws {
                black_box(d.next_arrival());
            }
            draws
        })
    });
    (row, in_window)
}

/// `simkernel`: the event scheduler's wake-heap traffic for this
/// workload: an arrival lane on the run's own arrival ticks, the HPM
/// sampler lane, and a blocked-task lane with seeded short delays.
#[must_use]
pub fn wake_heap(setup: &Setup) -> KernelRow {
    const ARRIVAL: u64 = 0;
    const SAMPLER: u64 = 1;
    const TASK: u64 = 2;
    let cfg = &setup.cfg;
    let quantum = cfg.quantum.as_nanos().max(1);
    let period = (setup.plan.hpm_period.as_nanos() / quantum).max(1);
    let mut d = Driver::with_curve(DriverConfig::at_ir(cfg.ir), cfg.curve.clone());
    let mut at = SimDuration::ZERO;
    let arrival_ticks: Vec<u64> = (0..WAKE_ROUNDS)
        .map(|_| {
            at += d.next_arrival().0;
            at.as_nanos() / quantum
        })
        .collect();
    let mut rng = Rng::new(cfg.seed).fork("wake-kernel");
    let task_delays: Vec<u64> = (0..WAKE_ROUNDS).map(|_| 1 + rng.next_below(8)).collect();
    measure(|| {
        let mut heap = WakeHeap::new();
        timed(|| {
            let mut ops = 0u64;
            let mut now = 0u64;
            for (&arrival, &delay) in arrival_ticks.iter().zip(&task_delays) {
                heap.register(ARRIVAL, arrival.max(now));
                heap.register(SAMPLER, (now / period + 1) * period);
                heap.register(TASK, now + delay);
                now = heap.next_wake().unwrap_or(now);
                black_box(heap.take_due(now));
                ops += 5;
            }
            ops
        })
    })
}

/// `simkernel` snapshot throughput on an end-of-run state image.
#[derive(Clone, Copy, Debug)]
pub struct SnapshotKernels {
    /// `Engine::persist_state` through a `Saver`, MB/s.
    pub save_mb_per_s: f64,
    /// `Engine::persist_state` through a `Loader`, MB/s (construction of
    /// the target engine excluded).
    pub load_mb_per_s: f64,
    /// One warm restart as the LB performs it: construction plus load,
    /// seconds.
    pub restore_s: f64,
    /// One snapshot as the LB takes it, seconds.
    pub snapshot_s: f64,
}

/// Loads `image` into fresh engines of `setup`'s (node 0) configuration
/// and saves it back out. `external` selects the cluster node's
/// external-arrival mode.
#[must_use]
pub fn snapshots(setup: &Setup, image: &[u8], external: bool) -> SnapshotKernels {
    let mut cfg = setup.cfg.clone();
    cfg.faults.plan = cfg.faults.plan.local_only();
    let mb = image.len() as f64 / 1e6;
    let mut load_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut save_s = Vec::new();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        let mut engine = Engine::new(cfg.clone(), setup.plan);
        if external {
            engine.enable_external_arrivals();
        }
        let t1 = Instant::now();
        let mut loader = Loader::new(image);
        engine.persist_state(&mut loader);
        loader
            .finish()
            .expect("an end-of-run image loads into its own configuration");
        load_s.push(t1.elapsed().as_secs_f64());
        restore_s.push(t0.elapsed().as_secs_f64());
        let t2 = Instant::now();
        let mut saver = Saver::new();
        engine.persist_state(&mut saver);
        black_box(saver.into_bytes());
        save_s.push(t2.elapsed().as_secs_f64());
    }
    let snapshot_s = median(&save_s);
    SnapshotKernels {
        save_mb_per_s: mb / snapshot_s,
        load_mb_per_s: mb / median(&load_s),
        restore_s: median(&restore_s),
        snapshot_s,
    }
}
