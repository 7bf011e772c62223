//! Snapshot-path gates: the bulk word primitives write, digest and load
//! exactly what the word-at-a-time path does on real engine states
//! (single node under both schedulers, and a fleet node in
//! external-arrival mode), and every persisted enum tag outside its
//! variant range fails the load instead of decoding to a default —
//! including one forged into a `.jckpt` past its recomputed trailer.

use jas2004::{checkpoint_bytes, restore_engine, Engine, RunPlan, SchedMode, SutConfig};
use jas_appserver::{BreakerState, PlanStep, PoolKind};
use jas_cpu::{CacheConfig, MicroOp};
use jas_db::{DbFault, LockMode, Query, TableId};
use jas_faults::{EventKind, FaultKind};
use jas_jvm::{Component, ObjectClass, OptLevel};
use jas_simkernel::snapshot::{fnv1a, Loader, PerWord, Persist, Saver, WordDigest};
use jas_simkernel::{SimDuration, SimTime};
use jas_workload::RequestKind;

fn plan() -> RunPlan {
    RunPlan {
        ramp_up: SimDuration::from_secs(1),
        steady: SimDuration::from_secs(4),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(1),
    }
}

fn cfg(sched: SchedMode) -> SutConfig {
    let mut c = SutConfig::at_ir(12);
    c.machine.frequency_hz = 300_000.0;
    c.jvm.heap.capacity = 8 << 20;
    c.jvm.live_target = 2 << 20;
    c.sched = sched;
    c.seed = 23;
    c
}

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect()
}

/// Word index of the first state word of the first cache of `slots` lines
/// in a state stream: its tag, state and stamp slices each start with the
/// length word `slots`, and every state word is a MESI tag.
fn first_cache_states(stream: &[u64], slots: usize) -> usize {
    let n = slots as u64;
    (0..stream.len().saturating_sub(3 * slots + 3))
        .find(|&i| {
            stream[i] == n
                && stream[i + 1 + slots] == n
                && stream[i + 2 + 2 * slots] == n
                && stream[i + 2 + slots..i + 2 + 2 * slots]
                    .iter()
                    .all(|&s| s <= 3)
        })
        .map(|i| i + 2 + slots)
        .expect("cache slices in the stream")
}

fn slots(c: CacheConfig) -> usize {
    c.sets() * c.ways
}

/// The engine state as the bulk `Saver` writes it, after checking it
/// against the per-word reference visitor and the `WordDigest`.
fn saved_image(engine: &mut Engine) -> Vec<u8> {
    let mut fast = Saver::new();
    engine.persist_state(&mut fast);
    let mut slow = PerWord(Saver::new());
    engine.persist_state(&mut slow);
    let image = fast.into_bytes();
    assert_eq!(image, slow.0.into_bytes(), "bulk and per-word bytes differ");
    let mut digest = WordDigest::new();
    engine.persist_state(&mut digest);
    assert_eq!(digest.value(), fnv1a(&image));
    assert_eq!(engine.probe_digest(), fnv1a(&image));
    image
}

/// Loads `bytes` into a fresh engine through a `Loader`, or through the
/// per-word reference over one; returns the verdict and the state the
/// engine was left in.
fn load_image(
    fresh: &dyn Fn() -> Engine,
    bytes: &[u8],
    per_word: bool,
) -> (Result<(), String>, Vec<u8>) {
    let mut engine = fresh();
    let verdict = if per_word {
        let mut loader = PerWord(Loader::new(bytes));
        engine.persist_state(&mut loader);
        loader.0.finish()
    } else {
        let mut loader = Loader::new(bytes);
        engine.persist_state(&mut loader);
        loader.finish()
    };
    let mut after = Saver::new();
    engine.persist_state(&mut after);
    (verdict, after.into_bytes())
}

/// Saving, digesting and loading `engine` through the bulk paths agrees
/// with the per-word reference, for the whole image and for the image cut
/// at word boundaries inside the L2 tag, state and stamp arrays and the L3
/// state array. (`jas-cpu`'s own tests cut a cache and a branch unit at
/// every word boundary.)
fn assert_bulk_matches_per_word(engine: &mut Engine, fresh: &dyn Fn() -> Engine) {
    let image = saved_image(engine);
    let stream = words(&image);
    let machine = &engine.config().machine;
    let l2 = slots(machine.l2);
    let l3 = slots(machine.l3);
    let l2_states = first_cache_states(&stream, l2);
    let l3_states = first_cache_states(&stream[l2_states..], l3) + l2_states;
    let mut cuts = vec![stream.len(), l3_states + l3 / 2];
    for start in [l2_states - 1 - l2, l2_states, l2_states + 1 + l2] {
        cuts.extend([start + 1, start + l2 / 2, start + l2 - 1]);
    }
    for cut in cuts {
        let fast = load_image(fresh, &image[..cut * 8], false);
        let slow = load_image(fresh, &image[..cut * 8], true);
        assert_eq!(fast.0, slow.0, "verdicts differ at word {cut}");
        assert!(fast.1 == slow.1, "loaded states differ at word {cut}");
        assert_eq!(fast.0.is_ok(), cut == stream.len(), "cut at word {cut}");
        if cut == stream.len() {
            assert!(fast.1 == image, "a full load must reproduce the image");
        }
    }
}

#[test]
fn bulk_paths_match_per_word_on_engine_states() {
    let plan = plan();
    for sched in [SchedMode::Quantum, SchedMode::Event] {
        let cfg = cfg(sched);
        let fresh = || Engine::new(cfg.clone(), plan);
        let mut engine = fresh();
        for at_ms in [0, 1_200, 3_000] {
            engine.run_to(SimTime::from_millis(at_ms));
            assert_bulk_matches_per_word(&mut engine, &fresh);
        }
    }
}

#[test]
fn bulk_paths_match_per_word_on_a_fleet_node() {
    let plan = plan();
    let cfg = cfg(SchedMode::Quantum);
    let fresh = || {
        let mut e = Engine::new(cfg.clone(), plan);
        e.enable_external_arrivals();
        e
    };
    let mut engine = fresh();
    for (i, kind) in RequestKind::ALL.iter().cycle().take(24).enumerate() {
        engine.push_external_arrival(SimTime::from_millis(50 * i as u64), *kind);
    }
    for at_ms in [800, 2_400] {
        engine.run_to(SimTime::from_millis(at_ms));
        assert_bulk_matches_per_word(&mut engine, &fresh);
    }
}

/// Loads `value`'s type from `stream`; the loader's verdict.
fn load<T: Persist>(mut value: T, stream: &[u64]) -> Result<(), String> {
    let bytes: Vec<u8> = stream.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut loader = Loader::new(&bytes);
    value.persist(&mut loader);
    loader.finish()
}

/// Every persisted enum rejects a tag one past its last variant (MESI line
/// states, persisted only inside a cache's state slice, are covered by
/// `forged_cache_state_is_rejected`). Each stream also carries the payload
/// words the last variant would read, so a decoder that fell back to a
/// default variant would consume it exactly and report success.
#[test]
fn out_of_range_enum_tags_are_rejected() {
    let faults = FaultKind::ALL.len() as u64;
    let components = Component::ALL.len() as u64;
    let requests = RequestKind::ALL.len() as u64;
    let cases: Vec<(&str, Result<(), String>)> = vec![
        ("MicroOp", load(MicroOp::Alu, &[10])),
        ("PlanStep", load(PlanStep::SessionTouch, &[7])),
        ("BreakerState", load(BreakerState::Closed, &[3])),
        ("PoolKind", load(PoolKind::Orb, &[4])),
        (
            "Query",
            load(
                Query::SelectByKey {
                    table: TableId(0),
                    key: 0,
                },
                &[5, 0, 0],
            ),
        ),
        ("EventKind", load(EventKind::RequestShed, &[18])),
        ("OptLevel", load(OptLevel::Cold, &[4])),
        ("ObjectClass", load(ObjectClass::Small, &[6])),
        ("FaultKind", load(FaultKind::NodeCrash, &[faults])),
        ("Component", load(Component::ALL[0], &[components])),
        ("RequestKind", load(RequestKind::Browse, &[requests])),
        ("DbFault", load(DbFault::LockTimeout, &[2])),
        ("LockMode", load(LockMode::Shared, &[2])),
    ];
    for (what, verdict) in cases {
        let err = verdict.expect_err(what);
        assert!(err.contains("is not a valid"), "{what}: {err}");
    }
    // The last valid tag still loads.
    load(BreakerState::Closed, &[2]).expect("HalfOpen");
    load(EventKind::RequestShed, &[17, 0]).expect("NodeScaledDown");
}

/// A `.jckpt` whose first L2 line-state word is forged to 7, with the
/// trailer recomputed, passes the container checks and is refused by the
/// state load.
#[test]
fn forged_cache_state_is_rejected() {
    let cfg = cfg(SchedMode::Quantum);
    let plan = plan();
    let mut e = Engine::new(cfg.clone(), plan);
    e.run_to(SimTime::from_secs(1));
    let mut bytes = checkpoint_bytes(&mut e);
    let stream = words(&bytes);
    // Header: magic, version, fingerprint, payload length; then payload.
    let state = 4 + first_cache_states(&stream[4..], slots(cfg.machine.l2));
    bytes[state * 8..state * 8 + 8].copy_from_slice(&7u64.to_le_bytes());
    let trailer = stream.len() - 1;
    let digest = fnv1a(&bytes[..trailer * 8]);
    bytes[trailer * 8..].copy_from_slice(&digest.to_le_bytes());
    let err = restore_engine(&cfg, plan, &bytes).map(|_| ()).unwrap_err();
    assert!(
        err.contains("0x7 is not a valid"),
        "unexpected error: {err}"
    );
}
