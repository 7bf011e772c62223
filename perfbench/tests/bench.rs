//! The benchmark's own checks: the bench-side fleet reproduces the
//! library's fleet bit for bit, work counts repeat exactly, and the
//! threaded steady-40 workload reproduces the CLI's pinned digest.

use jas2004::run_cluster_with;
use jas_simkernel::SimDuration;
use perfbench::{
    run_rep, Rep, Setup, Workload, PARALLEL_THREADS, PROJECT_SEED, STEADY40_HPM_DIGEST,
};

fn digest(rep: &Rep, name: &str) -> u64 {
    rep.digests
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} missing from {:?}", rep.digests))
        .1
}

/// Timing the fleet from outside must not change it: the bench-side
/// `Cluster<TimedNode>` reproduces `run_cluster_with`'s fleet, per-node
/// and fault digests, timed and untimed.
#[test]
fn wrapper_equivalence() {
    let setup = Setup::new(Workload::FleetFlashCrash, PROJECT_SEED);
    let shape = setup.fleet.expect("fleet workload");
    let art = run_cluster_with(
        &setup.cfg,
        setup.plan,
        shape.nodes,
        shape.dispatch,
        shape.autoscale,
        Some(shape.max_in_flight),
        None,
    );
    for traced in [false, true] {
        let rep = run_rep(&setup, traced);
        assert_eq!(digest(&rep, "FLEET_HPM_DIGEST"), art.hpm_digest);
        assert_eq!(digest(&rep, "FLEET_TRACE_DIGEST"), art.trace_digest);
        assert_eq!(digest(&rep, "FLEET_FAULT_DIGEST"), art.fault_digest);
        for (i, d) in art.node_hpm_digests.iter().enumerate() {
            assert_eq!(digest(&rep, &format!("NODE{i}_HPM_DIGEST")), *d);
        }
        assert_eq!(rep.counts.requests, art.stats.completions);
        assert_eq!(rep.counts.dispatched, art.stats.dispatched);
        assert_eq!(rep.counts.restarts, art.stats.restarts);
        assert_eq!(rep.lost, 0);
    }
}

/// A shortened repetition of `workload`, long enough to reach the layers
/// it exists to load.
fn short(workload: Workload) -> Setup {
    let mut setup = Setup::new(workload, PROJECT_SEED);
    setup.plan.steady = SimDuration::from_secs(match workload {
        Workload::SteadyIr40 => 1,
        Workload::IdleIr1 => 200,
        Workload::FleetFlashCrash => 11,
    });
    setup
}

/// Deterministic work counts repeat exactly, traced or not, and at one
/// or two host threads.
#[test]
fn work_counts_repeat() {
    for workload in Workload::ALL {
        let setup = short(workload);
        let a = run_rep(&setup, false);
        let b = run_rep(&setup.with_threads(PARALLEL_THREADS), true);
        assert_eq!(a.counts, b.counts, "{workload:?}");
        assert_eq!(a.digests, b.digests, "{workload:?}");
        assert!(a.counts.uops > 0 && a.counts.cycles > 0 && a.counts.requests > 0);
        match workload {
            Workload::SteadyIr40 => assert_eq!(a.counts.quanta_skipped, 0),
            Workload::IdleIr1 => assert!(a.counts.quanta_skipped > a.counts.quanta_executed),
            Workload::FleetFlashCrash => {
                assert!(a.counts.restarts > 0, "{:?}", a.counts);
                assert!(a.counts.scale_events > 0, "{:?}", a.counts);
                assert!(a.counts.snapshot_bytes > 0, "{:?}", a.counts);
                assert!(
                    a.counts.faults_injected > a.counts.restarts,
                    "{:?}",
                    a.counts
                );
            }
        }
    }
}

/// The steady-ir40 workload over the scenario's full window, on the
/// parallel worker path, reproduces the threads=1 CLI `HPM_DIGEST` of
/// `scenarios/steady-40.toml`.
#[test]
fn steady40_full_window_matches_cli_digest() {
    let setup = Setup::steady40_full(PROJECT_SEED).with_threads(PARALLEL_THREADS);
    let rep = run_rep(&setup, false);
    assert_eq!(
        digest(&rep, "HPM_DIGEST"),
        STEADY40_HPM_DIGEST,
        "got {:#018x}",
        digest(&rep, "HPM_DIGEST")
    );
}
