//! End-to-end equivalence check: runs the bench scenario at threads=1
//! and threads=8 and prints a digest of the observable outputs (request
//! counts, metrics, steady-state HPM counters). The two rows must match
//! each other (determinism gate), and the digest must be unchanged by
//! any exact-equivalence fast-path work (A/B across code changes).

use jas2004::{Engine, RunPlan, SutConfig};
use jas_simkernel::SimDuration;

fn main() {
    let plan = RunPlan {
        ramp_up: SimDuration::from_secs(5),
        steady: SimDuration::from_secs(15),
        hpm_period: SimDuration::from_millis(500),
        throughput_bin: SimDuration::from_secs(5),
    };
    for threads in [1usize, 8] {
        let mut cfg = SutConfig::at_ir(30);
        cfg.threads = threads;
        let mut engine = Engine::new(cfg, plan);
        engine.run_to_end();
        let state = format!("{:?}{:?}", engine.metrics(), engine.steady_counters());
        let acc = jas_simkernel::snapshot::fnv1a(state.as_bytes());
        println!(
            "threads={threads} completed={} aborted={} digest={acc:016x}",
            engine.completed_requests(),
            engine.aborted_requests(),
        );
    }
}
