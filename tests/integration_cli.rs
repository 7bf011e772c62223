//! Pins the `jas2004` binary's exact `KEY=value` stdout lines (every line
//! matching `^[A-Z0-9_]+=`) in six run modes: a traced faulted run, a
//! checkpoint and its restore, a crash-planned two-node fleet, a
//! three-node fleet whose crash window closes mid-run (with its fleet
//! table), and two registry scenarios (one engine, one autoscaled fleet).
//! Every mode goes through the binary's one run driver, so a refactor of
//! that driver must leave these lines byte-identical. Also checks that a
//! single-node scenario run honours `--host-prof`.

use std::process::Command;

/// Runs the binary on whitespace-separated `args` (`@name` expands to the
/// path of `scenarios/<name>.toml`), requiring success; returns stdout.
fn run(args: &str) -> String {
    let scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/");
    let args: Vec<String> = args
        .split_whitespace()
        .map(|a| match a.strip_prefix('@') {
            Some(name) => format!("{scenarios}{name}.toml"),
            None => a.to_string(),
        })
        .collect();
    let out = Command::new(env!("CARGO_BIN_EXE_jas2004"))
        .args(&args)
        .output()
        .expect("jas2004 binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "jas2004 {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The lines of `stdout` that match `^[A-Z0-9_]+=`.
fn keyed_lines(stdout: &str) -> Vec<&str> {
    let is_key = |k: &str| {
        !k.is_empty()
            && k.bytes()
                .all(|b| matches!(b, b'A'..=b'Z' | b'0'..=b'9' | b'_'))
    };
    let keyed = |l: &&str| l.split_once('=').is_some_and(|(k, _)| is_key(k));
    stdout.lines().filter(keyed).collect()
}

#[test]
fn traced_faulted_run_lines_are_pinned() {
    let out = run("--ir 10 --ramp 2 --steady 8 --trace all --figure 2 \
                   --fault-plan db-lock@3-7:0.5,jms-redeliver@4-8:0.5");
    assert_eq!(
        keyed_lines(&out),
        [
            "HPM_DIGEST=0xb4346e0e0b7fb3ca",
            "TRACE_DIGEST=0x60e1464670427ab4 events=3655",
            "FAULT_DIGEST=0xe64b07b84d1c711b events=387",
        ]
    );
}

#[test]
fn checkpoint_and_restore_lines_are_pinned() {
    let path = std::env::temp_dir().join(format!("jas2004-cli-pin-{}.jckpt", std::process::id()));
    let ckpt = path.to_str().expect("utf8 temp path");
    let args = "--ir 10 --ramp 2 --steady 8 --trace all --figure 2";
    let taken = run(&format!("{args} --checkpoint-at 5 --checkpoint-out {ckpt}"));
    let restored = run(&format!("{args} --restore-from {ckpt} --threads 2"));
    std::fs::remove_file(&path).ok();
    let resumed = [
        "HPM_DIGEST=0x1780dd48b8e39b2c",
        "TRACE_DIGEST=0x1d0089693d0b6899 events=4065",
    ];
    let taken = taken.replace(ckpt, "<ckpt>");
    let ckpt_line = "CKPT=<ckpt> tick_ns=5024000000 bytes=12102856";
    assert_eq!(keyed_lines(&taken), [&[ckpt_line][..], &resumed].concat());
    assert_eq!(keyed_lines(&restored), resumed);
}

#[test]
fn crash_planned_fleet_lines_are_pinned() {
    let out = run(
        "--ir 10 --ramp 2 --steady 8 --nodes 2 --trace all --figure cluster \
                   --fault-plan node-crash@4-6:0.5",
    );
    assert_eq!(
        keyed_lines(&out),
        [
            "HPM_DIGEST=0xeb6f42e2e413ed34",
            "TRACE_DIGEST=0x5fb4fbf0cd76dedd",
            "FAULT_DIGEST=0x6b9c99f6e74f8ad1",
            "NODE0_HPM_DIGEST=0x6b27fd3d1b754ec0",
            "NODE1_HPM_DIGEST=0x2294468dce69b2ef",
            "CLUSTER_VERDICT=pass lost=0 shed=48 shed_fraction=0.3453",
        ]
    );
}

/// A three-node fleet whose crash window (3–5 s) closes mid-run: three
/// crashes, three warm restarts from held images, then no capture can be
/// read and none is taken. The fleet table (per-node and fleet rows, LB
/// counters, verdict) and the keyed lines are pinned at threads 1 and 4
/// under both schedulers, to the values of a build that captured images
/// for the whole run.
#[test]
fn fleet_with_a_closed_crash_window_is_pinned() {
    let table = [
        "Fleet (cluster)",
        "  3 nodes, dispatch round-robin",
        "    node         cycles   instructions    ipc  hpm digest",
        "       0        5863660        1015389   0.17  0xd08b04a190a51135",
        "       1        4946094         846020   0.17  0x913013690a382595",
        "       2        7223387        1300008   0.18  0x92bb44033b35e5c0",
        "   fleet       18033141        3161417   0.18  0x175673905cba0423",
        "      dispatched 114",
        "     completions 112",
        "          errors 0",
        "   crash-errored 0",
        "    redispatched 1",
        "            shed 26",
        "         offered 140",
        "          cloned 0",
        "         crashes 3",
        "        restarts 3",
        "       ejections 0",
        "    readmissions 3",
        "       scale-ups 0",
        "     scale-downs 0",
        "  jops 13.2   web p90 0.088s   rmi p90 0.036s   mean failover 2048 ms",
        "  lost 0   shed 26 (18.6% of offered)   PASS",
    ];
    let keyed = [
        "HPM_DIGEST=0x8a7ec00ad5de7b92",
        "FAULT_DIGEST=0x002bbf9043d3cab3",
        "NODE0_HPM_DIGEST=0xd08b04a190a51135",
        "NODE1_HPM_DIGEST=0x913013690a382595",
        "NODE2_HPM_DIGEST=0x92bb44033b35e5c0",
        "CLUSTER_VERDICT=pass lost=0 shed=26 shed_fraction=0.1857",
    ];
    for threads in [1, 4] {
        for sched in ["quantum", "event"] {
            let out = run(&format!(
                "--ir 10 --ramp 2 --steady 8 --nodes 3 --figure cluster \
                 --fault-plan node-crash@3-5:0.3 --threads {threads} --sched {sched}"
            ));
            let fleet: Vec<&str> = out
                .lines()
                .skip_while(|l| *l != "Fleet (cluster)")
                .take(table.len())
                .map(str::trim_end)
                .collect();
            assert_eq!(fleet, table, "threads {threads}, {sched}");
            assert_eq!(keyed_lines(&out), keyed, "threads {threads}, {sched}");
        }
    }
}

#[test]
fn steady_40_scenario_lines_are_pinned() {
    let out = run("--scenario @steady-40 --ramp 1 --steady 4 --figure scenario");
    assert_eq!(
        keyed_lines(&out),
        [
            "SCENARIO_DIGEST=0x00fabaaee9ea8bb2",
            "HPM_DIGEST=0xbcbc0807a8c04019",
            "SCENARIO_VERDICT=pass name=steady-40 web_p90=0.2493 rmi_p90=0.1582 \
             error_rate=0.0000 shed_fraction=0.0000 slo_miss=0.0000",
        ]
    );
}

#[test]
fn flash_crowd_scenario_lines_are_pinned() {
    let out = run("--scenario @flash-crowd --ramp 2 --steady 14");
    assert_eq!(
        keyed_lines(&out),
        [
            "SCENARIO_DIGEST=0x9acd526ffff95d89",
            "HPM_DIGEST=0x58cd79147284080b",
            "NODE0_HPM_DIGEST=0xada79dce365fb225",
            "NODE1_HPM_DIGEST=0x9a203fc872650de9",
            "NODE2_HPM_DIGEST=0xafd7f008939df2ab",
            "ACTIVE_NODES=3 scale_ups=2 scale_downs=0",
            "CLUSTER_VERDICT=pass lost=0 shed=0 shed_fraction=0.0000",
            "SCENARIO_VERDICT=pass name=flash-crowd web_p90=0.0894 rmi_p90=0.0308 \
             error_rate=0.0000 shed_fraction=0.0000 slo_miss=0.0000",
        ]
    );
}

/// `--host-prof` prints the HOSTPROF block for a single-node scenario run
/// exactly as it does for the equivalent flag run.
#[test]
fn single_node_scenario_prints_the_host_profile() {
    let out = run("--scenario @steady-40 --ramp 1 --steady 2 --host-prof");
    assert!(
        out.lines().any(|l| l.starts_with("HOSTPROF")),
        "no HOSTPROF block in: {out}"
    );
}
