//! Integration: run jas-lint over the fixture tree (one known violation
//! per rule plus suppression and negative-control files) and assert the
//! exact findings, their JSON/SARIF renderings, the binary's `--deny`
//! exit codes, output determinism, the committed `lint.toml`, and the
//! full-tree timing budget.

use jas_lint::config::{Config, Severity};
use jas_lint::{findings, has_deny, lint_tree, sarif};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_base() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint is two levels below the repo root")
        .to_path_buf()
}

fn repo_config() -> Config {
    let toml =
        std::fs::read_to_string(repo_root().join("lint.toml")).expect("lint.toml is committed");
    Config::parse(&toml).expect("committed lint.toml parses")
}

fn fixture_findings() -> Vec<findings::Finding> {
    lint_tree(&Config::default(), &fixture_base())
}

/// `Config`'s `Debug` rendering of the committed `lint.toml`, pinned so a
/// change to the shared TOML parser cannot change how the config reads.
const REPO_CONFIG_DEBUG: &str = "Config { roots: [\"crates\"], exclude: [\"crates/lint/tests\"], \
rules: {\"D002\": RuleCfg { severity: Deny, only: [], exempt: [\"crates/simkernel/src/rng.rs\", \
\"crates/trace/src/hostprof.rs\"], per_crate: {} }, \"D003\": RuleCfg { severity: Deny, \
only: [\"crates/cpu\", \"crates/hpm\"], exempt: [], per_crate: {} }, \"D006\": RuleCfg { \
severity: Deny, only: [], exempt: [], per_crate: {} }, \"D013\": RuleCfg { severity: Deny, \
only: [\"crates/cluster\", \"crates/appserver\"], exempt: [], per_crate: {} }} }";

#[test]
fn committed_config_parses_to_the_pinned_config() {
    assert_eq!(format!("{:?}", repo_config()), REPO_CONFIG_DEBUG);
}

#[test]
fn every_rule_detects_its_fixture_violation() {
    let got: Vec<(String, String, u32)> = fixture_findings()
        .into_iter()
        .map(|f| (f.rule, f.path, f.line))
        .collect();
    let want: Vec<(String, String, u32)> = [
        ("D001", "crates/fixture/src/d001.rs", 3),
        ("D001", "crates/fixture/src/d001.rs", 6),
        ("D002", "crates/fixture/src/d002.rs", 3),
        ("D002", "crates/fixture/src/d002.rs", 5),
        ("D002", "crates/fixture/src/d002.rs", 6),
        ("D003", "crates/fixture/src/d003.rs", 4),
        ("D004", "crates/fixture/src/d004.rs", 4),
        ("D005", "crates/fixture/src/d005.rs", 6),
        ("D006", "crates/fixture/src/d006.rs", 4),
        ("D007", "crates/fixture/src/d007.rs", 4),
        ("D007", "crates/fixture/src/d007.rs", 8),
        ("D008", "crates/fixture/src/d008.rs", 12),
        ("D008", "crates/fixture/src/d008.rs", 16),
        ("D009", "crates/fixture/src/d009.rs", 6),
        ("D010", "crates/fixture/src/d010.rs", 21),
        ("D011", "crates/fixture/src/d011.rs", 5),
        ("D011", "crates/fixture/src/d011.rs", 16),
        ("D012", "crates/fixture/src/d012.rs", 17),
        ("D013", "crates/fixture/src/d013.rs", 4),
        ("D002", "crates/fixture/src/host_timer.rs", 6),
        ("S000", "crates/fixture/src/suppressed.rs", 12),
        ("D006", "crates/fixture/src/suppressed.rs", 14),
    ]
    .into_iter()
    .map(|(r, p, l)| (r.to_string(), p.to_string(), l))
    .collect();
    // Findings are sorted by (path, line, rule); sort the expectation the
    // same way instead of hand-maintaining the order.
    let mut want = want;
    want.sort_by(|a, b| (&a.1, a.2, &a.0).cmp(&(&b.1, b.2, &b.0)));
    assert_eq!(got, want);
}

#[test]
fn clean_and_justified_fixtures_stay_clean() {
    let f = fixture_findings();
    assert!(
        !f.iter().any(|x| x.path.ends_with("clean.rs")),
        "negative control must produce no findings: {f:?}"
    );
    // d004.rs has TWO unsafe blocks; only the unjustified one fires.
    assert_eq!(f.iter().filter(|x| x.path.ends_with("d004.rs")).count(), 1);
    // suppressed.rs's two valid suppressions silence both D001 hits.
    assert!(!f
        .iter()
        .any(|x| x.rule == "D001" && x.path.ends_with("suppressed.rs")));
    // d009.rs: the covered impl and the allowed-with-reason impl are
    // silent; only GcState's missing `pending` fires, and its message
    // names the field.
    let d009: Vec<_> = f.iter().filter(|x| x.rule == "D009").collect();
    assert_eq!(d009.len(), 1);
    assert!(d009[0].message.contains("`pending`"), "{:?}", d009[0]);
    // d010.rs: `reconcile_core` takes &mut MemorySystem but is not
    // reachable from the parallel roots.
    assert!(!f.iter().any(|x| x.rule == "D010" && x.line == 25));
    // d011.rs: the message for the partial report fn names the field.
    assert!(f
        .iter()
        .any(|x| x.rule == "D011" && x.message.contains("`errors`")));
    // d012.rs: registering, delegating, allowed, and unwatched mutators
    // are all silent; only `roll_arrival` fires.
    assert_eq!(f.iter().filter(|x| x.rule == "D012").count(), 1);
}

#[test]
fn json_output_is_exact_for_a_single_violation() {
    let cfg = Config::default();
    let base = fixture_base();
    let src =
        std::fs::read_to_string(base.join("crates/fixture/src/d006.rs")).expect("fixture exists");
    let mut f = jas_lint::lint_source(&cfg, "crates/fixture/src/d006.rs", &src);
    findings::sort(&mut f);
    let json = findings::to_json(&f);
    assert_eq!(
        json,
        "[\n  {\"rule\":\"D006\",\"path\":\"crates/fixture/src/d006.rs\",\"line\":4,\
\"severity\":\"deny\",\"message\":\"`.unwrap()` in library code; use \
`.expect(\\\"what invariant holds\\\")` or return an error\"}\n]\n"
    );
}

#[test]
fn severity_config_downgrades_to_warn() {
    let toml: String = (1..=13)
        .map(|n| format!("[rules.D{n:03}]\nseverity = \"warn\"\n"))
        .collect();
    let cfg = Config::parse(&toml).expect("config parses");
    let f = lint_tree(&cfg, &fixture_base());
    // The S000 meta-finding stays deny; everything else is a warning.
    assert!(f
        .iter()
        .all(|x| x.rule == "S000" || x.severity == Severity::Warn));
    assert!(has_deny(&f), "S000 is always deny");
}

#[test]
fn binary_deny_exits_nonzero_on_fixtures() {
    let out = Command::new(env!("CARGO_BIN_EXE_jas-lint"))
        .args(["--deny", "--json", "--root"])
        .arg(fixture_base())
        .output()
        .expect("jas-lint binary runs");
    assert_eq!(out.status.code(), Some(2), "deny findings must exit 2");
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    for rule in [
        "D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009", "D010", "D011",
        "D012", "D013", "S000",
    ] {
        assert!(stdout.contains(rule), "JSON mentions {rule}: {stdout}");
    }
}

#[test]
fn binary_without_deny_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_jas-lint"))
        .arg("--root")
        .arg(fixture_base())
        .output()
        .expect("jas-lint binary runs");
    assert_eq!(out.status.code(), Some(0), "advisory mode always exits 0");
}

#[test]
fn host_profiler_exemption_is_path_scoped() {
    // The committed lint.toml exempts exactly one module from D002: the
    // host self-profiler. The same host-timer source at the exempt path
    // is clean; anywhere else it stays a deny finding (the fixture
    // `host_timer.rs` proves the tree-walk side of this).
    let cfg = repo_config();
    let src = "pub fn t() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n";
    let exempt = jas_lint::lint_source(&cfg, "crates/trace/src/hostprof.rs", src);
    assert!(
        !exempt.iter().any(|f| f.rule == "D002"),
        "hostprof.rs is the sanctioned host-clock consumer: {exempt:?}"
    );
    let flagged = jas_lint::lint_source(&cfg, "crates/trace/src/tracer.rs", src);
    assert!(
        flagged.iter().any(|f| f.rule == "D002"),
        "host timers outside the profiler module must stay flagged"
    );
}

#[test]
fn workspace_tree_is_deny_clean() {
    // The repo's own acceptance gate, run in-process: the committed tree
    // (with the committed lint.toml) must carry no deny findings.
    let f = lint_tree(&repo_config(), &repo_root());
    let denies: Vec<_> = f.iter().filter(|x| x.severity == Severity::Deny).collect();
    assert!(denies.is_empty(), "deny findings in the tree: {denies:#?}");
}

#[test]
fn deleting_a_field_visit_from_real_persist_code_fires_d009() {
    // The acceptance spot-check: take real repo code (`SchedStats` and its
    // `Persist` impl in crates/hpm/src/sched.rs), delete one field-visit
    // line, and the tree must stop being deny-clean.
    let cfg = repo_config();
    let src = std::fs::read_to_string(repo_root().join("crates/hpm/src/sched.rs"))
        .expect("sched.rs is committed");
    let intact = jas_lint::lint_source(&cfg, "crates/hpm/src/sched.rs", &src);
    assert!(!has_deny(&intact), "committed code is clean: {intact:?}");

    let visit = "self.idle_ticks_skipped.persist(io);";
    assert!(src.contains(visit), "the spot-checked visit line exists");
    let broken: String = src
        .lines()
        .filter(|l| !l.contains(visit))
        .collect::<Vec<_>>()
        .join("\n");
    let f = jas_lint::lint_source(&cfg, "crates/hpm/src/sched.rs", &broken);
    let d009: Vec<_> = f.iter().filter(|x| x.rule == "D009").collect();
    assert_eq!(d009.len(), 1, "exactly the deleted visit fires: {f:?}");
    assert!(d009[0].message.contains("`idle_ticks_skipped`"));
    assert!(has_deny(&f), "a missing persist visit must fail --deny");
}

#[test]
fn two_runs_are_byte_identical() {
    let cfg = Config::default();
    let a = lint_tree(&cfg, &fixture_base());
    let b = lint_tree(&cfg, &fixture_base());
    assert_eq!(findings::to_json(&a), findings::to_json(&b));
    assert_eq!(sarif::to_sarif(&a), sarif::to_sarif(&b));
    assert_eq!(findings::to_text(&a), findings::to_text(&b));
}

#[test]
fn binary_writes_identical_sarif_on_two_runs() {
    let tmp = std::env::temp_dir().join(format!("jas-lint-itest-sarif-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let sarif_a = tmp.join("a.sarif");
    let sarif_b = tmp.join("b.sarif");
    for (out, label) in [(&sarif_a, "first"), (&sarif_b, "second")] {
        let status = Command::new(env!("CARGO_BIN_EXE_jas-lint"))
            .args(["--sarif"])
            .arg(out)
            .arg("--root")
            .arg(fixture_base())
            .status()
            .expect("jas-lint binary runs");
        assert_eq!(status.code(), Some(0), "{label} run exits 0 without --deny");
    }
    let a = std::fs::read_to_string(&sarif_a).expect("first SARIF written");
    let b = std::fs::read_to_string(&sarif_b).expect("second SARIF written");
    assert_eq!(a, b, "a re-run is byte-identical");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn sarif_output_validates_against_schema_subset() {
    let doc = sarif::to_sarif(&fixture_findings());
    let v = json::parse(&doc).expect("SARIF is well-formed JSON");
    check_sarif_2_1_0(&v).expect("SARIF validates against the 2.1.0 schema subset");
    // A finding from each semantic rule made it into results.
    let results_text = format!("{v:?}");
    for rule in ["D009", "D010", "D011", "D012"] {
        assert!(results_text.contains(rule), "{rule} present in SARIF");
    }
}

#[test]
fn full_tree_scan_meets_timing_budget() {
    // The deny gate must stay on the fast CI path: the parser upgrade may
    // not push a cold full-tree scan past a few seconds. (Debug build,
    // whole workspace; the release binary in CI is far faster.)
    let cfg = repo_config();
    let start = std::time::Instant::now();
    let f = lint_tree(&cfg, &repo_root());
    let elapsed = start.elapsed();
    assert!(!has_deny(&f));
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "full-tree scan took {elapsed:?}, budget is 5s"
    );
}

/// Validates the SARIF 2.1.0 subset jas-lint emits: the required
/// top-level keys, tool driver metadata, and per-result shape (ruleId,
/// level, message text, one physical location with a 1-based line).
fn check_sarif_2_1_0(v: &json::Value) -> Result<(), String> {
    let version = v
        .get("version")
        .and_then(json::Value::as_str)
        .ok_or("missing version")?;
    if version != "2.1.0" {
        return Err(format!("version {version} is not 2.1.0"));
    }
    v.get("$schema").ok_or("missing $schema")?;
    let runs = v
        .get("runs")
        .and_then(json::Value::as_arr)
        .ok_or("runs must be an array")?;
    if runs.len() != 1 {
        return Err("exactly one run expected".to_string());
    }
    let run = &runs[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .ok_or("missing tool.driver")?;
    driver
        .get("name")
        .and_then(json::Value::as_str)
        .ok_or("driver.name must be a string")?;
    let rules = driver
        .get("rules")
        .and_then(json::Value::as_arr)
        .ok_or("driver.rules must be an array")?;
    for r in rules {
        r.get("id")
            .and_then(json::Value::as_str)
            .ok_or("rule.id must be a string")?;
        r.get("shortDescription")
            .and_then(|d| d.get("text"))
            .and_then(json::Value::as_str)
            .ok_or("rule.shortDescription.text must be a string")?;
    }
    let results = run
        .get("results")
        .and_then(json::Value::as_arr)
        .ok_or("results must be an array")?;
    for res in results {
        let rule_id = res
            .get("ruleId")
            .and_then(json::Value::as_str)
            .ok_or("result.ruleId must be a string")?;
        if !rules
            .iter()
            .any(|r| r.get("id").and_then(json::Value::as_str) == Some(rule_id))
        {
            return Err(format!("ruleId {rule_id} not in driver.rules"));
        }
        let level = res
            .get("level")
            .and_then(json::Value::as_str)
            .ok_or("result.level must be a string")?;
        if !["error", "warning", "note", "none"].contains(&level) {
            return Err(format!("invalid level {level}"));
        }
        res.get("message")
            .and_then(|m| m.get("text"))
            .and_then(json::Value::as_str)
            .ok_or("result.message.text must be a string")?;
        let locs = res
            .get("locations")
            .and_then(json::Value::as_arr)
            .ok_or("result.locations must be an array")?;
        for loc in locs {
            let phys = loc
                .get("physicalLocation")
                .ok_or("missing physicalLocation")?;
            phys.get("artifactLocation")
                .and_then(|a| a.get("uri"))
                .and_then(json::Value::as_str)
                .ok_or("artifactLocation.uri must be a string")?;
            let line = phys
                .get("region")
                .and_then(|r| r.get("startLine"))
                .and_then(json::Value::as_num)
                .ok_or("region.startLine must be a number")?;
            if line < 1.0 {
                return Err("startLine must be 1-based".to_string());
            }
        }
    }
    Ok(())
}

/// A minimal JSON parser for the SARIF schema-subset checker — the test
/// must not trust the writer's own string handling, and the workspace
/// builds offline with no serde.
mod json {
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        pub fn as_num(&self) -> Option<f64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    pub fn parse(s: &str) -> Result<Value, String> {
        let b = s.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        skip_ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        skip_ws(b, i);
        match b.get(*i) {
            Some(b'{') => obj(b, i),
            Some(b'[') => arr(b, i),
            Some(b'"') => Ok(Value::Str(string(b, i)?)),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => num(b, i),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn num(b: &[u8], i: &mut usize) -> Result<Value, String> {
        let start = *i;
        while *i < b.len() && matches!(b[*i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *i += 1;
        }
        std::str::from_utf8(&b[start..*i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
        *i += 1; // opening quote
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = std::str::from_utf8(&b[*i + 1..*i + 5])
                                .map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            *i += 4;
                        }
                        Some(&c) => out.push(c as char),
                        None => return Err("unterminated escape".to_string()),
                    }
                    *i += 1;
                }
                _ => {
                    // Advance one whole UTF-8 scalar.
                    let rest = std::str::from_utf8(&b[*i..]).map_err(|_| "bad utf8")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    *i += ch.len_utf8();
                }
            }
        }
        Err("unterminated string".to_string())
    }

    fn arr(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // [
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b']') {
            *i += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(value(b, i)?);
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b']') => {
                    *i += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected , or ] at {i}")),
            }
        }
    }

    fn obj(b: &[u8], i: &mut usize) -> Result<Value, String> {
        *i += 1; // {
        let mut out = Vec::new();
        skip_ws(b, i);
        if b.get(*i) == Some(&b'}') {
            *i += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            skip_ws(b, i);
            if b.get(*i) != Some(&b'"') {
                return Err(format!("expected object key at {i}"));
            }
            let key = string(b, i)?;
            skip_ws(b, i);
            if b.get(*i) != Some(&b':') {
                return Err(format!("expected : at {i}"));
            }
            *i += 1;
            let v = value(b, i)?;
            out.push((key, v));
            skip_ws(b, i);
            match b.get(*i) {
                Some(b',') => *i += 1,
                Some(b'}') => {
                    *i += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected , or }} at {i}")),
            }
        }
    }
}
