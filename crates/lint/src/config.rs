//! `lint.toml` — per-rule severity, path scoping, and scan roots.
//!
//! The file is read with the workspace's one TOML-subset parser
//! ([`jas_toml`], shared with scenario specs). The config uses
//! `[dotted.section]` headers, `key = "string"` and
//! `key = ["array", "of", "strings"]` pairs, and `#` comments. Anything
//! else — an unknown key, a number where a string belongs — is a hard
//! error: better to reject a config than to silently ignore half of it.
//!
//! ```toml
//! [scan]
//! roots = ["crates"]
//! exclude = ["crates/lint/tests"]
//!
//! [rules.D002]
//! severity = "deny"
//! exempt = ["crates/simkernel/src/rng.rs"]
//!
//! [rules.D003]
//! only = ["crates/cpu", "crates/hpm"]
//!
//! [rules.D006]
//! severity = "warn"
//! [rules.D006.crates]
//! core = "deny"
//! ```

use jas_toml::{Doc, Value};
use std::collections::BTreeMap;

/// How a finding is treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule disabled for the matching scope.
    Allow,
    /// Reported, never fails the run.
    Warn,
    /// Reported; fails the run under `--deny`.
    Deny,
}

impl Severity {
    /// Canonical lowercase name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "allow" => Ok(Severity::Allow),
            "warn" => Ok(Severity::Warn),
            "deny" => Ok(Severity::Deny),
            other => Err(format!("unknown severity '{other}' (allow|warn|deny)")),
        }
    }
}

/// Per-rule configuration.
#[derive(Clone, Debug)]
pub struct RuleCfg {
    /// Baseline severity for the rule.
    pub severity: Severity,
    /// When non-empty, the rule only applies under these path prefixes.
    pub only: Vec<String>,
    /// Path prefixes the rule never applies under.
    pub exempt: Vec<String>,
    /// Severity overrides per crate directory name (`crates/<name>/…`).
    pub per_crate: BTreeMap<String, Severity>,
}

impl Default for RuleCfg {
    fn default() -> Self {
        RuleCfg {
            severity: Severity::Deny,
            only: Vec::new(),
            exempt: Vec::new(),
            per_crate: BTreeMap::new(),
        }
    }
}

/// The whole configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Directories to scan, relative to the scan base.
    pub roots: Vec<String>,
    /// Path prefixes excluded from the scan entirely.
    pub exclude: Vec<String>,
    /// Per-rule settings; rules absent here run with [`RuleCfg::default`]
    /// (deny, everywhere).
    pub rules: BTreeMap<String, RuleCfg>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            roots: vec!["crates".to_string()],
            exclude: Vec::new(),
            rules: BTreeMap::new(),
        }
    }
}

impl Config {
    /// Effective severity of `rule` for the file at `path`
    /// (`/`-separated, relative to the scan base).
    #[must_use]
    pub fn severity_for(&self, rule: &str, path: &str) -> Severity {
        let Some(cfg) = self.rules.get(rule) else {
            return Severity::Deny;
        };
        if !cfg.only.is_empty() && !cfg.only.iter().any(|p| path_under(path, p)) {
            return Severity::Allow;
        }
        if cfg.exempt.iter().any(|p| path_under(path, p)) {
            return Severity::Allow;
        }
        if let Some(krate) = crate_of(path) {
            if let Some(&sev) = cfg.per_crate.get(krate) {
                return sev;
            }
        }
        cfg.severity
    }

    /// Parses the TOML subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for any construct
    /// outside the supported subset.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config {
            roots: Vec::new(),
            ..Config::default()
        };
        for item in Doc::parse(text)?.items {
            cfg.apply(&item.section, &item.key, item.value)
                .map_err(|e| format!("line {}: {e}", item.line))?;
        }
        if cfg.roots.is_empty() {
            cfg.roots = vec!["crates".to_string()];
        }
        Ok(cfg)
    }

    fn apply(&mut self, section: &str, key: &str, value: Value) -> Result<(), String> {
        let seg: Vec<&str> = section.split('.').collect();
        match (seg.as_slice(), key) {
            (["scan"], "roots") => self.roots = value.into_strs()?,
            (["scan"], "exclude") => self.exclude = value.into_strs()?,
            (["rules", rule], _) => {
                let entry = self.rules.entry((*rule).to_string()).or_default();
                match key {
                    "severity" => entry.severity = Severity::parse(&value.into_string()?)?,
                    "only" => entry.only = value.into_strs()?,
                    "exempt" => entry.exempt = value.into_strs()?,
                    other => return Err(format!("unknown rule key '{other}'")),
                }
            }
            (["rules", rule, "crates"], krate) => {
                let entry = self.rules.entry((*rule).to_string()).or_default();
                entry
                    .per_crate
                    .insert(krate.to_string(), Severity::parse(&value.into_string()?)?);
            }
            _ => return Err(format!("unknown key '{key}' in section [{section}]")),
        }
        Ok(())
    }
}

/// True when `path` equals `prefix` or lies under it.
fn path_under(path: &str, prefix: &str) -> bool {
    let prefix = prefix.trim_end_matches('/');
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

/// Crate directory name for `crates/<name>/…` paths.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# jas-lint config
[scan]
roots = ["crates"]
exclude = ["crates/lint/tests"]

[rules.D002]
exempt = ["crates/simkernel/src/rng.rs"]

[rules.D003]
only = ["crates/cpu", "crates/hpm"]

[rules.D006]
severity = "warn"
[rules.D006.crates]
core = "deny"
"#;

    #[test]
    fn parses_sections_and_values() {
        let cfg = Config::parse(SAMPLE).expect("sample parses");
        assert_eq!(cfg.roots, ["crates"]);
        assert_eq!(cfg.exclude, ["crates/lint/tests"]);
        assert_eq!(cfg.rules["D006"].severity, Severity::Warn);
        assert_eq!(cfg.rules["D006"].per_crate["core"], Severity::Deny);
    }

    #[test]
    fn severity_resolution_order() {
        let cfg = Config::parse(SAMPLE).expect("sample parses");
        // Unconfigured rule: deny everywhere.
        assert_eq!(
            cfg.severity_for("D001", "crates/jvm/src/vm.rs"),
            Severity::Deny
        );
        // `only` scoping.
        assert_eq!(
            cfg.severity_for("D003", "crates/cpu/src/tlb.rs"),
            Severity::Deny
        );
        assert_eq!(
            cfg.severity_for("D003", "crates/db/src/txn.rs"),
            Severity::Allow
        );
        // `exempt` scoping.
        assert_eq!(
            cfg.severity_for("D002", "crates/simkernel/src/rng.rs"),
            Severity::Allow
        );
        assert_eq!(
            cfg.severity_for("D002", "crates/simkernel/src/time.rs"),
            Severity::Deny
        );
        // Per-crate override beats the rule default.
        assert_eq!(
            cfg.severity_for("D006", "crates/core/src/cli.rs"),
            Severity::Deny
        );
        assert_eq!(
            cfg.severity_for("D006", "crates/jvm/src/gc.rs"),
            Severity::Warn
        );
    }

    #[test]
    fn prefix_matching_is_component_wise() {
        let cfg = Config::parse("[rules.D001]\nexempt = [\"crates/cpu\"]\n").expect("parses");
        assert_eq!(
            cfg.severity_for("D001", "crates/cpu/src/x.rs"),
            Severity::Allow
        );
        // `crates/cpuext` must NOT match the `crates/cpu` prefix.
        assert_eq!(
            cfg.severity_for("D001", "crates/cpuext/src/x.rs"),
            Severity::Deny
        );
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(Config::parse("[scan]\nbogus = \"x\"\n").is_err());
        assert!(Config::parse("[rules.D001]\nseverity = \"fatal\"\n").is_err());
        assert!(Config::parse("[rules.D001]\nseverity = [\"deny\"]\n").is_err());
        assert!(Config::parse("key_without_section = \"x\"\n").is_err());
        assert!(Config::parse("[scan]\nroots = [\"a\"\n").is_err());
    }

    #[test]
    fn apply_errors_carry_the_item_line() {
        let err = Config::parse("# c\n[rules.D001]\nbogus = \"x\"\n").expect_err("rejected");
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("unknown rule key 'bogus'"), "{err}");
    }

    #[test]
    fn numbers_are_rejected_where_strings_belong() {
        let err = Config::parse("[rules.D001]\nseverity = 5\n").expect_err("rejected");
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Config::parse("[rules.D001]\nonly = [1, 2]\n").expect_err("rejected");
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(Config::parse("[scan]\nroots = 1\n").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let cfg = Config::parse("# top\n[scan] # trailing\nroots = [\"crates\"] # more\n")
            .expect("parses");
        assert_eq!(cfg.roots, ["crates"]);
    }

    #[test]
    fn empty_config_gets_defaults() {
        let cfg = Config::parse("").expect("parses");
        assert_eq!(cfg.roots, ["crates"]);
        assert!(cfg.rules.is_empty());
    }
}
