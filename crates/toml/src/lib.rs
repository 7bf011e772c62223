//! The TOML subset that scenario specs and `lint.toml` are written in:
//! one hand-rolled, zero-dependency parser, so the workspace stays
//! offline-buildable and `jas-lint` can read its config without
//! depending on any simulation crate.
//!
//! Supported constructs: `[dotted.section]` headers, `key = value` pairs
//! where a value is a quoted string, a finite number, or a single-line
//! array of all-strings or all-numbers, and `#` comments (quote-aware).
//! Anything else is a hard error with a `line N:` prefix — a spec is a
//! pinned artifact, so rejecting beats silently ignoring half of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// A finite number.
    Num(f64),
    /// An array of quoted strings.
    Strs(Vec<String>),
    /// An array of finite numbers.
    Nums(Vec<f64>),
}

impl Value {
    fn parse(s: &str) -> Result<Value, String> {
        if let Some(inner) = s.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| "unterminated array (arrays must be single-line)".to_string())?;
            let items: Vec<&str> = inner
                .split(',')
                .map(str::trim)
                .filter(|i| !i.is_empty())
                .collect();
            if items.iter().all(|i| i.starts_with('"')) {
                let mut strs = Vec::new();
                for item in items {
                    strs.push(unquote(item)?);
                }
                return Ok(Value::Strs(strs));
            }
            let mut nums = Vec::new();
            for item in items {
                nums.push(parse_num(item)?);
            }
            return Ok(Value::Nums(nums));
        }
        if s.starts_with('"') {
            return Ok(Value::Str(unquote(s)?));
        }
        Ok(Value::Num(parse_num(s)?))
    }

    /// The string payload.
    pub fn into_string(self) -> Result<String, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a quoted string, found {other:?}")),
        }
    }

    /// The numeric payload.
    pub fn into_num(self) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(n),
            other => Err(format!("expected a number, found {other:?}")),
        }
    }

    /// The number-array payload.
    pub fn into_nums(self) -> Result<Vec<f64>, String> {
        match self {
            Value::Nums(ns) => Ok(ns),
            other => Err(format!("expected an array of numbers, found {other:?}")),
        }
    }

    /// The string-array payload.
    pub fn into_strs(self) -> Result<Vec<String>, String> {
        match self {
            Value::Strs(ss) => Ok(ss),
            other => Err(format!("expected an array of strings, found {other:?}")),
        }
    }
}

/// One `key = value` pair with its section path and source line.
#[derive(Clone, Debug)]
pub struct Item {
    /// Dot-joined section path (empty for top-level keys).
    pub section: String,
    /// The key.
    pub key: String,
    /// The parsed value.
    pub value: Value,
    /// 1-based source line, for error messages.
    pub line: usize,
}

/// A parsed document: the flat item list, in source order.
#[derive(Clone, Debug, Default)]
pub struct Doc {
    /// Every `key = value` pair.
    pub items: Vec<Item>,
}

impl Doc {
    /// Parses the subset described in the module docs.
    ///
    /// # Errors
    ///
    /// Returns a `line N:`-prefixed message for any construct outside
    /// the supported subset.
    pub fn parse(text: &str) -> Result<Doc, String> {
        let mut items = Vec::new();
        let mut section = String::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            if let Some(inner) = line.strip_prefix('[') {
                let inner = inner
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {lineno}: unterminated section header"))?;
                let segs: Vec<&str> = inner.split('.').map(str::trim).collect();
                if segs.iter().any(|s| s.is_empty()) {
                    return Err(format!("line {lineno}: empty section segment"));
                }
                section = segs.join(".");
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
            let value = Value::parse(value.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            items.push(Item {
                section: section.clone(),
                key: key.trim().to_string(),
                value,
                line: lineno,
            });
        }
        Ok(Doc { items })
    }
}

fn parse_num(s: &str) -> Result<f64, String> {
    let v: f64 = s
        .parse()
        .map_err(|_| format!("expected a number, found `{s}`"))?;
    if !v.is_finite() {
        return Err(format!("number `{s}` is not finite"));
    }
    Ok(v)
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(ToString::to_string)
        .ok_or_else(|| format!("expected a quoted string, found `{s}`"))
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_strings_numbers_and_arrays() {
        let doc = Doc::parse(
            "[a]\nname = \"x\" # comment\nn = 4.5\n[a.b]\nxs = [1, 2, 3]\nss = [\"p\", \"q\"]\n",
        )
        .expect("parses");
        assert_eq!(doc.items.len(), 4);
        assert_eq!(doc.items[0].section, "a");
        assert_eq!(doc.items[0].value, Value::Str("x".to_string()));
        assert_eq!(doc.items[1].value, Value::Num(4.5));
        assert_eq!(doc.items[2].section, "a.b");
        assert_eq!(doc.items[2].value, Value::Nums(vec![1.0, 2.0, 3.0]));
        assert_eq!(
            doc.items[3].value,
            Value::Strs(vec!["p".to_string(), "q".to_string()])
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Doc::parse("[ok]\nbad line\n").expect_err("rejected");
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Doc::parse("[unterminated\n").expect_err("rejected");
        assert!(err.starts_with("line 1:"), "{err}");
        let err = Doc::parse("[s]\nk = nan\n").expect_err("rejected");
        assert!(
            err.contains("not finite") || err.contains("expected a number"),
            "{err}"
        );
        assert!(Doc::parse("[s]\nk = [1, \"x\"]\n").is_err());
    }

    #[test]
    fn quotes_protect_hashes_and_equals() {
        let doc = Doc::parse("[s]\nk = \"a#b\"\n").expect("parses");
        assert_eq!(doc.items[0].value, Value::Str("a#b".to_string()));
    }
}
