//! The determinism & invariant rules, D001–D008 and D013.
//!
//! Every rule is a pure function over the token stream (plus comment trivia
//! for D004) that yields [`RuleHit`]s. Path scoping, severity, test-span
//! exclusion, and suppressions are applied by the driver in [`crate::lint_file`];
//! the rules themselves only recognize patterns.
//!
//! | Rule | Pattern | Why it threatens reproducibility |
//! |------|---------|----------------------------------|
//! | D001 | `HashMap`/`HashSet` in sim code | iteration order is seeded per-instance; any order-dependent fold leaks into HPM counters |
//! | D002 | `Instant::now`, `SystemTime`, `thread_rng` | wall-clock and OS entropy vary run to run |
//! | D003 | `<counter ident> as u32/u16/u8/usize` | silently truncates 64-bit counters on narrow targets |
//! | D004 | `unsafe` without a `// SAFETY:` comment | unauditable unsafety; the workspace is `forbid(unsafe_code)` today and must stay justified if that ever changes |
//! | D005 | `Ordering::Relaxed` | relaxed atomics make cross-thread reconciliation order observable |
//! | D006 | `.unwrap()` / `.expect("")` | panics without context; library paths must say what invariant broke |
//! | D007 | `let _ = <expr>` / bare `.ok();` | silently discards a `Result`; a swallowed error turns a deterministic failure into divergent state |
//! | D008 | `.pop()` / `.peek()` on a `BinaryHeap` binding | equal-key pop order is heap-internal; without a total ordering key (a deterministic tie-breaker), dispatch order leaks insertion history into simulation state |
//! | D013 | `panic!` / `assert!` / `unreachable!` on the request-dispatch path | an abort turns one request's bad state into a node-wide crash; dispatch code must degrade (error, shed) instead — scoped by `lint.toml` to the LB and app-server tiers |

use crate::lexer::{Lexed, TokKind, Token};

/// One raw rule match, before severity/suppression filtering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleHit {
    /// Rule identifier (`D001`…`D008`).
    pub rule: &'static str,
    /// 1-based line of the match.
    pub line: u32,
    /// Human-readable description of this specific match.
    pub message: String,
}

/// One-line description per rule id, in order: token rules (this module),
/// semantic rules ([`crate::rules_semantic`]), and the meta rules the
/// driver raises itself. Feeds the `--sarif` rule metadata.
pub const RULE_SUMMARIES: &[(&str, &str)] = &[
    ("D001", "unordered HashMap/HashSet in simulation code"),
    ("D002", "wall-clock or OS-entropy read in simulation code"),
    ("D003", "64-bit counter silently truncated by `as` cast"),
    ("D004", "unsafe block without a SAFETY comment"),
    ("D005", "relaxed atomic memory ordering"),
    ("D006", "contextless unwrap/expect"),
    ("D007", "silently discarded Result"),
    (
        "D008",
        "BinaryHeap pop/peek without a deterministic tie-breaker",
    ),
    (
        "D009",
        "Persist impl does not visit every named field of its type",
    ),
    (
        "D010",
        "fn reachable from the parallel plan/execute phase takes &mut of a shared-hierarchy type",
    ),
    (
        "D011",
        "counter struct field missing from its digest/report path",
    ),
    (
        "D012",
        "idle-predicate state mutated without a paired wake registration",
    ),
    (
        "D013",
        "panic/assert/unreachable on the request-dispatch path",
    ),
    ("S000", "malformed jas-lint suppression directive"),
    ("S001", "unreadable source file"),
];

/// Runs every rule over one lexed file.
#[must_use]
pub fn check(lexed: &Lexed) -> Vec<RuleHit> {
    let mut hits = Vec::new();
    d001_unordered_maps(lexed, &mut hits);
    d002_wall_clock(lexed, &mut hits);
    d003_counter_truncation(lexed, &mut hits);
    d004_unsafe_without_safety(lexed, &mut hits);
    d005_relaxed_ordering(lexed, &mut hits);
    d006_unwrap(lexed, &mut hits);
    d007_discarded_result(lexed, &mut hits);
    d008_heap_pop_ordering(lexed, &mut hits);
    d013_dispatch_aborts(lexed, &mut hits);
    hits.sort_by_key(|h| (h.line, h.rule));
    hits
}

fn ident_at(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

fn punct_at(toks: &[Token], i: usize, ch: char) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text.len() == 1 && t.text.starts_with(ch))
}

/// D001: `HashMap` / `HashSet` anywhere in simulation code. The simulator's
/// ordered replacements are `simkernel::DetMap` / `DetSet`.
fn d001_unordered_maps(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    for t in &lexed.tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            hits.push(RuleHit {
                rule: "D001",
                line: t.line,
                message: format!(
                    "`{}` has per-instance iteration order; use `jas_simkernel::{}` in simulation state",
                    t.text,
                    if t.text == "HashMap" { "DetMap" } else { "DetSet" }
                ),
            });
        }
    }
}

/// D002: wall-clock / OS-entropy sources. `Instant` is flagged on any use —
/// a stored `std::time::Instant` is just a deferred `now()`.
fn d002_wall_clock(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    for t in &lexed.tokens {
        if t.kind != TokKind::Ident {
            continue;
        }
        let what = match t.text.as_str() {
            "Instant" => "`Instant` (wall-clock time)",
            "SystemTime" => "`SystemTime` (wall-clock time)",
            "thread_rng" | "ThreadRng" => "`thread_rng` (OS entropy)",
            _ => continue,
        };
        hits.push(RuleHit {
            rule: "D002",
            line: t.line,
            message: format!(
                "{what} is nondeterministic; simulated time comes from `SimTime`, randomness from `simkernel::Rng`"
            ),
        });
    }
}

/// Snake-case segments that mark an identifier as counter-valued.
const COUNTER_WORDS: &[&str] = &[
    "cycle",
    "cycles",
    "tick",
    "ticks",
    "inst",
    "insts",
    "instruction",
    "instructions",
    "count",
    "counts",
    "counter",
    "counters",
    "miss",
    "misses",
    "hit",
    "hits",
    "ref",
    "refs",
    "access",
    "accesses",
    "event",
    "events",
    "alloc",
    "allocs",
    "completed",
    "retired",
];

/// Segments that mark an identifier as an index/handle, *not* a counter
/// (`hit_slot` is a slot index even though it contains `hit`).
const INDEX_WORDS: &[&str] = &[
    "slot", "slots", "idx", "index", "id", "ids", "mask", "tag", "tags", "way", "ways", "set",
    "sets", "bin", "bins", "lane", "addr", "offset",
];

fn is_counter_ident(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    let segs: Vec<&str> = lower.split('_').filter(|s| !s.is_empty()).collect();
    segs.iter().any(|s| COUNTER_WORDS.contains(s)) && !segs.iter().any(|s| INDEX_WORDS.contains(s))
}

/// D003: `<counter ident> as u32|u16|u8|usize` — a 64-bit HPM counter cast
/// to a narrower (or platform-width) type truncates silently.
fn d003_counter_truncation(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    for i in 1..toks.len() {
        if !ident_at(toks, i, "as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if !(target.kind == TokKind::Ident
            && matches!(target.text.as_str(), "u32" | "u16" | "u8" | "usize"))
        {
            continue;
        }
        let src = &toks[i - 1];
        if src.kind == TokKind::Ident && is_counter_ident(&src.text) {
            hits.push(RuleHit {
                rule: "D003",
                line: src.line,
                message: format!(
                    "`{} as {}` truncates a counter-typed value; keep counters u64 (or use try_into with a checked error)",
                    src.text, target.text
                ),
            });
        }
    }
}

/// D004: `unsafe` without a `// SAFETY:` justification on the same line or
/// in the contiguous comment block immediately above.
fn d004_unsafe_without_safety(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    for t in &lexed.tokens {
        if !(t.kind == TokKind::Ident && t.text == "unsafe") {
            continue;
        }
        // `unsafe` inside an attribute (e.g. `#[allow(unsafe_code)]`) never
        // introduces an unsafe block; the identifier there is `unsafe_code`,
        // which already fails the ident comparison. What can precede a real
        // unsafe block/fn/impl/trait is anything, so no further filtering.
        if has_safety_comment(lexed, t.line) {
            continue;
        }
        hits.push(RuleHit {
            rule: "D004",
            line: t.line,
            message: "`unsafe` without a `// SAFETY:` comment justifying it".to_string(),
        });
    }
}

fn has_safety_comment(lexed: &Lexed, unsafe_line: u32) -> bool {
    // Same line, or part of the contiguous run of comment lines directly
    // above (a multi-line SAFETY paragraph counts).
    let mut expect = unsafe_line;
    for c in lexed.comments.iter().rev() {
        if c.line > unsafe_line {
            continue;
        }
        if c.end_line == expect || c.end_line + 1 == expect {
            if c.text.contains("SAFETY:") {
                return true;
            }
            expect = c.line.saturating_sub(1).max(1);
        } else if c.end_line < expect {
            break;
        }
    }
    false
}

/// D005: `Ordering::Relaxed` (qualified, or bare `Relaxed` as a call
/// argument after a `use` import). Cross-thread reconciliation must use
/// acquire/release or stronger so the merge order stays well-defined.
fn d005_relaxed_ordering(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !ident_at(toks, i, "Relaxed") {
            continue;
        }
        let qualified = i >= 3
            && ident_at(toks, i - 3, "Ordering")
            && punct_at(toks, i - 2, ':')
            && punct_at(toks, i - 1, ':');
        let as_argument = i >= 1 && (punct_at(toks, i - 1, '(') || punct_at(toks, i - 1, ','));
        if qualified || as_argument {
            hits.push(RuleHit {
                rule: "D005",
                line: toks[i].line,
                message:
                    "`Ordering::Relaxed` in cross-thread code; use Acquire/Release (or SeqCst) so reconciliation order is well-defined"
                        .to_string(),
            });
        }
    }
}

/// D006: `.unwrap()` — or `.expect("")` with an empty message — in library
/// code. `expect("meaningful context")` is the sanctioned form.
fn d006_unwrap(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    for i in 1..toks.len() {
        if !punct_at(toks, i - 1, '.') {
            continue;
        }
        if ident_at(toks, i, "unwrap") && punct_at(toks, i + 1, '(') && punct_at(toks, i + 2, ')') {
            hits.push(RuleHit {
                rule: "D006",
                line: toks[i].line,
                message: "`.unwrap()` in library code; use `.expect(\"what invariant holds\")` or return an error"
                    .to_string(),
            });
        }
        if ident_at(toks, i, "expect")
            && punct_at(toks, i + 1, '(')
            && toks
                .get(i + 2)
                .is_some_and(|t| t.kind == TokKind::Str && t.text == "\"\"")
        {
            hits.push(RuleHit {
                rule: "D006",
                line: toks[i].line,
                message: "`.expect(\"\")` carries no context; say what invariant was violated"
                    .to_string(),
            });
        }
    }
}

/// D007: a silently discarded `Result` — `let _ = <expr>;` or a bare
/// `.ok();` statement. A swallowed `Err` keeps the simulation running with
/// state that diverges from the path the error was meant to guard; handle
/// it or propagate it. The one sanctioned form is `let _ = write!/writeln!`
/// into a `String`, which is infallible by construction.
fn d007_discarded_result(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if ident_at(toks, i, "let")
            && ident_at(toks, i + 1, "_")
            && punct_at(toks, i + 2, '=')
            // `let _ == …` is not an assignment (and not Rust); skip.
            && !punct_at(toks, i + 3, '=')
        {
            let infallible_write = (ident_at(toks, i + 3, "write")
                || ident_at(toks, i + 3, "writeln"))
                && punct_at(toks, i + 4, '!');
            if !infallible_write {
                hits.push(RuleHit {
                    rule: "D007",
                    line: toks[i].line,
                    message:
                        "`let _ =` discards a value (likely a Result); handle or propagate the error instead of swallowing it"
                            .to_string(),
                });
            }
        }
        if punct_at(toks, i, '.')
            && ident_at(toks, i + 1, "ok")
            && punct_at(toks, i + 2, '(')
            && punct_at(toks, i + 3, ')')
            && punct_at(toks, i + 4, ';')
            && !ok_value_is_consumed(toks, i)
        {
            hits.push(RuleHit {
                rule: "D007",
                line: toks[i + 1].line,
                message: "bare `.ok();` throws away the `Err`; handle or propagate the error"
                    .to_string(),
            });
        }
    }
}

/// True when the statement ending in `.ok();` binds or returns the value
/// (`let v = f().ok();`, `x = f().ok();`, `return f().ok();`): scan back to
/// the previous statement boundary looking for a sink.
fn ok_value_is_consumed(toks: &[Token], dot: usize) -> bool {
    let mut j = dot;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind == TokKind::Punct && t.text.len() == 1 && ";{}".contains(&t.text[..]) {
            return false;
        }
        if punct_at(toks, j, '=')
            || (t.kind == TokKind::Ident && matches!(t.text.as_str(), "let" | "return"))
        {
            return true;
        }
    }
    false
}

/// D008: `.pop()` / `.peek()` on a binding declared as a `BinaryHeap`.
///
/// `BinaryHeap` pops equal keys in a heap-internal order that depends on
/// insertion history, so a dispatch loop driven by a heap whose ordering
/// key is not total (no deterministic tie-breaker) leaks that history into
/// simulation state. The rule is lexical and cannot see the key type, so
/// it flags *every* pop/peek on a heap-typed binding; each sanctioned site
/// documents its tie-breaker with
/// `// jas-lint: allow(D008, reason = "key is (…, seq)")`.
fn d008_heap_pop_ordering(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    // Pass 1: bindings introduced as `BinaryHeap` — a type annotation or
    // struct field (`name: [path::]BinaryHeap<…>`) or an initializer
    // (`name = [path::]BinaryHeap::new()`).
    let mut heaps: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "BinaryHeap") {
            continue;
        }
        // Walk back over a qualifying path (`std::collections::`).
        let mut j = i;
        while j >= 3
            && punct_at(toks, j - 1, ':')
            && punct_at(toks, j - 2, ':')
            && toks[j - 3].kind == TokKind::Ident
        {
            j -= 3;
        }
        if j < 2 {
            continue;
        }
        let binds = (punct_at(toks, j - 1, ':') && !punct_at(toks, j - 2, ':'))
            || punct_at(toks, j - 1, '=');
        if binds && toks[j - 2].kind == TokKind::Ident {
            heaps.push(&toks[j - 2].text);
        }
    }
    if heaps.is_empty() {
        return;
    }
    // Pass 2: `.pop()` / `.peek()` where the receiver is a heap binding.
    for i in 2..toks.len() {
        let method = &toks[i];
        if !(method.kind == TokKind::Ident && (method.text == "pop" || method.text == "peek")) {
            continue;
        }
        if !(punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(')) {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind == TokKind::Ident && heaps.contains(&recv.text.as_str()) {
            hits.push(RuleHit {
                rule: "D008",
                line: method.line,
                message: format!(
                    "`{}.{}()` dispatches from a `BinaryHeap`; equal keys pop in heap-internal \
                     order, so the ordering key needs a deterministic tie-breaker — document it \
                     with `jas-lint: allow(D008, reason = \"…\")`",
                    recv.text, method.text
                ),
            });
        }
    }
}

/// D013: an aborting macro — `panic!`, `assert!`, `assert_eq!`,
/// `assert_ne!`, `unreachable!` — in request-dispatch code.
///
/// On the dispatch path one request's bad state must degrade into an
/// error (or a shed) the LB can reconcile, not abort the whole node: a
/// node-wide crash from a single poisoned request defeats the failover
/// machinery the fleet exists to provide. `debug_assert*` compiles out
/// of release builds and is not matched. The rule is scoped by
/// `lint.toml` to the LB and app-server tiers; constructor-time
/// validation that runs before any request exists documents itself with
/// `// jas-lint: allow(D013, reason = "…")`.
fn d013_dispatch_aborts(lexed: &Lexed, hits: &mut Vec<RuleHit>) {
    let toks = &lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if !matches!(
            t.text.as_str(),
            "panic" | "assert" | "assert_eq" | "assert_ne" | "unreachable"
        ) {
            continue;
        }
        if !punct_at(toks, i + 1, '!') {
            continue;
        }
        hits.push(RuleHit {
            rule: "D013",
            line: t.line,
            message: format!(
                "`{}!` aborts the node from the request-dispatch path; degrade the request \
                 (error or shed) instead, or justify pre-dispatch validation with \
                 `jas-lint: allow(D013, reason = \"…\")`",
                t.text
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(src: &str) -> Vec<(&'static str, u32)> {
        check(&lex(src))
            .into_iter()
            .map(|h| (h.rule, h.line))
            .collect()
    }

    #[test]
    fn d001_flags_hashmap_and_hashset() {
        assert_eq!(
            rules_hit("use std::collections::HashMap;\nlet s: HashSet<u32> = HashSet::new();"),
            [("D001", 1), ("D001", 2), ("D001", 2)]
        );
    }

    #[test]
    fn d001_ignores_strings_and_comments() {
        assert!(rules_hit("// HashMap in a comment\nlet s = \"HashMap\";").is_empty());
        assert!(rules_hit("let m = DetMap::new();").is_empty());
    }

    #[test]
    fn d002_flags_clock_and_entropy() {
        assert_eq!(rules_hit("let t = Instant::now();"), [("D002", 1)]);
        assert_eq!(rules_hit("use std::time::SystemTime;"), [("D002", 1)]);
        assert_eq!(rules_hit("let r = rand::thread_rng();"), [("D002", 1)]);
        assert!(rules_hit("let t = SimTime::ZERO;").is_empty());
    }

    #[test]
    fn d003_flags_counter_truncation() {
        assert_eq!(rules_hit("let x = total_cycles as u32;"), [("D003", 1)]);
        assert_eq!(rules_hit("let x = miss_count as usize;"), [("D003", 1)]);
        // Widening to u64/u128 is fine.
        assert!(rules_hit("let x = total_cycles as u64;").is_empty());
        assert!(rules_hit("let x = total_cycles as f64;").is_empty());
    }

    #[test]
    fn d003_index_words_override_counter_words() {
        // `hit_slot` is an L1 slot index, not a counter.
        assert!(rules_hit("c.l1d.rehit(hit_slot as usize);").is_empty());
        assert!(rules_hit("let i = set_index as usize;").is_empty());
        // A plain non-counter identifier is fine too.
        assert!(rules_hit("let i = lag as usize;").is_empty());
    }

    #[test]
    fn d004_flags_unjustified_unsafe() {
        assert_eq!(rules_hit("let p = unsafe { *ptr };"), [("D004", 1)]);
    }

    #[test]
    fn d004_accepts_safety_comment_same_line_or_above() {
        assert!(rules_hit(
            "// SAFETY: ptr is valid for the buffer's lifetime\nlet p = unsafe { *ptr };"
        )
        .is_empty());
        assert!(rules_hit("let p = unsafe { *ptr }; // SAFETY: checked above").is_empty());
        // Multi-line SAFETY paragraph.
        assert!(rules_hit(
            "// SAFETY: the slot was bounds-checked on insert\n// and never shrinks.\nlet p = unsafe { *ptr };"
        )
        .is_empty());
        // A non-SAFETY comment in between does not transfer justification.
        assert_eq!(
            rules_hit("// SAFETY: for the other block\nfn a() {}\nlet p = unsafe { *ptr };"),
            [("D004", 3)]
        );
    }

    #[test]
    fn d005_flags_relaxed() {
        assert_eq!(
            rules_hit("x.fetch_add(1, Ordering::Relaxed);"),
            [("D005", 1)]
        );
        assert_eq!(rules_hit("x.load(Relaxed);"), [("D005", 1)]);
        assert!(rules_hit("x.load(Ordering::Acquire);").is_empty());
        // `Relaxed` as a plain path segment elsewhere is not matched.
        assert!(rules_hit("struct Relaxed;").is_empty());
    }

    #[test]
    fn d006_flags_unwrap_and_empty_expect() {
        assert_eq!(rules_hit("let v = x.unwrap();"), [("D006", 1)]);
        assert_eq!(rules_hit("let v = x.expect(\"\");"), [("D006", 1)]);
        assert!(rules_hit("let v = x.expect(\"queue is non-empty after push\");").is_empty());
        // unwrap_or / unwrap_or_default are fine.
        assert!(rules_hit("let v = x.unwrap_or(0);").is_empty());
        assert!(rules_hit("let v = x.unwrap_or_default();").is_empty());
    }

    #[test]
    fn d007_flags_discarded_results() {
        assert_eq!(rules_hit("let _ = sender.send(msg);"), [("D007", 1)]);
        assert_eq!(rules_hit("file.sync_all().ok();"), [("D007", 1)]);
        // The infallible String-formatting idiom is sanctioned.
        assert!(rules_hit("let _ = writeln!(out, \"x {y}\");").is_empty());
        assert!(rules_hit("let _ = write!(out, \"x\");").is_empty());
        // `.ok()` whose value is used is fine; so are named discards.
        assert!(rules_hit("let v = parse(s).ok();").is_empty());
        assert!(rules_hit("if x.parse::<u32>().ok().is_some() {}").is_empty());
        assert!(rules_hit("let _ignored = sender.send(msg);").is_empty());
        // Wildcards inside patterns are not discards.
        assert!(rules_hit("let (_, rest) = pair;").is_empty());
    }

    #[test]
    fn d008_flags_pops_on_heap_bindings() {
        // Type-annotated local.
        assert_eq!(
            rules_hit("let mut h: BinaryHeap<u64> = BinaryHeap::new();\nh.pop();"),
            [("D008", 2)]
        );
        // Struct field, popped through `self`.
        assert_eq!(
            rules_hit("struct Q { heap: BinaryHeap<Entry> }\nfn f(q: &mut Q) { q.heap.pop(); }"),
            [("D008", 2)]
        );
        // Initializer without an annotation, fully qualified path, peek.
        assert_eq!(
            rules_hit("let h = std::collections::BinaryHeap::from(v);\nh.peek();"),
            [("D008", 2)]
        );
    }

    #[test]
    fn d008_ignores_non_heap_receivers() {
        // Vec::pop and VecDeque::pop_front are deterministic.
        assert!(rules_hit("let mut stack = Vec::new();\nstack.pop();").is_empty());
        assert!(rules_hit("queue.pop_front();").is_empty());
        // A wrapper method named `pop` on a non-heap binding is not the
        // heap's pop, even when the file also declares a heap.
        assert!(rules_hit(
            "struct Q { heap: BinaryHeap<Entry> }\nfn f(q: &mut Q) { q.inner.pop(); }"
        )
        .is_empty());
        // push never fires.
        assert!(
            rules_hit("let mut h: BinaryHeap<u64> = BinaryHeap::new();\nh.push(1);").is_empty()
        );
    }

    #[test]
    fn doc_examples_do_not_fire() {
        assert!(rules_hit("//! assert!(counters.cpi().unwrap() > 0.0);\nfn f() {}").is_empty());
    }

    #[test]
    fn d013_flags_aborting_macros() {
        assert_eq!(
            rules_hit("fn f(q: usize) { assert!(q > 0, \"empty\"); }"),
            [("D013", 1)]
        );
        assert_eq!(
            rules_hit("fn f() { panic!(\"poisoned request\"); }"),
            [("D013", 1)]
        );
        assert_eq!(
            rules_hit("match k {\n    K::Web => 1,\n    _ => unreachable!(),\n}"),
            [("D013", 3)]
        );
        assert_eq!(
            rules_hit("assert_eq!(a, b);\nassert_ne!(c, d);"),
            [("D013", 1), ("D013", 2)]
        );
    }

    #[test]
    fn d013_ignores_debug_asserts_and_plain_idents() {
        // debug_assert* compiles out of release builds.
        assert!(rules_hit("debug_assert!(q > 0);\ndebug_assert_eq!(a, b);").is_empty());
        // The bare words without `!` are not macro invocations.
        assert!(rules_hit("let h = std::panic::catch_unwind(f);").is_empty());
        assert!(rules_hit("fn assert_invariants(&self) {}").is_empty());
    }
}
