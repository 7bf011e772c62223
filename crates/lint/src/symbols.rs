//! The cross-file symbol table: every parsed file's items, indexed for
//! the semantic rules.
//!
//! Name resolution is deliberately simple — last-path-segment names, no
//! real module system. Lookups resolve a name to a definition by
//! preferring the same file, then the same crate (`crates/<name>/…`
//! prefix), then a workspace-unique definition; an ambiguous name resolves
//! to nothing, so a rule stays silent rather than guessing (the fixture
//! trees prove each rule still fires on the shapes that matter).

use crate::parser::{FileAst, FnDef, StructDef};

/// One file's contribution to the workspace.
#[derive(Clone, Debug)]
pub struct FileSymbols {
    /// `/`-separated path relative to the scan base.
    pub rel: String,
    /// The file's parsed items.
    pub ast: FileAst,
}

/// The whole scanned workspace.
#[derive(Clone, Debug, Default)]
pub struct Workspace {
    /// Per-file symbol tables, in scan (sorted-path) order.
    pub files: Vec<FileSymbols>,
}

/// Crate directory name for `crates/<name>/…` paths.
fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name)
}

impl Workspace {
    /// Builds the workspace from per-file parses.
    #[must_use]
    pub fn new(files: Vec<FileSymbols>) -> Workspace {
        Workspace { files }
    }

    /// Iterates `(rel, fn)` over every function in the workspace.
    pub fn fns(&self) -> impl Iterator<Item = (&str, &FnDef)> {
        self.files
            .iter()
            .flat_map(|f| f.ast.fns.iter().map(move |d| (f.rel.as_str(), d)))
    }

    /// Iterates `(rel, struct)` over every struct in the workspace.
    pub fn structs(&self) -> impl Iterator<Item = (&str, &StructDef)> {
        self.files
            .iter()
            .flat_map(|f| f.ast.structs.iter().map(move |d| (f.rel.as_str(), d)))
    }

    /// Resolves the struct definition `name` as seen from the file
    /// `from_rel`: same file beats same crate beats a workspace-unique
    /// definition; anything still ambiguous resolves to `None`.
    #[must_use]
    pub fn resolve_struct(&self, name: &str, from_rel: &str) -> Option<(&str, &StructDef)> {
        let candidates: Vec<(&str, &StructDef)> =
            self.structs().filter(|(_, s)| s.name == name).collect();
        if let Some(hit) = candidates.iter().find(|(rel, _)| *rel == from_rel) {
            return Some(*hit);
        }
        if let Some(krate) = crate_of(from_rel) {
            let in_crate: Vec<&(&str, &StructDef)> = candidates
                .iter()
                .filter(|(rel, _)| crate_of(rel) == Some(krate))
                .collect();
            if in_crate.len() == 1 {
                return Some(*in_crate[0]);
            }
            if in_crate.len() > 1 {
                return None;
            }
        }
        match candidates.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    /// Inherent-impl functions of type `type_name` named `fn_name`.
    #[must_use]
    pub fn inherent_fns(&self, type_name: &str, fn_name: &str) -> Vec<(&str, &FnDef)> {
        self.fns()
            .filter(|(_, f)| {
                f.name == fn_name
                    && f.owner
                        .as_ref()
                        .is_some_and(|o| o.type_name == type_name && o.trait_name.is_none())
            })
            .collect()
    }

    /// True when some `impl <trait_name> for <type_name>` exists.
    #[must_use]
    pub fn has_trait_impl(&self, trait_name: &str, type_name: &str) -> bool {
        self.fns().any(|(_, f)| {
            f.owner.as_ref().is_some_and(|o| {
                o.type_name == type_name && o.trait_name.as_deref() == Some(trait_name)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::new(
            files
                .iter()
                .map(|(rel, src)| FileSymbols {
                    rel: (*rel).to_string(),
                    ast: parse(&lex(src)),
                })
                .collect(),
        )
    }

    #[test]
    fn resolve_prefers_same_file_then_same_crate() {
        let w = ws(&[
            ("crates/a/src/x.rs", "struct S { a: u64 }"),
            ("crates/b/src/y.rs", "struct S { b: u64 }"),
            ("crates/b/src/z.rs", "fn f() {}"),
        ]);
        let (rel, s) = w
            .resolve_struct("S", "crates/a/src/x.rs")
            .expect("same file wins");
        assert_eq!(rel, "crates/a/src/x.rs");
        assert_eq!(s.fields[0].name, "a");
        let (rel, s) = w
            .resolve_struct("S", "crates/b/src/z.rs")
            .expect("same crate wins");
        assert_eq!(rel, "crates/b/src/y.rs");
        assert_eq!(s.fields[0].name, "b");
        // From a third crate the name is ambiguous: resolve to nothing.
        assert!(w.resolve_struct("S", "crates/c/src/w.rs").is_none());
    }

    #[test]
    fn unique_definition_resolves_globally() {
        let w = ws(&[
            ("crates/a/src/x.rs", "struct Only { n: u64 }"),
            ("crates/b/src/y.rs", "fn f() {}"),
        ]);
        let (rel, _) = w
            .resolve_struct("Only", "crates/b/src/y.rs")
            .expect("unique resolves");
        assert_eq!(rel, "crates/a/src/x.rs");
        assert!(w.resolve_struct("Missing", "crates/b/src/y.rs").is_none());
    }

    #[test]
    fn trait_impl_and_inherent_lookup() {
        let w = ws(&[(
            "crates/a/src/x.rs",
            "struct S { n: u64 }\nimpl Persist for S { fn persist(&mut self) { self.n; } }\nimpl S { fn values(&self) -> u64 { self.n } }\n",
        )]);
        assert!(w.has_trait_impl("Persist", "S"));
        assert!(!w.has_trait_impl("Persist", "T"));
        assert_eq!(w.inherent_fns("S", "values").len(), 1);
        assert!(
            w.inherent_fns("S", "persist").is_empty(),
            "persist is trait-owned"
        );
    }
}
