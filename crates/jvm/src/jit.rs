//! The JIT compilation model: hotness counters, a compile queue, and a code
//! cache that gives JIT'd methods real addresses in the
//! [`Region::JitCode`] window.
//!
//! Two paper observations hinge on this model:
//!
//! * the **multi-megabyte code footprint** — aggressive inlining expands
//!   bytecode severalfold, and the full 8500-method working set cannot fit
//!   in the L2 (Section 6);
//! * the long warm-up before the profile stabilizes — "important" methods
//!   must be profiled and recompiled at high optimization before the last
//!   five minutes of the run are representative (Section 4.1.2).

use crate::method::{MethodId, MethodRegistry};
use jas_cpu::{Region, Window};

/// Optimization level of a compiled method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Quick, low-optimization compile.
    #[default]
    Cold,
    /// Standard optimization.
    Warm,
    /// Aggressive optimization with inlining.
    Hot,
    /// Maximum optimization for the very hottest methods.
    Scorching,
}

impl OptLevel {
    /// Code-size expansion over bytecode at this level (inlining grows hot
    /// code).
    #[must_use]
    pub fn expansion(self) -> f64 {
        match self {
            OptLevel::Cold => 3.0,
            OptLevel::Warm => 4.5,
            OptLevel::Hot => 7.0,
            OptLevel::Scorching => 9.0,
        }
    }

    /// Compilation cost in abstract work units per bytecode byte.
    #[must_use]
    pub fn compile_cost(self) -> f64 {
        match self {
            OptLevel::Cold => 50.0,
            OptLevel::Warm => 200.0,
            OptLevel::Hot => 900.0,
            OptLevel::Scorching => 2500.0,
        }
    }

    /// Invocation count that promotes a method to this level.
    #[must_use]
    pub fn threshold(self) -> u64 {
        match self {
            OptLevel::Cold => 50,
            OptLevel::Warm => 1_000,
            OptLevel::Hot => 10_000,
            OptLevel::Scorching => 100_000,
        }
    }
}

/// A completed compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Compilation {
    /// The compiled method.
    pub method: MethodId,
    /// The level it was compiled at.
    pub level: OptLevel,
    /// Where its code landed.
    pub code: Window,
}

/// The JIT compiler and its code cache.
#[derive(Clone, Debug)]
pub struct Jit {
    invocations: Vec<u64>,
    levels: Vec<Option<OptLevel>>,
    code_cursor: u64,
    code_limit: u64,
    compiled_bytes: u64,
    compilations: u64,
    pending_work: f64,
}

impl Jit {
    /// Creates a JIT with an empty code cache of `code_cache_bytes`.
    #[must_use]
    pub fn new(method_count: usize, code_cache_bytes: u64) -> Self {
        Jit {
            invocations: vec![0; method_count],
            levels: vec![None; method_count],
            code_cursor: Region::JitCode.base(),
            code_limit: Region::JitCode.base() + code_cache_bytes,
            compiled_bytes: 0,
            compilations: 0,
            pending_work: 0.0,
        }
    }

    /// Records `count` invocations of `method` and, when a hotness
    /// threshold is crossed, compiles (or recompiles) it, updating the
    /// registry's code window. Returns the compilation if one happened.
    pub fn record_invocations(
        &mut self,
        registry: &mut MethodRegistry,
        method: MethodId,
        count: u64,
    ) -> Option<Compilation> {
        let idx = method.index();
        assert!(idx < self.invocations.len(), "method beyond JIT table");
        self.invocations[idx] += count;
        let invocations = self.invocations[idx];
        let target = [
            OptLevel::Scorching,
            OptLevel::Hot,
            OptLevel::Warm,
            OptLevel::Cold,
        ]
        .into_iter()
        .find(|l| invocations >= l.threshold())?;
        if self.levels[idx].is_some_and(|cur| cur >= target) {
            return None;
        }
        self.compile(registry, method, target)
    }

    fn compile(
        &mut self,
        registry: &mut MethodRegistry,
        method: MethodId,
        level: OptLevel,
    ) -> Option<Compilation> {
        let m = registry.get(method);
        debug_assert!(m.component.is_java(), "JIT only compiles Java methods");
        let size = ((f64::from(m.bytecode_bytes) * level.expansion()) as u64 + 15) & !15;
        if self.code_cursor + size > self.code_limit {
            return None; // code cache full: keep running at the old level
        }
        let code = Window::new(self.code_cursor, size);
        self.code_cursor += size;
        self.compiled_bytes += size;
        self.compilations += 1;
        self.pending_work += f64::from(registry.get(method).bytecode_bytes) * level.compile_cost();
        self.levels[method.index()] = Some(level);
        let entry = registry.get_mut(method);
        entry.code = Some(code);
        entry.jitted = true;
        Some(Compilation {
            method,
            level,
            code,
        })
    }

    /// Current optimization level of a method, if compiled.
    #[must_use]
    pub fn level_of(&self, method: MethodId) -> Option<OptLevel> {
        self.levels.get(method.index()).copied().flatten()
    }

    /// Total JIT'd code bytes resident in the code cache.
    #[must_use]
    pub fn compiled_bytes(&self) -> u64 {
        self.compiled_bytes
    }

    /// Number of compilations performed.
    #[must_use]
    pub fn compilations(&self) -> u64 {
        self.compilations
    }

    /// The window of code-cache populated so far (for I-side streams).
    /// Returns `None` until the first compilation.
    #[must_use]
    pub fn code_window(&self) -> Option<Window> {
        let len = self.code_cursor - Region::JitCode.base();
        if len == 0 {
            None
        } else {
            Some(Window::new(Region::JitCode.base(), len))
        }
    }

    /// Takes (and resets) the accumulated compilation work units — the
    /// execution layer turns these into JIT-compiler-thread CPU time.
    pub fn take_pending_work(&mut self) -> f64 {
        core::mem::take(&mut self.pending_work)
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for OptLevel {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag = match self {
            OptLevel::Cold => 0u64,
            OptLevel::Warm => 1,
            OptLevel::Hot => 2,
            OptLevel::Scorching => 3,
        };
        let tag = snap::persist_tag(io, tag, 4, "JIT level tag");
        *self = match tag {
            1 => OptLevel::Warm,
            2 => OptLevel::Hot,
            3 => OptLevel::Scorching,
            _ => OptLevel::Cold,
        };
    }
}

impl Persist for Jit {
    /// `code_limit` is config-derived; invocation counts, compiled levels,
    /// the code-cache bump pointer, and the backlog are the mutable state.
    // jas-lint: allow(D009, reason = "code_limit is construction-time configuration")
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_slice(io, &mut self.invocations);
        snap::persist_slice(io, &mut self.levels);
        self.code_cursor.persist(io);
        self.compiled_bytes.persist(io);
        self.compilations.persist(io);
        self.pending_work.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Component;

    fn setup() -> (MethodRegistry, Jit, MethodId) {
        let mut reg = MethodRegistry::new();
        let id = reg.register("A.b", Component::AppServer, 1.0, 400);
        let jit = Jit::new(reg.len(), 64 << 20);
        (reg, jit, id)
    }

    #[test]
    fn cold_methods_are_not_compiled() {
        let (mut reg, mut jit, id) = setup();
        assert!(jit.record_invocations(&mut reg, id, 10).is_none());
        assert!(jit.level_of(id).is_none());
        assert!(!reg.get(id).jitted);
    }

    #[test]
    fn crossing_threshold_compiles() {
        let (mut reg, mut jit, id) = setup();
        let c = jit
            .record_invocations(&mut reg, id, 60)
            .expect("compiles at cold");
        assert_eq!(c.level, OptLevel::Cold);
        assert!(reg.get(id).jitted);
        assert_eq!(reg.get(id).code, Some(c.code));
        assert_eq!(jit.compilations(), 1);
    }

    #[test]
    fn recompilation_at_higher_levels() {
        let (mut reg, mut jit, id) = setup();
        jit.record_invocations(&mut reg, id, 60);
        assert_eq!(jit.level_of(id), Some(OptLevel::Cold));
        jit.record_invocations(&mut reg, id, 2_000);
        assert_eq!(jit.level_of(id), Some(OptLevel::Warm));
        jit.record_invocations(&mut reg, id, 200_000);
        assert_eq!(jit.level_of(id), Some(OptLevel::Scorching));
        // No downgrade or useless recompile afterwards.
        assert!(jit.record_invocations(&mut reg, id, 1).is_none());
    }

    #[test]
    fn code_size_grows_with_level() {
        let (mut reg, mut jit, id) = setup();
        jit.record_invocations(&mut reg, id, 60);
        let cold_size = reg.get(id).code.unwrap().len;
        jit.record_invocations(&mut reg, id, 1_000_000);
        let hot_size = reg.get(id).code.unwrap().len;
        assert!(hot_size > cold_size * 2, "{hot_size} vs {cold_size}");
    }

    #[test]
    fn code_cache_exhaustion_stops_compiles() {
        let mut reg = MethodRegistry::new();
        let ids: Vec<_> = (0..10)
            .map(|i| reg.register(format!("M{i}"), Component::JavaLibrary, 1.0, 1000))
            .collect();
        let mut jit = Jit::new(reg.len(), 8 * 1024); // tiny cache
        let mut compiled = 0;
        for id in ids {
            if jit.record_invocations(&mut reg, id, 100).is_some() {
                compiled += 1;
            }
        }
        assert!(compiled >= 1);
        assert!(compiled < 10, "tiny cache cannot hold everything");
        assert!(jit.compiled_bytes() <= 8 * 1024);
    }

    #[test]
    fn code_windows_do_not_overlap() {
        let mut reg = MethodRegistry::new();
        let ids: Vec<_> = (0..50)
            .map(|i| reg.register(format!("M{i}"), Component::JavaLibrary, 1.0, 300))
            .collect();
        let mut jit = Jit::new(reg.len(), 64 << 20);
        for id in &ids {
            jit.record_invocations(&mut reg, *id, 100);
        }
        let mut windows: Vec<Window> = ids.iter().filter_map(|id| reg.get(*id).code).collect();
        windows.sort_by_key(|w| w.base);
        for pair in windows.windows(2) {
            assert!(pair[0].base + pair[0].len <= pair[1].base, "overlap");
        }
    }

    #[test]
    fn pending_work_accumulates_and_drains() {
        let (mut reg, mut jit, id) = setup();
        jit.record_invocations(&mut reg, id, 60);
        let w = jit.take_pending_work();
        assert!(w > 0.0);
        assert_eq!(jit.take_pending_work(), 0.0);
    }

    #[test]
    fn code_window_tracks_population() {
        let (mut reg, mut jit, id) = setup();
        assert!(jit.code_window().is_none());
        jit.record_invocations(&mut reg, id, 60);
        let w = jit.code_window().unwrap();
        assert_eq!(w.base, Region::JitCode.base());
        assert_eq!(w.len, jit.compiled_bytes());
    }
}
