//! The method registry: every profilable unit of code in the system, its
//! software component, code-cache address, and runtime weight.
//!
//! This drives two of the paper's headline observations:
//!
//! * **Figure 4's component breakdown** — CPU time attributed to the
//!   benchmark's own code (~2%), WebSphere, Enterprise Java Services, Java
//!   library, JVM/JIT, web server, DB2, MQ, and kernel.
//! * **The flat method profile** — the hottest of ~8500 JIT'd methods takes
//!   <1% of time and it takes ~224 methods to cover 50% of JIT'd-code time.
//!   Weights follow a shifted power law `w(k) = (k + shift)^-s` whose
//!   parameters reproduce both facts at once (a pure Zipf cannot).

use jas_cpu::{Region, Window};

/// Identifier of a registered method.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MethodId(pub(crate) u32);

impl MethodId {
    /// Raw registry index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Software component a method belongs to (the paper's Figure 4 slices plus
/// the finer-grained JIT'd-code split of its Section 4.1.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// The SPECjAppServer-like benchmark application itself.
    #[default]
    Application,
    /// WebSphere-like application-server framework code.
    AppServer,
    /// Enterprise Java Services (EJB container, transaction plumbing).
    EnterpriseServices,
    /// The Java class library.
    JavaLibrary,
    /// JVM runtime: interpreter, class loading, verification.
    JvmRuntime,
    /// The JIT compiler itself.
    JitCompiler,
    /// Garbage collector.
    Gc,
    /// Stand-alone web (HTTP) server, native code.
    WebServer,
    /// Database engine, native code.
    Database,
    /// Message-queue library, native code.
    MessageQueue,
    /// Operating-system kernel.
    Kernel,
}

impl Component {
    /// All components.
    pub const ALL: [Component; 11] = [
        Component::Application,
        Component::AppServer,
        Component::EnterpriseServices,
        Component::JavaLibrary,
        Component::JvmRuntime,
        Component::JitCompiler,
        Component::Gc,
        Component::WebServer,
        Component::Database,
        Component::MessageQueue,
        Component::Kernel,
    ];

    /// Human-readable name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Component::Application => "jas2004 application",
            Component::AppServer => "WebSphere-like app server",
            Component::EnterpriseServices => "Enterprise Java Services",
            Component::JavaLibrary => "Java library",
            Component::JvmRuntime => "JVM runtime",
            Component::JitCompiler => "JIT compiler",
            Component::Gc => "garbage collector",
            Component::WebServer => "web server",
            Component::Database => "database",
            Component::MessageQueue => "message queue",
            Component::Kernel => "kernel",
        }
    }

    /// `true` when methods of this component run as Java code that the JIT
    /// may compile.
    #[must_use]
    pub fn is_java(self) -> bool {
        matches!(
            self,
            Component::Application
                | Component::AppServer
                | Component::EnterpriseServices
                | Component::JavaLibrary
        )
    }
}

/// A registered method.
#[derive(Clone, Debug)]
pub struct Method {
    /// Qualified display name.
    pub name: String,
    /// Owning component.
    pub component: Component,
    /// Relative share of its component's CPU time.
    pub weight: f64,
    /// Bytecode size (drives JIT'd code size).
    pub bytecode_bytes: u32,
    /// Code window (assigned at registration for native code, at JIT
    /// compilation for Java code; interpreted Java runs in the JVM's
    /// interpreter loop window).
    pub code: Option<Window>,
    /// Whether the method has been JIT-compiled.
    pub jitted: bool,
}

/// Shifted power-law weights reproducing the paper's flat profile.
///
/// `w(k) = (k + shift)^-s` for ranks `k = 1..=n`. With the default
/// parameters (`shift = 250`, `s = 2.0`) over 8500 methods, the top method
/// gets ~0.4% of time and ~224 methods cover ~50% — both paper facts.
#[must_use]
pub fn flat_profile_weights(n: usize, shift: f64, s: f64) -> Vec<f64> {
    (1..=n).map(|k| (k as f64 + shift).powf(-s)).collect()
}

/// The registry of all methods in the simulated software stack.
#[derive(Clone, Debug, Default)]
pub struct MethodRegistry {
    methods: Vec<Method>,
}

impl MethodRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a method and returns its id.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        component: Component,
        weight: f64,
        bytecode_bytes: u32,
    ) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(Method {
            name: name.into(),
            component,
            weight,
            bytecode_bytes,
            code: None,
            jitted: false,
        });
        id
    }

    /// Number of registered methods.
    #[must_use]
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// `true` when no methods are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }

    /// The method with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    #[must_use]
    pub fn get(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    pub(crate) fn get_mut(&mut self, id: MethodId) -> &mut Method {
        &mut self.methods[id.index()]
    }

    /// Iterates over `(id, method)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &Method)> {
        self.methods
            .iter()
            .enumerate()
            .map(|(i, m)| (MethodId(i as u32), m))
    }

    /// Ids of all methods of `component`.
    #[must_use]
    pub fn of_component(&self, component: Component) -> Vec<MethodId> {
        self.iter()
            .filter(|(_, m)| m.component == component)
            .map(|(id, _)| id)
            .collect()
    }

    /// Populates the registry with the paper's software stack: ~8500 Java
    /// methods across application/app-server/EJS/library with the flat
    /// profile, plus native methods for the JVM, web server, DB, MQ, and
    /// kernel. Returns the registry.
    #[must_use]
    pub fn standard_stack() -> Self {
        let mut reg = MethodRegistry::new();
        // Java methods: distribution of 8500 across components roughly per
        // the paper: ~76% of JIT'd code time is WAS + EJS + library.
        let component_of = |k: usize| -> Component {
            match k % 20 {
                0 => Component::Application,             // 5% of methods
                1..=8 => Component::AppServer,           // 40%
                9..=13 => Component::EnterpriseServices, // 25%
                _ => Component::JavaLibrary,             // 30%
            }
        };
        let weights = flat_profile_weights(8500, 250.0, 2.0);
        for (k, w) in weights.iter().enumerate() {
            let comp = component_of(k);
            let name = format!("{}::method_{k:04}", comp.name().replace(' ', "_"));
            // Bytecode sizes: mostly small, some hefty (drives multi-MB
            // JIT'd code footprint).
            let bytecode = 80 + ((k * 37) % 900) as u32;
            reg.register(name, comp, *w, bytecode);
        }
        // Native / runtime functions with their own internal profiles.
        let native = [
            (Component::JvmRuntime, 400, Region::NativeCode),
            (Component::JitCompiler, 150, Region::NativeCode),
            (Component::Gc, 60, Region::NativeCode),
            (Component::WebServer, 300, Region::NativeCode),
            (Component::Database, 900, Region::NativeCode),
            (Component::MessageQueue, 120, Region::NativeCode),
            (Component::Kernel, 700, Region::Kernel),
        ];
        for (comp, count, region) in native {
            let weights = flat_profile_weights(count, 40.0, 1.7);
            let mut cursor = region.base() + comp as u64 * (64 << 20);
            for (k, w) in weights.iter().enumerate() {
                let name = format!("{}::fn_{k:04}", comp.name().replace(' ', "_"));
                let id = reg.register(name, comp, *w, 0);
                let size = 512 + ((k * 53) % 4096) as u64;
                reg.get_mut(id).code = Some(Window::new(cursor, size));
                cursor += size;
            }
        }
        reg
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for MethodRegistry {
    /// Names, components, weights, and bytecode sizes are all fixed at
    /// registration, but `code` and `jitted` flip when the JIT compiles a
    /// method — they must travel with a checkpoint or a restored run
    /// classifies jitted ticks differently. The registry length is fixed
    /// by construction, so no length word is written.
    fn persist(&mut self, io: &mut dyn StateIo) {
        for m in &mut self.methods {
            snap::persist_opt_with(io, &mut m.code, || Window { base: 0, len: 0 });
            m.jitted.persist(io);
        }
    }
}

impl Persist for MethodId {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
    }
}

impl Persist for Component {
    // Encoded as the position in `Component::ALL` (a stable order).
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag = Component::ALL
            .iter()
            .position(|c| c == self)
            .expect("component is in ALL") as u64;
        let count = Component::ALL.len() as u64;
        let tag = snap::persist_tag(io, tag, count, "component tag");
        if !io.saving() {
            *self = Component::ALL[tag as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_profile_matches_paper_facts() {
        let w = flat_profile_weights(8500, 250.0, 2.0);
        let total: f64 = w.iter().sum();
        let top1 = w[0] / total;
        assert!(top1 < 0.01, "hottest method must be <1%, got {top1}");
        // ~224 methods should cover about half the time.
        let top224: f64 = w.iter().take(224).sum::<f64>() / total;
        assert!(
            (0.40..0.60).contains(&top224),
            "224 methods should cover ~50%, got {top224}"
        );
    }

    #[test]
    fn weights_are_monotonically_decreasing() {
        let w = flat_profile_weights(100, 10.0, 1.5);
        for pair in w.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }

    #[test]
    fn standard_stack_has_8500_java_methods() {
        let reg = MethodRegistry::standard_stack();
        let java = reg.iter().filter(|(_, m)| m.component.is_java()).count();
        assert_eq!(java, 8500);
        assert!(reg.len() > 8500 + 2000, "native functions registered too");
    }

    #[test]
    fn standard_stack_native_methods_have_code_windows() {
        let reg = MethodRegistry::standard_stack();
        for (_, m) in reg.iter() {
            if !m.component.is_java() {
                assert!(m.code.is_some(), "{} lacks a code window", m.name);
            } else {
                assert!(m.code.is_none(), "Java method {} pre-assigned code", m.name);
            }
        }
    }

    #[test]
    fn component_classification() {
        assert!(Component::AppServer.is_java());
        assert!(Component::JavaLibrary.is_java());
        assert!(!Component::Kernel.is_java());
        assert!(!Component::Gc.is_java());
        // Names are distinct.
        let mut names: Vec<_> = Component::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Component::ALL.len());
    }

    #[test]
    fn register_and_lookup() {
        let mut reg = MethodRegistry::new();
        let id = reg.register("Foo.bar", Component::Application, 1.0, 128);
        assert_eq!(reg.get(id).name, "Foo.bar");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        assert_eq!(reg.of_component(Component::Application), vec![id]);
        assert!(reg.of_component(Component::Kernel).is_empty());
    }
}
