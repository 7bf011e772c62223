//! Transaction plans: the vocabulary connecting the J2EE containers to the
//! execution engine.
//!
//! A business request is translated by the containers into a [`TxPlan`] — a
//! sequence of [`PlanStep`]s. The execution layer (crate `jas2004`) plays a
//! plan on a simulated core: `Compute` steps burn component CPU time (and
//! thus produce that component's instruction stream), `Db` steps run real
//! queries, `Allocate` steps create real heap objects, `Lock` steps hit the
//! monitor table, `MqSend`/`MqReceive` steps move real messages.

use jas_db::Query;
use jas_jvm::{Component, MonitorId, ObjectClass};

use crate::mq::QueueId;

/// One step of a transaction plan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum PlanStep {
    /// Burn `instructions` of full-scale CPU work in `component`'s code.
    Compute {
        /// The software component whose code runs.
        component: Component,
        /// Full-scale instruction count.
        instructions: f64,
    },
    /// Allocate `count` heap objects of `class`.
    Allocate {
        /// Object class to allocate.
        class: ObjectClass,
        /// Number of instances.
        count: u32,
    },
    /// Execute a database query (inside the plan's DB transaction).
    Db {
        /// The query.
        query: Query,
    },
    /// Send a message of `payload_bytes` to `queue`.
    MqSend {
        /// Destination queue.
        queue: QueueId,
        /// Payload size (drives marshalling cost).
        payload_bytes: u32,
    },
    /// Receive one message from `queue` (no-op when empty).
    MqReceive {
        /// Source queue.
        queue: QueueId,
    },
    /// Acquire a Java monitor.
    Lock {
        /// The monitor.
        monitor: MonitorId,
    },
    /// Touch (or create) long-lived session state.
    #[default]
    SessionTouch,
}

/// A complete plan for one request.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TxPlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
}

impl TxPlan {
    /// Creates an empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a step.
    pub fn push(&mut self, step: PlanStep) -> &mut Self {
        self.steps.push(step);
        self
    }

    /// Appends all steps of `other`.
    pub fn extend(&mut self, other: impl IntoIterator<Item = PlanStep>) -> &mut Self {
        self.steps.extend(other);
        self
    }

    /// Total full-scale instructions of all `Compute` steps.
    #[must_use]
    pub fn compute_instructions(&self) -> f64 {
        self.steps
            .iter()
            .filter_map(|s| match s {
                PlanStep::Compute { instructions, .. } => Some(*instructions),
                _ => None,
            })
            .sum()
    }

    /// Number of `Db` steps.
    #[must_use]
    pub fn db_steps(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Db { .. }))
            .count()
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for PlanStep {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag: u64 = match self {
            PlanStep::Compute { .. } => 0,
            PlanStep::Allocate { .. } => 1,
            PlanStep::Db { .. } => 2,
            PlanStep::MqSend { .. } => 3,
            PlanStep::MqReceive { .. } => 4,
            PlanStep::Lock { .. } => 5,
            PlanStep::SessionTouch => 6,
        };
        let tag = snap::persist_tag(io, tag, 7, "plan step tag");
        if !io.saving() {
            *self = match tag {
                0 => PlanStep::Compute {
                    component: jas_jvm::Component::default(),
                    instructions: 0.0,
                },
                1 => PlanStep::Allocate {
                    class: jas_jvm::ObjectClass::default(),
                    count: 0,
                },
                2 => PlanStep::Db {
                    query: jas_db::Query::default(),
                },
                3 => PlanStep::MqSend {
                    queue: QueueId(0),
                    payload_bytes: 0,
                },
                4 => PlanStep::MqReceive { queue: QueueId(0) },
                5 => PlanStep::Lock {
                    monitor: jas_jvm::MonitorId::default(),
                },
                _ => PlanStep::SessionTouch,
            };
        }
        match self {
            PlanStep::Compute {
                component,
                instructions,
            } => {
                component.persist(io);
                instructions.persist(io);
            }
            PlanStep::Allocate { class, count } => {
                class.persist(io);
                count.persist(io);
            }
            PlanStep::Db { query } => query.persist(io),
            PlanStep::MqSend {
                queue,
                payload_bytes,
            } => {
                queue.0.persist(io);
                payload_bytes.persist(io);
            }
            PlanStep::MqReceive { queue } => queue.0.persist(io),
            PlanStep::Lock { monitor } => monitor.persist(io),
            PlanStep::SessionTouch => {}
        }
    }
}

impl Persist for TxPlan {
    fn persist(&mut self, io: &mut dyn StateIo) {
        snap::persist_vec(io, &mut self.steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_extend_build_plans() {
        let mut p = TxPlan::new();
        p.push(PlanStep::Compute {
            component: Component::AppServer,
            instructions: 1000.0,
        })
        .push(PlanStep::SessionTouch);
        p.extend([PlanStep::Compute {
            component: Component::JavaLibrary,
            instructions: 500.0,
        }]);
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.compute_instructions(), 1500.0);
        assert_eq!(p.db_steps(), 0);
    }
}
