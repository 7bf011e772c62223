//! Request types, their mix, and plan construction.
//!
//! The dealer domain issues three web transactions (Purchase, Manage,
//! Browse) in the benchmark's 25/25/50 mix, fleet buyers issue RMI
//! CreateVehicleEJB calls, and each purchase enqueues a manufacturing work
//! order consumed asynchronously from JMS. Plans are compiled from the
//! app-server container fragments plus the business data accesses.

use jas_appserver::{containers, PlanStep, QueueId, TxPlan};
use jas_simkernel::dist::Zipf;
use jas_simkernel::Rng;

use crate::domain::Schema;

/// The externally driven request categories (Figure 2's four series).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RequestKind {
    /// Dealer purchases vehicles (web).
    #[default]
    Purchase,
    /// Dealer manages inventory/sales (web).
    Manage,
    /// Dealer browses the catalogue (web).
    Browse,
    /// Fleet buyer orders via RMI (CreateVehicleEJB).
    CreateVehicle,
    /// Manufacturing work order consumed from JMS.
    WorkOrder,
}

impl RequestKind {
    /// All request kinds.
    pub const ALL: [RequestKind; 5] = [
        RequestKind::Purchase,
        RequestKind::Manage,
        RequestKind::Browse,
        RequestKind::CreateVehicle,
        RequestKind::WorkOrder,
    ];

    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Purchase => "Purchase",
            RequestKind::Manage => "Manage",
            RequestKind::Browse => "Browse",
            RequestKind::CreateVehicle => "CreateVehicle",
            RequestKind::WorkOrder => "WorkOrder",
        }
    }

    /// Stable small-integer id (the position in [`RequestKind::ALL`]),
    /// for compact encodings like trace-event payloads.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            RequestKind::Purchase => 0,
            RequestKind::Manage => 1,
            RequestKind::Browse => 2,
            RequestKind::CreateVehicle => 3,
            RequestKind::WorkOrder => 4,
        }
    }

    /// `true` for requests arriving over HTTP (response-time limit 2 s).
    #[must_use]
    pub fn is_web(self) -> bool {
        matches!(
            self,
            RequestKind::Purchase | RequestKind::Manage | RequestKind::Browse
        )
    }

    /// `true` for requests arriving over RMI (response-time limit 5 s).
    #[must_use]
    pub fn is_rmi(self) -> bool {
        self == RequestKind::CreateVehicle
    }
}

/// Driver-side mix of externally injected requests (WorkOrder arrives via
/// JMS, not the driver). Weights follow the dealer-domain 25/25/50 split
/// with an RMI share alongside.
#[must_use]
pub fn injection_mix() -> [(RequestKind, f64); 4] {
    [
        (RequestKind::Purchase, 0.225),
        (RequestKind::Manage, 0.225),
        (RequestKind::Browse, 0.45),
        (RequestKind::CreateVehicle, 0.10),
    ]
}

/// Multiplier applied to every container/business instruction count —
/// commercial J2EE stacks burn tens of millions of instructions per
/// transaction; the fragments model the *path*, this constant models the
/// depth of each segment. Calibrated so 4 POWER4-class cores saturate near
/// IR ≈ 47 as in the paper.
pub const PATH_LENGTH_MULTIPLIER: f64 = 16.0;

/// Per-kind key-popularity skew for catalogue reads.
const CATALOG_ZIPF: f64 = 0.9;

/// The popularity distribution plans draw catalogue keys from. Execution
/// engines should build it once and pass it to every [`build_plan`] call.
#[must_use]
pub fn catalog_popularity() -> Zipf {
    Zipf::new(4096, CATALOG_ZIPF)
}

/// Builds the execution plan for one request.
///
/// `fresh_key` must be a unique key generator (monotone counter) for
/// inserts; `zipf` is a shared popularity distribution over catalogue rows.
pub fn build_plan(
    kind: RequestKind,
    schema: &Schema,
    work_order_queue: QueueId,
    rng: &mut Rng,
    zipf: &Zipf,
    fresh_key: &mut u64,
) -> TxPlan {
    let mut plan = TxPlan::new();
    let rows = &schema.initial_rows;
    let pick = |rng: &mut Rng, zipf: &Zipf, n: u64| -> u64 {
        // Zipf over a 4096-rank hot set mapped onto the table, blended with
        // a uniform tail.
        if rng.chance(0.7) {
            (zipf.sample(rng) as u64 * 37) % n.max(1)
        } else {
            rng.next_below(n.max(1))
        }
    };
    match kind {
        RequestKind::Purchase => {
            plan.extend(containers::http_frontend(900));
            plan.extend(containers::servlet_dispatch(6_000));
            plan.extend(containers::session_bean_call(22_000.0));
            let customer = pick(rng, zipf, rows.customers);
            plan.extend(containers::entity_find(schema.customers, customer));
            // Select 1-3 vehicles, create order + lines, update inventory.
            let lines = 1 + rng.next_below(3);
            for _ in 0..lines {
                let vehicle = pick(rng, zipf, rows.vehicles);
                plan.extend(containers::entity_find(schema.vehicles, vehicle));
                *fresh_key += 1;
                plan.extend(containers::entity_create(
                    schema.order_lines,
                    rows.order_lines + *fresh_key,
                ));
            }
            *fresh_key += 1;
            plan.extend(containers::entity_create(
                schema.orders,
                rows.orders + *fresh_key,
            ));
            plan.extend(containers::entity_update(
                schema.vehicles,
                pick(rng, zipf, rows.vehicles),
            ));
            // Purchase triggers manufacturing via JMS.
            plan.extend(containers::jms_send(work_order_queue, 600));
            plan.extend(containers::jta_commit(2));
        }
        RequestKind::Manage => {
            plan.extend(containers::http_frontend(700));
            plan.extend(containers::servlet_dispatch(5_000));
            plan.extend(containers::session_bean_call(18_000.0));
            let customer = pick(rng, zipf, rows.customers);
            plan.extend(containers::entity_find(schema.customers, customer));
            // Review open orders, cancel or update some.
            let lo = pick(rng, zipf, rows.orders.saturating_sub(64).max(1));
            plan.extend(containers::entity_find_range(schema.orders, lo, lo + 12));
            plan.extend(containers::entity_update(
                schema.orders,
                pick(rng, zipf, rows.orders),
            ));
            // Occasionally cancel an order line outright.
            if rng.chance(0.3) {
                plan.extend(containers::entity_delete(
                    schema.order_lines,
                    rng.next_below(rows.order_lines.max(1)),
                ));
            }
            plan.extend(containers::jta_commit(1));
        }
        RequestKind::Browse => {
            plan.extend(containers::http_frontend(600));
            plan.extend(containers::servlet_dispatch(9_000));
            plan.extend(containers::session_bean_call(12_000.0));
            // Catalogue browsing: three range scans over vehicles.
            for _ in 0..3 {
                let lo = pick(rng, zipf, rows.vehicles.saturating_sub(32).max(1));
                plan.extend(containers::entity_find_range(schema.vehicles, lo, lo + 10));
            }
            plan.extend(containers::jta_commit(1));
        }
        RequestKind::CreateVehicle => {
            plan.extend(containers::rmi_call(2_400));
            plan.extend(containers::session_bean_call(25_000.0));
            let customer = pick(rng, zipf, rows.customers);
            plan.extend(containers::entity_find(schema.customers, customer));
            for _ in 0..2 {
                *fresh_key += 1;
                plan.extend(containers::entity_create(
                    schema.orders,
                    rows.orders + 1_000_000_000 + *fresh_key,
                ));
            }
            plan.extend(containers::jms_send(work_order_queue, 800));
            plan.extend(containers::jta_commit(2));
        }
        RequestKind::WorkOrder => {
            plan.extend(containers::jms_receive(work_order_queue));
            plan.extend(containers::session_bean_call(20_000.0));
            // Manufacturing: check parts, create work order, update status.
            for _ in 0..3 {
                let part = pick(rng, zipf, rows.parts);
                plan.extend(containers::entity_find(schema.parts, part));
            }
            *fresh_key += 1;
            plan.extend(containers::entity_create(
                schema.work_orders,
                rows.work_orders + *fresh_key,
            ));
            plan.extend(containers::entity_update(
                schema.work_orders,
                pick(rng, zipf, rows.work_orders),
            ));
            plan.extend(containers::jta_commit(2));
        }
    }
    // Apply the path-length multiplier to every compute step.
    for step in &mut plan.steps {
        if let PlanStep::Compute { instructions, .. } = step {
            *instructions *= PATH_LENGTH_MULTIPLIER;
        }
    }
    plan
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for RequestKind {
    // Encoded as the stable `index()` position in `ALL`.
    fn persist(&mut self, io: &mut dyn StateIo) {
        let count = RequestKind::ALL.len() as u64;
        let tag = snap::persist_tag(io, u64::from(self.index()), count, "request kind tag");
        if !io.saving() {
            *self = RequestKind::ALL[tag as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jas_db::{Database, DbConfig};

    fn setup() -> (Schema, Zipf, Rng) {
        let mut db = Database::new(DbConfig::default());
        let schema = Schema::create(&mut db, 4);
        (schema, Zipf::new(4096, CATALOG_ZIPF), Rng::new(1))
    }

    #[test]
    fn mix_sums_to_one() {
        let total: f64 = injection_mix().iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_kind_produces_a_plan() {
        let (schema, zipf, mut rng) = setup();
        let mut key = 0;
        for kind in RequestKind::ALL {
            let plan = build_plan(kind, &schema, QueueId(0), &mut rng, &zipf, &mut key);
            assert!(!plan.steps.is_empty(), "{kind:?}");
            assert!(plan.compute_instructions() > 1e6, "{kind:?} too cheap");
        }
    }

    #[test]
    fn purchase_touches_db_and_mq() {
        let (schema, zipf, mut rng) = setup();
        let mut key = 0;
        let plan = build_plan(
            RequestKind::Purchase,
            &schema,
            QueueId(0),
            &mut rng,
            &zipf,
            &mut key,
        );
        assert!(plan.db_steps() >= 4);
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::MqSend { .. })));
        assert!(key > 0, "purchase must mint fresh keys");
    }

    #[test]
    fn browse_is_read_only() {
        let (schema, zipf, mut rng) = setup();
        let mut key = 0;
        let plan = build_plan(
            RequestKind::Browse,
            &schema,
            QueueId(0),
            &mut rng,
            &zipf,
            &mut key,
        );
        for s in &plan.steps {
            if let PlanStep::Db { query } = s {
                assert!(
                    matches!(
                        query,
                        jas_db::Query::SelectByKey { .. } | jas_db::Query::RangeScan { .. }
                    ),
                    "browse must not write: {query:?}"
                );
            }
        }
    }

    #[test]
    fn work_order_consumes_from_queue() {
        let (schema, zipf, mut rng) = setup();
        let mut key = 0;
        let plan = build_plan(
            RequestKind::WorkOrder,
            &schema,
            QueueId(0),
            &mut rng,
            &zipf,
            &mut key,
        );
        assert!(plan
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::MqReceive { .. })));
    }

    #[test]
    fn classification_helpers() {
        assert!(RequestKind::Purchase.is_web());
        assert!(!RequestKind::Purchase.is_rmi());
        assert!(RequestKind::CreateVehicle.is_rmi());
        assert!(!RequestKind::WorkOrder.is_web());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let (schema, zipf, _) = setup();
        let mut k1 = 0;
        let mut k2 = 0;
        let p1 = build_plan(
            RequestKind::Purchase,
            &schema,
            QueueId(0),
            &mut Rng::new(9),
            &zipf,
            &mut k1,
        );
        let p2 = build_plan(
            RequestKind::Purchase,
            &schema,
            QueueId(0),
            &mut Rng::new(9),
            &zipf,
            &mut k2,
        );
        assert_eq!(p1, p2);
    }
}
