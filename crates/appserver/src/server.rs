//! The application-server facade: admission control through the standard
//! WebSphere-style pools plus the message broker.

use crate::mq::{Broker, QueueId};
use crate::pool::{Admission, BoundedPool, PoolUsage};

/// Which pool a request needs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PoolKind {
    /// Web-container worker threads (HTTP requests).
    #[default]
    WebContainer,
    /// ORB threads (RMI requests).
    Orb,
    /// JDBC connections.
    Jdbc,
    /// JMS listener sessions.
    JmsListener,
}

impl PoolKind {
    /// Stable small-integer id, for compact encodings like trace-event
    /// payloads.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            PoolKind::WebContainer => 0,
            PoolKind::Orb => 1,
            PoolKind::Jdbc => 2,
            PoolKind::JmsListener => 3,
        }
    }
}

/// Pool sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppServerConfig {
    /// Web-container thread pool size.
    pub web_threads: usize,
    /// ORB thread pool size.
    pub orb_threads: usize,
    /// JDBC connection pool size.
    pub jdbc_connections: usize,
    /// JMS listener sessions.
    pub jms_sessions: usize,
}

impl Default for AppServerConfig {
    /// Sizes in the neighbourhood of tuned SPECjAppServer submissions.
    fn default() -> Self {
        AppServerConfig {
            web_threads: 50,
            orb_threads: 30,
            jdbc_connections: 40,
            jms_sessions: 10,
        }
    }
}

/// The application server: pools + broker.
#[derive(Clone, Debug)]
pub struct AppServer {
    web: BoundedPool,
    orb: BoundedPool,
    jdbc: BoundedPool,
    jms: BoundedPool,
    broker: Broker,
    work_order_queue: QueueId,
}

impl AppServer {
    /// Boots an application server.
    #[must_use]
    pub fn new(cfg: AppServerConfig) -> Self {
        let mut broker = Broker::new();
        let work_order_queue = broker.declare_queue();
        AppServer {
            web: BoundedPool::new("WebContainer", cfg.web_threads),
            orb: BoundedPool::new("ORB", cfg.orb_threads),
            jdbc: BoundedPool::new("JDBC", cfg.jdbc_connections),
            jms: BoundedPool::new("JMSListener", cfg.jms_sessions),
            broker,
            work_order_queue,
        }
    }

    /// The manufacturing work-order queue.
    #[must_use]
    pub fn work_order_queue(&self) -> QueueId {
        self.work_order_queue
    }

    /// The message broker.
    pub fn broker_mut(&mut self) -> &mut Broker {
        &mut self.broker
    }

    /// Read-only broker access.
    #[must_use]
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    fn pool_mut(&mut self, kind: PoolKind) -> &mut BoundedPool {
        match kind {
            PoolKind::WebContainer => &mut self.web,
            PoolKind::Orb => &mut self.orb,
            PoolKind::Jdbc => &mut self.jdbc,
            PoolKind::JmsListener => &mut self.jms,
        }
    }

    /// Requests a resource from `kind` for request `token`.
    pub fn acquire(&mut self, kind: PoolKind, token: u64) -> Admission {
        self.pool_mut(kind).acquire(token)
    }

    /// Releases one resource of `kind`; returns the token of a queued
    /// request that should now resume, if any.
    pub fn release(&mut self, kind: PoolKind) -> Option<u64> {
        self.pool_mut(kind).release()
    }

    /// Removes `token` from `kind`'s wait queue (abandoned request).
    /// Returns `true` if it was queued.
    pub fn cancel_wait(&mut self, kind: PoolKind, token: u64) -> bool {
        self.pool_mut(kind).cancel(token)
    }

    /// Applies a pool-exhaustion fault: seizes `target` resources of
    /// `kind` (shrinking what requesters can use) and returns the tokens
    /// of waiters admitted when a seizure is lifted.
    ///
    /// # Panics
    ///
    /// Panics if `target` is not below the pool's capacity.
    pub fn set_seized(&mut self, kind: PoolKind, target: usize) -> Vec<u64> {
        self.pool_mut(kind).set_seized(target)
    }

    /// Resources of `kind` currently seized by the fault plan.
    #[must_use]
    pub fn seized(&self, kind: PoolKind) -> usize {
        match kind {
            PoolKind::WebContainer => self.web.seized(),
            PoolKind::Orb => self.orb.seized(),
            PoolKind::Jdbc => self.jdbc.seized(),
            PoolKind::JmsListener => self.jms.seized(),
        }
    }

    /// Usage statistics for `kind`.
    #[must_use]
    pub fn usage(&self, kind: PoolKind) -> PoolUsage {
        match kind {
            PoolKind::WebContainer => self.web.usage(),
            PoolKind::Orb => self.orb.usage(),
            PoolKind::Jdbc => self.jdbc.usage(),
            PoolKind::JmsListener => self.jms.usage(),
        }
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for AppServer {
    // `work_order_queue` is assigned at boot and never changes.
    // jas-lint: allow(D009, reason = "work_order_queue is assigned at boot from config and never mutated")
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.web.persist(io);
        self.orb.persist(io);
        self.jdbc.persist(io);
        self.jms.persist(io);
        self.broker.persist(io);
    }
}

impl Persist for PoolKind {
    // Encoded as the stable `index()`.
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag = snap::persist_tag(io, u64::from(self.index()), 4, "pool kind tag");
        if !io.saving() {
            *self = match tag {
                0 => PoolKind::WebContainer,
                1 => PoolKind::Orb,
                2 => PoolKind::Jdbc,
                _ => PoolKind::JmsListener,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mq::Message;

    #[test]
    fn pools_admit_and_queue_independently() {
        let mut s = AppServer::new(AppServerConfig {
            web_threads: 1,
            orb_threads: 1,
            jdbc_connections: 1,
            jms_sessions: 1,
        });
        assert_eq!(s.acquire(PoolKind::WebContainer, 1), Admission::Granted);
        assert_eq!(s.acquire(PoolKind::Orb, 2), Admission::Granted);
        assert!(matches!(
            s.acquire(PoolKind::WebContainer, 3),
            Admission::Queued { .. }
        ));
        assert_eq!(s.release(PoolKind::WebContainer), Some(3));
    }

    #[test]
    fn work_order_queue_round_trips() {
        let mut s = AppServer::new(AppServerConfig::default());
        let q = s.work_order_queue();
        s.broker_mut().send(q, Message::new(7, 256));
        assert_eq!(s.broker().depth(q), 1);
        assert_eq!(s.broker_mut().receive(q).unwrap().correlation, 7);
    }

    #[test]
    fn usage_is_per_pool() {
        let mut s = AppServer::new(AppServerConfig::default());
        s.acquire(PoolKind::Jdbc, 1);
        assert_eq!(s.usage(PoolKind::Jdbc).requests, 1);
        assert_eq!(s.usage(PoolKind::Orb).requests, 0);
    }
}
