//! The transaction manager: row-level shared/exclusive locking.
//!
//! Deadlock is avoided by a no-wait policy: a conflicting acquisition fails
//! immediately with [`LockConflict`] and the caller retries or aborts —
//! appropriate for a simulation where blocking would stall the driving
//! event loop.

use crate::table::TableId;
use jas_simkernel::DetMap;

/// Identifier of an open transaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(u64);

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (readers).
    Shared,
    /// Exclusive (writers).
    Exclusive,
}

/// A lock acquisition failed because another transaction holds the row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockConflict {
    /// The contended row.
    pub table: TableId,
    /// The contended key.
    pub key: u64,
}

impl core::fmt::Display for LockConflict {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "lock conflict on table {} key {}",
            self.table.0, self.key
        )
    }
}

impl std::error::Error for LockConflict {}

#[derive(Clone, Debug)]
struct LockEntry {
    mode: LockMode,
    owners: Vec<TxnId>,
}

/// Transaction-manager statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun.
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Lock acquisitions granted.
    pub locks_granted: u64,
    /// Lock acquisitions refused.
    pub conflicts: u64,
    /// Lock waits that timed out (injected faults).
    pub timeouts: u64,
}

/// The lock and transaction table.
#[derive(Clone, Debug, Default)]
pub struct TxnManager {
    next_id: u64,
    locks: DetMap<(u32, u64), LockEntry>,
    held_by: DetMap<TxnId, Vec<(u32, u64)>>,
    stats: TxnStats,
}

impl TxnManager {
    /// Creates an empty transaction manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a transaction.
    pub fn begin(&mut self) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        self.held_by.insert(id, Vec::new());
        self.stats.begun += 1;
        id
    }

    /// Acquires a row lock.
    ///
    /// # Errors
    ///
    /// Returns [`LockConflict`] when an incompatible lock is held by another
    /// transaction (no-wait policy). Re-acquiring a lock already held by
    /// `txn` succeeds, including shared→exclusive upgrade when `txn` is the
    /// only holder.
    pub fn lock(
        &mut self,
        txn: TxnId,
        table: TableId,
        key: u64,
        mode: LockMode,
    ) -> Result<(), LockConflict> {
        assert!(self.held_by.contains_key(&txn), "transaction is not open");
        let slot = (table.0, key);
        match self.locks.get_mut(&slot) {
            None => {
                self.locks.insert(
                    slot,
                    LockEntry {
                        mode,
                        owners: vec![txn],
                    },
                );
                self.held_by.get_mut(&txn).expect("open").push(slot);
                self.stats.locks_granted += 1;
                Ok(())
            }
            Some(entry) => {
                let already_owner = entry.owners.contains(&txn);
                let sole_owner = already_owner && entry.owners.len() == 1;
                let compatible = match (entry.mode, mode) {
                    (LockMode::Shared, LockMode::Shared) => true,
                    (LockMode::Shared, LockMode::Exclusive) => sole_owner,
                    (LockMode::Exclusive, _) => already_owner,
                };
                if !compatible {
                    self.stats.conflicts += 1;
                    return Err(LockConflict { table, key });
                }
                if mode == LockMode::Exclusive {
                    entry.mode = LockMode::Exclusive;
                }
                if !already_owner {
                    entry.owners.push(txn);
                    self.held_by.get_mut(&txn).expect("open").push(slot);
                }
                self.stats.locks_granted += 1;
                Ok(())
            }
        }
    }

    /// Commits `txn`, releasing its locks.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is not open.
    pub fn commit(&mut self, txn: TxnId) {
        self.release_all(txn);
        self.stats.committed += 1;
    }

    /// Aborts `txn`, releasing its locks.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is not open.
    pub fn abort(&mut self, txn: TxnId) {
        self.release_all(txn);
        self.stats.aborted += 1;
    }

    fn release_all(&mut self, txn: TxnId) {
        let held = self.held_by.remove(&txn).expect("transaction is not open");
        for slot in held {
            if let Some(entry) = self.locks.get_mut(&slot) {
                entry.owners.retain(|o| *o != txn);
                if entry.owners.is_empty() {
                    self.locks.remove(&slot);
                }
            }
        }
    }

    /// Records a lock-wait timeout (the fault injector fails the wait; the
    /// manager only accounts for it).
    pub fn note_timeout(&mut self) {
        self.stats.timeouts += 1;
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> TxnStats {
        self.stats
    }

    /// Number of currently held row locks.
    #[must_use]
    pub fn held_locks(&self) -> usize {
        self.locks.len()
    }
}
// --- Checkpoint persistence ---

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for TxnId {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.0.persist(io);
    }
}

impl Persist for LockMode {
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag: u64 = match self {
            LockMode::Shared => 0,
            LockMode::Exclusive => 1,
        };
        let tag = snap::persist_tag(io, tag, 2, "lock mode tag");
        if !io.saving() {
            *self = if tag == 0 {
                LockMode::Shared
            } else {
                LockMode::Exclusive
            };
        }
    }
}

impl Default for LockEntry {
    fn default() -> Self {
        LockEntry {
            mode: LockMode::Shared,
            owners: Vec::new(),
        }
    }
}

impl Persist for LockEntry {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.mode.persist(io);
        self.owners.persist(io);
    }
}

impl Persist for TxnStats {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.begun.persist(io);
        self.committed.persist(io);
        self.aborted.persist(io);
        self.locks_granted.persist(io);
        self.conflicts.persist(io);
        self.timeouts.persist(io);
    }
}

impl Persist for TxnManager {
    fn persist(&mut self, io: &mut dyn StateIo) {
        self.next_id.persist(io);
        snap::persist_map(io, &mut self.locks);
        snap::persist_map(io, &mut self.held_by);
        self.stats.persist(io);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: TableId = TableId(1);

    #[test]
    fn shared_locks_coexist() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert!(tm.lock(a, T, 1, LockMode::Shared).is_ok());
        assert!(tm.lock(b, T, 1, LockMode::Shared).is_ok());
    }

    #[test]
    fn exclusive_conflicts_with_shared() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        tm.lock(a, T, 1, LockMode::Shared).unwrap();
        assert!(tm.lock(b, T, 1, LockMode::Exclusive).is_err());
        assert_eq!(tm.stats().conflicts, 1);
    }

    #[test]
    fn exclusive_blocks_everyone_else() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        tm.lock(a, T, 1, LockMode::Exclusive).unwrap();
        assert!(tm.lock(b, T, 1, LockMode::Shared).is_err());
        assert!(tm.lock(b, T, 1, LockMode::Exclusive).is_err());
        // But `a` can re-acquire its own lock.
        assert!(tm.lock(a, T, 1, LockMode::Shared).is_ok());
        assert!(tm.lock(a, T, 1, LockMode::Exclusive).is_ok());
    }

    #[test]
    fn upgrade_when_sole_holder() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        tm.lock(a, T, 1, LockMode::Shared).unwrap();
        assert!(tm.lock(a, T, 1, LockMode::Exclusive).is_ok());
        // Now nobody else can read it.
        let b = tm.begin();
        assert!(tm.lock(b, T, 1, LockMode::Shared).is_err());
    }

    #[test]
    fn upgrade_refused_with_other_readers() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        tm.lock(a, T, 1, LockMode::Shared).unwrap();
        tm.lock(b, T, 1, LockMode::Shared).unwrap();
        assert!(tm.lock(a, T, 1, LockMode::Exclusive).is_err());
    }

    #[test]
    fn commit_releases_locks() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        tm.lock(a, T, 1, LockMode::Exclusive).unwrap();
        tm.commit(a);
        assert_eq!(tm.held_locks(), 0);
        let b = tm.begin();
        assert!(tm.lock(b, T, 1, LockMode::Exclusive).is_ok());
    }

    #[test]
    fn abort_releases_locks_and_counts() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        tm.lock(a, T, 1, LockMode::Exclusive).unwrap();
        tm.abort(a);
        assert_eq!(tm.stats().aborted, 1);
        assert_eq!(tm.held_locks(), 0);
    }

    #[test]
    fn distinct_rows_never_conflict() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        let b = tm.begin();
        assert!(tm.lock(a, T, 1, LockMode::Exclusive).is_ok());
        assert!(tm.lock(b, T, 2, LockMode::Exclusive).is_ok());
        assert!(tm.lock(b, TableId(2), 1, LockMode::Exclusive).is_ok());
    }

    #[test]
    #[should_panic(expected = "not open")]
    fn commit_twice_panics() {
        let mut tm = TxnManager::new();
        let a = tm.begin();
        tm.commit(a);
        tm.commit(a);
    }
}
