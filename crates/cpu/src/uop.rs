//! The abstract instruction ("micro-op") vocabulary executed by the core
//! model.
//!
//! The simulator does not interpret PowerPC encodings; it executes a stream
//! of architectural *effects*: memory references with effective addresses,
//! branches with resolution information, the LARX/STCX reservation pair and
//! SYNC barriers (paper Section 4.2.4), and plain ALU work. Each op models
//! one completed instruction.

/// One modeled instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MicroOp {
    /// A non-memory, non-branch instruction.
    #[default]
    Alu,
    /// A load from effective address `ea`.
    Load {
        /// Effective address referenced.
        ea: u64,
    },
    /// A store to effective address `ea`.
    Store {
        /// Effective address referenced.
        ea: u64,
    },
    /// A conditional branch at call-site `site` resolving to `taken`.
    CondBranch {
        /// Static identity of the branch (its instruction address class).
        site: u64,
        /// Actual resolved direction.
        taken: bool,
    },
    /// An indirect branch (virtual call, computed goto) at `site` jumping to
    /// `target`.
    IndBranch {
        /// Static identity of the branch.
        site: u64,
        /// Actual resolved target address.
        target: u64,
    },
    /// Load-and-reserve (LWARX/LDARX): a load that opens a reservation.
    Larx {
        /// Effective address reserved.
        ea: u64,
    },
    /// Store-conditional (STWCX/STDCX): succeeds only if the reservation
    /// held; `fail` carries the resolved outcome from the lock model.
    Stcx {
        /// Effective address stored.
        ea: u64,
        /// Whether the store-conditional failed (reservation lost).
        fail: bool,
    },
    /// A SYNC/LWSYNC/ISYNC barrier draining the store-reorder queue.
    Sync,
    /// A (direct) subroutine call: pushes `ret` onto the link stack and
    /// transfers control; direct-call targets are perfectly predicted.
    Call {
        /// Return address recorded for the matching [`MicroOp::Return`].
        ret: u64,
    },
    /// A subroutine return to `to`, predicted by the link stack.
    Return {
        /// Actual return target.
        to: u64,
    },
}

impl MicroOp {
    /// `true` for ops that reference data memory.
    #[must_use]
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            MicroOp::Load { .. }
                | MicroOp::Store { .. }
                | MicroOp::Larx { .. }
                | MicroOp::Stcx { .. }
        )
    }

    /// `true` for branch ops (control transfers).
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            MicroOp::CondBranch { .. }
                | MicroOp::IndBranch { .. }
                | MicroOp::Call { .. }
                | MicroOp::Return { .. }
        )
    }
}
// --- Checkpoint persistence -------------------------------------------------

use jas_simkernel::snapshot::{self as snap, Persist, StateIo};

impl Persist for MicroOp {
    /// Integer tag plus up to two argument words (format is
    /// variant-shaped, not fixed-width — the visitor replays the same
    /// shape on load).
    fn persist(&mut self, io: &mut dyn StateIo) {
        let tag = match self {
            MicroOp::Alu => 0u64,
            MicroOp::Load { .. } => 1,
            MicroOp::Store { .. } => 2,
            MicroOp::CondBranch { .. } => 3,
            MicroOp::IndBranch { .. } => 4,
            MicroOp::Larx { .. } => 5,
            MicroOp::Stcx { .. } => 6,
            MicroOp::Sync => 7,
            MicroOp::Call { .. } => 8,
            MicroOp::Return { .. } => 9,
        };
        let tag = snap::persist_tag(io, tag, 10, "micro-op tag");
        if !io.saving() {
            *self = match tag {
                1 => MicroOp::Load { ea: 0 },
                2 => MicroOp::Store { ea: 0 },
                3 => MicroOp::CondBranch {
                    site: 0,
                    taken: false,
                },
                4 => MicroOp::IndBranch { site: 0, target: 0 },
                5 => MicroOp::Larx { ea: 0 },
                6 => MicroOp::Stcx { ea: 0, fail: false },
                7 => MicroOp::Sync,
                8 => MicroOp::Call { ret: 0 },
                9 => MicroOp::Return { to: 0 },
                _ => MicroOp::Alu,
            };
        }
        match self {
            MicroOp::Alu | MicroOp::Sync => {}
            MicroOp::Load { ea } | MicroOp::Store { ea } | MicroOp::Larx { ea } => ea.persist(io),
            MicroOp::CondBranch { site, taken } => {
                site.persist(io);
                taken.persist(io);
            }
            MicroOp::IndBranch { site, target } => {
                site.persist(io);
                target.persist(io);
            }
            MicroOp::Stcx { ea, fail } => {
                ea.persist(io);
                fail.persist(io);
            }
            MicroOp::Call { ret } => ret.persist(io),
            MicroOp::Return { to } => to.persist(io),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        assert!(MicroOp::Load { ea: 0 }.is_memory());
        assert!(MicroOp::Stcx { ea: 0, fail: false }.is_memory());
        assert!(!MicroOp::Alu.is_memory());
        assert!(MicroOp::CondBranch {
            site: 1,
            taken: true
        }
        .is_branch());
        assert!(MicroOp::IndBranch { site: 1, target: 2 }.is_branch());
        assert!(MicroOp::Call { ret: 4 }.is_branch());
        assert!(MicroOp::Return { to: 4 }.is_branch());
        assert!(!MicroOp::Sync.is_branch());
    }
}
