//! Well-formedness of candidate executions — the paper's *placement rules*.
//!
//! §IV-A: "synthesizing candidate ELTs requires a more complex set of
//! axioms to describe a legal program execution". Those legality rules are
//! enforced here (the checks themselves run inside
//! [`crate::exec::Execution::analyze`]); this module defines the error
//! vocabulary describing every way an ELT can be malformed.

use crate::ids::{EventId, ThreadId};
use std::error::Error;
use std::fmt;

/// Why a candidate execution is not a legal ELT.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WellformedError {
    /// The execution has more events (the count given) than a relation
    /// row holds ([`crate::rel::MAX_EVENTS`]).
    TooManyEvents(usize),
    /// Event ids are not dense/consistent with their position.
    CorruptEventTable,
    /// A fence carries a VA, or a non-fence lacks one.
    BadVa(EventId),
    /// A thread's program order mentions a missing or foreign event.
    CorruptProgramOrder(ThreadId),
    /// A ghost-relation entry whose target is not a ghost instruction, or a
    /// ghost instruction with no invoker.
    OrphanGhost(EventId),
    /// A ghost's invoker is missing, itself a ghost, on another thread, or
    /// of the wrong kind (walks attach to loads/stores, dirty-bit writes to
    /// stores), or disagrees on the VA.
    BadInvoker {
        /// The ghost instruction.
        ghost: EventId,
        /// The claimed invoker.
        invoker: EventId,
    },
    /// A user write without exactly one dirty-bit update (§III-A2).
    DirtyBitCount(EventId),
    /// A user memory event with more than one page-table walk.
    WalkCount(EventId),
    /// An `rmw` pair that is not an adjacent same-VA read/write pair.
    BadRmw(EventId, EventId),
    /// A user memory event with no TLB entry to read: no walk for its VA
    /// precedes it on its core (§III-A1 — TLBs start empty).
    MissingPtWalk(EventId),
    /// A user memory event whose only candidate TLB entry was evicted by an
    /// intervening `INVLPG` (§III-B2, Fig. 5b).
    StaleTlbEntry {
        /// The access that needed the mapping.
        event: EventId,
        /// The INVLPG that evicted it.
        invlpg: EventId,
    },
    /// The address-mapping provenance chain is circular (a dirty-bit write
    /// feeding the walk that defines its own mapping).
    CyclicProvenance(EventId),
    /// An `rf` edge whose endpoints are not a write sourcing a read of the
    /// compatible stratum (user write → user read; PTE/dirty-bit write →
    /// walk).
    RfKindMismatch(EventId, EventId),
    /// An `rf` edge between accesses to different physical locations.
    RfLocationMismatch(EventId, EventId),
    /// `co` relates events that are not two distinct writes to one
    /// location.
    BadCoPair(EventId, EventId),
    /// `co` is not a strict total order per location.
    CoNotTotalOrder(EventId, EventId),
    /// `co_pa` relates events that are not two distinct PTE writes mapping
    /// to one PA.
    BadCoPaPair(EventId, EventId),
    /// `co_pa` is not a strict total order per target PA.
    CoPaNotTotalOrder(EventId, EventId),
    /// A `remap` edge whose endpoints are not a PTE write and a same-VA
    /// `INVLPG`.
    BadRemap(EventId, EventId),
    /// A PTE write lacking exactly one remap-invoked `INVLPG` on some core
    /// (§III-B2: mappings must be invalidated in the TLBs of all cores).
    RemapCoverage(EventId, ThreadId),
    /// An `INVLPG` invoked by two different PTE writes.
    SharedInvlpg(EventId),
    /// A PTE write whose same-core `INVLPG` does not follow it in program
    /// order.
    RemapOrder(EventId, EventId),
}

impl fmt::Display for WellformedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use WellformedError::*;
        match self {
            TooManyEvents(n) => write!(
                f,
                "the execution has {n} events; at most {} are supported",
                crate::rel::MAX_EVENTS
            ),
            CorruptEventTable => write!(f, "event ids are not dense"),
            BadVa(e) => write!(f, "event {} has a malformed VA field", e.0),
            CorruptProgramOrder(t) => write!(f, "program order of {t} is corrupt"),
            OrphanGhost(e) => write!(f, "ghost bookkeeping for event {} is wrong", e.0),
            BadInvoker { ghost, invoker } => {
                write!(f, "ghost {} has illegal invoker {}", ghost.0, invoker.0)
            }
            DirtyBitCount(e) => write!(f, "write {} must invoke exactly one dirty-bit update", e.0),
            WalkCount(e) => write!(f, "event {} invokes more than one PT walk", e.0),
            BadRmw(r, w) => write!(f, "({}, {}) is not a legal rmw pair", r.0, w.0),
            MissingPtWalk(e) => write!(f, "event {} has no TLB entry to read", e.0),
            StaleTlbEntry { event, invlpg } => write!(
                f,
                "event {} uses a TLB entry evicted by INVLPG {}",
                event.0, invlpg.0
            ),
            CyclicProvenance(e) => {
                write!(f, "address-mapping provenance of event {} is circular", e.0)
            }
            RfKindMismatch(w, r) => {
                write!(f, "rf edge {} -> {} mixes event strata", w.0, r.0)
            }
            RfLocationMismatch(w, r) => {
                write!(f, "rf edge {} -> {} crosses locations", w.0, r.0)
            }
            BadCoPair(a, b) => write!(f, "co pair ({}, {}) is malformed", a.0, b.0),
            CoNotTotalOrder(a, b) => write!(
                f,
                "co does not totally order same-location writes {} and {}",
                a.0, b.0
            ),
            BadCoPaPair(a, b) => write!(f, "co_pa pair ({}, {}) is malformed", a.0, b.0),
            CoPaNotTotalOrder(a, b) => write!(
                f,
                "co_pa does not totally order PTE writes {} and {}",
                a.0, b.0
            ),
            BadRemap(w, i) => write!(f, "remap edge {} -> {} is malformed", w.0, i.0),
            RemapCoverage(w, t) => write!(f, "PTE write {} needs exactly one INVLPG on {t}", w.0),
            SharedInvlpg(i) => write!(f, "INVLPG {} serves two PTE writes", i.0),
            RemapOrder(w, i) => write!(
                f,
                "same-core INVLPG {} must follow PTE write {} in po",
                i.0, w.0
            ),
        }
    }
}

impl Error for WellformedError {}
