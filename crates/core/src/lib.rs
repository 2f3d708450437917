//! `transform-core` — the MTM vocabulary and axiom engine of TransForm.
//!
//! This crate implements the heart of *TransForm: Formally Specifying
//! Transistency Models and Synthesizing Enhanced Litmus Tests* (ISCA
//! 2020): an axiomatic vocabulary for **memory transistency models**
//! (MTMs) — memory consistency models extended with virtual-memory
//! behavior — and the machinery to evaluate a model's *transistency
//! predicate* against **candidate executions** of **enhanced litmus tests**
//! (ELTs).
//!
//! * [`ids`] / [`event`] — threads, VAs/PAs, PTE locations, and the three
//!   event strata (user-facing, OS support, hardware ghost).
//! * [`exec`] — candidate executions and [`exec::EltBuilder`].
//! * [`derive`](mod@derive) — placement-rule validation and every derived relation of
//!   the paper's Table I (`po_loc`, `rf_ptw`, `rf_pa`, `co_pa`, `fr_pa`,
//!   `fr_va`, `remap`, `ptw_source`, …).
//! * [`rel`] — relations as bit matrices, one `u64` row per event.
//! * [`axiom`] — MTM specifications (`acyclic` / `irreflexive` / `empty`
//!   axioms over relational expressions) and verdicts.
//! * [`spec`] — a textual DSL for MTMs (the Alloy-equivalent surface
//!   syntax of this reproduction).
//! * [`figures`] — the paper's figure ELTs, reconstructed.
//! * [`vocab`] — Table I as introspectable data.
//! * [`pretty`] — figure-style rendering of executions.
//!
//! # Examples
//!
//! Check the paper's Fig. 10a (`ptwalk2`) against an invlpg-style axiom:
//!
//! ```
//! use transform_core::axiom::{Axiom, Mtm, RelExpr};
//! use transform_core::derive::BaseRel;
//! use transform_core::figures;
//!
//! let mut mtm = Mtm::new("invlpg_only");
//! mtm.add_axiom(
//!     "invlpg",
//!     Axiom::Acyclic(RelExpr::union_all([
//!         RelExpr::base(BaseRel::FrVa),
//!         RelExpr::base(BaseRel::Po).closure(),
//!         RelExpr::base(BaseRel::Remap),
//!     ])),
//! );
//! let verdict = mtm.permits(&figures::fig10a_ptwalk2());
//! assert!(verdict.violates("invlpg"));
//! ```

pub mod axiom;
pub mod derive;
pub mod event;
pub mod exec;
pub mod figures;
pub mod ids;
pub mod pretty;
pub mod rel;
pub mod spec;
pub mod vocab;
pub mod wellformed;

pub use axiom::{Axiom, Mtm, RelExpr, Verdict};
pub use derive::{Analysis, BaseRel};
pub use event::{Event, EventKind};
pub use exec::{EltBuilder, Execution, PairSet};
pub use ids::{EventId, Location, Mapping, Pa, ThreadId, Va};
pub use wellformed::WellformedError;
