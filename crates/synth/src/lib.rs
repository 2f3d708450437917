//! `transform-synth` — bounded synthesis of enhanced litmus tests.
//!
//! This crate implements §IV of the TransForm paper: given a formally
//! specified MTM and an instruction bound, it synthesizes the *spanning
//! set* of ELT programs — every unique, minimal program (ghosts counted in
//! the bound) with a candidate execution whose outcome violates a targeted
//! axiom.
//!
//! The pipeline mirrors the paper's Fig. 7:
//!
//! 1. **Candidate execution synthesis** — [`programs`] enumerates the
//!    program space under the placement rules, split by root shape into
//!    the partitions of an [`EnumSpace`]; [`execs`] (explicit
//!    operational backend) or [`satgen`] (relational model finding over
//!    the `relational`/`tsat` substrate, the architecture of the paper's
//!    Alloy/Kodkod/MiniSat stack) enumerates communication choices.
//! 2. **Spanning-set pruning** — interestingness (a write exists; the
//!    target axiom is violated) and the minimality criterion under the
//!    relaxation rules of [`relax`].
//! 3. **Deduplication** — canonical program forms in [`canon`].
//!
//! # Examples
//!
//! Synthesize the `invlpg` suite at the paper's minimum bound:
//!
//! ```
//! use transform_core::spec::parse_mtm;
//! use transform_synth::engine::{synthesize_suite, SynthOptions};
//!
//! let mtm = parse_mtm(
//!     "mtm x86t_elt {
//!        axiom sc_per_loc:    acyclic(rf | co | fr | po_loc)
//!        axiom invlpg:        acyclic(fr_va | ^po | remap)
//!      }",
//! ).expect("spec parses");
//! let mut opts = SynthOptions::new(4);
//! opts.enumeration.allow_fences = false;
//! opts.enumeration.allow_rmw = false;
//! let suite = synthesize_suite(&mtm, "invlpg", &opts);
//! assert!(!suite.elts.is_empty());
//! ```

pub mod canon;
pub mod engine;
pub mod execs;
pub mod minimal;
pub mod programs;
pub mod relax;
pub mod satgen;

pub use engine::{
    assemble_suite, branches_co_pa, exclusive_attribution, plan_from_keyed, plan_key, plan_suite,
    suite_contains, synthesize_all, synthesize_suite, unique_union, Backend, Examined, Examiner,
    ShardStats, Suite, SuiteRecord, SuiteStats, SynthOptions, SynthPlan, SynthesizedElt, WorkItem,
};
pub use programs::{EnumOptions, EnumSpace, KeyedProgram, PaRef, PartitionPlan, Program, SlotOp};
pub use relax::Relaxation;
