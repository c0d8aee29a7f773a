//! # `lps-engine` — bottom-up Datalog-with-sets evaluation substrate
//!
//! This crate is the executable semantics layer for Kuper's *Logic
//! Programming with Sets* (PODS 1987): a bottom-up Datalog engine whose
//! values include canonical finite sets, and whose rules may carry the
//! paper's *restricted universal quantifiers* `(∀x ∈ X)`
//! (Definition 4/5), stratified negation (§4.2), and LDL grouping
//! heads (Definition 14, used in the §6 comparisons).
//!
//! The engine evaluates the paper's `T_P` operator (Theorem 5) by
//! naive or semi-naive iteration, per stratum. Rules arrive as the
//! [`rule::Rule`] IR — `lps-core` lowers surface programs into it.
//!
//! Layering:
//!
//! * [`pattern`] — terms with variables, matching, environments;
//! * [`rule`] — the rule IR and the builtin vocabulary;
//! * [`relation`] — tuple storage with on-demand indexes;
//! * [`builtin`] — mode-driven builtin evaluation;
//! * [`plan`] — safety analysis, join ordering, index selection;
//! * [`stats`] — per-predicate cardinality statistics feeding the
//!   cost-based join ordering and SIPS selection (E16);
//! * [`strata`] — stratification (Tarjan SCC);
//! * [`magic`] — the demand (magic-set) rewrite behind
//!   [`Engine::query`];
//! * [`eval`] / [`fixpoint`] — the executor and the drivers;
//! * [`engine`] — the public [`Engine`] session;
//! * [`snapshot`] — epoch-published immutable snapshots for
//!   single-writer / many-reader query serving (E17).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod builtin;
pub mod config;
pub mod engine;
pub mod error;
pub mod eval;
pub mod fixpoint;
pub mod magic;
pub mod pattern;
pub mod plan;
pub mod pred;
pub mod relation;
pub mod rule;
pub mod snapshot;
pub mod stats;
pub mod strata;

pub use batch::{BatchPred, FactBatch};
pub use config::{EvalConfig, EvalStats, FixpointStrategy, SetUniverse};
pub use engine::{Engine, EngineState, QueryPath, QueryResult, RowSet, Rows};
pub use error::EngineError;
pub use magic::{adornment_of, adornment_string, Adornment, SipsCost};
pub use pred::{PredId, PredRegistry};
pub use relation::{Relation, MAX_ARITY};
pub use rule::{BodyLit, Builtin, GroupSpec, QuantGroup, Rule};
pub use snapshot::{EngineSnapshot, SnapshotPublisher, SnapshotReader};
pub use stats::{Stats, StatsCache};
