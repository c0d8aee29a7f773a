//! # `lps` — Logic Programming with Sets
//!
//! An executable, tested reproduction of **G. M. Kuper, “Logic
//! Programming with Sets”** (PODS 1987; JCSS 41, 1990): Horn-clause
//! logic programming extended with finite set values and *restricted
//! universal quantifiers* `(∀x ∈ X)`, evaluated bottom-up to the least
//! model the paper's Theorems 3/5 guarantee.
//!
//! ```
//! use lps::{Database, Dialect, Value};
//!
//! let mut db = Database::new(Dialect::Lps);
//! db.load_str(
//!     "
//!     % Example 1 of the paper: disjointness, declaratively.
//!     pair({a, b}, {c}). pair({a, b}, {b, c}).
//!     disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.
//!     ",
//! ).unwrap();
//! let model = db.evaluate().unwrap();
//! let ab = Value::set([Value::atom("a"), Value::atom("b")]);
//! let c = Value::set([Value::atom("c")]);
//! let bc = Value::set([Value::atom("b"), Value::atom("c")]);
//! assert!(model.holds("disj", &[ab.clone(), c]));
//! assert!(!model.holds("disj", &[ab, bc]));
//! ```
//!
//! ## Workspace layout
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`term`] (`lps-term`) | hash-consed ground terms, canonical sets, set algebra |
//! | [`syntax`] (`lps-syntax`) | the surface language: lexer, parser, pretty-printer |
//! | [`engine`] (`lps-engine`) | bottom-up evaluation: relations, plans, naive/semi-naive fixpoint, stratification, builtins, LDL grouping |
//! | [`core`](mod@core) (`lps-core`) | the paper's language: dialects, sort checking, the Theorem-6 compiler, the Theorem-10/11 translations, §4.2 set construction |
//!
//! ## Dialects
//!
//! * [`Dialect::PureLps`] — Definition 5 exactly.
//! * [`Dialect::Lps`] — positive-formula bodies (compiled per Theorem 6).
//! * [`Dialect::Elps`] — arbitrarily nested sets (§5). The default.
//! * [`Dialect::StratifiedElps`] — adds stratified negation and LDL
//!   grouping heads (§4.2, §6).
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! the per-theorem experiment index.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use lps_core as core;
pub use lps_engine as engine;
pub use lps_syntax as syntax;
pub use lps_term as term;

pub use lps_core::{CoreError, Database, Dialect, Model, QueryAnswers, QueryAnswersRef, Value};
pub use lps_engine::{EvalConfig, EvalStats, FixpointStrategy, QueryPath, SetUniverse};

/// Everything needed for typical use: `use lps::prelude::*;`.
pub mod prelude {
    pub use crate::core::equiv::{assert_equivalent, compare_on};
    pub use crate::core::transform::magic::compile_query;
    pub use crate::core::transform::positive::{compile_positive_paper, normalize_program};
    pub use crate::core::transform::setof::{setof_clauses, setof_database};
    pub use crate::core::transform::translations::{
        elps_to_horn_scons, elps_to_horn_union, grouping_to_elps, horn_scons_to_elps,
        horn_union_to_elps, union_via_grouping,
    };
    pub use crate::{
        CoreError, Database, Dialect, EvalConfig, EvalStats, FixpointStrategy, Model, QueryAnswers,
        QueryPath, SetUniverse, Value,
    };
}
