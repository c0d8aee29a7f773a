//! # `lps-core` — the LPS/ELPS language of Kuper (PODS 1987)
//!
//! This crate is the paper's contribution made executable:
//!
//! * the **two-sorted logic** of §2.1 ([`sorts`]) and the clause
//!   well-formedness rules of Definition 5 ([`validate`]), organized
//!   into the paper's [`Dialect`]s (pure LPS → LPS → ELPS →
//!   stratified ELPS);
//! * the **Theorem-6 compiler** ([`transform::positive`]) taking
//!   arbitrary positive-formula bodies to pure LPS, in both the
//!   paper's literal construction and an optimized normalizer;
//! * the **Theorem-10/11 translations** ([`transform::translations`])
//!   between ELPS, Horn+`union`, Horn+`scons`, and LDL grouping, with
//!   the [`equiv`] harness that checks them the way §6 defines
//!   equivalence (agreement on common predicates);
//! * the **§4.2 set construction** via stratified negation
//!   ([`transform::setof`]) — the counterpoint to Theorem 8's
//!   impossibility result;
//! * a high-level [`Database`] API: load programs in the surface
//!   syntax, evaluate to the least (stratified-perfect) model, query
//!   with owned [`Value`]s.
//!
//! ```
//! use lps_core::{Database, Dialect, Value};
//!
//! let mut db = Database::new(Dialect::Lps);
//! db.load_str(
//!     "pair({a, b}, {c}). pair({a}, {a, b}).
//!      disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.",
//! ).unwrap();
//! let model = db.evaluate().unwrap();
//! let ab = Value::set([Value::atom("a"), Value::atom("b")]);
//! let c = Value::set([Value::atom("c")]);
//! assert!(model.holds("disj", &[ab, c]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod database;
pub mod dialect;
pub mod equiv;
pub mod error;
mod facts;
pub mod fresh;
pub mod lower;
pub mod serve;
pub mod sorts;
pub mod transform;
pub mod validate;

pub use database::{Database, DatabaseMark, Model};
pub use dialect::Dialect;
pub use error::CoreError;
pub use lps_engine::QueryPath;
pub use lps_term::Value;
pub use serve::{Client, Server};
pub use transform::magic::{classify_goal, Goal, QueryAnswers, QueryAnswersRef};
