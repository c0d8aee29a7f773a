//! # `lps-term` — ground-term substrate for LPS/ELPS
//!
//! This crate implements the value model of Kuper's *Logic Programming
//! with Sets* (PODS 1987 / JCSS 1990):
//!
//! * **atoms** — constants, 64-bit integers, and applications of
//!   uninterpreted function symbols `f(t₁, …, tₖ)` (Definition 2 of the
//!   paper; function symbols always produce sort *a*),
//! * **sets** — finite sets of ground terms. In LPS proper (§2) the
//!   elements must be atoms; in ELPS (§5) sets nest arbitrarily. The
//!   store supports full ELPS nesting, and the `lps-core` sort checker
//!   enforces the LPS restriction when requested.
//!
//! All ground terms are **hash-consed** in a [`TermStore`]: each distinct
//! term receives a [`TermId`] and set payloads are stored sorted and
//! deduplicated, so the paper's extensional set equality `=ˢ`
//! (Definition 3) coincides with `TermId` equality and costs O(1).
//! Each key is stored once, in a flat arena: a term as one fixed-size
//! entry whose arguments or elements sit in the store's element arena,
//! a name in the [`SymbolTable`]'s one string. One table, [`IdTable`],
//! finds both by comparing in place; the engine's relations dedup
//! their rows and index their columns with it too.
//!
//! The store only appends, and [`TermStore::rollback`] only truncates:
//! it keeps no index from an element to the sets that hold it. The
//! engine's semi-naive `(∀x ∈ X)` trigger (experiment E9 in
//! `EXPERIMENTS.md`) marks each round's new terms in a bitset of its
//! own and reads a domain's elements in place.
//!
//! ```
//! use lps_term::{TermStore, Value};
//!
//! let mut store = TermStore::new();
//! let a = store.atom("a");
//! let b = store.atom("b");
//! // {a, b} and {b, a, b} intern to the same canonical set.
//! let s1 = store.set(vec![a, b]);
//! let s2 = store.set(vec![b, a, b]);
//! assert_eq!(s1, s2);
//! assert_eq!(store.display(s1).to_string(), "{a, b}");
//! assert_eq!(Value::from_store(&store, s1),
//!            Value::set([Value::atom("a"), Value::atom("b")]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fxhash;
pub mod setops;
pub mod store;
pub mod symbol;
pub mod table;
pub mod value;

mod display;

pub use display::DisplayTerm;
pub use fxhash::fx_fold;
pub use store::{canonicalize, StoreMark, StoreStats, TermData, TermId, TermNode, TermStore};
pub use symbol::{Symbol, SymbolTable};
pub use table::IdTable;
pub use value::{Sort, Value};

/// A convenient alias for hash maps keyed by small integer-like ids.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, fxhash::FxBuildHasher>;
/// A convenient alias for hash sets of small integer-like ids.
pub type FxHashSet<K> = std::collections::HashSet<K, fxhash::FxBuildHasher>;
