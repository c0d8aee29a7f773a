//! The hash-consing term store.
//!
//! A [`TermStore`] owns every ground term that exists in a program run:
//! constants, integers, function applications, and finite sets. Each
//! distinct term is stored once and identified by a [`TermId`]. Set
//! payloads are canonicalized (sorted by `TermId`, deduplicated) before
//! interning, so two sets are extensionally equal — the paper's `=ˢ` of
//! Definition 3 — if and only if their `TermId`s are equal.
//!
//! Storage is flat: one fixed-size entry per term, and the arguments of
//! every application and the elements of every set back to back in one
//! element arena. The store's [`IdTable`] finds a term by comparing it
//! in place, so each term is held exactly once. Every application or
//! set is interned one way: its payload is written at the arena's tail
//! and probed for, and the tail is kept if the term is new or cut off
//! if the store already holds it. [`TermStore::find`] probes the same
//! table read-only.
//!
//! This is the executable counterpart of the paper's Herbrand universe
//! (Definition 7 for LPS, Definition 13 for ELPS): `Uᵃ` is the atoms the
//! program can mention, and `Uˢ` is materialized lazily as evaluation
//! constructs sets.

use std::ops::Range;

use crate::fxhash::fx_fold;
use crate::symbol::{Symbol, SymbolTable};
use crate::table::IdTable;

/// Identifier of an interned ground term. Ordering is interning order,
/// which is stable within a store and used as the canonical element
/// order inside set payloads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TermId(u32);

impl TermId {
    /// Raw index into the store.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shape of an interned term, borrowed from its store
/// ([`TermStore::data`]), or of a term to look up
/// ([`TermStore::find`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TermData<'a> {
    /// A named constant of sort *a* (`c_i` in Definition 1).
    Atom(Symbol),
    /// An integer constant of sort *a*. The paper treats arithmetic as
    /// ambient (`m + n = k` in Example 5); integers are ordinary atoms
    /// with builtin predicates defined on them.
    Int(i64),
    /// Application of an uninterpreted function symbol; sort *a*
    /// (Definition 2 case 3; Example 8 explains why functions never
    /// *return* sets).
    App(Symbol, &'a [TermId]),
    /// A finite set `{t₁, …, tₙ}` — the `{ₙ` constructors of
    /// Definition 1. Payload is sorted by `TermId` and deduplicated.
    Set(&'a [TermId]),
}

impl TermData<'_> {
    /// The hash the store files the term under: the low half of its Fx
    /// hash, whose low bits the table places it by.
    #[inline]
    fn hash(self) -> u32 {
        let fold = |h, ids: &[TermId]| ids.iter().fold(h, |h, id| fx_fold(h, u64::from(id.0)));
        let hash = match self {
            TermData::Atom(s) => fx_fold(0, s.index() as u64),
            TermData::Int(v) => fx_fold(1, v as u64),
            TermData::App(f, args) => fold(fx_fold(2, f.index() as u64), args),
            TermData::Set(elems) => fold(3, elems),
        };
        hash as u32
    }
}

/// A stored term: its shape, with an application's arguments or a
/// set's elements as a `(start, len)` span of the element arena.
#[derive(Clone, Copy, Debug)]
enum Entry {
    Atom(Symbol),
    Int(i64),
    App(Symbol, (u32, u32)),
    Set((u32, u32)),
}

impl Entry {
    #[inline]
    fn view(self, elems: &[TermId]) -> TermData<'_> {
        let span = |(start, len): (u32, u32)| &elems[start as usize..(start + len) as usize];
        match self {
            Entry::Atom(s) => TermData::Atom(s),
            Entry::Int(v) => TermData::Int(v),
            Entry::App(f, s) => TermData::App(f, span(s)),
            Entry::Set(s) => TermData::Set(span(s)),
        }
    }
}

/// Whether a set payload is sorted and free of duplicates.
fn canonical(elems: &[TermId]) -> bool {
    elems.windows(2).all(|w| w[0] < w[1])
}

/// Canonicalize a set payload in place: sort `elems` and move its
/// distinct values to the front, returning them.
pub fn canonicalize(elems: &mut [TermId]) -> &[TermId] {
    elems.sort_unstable();
    let mut len = 0;
    for i in 0..elems.len() {
        if len == 0 || elems[i] != elems[len - 1] {
            elems[len] = elems[i];
            len += 1;
        }
    }
    &elems[..len]
}

/// One node of a ground term written in prefix order: an application
/// or a set is followed by its arguments or elements. Names are
/// borrowed, so a parser can hand a term to a store without owning it
/// ([`TermStore::intern_nodes`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermNode<'a> {
    /// A named constant.
    Atom(&'a str),
    /// An integer constant.
    Int(i64),
    /// `f(…)` with this many arguments.
    App(&'a str, usize),
    /// A set literal with this many elements (duplicates included).
    Set(usize),
}

/// A point a [`TermStore`] can be rolled back to
/// ([`TermStore::rollback`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreMark {
    terms: usize,
    elems: usize,
    symbols: usize,
}

/// Counters describing store contents, used by benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total interned terms.
    pub terms: usize,
    /// Interned named constants.
    pub atoms: usize,
    /// Interned integers.
    pub ints: usize,
    /// Interned function applications.
    pub apps: usize,
    /// Interned sets.
    pub sets: usize,
    /// Total elements across all interned set payloads.
    pub set_elements: usize,
}

/// Hash-consing store for ground terms: append-only, except that
/// [`TermStore::rollback`] can undo the latest additions.
#[derive(Default, Debug, Clone)]
pub struct TermStore {
    symbols: SymbolTable,
    /// One entry per term, indexed by `TermId`.
    terms: Vec<Entry>,
    /// Application arguments and set elements, back to back.
    elems: Vec<TermId>,
    /// Finds a term's id from its shape.
    table: IdTable,
    /// The low half of each term's hash, by `TermId`: a probe compares
    /// it before the term, so a mismatch rarely reads the term, and
    /// growth rehashes from it (the table places a key by its hash's
    /// low bits).
    hashes: Vec<u32>,
    /// All interned sets in interning order — the *active* sort-s
    /// universe that bounded enumeration modes range over.
    set_ids: Vec<TermId>,
    empty_set: Option<TermId>,
}

impl TermStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the underlying symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table (for fresh-name generation).
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Intern the term `entry` stands for. An application's or a set's
    /// payload is the element arena's tail from its span's start on:
    /// kept if the term is new, cut off if the store already holds it.
    fn intern(&mut self, entry: Entry) -> TermId {
        let (terms, elems, hashes) = (&self.terms, &self.elems, &self.hashes);
        let key = entry.view(elems);
        let hash = key.hash();
        let found = self.table.find_or_insert(
            hash.into(),
            |id| hashes[id as usize] == hash && terms[id as usize].view(elems) == key,
            |id| hashes[id as usize].into(),
        );
        let id = match found {
            Ok(id) => {
                if let Entry::App(_, (start, _)) | Entry::Set((start, _)) = entry {
                    self.elems.truncate(start as usize);
                }
                return TermId(id);
            }
            Err(id) => TermId(id),
        };
        if let TermData::Set(members) = key {
            debug_assert!(canonical(members), "set not canonical");
            self.set_ids.push(id);
        }
        self.terms.push(entry);
        self.hashes.push(hash);
        id
    }

    /// Intern the application (`Some(f)`) or set whose payload `write`
    /// appends to the element arena.
    fn intern_with(&mut self, f: Option<Symbol>, write: impl FnOnce(&mut Vec<TermId>)) -> TermId {
        let start = self.elems.len();
        write(&mut self.elems);
        let end = u32::try_from(self.elems.len()).expect("term store overflow");
        let span = (start as u32, end - start as u32);
        self.intern(f.map_or(Entry::Set(span), |f| Entry::App(f, span)))
    }

    /// Intern a named constant.
    pub fn atom(&mut self, name: &str) -> TermId {
        let sym = self.symbols.intern(name);
        self.intern(Entry::Atom(sym))
    }

    /// Intern a named constant from an already-interned symbol.
    pub fn atom_sym(&mut self, sym: Symbol) -> TermId {
        self.intern(Entry::Atom(sym))
    }

    /// Intern an integer constant.
    pub fn int(&mut self, value: i64) -> TermId {
        self.intern(Entry::Int(value))
    }

    /// Intern a function application `f(args…)`.
    pub fn app(&mut self, f: &str, args: Vec<TermId>) -> TermId {
        let sym = self.symbols.intern(f);
        self.app_slice(sym, &args)
    }

    /// Intern a function application from an interned function symbol.
    pub fn app_sym(&mut self, f: Symbol, args: Vec<TermId>) -> TermId {
        self.app_slice(f, &args)
    }

    /// Intern a finite set, canonicalizing the element list (sort +
    /// dedup). `{b, a, b}` and `{a, b}` produce the same id.
    pub fn set(&mut self, mut elems: Vec<TermId>) -> TermId {
        self.set_canonical_slice(canonicalize(&mut elems))
    }

    /// Intern a set from an element list already known to be sorted and
    /// deduplicated. Used by the set-algebra kernels in [`crate::setops`]
    /// which produce canonical output directly; `debug_assert`s guard
    /// the contract.
    pub fn set_canonical(&mut self, elems: Vec<TermId>) -> TermId {
        self.set_canonical_slice(&elems)
    }

    /// Intern an application from a borrowed argument list.
    pub fn app_slice(&mut self, f: Symbol, args: &[TermId]) -> TermId {
        self.intern_with(Some(f), |arena| arena.extend_from_slice(args))
    }

    /// Intern a set from a borrowed element list already sorted and
    /// deduplicated.
    pub fn set_canonical_slice(&mut self, elems: &[TermId]) -> TermId {
        debug_assert!(canonical(elems));
        self.intern_with(None, |arena| arena.extend_from_slice(elems))
    }

    /// Intern the set whose canonical payload `write` appends to the
    /// element arena, given the range of the arena that `set`'s own
    /// payload occupies: a set derived from `set` is copied within the
    /// arena, with no buffer of its own.
    ///
    /// # Panics
    /// Panics if `set` is not a set.
    pub(crate) fn set_from(
        &mut self,
        set: TermId,
        write: impl FnOnce(&mut Vec<TermId>, Range<usize>),
    ) -> TermId {
        let Entry::Set((start, len)) = self.terms[set.index()] else {
            panic!("set_from: not a set");
        };
        let range = start as usize..(start + len) as usize;
        self.intern_with(None, |arena| write(arena, range))
    }

    /// Intern the term whose prefix-order nodes `nodes` yields,
    /// consuming exactly those. `stack` holds the arguments of the
    /// applications and sets under construction, so a term the store
    /// already holds costs no allocation.
    pub fn intern_nodes<'a>(
        &mut self,
        nodes: &mut impl Iterator<Item = TermNode<'a>>,
        stack: &mut Vec<TermId>,
    ) -> TermId {
        let node = nodes.next().expect("a complete term");
        let n = match node {
            TermNode::Atom(a) => return self.atom(a),
            TermNode::Int(i) => return self.int(i),
            TermNode::App(_, n) | TermNode::Set(n) => n,
        };
        let base = stack.len();
        for _ in 0..n {
            let id = self.intern_nodes(nodes, stack);
            stack.push(id);
        }
        let id = if let TermNode::App(f, _) = node {
            let f = self.symbols.intern(f);
            self.app_slice(f, &stack[base..])
        } else {
            self.set_canonical_slice(canonicalize(&mut stack[base..]))
        };
        stack.truncate(base);
        id
    }

    /// The current extent of the store, to [`TermStore::rollback`] to.
    pub fn mark(&self) -> StoreMark {
        StoreMark {
            terms: self.terms.len(),
            elems: self.elems.len(),
            symbols: self.symbols.len(),
        }
    }

    /// Forget every term and symbol interned since `mark` — the undo
    /// of a load that failed partway. Ids handed out since the mark
    /// become invalid; nothing else may hold them.
    pub fn rollback(&mut self, mark: StoreMark) {
        let hashes = &self.hashes;
        self.table
            .truncate(mark.terms, |id| hashes[id as usize].into());
        let sets = self.set_ids.partition_point(|id| id.index() < mark.terms);
        self.set_ids.truncate(sets);
        self.empty_set = self.empty_set.filter(|id| id.index() < mark.terms);
        self.terms.truncate(mark.terms);
        self.hashes.truncate(mark.terms);
        self.elems.truncate(mark.elems);
        self.symbols.truncate(mark.symbols);
    }

    /// The empty set `∅` (the `{₀` constructor).
    pub fn empty_set(&mut self) -> TermId {
        if let Some(id) = self.empty_set {
            return id;
        }
        let id = self.set(Vec::new());
        self.empty_set = Some(id);
        id
    }

    /// The shape of an interned term, borrowed from the store.
    ///
    /// # Panics
    /// Panics if `id` is from a different store.
    #[inline]
    pub fn data(&self, id: TermId) -> TermData<'_> {
        self.terms[id.index()].view(&self.elems)
    }

    /// Whether `id` is of sort *s* (a set).
    #[inline]
    pub fn is_set(&self, id: TermId) -> bool {
        matches!(self.terms[id.index()], Entry::Set(_))
    }

    /// Whether `id` is of sort *a* (an atom in the two-sorted logic:
    /// named constant, integer, or function application).
    #[inline]
    pub fn is_atomic(&self, id: TermId) -> bool {
        !self.is_set(id)
    }

    /// The canonical (sorted) element slice of a set, or `None` for
    /// atoms.
    #[inline]
    pub fn set_elems(&self, id: TermId) -> Option<&[TermId]> {
        match self.data(id) {
            TermData::Set(elems) => Some(elems),
            _ => None,
        }
    }

    /// Cardinality of a set term.
    pub fn card(&self, id: TermId) -> Option<usize> {
        self.set_elems(id).map(<[TermId]>::len)
    }

    /// All interned sets, in interning order — the *active* fragment of
    /// the Herbrand sort-s universe. Bounded builtin enumeration modes
    /// (`X in`-free positions, `subseteq` with a free side, Theorem-10
    /// translated programs) range over this list.
    pub fn set_ids(&self) -> &[TermId] {
        &self.set_ids
    }

    /// Look up the term `key` describes without interning it: `None`
    /// means no term of this program run is that term, so a query for
    /// it can only have an empty answer. A set's elements must be
    /// canonical. Read-only — usable against a shared snapshot of the
    /// store.
    pub fn find(&self, key: TermData<'_>) -> Option<TermId> {
        debug_assert!(!matches!(key, TermData::Set(elems) if !canonical(elems)));
        let (terms, elems, hashes) = (&self.terms, &self.elems, &self.hashes);
        let hash = key.hash();
        let eq = |id| hashes[id as usize] == hash && terms[id as usize].view(elems) == key;
        self.table.find(hash.into(), eq).map(TermId)
    }

    /// Look up an already-interned named constant without interning
    /// (see [`TermStore::find`]).
    pub fn find_atom(&self, name: &str) -> Option<TermId> {
        self.find(TermData::Atom(self.symbols.get(name)?))
    }

    /// Look up an already-interned integer without interning (see
    /// [`TermStore::find`]).
    pub fn find_int(&self, value: i64) -> Option<TermId> {
        self.find(TermData::Int(value))
    }

    /// Look up an already-interned set by element list without
    /// interning (see [`TermStore::find`]). A list that is not
    /// canonical is sorted and deduplicated in a copy first.
    pub fn find_set(&self, elems: &[TermId]) -> Option<TermId> {
        if canonical(elems) {
            return self.find(TermData::Set(elems));
        }
        self.find(TermData::Set(canonicalize(&mut elems.to_vec())))
    }

    /// Look up an already-interned application `f(args…)` without
    /// interning (see [`TermStore::find`]).
    pub fn find_app(&self, f: &str, args: &[TermId]) -> Option<TermId> {
        self.find(TermData::App(self.symbols.get(f)?, args))
    }

    /// The integer payload of `id` if it is an `Int` atom.
    pub fn as_int(&self, id: TermId) -> Option<i64> {
        match self.data(id) {
            TermData::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Nesting depth of a term: atoms have depth 0, a set's depth is one
    /// more than the maximum depth of its elements (`∅` has depth 1).
    /// LPS proper admits only terms of depth ≤ 1 (§2.1); ELPS admits
    /// any finite depth (§5).
    pub fn depth(&self, id: TermId) -> usize {
        match self.data(id) {
            TermData::Set(elems) => {
                1 + elems
                    .iter()
                    .map(|&e| self.depth(e))
                    .max()
                    .unwrap_or_default()
            }
            TermData::App(_, args) => args.iter().map(|&a| self.depth(a)).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the store holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterate over all interned term ids in interning order.
    pub fn ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.terms.len() as u32).map(TermId)
    }

    /// Summary statistics, used by benches to report universe sizes.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            terms: self.terms.len(),
            ..StoreStats::default()
        };
        for t in &self.terms {
            match t {
                Entry::Atom(_) => stats.atoms += 1,
                Entry::Int(_) => stats.ints += 1,
                Entry::App(..) => stats.apps += 1,
                Entry::Set((_, len)) => {
                    stats.sets += 1;
                    stats.set_elements += *len as usize;
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atoms_are_hash_consed() {
        let mut s = TermStore::new();
        assert_eq!(s.atom("a"), s.atom("a"));
        assert_ne!(s.atom("a"), s.atom("b"));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ints_are_hash_consed() {
        let mut s = TermStore::new();
        assert_eq!(s.int(7), s.int(7));
        assert_ne!(s.int(7), s.int(-7));
    }

    #[test]
    fn apps_compare_structurally() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let b = s.atom("b");
        let f_ab1 = s.app("f", vec![a, b]);
        let f_ab2 = s.app("f", vec![a, b]);
        let f_ba = s.app("f", vec![b, a]);
        let g_ab = s.app("g", vec![a, b]);
        assert_eq!(f_ab1, f_ab2);
        assert_ne!(f_ab1, f_ba, "argument order matters for functions");
        assert_ne!(f_ab1, g_ab);
    }

    #[test]
    fn sets_canonicalize_order_and_duplicates() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let b = s.atom("b");
        let c = s.atom("c");
        let s1 = s.set(vec![c, a, b]);
        let s2 = s.set(vec![a, b, c, b, a]);
        assert_eq!(s1, s2);
        assert_eq!(s.card(s1), Some(3));
    }

    #[test]
    fn empty_set_is_unique_and_cached() {
        let mut s = TermStore::new();
        let e1 = s.empty_set();
        let e2 = s.set(vec![]);
        assert_eq!(e1, e2);
        assert_eq!(s.card(e1), Some(0));
    }

    #[test]
    fn singleton_set_differs_from_element() {
        // {a} ≠ a: sort s vs sort a (the paper's two-sorted logic).
        let mut s = TermStore::new();
        let a = s.atom("a");
        let sa = s.set(vec![a]);
        assert_ne!(a, sa);
        assert!(s.is_atomic(a));
        assert!(s.is_set(sa));
    }

    #[test]
    fn nested_sets_intern_extensionally() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let b = s.atom("b");
        let inner1 = s.set(vec![a, b]);
        let inner2 = s.set(vec![b, a]);
        let outer1 = s.set(vec![inner1]);
        let outer2 = s.set(vec![inner2]);
        assert_eq!(outer1, outer2, "{{a,b}} == {{b,a}} extensionally");
        assert_eq!(s.depth(outer1), 2);
    }

    #[test]
    fn depth_reflects_nesting() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        assert_eq!(s.depth(a), 0);
        let s1 = s.set(vec![a]);
        assert_eq!(s.depth(s1), 1);
        let s2 = s.set(vec![s1, a]);
        assert_eq!(s.depth(s2), 2);
        let e = s.empty_set();
        assert_eq!(s.depth(e), 1);
    }

    #[test]
    fn set_ids_track_interned_sets_without_duplicates() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        assert!(s.set_ids().is_empty());
        let s1 = s.set(vec![a]);
        let e = s.empty_set();
        let s1_again = s.set(vec![a]);
        assert_eq!(s1_again, s1);
        assert_eq!(s.set_ids(), &[s1, e]);
    }

    #[test]
    fn find_is_read_only_and_agrees_with_intern() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let i = s.int(42);
        let b = s.atom("b");
        let ab = s.set(vec![a, b]);
        let before = s.len();
        assert_eq!(s.find_atom("a"), Some(a));
        assert_eq!(s.find_atom("zzz"), None);
        assert_eq!(s.find_int(42), Some(i));
        assert_eq!(s.find_int(43), None);
        // Non-canonical element order still finds the interned set.
        assert_eq!(s.find_set(&[b, a, b]), Some(ab));
        assert_eq!(s.find_set(&[a]), None);
        assert_eq!(s.len(), before, "find must not intern");
    }

    #[test]
    fn slice_interning_agrees_with_owned_interning() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let b = s.atom("b");
        let ab = s.set(vec![b, a]);
        let f = s.symbols_mut().intern("f");
        let fab = s.app("f", vec![a, b]);
        let before = s.len();
        assert_eq!(s.set_canonical_slice(&[a, b]), ab);
        assert_eq!(s.app_slice(f, &[a, b]), fab);
        assert_eq!(s.len(), before, "existing terms are found, not re-added");
        let ba = s.app_slice(f, &[b, a]);
        assert_eq!(s.app("f", vec![b, a]), ba);
        let just_b = s.set_canonical_slice(&[b]);
        assert_eq!(s.set(vec![b, b]), just_b);
    }

    #[test]
    fn prefix_nodes_intern_like_owned_values() {
        use crate::Value;
        let v = Value::app(
            "f",
            [
                Value::set([Value::atom("a"), Value::int(-2)]),
                Value::set([Value::empty_set(), Value::set([Value::atom("a")])]),
            ],
        );
        let mut nodes = Vec::new();
        v.write_nodes(&mut |n| nodes.push(n));
        assert_eq!(nodes[0], TermNode::App("f", 2));
        let mut s = TermStore::new();
        let mut stack = Vec::new();
        let id = s.intern_nodes(&mut nodes.iter().copied(), &mut stack);
        assert!(stack.is_empty());
        assert_eq!(Value::from_store(&s, id), v);
        assert_eq!(v.intern(&mut s), id);
        // Duplicate elements collapse, in any order.
        let dup = [
            TermNode::Set(3),
            TermNode::Int(1),
            TermNode::Int(0),
            TermNode::Int(1),
        ];
        let id = s.intern_nodes(&mut dup.iter().copied(), &mut stack);
        assert_eq!(
            Value::from_store(&s, id),
            Value::set([Value::int(0), Value::int(1)])
        );
    }

    #[test]
    fn rollback_forgets_everything_since_the_mark() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let sa = s.set(vec![a]);
        let mark = s.mark();
        let b = s.atom("b");
        let sab = s.set(vec![a, b]);
        let e = s.empty_set();
        s.app("g", vec![sab]);
        s.int(7);
        s.rollback(mark);
        assert_eq!(s.mark(), mark);
        assert_eq!(s.find_atom("b"), None);
        assert_eq!(s.symbols().get("g"), None);
        assert_eq!(s.find_int(7), None);
        assert_eq!(s.set_ids(), &[sa]);
        // Re-interning after the rollback reuses the freed ids.
        assert_eq!(s.atom("b"), b);
        assert_eq!(s.set(vec![b, a]), sab);
        assert_eq!(s.empty_set(), e);
        assert_eq!(s.set_ids(), &[sa, sab, e]);
    }

    #[test]
    fn stats_count_shapes() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let i = s.int(3);
        s.app("f", vec![a, i]);
        s.set(vec![a, i]);
        let st = s.stats();
        assert_eq!(st.terms, 4);
        assert_eq!(st.atoms, 1);
        assert_eq!(st.ints, 1);
        assert_eq!(st.apps, 1);
        assert_eq!(st.sets, 1);
        assert_eq!(st.set_elements, 2);
    }

    #[test]
    fn functions_may_take_set_arguments_in_elps() {
        // ELPS (§5) is untyped; only the *range* of function symbols is
        // restricted to atoms. f({a}) is a legal atom-sorted term.
        let mut s = TermStore::new();
        let a = s.atom("a");
        let sa = s.set(vec![a]);
        let fa = s.app("f", vec![sa]);
        assert!(s.is_atomic(fa));
        assert_eq!(s.depth(fa), 1);
    }
}
