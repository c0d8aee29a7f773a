//! Owned ground-term trees.
//!
//! [`Value`] is the store-independent representation of a ground term:
//! an ordinary Rust tree with a `BTreeSet` for set nodes. It exists for
//! the API boundary — building expected results in tests, extracting
//! query answers, serializing — while all *evaluation* happens on
//! interned [`TermId`]s. Conversions in both directions are provided.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};

use crate::store::{TermData, TermId, TermNode, TermStore};

/// The two sorts of the LPS logic (§2.1): `a` for individual objects
/// and `s` for sets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Sort {
    /// Individual objects: constants, integers, function applications.
    Atom,
    /// Finite sets.
    Set,
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Atom => f.write_str("a"),
            Sort::Set => f.write_str("s"),
        }
    }
}

/// An owned ground term (atom, integer, application, or finite set).
///
/// `Ord` is derived structurally, which makes `BTreeSet<Value>` a
/// canonical set representation: equality of `Value::Set`s is exactly
/// the extensional equality `=ˢ` of the paper.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Value {
    /// Named constant.
    Atom(String),
    /// Integer constant.
    Int(i64),
    /// Function application.
    App(String, Vec<Value>),
    /// Finite set (canonical by construction).
    Set(BTreeSet<Value>),
}

impl Value {
    /// Build a named constant.
    pub fn atom(name: impl Into<String>) -> Self {
        Value::Atom(name.into())
    }

    /// Build an integer constant.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Build a function application.
    pub fn app(f: impl Into<String>, args: impl IntoIterator<Item = Value>) -> Self {
        Value::App(f.into(), args.into_iter().collect())
    }

    /// Build a set from any iterator of values (duplicates collapse).
    pub fn set(elems: impl IntoIterator<Item = Value>) -> Self {
        Value::Set(elems.into_iter().collect())
    }

    /// The empty set.
    pub fn empty_set() -> Self {
        Value::Set(BTreeSet::new())
    }

    /// The sort of this term.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Set(_) => Sort::Set,
            _ => Sort::Atom,
        }
    }

    /// Nesting depth: atoms 0, sets 1 + max element depth.
    pub fn depth(&self) -> usize {
        match self {
            Value::Set(elems) => 1 + elems.iter().map(Value::depth).max().unwrap_or_default(),
            Value::App(_, args) => args.iter().map(Value::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Whether this term is legal in *LPS proper* (§2): sets contain
    /// only atoms (depth ≤ 1) and function arguments are atoms.
    pub fn is_lps(&self) -> bool {
        match self {
            Value::Atom(_) | Value::Int(_) => true,
            Value::App(_, args) => args.iter().all(|a| a.sort() == Sort::Atom && a.is_lps()),
            Value::Set(elems) => elems.iter().all(|e| e.sort() == Sort::Atom && e.is_lps()),
        }
    }

    /// Hand this value to `out` in prefix order, as
    /// [`TermStore::intern_nodes`] reads it.
    pub fn write_nodes<'a>(&'a self, out: &mut impl FnMut(TermNode<'a>)) {
        match self {
            Value::Atom(a) => out(TermNode::Atom(a)),
            Value::Int(i) => out(TermNode::Int(*i)),
            Value::App(f, args) => {
                out(TermNode::App(f, args.len()));
                args.iter().for_each(|a| a.write_nodes(out));
            }
            Value::Set(elems) => {
                out(TermNode::Set(elems.len()));
                elems.iter().for_each(|e| e.write_nodes(out));
            }
        }
    }

    /// Intern this value into `store`, returning its id.
    pub fn intern(&self, store: &mut TermStore) -> TermId {
        match self {
            Value::Atom(name) => store.atom(name),
            Value::Int(v) => store.int(*v),
            Value::App(f, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| a.intern(store)).collect();
                store.app(f, ids)
            }
            Value::Set(elems) => {
                let ids: Vec<TermId> = elems.iter().map(|e| e.intern(store)).collect();
                store.set(ids)
            }
        }
    }

    /// This value's id in `store` if it is already interned, without
    /// interning anything: `None` means the store has never seen it,
    /// so no relation over `store` can hold it. Read-only — usable
    /// against a shared snapshot of the store.
    pub fn find(&self, store: &TermStore) -> Option<TermId> {
        match self {
            Value::Atom(name) => store.find_atom(name),
            Value::Int(v) => store.find_int(*v),
            Value::App(f, args) => {
                let ids: Vec<_> = args.iter().map(|a| a.find(store)).collect::<Option<_>>()?;
                store.find_app(f, &ids)
            }
            Value::Set(elems) => {
                let ids: Vec<_> = elems.iter().map(|e| e.find(store)).collect::<Option<_>>()?;
                store.find_set(&ids)
            }
        }
    }

    /// Reconstruct the owned tree for an interned term.
    pub fn from_store(store: &TermStore, id: TermId) -> Self {
        match store.data(id) {
            TermData::Atom(sym) => Value::Atom(store.symbols().name(sym).to_owned()),
            TermData::Int(v) => Value::Int(v),
            TermData::App(f, args) => Value::App(
                store.symbols().name(f).to_owned(),
                args.iter().map(|&a| Value::from_store(store, a)).collect(),
            ),
            TermData::Set(elems) => {
                Value::Set(elems.iter().map(|&e| Value::from_store(store, e)).collect())
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Atom(name) => f.write_str(name),
            Value::Int(v) => write!(f, "{v}"),
            Value::App(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Value::Set(elems) => {
                f.write_str("{")?;
                for (i, e) in elems.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Id-level mirrors of [`Value`]'s `Ord` and `Display`: they order and
/// print interned terms exactly as their lifted [`Value`]s would, with
/// no owned tree and no per-atom `String`. A serving front end sorts
/// and renders answer rows with these straight from the store.
impl TermStore {
    /// Compare two interned terms in [`Value`] order: the order of
    /// `Value::from_store(self, a).cmp(&Value::from_store(self, b))`.
    /// Variants rank Atom < Int < App < Set; atoms compare by name
    /// bytes, ints numerically, apps by name then argument list, and
    /// sets lexicographically over their elements taken in this same
    /// order (not interning order).
    pub fn cmp_value_order(&self, a: TermId, b: TermId) -> Ordering {
        // Hash-consing: equal ids are exactly equal values.
        if a == b {
            return Ordering::Equal;
        }
        match (self.data(a), self.data(b)) {
            (TermData::Atom(x), TermData::Atom(y)) => {
                self.symbols().name(x).cmp(self.symbols().name(y))
            }
            (TermData::Int(x), TermData::Int(y)) => x.cmp(&y),
            (TermData::App(f, xs), TermData::App(g, ys)) => self
                .symbols()
                .name(f)
                .cmp(self.symbols().name(g))
                .then_with(|| self.cmp_value_rows(xs, ys)),
            (TermData::Set(xs), TermData::Set(ys)) => {
                self.cmp_value_rows(&self.value_ordered(xs), &self.value_ordered(ys))
            }
            (x, y) => variant_rank(x).cmp(&variant_rank(y)),
        }
    }

    /// Compare two id slices lexicographically in [`Value`] order (a
    /// shorter prefix sorts first) — the order of the lifted
    /// `Vec<Value>` rows.
    pub fn cmp_value_rows(&self, a: &[TermId], b: &[TermId]) -> Ordering {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.cmp_value_order(x, y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    }

    /// An order-preserving 8-byte prefix of `id`'s place in [`Value`]
    /// order: `value_key(a) < value_key(b)` implies `a` sorts before
    /// `b`, while equal keys decide nothing. The top 2 bits hold the
    /// variant rank (atom < int < app < set). Below them go the first 7
    /// name bytes of an atom or of an app's function symbol, the
    /// integer biased to unsigned and shifted right by 2, or 0 for a
    /// set.
    pub fn value_key(&self, id: TermId) -> u64 {
        let data = self.data(id);
        let low = match data {
            TermData::Atom(sym) | TermData::App(sym, _) => name_prefix(self.symbols().name(sym)),
            TermData::Int(v) => ((v as u64) ^ (1 << 63)) >> 2,
            TermData::Set(_) => 0,
        };
        u64::from(variant_rank(data)) << 62 | low
    }

    /// Sort interned rows into [`Value`] order: the order of sorting
    /// their lifted `Vec<Value>` rows. The rows are decorated with the
    /// [`TermStore::value_key`] of the first column whose id differs
    /// between them (the columns before it are identical, so they
    /// decide nothing) and sorted by that key; only a run of equal keys
    /// falls back to [`TermStore::cmp_value_rows`], and a few rows sort
    /// on it alone. One allocation, and none for a few rows or no two
    /// distinct ones.
    pub fn sort_value_rows(&self, rows: &mut [&[TermId]]) {
        if rows.len() <= SHORT_SORT {
            rows.sort_by(|a, b| self.cmp_value_rows(a, b));
            return;
        }
        let first = rows[0];
        let width = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let Some(col) = (0..width).find(|&c| rows.iter().any(|r| r.get(c) != first.get(c))) else {
            return;
        };
        sort_by_value_key(
            rows,
            // A row too short to reach `col` is a prefix of the others,
            // so it sorts first; key 0 is the least.
            |row| row.get(col).map_or(0, |&id| self.value_key(id)),
            |a, b| self.cmp_value_rows(a, b),
        );
    }

    /// Lift interned rows to owned `Vec<Value>` rows in [`Value`]
    /// order: the ids are sorted ([`TermStore::sort_value_rows`]), then
    /// lifted, so no `Value` tree is compared. A short answer is sorted
    /// on the stack, so it allocates nothing beyond its lift.
    pub fn sorted_value_rows<'r>(
        &self,
        rows: impl ExactSizeIterator<Item = &'r [TermId]>,
    ) -> Vec<Vec<Value>> {
        let mut short: [&[TermId]; SHORT_SORT] = [&[]; SHORT_SORT];
        let mut long = Vec::new();
        let ids: &mut [&[TermId]] = if rows.len() <= SHORT_SORT {
            let n = short
                .iter_mut()
                .zip(rows)
                .map(|(slot, row)| *slot = row)
                .count();
            &mut short[..n]
        } else {
            long.extend(rows);
            &mut long
        };
        self.sort_value_rows(ids);
        ids.iter()
            .map(|row| row.iter().map(|&id| Value::from_store(self, id)).collect())
            .collect()
    }

    /// Append the rendering of `id` to `out`, byte-identical to
    /// `Value::from_store(self, id).to_string()`: set elements print in
    /// [`Value`] order, not interning order (which is what
    /// [`TermStore::display`] prints).
    pub fn write_value(&self, id: TermId, out: &mut String) {
        match self.data(id) {
            TermData::Atom(sym) => out.push_str(self.symbols().name(sym)),
            TermData::Int(v) => {
                let _ = write!(out, "{v}");
            }
            TermData::App(f, args) => {
                out.push_str(self.symbols().name(f));
                out.push('(');
                self.write_value_list(args, out);
                out.push(')');
            }
            TermData::Set(elems) => {
                out.push('{');
                self.write_value_list(&self.value_ordered(elems), out);
                out.push('}');
            }
        }
    }

    fn write_value_list(&self, ids: &[TermId], out: &mut String) {
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            self.write_value(id, out);
        }
    }

    /// A set payload in [`Value`] order: borrowed when interning order
    /// already agrees (the common case), a sorted copy otherwise.
    fn value_ordered<'a>(&self, elems: &'a [TermId]) -> Cow<'a, [TermId]> {
        if elems.is_sorted_by(|&x, &y| self.cmp_value_order(x, y).is_lt()) {
            return Cow::Borrowed(elems);
        }
        let mut sorted = elems.to_vec();
        if sorted.len() <= SHORT_SORT {
            sorted.sort_by(|&x, &y| self.cmp_value_order(x, y));
        } else {
            sort_by_value_key(
                &mut sorted,
                |id| self.value_key(id),
                |x, y| self.cmp_value_order(x, y),
            );
        }
        Cow::Owned(sorted)
    }
}

/// Up to this many items, a `Value`-order sort uses the full
/// comparison alone, which allocates nothing: on chain-TC answer rows
/// (2-vCPU host) the two sorts cost about the same at 8 rows, and the
/// full comparison 3× the keyed time at 12.
const SHORT_SORT: usize = 8;

/// Sort `items` by `cmp`, given `key`, an order-preserving prefix of
/// it: an unstable sort on the keys, then a stable `cmp` sort of each
/// run of equal keys. When every key ties, the first pass finds the
/// input already sorted and leaves it as it came, so the second costs
/// what a plain stable `cmp` sort would.
fn sort_by_value_key<T: Copy>(
    items: &mut [T],
    key: impl Fn(T) -> u64,
    cmp: impl Fn(T, T) -> Ordering,
) {
    let mut keyed: Vec<(u64, T)> = items.iter().map(|&t| (key(t), t)).collect();
    keyed.sort_unstable_by_key(|&(k, _)| k);
    for run in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
        run.sort_by(|a, b| cmp(a.1, b.1));
    }
    for (slot, (_, t)) in items.iter_mut().zip(keyed) {
        *slot = t;
    }
}

/// The first 7 bytes of `name`, zero-padded, as a big-endian integer
/// below 2^56: a name that sorts before another never gets a larger
/// prefix.
fn name_prefix(name: &str) -> u64 {
    let mut buf = [0u8; 8];
    let n = name.len().min(7);
    buf[1..=n].copy_from_slice(&name.as_bytes()[..n]);
    u64::from_be_bytes(buf)
}

/// Rank of a term's variant in [`Value`]'s derived order.
fn variant_rank(data: TermData<'_>) -> u8 {
    match data {
        TermData::Atom(_) => 0,
        TermData::Int(_) => 1,
        TermData::App(..) => 2,
        TermData::Set(_) => 3,
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Atom(s.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_equality_is_extensional() {
        let s1 = Value::set([Value::atom("a"), Value::atom("b")]);
        let s2 = Value::set([Value::atom("b"), Value::atom("a"), Value::atom("b")]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn sorts() {
        assert_eq!(Value::atom("x").sort(), Sort::Atom);
        assert_eq!(Value::int(1).sort(), Sort::Atom);
        assert_eq!(Value::app("f", [Value::int(1)]).sort(), Sort::Atom);
        assert_eq!(Value::empty_set().sort(), Sort::Set);
    }

    #[test]
    fn lps_legality() {
        let flat = Value::set([Value::atom("a")]);
        assert!(flat.is_lps());
        let nested = Value::set([flat.clone()]);
        assert!(!nested.is_lps(), "depth-2 sets are ELPS-only");
        let f_of_set = Value::app("f", [flat]);
        assert!(!f_of_set.is_lps(), "set-sorted function args are ELPS-only");
    }

    #[test]
    fn roundtrip_through_store() {
        let mut store = TermStore::new();
        let v = Value::set([
            Value::atom("a"),
            Value::int(-3),
            Value::app("f", [Value::atom("b")]),
            Value::set([Value::atom("c")]),
        ]);
        let id = v.intern(&mut store);
        assert_eq!(Value::from_store(&store, id), v);
        // Interning twice yields the same id (hash-consing through the
        // owned-tree path too).
        assert_eq!(v.intern(&mut store), id);
    }

    #[test]
    fn find_resolves_only_interned_values() {
        let mut store = TermStore::new();
        let v = Value::set([
            Value::atom("a"),
            Value::app("f", [Value::int(2)]),
            Value::set([Value::atom("b")]),
        ]);
        let id = v.intern(&mut store);
        let before = store.len();
        assert_eq!(v.find(&store), Some(id));
        for absent in [
            Value::atom("fresh"),
            Value::int(99),
            Value::app("f", [Value::int(3)]),
            Value::app("g", [Value::int(2)]),
            Value::set([Value::atom("a")]),
        ] {
            assert_eq!(absent.find(&store), None, "{absent}");
        }
        assert_eq!(store.len(), before, "find interns nothing");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::atom("a").to_string(), "a");
        assert_eq!(Value::int(-7).to_string(), "-7");
        assert_eq!(
            Value::app("f", [Value::atom("a"), Value::int(2)]).to_string(),
            "f(a, 2)"
        );
        assert_eq!(Value::empty_set().to_string(), "{}");
        let s = Value::set([Value::atom("b"), Value::atom("a")]);
        assert_eq!(s.to_string(), "{a, b}", "display uses canonical order");
    }

    #[test]
    fn depth_matches_store_depth() {
        let mut store = TermStore::new();
        let v = Value::set([Value::set([Value::atom("a")]), Value::atom("b")]);
        let id = v.intern(&mut store);
        assert_eq!(v.depth(), store.depth(id));
        assert_eq!(v.depth(), 2);
    }
}
