//! String interning for constant, function, predicate, and variable
//! names.
//!
//! Every name that appears in a program is interned once in a
//! [`SymbolTable`] and referred to by a 4-byte [`Symbol`] thereafter.
//! Interning makes name equality O(1) and keeps the hot tuple
//! representation (`TermId`s, which embed `Symbol`s transitively) free
//! of string data.

use std::hash::BuildHasher;

use crate::fxhash::FxBuildHasher;
use crate::table::IdTable;

/// An interned string. Equality and hashing are O(1); the textual form
/// is recovered through the [`SymbolTable`] that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw index of this symbol within its table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a symbol from a raw index previously obtained from
    /// [`Symbol::index`]. The caller must ensure the index came from the
    /// same table.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Symbol(u32::try_from(index).expect("symbol table overflow"))
    }
}

/// A string interner that can be rolled back.
///
/// Names are stored exactly once, back to back in one `String`, and
/// found through an [`IdTable`] that compares them in place.
/// [`SymbolTable::truncate`] forgets the newest names; every other
/// `Symbol` stays valid.
#[derive(Default, Debug, Clone)]
pub struct SymbolTable {
    text: String,
    /// Where each name ends in `text`, in symbol order.
    ends: Vec<u32>,
    table: IdTable,
}

/// Hash of a name. The Fx hash ends in a multiply, which mixes its top
/// bits best, while its low bits still follow the name's first bytes;
/// the table places a key by the low bits, so the halves are swapped
/// (names with a common prefix would otherwise crowd into one run).
fn hash_name(name: &str) -> u64 {
    FxBuildHasher::default().hash_one(name).rotate_left(32)
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        let found = self.table.find_or_insert(
            hash_name(name),
            |id| name_at(&self.text, &self.ends, id) == name,
            |id| hash_name(name_at(&self.text, &self.ends, id)),
        );
        if found.is_err() {
            self.text.push_str(name);
            let end = u32::try_from(self.text.len()).expect("symbol table overflow");
            self.ends.push(end);
        }
        Symbol(found.unwrap_or_else(|id| id))
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        let eq = |id| name_at(&self.text, &self.ends, id) == name;
        self.table.find(hash_name(name), eq).map(Symbol)
    }

    /// The textual form of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different table.
    pub fn name(&self, sym: Symbol) -> &str {
        name_at(&self.text, &self.ends, sym.0)
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Forget every name interned after the first `len`
    /// ([`crate::TermStore::rollback`]).
    pub fn truncate(&mut self, len: usize) {
        let len = len.min(self.len());
        let (text, ends) = (&self.text, &self.ends);
        self.table
            .truncate(len, |id| hash_name(name_at(text, ends, id)));
        self.text.truncate(start_of(&self.ends, len));
        self.ends.truncate(len);
    }

    /// Generate a symbol guaranteed not to collide with any name that
    /// can be written in the surface syntax (used by the Theorem-6
    /// compiler for auxiliary predicates). The `$` prefix is reserved:
    /// the lexer rejects it in user programs.
    pub fn fresh(&mut self, stem: &str) -> Symbol {
        let mut n = self.len();
        loop {
            let candidate = format!("${stem}#{n}");
            if self.get(&candidate).is_none() {
                return self.intern(&candidate);
            }
            n += 1;
        }
    }

    /// Iterate over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        (0..self.ends.len() as u32).map(|id| (Symbol(id), self.name(Symbol(id))))
    }
}

/// Where name `id` starts in the text.
fn start_of(ends: &[u32], id: usize) -> usize {
    id.checked_sub(1).map_or(0, |prev| ends[prev] as usize)
}

/// Name `id` of a table's text and ends.
fn name_at<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    &text[start_of(ends, id as usize)..ends[id as usize] as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::new();
        let a1 = t.intern("alpha");
        let a2 = t.intern("alpha");
        assert_eq!(a1, a2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a1), "alpha");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.name(a), "a");
        assert_eq!(t.name(b), "b");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = SymbolTable::new();
        assert_eq!(t.get("missing"), None);
        assert_eq!(t.len(), 0);
        let s = t.intern("present");
        assert_eq!(t.get("present"), Some(s));
    }

    #[test]
    fn fresh_symbols_never_collide() {
        let mut t = SymbolTable::new();
        let f1 = t.fresh("aux");
        let f2 = t.fresh("aux");
        assert_ne!(f1, f2);
        assert!(t.name(f1).starts_with("$aux"));
    }

    #[test]
    fn fresh_skips_manually_interned_collisions() {
        let mut t = SymbolTable::new();
        // Simulate a collision with the generated scheme.
        t.intern("$aux#0");
        let f = t.fresh("aux");
        assert_ne!(t.name(f), "$aux#0");
    }

    #[test]
    fn iter_yields_in_order() {
        let mut t = SymbolTable::new();
        t.intern("x");
        t.intern("y");
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["x", "y"]);
    }
}
