//! String interning for constant, function, predicate, and variable
//! names.
//!
//! Every name that appears in a program is interned once in a
//! [`SymbolTable`] and referred to by a 4-byte [`Symbol`] thereafter.
//! Interning makes name equality O(1) and keeps the hot tuple
//! representation (`TermId`s, which embed `Symbol`s transitively) free
//! of string data.

use crate::FxHashMap;

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

/// An append-only string interner.
///
/// Names are stored exactly once; lookups are hash-based. The table is
/// append-only, so `Symbol`s are never invalidated.
#[derive(Default, Debug, Clone)]
pub struct SymbolTable {
    names: Vec<Box<str>>,
    index: FxHashMap<Box<str>, Symbol>,
}

impl SymbolTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its symbol (existing or fresh).
    pub fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.index.get(name) {
            return sym;
        }
        let sym = Symbol::from_index(self.names.len());
        let boxed: Box<str> = name.into();
        self.names.push(boxed.clone());
        self.index.insert(boxed, sym);
        sym
    }

    /// Look up a name without interning it.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.index.get(name).copied()
    }

    /// The textual form of `sym`.
    ///
    /// # Panics
    /// Panics if `sym` was produced by a different table.
    pub fn name(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Forget every name interned after the first `len`
    /// ([`crate::TermStore::rollback`]).
    pub fn truncate(&mut self, len: usize) {
        for name in self.names.drain(len.min(self.names.len())..) {
            self.index.remove(&name);
        }
    }

    /// Generate a symbol guaranteed not to collide with any name that
    /// can be written in the surface syntax (used by the Theorem-6
    /// compiler for auxiliary predicates). The `$` prefix is reserved:
    /// the lexer rejects it in user programs.
    pub fn fresh(&mut self, stem: &str) -> Symbol {
        let mut n = self.names.len();
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
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Symbol::from_index(i), n.as_ref()))
    }
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
