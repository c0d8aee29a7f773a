//! Display of interned terms with store context.

use std::fmt;

use crate::store::{TermData, TermId, TermStore};

/// Borrowed pretty-printer for an interned term; obtained from
/// [`TermStore::display`].
pub struct DisplayTerm<'a> {
    store: &'a TermStore,
    id: TermId,
}

impl TermStore {
    /// Display adapter for a term id: `store.display(id).to_string()`.
    pub fn display(&self, id: TermId) -> DisplayTerm<'_> {
        DisplayTerm { store: self, id }
    }

    /// Display adapter for a tuple of term ids: `p(a, {b, c})`-style
    /// argument lists.
    pub fn display_tuple<'a>(&'a self, ids: &'a [TermId]) -> DisplayTuple<'a> {
        DisplayTuple { store: self, ids }
    }
}

impl fmt::Display for DisplayTerm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(self.store, self.id, f)
    }
}

/// Borrowed pretty-printer for a tuple of interned terms.
pub struct DisplayTuple<'a> {
    store: &'a TermStore,
    ids: &'a [TermId],
}

impl fmt::Display for DisplayTuple<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, &id) in self.ids.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write_term(self.store, id, f)?;
        }
        f.write_str(")")
    }
}

fn write_term(store: &TermStore, id: TermId, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match store.data(id) {
        TermData::Atom(sym) => f.write_str(store.symbols().name(sym)),
        TermData::Int(v) => write!(f, "{v}"),
        TermData::App(sym, args) => {
            f.write_str(store.symbols().name(sym))?;
            f.write_str("(")?;
            for (i, &a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_term(store, a, f)?;
            }
            f.write_str(")")
        }
        TermData::Set(elems) => {
            f.write_str("{")?;
            for (i, &e) in elems.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write_term(store, e, f)?;
            }
            f.write_str("}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_all_shapes() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let i = s.int(42);
        let fa = s.app("f", vec![a, i]);
        let set = s.set(vec![a, fa]);
        let empty = s.empty_set();
        assert_eq!(s.display(a).to_string(), "a");
        assert_eq!(s.display(i).to_string(), "42");
        assert_eq!(s.display(fa).to_string(), "f(a, 42)");
        assert_eq!(s.display(set).to_string(), "{a, f(a, 42)}");
        assert_eq!(s.display(empty).to_string(), "{}");
    }

    #[test]
    fn displays_tuples() {
        let mut s = TermStore::new();
        let a = s.atom("a");
        let set = s.set(vec![a]);
        assert_eq!(s.display_tuple(&[a, set]).to_string(), "(a, {a})");
        assert_eq!(s.display_tuple(&[]).to_string(), "()");
    }

    #[test]
    fn nested_sets_display_canonically() {
        let mut s = TermStore::new();
        let b = s.atom("b");
        let a = s.atom("a");
        let inner = s.set(vec![b, a]);
        let outer = s.set(vec![inner]);
        // Canonical order is interning order of TermIds (b before a
        // here), which is stable and deterministic.
        assert_eq!(s.display(outer).to_string(), "{{b, a}}");
    }
}
