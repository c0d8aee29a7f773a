//! Property tests for the term store against a naive reference: a list
//! of owned [`Value`]s and a list of names, each in interning order. On
//! random atoms, integers, applications and nested sets with duplicate
//! elements, the store must hand out the reference's ids, find exactly
//! what it holds without growing, roll back to any mark, and keep an
//! earlier clone unchanged while it grows.

use std::collections::HashMap;

use proptest::prelude::*;

use lps_term::{SymbolTable, TermId, TermStore, Value};

const NAMES: [&str; 6] = ["a", "b", "ab", "B", "f", "g"];

/// A term to intern; set elements may repeat.
#[derive(Clone, Debug)]
enum Shape {
    Atom(usize),
    Int(i64),
    App(usize, Vec<Shape>),
    Set(Vec<Shape>),
}

fn shape() -> impl Strategy<Value = Shape> {
    let leaf = prop_oneof![
        (0..NAMES.len()).prop_map(Shape::Atom),
        (-3i64..3).prop_map(Shape::Int),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (
                0..NAMES.len(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(f, args)| Shape::App(f, args)),
            proptest::collection::vec(inner, 0..4).prop_map(Shape::Set),
        ]
    })
}

/// The store as a list of values and a list of names, each in
/// interning order.
#[derive(Clone, Default)]
struct Reference {
    terms: Vec<Value>,
    ids: HashMap<Value, usize>,
    names: Vec<String>,
}

impl Reference {
    fn name(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_owned());
        }
    }

    fn term(&mut self, value: Value) -> usize {
        let next = self.terms.len();
        let id = *self.ids.entry(value.clone()).or_insert(next);
        if id == next {
            self.terms.push(value);
        }
        id
    }

    /// Intern `shape` the way the store's API does: arguments and
    /// elements first, then an application's function name.
    fn intern(&mut self, shape: &Shape) -> (Value, usize) {
        let value = match shape {
            Shape::Atom(i) => {
                self.name(NAMES[*i]);
                Value::atom(NAMES[*i])
            }
            Shape::Int(v) => Value::int(*v),
            Shape::App(f, args) => {
                let args: Vec<Value> = args.iter().map(|a| self.intern(a).0).collect();
                self.name(NAMES[*f]);
                Value::app(NAMES[*f], args)
            }
            Shape::Set(elems) => Value::set(elems.iter().map(|e| self.intern(e).0)),
        };
        let id = self.term(value.clone());
        (value, id)
    }
}

fn intern(store: &mut TermStore, shape: &Shape) -> TermId {
    match shape {
        Shape::Atom(i) => store.atom(NAMES[*i]),
        Shape::Int(v) => store.int(*v),
        Shape::App(f, args) => {
            let ids = args.iter().map(|a| intern(store, a)).collect();
            store.app(NAMES[*f], ids)
        }
        Shape::Set(elems) => {
            let ids = elems.iter().map(|e| intern(store, e)).collect();
            store.set(ids)
        }
    }
}

/// The store holds exactly the reference's terms and names: every
/// value is found at its reference id, and finding anything — held
/// or not — leaves the store as it was.
fn agrees(store: &TermStore, reference: &Reference, probes: &[Value]) -> Result<(), String> {
    let lens = (store.len(), store.symbols().len());
    if lens != (reference.terms.len(), reference.names.len()) {
        return Err(format!("lengths {lens:?}"));
    }
    for (id, value) in reference.terms.iter().enumerate() {
        match value.find(store) {
            Some(t) if t.index() == id && Value::from_store(store, t) == *value => {}
            found => return Err(format!("{value} found at {found:?}, expected {id}")),
        }
    }
    for (i, name) in reference.names.iter().enumerate() {
        let sym = store.symbols().get(name).map(|s| s.index());
        if sym != Some(i) {
            return Err(format!("name {name} at {sym:?}, expected {i}"));
        }
    }
    for value in probes {
        let found = value.find(store).map(TermId::index);
        if found != reference.ids.get(value).copied() {
            return Err(format!("probe {value} found at {found:?}"));
        }
    }
    if (store.len(), store.symbols().len()) != lens {
        return Err("find interned".into());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal values get equal ids, ids follow interning order, and
    /// `find` agrees with interning without interning anything.
    #[test]
    fn store_agrees_with_reference(
        shapes in proptest::collection::vec(shape(), 1..12),
        probes in proptest::collection::vec(shape(), 0..8),
    ) {
        let (mut store, mut reference) = (TermStore::new(), Reference::default());
        for s in &shapes {
            let id = intern(&mut store, s);
            let (value, want) = reference.intern(s);
            prop_assert_eq!(id.index(), want);
            prop_assert_eq!(Value::from_store(&store, id), value);
        }
        // Values of probe shapes, held or not.
        let probes: Vec<Value> = probes.iter().map(|p| Reference::default().intern(p).0).collect();
        prop_assert_eq!(agrees(&store, &reference, &probes), Ok(()));
    }

    /// Rolling back to a random mark restores the lengths and lookups,
    /// re-interning afterwards hands out the same ids, and a clone
    /// taken at the mark answers as before while the original grows.
    #[test]
    fn rollback_and_clones_restore_the_mark(
        shapes in proptest::collection::vec(shape(), 1..12),
        at in 0usize..12,
    ) {
        let at = at.min(shapes.len());
        let (mut store, mut reference) = (TermStore::new(), Reference::default());
        for s in &shapes[..at] {
            intern(&mut store, s);
            reference.intern(s);
        }
        let (mark, earlier, at_mark) = (store.mark(), store.clone(), reference.clone());
        let later: Vec<TermId> = shapes[at..].iter().map(|s| intern(&mut store, s)).collect();
        let mut grown = at_mark.clone();
        let all: Vec<Value> = shapes.iter().map(|s| grown.intern(s).0).collect();
        prop_assert_eq!(agrees(&store, &grown, &all), Ok(()));
        prop_assert_eq!(agrees(&earlier, &at_mark, &all), Ok(()));

        store.rollback(mark);
        prop_assert_eq!(store.mark(), mark);
        prop_assert_eq!(agrees(&store, &at_mark, &all), Ok(()));
        let again: Vec<TermId> = shapes[at..].iter().map(|s| intern(&mut store, s)).collect();
        prop_assert_eq!(again, later);
        prop_assert_eq!(agrees(&store, &grown, &all), Ok(()));
    }

    /// `SymbolTable::truncate` forgets exactly the names interned since,
    /// and re-interning them hands out the same symbols.
    #[test]
    fn symbol_truncate_restores_the_table(
        names in proptest::collection::vec(0usize..40, 0..30),
        at in 0usize..30,
    ) {
        let name = |i: usize| format!("n{i}");
        let at = at.min(names.len());
        let mut table = SymbolTable::new();
        for &i in &names[..at] {
            table.intern(&name(i));
        }
        let (len, before): (usize, Vec<String>) =
            (table.len(), table.iter().map(|(_, n)| n.to_owned()).collect());
        let later: Vec<_> = names[at..].iter().map(|&i| table.intern(&name(i))).collect();
        table.truncate(len);
        prop_assert_eq!(table.len(), len);
        let now: Vec<String> = table.iter().map(|(_, n)| n.to_owned()).collect();
        prop_assert_eq!(&now, &before);
        for i in 0..40 {
            let held = before.iter().position(|n| *n == name(i));
            prop_assert_eq!(table.get(&name(i)).map(|s| s.index()), held);
        }
        let again: Vec<_> = names[at..].iter().map(|&i| table.intern(&name(i))).collect();
        prop_assert_eq!(again, later);
    }
}
