//! Property tests for the id-level mirrors of [`Value`]'s `Ord` and
//! `Display`: on random nested terms, [`TermStore::cmp_value_order`]
//! must agree with `Value::cmp` and [`TermStore::write_value`] with
//! `Value::to_string`, whatever order the store interned things in.

use std::cmp::Ordering;

use proptest::prelude::*;

use lps_term::{TermId, TermStore, Value};

/// Atom names whose byte order differs from the order the tests intern
/// them in (upper case sorts before lower case; a prefix sorts first).
const NAMES: [&str; 7] = ["b", "a", "ab", "B", "z", "a1", "aa"];

/// A term to intern, written in the order its parts get interned.
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
        (-20i64..20).prop_map(Shape::Int),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (0..3usize, proptest::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| Shape::App(f, args)),
            // Includes the empty set; elements may repeat and nest.
            proptest::collection::vec(inner, 0..4).prop_map(Shape::Set),
        ]
    })
}

/// Intern `shape` bottom-up, in the order written: set elements are
/// interned before the set, in list order, so `TermId` order inside a
/// set payload follows interning, not [`Value`], order.
fn intern(store: &mut TermStore, shape: &Shape) -> TermId {
    match shape {
        Shape::Atom(i) => store.atom(NAMES[*i]),
        Shape::Int(v) => store.int(*v),
        Shape::App(f, args) => {
            let ids = args.iter().map(|a| intern(store, a)).collect();
            store.app(["g", "f", "fa"][*f], ids)
        }
        Shape::Set(elems) => {
            let ids = elems.iter().map(|e| intern(store, e)).collect();
            store.set(ids)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_order_and_rendering_agree_with_value(
        seed in any::<u64>(),
        ints in proptest::collection::vec(-20i64..20, 0..6),
        shapes in proptest::collection::vec(shape(), 1..8),
    ) {
        let mut store = TermStore::new();
        // Atoms (in a seeded shuffle) and ints first, out of value
        // order, so every later set payload sorts them by interning
        // order instead.
        let mut atom_order: Vec<usize> = (0..NAMES.len()).collect();
        let mut s = seed;
        for i in (1..atom_order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            atom_order.swap(i, ((s >> 33) % (i as u64 + 1)) as usize);
        }
        for i in atom_order {
            store.atom(NAMES[i]);
        }
        for v in ints {
            store.int(v);
        }
        let ids: Vec<TermId> = shapes.iter().map(|s| intern(&mut store, s)).collect();
        let values: Vec<Value> = ids.iter().map(|&id| Value::from_store(&store, id)).collect();
        for (&id, v) in ids.iter().zip(&values) {
            let mut out = String::new();
            store.write_value(id, &mut out);
            prop_assert_eq!(out, v.to_string());
        }
        for (&a, va) in ids.iter().zip(&values) {
            for (&b, vb) in ids.iter().zip(&values) {
                prop_assert_eq!(store.cmp_value_order(a, b), va.cmp(vb));
            }
        }
        // Rows (prefixes of the term list) compare like `Vec<Value>`.
        for n in 0..=ids.len() {
            for m in 0..=ids.len() {
                let want: Ordering = values[..n].cmp(&values[m..]);
                prop_assert_eq!(store.cmp_value_rows(&ids[..n], &ids[m..]), want);
            }
        }
    }
}
