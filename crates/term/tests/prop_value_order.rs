//! Property tests for the id-level mirrors of [`Value`]'s `Ord` and
//! `Display`: on random nested terms, [`TermStore::cmp_value_order`]
//! must agree with `Value::cmp` and [`TermStore::write_value`] with
//! `Value::to_string`, whatever order the store interned things in;
//! and [`TermStore::sort_value_rows`] must put random rows in the order
//! of their lifted `Vec<Value>` rows.
//!
//! The generators make [`TermStore::value_key`] tie often, so the
//! sort's full comparison of equal keys is exercised: names that share
//! their first 7 bytes or are prefixes of one another, integers that
//! differ only in their low 2 bits or sit at the ends of `i64`, apps
//! with equal names, and sets (whose keys always tie).

use std::cmp::Ordering;

use proptest::prelude::*;

use lps_term::{TermId, TermStore, Value};

/// Atom names whose byte order differs from the order the tests intern
/// them in (upper case sorts before lower case; a prefix sorts first),
/// and long names whose order the first 7 bytes do not decide.
const NAMES: [&str; 12] = [
    "b",
    "a",
    "ab",
    "B",
    "z",
    "a1",
    "aa",
    "abcdefgh",
    "abcdefg",
    "abcdefgz",
    "abcdefgh1",
    "abcdefa",
];

/// Function symbols: a prefix pair, and two names sharing 7 bytes.
const FUNCTORS: [&str; 5] = ["g", "f", "fa", "longname2", "longname1"];

/// Integers: small ones (whose keys tie in fours) and both ends of
/// `i64`.
fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        -20i64..20,
        (0..6i64).prop_map(|d| i64::MIN + d),
        (0..6i64).prop_map(|d| i64::MAX - d),
    ]
}

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
        int().prop_map(Shape::Int),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (
                0..FUNCTORS.len(),
                proptest::collection::vec(inner.clone(), 0..3)
            )
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
            store.app(FUNCTORS[*f], ids)
        }
        Shape::Set(elems) => {
            let ids = elems.iter().map(|e| intern(store, e)).collect();
            store.set(ids)
        }
    }
}

/// A store holding every name (in a shuffle `seed` picks) and then
/// `ints`, out of value order, so every later set payload sorts them by
/// interning order instead.
fn seeded_store(seed: u64, ints: &[i64]) -> TermStore {
    let mut store = TermStore::new();
    let mut atom_order: Vec<usize> = (0..NAMES.len()).collect();
    let mut s = seed;
    for i in (1..atom_order.len()).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        atom_order.swap(i, ((s >> 33) % (i as u64 + 1)) as usize);
    }
    for i in atom_order {
        store.atom(NAMES[i]);
    }
    for &v in ints {
        store.int(v);
    }
    store
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn id_order_and_rendering_agree_with_value(
        seed in any::<u64>(),
        ints in proptest::collection::vec(int(), 0..6),
        shapes in proptest::collection::vec(shape(), 1..8),
    ) {
        let mut store = seeded_store(seed, &ints);
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

    /// Rows of `arity` columns drawn from a pool of terms; the first
    /// `fixed` columns hold the same term in every row, so the sort
    /// keys a later column. One case in five cuts the rows to random
    /// lengths, so some are prefixes of others.
    #[test]
    fn sort_value_rows_agrees_with_sorted_value_rows(
        seed in any::<u64>(),
        ints in proptest::collection::vec(int(), 0..6),
        shapes in proptest::collection::vec(shape(), 1..8),
        (arity, fixed, ragged) in (0..4usize, 0..4usize, any::<u8>()),
        picks in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 4..5), 0..24),
    ) {
        let mut store = seeded_store(seed, &ints);
        let pool: Vec<TermId> = shapes.iter().map(|s| intern(&mut store, s)).collect();
        let pick = |bits: u64| pool[(bits % pool.len() as u64) as usize];
        let rows: Vec<Vec<TermId>> = picks
            .iter()
            .map(|p| {
                let width = if ragged % 5 == 0 {
                    (p[3] % (arity as u64 + 1)) as usize
                } else {
                    arity
                };
                (0..width)
                    .map(|c| pick(if c < fixed { picks[0][c] } else { p[c] }))
                    .collect()
            })
            .collect();
        let lift = |row: &[TermId]| -> Vec<Value> {
            row.iter().map(|&id| Value::from_store(&store, id)).collect()
        };
        let mut want: Vec<Vec<Value>> = rows.iter().map(|r| lift(r)).collect();
        want.sort();

        let mut sorted: Vec<&[TermId]> = rows.iter().map(Vec::as_slice).collect();
        store.sort_value_rows(&mut sorted);
        let got: Vec<Vec<Value>> = sorted.iter().map(|r| lift(r)).collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            store.sorted_value_rows(rows.iter().map(Vec::as_slice)),
            want
        );
    }
}
