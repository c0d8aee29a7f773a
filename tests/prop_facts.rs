//! Property test: every way a ground fact enters a program —
//! `Database::load_str`, `Database::add_fact`, and the wire `F` op —
//! loads the rows the generated values describe and the same sort
//! summary, and a load that fails partway, wherever its error sits,
//! leaves neither rows nor interned terms behind.

use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpListener;

use proptest::prelude::*;

use lps::core::{Client, Server};
use lps::{CoreError, Database, Dialect, Value};
use lps_syntax::SortAnn;

/// Predicates by arity: `p/0`, `q/1`, `r/2`, `s/3`.
const PREDS: [&str; 4] = ["p", "q", "r", "s"];

type Fact = (usize, Vec<Value>);

/// A random ground term: atoms, negative and positive integers,
/// applications, and empty or nested sets.
fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        (0..4u8).prop_map(|i| Value::atom(format!("c{i}"))),
        (-3..4i64).prop_map(Value::int),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (0..2u8, proptest::collection::vec(inner.clone(), 1..3))
                .prop_map(|(f, args)| Value::app(format!("f{f}"), args)),
            proptest::collection::vec(inner, 0..4).prop_map(Value::set),
        ]
    })
    .boxed()
}

/// Random facts, the first repeated at the end to force a duplicate.
fn facts(value: BoxedStrategy<Value>) -> impl Strategy<Value = Vec<Fact>> {
    let fact = (0..4usize, proptest::collection::vec(value, 3..4))
        .prop_map(|(arity, args)| (arity, args[..arity].to_vec()));
    proptest::collection::vec(fact, 1..10).prop_map(|mut facts| {
        facts.push(facts[0].clone());
        facts
    })
}

fn render(facts: &[Fact]) -> String {
    let mut src = String::new();
    for (arity, args) in facts {
        let args: Vec<String> = args.iter().map(Value::to_string).collect();
        match arity {
            0 => src.push_str(PREDS[0]),
            _ => src.push_str(&format!("{}({})", PREDS[*arity], args.join(", "))),
        }
        src.push_str(".\n");
    }
    src
}

/// The extension each predicate must have: the distinct rows, sorted.
fn expected(facts: &[Fact]) -> BTreeMap<usize, Vec<Vec<Value>>> {
    let mut rows: BTreeMap<usize, BTreeSet<Vec<Value>>> = BTreeMap::new();
    for (arity, args) in facts {
        rows.entry(*arity).or_default().insert(args.clone());
    }
    rows.into_iter()
        .map(|(a, r)| (a, r.into_iter().collect()))
        .collect()
}

/// Each column's sort under lenient (ELPS) inference.
fn expected_sorts(facts: &[Fact]) -> BTreeMap<String, Vec<SortAnn>> {
    let mut sigs: BTreeMap<String, Vec<SortAnn>> = BTreeMap::new();
    for (arity, args) in facts {
        let sorts = args.iter().map(|v| match v {
            Value::Set(_) => SortAnn::Set,
            _ => SortAnn::Atom,
        });
        let sig = sigs.entry(PREDS[*arity].to_owned());
        let sig = sig.or_insert_with(|| sorts.clone().collect());
        for (have, s) in sig.iter_mut().zip(sorts) {
            if *have != s {
                *have = SortAnn::Any;
            }
        }
    }
    sigs
}

fn sort_table(db: &Database) -> BTreeMap<String, Vec<SortAnn>> {
    let table = db.check().expect("generated facts are well sorted");
    table
        .iter()
        .map(|(name, sig)| (name.to_owned(), sig.to_vec()))
        .collect()
}

fn extension(db: &Database) -> BTreeMap<usize, Vec<Vec<Value>>> {
    let model = db.evaluate().expect("facts evaluate");
    (0..PREDS.len())
        .map(|a| (a, model.extension_n(PREDS[a], a)))
        .filter(|(_, rows)| !rows.is_empty())
        .collect()
}

/// What the session's store holds: the fact base's terms (there are no
/// rules to intern more).
fn store_len(db: &Database) -> usize {
    db.session().expect("session").engine().store().len()
}

/// Every predicate's rows as the wire renders them.
fn wire_extension(client: &mut Client) -> BTreeMap<usize, Vec<String>> {
    (0..PREDS.len())
        .map(|a| {
            let vars: Vec<String> = (0..a).map(|i| format!("X{i}")).collect();
            let goal = match a {
                0 => format!("{}.", PREDS[0]),
                _ => format!("{}({}).", PREDS[a], vars.join(", ")),
            };
            (a, client.query(&goal).unwrap().expect("query answers"))
        })
        .filter(|(_, rows)| !rows.is_empty())
        .collect()
}

fn rendered(ext: &BTreeMap<usize, Vec<Vec<Value>>>) -> BTreeMap<usize, Vec<String>> {
    let line = |row: &Vec<Value>| row.iter().map(Value::to_string).collect::<Vec<_>>();
    ext.iter()
        .map(|(a, rows)| (*a, rows.iter().map(|r| line(r).join(", ")).collect()))
        .collect()
}

fn serve(db: &Database) -> (Server, Client) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let server = Server::spawn(listener, db).expect("spawn server");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

/// An LPS-legal term: an atom, an integer, or an application of atoms.
fn lps_atom() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        (0..4u8).prop_map(|i| Value::atom(format!("c{i}"))),
        (-3..4i64).prop_map(Value::int),
    ];
    leaf.prop_recursive(1, 4, 2, |inner| {
        (0..2u8, proptest::collection::vec(inner, 1..3))
            .prop_map(|(f, args)| Value::app(format!("f{f}"), args))
    })
    .boxed()
}

/// Facts for `r(atom, set)`, legal in every dialect.
fn lps_facts() -> impl Strategy<Value = Vec<Fact>> {
    let fact = (lps_atom(), proptest::collection::vec(lps_atom(), 0..4))
        .prop_map(|(a, set)| (2usize, vec![a, Value::set(set)]));
    proptest::collection::vec(fact, 1..6)
}

/// The last fact of a failing load, and a check of its error.
fn bad_fact(kind: usize) -> (String, fn(&str) -> bool) {
    let wide: Vec<String> = (1..=33).map(|i| i.to_string()).collect();
    match kind {
        0 => ("r(c0, {c1}".to_owned(), |e| e.contains("expected")),
        1 => ("r(c0, {{c1}}).".to_owned(), |e| e.contains("nested set")),
        2 => ("union({c0}, {c1}, {c0, c1}).".to_owned(), |e| {
            e.contains("Definition 5")
        }),
        _ => (format!("w({}).", wide.join(", ")), |e| {
            e.contains("33 arguments")
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_fact_path_loads_the_same_rows_and_sorts(facts in facts(value())) {
        let want = expected(&facts);
        let src = render(&facts);

        let mut parsed = Database::new(Dialect::Elps);
        parsed.load_str(&src).unwrap();
        let mut added = Database::new(Dialect::Elps);
        for (arity, args) in &facts {
            added.add_fact(PREDS[*arity], args);
        }
        prop_assert_eq!(&extension(&parsed), &want);
        prop_assert_eq!(&extension(&added), &want);
        prop_assert_eq!(sort_table(&parsed), expected_sorts(&facts));
        prop_assert_eq!(sort_table(&added), expected_sorts(&facts));
        prop_assert_eq!(store_len(&parsed), store_len(&added));

        let (mut server, mut client) = serve(&Database::new(Dialect::Elps));
        client.add_fact(&src).unwrap().expect("wire facts load");
        prop_assert_eq!(wire_extension(&mut client), rendered(&want));
        server.shutdown();
    }

    #[test]
    fn a_failed_load_leaves_nothing_behind(
        before in lps_facts(),
        during in lps_facts(),
        kind in 0..4usize,
    ) {
        let (bad, is_expected) = bad_fact(kind);
        let failing = format!("{}{bad}\n", render(&during));
        let mut db = Database::new(Dialect::Lps);
        db.load_str(&render(&before)).unwrap();
        let (ext, len) = (extension(&db), store_len(&db));

        let err = db.load_str(&failing).map(|_| ()).unwrap_err();
        prop_assert!(is_expected(&err.to_string()), "{err}");
        prop_assert_eq!(&extension(&db), &ext);
        prop_assert_eq!(store_len(&db), len);

        // A live session, as the wire `F` op and `lpsi` feed it.
        let mut model = db.evaluate().unwrap();
        let err = model.load_facts(&failing).unwrap_err();
        prop_assert!(matches!(
            (kind, &err),
            (0, CoreError::Syntax(_)) | (1, CoreError::Sort { .. }) | (2 | 3, CoreError::InvalidClause { .. })
        ), "{err:?}");
        prop_assert_eq!(model.engine().store().len(), len);
        prop_assert!(!model.needs_update());
        prop_assert_eq!(model.extension_n("r", 2), ext[&2].clone());

        let (mut server, mut client) = serve(&db);
        let msg = client.add_fact(&failing).unwrap().unwrap_err();
        prop_assert!(is_expected(&msg), "{msg}");
        prop_assert_eq!(wire_extension(&mut client), rendered(&ext));
        server.shutdown();
    }
}
