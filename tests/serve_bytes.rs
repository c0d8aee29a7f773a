//! Property test: a served answer's raw reply frame is byte-identical
//! to the reference rendering — `ok <n>`, then one line per row, the
//! rows lifted to `Value`, sorted in `Value` order and each cell's
//! `to_string` joined by `", "` — both when the writer answers the
//! first ask and when the published snapshot answers the repeat. Fixed
//! cases pin `ok 0`, a ground "yes", an `F` ack, an `err` whose message
//! spans lines, and the `S` exposition.

use std::net::{TcpListener, TcpStream};

use proptest::prelude::*;

use lps::core::classify_goal;
use lps::core::serve::{read_frame, write_frame};
use lps::core::{Database, Dialect, Server, Value};

/// Atom names whose byte order differs from any order they are likely
/// to be interned in (`c10` < `c9`), and long names whose order their
/// first 7 bytes do not decide, so the reply sort's key ties.
const ATOMS: [&str; 9] = [
    "z",
    "c10",
    "c9",
    "ab",
    "a",
    "abcdefgh",
    "abcdefg",
    "abcdefgz",
    "abcdefgh1",
];

/// Function symbols, two of them sharing their first 7 bytes.
const FUNCTORS: [&str; 4] = ["g", "f", "longname2", "longname1"];

/// A random ground term: atoms, negative and positive integers (small
/// ones, whose sort keys tie in fours, and ones near both ends of `i64`
/// that source text can write), applications, and empty or nested
/// sets.
fn value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        (0..ATOMS.len()).prop_map(|i| Value::atom(ATOMS[i])),
        (-12..13i64).prop_map(Value::int),
        (1..5i64).prop_map(|d| Value::int(i64::MIN + d)),
        (0..4i64).prop_map(|d| Value::int(i64::MAX - d)),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (
                0..FUNCTORS.len(),
                proptest::collection::vec(inner.clone(), 1..3)
            )
                .prop_map(|(f, args)| Value::app(FUNCTORS[f], args)),
            proptest::collection::vec(inner, 0..4).prop_map(Value::set),
        ]
    })
    .boxed()
}

/// Rows of one arity in 1..=3.
fn rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let row = proptest::collection::vec(value(), 3..4);
    (1..4usize, proptest::collection::vec(row, 1..12)).prop_map(|(arity, mut rows)| {
        for row in &mut rows {
            row.truncate(arity);
        }
        rows
    })
}

/// Write `v` as source text with every set's elements in reverse
/// `Value` order, so the loader interns them out of `Value` order.
fn write_source(v: &Value, out: &mut String) {
    let list = |items: &mut dyn Iterator<Item = &Value>, out: &mut String| {
        for (i, item) in items.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_source(item, out);
        }
    };
    match v {
        Value::Atom(name) => out.push_str(name),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::App(f, args) => {
            out.push_str(f);
            out.push('(');
            list(&mut args.iter(), out);
            out.push(')');
        }
        Value::Set(elems) => {
            out.push('{');
            list(&mut elems.iter().rev(), out);
            out.push('}');
        }
    }
}

/// The reply payload the wire promises for `rows`.
fn reference(rows: &[Vec<Value>]) -> String {
    let mut rows = rows.to_vec();
    rows.sort();
    rows.dedup();
    let mut out = format!("ok {}", rows.len());
    for row in &rows {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        out.push('\n');
        out.push_str(&cells.join(", "));
    }
    out
}

fn spawn_server(program: &str) -> Server {
    let mut db = Database::new(Dialect::Elps);
    db.load_str(program).expect("load program");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    Server::spawn(listener, &db).expect("spawn server")
}

/// One raw request frame out, the raw reply payload back.
fn ask(stream: &mut TcpStream, request: &str) -> String {
    write_frame(stream, request).expect("write request");
    read_frame(stream)
        .expect("read reply")
        .expect("reply frame")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn served_replies_equal_the_value_reference(rows in rows()) {
        let arity = rows[0].len();
        let pred = format!("r{arity}");
        let mut program = String::new();
        for row in &rows {
            program.push_str(&pred);
            program.push('(');
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    program.push_str(", ");
                }
                write_source(cell, &mut program);
            }
            program.push_str(").\n");
        }
        let vars: Vec<String> = (1..=arity).map(|i| format!("X{i}")).collect();
        let goal = format!("Q {pred}({}).", vars.join(", "));
        let want = reference(&rows);

        let mut server = spawn_server(&program);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).ok();
        let first = ask(&mut stream, &goal);
        prop_assert_eq!(server.snapshot_hits(), 0, "the first ask funnels");
        prop_assert_eq!(&first, &want, "writer reply to {}", program);
        let second = ask(&mut stream, &goal);
        prop_assert_eq!(server.snapshot_hits(), 1, "the repeat hits");
        prop_assert_eq!(&second, &want, "snapshot reply to {}", program);
        server.shutdown();
    }
}

#[test]
fn fixed_replies_are_byte_exact() {
    let mut server = spawn_server(
        "e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).\n",
    );
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).ok();
    // No rows, from the writer and then from the snapshot.
    assert_eq!(ask(&mut stream, "Q t(c, X)."), "ok 0");
    assert_eq!(ask(&mut stream, "Q t(c, X)."), "ok 0");
    assert_eq!(server.snapshot_hits(), 1);
    // A ground conjunctive goal that holds: one empty line.
    assert_eq!(ask(&mut stream, "Q t(a, c), e(a, b)."), "ok 1\n");
    // A fact ack.
    assert_eq!(ask(&mut stream, "F e(c, d)."), "ok 0");
    assert_eq!(ask(&mut stream, "Q t(a, X)."), "ok 3\na, b\na, c\na, d");
    // A syntax error renders over several lines; the reply keeps it on
    // the `err` line.
    let bad = "t(a, X";
    let message = classify_goal(bad).unwrap_err().render(bad);
    assert!(message.contains('\n'), "{message}");
    assert_eq!(
        ask(&mut stream, &format!("Q {bad}")),
        format!("err {}", message.replace('\n', " "))
    );
    // The exposition: `ok <n>` counts the sample and type lines after it.
    let stats = ask(&mut stream, "S");
    let mut lines = stats.lines();
    let head = lines.next().expect("head line");
    let body: Vec<&str> = lines.collect();
    assert_eq!(head, format!("ok {}", body.len()), "{stats}");
    assert!(!stats.ends_with('\n'), "{stats:?}");
    assert!(
        body.iter()
            .all(|l| l.starts_with("# TYPE lps_") || l.starts_with("lps_")),
        "{stats}"
    );
    assert!(body.contains(&"lps_snapshot_hits_total 1"), "{stats}");
    server.shutdown();
}
