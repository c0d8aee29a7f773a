//! End-to-end smoke test for the serving tier: spawn an in-process
//! [`Server`] on a loopback port, speak the length-prefixed wire
//! protocol to it from scripted clients, and assert the answers — the
//! serving pipeline (writer thread, snapshot hit path, funnel, metrics
//! endpoint) exercised exactly the way `lpsi --serve` wires it up. The
//! server is stopped with the graceful [`Server::shutdown`] rather
//! than by killing a child process, so every thread joins and a
//! panicking assertion never leaks a listener.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use lps::core::serve::{read_frame, write_frame};
use lps::core::{Client, Database, Dialect, Server, Value};

const CHAIN: &str = "e(a, b). e(b, c). e(c, d).\n\
                     t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).\n";

/// Serve `program` on an ephemeral loopback port, exactly as
/// `lpsi --serve 127.0.0.1:0 <file>` does.
fn spawn_server(program: &str) -> Server {
    let mut db = Database::new(Dialect::Elps);
    db.load_str(program).expect("load program");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    Server::spawn(listener, &db).expect("spawn server")
}

#[test]
fn serve_answers_queries_over_the_wire() {
    let mut server = spawn_server(CHAIN);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Point query, twice: the repeat is served from the published
    // snapshot, and both must agree.
    let first = client.query("t(a, X).").unwrap().unwrap();
    assert_eq!(first, vec!["a, b", "a, c", "a, d"]);
    let second = client.query("t(a, X).").unwrap().unwrap();
    assert_eq!(second, first, "snapshot answer must equal writer answer");
    // Conjunctive goal funnels to the writer.
    let rows = client.query("t(a, X), e(X, Y).").unwrap().unwrap();
    assert_eq!(rows, vec!["b, c", "c, d"]);
    // A fact over the wire shows up in subsequent answers.
    client.add_fact("e(d, e5).").unwrap().unwrap();
    let rows = client.query("t(a, X).").unwrap().unwrap();
    assert_eq!(rows, vec!["a, b", "a, c", "a, d", "a, e5"]);
    // Server-side errors come back as `err`, not a dead connection.
    assert!(client.query("t(a, X").unwrap().is_err(), "syntax error");
    let rows = client.query("t(a, X).").unwrap().unwrap();
    assert_eq!(rows.len(), 4, "session survives a bad request");
    server.shutdown();
}

#[test]
fn serve_answers_the_scons_min_rollup() {
    // Demand for `obj_cost(bike, X)` runs `scons_min` with its rest
    // and set bound, a mode the wire server once answered with `err`.
    let mut server = spawn_server(
        "parts(bike, {frame, wheel_f, wheel_r, chain_drive}). parts(sled, {frame}).\n\
         cost(frame, 120). cost(wheel_f, 45). cost(wheel_r, 45). cost(chain_drive, 30).\n\
         sum_costs(S, 0) :- chain(S), S = {}.\n\
         sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),\n\
                            cost(P, N), sum_costs(Rest, M), N + M = K.\n\
         chain(Y) :- parts(_X, Y).\n\
         chain(Rest) :- chain(S), scons_min(_P, Rest, S).\n\
         obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).\n",
    );
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let rows = client.query("obj_cost(bike, X).").unwrap().unwrap();
    assert_eq!(rows, vec!["bike, 240"]);
    let rows = client.query("obj_cost(sled, X).").unwrap().unwrap();
    assert_eq!(rows, vec!["sled, 120"]);
    server.shutdown();
}

#[test]
fn serve_rejects_over_wide_predicates_and_keeps_serving() {
    // A predicate wider than a column mask once panicked the writer
    // thread, after which every request answered "server is shutting
    // down". It must fail alone, as an `err` reply.
    let mut server = spawn_server(CHAIN);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let ints: Vec<String> = (1..=33).map(|i| i.to_string()).collect();
    let err = client
        .add_fact(&format!("p({}).", ints.join(", ")))
        .unwrap()
        .unwrap_err();
    assert!(err.contains("33 arguments"), "got: {err}");
    let vars: Vec<String> = (1..=33).map(|i| format!("X{i}")).collect();
    let goal = format!("p({}).", vars.join(", "));
    assert!(client.query(&goal).unwrap().is_err(), "wide point query");
    // The writer is alive: a normal fact and query still go through.
    client.add_fact("e(d, e5).").unwrap().unwrap();
    let rows = client.query("t(a, X).").unwrap().unwrap();
    assert_eq!(rows, vec!["a, b", "a, c", "a, d", "a, e5"]);
    server.shutdown();
}

#[test]
fn serve_speaks_raw_length_prefixed_frames() {
    // No client helper: hand-rolled frames prove the wire format is
    // what the docs say — u32 big-endian length, UTF-8 payload,
    // `ok <n>` + sorted lines back.
    let mut server = spawn_server(CHAIN);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let payload = "Q t(b, X).";
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut buf).unwrap();
    let response = String::from_utf8(buf).unwrap();
    assert_eq!(response, "ok 2\nb, c\nb, d");
    // Unknown tags answer `err` in a well-formed frame.
    write_frame(&mut stream, "X nonsense").unwrap();
    let response = read_frame(&mut stream).unwrap().expect("frame");
    assert!(response.starts_with("err "), "got: {response}");
    server.shutdown();
}

#[test]
fn serve_metrics_round_trip_over_the_wire() {
    // The `S` op end-to-end: counters move with traffic and the text
    // exposition parses as `name[{labels}] value` lines with latency
    // quantiles for the ops this connection actually issued.
    let mut server = spawn_server(CHAIN);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.query("t(a, X).").unwrap().unwrap(); // cold: funnels
    client.query("t(a, X).").unwrap().unwrap(); // warm: snapshot hit
    let text = client.server_stats().unwrap().unwrap();
    let mut metrics = std::collections::BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line.rsplit_once(' ').expect("`name value` line");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample `{line}` in:\n{text}"
        );
        metrics.insert(name.to_owned(), value.to_owned());
    }
    assert_eq!(metrics.get("lps_snapshot_hits_total").unwrap(), "1");
    assert_eq!(metrics.get("lps_snapshot_misses_total").unwrap(), "1");
    assert_eq!(metrics.get("lps_republish_total").unwrap(), "1");
    assert_eq!(metrics.get("lps_funnel_depth").unwrap(), "0");
    for q in ["0.5", "0.95", "0.99"] {
        assert!(
            metrics.contains_key(&format!("lps_op_q_us{{quantile=\"{q}\"}}")),
            "missing Q latency quantile {q} in:\n{text}"
        );
    }
    assert_eq!(metrics.get("lps_op_q_us_count").unwrap(), "2");
    // The snapshot-hit summary covers the one warm repeat only.
    assert!(
        metrics.contains_key("lps_op_q_hit_us{quantile=\"0.99\"}"),
        "missing hit latency quantile in:\n{text}"
    );
    assert_eq!(metrics.get("lps_op_q_hit_us_count").unwrap(), "1");
    // A second scrape sees the first one's latency histogram.
    let text = client.server_stats().unwrap().unwrap();
    assert!(text.contains("lps_op_s_us_count 1"), "{text}");
    server.shutdown();
}

#[test]
fn serve_supports_concurrent_clients() {
    let mut server = spawn_server(CHAIN);
    let addr = server.local_addr();
    let want = vec!["a, b".to_string(), "a, c".into(), "a, d".into()];
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let want = want.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..10 {
                    assert_eq!(client.query("t(a, X).").unwrap().unwrap(), want);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.shutdown();
}

/// Render owned answer rows the way the wire promised before replies
/// were rendered from interned ids: `Value` rows, sorted, each cell's
/// `to_string` joined by `", "`.
fn value_reference(rows: &[Vec<Value>]) -> Vec<String> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows.iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            cells.join(", ")
        })
        .collect()
}

#[test]
fn serve_renders_sets_and_mixed_sorts_in_value_order() {
    // `{b, a}` comes first, so `b` is interned before `a`: interning
    // order and `Value` order disagree inside sets and between rows.
    let program = "item(k, {b, a}). item(k, 3). item(k, -2). item(k, f(z, {c, b})).\n\
                   item(k, a). item(k, {}). item(k, {{b}, a}). item(k, g). item(j, {a}).\n";
    let mut db = Database::new(Dialect::Elps);
    db.load_str(program).expect("load program");
    let mut model = db.evaluate().expect("evaluate");
    let k = Some(Value::atom("k"));
    let ab = Some(Value::set([Value::atom("a"), Value::atom("b")]));
    let cases = [
        ("item(k, X).", model.query("item", &[k, None]).unwrap().rows),
        (
            "item(K, {a, b}).",
            model.query("item", &[None, ab]).unwrap().rows,
        ),
    ];
    let mut server = spawn_server(program);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (goal, rows) in &cases {
        let want = value_reference(rows);
        let hits = server.snapshot_hits();
        let first = client.query(goal).unwrap().unwrap();
        assert_eq!(server.snapshot_hits(), hits, "{goal}: first ask funnels");
        assert_eq!(first, want, "{goal}: writer reply");
        let second = client.query(goal).unwrap().unwrap();
        assert_eq!(server.snapshot_hits(), hits + 1, "{goal}: repeat hits");
        assert_eq!(second, want, "{goal}: snapshot reply");
    }
    assert_eq!(
        value_reference(&cases[0].1),
        [
            "k, a",
            "k, g",
            "k, -2",
            "k, 3",
            "k, f(z, {b, c})",
            "k, {}",
            "k, {a, b}",
            "k, {a, {b}}",
        ]
    );
    // Conjunctive goals always take the writer.
    let goal = "item(K, X), K != j.";
    let want = value_reference(&model.query_str(goal).unwrap().rows);
    assert_eq!(want.len(), 8);
    assert_eq!(client.query(goal).unwrap().unwrap(), want);
    server.shutdown();
}
