//! Concurrent query serving over a length-prefixed wire protocol.
//!
//! A [`Server`] is the single-writer / many-reader split of the
//! engine's snapshot layer ([`lps_engine::snapshot`]) put on the
//! network: one **writer thread** owns the live [`Model`] and its
//! [`SnapshotPublisher`]; one blocking **handler thread per
//! connection** answers queries from the latest published
//! [`EngineSnapshot`](lps_engine::EngineSnapshot) whenever it can —
//! holding the snapshot read lock only to clone the epoch's `Arc`,
//! never waiting on the writer — and funnels everything else (cold
//! adornments, new seed constants, conjunctive goals, fact additions)
//! to the writer over an mpsc channel. After every write or funneled
//! query that changed the engine the writer republishes, so later
//! readers hit.
//!
//! # Wire format
//!
//! Both directions are framed as a big-endian `u32` byte length
//! followed by that many bytes of UTF-8. Requests are one frame:
//!
//! ```text
//! Q <goal>     answer a query goal, e.g. `Q path(a, X).`
//!              (the goal ends with `.`, conjunctions allowed)
//! F <fact>     add ground fact clause(s), e.g. `F edge(a, b).`
//! S            server metrics: Prometheus-style text exposition
//!              (snapshot hits/misses, funnel depth, republish count,
//!              per-op, snapshot-hit and publish latency quantiles),
//!              answered connection-side
//! ```
//!
//! The response is one frame, sent with one write: a first line `ok <n>`
//! or `err <message>`, followed by `n` answer lines. For a
//! single-predicate *point* query (arguments are distinct variables or
//! ground terms) each line is a full tuple in the predicate's argument
//! order, rendered as values joined by `", "`; for a conjunctive goal
//! each line is the binding of the goal's free variables in
//! first-appearance order. Lines are sorted, so byte-equality of
//! responses is answer-set equality. A fully ground point query echoes
//! the matching tuple (`ok 1`) or answers `ok 0`; a fully ground
//! *conjunctive* goal answers `ok 1` with one empty line ("yes") or
//! `ok 0` ("no").
//!
//! # Consistency
//!
//! A snapshot-served answer is exactly what the sequential engine
//! would answer at that epoch; a funneled answer is computed by the
//! writer on the live engine. Readers never see a torn epoch: the
//! snapshot `Arc` pins store, registry, relations, and plans together
//! (property-tested in `crates/engine/tests/prop_serve.rs`).

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lps_engine::{SnapshotPublisher, SnapshotReader};
use lps_term::{TermId, TermStore};

use crate::database::{Database, Model};
use crate::error::CoreError;
use crate::transform::magic::{classify_goal, Goal};

/// Frames larger than this are rejected (a corrupt length prefix would
/// otherwise ask for gigabytes).
const MAX_FRAME: u32 = 1 << 24;

/// Write one length-prefixed UTF-8 frame: the length prefix and the
/// payload go out together in a single `write_all`.
pub fn write_frame(stream: &mut impl Write, payload: &str) -> io::Result<()> {
    let mut frame = Frame::empty();
    frame.0.push_str(payload);
    frame.send(stream)
}

/// One outbound frame, built in place: four placeholder bytes for the
/// big-endian length prefix, then the UTF-8 payload. [`Frame::send`]
/// fills in the prefix and writes the whole frame with one
/// `write_all`, so a request or a reply is one syscall and, under
/// `TCP_NODELAY`, one segment. Every server reply — answers, `F` acks,
/// `err` and the `S` exposition — is rendered straight into one.
struct Frame(String);

impl Frame {
    /// A frame with an empty payload.
    fn empty() -> Frame {
        Frame(String::from("\0\0\0\0"))
    }

    /// A reply whose first line is `ok <n>`; the caller appends the
    /// `n` answer lines, each as `\n` followed by the line.
    fn ok(n: usize) -> Frame {
        let mut frame = Frame::empty();
        let _ = write!(frame.0, "ok {n}");
        frame
    }

    /// An `err <message>` reply. A newline in `msg` becomes a space, so
    /// the message stays on the reply's one line.
    fn err(msg: &str) -> Frame {
        let mut frame = Frame::empty();
        let _ = write!(frame.0, "err {}", msg.replace('\n', " "));
        frame
    }

    /// The payload text (the frame without its length prefix).
    fn payload(&self) -> &str {
        &self.0[4..]
    }

    /// Fill in the length prefix and write the frame in one `write_all`.
    fn send(self, stream: &mut impl Write) -> io::Result<()> {
        let len = u32::try_from(self.payload().len())
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let mut bytes = self.0.into_bytes();
        bytes[..4].copy_from_slice(&len.to_be_bytes());
        stream.write_all(&bytes)?;
        stream.flush()
    }
}

/// One inbound frame, classified so the server can answer malformed
/// input with an `err` frame instead of silently hanging up.
enum FrameIn {
    /// A well-formed frame.
    Msg(String),
    /// Clean EOF at a frame boundary.
    Eof,
    /// The length prefix exceeded [`MAX_FRAME`]. The payload was *not*
    /// read, so the stream cannot be re-synced to the next frame.
    TooLarge(u32),
    /// The payload was read but is not valid UTF-8; the stream is
    /// still framed and the connection can continue.
    BadUtf8,
}

fn read_frame_raw(stream: &mut impl Read) -> io::Result<FrameIn> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(FrameIn::Eof),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Ok(FrameIn::TooLarge(len));
    }
    let mut buf = vec![0u8; len as usize];
    stream.read_exact(&mut buf)?;
    match String::from_utf8(buf) {
        Ok(s) => Ok(FrameIn::Msg(s)),
        Err(_) => Ok(FrameIn::BadUtf8),
    }
}

/// Read one length-prefixed UTF-8 frame; `None` on clean EOF at a
/// frame boundary.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<String>> {
    match read_frame_raw(stream)? {
        FrameIn::Msg(s) => Ok(Some(s)),
        FrameIn::Eof => Ok(None),
        FrameIn::TooLarge(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        )),
        FrameIn::BadUtf8 => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame is not valid UTF-8",
        )),
    }
}

/// A response as the [`Client`] decodes it: sorted answer lines, or
/// the error message.
type Reply = Result<Vec<String>, String>;

/// A handler → writer funnel message. The writer answers with the
/// finished reply frame, which the handler sends unchanged.
enum Request {
    /// Answer a goal on the live engine (snapshot could not).
    Query(String, Sender<Frame>),
    /// Apply ground fact clauses.
    Fact(String, Sender<Frame>),
}

/// Server-side metrics, aggregated across all connections and rendered
/// on demand by the `S` wire op. The snapshot hit/miss counters and the
/// funnel depth gauge stay lock-free atomics (they sit on the request
/// hot path); latencies (per op, and the writer's publish time) and
/// the republish count go through the [`lps_trace::Registry`], whose
/// mutex is uncontended at wire timescales.
#[derive(Debug, Default)]
struct ServeMetrics {
    registry: lps_trace::Registry,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Requests funneled to the writer but not yet picked up by it.
    depth: AtomicU64,
}

impl ServeMetrics {
    /// The full Prometheus-style text exposition.
    fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in [
            ("lps_snapshot_hits_total", self.hits.load(Ordering::Relaxed)),
            (
                "lps_snapshot_misses_total",
                self.misses.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        let depth = self.depth.load(Ordering::Relaxed);
        out.push_str(&format!(
            "# TYPE lps_funnel_depth gauge\nlps_funnel_depth {depth}\n"
        ));
        out.push_str(&self.registry.render());
        out
    }
}

/// Decode a response frame payload into a [`Reply`].
fn decode_reply(payload: &str) -> Reply {
    let mut lines = payload.lines();
    let head = lines.next().unwrap_or("");
    if let Some(msg) = head.strip_prefix("err ") {
        return Err(msg.to_owned());
    }
    let n: usize = head
        .strip_prefix("ok ")
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    // `lines()` drops a trailing empty line, so a ground-goal "yes"
    // row (`ok 1` + one empty line) is reconstructed from the count.
    let mut rows: Vec<String> = lines.map(str::to_owned).collect();
    rows.resize(n, String::new());
    Ok(rows)
}

/// Render interned answer rows as the finished `ok <n>` reply frame,
/// the one renderer both serving paths share: rows sorted in [`Value`]
/// order ([`TermStore::sort_value_rows`]: by an 8-byte order-preserving
/// key of the first column that varies, comparing terms only where keys
/// tie), then each written straight into the frame as one line with
/// cells joined by `", "` ([`TermStore::write_value`]). Byte-identical
/// to lifting every row to `Vec<Value>`, sorting those, and joining
/// each cell's `to_string` — without building a `Value`, a per-row
/// `String` or a second copy.
fn render_reply<'a>(store: &TermStore, rows: impl Iterator<Item = &'a [TermId]>) -> Frame {
    let mut rows: Vec<&[TermId]> = rows.collect();
    store.sort_value_rows(&mut rows);
    let mut frame = Frame::ok(rows.len());
    for row in rows {
        frame.0.push('\n');
        for (i, &id) in row.iter().enumerate() {
            if i > 0 {
                frame.0.push_str(", ");
            }
            store.write_value(id, &mut frame.0);
        }
    }
    frame
}

/// Try to answer `goal` from the latest published snapshot alone.
/// `None` funnels to the writer: non-point goals, predicates or
/// constants the snapshot has never seen, cold adornments, unseeded
/// constants, stale demand spaces.
fn snapshot_answer(goal: &str, reader: &SnapshotReader) -> Option<Frame> {
    let Ok(Goal::Point { pred, args }) = classify_goal(goal) else {
        return None;
    };
    let snap = reader.current();
    let pred = snap.find_pred(&pred, args.len())?;
    let mut interned: Vec<Option<TermId>> = Vec::with_capacity(args.len());
    for a in &args {
        match a {
            None => interned.push(None),
            Some(v) => interned.push(Some(v.find(snap.store())?)),
        }
    }
    let rows = snap.try_query(pred, &interned)?;
    Some(render_reply(snap.store(), rows.iter()))
}

/// Answer `goal` on the live engine (the writer thread), mirroring the
/// `lpsi` query pipeline: point queries take [`Model::query_view`]
/// (full tuples in predicate shape), everything else compiles as a
/// temporary conjunctive rule via [`Model::query_str_view`] (binding
/// rows). Both hand back interned rows for [`render_reply`].
fn writer_query(model: &mut Model, goal: &str) -> Frame {
    let answers = match classify_goal(goal) {
        Ok(Goal::Point { pred, args }) => model.query_view(&pred, &args),
        Ok(Goal::Conjunctive) => model.query_str_view(goal),
        Err(e) => return Frame::err(&e.render(goal)),
    };
    match answers {
        Ok(answers) => render_reply(answers.store(), answers.iter()),
        Err(e) => Frame::err(&e.to_string()),
    }
}

/// Apply `text` as ground facts on the live engine, all or nothing.
/// Rules and declarations are rejected — the served program is fixed
/// at spawn.
fn writer_fact(model: &mut Model, text: &str) -> Frame {
    match model.load_facts(text) {
        Ok(_) => Frame::ok(0),
        Err(e) => Frame::err(&e.render(text)),
    }
}

/// The writer loop: the one thread that mutates the engine. Every
/// handled request ends with a publish, so snapshot readers converge
/// on the writer's answers; a request that changed nothing a snapshot
/// holds (an error, a duplicate fact, a repeat) mints no epoch and is
/// not counted in `lps_republish_total` or `lps_publish_us`.
fn writer_loop(
    mut model: Model,
    mut publisher: SnapshotPublisher,
    rx: Receiver<Request>,
    shutdown: Arc<AtomicBool>,
    metrics: Arc<ServeMetrics>,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let req = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(req) => req,
            Err(mpsc::RecvTimeoutError::Timeout) => continue,
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        metrics.depth.fetch_sub(1, Ordering::Relaxed);
        let _span = lps_trace::enabled().then(|| {
            lps_trace::span("serve_writer").arg(
                "op",
                match &req {
                    Request::Query(..) => "query",
                    Request::Fact(..) => "fact",
                },
            )
        });
        let (reply_to, reply) = match req {
            Request::Query(goal, tx) => (tx, writer_query(&mut model, &goal)),
            Request::Fact(text, tx) => (tx, writer_fact(&mut model, &text)),
        };
        let epoch = publisher.epoch();
        let start = Instant::now();
        if publisher.publish(model.engine_mut()) != epoch {
            let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
            metrics.registry.observe("lps_publish_us", us);
            metrics.registry.inc("lps_republish_total");
        }
        let _ = reply_to.send(reply);
    }
}

/// One connection's handler loop: read a frame, serve or funnel,
/// respond, until the peer hangs up.
fn handle_conn(
    mut stream: TcpStream,
    reader: SnapshotReader,
    tx: Sender<Request>,
    metrics: Arc<ServeMetrics>,
) {
    let funnel = |req: Request, rx: &Receiver<Frame>, tx: &Sender<Request>| -> Frame {
        metrics.depth.fetch_add(1, Ordering::Relaxed);
        if tx.send(req).is_err() {
            // Never enqueued: the writer is gone, so nothing will
            // decrement the depth for this request.
            metrics.depth.fetch_sub(1, Ordering::Relaxed);
            return Frame::err("server is shutting down");
        }
        rx.recv()
            .unwrap_or_else(|_| Frame::err("server is shutting down"))
    };
    loop {
        let msg = match read_frame_raw(&mut stream) {
            Ok(FrameIn::Msg(msg)) => msg,
            Ok(FrameIn::Eof) | Err(_) => return,
            Ok(FrameIn::TooLarge(len)) => {
                // The oversized payload was never read, so the stream
                // cannot be re-synced to the next frame boundary. Tell
                // the peer why before hanging up instead of vanishing.
                let _ = Frame::err(&format!("frame too large ({len} bytes > {MAX_FRAME} max)"))
                    .send(&mut stream);
                return;
            }
            Ok(FrameIn::BadUtf8) => {
                // The payload was consumed, so the connection is still
                // framed — report the error and keep serving.
                if Frame::err("frame is not valid UTF-8")
                    .send(&mut stream)
                    .is_err()
                {
                    return;
                }
                continue;
            }
        };
        let (tag, rest) = msg.split_once(' ').unwrap_or((msg.as_str(), ""));
        let _span = lps_trace::enabled().then(|| lps_trace::span("serve_req").arg("op", tag));
        let start = Instant::now();
        let mut hit = false;
        let reply = match tag {
            "Q" => match snapshot_answer(rest, &reader) {
                Some(frame) => {
                    metrics.hits.fetch_add(1, Ordering::Relaxed);
                    hit = true;
                    frame
                }
                None => {
                    metrics.misses.fetch_add(1, Ordering::Relaxed);
                    let (rtx, rrx) = mpsc::channel();
                    funnel(Request::Query(rest.to_owned(), rtx), &rrx, &tx)
                }
            },
            "F" => {
                let (rtx, rrx) = mpsc::channel();
                funnel(Request::Fact(rest.to_owned(), rtx), &rrx, &tx)
            }
            "S" => {
                let text = metrics.render();
                let mut frame = Frame::ok(text.lines().count());
                for line in text.lines() {
                    frame.0.push('\n');
                    frame.0.push_str(line);
                }
                frame
            }
            other => Frame::err(&format!(
                "unknown request `{other}` (Q <goal> | F <fact> | S)"
            )),
        };
        // From the frame read to the reply rendered; the write is not
        // counted. Hits are also timed on their own, so the cost of the
        // snapshot path shows apart from funneled queries.
        let us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        match tag {
            "Q" => {
                metrics.registry.observe("lps_op_q_us", us);
                if hit {
                    metrics.registry.observe("lps_op_q_hit_us", us);
                }
            }
            "F" => metrics.registry.observe("lps_op_f_us", us),
            "S" => metrics.registry.observe("lps_op_s_us", us),
            _ => {}
        }
        if reply.send(&mut stream).is_err() {
            return;
        }
    }
}

/// A running query server: the writer thread, the accept loop, and
/// per-connection handler threads. Shuts down on drop.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    metrics: Arc<ServeMetrics>,
}

impl Server {
    /// Compile `db` into a live demand-driven session and serve it on
    /// `listener`. The session starts un-materialized: queries are
    /// answered goal-directed, and each funneled query extends the
    /// published snapshot's retained demand plans.
    pub fn spawn(listener: TcpListener, db: &Database) -> Result<Server, CoreError> {
        let mut model = db.session()?;
        let publisher = SnapshotPublisher::new(model.engine_mut());
        let reader = publisher.reader();
        let addr = listener
            .local_addr()
            .expect("a bound listener has a local address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServeMetrics::default());
        let (tx, rx) = mpsc::channel();
        let writer = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || writer_loop(model, publisher, rx, shutdown, metrics))
        };
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    // A reply is one write (length prefix and payload in
                    // one buffer), but with Nagle on, a small write that
                    // follows unacknowledged data still waits for the
                    // peer's delayed ACK (~40ms per round-trip).
                    stream.set_nodelay(true).ok();
                    let reader = reader.clone();
                    let tx = tx.clone();
                    let metrics = Arc::clone(&metrics);
                    std::thread::spawn(move || handle_conn(stream, reader, tx, metrics));
                }
            })
        };
        Ok(Server {
            addr,
            shutdown,
            accept: Some(accept),
            writer: Some(writer),
            metrics,
        })
    }

    /// The address the server is listening on (resolved, so a `:0`
    /// bind reports the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Queries answered from a published snapshot, without the writer.
    pub fn snapshot_hits(&self) -> u64 {
        self.metrics.hits.load(Ordering::Relaxed)
    }

    /// Queries funneled to the writer.
    pub fn snapshot_misses(&self) -> u64 {
        self.metrics.misses.load(Ordering::Relaxed)
    }

    /// The current metrics exposition — the same text the `S` wire op
    /// returns, for in-process embedders.
    pub fn metrics_text(&self) -> String {
        self.metrics.render()
    }

    /// Signal shutdown and join the accept and writer threads.
    /// Idempotent; `Drop` calls it, and in-process embedders (tests,
    /// the e2e smoke) call it directly for a deterministic stop.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.writer.take() {
            let _ = h.join();
        }
    }

    /// Block the calling thread while the server runs (until another
    /// thread drops or signals it — used by `lpsi --serve`).
    pub fn serve_forever(self) -> ! {
        loop {
            std::thread::park();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A blocking wire-protocol client (used by `lpsi --client`, the e2e
/// smoke test, and the E17 throughput experiment).
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a [`Server`].
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client { stream })
    }

    fn roundtrip(&mut self, request: &str) -> io::Result<Reply> {
        write_frame(&mut self.stream, request)?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Ok(decode_reply(&payload)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }

    /// Answer a query goal (ending with `.`). `Ok(Ok(rows))` are the
    /// sorted answer lines; `Ok(Err(msg))` is a server-side error.
    pub fn query(&mut self, goal: &str) -> io::Result<Result<Vec<String>, String>> {
        self.roundtrip(&format!("Q {goal}"))
    }

    /// Add ground fact clause(s).
    pub fn add_fact(&mut self, text: &str) -> io::Result<Result<(), String>> {
        Ok(self.roundtrip(&format!("F {text}"))?.map(|_| ()))
    }

    /// Fetch the server's metrics exposition (the `S` op):
    /// Prometheus-style text with counters, gauges, and per-op latency
    /// summaries.
    pub fn server_stats(&mut self) -> io::Result<Result<String, String>> {
        Ok(self.roundtrip("S")?.map(|rows| rows.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;

    fn chain_db() -> Database {
        let mut db = Database::new(Dialect::Elps);
        db.load_str(
            "e(a, b). e(b, c). e(c, d).
             t(X, Y) :- e(X, Y). t(X, Z) :- e(X, Y), t(Y, Z).",
        )
        .unwrap();
        db
    }

    fn local_server(db: &Database) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Server::spawn(listener, db).unwrap()
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "Q t(a, X).").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), "Q t(a, X).");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn reply_codec_preserves_ground_yes() {
        let mut yes = Frame::ok(1);
        yes.0.push('\n');
        assert_eq!(yes.payload(), "ok 1\n");
        assert_eq!(decode_reply(yes.payload()), Ok(vec![String::new()]));
        let mut rows = Frame::ok(2);
        rows.0.push_str("\na, b\na, c");
        assert_eq!(
            decode_reply(rows.payload()),
            Ok(vec!["a, b".into(), "a, c".into()])
        );
        let err = Frame::err("bad\ngoal");
        assert_eq!(err.payload(), "err bad goal");
        assert_eq!(decode_reply(err.payload()), Err("bad goal".into()));
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Records each `write` call's bytes.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wire = Writes::default();
        Frame::ok(0).send(&mut wire).unwrap();
        write_frame(&mut wire, "Q t(a, X).").unwrap();
        assert_eq!(
            wire.0,
            [b"\0\0\0\x04ok 0".to_vec(), b"\0\0\0\x0aQ t(a, X).".to_vec()]
        );
    }

    #[test]
    fn serves_point_queries_and_repeats_hit_the_snapshot() {
        let db = chain_db();
        let server = local_server(&db);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // Cold: the first query funnels (no plan published yet).
        let rows = client.query("t(a, X).").unwrap().unwrap();
        assert_eq!(rows, vec!["a, b", "a, c", "a, d"]);
        assert_eq!(server.snapshot_hits(), 0);
        // Warm: the republished epoch serves the repeat, no funnel.
        let rows = client.query("t(a, X).").unwrap().unwrap();
        assert_eq!(rows, vec!["a, b", "a, c", "a, d"]);
        assert_eq!(server.snapshot_hits(), 1);
        // A constant the recursive rewrite already seeded (the magic
        // fixpoint for `a` demands everything `a` reaches) is served
        // from the snapshot on first sight.
        let rows = client.query("t(b, X).").unwrap().unwrap();
        assert_eq!(rows, vec!["b, c", "b, d"]);
        assert_eq!(server.snapshot_hits(), 2);
        // A cold adornment funnels, then its repeat hits.
        let rows = client.query("t(X, d).").unwrap().unwrap();
        assert_eq!(rows, vec!["a, d", "b, d", "c, d"]);
        assert_eq!(server.snapshot_hits(), 2);
        let _ = client.query("t(X, d).").unwrap().unwrap();
        assert_eq!(server.snapshot_hits(), 3);
    }

    #[test]
    fn facts_invalidate_and_queries_reconverge() {
        let db = chain_db();
        let server = local_server(&db);
        let mut client = Client::connect(server.local_addr()).unwrap();
        assert_eq!(client.query("t(c, X).").unwrap().unwrap(), vec!["c, d"]);
        client.add_fact("e(d, e).").unwrap().unwrap();
        // The new edge must show up — via funnel or a republished hit.
        let rows = client.query("t(c, X).").unwrap().unwrap();
        assert_eq!(rows, vec!["c, d", "c, e"]);
        // A ground point query echoes the tuple (yes) or answers none.
        assert_eq!(
            client.query("t(a, e).").unwrap().unwrap(),
            vec!["a, e"],
            "ground point query: the matching tuple"
        );
        assert!(client.query("t(e, a).").unwrap().unwrap().is_empty());
        // A ground conjunctive goal answers with one empty row (yes).
        assert_eq!(
            client.query("t(a, e), t(c, e).").unwrap().unwrap(),
            vec![String::new()],
            "ground conjunctive goal: yes"
        );
    }

    #[test]
    fn conjunctive_goals_and_errors_funnel() {
        let db = chain_db();
        let server = local_server(&db);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let rows = client.query("t(a, X), e(X, Y).").unwrap().unwrap();
        assert_eq!(rows, vec!["b, c", "c, d"]);
        assert!(client.query("t(a, X").unwrap().is_err(), "syntax error");
        assert!(
            client.add_fact("p(X) :- q(X).").unwrap().is_err(),
            "rules are rejected over the wire"
        );
    }

    #[test]
    fn server_stats_exposes_counters_and_latency_quantiles() {
        let db = chain_db();
        let mut server = local_server(&db);
        let mut client = Client::connect(server.local_addr()).unwrap();
        // One miss (cold plan), then one hit.
        client.query("t(a, X).").unwrap().unwrap();
        client.query("t(a, X).").unwrap().unwrap();
        let text = client.server_stats().unwrap().unwrap();
        assert!(text.contains("lps_snapshot_hits_total 1"), "{text}");
        assert!(text.contains("lps_snapshot_misses_total 1"), "{text}");
        assert!(text.contains("lps_funnel_depth 0"), "{text}");
        assert!(text.contains("lps_republish_total 1"), "{text}");
        assert!(text.contains("lps_publish_us_count 1"), "{text}");
        assert!(
            text.contains("lps_op_q_us{quantile=\"0.5\"}")
                && text.contains("lps_op_q_us{quantile=\"0.99\"}")
                && text.contains("lps_op_q_us_count 2"),
            "{text}"
        );
        // Snapshot hits are timed on their own as well: one so far.
        assert!(
            text.contains("lps_op_q_hit_us{quantile=\"0.5\"}")
                && text.contains("lps_op_q_hit_us_count 1"),
            "{text}"
        );
        // Counters move again after more traffic, and the exposition
        // matches what the in-process accessor renders.
        client.query("t(a, X).").unwrap().unwrap();
        let text = client.server_stats().unwrap().unwrap();
        assert!(text.contains("lps_snapshot_hits_total 2"), "{text}");
        assert!(text.contains("lps_op_s_us_count 1"), "{text}");
        assert!(text.contains("lps_op_q_hit_us_count 2"), "{text}");
        // A cold adornment mints one more epoch, timed like the first.
        client.query("t(X, d).").unwrap().unwrap();
        let text = client.server_stats().unwrap().unwrap();
        assert_eq!(
            metric(&text, "lps_publish_us_count"),
            metric(&text, "lps_republish_total"),
            "{text}"
        );
        assert_eq!(metric(&text, "lps_republish_total"), 2, "{text}");
        assert!(server.metrics_text().contains("lps_snapshot_hits_total 2"));
        server.shutdown();
        server.shutdown(); // idempotent
    }

    /// The value of an unlabelled sample `name` in an exposition text.
    fn metric(text: &str, name: &str) -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no sample {name} in {text}"))
    }

    #[test]
    fn unchanged_engine_is_not_republished() {
        let db = chain_db();
        let server = local_server(&db);
        let mut client = Client::connect(server.local_addr()).unwrap();
        client.query("t(a, X).").unwrap().unwrap();
        let stats = |client: &mut Client| client.server_stats().unwrap().unwrap();
        let before = metric(&stats(&mut client), "lps_republish_total");
        assert_eq!(before, 1, "the cold plan mints one epoch");
        // An error reply, a rejected rule and a duplicate fact leave
        // the engine as published: no new epoch.
        assert!(client.query("t(a, X").unwrap().is_err());
        assert!(client.add_fact("p(X) :- q(X).").unwrap().is_err());
        client.add_fact("e(a, b).").unwrap().unwrap();
        let text = stats(&mut client);
        assert_eq!(metric(&text, "lps_republish_total"), before, "{text}");
        assert_eq!(metric(&text, "lps_publish_us_count"), before, "{text}");
        // The epoch still serves: the repeat query hits.
        let hits = server.snapshot_hits();
        let rows = client.query("t(a, X).").unwrap().unwrap();
        assert_eq!(rows, vec!["a, b", "a, c", "a, d"]);
        assert_eq!(server.snapshot_hits(), hits + 1);
    }

    #[test]
    fn bad_utf8_frame_gets_err_reply_and_connection_survives() {
        let db = chain_db();
        let server = local_server(&db);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).ok();
        let payload = [0xffu8, 0xfe, 0xfd];
        stream
            .write_all(&u32::try_from(payload.len()).unwrap().to_be_bytes())
            .unwrap();
        stream.write_all(&payload).unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        assert!(reply.starts_with("err "), "{reply}");
        assert!(reply.contains("UTF-8"), "{reply}");
        // The stream is still framed: a well-formed request works.
        write_frame(&mut stream, "Q e(a, X).").unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        assert!(reply.starts_with("ok 1"), "{reply}");
    }

    #[test]
    fn oversized_frame_gets_err_reply_then_close() {
        let db = chain_db();
        let server = local_server(&db);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).ok();
        // A length prefix past MAX_FRAME with no payload behind it: the
        // server cannot re-sync, so it must explain and hang up rather
        // than silently disconnect.
        stream.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
        let reply = read_frame(&mut stream).unwrap().unwrap();
        assert!(reply.starts_with("err frame too large"), "{reply}");
        assert!(read_frame(&mut stream).unwrap().is_none(), "closed after");
    }

    #[test]
    fn concurrent_clients_agree_with_sequential_answers() {
        let db = chain_db();
        let server = local_server(&db);
        let addr = server.local_addr();
        let want = vec!["a, b".to_string(), "a, c".into(), "a, d".into()];
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let want = want.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    for _ in 0..20 {
                        assert_eq!(client.query("t(a, X).").unwrap().unwrap(), want);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            server.snapshot_hits() > 0,
            "concurrent repeats must hit the snapshot path"
        );
    }
}
