//! `lpsi` — an interactive LPS/ELPS session.
//!
//! ```text
//! cargo run --bin lpsi [program.lps ...]
//! cargo run --bin lpsi -- --serve ADDR [program.lps ...]
//! cargo run --bin lpsi -- --client ADDR
//! ```
//!
//! `--serve` compiles the given program files and serves them
//! concurrently on `ADDR` (e.g. `127.0.0.1:7171`; port `0` picks a
//! free port, printed as `listening on <addr>`): one writer thread
//! owns the engine, every connection gets a handler thread answering
//! point queries from epoch-published snapshots without waiting on the
//! writer (`lps_core::serve`). `--client` connects a line-oriented
//! REPL to a running server: `?- goal.` queries, bare fact clauses add
//! facts.
//!
//! Without those flags, program files (and stdin lines ending in `.`)
//! accumulate facts and rules; `?- literal.` queries evaluate the
//! accumulated program and print the matching tuples. Commands:
//!
//! ```text
//! :help                  this text
//! :dialect NAME          purelps | lps | elps | stratified
//! :universe POLICY       reject | active | subsets N
//! :demand on|cold|off    demand-driven (magic-set) query answering
//!                        (on = retained demand spaces, cold = clear
//!                        every demand space before each query)
//! :planner on|off|stats  cost-based join ordering and SIPS selection
//!                        (on by default; `stats` prints the
//!                        per-predicate cardinality snapshot); answers
//!                        are identical either way
//! :profile GOAL          run GOAL with per-literal profiling: the
//!                        planner's estimated rows next to the actual
//!                        probes/rows of each body literal
//! :profile               materialize the model with per-rule
//!                        profiling: the rules by share of the time
//! :explain GOAL          chosen adornment, SIPS, and join order for a
//!                        point goal, without running it
//! :model PRED            print a predicate's extension
//! :program               print the accumulated program
//! :normalized            print the Theorem-6-compiled program
//! :sorts                 print inferred predicate signatures
//! :stats [reset]         evaluation statistics of the session
//!                        (`reset` zeroes last-pass and cumulative)
//! :reset                 drop facts, keep rules and compiled plans
//! :clear                 drop the accumulated program
//! :quit                  exit
//! ```
//!
//! `--trace-out FILE` turns on structured tracing (`vendor/lps_trace`)
//! for the session and writes the collected spans as Chrome
//! trace-format JSON (load in `chrome://tracing` or Perfetto) when the
//! session ends. `:server-stats` in `--client` mode fetches the
//! server's metrics exposition (the `S` wire op).
//!
//! The session keeps one live engine. With demand mode on (the
//! default), queries are answered *goal-directed*: the engine
//! magic-rewrites the rules reachable from the goal for its bound/free
//! pattern, caches the specialized plan per adornment (conjunctions
//! per goal shape, constants lifted into magic seeds), and derives
//! only the tuples the goal's bindings can reach — the model is never
//! materialized unless a command (`:model`) or a non-monotone goal
//! forces it. Demand spaces are *retained*: repeated queries are pure
//! reads, new constants and ground facts entered between queries
//! continue the fixpoint incrementally (`:stats` shows `demand_cont`),
//! and `:demand cold` clears the demand spaces before each query (each
//! query re-derives from its own seed; compiled plans stay cached).
//! Queries may be conjunctions (`?- tc(a, X), q(X, {b}).`), compiled
//! as temporary query rules. With demand off — or once a model
//! exists — queries read the materialized model, and ground facts
//! entered afterwards are folded in by the engine's incremental
//! update path (seeded semi-naive deltas) instead of recomputing from
//! scratch. Rules, dialect, or universe changes rebuild the session;
//! `:reset` keeps rules and batch plans but evicts demand plans,
//! reclaiming their relation space.

#![forbid(unsafe_code)]

use std::io::{self, BufRead, Write};

use lps::core::{classify_goal, Goal};
use lps::{Database, Dialect, EvalConfig, EvalStats, Model, SetUniverse};
use lps_syntax::{parse_program, pretty_program, Clause, Item, Program};

struct Session {
    dialect: Dialect,
    config: EvalConfig,
    /// The accumulated program text, for `:program` and `:reset`.
    source: String,
    /// The accumulated program, loaded once and grown by each addition;
    /// `None` after a dialect or configuration change or a `:reset`,
    /// until the next use loads it again from `source`.
    db: Option<Database>,
    /// Demand-driven query answering: queries compile magic-set plans
    /// instead of materializing the model first.
    demand: bool,
    /// Cold demand mode: every demand space is cleared before each
    /// query, so each query re-derives from its own seed.
    cold: bool,
    /// The live engine session, created by the first query (demand
    /// mode loads it *without* materializing) and maintained
    /// incrementally; `None` until then or after anything that
    /// invalidates the compiled program (rules, dialect/universe
    /// changes, `:clear`).
    model: Option<Model>,
    last_stats: Option<EvalStats>,
}

impl Session {
    fn new() -> Self {
        Session {
            dialect: Dialect::StratifiedElps,
            config: EvalConfig::default(),
            source: String::new(),
            db: None,
            demand: true,
            cold: false,
            model: None,
            last_stats: None,
        }
    }

    fn database(&mut self) -> Result<&mut Database, String> {
        if self.db.is_none() {
            let mut db = Database::with_config(self.dialect, self.config);
            db.load_str(&self.source).map_err(|e| e.to_string())?;
            self.db = Some(db);
        }
        Ok(self.db.as_mut().expect("just loaded"))
    }

    /// Drop the live session (rules changed).
    fn invalidate(&mut self) {
        self.model = None;
    }

    /// Drop the live session and the loaded program (the dialect or
    /// the configuration changed).
    fn reconfigure(&mut self) {
        self.db = None;
        self.invalidate();
    }

    /// The live session, loaded but not necessarily materialized —
    /// the entry point for demand-driven queries.
    fn ensure_session(&mut self) -> Result<&mut Model, String> {
        if self.model.is_none() {
            let model = self.database()?.session().map_err(|e| e.to_string())?;
            self.model = Some(model);
        }
        Ok(self.model.as_mut().expect("just ensured"))
    }

    /// The up-to-date *materialized* model: built on first use, then
    /// maintained by incremental updates (a no-op when nothing is
    /// pending).
    fn ensure_model(&mut self) -> Result<&mut Model, String> {
        self.ensure_session()?;
        let model = self.model.as_mut().expect("just ensured");
        if model.needs_update() {
            model.update().map_err(|e| e.to_string())?;
        }
        let stats = model.stats();
        self.last_stats = Some(stats);
        Ok(self.model.as_mut().expect("just ensured"))
    }

    /// Add program text (facts/rules), validating eagerly so errors
    /// point at the offending line: only `text` is loaded, and a
    /// rejected addition is rolled back. Text made only of ground facts
    /// flows into the live session, which absorbs it incrementally;
    /// anything else invalidates it.
    fn add(&mut self, text: &str) -> Result<(), String> {
        // Parse standalone first for a precise message.
        parse_program(text).map_err(|e| e.render(text))?;
        let db = self.database()?;
        let mark = db.mark();
        if let Err(e) = db.load_str(text).and_then(|db| db.check()) {
            db.rollback(mark);
            return Err(e.to_string());
        }
        self.source.push_str(text);
        self.source.push('\n');
        if let Some(model) = self.model.as_mut() {
            if model.load_facts(text).is_err() {
                self.invalidate();
            }
        }
        Ok(())
    }

    /// Run a query — a goal conjunction like `?- tc(a, X), q(X, {b}).`
    /// — and print the matching rows. A single positive literal whose
    /// arguments are distinct variables or ground terms takes the
    /// point-query path (`Engine::query`, plan cached per bound/free
    /// adornment); everything else compiles as a temporary query rule.
    /// With demand mode off the model is materialized first and the
    /// same pipeline reads it.
    fn query(&mut self, text: &str) -> Result<(), String> {
        let goal = classify_goal(text).map_err(|e| e.render(text))?;
        let cold = self.cold;
        let model = if self.demand {
            self.ensure_session()?
        } else {
            self.ensure_model()?
        };
        if cold {
            model.engine_mut().clear_demand_spaces();
        }
        let answers = match &goal {
            Goal::Point { pred, args } => model.query(pred, args),
            Goal::Conjunctive => model.query_str(text),
        }
        .map_err(|e| e.to_string())?;
        let stats = model.stats();
        self.last_stats = Some(stats);

        match &goal {
            Goal::Point { pred, .. } => {
                // Point queries print in the predicate's own shape.
                for row in &answers.rows {
                    let rendered: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    println!("  {pred}({})", rendered.join(", "));
                }
            }
            Goal::Conjunctive if answers.columns.is_empty() => {
                // Fully ground goal: a single empty row means yes.
                println!(
                    "  {}",
                    if answers.rows.is_empty() {
                        "no."
                    } else {
                        "yes."
                    }
                );
                return Ok(());
            }
            Goal::Conjunctive => {
                // Conjunctive goal: print variable bindings.
                for row in &answers.rows {
                    let bindings: Vec<String> = answers
                        .columns
                        .iter()
                        .zip(row)
                        .map(|(c, v)| format!("{c} = {v}"))
                        .collect();
                    println!("  {}", bindings.join(", "));
                }
            }
        }
        if answers.rows.is_empty() {
            println!("  no.");
        } else {
            println!("  {} answer(s).", answers.rows.len());
        }
        Ok(())
    }

    /// `:profile <goal>` — run the goal with per-literal profiling on
    /// and print, for each rule of the chosen plan, the planner's
    /// estimated row count next to the actual probes and rows each
    /// body literal produced. The goal runs on a one-off session built
    /// with profiling on, so it derives from a cold plan (on a retained
    /// demand space a repeat query is a pure read, with no per-literal
    /// work to attribute); the next query rebuilds an unprofiled one.
    fn profile(&mut self, text: &str) -> Result<(), String> {
        self.reconfigure();
        let config = self.config;
        self.config.profile = true;
        let outcome = self.query(text);
        self.config = config;
        self.db = None;
        let report = self
            .model
            .take()
            .and_then(|m| m.engine().last_profile().cloned());
        outcome?;
        match report {
            Some(profile) if !profile.rules.is_empty() => {
                println!("  profile (estimated vs actual rows per body literal):");
                for rule in &profile.rules {
                    println!("    {}", rule.head);
                    for lit in &rule.literals {
                        println!(
                            "      {}  est={}  probes={}  rows={}",
                            lit.pred, lit.estimated_rows, lit.probes, lit.actual_rows
                        );
                    }
                }
            }
            _ => println!(
                "  (no per-literal profile — the goal took the \
                 materialized/fallback path, not a demand plan)"
            ),
        }
        Ok(())
    }

    /// `:profile` with no goal — materialize the model with per-rule
    /// profiling on and print the pass's rules by share of the time,
    /// with their evaluations and head tuples. Like `:profile GOAL`,
    /// it runs on a one-off session built with profiling on, so the
    /// pass is a full batch run; the next command rebuilds an
    /// unprofiled session.
    fn profile_pass(&mut self) -> Result<(), String> {
        self.reconfigure();
        let config = self.config;
        self.config.profile = true;
        let outcome = self.ensure_model().map(|_| ());
        self.config = config;
        self.db = None;
        let report = self
            .model
            .take()
            .and_then(|m| m.engine().last_pass_profile().cloned());
        outcome?;
        let Some(profile) = report.filter(|p| !p.rules.is_empty()) else {
            println!("  (no rule was evaluated)");
            return Ok(());
        };
        let total = profile.total_nanos().max(1) as f64;
        println!(
            "  profile (rules by share of {:.3} ms of rule time):",
            total / 1e6
        );
        for rule in &profile.rules {
            println!(
                "    {:5.1}%  {:8.3} ms  evals={}  heads={}  {}",
                100.0 * rule.nanos as f64 / total,
                rule.nanos as f64 / 1e6,
                rule.evals,
                rule.heads,
                rule.plan
            );
        }
        Ok(())
    }

    /// `:explain <goal>` — print the chosen adornment, SIPS policy,
    /// and per-rule join order for a point goal without running it.
    fn explain(&mut self, text: &str) -> Result<(), String> {
        let Goal::Point { pred, args } = classify_goal(text).map_err(|e| e.render(text))? else {
            return Err("`:explain` takes a single point goal, e.g. `:explain t(a, X).`".into());
        };
        let model = self.ensure_session()?;
        let report = model.explain(&pred, &args).map_err(|e| e.to_string())?;
        for line in report.lines() {
            println!("  {line}");
        }
        Ok(())
    }
}

fn print_help() {
    println!(
        "Enter facts/rules ending in `.`; `?- goal, goal, ....` to query.\n\
         :help :dialect :universe :demand :planner :profile [GOAL] :explain :model :program \
         :normalized :sorts :stats [reset] :reset :clear :quit"
    );
}

/// `lpsi --serve ADDR [files…]`: compile the files and serve them.
fn serve_main(addr: &str, files: &[String], trace: bool) -> io::Result<()> {
    let mut config = EvalConfig::default();
    config.trace = config.trace || trace;
    let mut db = Database::with_config(Dialect::StratifiedElps, config);
    for path in files {
        let text = std::fs::read_to_string(path)?;
        if let Err(e) = db.load_str(&text) {
            eprintln!("error loading {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("loaded {path}");
    }
    let listener = std::net::TcpListener::bind(addr)?;
    let server = match lps::core::Server::spawn(listener, &db) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    // The smoke test parses this line for the resolved port.
    println!("listening on {}", server.local_addr());
    io::stdout().flush()?;
    server.serve_forever()
}

/// `lpsi --client ADDR`: a line-oriented REPL over the wire protocol.
fn client_main(addr: &str) -> io::Result<()> {
    let mut client = lps::core::Client::connect(addr)?;
    println!(
        "connected to {addr}. `?- goal.` queries, fact clauses add facts, \
         :server-stats fetches metrics, :quit exits."
    );
    let stdin = io::stdin();
    loop {
        print!("lps> ");
        io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break;
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        if input == ":quit" || input == ":q" {
            break;
        }
        if input == ":server-stats" {
            match client.server_stats()? {
                Ok(text) => {
                    for metric_line in text.lines() {
                        println!("  {metric_line}");
                    }
                }
                Err(msg) => println!("error: {msg}"),
            }
            continue;
        }
        let outcome = if let Some(goal) = input.strip_prefix("?-") {
            client.query(goal.trim())
        } else {
            client.add_fact(input).map(|r| r.map(|()| Vec::new()))
        };
        match outcome? {
            Ok(rows) => {
                for row in &rows {
                    println!("  {row}");
                }
                println!("  ok ({} answer(s)).", rows.len());
            }
            Err(msg) => println!("error: {msg}"),
        }
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();

    // `--trace-out FILE`: collect structured spans for the whole
    // session and write Chrome trace-format JSON at exit.
    let trace_out = match argv.iter().position(|a| a == "--trace-out") {
        Some(i) => {
            if argv.len() <= i + 1 {
                eprintln!("usage: lpsi --trace-out FILE [...]");
                std::process::exit(2);
            }
            let path = argv.remove(i + 1);
            argv.remove(i);
            lps_trace::set_enabled(true);
            Some(path)
        }
        None => None,
    };

    // Serving modes bypass the interactive session entirely.
    for flag in ["--serve", "--client"] {
        if let Some(i) = argv.iter().position(|a| a == flag) {
            let Some(addr) = argv.get(i + 1) else {
                eprintln!("usage: lpsi {flag} ADDR [program.lps ...]");
                std::process::exit(2);
            };
            let files: Vec<String> = argv[..i].iter().chain(&argv[i + 2..]).cloned().collect();
            return if flag == "--serve" {
                serve_main(addr, &files, trace_out.is_some())
            } else {
                client_main(addr)
            };
        }
    }

    let mut session = Session::new();
    if trace_out.is_some() {
        // Engine span sites gate on the config flag as well as the
        // global collector toggle — turn both on.
        session.config.trace = true;
    }

    // Load program files given on the command line.
    for path in argv {
        match std::fs::read_to_string(&path) {
            Ok(text) => match session.add(&text) {
                Ok(()) => eprintln!("loaded {path}"),
                Err(e) => {
                    eprintln!("error loading {path}:\n{e}");
                    std::process::exit(1);
                }
            },
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("lpsi — logic programming with sets (Kuper, PODS 1987). :help for help.");
    let stdin = io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("lps> ");
        } else {
            print!("...> ");
        }
        io::stdout().flush()?;
        let mut line = String::new();
        if stdin.lock().read_line(&mut line)? == 0 {
            break; // EOF
        }
        let trimmed = line.trim();

        // Commands only at the start of an input.
        if buffer.is_empty() && trimmed.starts_with(':') {
            let mut parts = trimmed.splitn(2, ' ');
            let cmd = parts.next().unwrap_or("");
            let arg = parts.next().unwrap_or("").trim();
            match cmd {
                ":quit" | ":q" => break,
                ":help" | ":h" => print_help(),
                ":clear" => {
                    session.source.clear();
                    session.reconfigure();
                    println!("cleared.");
                }
                ":reset" => {
                    // Drop fact clauses from the source; rules (and
                    // declarations) survive, and so do the live
                    // session's compiled batch plans. Demand plans are
                    // evicted — their retained spaces are meaningless
                    // without the facts — reclaiming their relation
                    // memory.
                    let parsed = parse_program(&session.source).expect("accumulated source parses");
                    let (facts, kept): (Vec<Item>, Vec<Item>) = parsed
                        .items
                        .into_iter()
                        .partition(|item| matches!(item, Item::Clause(Clause { body: None, .. })));
                    session.source = pretty_program(&Program { items: kept });
                    session.db = None;
                    if let Some(m) = session.model.as_mut() {
                        m.reset_facts();
                    }
                    println!(
                        "reset: dropped {} fact(s); rules and batch plans kept; \
                         demand plans evicted.",
                        facts.len()
                    );
                }
                ":program" => print!("{}", session.source),
                ":stats" if arg == "reset" => {
                    // Zero both the last-pass and cumulative counters.
                    // Max-merged ratios (misest_ratio) would otherwise
                    // pin at their historical worst forever, which
                    // makes before/after comparisons within one
                    // session impossible.
                    if let Some(m) = session.model.as_mut() {
                        m.engine_mut().reset_stats();
                    }
                    session.last_stats = None;
                    println!("stats reset.");
                }
                ":stats" => match &session.last_stats {
                    Some(s) => println!(
                        "facts={} rounds={} strata={} rule_evals={} \
                         probes={} probe_rows={} probe_allocs={} \
                         incr_runs={} seeded={} \
                         adorns={} magic_seeds={} demand_fb={} \
                         demand_cont={} evicted={} \
                         reorders={} est_rows={} stats_refresh={} misest_ratio={}",
                        s.facts_derived,
                        s.iterations,
                        s.strata,
                        s.rule_evaluations,
                        s.index_probes,
                        s.probe_rows,
                        s.probe_allocs,
                        s.incremental_runs,
                        s.delta_seed_facts,
                        s.adornments_compiled,
                        s.magic_facts_seeded,
                        s.demand_fallbacks,
                        s.demand_continuations,
                        s.plans_evicted,
                        s.reorders_applied,
                        s.estimated_rows,
                        s.stats_refreshes,
                        s.misestimate_ratio
                    ),
                    None => println!("no evaluation yet."),
                },
                ":demand" => {
                    let (demand, cold) = match arg {
                        "on" => (true, false),
                        "cold" => (true, true),
                        "off" => (false, false),
                        "" => {
                            let mode = match (session.demand, session.cold) {
                                (false, _) => "off",
                                (true, false) => "on",
                                (true, true) => "cold",
                            };
                            println!("demand = {mode}");
                            continue;
                        }
                        other => {
                            println!("unknown demand mode `{other}` (on|cold|off)");
                            continue;
                        }
                    };
                    session.demand = demand;
                    session.cold = cold;
                    println!("demand = {arg}");
                }
                ":planner" => {
                    match arg {
                        "" => {
                            println!(
                                "planner = {}",
                                if session.config.cost_planner {
                                    "on"
                                } else {
                                    "off"
                                }
                            );
                        }
                        "on" | "off" => {
                            let on = arg == "on";
                            if on != session.config.cost_planner {
                                // Cached plans were compiled under the
                                // other ordering policy: rebuild.
                                session.config.cost_planner = on;
                                session.reconfigure();
                            }
                            println!("planner = {arg}");
                        }
                        "stats" => match session.ensure_session() {
                            Ok(model) => {
                                let engine = model.engine_mut();
                                let n = engine.preds().len();
                                let mut lines = Vec::new();
                                for i in 0..n {
                                    let id = lps_engine::PredId::from_index(i);
                                    let Some(st) = engine.planner_stats().pred(id).cloned() else {
                                        continue;
                                    };
                                    if st.rows == 0 {
                                        continue;
                                    }
                                    let name = engine.pred_name(id);
                                    let distincts: Vec<String> =
                                        st.col_distinct.iter().map(usize::to_string).collect();
                                    lines.push(format!(
                                        "  {name}/{}: rows={} distinct=[{}]",
                                        st.col_distinct.len(),
                                        st.rows,
                                        distincts.join(", ")
                                    ));
                                }
                                lines.sort();
                                for line in &lines {
                                    println!("{line}");
                                }
                                println!("  {} predicate(s) with rows.", lines.len());
                            }
                            Err(e) => println!("error: {e}"),
                        },
                        other => println!("unknown planner mode `{other}` (on|off|stats)"),
                    }
                    continue;
                }
                ":dialect" => {
                    session.reconfigure();
                    session.dialect = match arg {
                        "purelps" => Dialect::PureLps,
                        "lps" => Dialect::Lps,
                        "elps" => Dialect::Elps,
                        "stratified" => Dialect::StratifiedElps,
                        other => {
                            println!("unknown dialect `{other}` (purelps|lps|elps|stratified)");
                            continue;
                        }
                    };
                    println!("dialect = {:?}", session.dialect);
                }
                ":universe" => {
                    session.reconfigure();
                    let mut words = arg.split_whitespace();
                    session.config.set_universe = match words.next() {
                        Some("reject") => SetUniverse::Reject,
                        Some("active") => SetUniverse::ActiveSets,
                        Some("subsets") => {
                            let n: usize = words.next().and_then(|w| w.parse().ok()).unwrap_or(4);
                            SetUniverse::ActiveSubsets { max_card: n }
                        }
                        _ => {
                            println!("usage: :universe reject | active | subsets N");
                            continue;
                        }
                    };
                    println!("universe = {:?}", session.config.set_universe);
                }
                ":model" => {
                    if arg.is_empty() {
                        println!("usage: :model PRED");
                        continue;
                    }
                    match session.ensure_model() {
                        Ok(model) => {
                            let rows = model.extension(arg);
                            for row in &rows {
                                let rendered: Vec<String> =
                                    row.iter().map(|v| v.to_string()).collect();
                                println!("  {arg}({})", rendered.join(", "));
                            }
                            println!("  {} fact(s).", rows.len());
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                ":profile" if arg.is_empty() => {
                    if let Err(e) = session.profile_pass() {
                        println!("error: {e}");
                    }
                }
                ":profile" | ":explain" => {
                    if arg.is_empty() {
                        println!("usage: {cmd} GOAL (e.g. {cmd} t(a, X).)");
                        continue;
                    }
                    // The query pipeline parses `goal.` — supply the
                    // final period if the user left it off.
                    let goal = if arg.ends_with('.') {
                        arg.to_string()
                    } else {
                        format!("{arg}.")
                    };
                    let outcome = if cmd == ":profile" {
                        session.profile(&goal)
                    } else {
                        session.explain(&goal)
                    };
                    if let Err(e) = outcome {
                        println!("error: {e}");
                    }
                }
                ":normalized" => match session
                    .database()
                    .and_then(|db| db.normalized().map_err(|e| e.to_string()))
                {
                    Ok(p) => print!("{}", pretty_program(&p)),
                    Err(e) => println!("error: {e}"),
                },
                ":sorts" => match session
                    .database()
                    .and_then(|db| db.check().map_err(|e| e.to_string()))
                {
                    Ok(table) => {
                        let mut sigs: Vec<String> = table
                            .iter()
                            .map(|(name, sorts)| {
                                let rendered: Vec<&str> = sorts
                                    .iter()
                                    .map(|s| match s {
                                        lps_syntax::SortAnn::Atom => "atom",
                                        lps_syntax::SortAnn::Set => "set",
                                        lps_syntax::SortAnn::Any => "any",
                                    })
                                    .collect();
                                format!("  pred {name}({}).", rendered.join(", "))
                            })
                            .collect();
                        sigs.sort();
                        for s in sigs {
                            println!("{s}");
                        }
                    }
                    Err(e) => println!("error: {e}"),
                },
                other => println!("unknown command `{other}` — :help"),
            }
            continue;
        }

        // Accumulate multi-line input until a final `.`.
        buffer.push_str(&line);
        if !trimmed.ends_with('.') {
            continue;
        }
        let input = std::mem::take(&mut buffer);
        let input = input.trim();

        if let Some(query) = input.strip_prefix("?-") {
            if let Err(e) = session.query(query.trim()) {
                println!("error: {e}");
            }
        } else if !input.is_empty() {
            match session.add(input) {
                Ok(()) => println!("ok."),
                Err(e) => println!("error: {e}"),
            }
        }
    }

    if let Some(path) = &trace_out {
        match lps_trace::write_chrome_trace(path) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("cannot write trace to {path}: {e}"),
        }
    }
    Ok(())
}
