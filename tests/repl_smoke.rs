//! End-to-end smoke tests for the `lpsi` REPL command surface: drive
//! the real binary with scripted stdin and assert on its stdout.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `lpsi` with `input` on stdin (plus any extra CLI `args`) and
/// return (stdout, stderr).
fn run_lpsi(args: &[&str], input: &str) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lpsi"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lpsi");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait lpsi");
    assert!(out.status.success(), "lpsi exited nonzero: {out:?}");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn loads_facts_and_answers_queries() {
    let (stdout, _) = run_lpsi(
        &[],
        "pair({a, b}, {c}). pair({a, b}, {b, c}).\n\
         disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.\n\
         ?- disj(X, Y).\n\
         :quit\n",
    );
    assert!(stdout.contains("ok."), "facts accepted:\n{stdout}");
    assert!(stdout.contains("disj("), "query rows printed:\n{stdout}");
    assert!(
        stdout.contains("1 answer(s)."),
        "one disjoint pair:\n{stdout}"
    );
}

#[test]
fn answers_the_scons_min_rollup_goal() {
    // Demand reaches `scons_min` with its rest and set bound; the REPL
    // once printed `error: builtin scons_min does not support mode`.
    let (stdout, _) = run_lpsi(
        &[],
        "parts(bike, {frame, wheel_f, chain_drive}). cost(frame, 120).\n\
         cost(wheel_f, 45). cost(chain_drive, 30).\n\
         sum_costs(S, 0) :- chain(S), S = {}.\n\
         sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),\n\
                            cost(P, N), sum_costs(Rest, M), N + M = K.\n\
         chain(Y) :- parts(_X, Y).\n\
         chain(Rest) :- chain(S), scons_min(_P, Rest, S).\n\
         obj_cost(X, N) :- parts(X, Y), sum_costs(Y, N).\n\
         ?- obj_cost(bike, X).\n\
         :quit\n",
    );
    assert!(!stdout.contains("error"), "goal answers:\n{stdout}");
    assert!(
        stdout.contains("obj_cost(bike, 195)"),
        "bike costs 195:\n{stdout}"
    );
}

#[test]
fn dialect_command_switches_and_rejects_unknown() {
    let (stdout, _) = run_lpsi(
        &[],
        ":dialect purelps\n:dialect lps\n:dialect elps\n:dialect stratified\n:dialect nope\n:quit\n",
    );
    for expected in [
        "dialect = PureLps",
        "dialect = Lps",
        "dialect = Elps",
        "dialect = StratifiedElps",
        "unknown dialect `nope`",
    ] {
        assert!(stdout.contains(expected), "missing {expected:?}:\n{stdout}");
    }
}

#[test]
fn dialect_gates_what_programs_are_accepted() {
    // Stratified negation parses everywhere but only the stratified
    // dialect accepts it.
    let program = "p(a). q(X) :- p(X), not r(X).\n";
    let (stdout, _) = run_lpsi(&[], &format!(":dialect elps\n{program}:quit\n"));
    assert!(stdout.contains("error"), "elps rejects negation:\n{stdout}");
    let (stdout, _) = run_lpsi(
        &[],
        &format!(":dialect stratified\n{program}?- q(X).\n:quit\n"),
    );
    assert!(
        stdout.contains("q(a)"),
        "stratified accepts negation:\n{stdout}"
    );
}

#[test]
fn universe_command_switches_policy() {
    let (stdout, _) = run_lpsi(
        &[],
        ":universe active\n:universe subsets 3\n:universe reject\n:universe bogus\n:quit\n",
    );
    for expected in [
        "universe = ActiveSets",
        "universe = ActiveSubsets { max_card: 3 }",
        "universe = Reject",
        "usage: :universe",
    ] {
        assert!(stdout.contains(expected), "missing {expected:?}:\n{stdout}");
    }
}

#[test]
fn model_prints_a_predicate_extension() {
    let (stdout, _) = run_lpsi(
        &[],
        "edge(a, b). edge(b, c).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).\n\
         :model path\n:model\n:quit\n",
    );
    for expected in [
        "path(a, b)",
        "path(b, c)",
        "path(a, c)",
        "3 fact(s).",
        "usage: :model PRED",
    ] {
        assert!(stdout.contains(expected), "missing {expected:?}:\n{stdout}");
    }
}

#[test]
fn normalized_prints_compiled_program() {
    // A forall body compiles into auxiliary predicates; the normalized
    // listing must still define the source predicate.
    let (stdout, _) = run_lpsi(
        &[],
        "pair({a}, {b}).\n\
         disj(X, Y) :- pair(X, Y), forall U in X, forall V in Y: U != V.\n\
         :normalized\n:quit\n",
    );
    assert!(stdout.contains("disj("), "normalized keeps disj:\n{stdout}");
    assert!(stdout.contains(":-"), "normalized prints rules:\n{stdout}");
}

#[test]
fn stats_reports_after_evaluation_only() {
    let (stdout, _) = run_lpsi(
        &[],
        ":stats\np(a). q(X) :- p(X).\n?- q(X).\n:stats\n:quit\n",
    );
    assert!(stdout.contains("no evaluation yet."), "before:\n{stdout}");
    assert!(stdout.contains("facts="), "after:\n{stdout}");
    assert!(stdout.contains("rounds="), "after:\n{stdout}");
}

#[test]
fn sorts_program_clear_and_help_round_out_the_surface() {
    let (stdout, _) = run_lpsi(
        &[],
        "r(x1, {p, q}).\ns(X, Y) :- r(X, Ys), Y in Ys.\n\
         :sorts\n:program\n:clear\n:program\n:help\n:bogus\n:quit\n",
    );
    assert!(stdout.contains("pred r(atom, set)."), "sorts:\n{stdout}");
    assert!(stdout.contains("cleared."), "clear:\n{stdout}");
    assert!(
        stdout.contains(":help :dialect :universe"),
        "help:\n{stdout}"
    );
    assert!(
        stdout.contains("unknown command `:bogus`"),
        "bogus:\n{stdout}"
    );
    // After :clear the accumulated program is gone.
    let after_clear = stdout.split("cleared.").nth(1).expect("output after clear");
    assert!(
        !after_clear.contains("r(x1"),
        "program gone after clear:\n{stdout}"
    );
}

#[test]
fn reset_drops_facts_but_keeps_rules() {
    let (stdout, _) = run_lpsi(
        &[],
        "edge(a, b). edge(b, c).\n\
         path(X, Y) :- edge(X, Y).\n\
         path(X, Z) :- edge(X, Y), path(Y, Z).\n\
         ?- path(X, Y).\n\
         :reset\n\
         ?- path(X, Y).\n\
         edge(c, d).\n\
         ?- path(X, Y).\n\
         :program\n\
         :quit\n",
    );
    assert!(stdout.contains("3 answer(s)."), "before reset:\n{stdout}");
    assert!(
        stdout.contains(
            "reset: dropped 2 fact(s); rules and batch plans kept; demand plans evicted."
        ),
        "reset notice:\n{stdout}"
    );
    assert!(stdout.contains("no."), "model empty after reset:\n{stdout}");
    assert!(
        stdout.contains("1 answer(s)."),
        "fresh fact evaluates under the kept rules:\n{stdout}"
    );
    // The source kept the rules but dropped the old facts.
    let after_reset = stdout.split("reset:").nth(1).expect("output after reset");
    assert!(
        after_reset.contains("path(X, Z) :-"),
        "rules kept:\n{stdout}"
    );
    assert!(
        !after_reset.contains("edge(a, b)."),
        "facts gone:\n{stdout}"
    );
}

#[test]
fn facts_after_a_query_update_the_live_session_incrementally() {
    // `:demand off` pins the materialized-model path this test is
    // about; demand-driven answering has its own tests below.
    let (stdout, _) = run_lpsi(
        &[],
        ":demand off\n\
         e(a, b).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(X, Y).\n\
         e(b, c).\n\
         ?- t(X, Y).\n\
         :stats\n\
         :quit\n",
    );
    assert!(stdout.contains("1 answer(s)."), "initial model:\n{stdout}");
    assert!(stdout.contains("3 answer(s)."), "updated model:\n{stdout}");
    assert!(
        stdout.contains("incr_runs=1 seeded=1"),
        "the second query must go through the incremental path, \
         not a recompute:\n{stdout}"
    );
}

#[test]
fn loads_program_files_from_argv() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("lpsi_smoke");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("facts.lps");
    std::fs::write(&path, "p(a). p(b).\n").expect("write program");
    let (stdout, stderr) = run_lpsi(&[path.to_str().expect("utf8 path")], "?- p(X).\n:quit\n");
    assert!(
        stderr.contains("loaded"),
        "load notice on stderr:\n{stderr}"
    );
    assert!(
        stdout.contains("2 answer(s)."),
        "facts from file:\n{stdout}"
    );
}

#[test]
fn bad_input_reports_error_and_keeps_session_alive() {
    let (stdout, _) = run_lpsi(&[], "this is not lps(\n.\np(a).\n?- p(X).\n:quit\n");
    assert!(stdout.contains("error"), "parse error reported:\n{stdout}");
    assert!(
        stdout.contains("1 answer(s)."),
        "session continues:\n{stdout}"
    );
}

#[test]
fn rejected_lines_leave_the_program_and_answers_unchanged() {
    // Each line loads on its own; a line that fails to parse or to
    // sort-check is rolled back whole, so the next line still loads.
    let (stdout, _) = run_lpsi(
        &[],
        ":dialect lps\n\
         p(a). q(X) :- p(X).\n\
         :program\n\
         r(X, ) .\n\
         s(X) :- q(X), Y in X.\n\
         q({a}).\n\
         :program\n\
         p(b).\n\
         ?- q(X).\n\
         :quit\n",
    );
    let program = "p(a). q(X) :- p(X).\n";
    assert_eq!(
        stdout.matches(program).count(),
        2,
        "`:program` unchanged by the rejected lines:\n{stdout}"
    );
    assert!(stdout.contains("syntax error"), "{stdout}");
    assert_eq!(stdout.matches("sort error").count(), 2, "{stdout}");
    assert!(!stdout.contains("{a}"), "q({{a}}) was not kept:\n{stdout}");
    assert!(
        stdout.contains("q(a)") && stdout.contains("q(b)") && stdout.contains("2 answer(s)."),
        "later lines load and answer as before:\n{stdout}"
    );
}

#[test]
fn demand_queries_answer_without_materializing() {
    // A point query over a chain TC: the demand path seeds one magic
    // fact, compiles adornments, and never runs an incremental pass.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c). e(c, d).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(b, X).\n\
         :stats\n\
         :quit\n",
    );
    assert!(stdout.contains("t(b, c)"), "demand answers:\n{stdout}");
    assert!(stdout.contains("t(b, d)"), "demand answers:\n{stdout}");
    assert!(stdout.contains("2 answer(s)."), "two answers:\n{stdout}");
    assert!(
        stdout.contains("magic_seeds=1") && stdout.contains("demand_fb=0"),
        "demand counters in :stats:\n{stdout}"
    );
}

#[test]
fn demand_toggle_switches_and_rejects_unknown() {
    let (stdout, _) = run_lpsi(
        &[],
        ":demand off\n:demand on\n:demand cold\n:demand\n:demand maybe\n:quit\n",
    );
    assert!(stdout.contains("demand = off"), "off:\n{stdout}");
    assert!(stdout.contains("demand = on"), "on:\n{stdout}");
    assert!(stdout.contains("demand = cold"), "cold:\n{stdout}");
    assert!(
        stdout.contains("unknown demand mode `maybe`"),
        "bad arg:\n{stdout}"
    );
}

#[test]
fn retained_demand_spaces_continue_across_queries_and_facts() {
    // Query, repeat, add a fact, query again: the second and third
    // queries continue over the retained demand space (`demand_cont`)
    // instead of re-deriving, and the new edge shows up.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- t(X, Y), e(Y, Z).\n\
         ?- t(a, X).\n\
         ?- t(a, X).\n\
         :stats\n\
         e(c, d).\n\
         ?- t(a, X).\n\
         :stats\n\
         :quit\n",
    );
    assert!(stdout.contains("2 answer(s)."), "first answers:\n{stdout}");
    assert!(
        stdout.contains("demand_cont=1"),
        "repeat query continues over the retained space:\n{stdout}"
    );
    assert!(
        stdout.contains("magic_seeds=1"),
        "the repeated constant is a duplicate seed, not re-counted:\n{stdout}"
    );
    assert!(
        stdout.contains("3 answer(s)."),
        "the new edge extends the retained cone:\n{stdout}"
    );
    assert!(
        stdout.contains("incr_runs=0"),
        "never materialized — the continuation is demand-side:\n{stdout}"
    );
}

#[test]
fn reset_evicts_demand_plans_and_recompiles_on_next_query() {
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- t(X, Y), e(Y, Z).\n\
         ?- t(a, X).\n\
         :reset\n\
         ?- t(a, X).\n\
         :stats\n\
         e(a, c).\n\
         ?- t(a, X).\n\
         :quit\n",
    );
    assert!(stdout.contains("2 answer(s)."), "before reset:\n{stdout}");
    assert!(
        stdout.contains("demand plans evicted."),
        "reset notice:\n{stdout}"
    );
    assert!(stdout.contains("no."), "no facts, no answers:\n{stdout}");
    // `:stats` shows cumulative counters: 1 adornment from the first
    // query plus 1 from the recompile the eviction forced.
    assert!(
        stdout.contains("adorns=2"),
        "the evicted plan recompiled on the post-reset query:\n{stdout}"
    );
    assert!(
        stdout.contains("1 answer(s)."),
        "fresh fact answers under the recompiled plan:\n{stdout}"
    );
}

#[test]
fn demand_cold_mode_rederives_per_query() {
    let (stdout, _) = run_lpsi(
        &[],
        ":demand cold\n\
         e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- t(X, Y), e(Y, Z).\n\
         ?- t(a, X).\n\
         ?- t(a, X).\n\
         :stats\n\
         :quit\n",
    );
    assert!(stdout.contains("demand = cold"), "mode:\n{stdout}");
    assert!(stdout.contains("2 answer(s)."), "answers:\n{stdout}");
    // Cumulative: each of the two queries cleared the space and
    // re-planted its seed — unlike retained mode, where the repeat
    // would be a duplicate.
    assert!(
        stdout.contains("demand_cont=0") && stdout.contains("magic_seeds=2"),
        "cold mode re-seeds and re-derives each query:\n{stdout}"
    );
}

#[test]
fn conjunctive_queries_print_bindings() {
    // The old "queries must be a single predicate literal" restriction
    // is gone: conjunctions compile as temporary query rules.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(a, X), e(X, Y).\n\
         :quit\n",
    );
    assert!(
        stdout.contains("X = b, Y = c"),
        "conjunctive bindings:\n{stdout}"
    );
    assert!(stdout.contains("1 answer(s)."), "one answer:\n{stdout}");
}

#[test]
fn ground_queries_answer_yes_or_no() {
    // A ground single literal echoes the matching fact (point path); a
    // ground conjunction answers yes/no.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(a, c).\n\
         ?- t(a, b), t(b, c).\n\
         ?- t(c, a), t(a, b).\n\
         :quit\n",
    );
    assert!(stdout.contains("t(a, c)"), "ground point query:\n{stdout}");
    assert!(
        stdout.contains("yes."),
        "ground conjunction holds:\n{stdout}"
    );
    assert!(stdout.contains("no."), "t(c, a) does not:\n{stdout}");
}

#[test]
fn repeated_variable_queries_join_instead_of_wildcarding() {
    // `?- t(X, X)` used to treat both positions as independent
    // wildcards; it now compiles a proper join.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, a). e(c, d).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(X, X).\n\
         :quit\n",
    );
    assert!(
        stdout.contains("X = a") && stdout.contains("X = b"),
        "the a/b cycle closes on itself:\n{stdout}"
    );
    assert!(stdout.contains("2 answer(s)."), "c/d is acyclic:\n{stdout}");
}

#[test]
fn underscore_variables_corefer_like_any_other() {
    // The lowering maps every occurrence of one name — `_A` included —
    // to the same variable, so `?- t(_A, _A).` is the same join as
    // `?- t(X, X).`, not a pair of wildcards.
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(c, d).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(_A, _A).\n\
         :quit\n",
    );
    assert!(
        stdout.contains("no."),
        "acyclic graph has no self-paths, even for _-vars:\n{stdout}"
    );
}

#[test]
fn explain_marks_the_existential_tail() {
    // `Y` is read by nothing after `q`, so the steps that bind it run
    // to their first solution: `:explain` marks where that tail starts.
    let (stdout, _) = run_lpsi(&[], "p(X) :- q(X, Y), r(Y).\n:explain p(a).\n:quit\n");
    assert!(stdout.contains("adornment: b"), "explain:\n{stdout}");
    assert!(stdout.contains(" |∃ q"), "tail mark:\n{stdout}");
}

#[test]
fn profile_explain_and_stats_reset_round_out_observability() {
    let (stdout, _) = run_lpsi(
        &[],
        "e(a, b). e(b, c). e(c, d).\n\
         t(X, Y) :- e(X, Y).\n\
         t(X, Z) :- e(X, Y), t(Y, Z).\n\
         ?- t(a, X).\n\
         :explain t(a, X).\n\
         :profile t(a, X).\n\
         ?- t(a, X).\n\
         :stats reset\n\
         :stats\n\
         :quit\n",
    );
    // :explain prints the plan without running the goal.
    assert!(
        stdout.contains("adornment: bf"),
        "explain adornment:\n{stdout}"
    );
    assert!(stdout.contains("sips:"), "explain SIPS:\n{stdout}");
    assert!(
        stdout.contains("plan: demand"),
        "explain join order:\n{stdout}"
    );
    // :profile re-runs from a cold plan with per-literal attribution.
    assert!(
        stdout.contains("profile (estimated vs actual rows per body literal):"),
        "profile header:\n{stdout}"
    );
    assert!(
        stdout.contains("est=") && stdout.contains("probes="),
        "per-literal estimated-vs-actual rows:\n{stdout}"
    );
    assert!(stdout.contains("3 answer(s)."), "answers:\n{stdout}");
    // Profiling is confined to the :profile command: the plain query
    // after it prints the same answers as the one before, unprofiled.
    let replies: Vec<&str> = stdout.split("lps> ").collect();
    let plain = replies
        .iter()
        .position(|r| r.contains("3 answer(s)."))
        .expect("plain query reply");
    let profiled = replies
        .iter()
        .position(|r| r.contains("profile (estimated"))
        .expect("profile reply");
    assert!(plain < profiled, "query order:\n{stdout}");
    assert_eq!(
        replies[profiled + 1],
        replies[plain],
        "plain query after :profile:\n{stdout}"
    );
    // :stats reset zeroes the cumulative counters.
    assert!(stdout.contains("stats reset."), "reset notice:\n{stdout}");
    let after_reset = stdout
        .split("stats reset.")
        .nth(1)
        .expect("output after reset");
    assert!(
        after_reset.contains("no evaluation yet."),
        "counters cleared:\n{stdout}"
    );
}

#[test]
fn demand_queries_with_sets_and_negation_fall_back_soundly() {
    // Negation reachable from the goal forces the sound fallback; the
    // answers still come back correct, and the fallback is counted.
    let (stdout, _) = run_lpsi(
        &[],
        "node(a). node(b). e(a, b).\n\
         reach(a).\n\
         reach(Y) :- reach(X), e(X, Y).\n\
         un(X) :- node(X), not reach(X).\n\
         ?- un(X).\n\
         :stats\n\
         :quit\n",
    );
    assert!(stdout.contains("no."), "all nodes reachable:\n{stdout}");
    assert!(
        stdout.contains("demand_fb=1"),
        "fallback counted in :stats:\n{stdout}"
    );
}
