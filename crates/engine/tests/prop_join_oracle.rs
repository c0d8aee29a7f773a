//! An oracle for join semantics that shares no code with the engine:
//! random non-recursive rules over random extensional relations,
//! evaluated by the engine (batch run, cost planner on and off) and by
//! a brute-force evaluator written here, which assigns every variable
//! each value of the active domain in turn, on [`Value`]s, and keeps the
//! assignments that satisfy every literal. The two head relations must
//! be equal.
//!
//! The rules have two to four body literals over two or three
//! relations of arity 1–3, whose columns hold a few atoms and integers,
//! and whose first relation holds sets in its first column. Positive
//! literals repeat variables and carry constants; a rule may add one
//! `not`, one `!=`, an `X in S` that checks a bound `X`, an `X in S`
//! that binds a fresh `X`, and an `exists X in S: …` tail — a membership
//! whose witness the head never reads, optionally followed by a positive
//! literal on it.
//!
//! A rule may also end in a restricted universal quantifier group
//! (Definitions 4–5), which the brute-force evaluator checks directly by
//! walking the product of its domains: `forall X in S: …` over a set the
//! body binds (or a constant set), or the dependent `forall S in F:
//! forall X in S: …` over a relation whose column holds sets of sets.
//! Its body is a positive literal on `X`, optionally a `!=` and a `not`;
//! the positive literal may also mention `S`, and may read a variable
//! `Y` that only the group binds and the head does not read, so the
//! engine must find one `Y` that covers the whole product.

use std::collections::BTreeSet;

use lps_engine::pattern::{Pattern, VarId};
use lps_engine::{BodyLit, Builtin, Engine, EvalConfig, PredId, QuantGroup, Rule};
use lps_term::Value;
use proptest::prelude::*;

/// The first variables positive literals draw from.
const POOL: usize = 3;
/// The variable an `X in S` binds.
const FRESH: usize = POOL;
/// The witness of the `exists` tail.
const WITNESS: usize = POOL + 1;
/// The family a dependent `forall` group's outer binder ranges over.
const FAMILY: usize = POOL + 2;
/// A dependent group's outer binder: a member of the family.
const MEMBER: usize = POOL + 3;
/// The binder the group's body reads: an element of a set.
const ELEM: usize = POOL + 4;
/// The variable only the group's body binds.
const GROUP_ONLY: usize = POOL + 5;
/// Every variable a rule may use.
const VARS: usize = POOL + 6;

/// SplitMix64: each case is generated from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())].clone()
    }
}

/// The atoms and integers.
fn scalars() -> Vec<Value> {
    vec![
        Value::atom("a"),
        Value::atom("b"),
        Value::atom("c"),
        Value::int(1),
        Value::int(2),
    ]
}

/// The sets the first relation's first column holds.
fn sets() -> Vec<Value> {
    let (a, b, c) = (Value::atom("a"), Value::atom("b"), Value::atom("c"));
    vec![
        Value::empty_set(),
        Value::set([a.clone()]),
        Value::set([a, b.clone()]),
        Value::set([b, c.clone()]),
        Value::set([Value::int(1), c]),
    ]
}

/// The sets of sets a family relation holds.
fn families() -> Vec<Value> {
    let s = sets();
    vec![
        Value::empty_set(),
        Value::set([s[0].clone()]),
        Value::set([s[1].clone()]),
        Value::set([s[1].clone(), s[2].clone()]),
        Value::set([s[2].clone(), s[3].clone()]),
        Value::set([s[0].clone(), s[3].clone(), s[4].clone()]),
    ]
}

#[derive(Clone, Debug)]
enum Arg {
    Var(usize),
    Const(Value),
}

#[derive(Clone, Debug)]
enum Lit {
    Pos(usize, Vec<Arg>),
    Neg(usize, Vec<Arg>),
    Ne(Arg, Arg),
    In(Arg, Arg),
    Forall(Forall),
}

/// `forall q₁ in D₁: … forall qₙ in Dₙ: inner`.
#[derive(Clone, Debug)]
struct Forall {
    /// `(binder, domain)`, outermost first; a later domain may be an
    /// earlier binder.
    binders: Vec<(usize, Arg)>,
    inner: Vec<Lit>,
}

impl Lit {
    /// The variables the literal reads: a group's free variables.
    fn vars(&self) -> Vec<usize> {
        let args: Vec<&Arg> = match self {
            Lit::Pos(_, args) | Lit::Neg(_, args) => args.iter().collect(),
            Lit::Ne(x, y) | Lit::In(x, y) => vec![x, y],
            Lit::Forall(group) => {
                let mut vars: Vec<usize> = group
                    .binders
                    .iter()
                    .map(|(_, d)| d)
                    .flat_map(var_of)
                    .collect();
                vars.extend(group.inner.iter().flat_map(Lit::vars));
                vars.retain(|v| group.binders.iter().all(|(q, _)| q != v));
                return vars;
            }
        };
        args.into_iter().flat_map(var_of).collect()
    }
}

fn var_of(arg: &Arg) -> Option<usize> {
    match arg {
        Arg::Var(v) => Some(*v),
        Arg::Const(_) => None,
    }
}

#[derive(Debug)]
struct Case {
    arities: Vec<usize>,
    facts: Vec<BTreeSet<Vec<Value>>>,
    head: Vec<usize>,
    body: Vec<Lit>,
}

/// Whether column `col` of relation `rel` holds sets.
fn set_column(rel: usize, col: usize) -> bool {
    rel == 0 && col == 0
}

fn generate(seed: u64) -> Case {
    let mut g = Gen(seed);
    let (scalars, sets) = (scalars(), sets());
    let value = |g: &mut Gen, rel, col| {
        if set_column(rel, col) {
            g.pick(&sets)
        } else {
            g.pick(&scalars)
        }
    };
    let mut arities: Vec<usize> = (0..2 + g.below(2)).map(|_| 1 + g.below(3)).collect();
    let mut facts: Vec<BTreeSet<Vec<Value>>> = arities
        .iter()
        .enumerate()
        .map(|(rel, &arity)| {
            (0..3 + g.below(6))
                .map(|_| (0..arity).map(|col| value(&mut g, rel, col)).collect())
                .collect()
        })
        .collect();

    // One or two positive literals over the pool, with repeated
    // variables and constants.
    let mut body = Vec::new();
    for _ in 0..1 + g.below(2) {
        let rel = g.below(arities.len());
        let args = (0..arities[rel])
            .map(|col| {
                if g.chance(25) {
                    Arg::Const(value(&mut g, rel, col))
                } else {
                    Arg::Var(g.below(POOL))
                }
            })
            .collect();
        body.push(Lit::Pos(rel, args));
    }
    if body.iter().all(|l| l.vars().is_empty()) {
        if let Lit::Pos(_, args) = &mut body[0] {
            args[0] = Arg::Var(0);
        }
    }
    let mut bound: Vec<usize> = body.iter().flat_map(Lit::vars).collect();
    bound.sort_unstable();
    bound.dedup();
    // The variables of the first relation's set column.
    let set_vars: Vec<usize> = body
        .iter()
        .filter_map(|l| match l {
            Lit::Pos(0, args) => match &args[0] {
                Arg::Var(v) => Some(*v),
                Arg::Const(_) => None,
            },
            _ => None,
        })
        .collect();
    let bound_arg = |g: &mut Gen| {
        if g.chance(20) {
            Arg::Const(g.pick(&scalars))
        } else {
            Arg::Var(g.pick(&bound))
        }
    };
    let set_arg = |g: &mut Gen| {
        if set_vars.is_empty() || g.chance(20) {
            Arg::Const(g.pick(&sets))
        } else {
            Arg::Var(g.pick(&set_vars))
        }
    };

    // At most four literals in all.
    let mut extras = Vec::new();
    if g.chance(35) {
        let rel = g.below(arities.len());
        let args = (0..arities[rel])
            .map(|col| {
                if set_column(rel, col) {
                    set_arg(&mut g)
                } else {
                    bound_arg(&mut g)
                }
            })
            .collect();
        extras.push(Lit::Neg(rel, args));
    }
    if g.chance(35) {
        extras.push(Lit::Ne(bound_arg(&mut g), bound_arg(&mut g)));
    }
    if g.chance(35) {
        extras.push(Lit::In(bound_arg(&mut g), set_arg(&mut g)));
    }
    let fresh = g.chance(35);
    if fresh {
        extras.push(Lit::In(Arg::Var(FRESH), set_arg(&mut g)));
    }
    if g.chance(40) {
        extras.push(Lit::In(Arg::Var(WITNESS), set_arg(&mut g)));
        if g.chance(50) {
            let rel = 1 + g.below(arities.len() - 1);
            let mut args: Vec<Arg> = (0..arities[rel]).map(|_| bound_arg(&mut g)).collect();
            let at = g.below(args.len());
            args[at] = Arg::Var(WITNESS);
            extras.push(Lit::Pos(rel, args));
        }
    }
    while body.len() + extras.len() > 4 {
        extras.remove(g.below(extras.len()));
    }
    if body.len() + extras.len() < 2 {
        extras.push(Lit::Ne(bound_arg(&mut g), bound_arg(&mut g)));
    }
    // The fresh variable may have been dropped with its literal.
    let fresh_bound = extras
        .iter()
        .any(|l| matches!(l, Lit::In(Arg::Var(FRESH), _)));
    body.extend(extras);
    // Shuffle: the answers cannot depend on the written order.
    for i in (1..body.len()).rev() {
        body.swap(i, g.below(i + 1));
    }

    let mut heads = bound.clone();
    if fresh && fresh_bound {
        heads.push(FRESH);
    }
    let head = (0..1 + g.below(2)).map(|_| g.pick(&heads)).collect();

    // A `forall` group. The relations the body reads stay as they are;
    // a dependent group adds a family relation and a literal binding
    // `FAMILY` from it.
    if g.chance(40) {
        let (dependent, group_only) = (g.chance(50), g.chance(50));
        let binders = if dependent {
            let fam = arities.len();
            arities.push(1);
            let families = families();
            facts.push(
                (0..2 + g.below(4))
                    .map(|_| vec![g.pick(&families)])
                    .collect(),
            );
            body.push(Lit::Pos(fam, vec![Arg::Var(FAMILY)]));
            vec![(MEMBER, Arg::Var(FAMILY)), (ELEM, Arg::Var(MEMBER))]
        } else {
            vec![(ELEM, set_arg(&mut g))]
        };
        // A positive literal on `ELEM`, in a column that holds scalars,
        // with `GROUP_ONLY` in another one if the relation has it; a
        // dependent group's member may fill the set column.
        let rels = facts.len() - usize::from(dependent);
        let rel = loop {
            let rel = g.below(rels);
            if rel != 0 || arities[0] > 1 {
                break rel;
            }
        };
        let cols: Vec<usize> = (0..arities[rel]).filter(|&c| !set_column(rel, c)).collect();
        let elem_col = g.pick(&cols);
        let only_col = cols.iter().copied().find(|&c| c != elem_col && group_only);
        let args = (0..arities[rel])
            .map(|col| match col {
                _ if col == elem_col => Arg::Var(ELEM),
                _ if Some(col) == only_col => Arg::Var(GROUP_ONLY),
                _ if set_column(rel, col) && dependent && g.chance(50) => Arg::Var(MEMBER),
                _ if set_column(rel, col) => set_arg(&mut g),
                _ => bound_arg(&mut g),
            })
            .collect();
        let mut inner = vec![Lit::Pos(rel, args)];
        if g.chance(30) {
            inner.push(Lit::Ne(Arg::Var(ELEM), bound_arg(&mut g)));
        }
        if g.chance(25) {
            let rel = 1 + g.below(rels - 1);
            let mut args: Vec<Arg> = (0..arities[rel]).map(|_| bound_arg(&mut g)).collect();
            let at = g.below(args.len());
            args[at] = Arg::Var(ELEM);
            inner.push(Lit::Neg(rel, args));
        }
        body.push(Lit::Forall(Forall { binders, inner }));
    }
    Case {
        arities,
        facts,
        head,
        body,
    }
}

/// The brute-force evaluator: every assignment of the rule's variables
/// over the active domain, a literal checked once its last variable is
/// assigned.
fn oracle(case: &Case) -> BTreeSet<Vec<Value>> {
    let mut domain: BTreeSet<Value> = scalars().into_iter().chain(sets()).collect();
    for rows in &case.facts {
        domain.extend(rows.iter().flatten().cloned());
    }
    let domain: Vec<Value> = domain.into_iter().collect();
    let mut used: Vec<usize> = case.body.iter().flat_map(Lit::vars).collect();
    used.extend(&case.head);
    used.sort_unstable();
    used.dedup();
    // Each literal is checked at the depth that assigns its last
    // variable (depth 0 checks the ground ones).
    let depth_of = |lit: &Lit| {
        lit.vars()
            .iter()
            .map(|v| 1 + used.iter().position(|u| u == v).expect("used"))
            .max()
            .unwrap_or(0)
    };
    let mut at_depth: Vec<Vec<&Lit>> = vec![Vec::new(); used.len() + 1];
    for lit in &case.body {
        at_depth[depth_of(lit)].push(lit);
    }
    let mut out = BTreeSet::new();
    let mut assign: Vec<Option<Value>> = vec![None; VARS];
    search(case, &domain, &used, &at_depth, 0, &mut assign, &mut out);
    out
}

fn search(
    case: &Case,
    domain: &[Value],
    used: &[usize],
    at_depth: &[Vec<&Lit>],
    depth: usize,
    assign: &mut Vec<Option<Value>>,
    out: &mut BTreeSet<Vec<Value>>,
) {
    if !at_depth[depth].iter().all(|lit| holds(case, lit, assign)) {
        return;
    }
    if depth == used.len() {
        let row = case
            .head
            .iter()
            .map(|&v| assign[v].clone().expect("assigned"));
        out.insert(row.collect());
        return;
    }
    for value in domain {
        assign[used[depth]] = Some(value.clone());
        search(case, domain, used, at_depth, depth + 1, assign, out);
    }
    assign[used[depth]] = None;
}

fn holds(case: &Case, lit: &Lit, assign: &[Option<Value>]) -> bool {
    let val = |a: &Arg| match a {
        Arg::Var(v) => assign[*v].clone().expect("checked once assigned"),
        Arg::Const(c) => c.clone(),
    };
    let tuple = |args: &[Arg]| args.iter().map(val).collect::<Vec<_>>();
    match lit {
        Lit::Forall(group) => covers(case, group, 0, &mut assign.to_vec()),
        Lit::Pos(rel, args) => case.facts[*rel].contains(&tuple(args)),
        Lit::Neg(rel, args) => !case.facts[*rel].contains(&tuple(args)),
        Lit::Ne(x, y) => val(x) != val(y),
        // ELPS (§5): an atom has no elements.
        Lit::In(x, s) => match val(s) {
            Value::Set(elems) => elems.contains(&val(x)),
            _ => false,
        },
    }
}

/// Whether every assignment of the binders of `group` from `level` on,
/// each over its domain's elements, satisfies the group's body. An atom
/// has no elements (ELPS §5), so its subtree holds vacuously.
fn covers(case: &Case, group: &Forall, level: usize, assign: &mut Vec<Option<Value>>) -> bool {
    let Some((q, dom)) = group.binders.get(level) else {
        return group.inner.iter().all(|lit| holds(case, lit, assign));
    };
    let dom = match dom {
        Arg::Var(v) => assign[*v].clone().expect("domain assigned"),
        Arg::Const(c) => c.clone(),
    };
    let Value::Set(elems) = dom else {
        return true;
    };
    elems.into_iter().all(|e| {
        assign[*q] = Some(e);
        covers(case, group, level + 1, assign)
    })
}

/// The engine's head relation for `case`, batch-evaluated.
fn engine(case: &Case, cost_planner: bool) -> BTreeSet<Vec<Value>> {
    let mut e = Engine::new(EvalConfig {
        cost_planner,
        ..EvalConfig::default()
    });
    let rels: Vec<_> = case
        .arities
        .iter()
        .enumerate()
        .map(|(i, &arity)| e.pred(&format!("r{i}"), arity))
        .collect();
    let head = e.pred("h", case.head.len());
    for (rel, rows) in rels.iter().zip(&case.facts) {
        for row in rows {
            let ids = row.iter().map(|v| v.intern(e.store_mut())).collect();
            e.fact(*rel, ids).expect("fact loads");
        }
    }
    let mut pattern = |a: &Arg| match a {
        Arg::Var(v) => Pattern::Var(VarId(*v as u32)),
        Arg::Const(c) => Pattern::Ground(c.intern(e.store_mut())),
    };
    fn lower(lit: &Lit, rels: &[PredId], pattern: &mut dyn FnMut(&Arg) -> Pattern) -> BodyLit {
        match lit {
            Lit::Pos(rel, args) => BodyLit::Pos(rels[*rel], args.iter().map(pattern).collect()),
            Lit::Neg(rel, args) => BodyLit::Neg(rels[*rel], args.iter().map(pattern).collect()),
            Lit::Ne(x, y) => BodyLit::Builtin(Builtin::Ne, vec![pattern(x), pattern(y)]),
            Lit::In(x, s) => BodyLit::Builtin(Builtin::In, vec![pattern(x), pattern(s)]),
            Lit::Forall(_) => unreachable!("a group is not an outer literal"),
        }
    }
    let (mut outer, mut quant) = (Vec::new(), None);
    for lit in &case.body {
        match lit {
            Lit::Forall(group) => {
                quant = Some(QuantGroup {
                    binders: group
                        .binders
                        .iter()
                        .map(|(q, dom)| (VarId(*q as u32), pattern(dom)))
                        .collect(),
                    inner: group
                        .inner
                        .iter()
                        .map(|lit| lower(lit, &rels, &mut pattern))
                        .collect(),
                });
            }
            _ => outer.push(lower(lit, &rels, &mut pattern)),
        }
    }
    e.rule(Rule {
        head,
        head_args: case
            .head
            .iter()
            .map(|&v| Pattern::Var(VarId(v as u32)))
            .collect(),
        group: None,
        outer,
        quant,
        num_vars: VARS,
        var_names: (0..VARS).map(|v| format!("V{v}")).collect(),
        var_sorts: vec![],
    })
    .unwrap_or_else(|err| panic!("{case:#?}: {err}"));
    e.run().unwrap_or_else(|err| panic!("{case:#?}: {err}"));
    e.extension(head).into_iter().collect()
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(1000))]

    /// The engine's answers equal the brute-force evaluator's, with the
    /// cost planner on and off.
    #[test]
    fn engine_matches_brute_force(seed in any::<u64>()) {
        let case = generate(seed);
        let want = oracle(&case);
        for planner in [true, false] {
            let got = engine(&case, planner);
            prop_assert_eq!(&got, &want, "planner {}: {:#?}", planner, case);
        }
    }
}

/// The generator reaches every literal kind, an existential tail and
/// each shape of `forall` group among them, and rules with answers.
#[test]
fn generator_covers_every_literal_kind() {
    let (mut neg, mut ne, mut check, mut bind, mut tail, mut repeat, mut answers) =
        (0, 0, 0, 0, 0, 0, 0);
    let (mut bound_domain, mut dependent, mut group_only, mut group_answers) = (0, 0, 0, 0);
    for seed in 0..400 {
        let case = generate(seed);
        let answered = !oracle(&case).is_empty();
        for lit in &case.body {
            match lit {
                Lit::Forall(group) => {
                    match group.binders.len() {
                        1 => bound_domain += 1,
                        _ => dependent += 1,
                    }
                    group_only += usize::from(lit.vars().contains(&GROUP_ONLY));
                    group_answers += usize::from(answered);
                }
                Lit::Neg(..) => neg += 1,
                Lit::Ne(..) => ne += 1,
                Lit::In(Arg::Var(FRESH), _) => bind += 1,
                Lit::In(Arg::Var(WITNESS), _) => tail += 1,
                Lit::In(..) => check += 1,
                Lit::Pos(_, _) => {
                    let vars = lit.vars();
                    let distinct: BTreeSet<_> = vars.iter().collect();
                    repeat += usize::from(distinct.len() < vars.len());
                }
            }
        }
        answers += usize::from(answered);
    }
    for (kind, n) in [
        ("not", neg),
        ("!=", ne),
        ("in (check)", check),
        ("in (bind)", bind),
        ("exists", tail),
        ("repeated variable", repeat),
        ("nonempty answer", answers),
        ("forall over a bound domain", bound_domain),
        ("forall with dependent binders", dependent),
        ("forall with a group-only variable", group_only),
        ("forall with a nonempty answer", group_answers),
    ] {
        assert!(n >= 20, "{kind}: only {n} of 400 cases");
    }
}
