//! Stratification of programs with negation and grouping.
//!
//! Following §4.2 and §6.2 of the paper (and the stratified-program
//! framework of \[ABW86\] it cites), a program is *stratified* when no
//! recursive cycle passes through a negated literal or a grouping
//! head. This module builds the predicate dependency graph, condenses
//! it with Tarjan's SCC algorithm, and assigns stratum numbers such
//! that:
//!
//! * positive dependencies satisfy `stratum(head) ≥ stratum(body)`,
//! * negative/grouping dependencies satisfy `stratum(head) > stratum(body)`.
//!
//! A [`CompiledProgram`] is a rule set stratified this way, each rule
//! compiled ([`crate::plan`]) and bucketed by stratum: what the stratum
//! driver (`fixpoint::run_strata`) runs.

use lps_term::{FxHashMap, FxHashSet};

use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::plan::{compile_rule, CompiledRule};
use crate::pred::PredId;
use crate::relation::ColMask;
use crate::rule::{BodyLit, Rule};
use crate::stats::Stats;

/// Dependency polarity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Polarity {
    Positive,
    /// Negated literal, or any body literal of a grouping rule
    /// (grouping must see its body's *final* extension, exactly like
    /// negation).
    Negative,
}

/// Result of stratification.
#[derive(Clone, Debug, PartialEq)]
pub struct Stratification {
    /// Stratum index per predicate (`PredId::index()`-indexed);
    /// predicates not mentioned by any rule get stratum 0.
    pub stratum_of: Vec<usize>,
    /// Total number of strata.
    pub num_strata: usize,
    /// Per stratum: the predicates read (positively, negatively, or
    /// inside a quantifier group) by rules whose heads live in that
    /// stratum — sorted and deduplicated. This is the dependency
    /// information the incremental engine uses to find the lowest
    /// stratum a batch of new facts can affect.
    reads_of: Vec<Vec<PredId>>,
}

impl Stratification {
    /// Every predicate in one stratum, with no reads recorded: the
    /// shape of a rule set evaluated once over final relations (a
    /// conjunctive goal over a model), which never restarts seeded.
    pub(crate) fn single() -> Self {
        Stratification {
            stratum_of: Vec::new(),
            num_strata: 1,
            reads_of: Vec::new(),
        }
    }

    /// Stratum of a predicate.
    pub fn stratum(&self, p: PredId) -> usize {
        self.stratum_of.get(p.index()).copied().unwrap_or(0)
    }

    /// Predicates read by rules whose heads live in `stratum`.
    pub fn reads(&self, stratum: usize) -> &[PredId] {
        self.reads_of.get(stratum).map_or(&[], Vec::as_slice)
    }

    /// The lowest stratum whose rules read any of `changed` — the
    /// point from which an incremental update (or a retained demand
    /// space's seeded continuation) must re-run the fixpoint when
    /// those predicates gain facts. `None` means no rule reads any
    /// changed predicate, so the materialized model is already the
    /// least model of the enlarged database.
    pub fn lowest_affected<I>(&self, changed: I) -> Option<usize>
    where
        I: IntoIterator<Item = PredId>,
    {
        let changed: FxHashSet<PredId> = changed.into_iter().collect();
        if changed.is_empty() {
            return None;
        }
        (0..self.num_strata).find(|&s| self.reads(s).iter().any(|p| changed.contains(p)))
    }
}

/// Why a demand (magic-set) rewrite cannot be applied to a query: a
/// non-monotone construct is reachable from the query predicate in the
/// rule dependency graph. The rewritten program would interleave magic
/// predicates with negation or grouping — in general unstratifiable,
/// and never evaluable by the monotone demand pipeline — so the engine
/// falls back to full materialization (the same discipline the
/// incremental update path applies to non-monotone strata).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemandObstruction {
    /// A reachable rule negates this predicate: stratified negation
    /// needs the negated predicate's *complete* extension, which a
    /// demand-restricted derivation cannot promise.
    Negation(PredId),
    /// A reachable rule collects this head predicate with an LDL
    /// grouping slot, which likewise reads a completed body stratum.
    Grouping(PredId),
}

impl DemandObstruction {
    /// The predicate at the obstruction.
    pub fn pred(self) -> PredId {
        match self {
            DemandObstruction::Negation(p) | DemandObstruction::Grouping(p) => p,
        }
    }
}

/// Scan the rules reachable from `roots` (following positive,
/// negative, and quantifier-inner body atoms of every rule whose head
/// is reachable) for a construct that blocks the magic-set rewrite.
/// `None` means the reachable subprogram is monotone: negation-free
/// and grouping-free, hence trivially stratifiable after the rewrite.
pub fn demand_obstruction<I>(rules: &[Rule], roots: I) -> Option<DemandObstruction>
where
    I: IntoIterator<Item = PredId>,
{
    let mut reachable: FxHashSet<PredId> = FxHashSet::default();
    let mut frontier: Vec<PredId> = roots.into_iter().collect();
    reachable.extend(frontier.iter().copied());
    while let Some(p) = frontier.pop() {
        for rule in rules.iter().filter(|r| r.head == p) {
            if rule.group.is_some() {
                return Some(DemandObstruction::Grouping(rule.head));
            }
            for lit in rule.all_body_lits() {
                match lit {
                    BodyLit::Neg(q, _) => return Some(DemandObstruction::Negation(*q)),
                    BodyLit::Pos(q, _) => {
                        if reachable.insert(*q) {
                            frontier.push(*q);
                        }
                    }
                    BodyLit::Builtin(..) => {}
                }
            }
        }
    }
    None
}

/// Compute a stratification for `rules` over `num_preds` predicates,
/// or report the offending cycle.
pub fn stratify(
    rules: &[Rule],
    num_preds: usize,
    pred_name: &dyn Fn(PredId) -> String,
) -> Result<Stratification, EngineError> {
    // Build the dependency edge list head → body-pred.
    let mut edges: FxHashMap<usize, Vec<(usize, Polarity)>> = FxHashMap::default();
    for rule in rules {
        let head = rule.head.index();
        let rule_negative = rule.group.is_some();
        for lit in rule.all_body_lits() {
            let (dep, pol) = match lit {
                BodyLit::Pos(p, _) => (
                    *p,
                    if rule_negative {
                        Polarity::Negative
                    } else {
                        Polarity::Positive
                    },
                ),
                BodyLit::Neg(p, _) => (*p, Polarity::Negative),
                BodyLit::Builtin(..) => continue,
            };
            edges.entry(head).or_default().push((dep.index(), pol));
        }
    }

    // Tarjan SCC (iterative).
    let sccs = tarjan(num_preds, &edges);
    let mut scc_of = vec![0usize; num_preds];
    for (i, scc) in sccs.iter().enumerate() {
        for &n in scc {
            scc_of[n] = i;
        }
    }

    // Negative edges within one SCC ⇒ not stratifiable.
    for (&head, deps) in &edges {
        for &(dep, pol) in deps {
            if pol == Polarity::Negative && scc_of[head] == scc_of[dep] {
                return Err(EngineError::NotStratified {
                    pred: pred_name(pred_from_index(head)),
                    through: pred_name(pred_from_index(dep)),
                });
            }
        }
    }

    // Tarjan emits SCCs in reverse topological order (dependencies
    // before dependents), so a single pass assigns strata.
    let mut scc_stratum = vec![0usize; sccs.len()];
    for (i, scc) in sccs.iter().enumerate() {
        let mut s = 0;
        for &n in scc {
            if let Some(deps) = edges.get(&n) {
                for &(dep, pol) in deps {
                    if scc_of[dep] == i {
                        continue;
                    }
                    let d = scc_stratum[scc_of[dep]];
                    s = s.max(match pol {
                        Polarity::Positive => d,
                        Polarity::Negative => d + 1,
                    });
                }
            }
        }
        scc_stratum[i] = s;
    }

    let mut stratum_of = vec![0usize; num_preds];
    for n in 0..num_preds {
        stratum_of[n] = scc_stratum[scc_of[n]];
    }
    let num_strata = stratum_of.iter().max().map_or(1, |m| m + 1);

    // Stratum → read-predicate sets, for incremental restarts.
    let mut reads_of: Vec<Vec<PredId>> = vec![Vec::new(); num_strata];
    for rule in rules {
        let s = stratum_of[rule.head.index()];
        for lit in rule.all_body_lits() {
            match lit {
                BodyLit::Pos(p, _) | BodyLit::Neg(p, _) => reads_of[s].push(*p),
                BodyLit::Builtin(..) => {}
            }
        }
    }
    for reads in &mut reads_of {
        reads.sort_unstable();
        reads.dedup();
    }

    Ok(Stratification {
        stratum_of,
        num_strata,
        reads_of,
    })
}

fn pred_from_index(i: usize) -> PredId {
    PredId::from_index(i)
}

/// Iterative Tarjan SCC. Returns SCCs in reverse topological order.
fn tarjan(n: usize, edges: &FxHashMap<usize, Vec<(usize, Polarity)>>) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS state: (node, child-iterator position).
    let empty: Vec<(usize, Polarity)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut ci)) = call_stack.last_mut() {
            if *ci == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let children = edges.get(&v).unwrap_or(&empty);
            if *ci < children.len() {
                let (w, _) = children[*ci];
                *ci += 1;
                if index[w] == UNSET {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // v is done.
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// A whole rule set stratified, compiled, and bucketed for evaluation:
/// everything derivable from the rules alone, independent of any
/// facts. The engine's batch prepare phase caches one of these for the
/// loaded program; the demand subsystem compiles one per query
/// adornment for the magic-rewritten program.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Stratification of the rule set.
    pub strat: Stratification,
    /// Every rule compiled, in input order.
    pub compiled: Vec<CompiledRule>,
    /// Indices into `compiled` of ordinary rules, per stratum.
    pub regular_by_stratum: Vec<Vec<usize>>,
    /// Indices into `compiled` of LDL grouping rules, per stratum.
    pub grouping_by_stratum: Vec<Vec<usize>>,
    /// Indices into `compiled` of ground-head fact rules.
    pub fact_rules: Vec<usize>,
    /// Deduplicated `(pred, mask)` index requests.
    pub index_requests: Vec<(PredId, ColMask)>,
    /// Highest stratum holding a non-monotone rule (negation anywhere
    /// in the body, or a grouping head); `None` for monotone programs.
    pub max_nonmono_stratum: Option<usize>,
    /// Lowest stratum holding a rule that enumerates the active set
    /// universe.
    pub min_universe_stratum: Option<usize>,
    /// Total [`CompiledRule::reorders`] across the program.
    pub reorders_applied: usize,
    /// Total [`CompiledRule::estimated_rows`] across the program.
    pub estimated_rows: usize,
}

/// Stratify and compile a rule set under the given policy — the shared
/// front half of both the batch pipeline and the per-adornment demand
/// pipeline. See [`compile_rule`] for the meaning of `idb` and `cost`.
pub fn compile_program(
    rules: &[Rule],
    num_preds: usize,
    names: &dyn Fn(PredId) -> String,
    idb: &FxHashSet<PredId>,
    policy: SetUniverse,
    cost: Option<&Stats>,
) -> Result<CompiledProgram, EngineError> {
    let strat = stratify(rules, num_preds, names)?;
    let mut compiled: Vec<CompiledRule> = Vec::with_capacity(rules.len());
    for (i, rule) in rules.iter().enumerate() {
        let mut cr = compile_rule(rule, names, idb, policy, cost)?;
        cr.id = i as u32;
        compiled.push(cr);
    }
    Ok(bucket(strat, compiled))
}

/// Compile a conjunctive goal for one batch pass over a completed
/// model, as a one-rule program: its body relations are final, so the
/// goal is one stratum, and nothing is growable, so it has no delta
/// variants and no quantifier triggers.
pub(crate) fn compile_goal(
    rule: &Rule,
    names: &dyn Fn(PredId) -> String,
    policy: SetUniverse,
    cost: Option<&Stats>,
) -> Result<CompiledProgram, EngineError> {
    let cr = compile_rule(rule, names, &FxHashSet::default(), policy, cost)?;
    Ok(bucket(Stratification::single(), vec![cr]))
}

/// Bucket compiled rules by stratum and kind, and total their planner
/// accounting.
fn bucket(strat: Stratification, compiled: Vec<CompiledRule>) -> CompiledProgram {
    let mut regular_by_stratum: Vec<Vec<usize>> = vec![Vec::new(); strat.num_strata];
    let mut grouping_by_stratum: Vec<Vec<usize>> = vec![Vec::new(); strat.num_strata];
    let mut fact_rules = Vec::new();
    let mut index_requests = Vec::new();
    let mut max_nonmono_stratum = None;
    let mut min_universe_stratum = None;
    for (i, cr) in compiled.iter().enumerate() {
        index_requests.extend_from_slice(&cr.index_requests);
        if cr.rule.is_fact() {
            fact_rules.push(i);
            continue;
        }
        let s = strat.stratum(cr.rule.head);
        let nonmono = cr.rule.group.is_some()
            || cr
                .rule
                .all_body_lits()
                .any(|l| matches!(l, BodyLit::Neg(..)));
        if nonmono {
            max_nonmono_stratum = Some(max_nonmono_stratum.map_or(s, |m: usize| m.max(s)));
        }
        if cr.uses_active_universe {
            min_universe_stratum = Some(min_universe_stratum.map_or(s, |m: usize| m.min(s)));
        }
        if cr.rule.group.is_some() {
            grouping_by_stratum[s].push(i);
        } else {
            regular_by_stratum[s].push(i);
        }
    }
    index_requests.sort_unstable();
    index_requests.dedup();

    let reorders_applied = compiled.iter().map(|c| c.reorders).sum();
    let estimated_rows = compiled
        .iter()
        .fold(0usize, |a, c| a.saturating_add(c.estimated_rows));

    CompiledProgram {
        strat,
        compiled,
        regular_by_stratum,
        grouping_by_stratum,
        fact_rules,
        index_requests,
        max_nonmono_stratum,
        min_universe_stratum,
        reorders_applied,
        estimated_rows,
    }
}

impl CompiledProgram {
    /// The ordinary (non-grouping) rules of stratum `s`, as references.
    pub fn regular(&self, s: usize) -> Vec<&CompiledRule> {
        self.regular_by_stratum[s]
            .iter()
            .map(|&i| &self.compiled[i])
            .collect()
    }

    /// The grouping rules of stratum `s`, as references.
    pub fn grouping(&self, s: usize) -> Vec<&CompiledRule> {
        self.grouping_by_stratum[s]
            .iter()
            .map(|&i| &self.compiled[i])
            .collect()
    }

    /// The stratum a seeded semi-naive continuation must restart from,
    /// given the predicates that gained facts since the last completed
    /// fixpoint and whether the interned-set universe grew since then
    /// (new sets can re-fire universe-enumerating rules even below the
    /// lowest fact-affected stratum). `None` means the retained
    /// fixpoint is already the least model of the enlarged database.
    /// Shared by the incremental update path (E12) and the retained
    /// demand spaces (E14).
    pub fn restart_stratum<I>(&self, changed: I, universe_grew: bool) -> Option<usize>
    where
        I: IntoIterator<Item = PredId>,
    {
        let start = self.strat.lowest_affected(changed);
        if universe_grew {
            match (start, self.min_universe_stratum) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        } else {
            start
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Pattern, VarId};
    use crate::pred::PredRegistry;
    use crate::rule::GroupSpec;
    use lps_term::SymbolTable;

    struct Fixture {
        reg: PredRegistry,
        names: Vec<String>,
    }

    impl Fixture {
        fn new(names: &[&str]) -> (Self, Vec<PredId>) {
            let mut syms = SymbolTable::new();
            let mut reg = PredRegistry::new();
            let ids: Vec<PredId> = names
                .iter()
                .map(|n| reg.register(syms.intern(n), 1))
                .collect();
            (
                Fixture {
                    reg,
                    names: names.iter().map(|s| s.to_string()).collect(),
                },
                ids,
            )
        }

        fn name_fn(&self) -> impl Fn(PredId) -> String + '_ {
            |p| self.names[p.index()].clone()
        }
    }

    fn rule(head: PredId, body: Vec<BodyLit>) -> Rule {
        Rule {
            head,
            head_args: vec![Pattern::Var(VarId(0))],
            group: None,
            outer: body,
            quant: None,
            num_vars: 1,
            var_names: vec!["X".into()],
            var_sorts: vec![],
        }
    }

    fn pos(p: PredId) -> BodyLit {
        BodyLit::Pos(p, vec![Pattern::Var(VarId(0))])
    }

    fn neg(p: PredId) -> BodyLit {
        BodyLit::Neg(p, vec![Pattern::Var(VarId(0))])
    }

    #[test]
    fn positive_recursion_is_one_stratum() {
        let (fx, ids) = Fixture::new(&["p", "q"]);
        // p :- q. q :- p.
        let rules = vec![
            rule(ids[0], vec![pos(ids[1])]),
            rule(ids[1], vec![pos(ids[0])]),
        ];
        let s = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.num_strata, 1);
        assert_eq!(s.stratum(ids[0]), s.stratum(ids[1]));
    }

    #[test]
    fn negation_pushes_to_higher_stratum() {
        let (fx, ids) = Fixture::new(&["edb", "p", "q"]);
        // p :- edb, not q. q :- edb.
        let rules = vec![
            rule(ids[1], vec![pos(ids[0]), neg(ids[2])]),
            rule(ids[2], vec![pos(ids[0])]),
        ];
        let s = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.stratum(ids[0]), 0);
        assert_eq!(s.stratum(ids[2]), 0);
        assert_eq!(s.stratum(ids[1]), 1);
        assert_eq!(s.num_strata, 2);
    }

    #[test]
    fn negative_cycle_is_rejected() {
        let (fx, ids) = Fixture::new(&["p", "q"]);
        // p :- not q. q :- not p.  (the classic even/odd paradox)
        let rules = vec![
            rule(ids[0], vec![neg(ids[1])]),
            rule(ids[1], vec![neg(ids[0])]),
        ];
        let err = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap_err();
        assert!(matches!(err, EngineError::NotStratified { .. }));
    }

    #[test]
    fn self_negation_is_rejected() {
        let (fx, ids) = Fixture::new(&["p"]);
        let rules = vec![rule(ids[0], vec![neg(ids[0])])];
        assert!(stratify(&rules, fx.reg.len(), &fx.name_fn()).is_err());
    }

    #[test]
    fn grouping_acts_like_negation() {
        let (fx, ids) = Fixture::new(&["obs", "grp"]);
        // grp(X, <Y>) :- obs(X, Y): grouping body must be lower.
        let mut r = rule(ids[1], vec![pos(ids[0])]);
        r.group = Some(GroupSpec {
            arg_pos: 0,
            var: VarId(0),
        });
        let s = stratify(&[r], fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.stratum(ids[0]), 0);
        assert_eq!(s.stratum(ids[1]), 1);
    }

    #[test]
    fn grouping_through_recursion_is_rejected() {
        let (fx, ids) = Fixture::new(&["p", "grp"]);
        // grp(X, <Y>) :- p(X); p(X) :- grp(X, S). Cycle through grouping.
        let mut r1 = rule(ids[1], vec![pos(ids[0])]);
        r1.group = Some(GroupSpec {
            arg_pos: 0,
            var: VarId(0),
        });
        let r2 = rule(ids[0], vec![pos(ids[1])]);
        assert!(stratify(&[r1, r2], fx.reg.len(), &fx.name_fn()).is_err());
    }

    #[test]
    fn chain_of_negations_builds_chain_of_strata() {
        let (fx, ids) = Fixture::new(&["a", "b", "c", "d"]);
        // b :- not a. c :- not b. d :- not c.
        let rules = vec![
            rule(ids[1], vec![neg(ids[0])]),
            rule(ids[2], vec![neg(ids[1])]),
            rule(ids[3], vec![neg(ids[2])]),
        ];
        let s = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.num_strata, 4);
        assert_eq!(s.stratum(ids[3]), 3);
    }

    #[test]
    fn reads_and_lowest_affected_track_stratum_dependencies() {
        let (fx, ids) = Fixture::new(&["edb", "p", "q", "island"]);
        // p :- edb, not q. q :- edb.  (edb read at strata 0 and 1)
        let rules = vec![
            rule(ids[1], vec![pos(ids[0]), neg(ids[2])]),
            rule(ids[2], vec![pos(ids[0])]),
        ];
        let s = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.reads(0), &[ids[0]]);
        assert_eq!(s.reads(1), &[ids[0], ids[2]]);
        // New edb facts hit stratum 0 first; new q facts only stratum 1.
        assert_eq!(s.lowest_affected([ids[0]]), Some(0));
        assert_eq!(s.lowest_affected([ids[2]]), Some(1));
        // Nothing reads p or the island predicate.
        assert_eq!(s.lowest_affected([ids[1]]), None);
        assert_eq!(s.lowest_affected([ids[3]]), None);
        assert_eq!(s.lowest_affected([]), None);
        // Quantifier-inner literals count as reads too.
        let mut r = rule(ids[1], vec![pos(ids[0])]);
        r.quant = Some(crate::rule::QuantGroup {
            binders: vec![(VarId(1), Pattern::Var(VarId(0)))],
            inner: vec![pos(ids[2])],
        });
        let s = stratify(&[r], fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.lowest_affected([ids[2]]), Some(0));
    }

    #[test]
    fn demand_obstruction_sees_through_the_rule_graph() {
        let (fx, ids) = Fixture::new(&["edb", "t", "iso", "grp"]);
        // t :- edb. t :- edb, t.          (monotone closure)
        // iso :- edb, not t.              (negation above t)
        // grp(<X>) :- t.                  (grouping above t)
        let closure = vec![
            rule(ids[1], vec![pos(ids[0])]),
            rule(ids[1], vec![pos(ids[0]), pos(ids[1])]),
        ];
        assert_eq!(demand_obstruction(&closure, [ids[1]]), None);

        let mut with_neg = closure.clone();
        with_neg.push(rule(ids[2], vec![pos(ids[0]), neg(ids[1])]));
        // Querying t never reaches the negation…
        assert_eq!(demand_obstruction(&with_neg, [ids[1]]), None);
        // …but querying iso does.
        assert_eq!(
            demand_obstruction(&with_neg, [ids[2]]),
            Some(DemandObstruction::Negation(ids[1]))
        );

        let mut with_grp = closure.clone();
        let mut g = rule(ids[3], vec![pos(ids[1])]);
        g.group = Some(GroupSpec {
            arg_pos: 0,
            var: VarId(0),
        });
        with_grp.push(g);
        assert_eq!(demand_obstruction(&with_grp, [ids[1]]), None);
        assert_eq!(
            demand_obstruction(&with_grp, [ids[3]]),
            Some(DemandObstruction::Grouping(ids[3]))
        );
        let _ = fx;
    }

    #[test]
    fn demand_obstruction_follows_quantifier_inner_literals() {
        let (_fx, ids) = Fixture::new(&["dom", "p", "q", "r"]);
        // p :- dom, (∀u∈X) q(u).  q :- dom, not r.
        let mut top = rule(ids[1], vec![pos(ids[0])]);
        top.quant = Some(crate::rule::QuantGroup {
            binders: vec![(VarId(1), Pattern::Var(VarId(0)))],
            inner: vec![BodyLit::Pos(ids[2], vec![Pattern::Var(VarId(1))])],
        });
        let rules = vec![top, rule(ids[2], vec![pos(ids[0]), neg(ids[3])])];
        assert_eq!(
            demand_obstruction(&rules, [ids[1]]),
            Some(DemandObstruction::Negation(ids[3]))
        );
        assert_eq!(demand_obstruction(&rules, [ids[0]]), None);
    }

    #[test]
    fn disconnected_predicates_default_to_stratum_zero() {
        let (fx, ids) = Fixture::new(&["p", "island"]);
        let rules = vec![rule(ids[0], vec![pos(ids[0])])];
        let s = stratify(&rules, fx.reg.len(), &fx.name_fn()).unwrap();
        assert_eq!(s.stratum(ids[1]), 0);
    }
}
