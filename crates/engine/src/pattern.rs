//! Patterns: terms with variables, matched against ground terms.
//!
//! A [`Pattern`] appears in rule heads and body-literal argument
//! positions. During evaluation, patterns are matched against ground
//! [`TermId`]s under a partial variable binding ([`Env`]), extending
//! the binding; or *built* into ground terms once all their variables
//! are bound.
//!
//! Set-literal patterns deserve a note: `{X, Y}` denotes the set
//! `{Xθ, Yθ}` which may have *fewer* elements than the pattern has
//! slots (if `Xθ = Yθ`), and matching `{X, Y}` against a ground set
//! may succeed in several ways. [`match_pattern`] therefore enumerates
//! all solutions via a callback. This is the operational face of the
//! paper's remark (§3.2) that LPS needs "arbitrary unifiers, rather
//! than the most specific one".

use lps_term::{canonicalize, Symbol, TermData, TermId, TermStore};

/// Variable slot index within a rule (dense, 0-based).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl VarId {
    /// Raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A term with variables.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// A rule variable.
    Var(VarId),
    /// A ground term (constants and fully-ground subterms are
    /// pre-interned at compile time).
    Ground(TermId),
    /// Function application with at least one variable below.
    App(Symbol, Box<[Pattern]>),
    /// Set literal with at least one variable below.
    Set(Box<[Pattern]>),
}

impl Pattern {
    /// Collect the variables in this pattern into `out` (deduplicated).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Pattern::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Pattern::Ground(_) => {}
            Pattern::App(_, ps) | Pattern::Set(ps) => {
                for p in ps.iter() {
                    p.collect_vars(out);
                }
            }
        }
    }

    /// Whether some variable of the pattern satisfies `f` (no
    /// allocation, unlike [`Pattern::collect_vars`]).
    pub fn any_var(&self, f: &impl Fn(VarId) -> bool) -> bool {
        match self {
            Pattern::Var(v) => f(*v),
            Pattern::Ground(_) => false,
            Pattern::App(_, ps) | Pattern::Set(ps) => ps.iter().any(|p| p.any_var(f)),
        }
    }

    /// Whether every variable in the pattern is bound in `env`.
    pub fn is_bound(&self, env: &Env) -> bool {
        match self {
            Pattern::Var(v) => env.get(*v).is_some(),
            Pattern::Ground(_) => true,
            Pattern::App(_, ps) | Pattern::Set(ps) => ps.iter().all(|p| p.is_bound(env)),
        }
    }

    /// Build the ground term denoted by this pattern under `env`.
    /// Returns `None` if some variable is unbound.
    pub fn build(&self, store: &mut TermStore, env: &Env) -> Option<TermId> {
        match self {
            Pattern::Var(v) => env.get(*v),
            Pattern::Ground(id) => Some(*id),
            Pattern::App(f, ps) => {
                let mut args = Vec::with_capacity(ps.len());
                for p in ps.iter() {
                    args.push(p.build(store, env)?);
                }
                Some(store.app_sym(*f, args))
            }
            Pattern::Set(ps) => {
                let mut elems = Vec::with_capacity(ps.len());
                for p in ps.iter() {
                    elems.push(p.build(store, env)?);
                }
                Some(store.set(elems))
            }
        }
    }

    /// Look up the ground term this pattern denotes under `env` without
    /// interning it: `None` if some variable is unbound or the store
    /// lacks the term. Subterm ids are gathered above the end of
    /// `scratch`, which is left as it was found.
    pub fn find(&self, store: &TermStore, env: &Env, scratch: &mut Vec<TermId>) -> Option<TermId> {
        let ps = match self {
            Pattern::Var(v) => return env.get(*v),
            Pattern::Ground(id) => return Some(*id),
            Pattern::App(_, ps) | Pattern::Set(ps) => ps,
        };
        let base = scratch.len();
        let complete = ps.iter().all(|p| match p.find(store, env, scratch) {
            Some(id) => {
                scratch.push(id);
                true
            }
            None => false,
        });
        let args = &mut scratch[base..];
        let found = complete
            .then(|| match self {
                Pattern::App(f, _) => store.find(TermData::App(*f, args)),
                _ => store.find(TermData::Set(canonicalize(args))),
            })
            .flatten();
        scratch.truncate(base);
        found
    }
}

/// A partial assignment of rule variables to ground terms, with an
/// undo trail for backtracking joins.
#[derive(Clone, Debug)]
pub struct Env {
    slots: Vec<Option<TermId>>,
    trail: Vec<VarId>,
}

impl Env {
    /// Fresh environment with `num_vars` unbound slots.
    pub fn new(num_vars: usize) -> Self {
        Env {
            slots: vec![None; num_vars],
            trail: Vec::new(),
        }
    }

    /// Reset to `num_vars` unbound slots and an empty trail, keeping
    /// both buffers' capacity.
    pub fn reset(&mut self, num_vars: usize) {
        self.slots.clear();
        self.slots.resize(num_vars, None);
        self.trail.clear();
    }

    /// Current binding of `v`.
    #[inline]
    pub fn get(&self, v: VarId) -> Option<TermId> {
        self.slots[v.index()]
    }

    /// Bind `v` (must be unbound) and record it on the trail.
    #[inline]
    pub fn bind(&mut self, v: VarId, t: TermId) {
        debug_assert!(self.slots[v.index()].is_none(), "rebinding {v:?}");
        self.slots[v.index()] = Some(t);
        self.trail.push(v);
    }

    /// Set `v` without trailing it: the executor clears the variables
    /// its ops bind itself ([`Env::unset`]).
    #[inline]
    pub(crate) fn set(&mut self, v: VarId, t: TermId) {
        self.slots[v.index()] = Some(t);
    }

    /// Clear `v`, bound by [`Env::set`].
    #[inline]
    pub(crate) fn unset(&mut self, v: VarId) {
        self.slots[v.index()] = None;
    }

    /// Trail length — capture before speculative work.
    #[inline]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undo all bindings made after `mark`.
    #[inline]
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let v = self.trail.pop().expect("trail length checked");
            self.slots[v.index()] = None;
        }
    }

    /// The `(var, value)` pairs bound after `mark`, in binding order.
    /// Used to capture a match solution so it can be re-applied after
    /// the matcher's own backtracking has undone it.
    pub fn bindings_since(&self, mark: usize) -> Vec<(VarId, TermId)> {
        self.trail[mark..]
            .iter()
            .map(|&v| (v, self.slots[v.index()].expect("trailed var is bound")))
            .collect()
    }

    /// Re-apply bindings captured by [`Env::bindings_since`].
    pub fn apply(&mut self, bindings: &[(VarId, TermId)]) {
        for &(v, t) in bindings {
            self.bind(v, t);
        }
    }

    /// Number of variable slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Match `pattern` against ground `term` under `env`, invoking `found`
/// once per solution (with `env` extended for the duration of the
/// call). Returns `true` if `found` requested an early stop.
///
/// Most patterns have at most one solution; set-literal patterns may
/// have several (see module docs).
pub fn match_pattern(
    store: &TermStore,
    pattern: &Pattern,
    term: TermId,
    env: &mut Env,
    found: &mut dyn FnMut(&mut Env) -> bool,
) -> bool {
    match pattern {
        Pattern::Var(v) => match env.get(*v) {
            Some(bound) => {
                if bound == term {
                    found(env)
                } else {
                    false
                }
            }
            None => {
                let mark = env.mark();
                env.bind(*v, term);
                let stop = found(env);
                env.undo_to(mark);
                stop
            }
        },
        Pattern::Ground(id) => {
            if *id == term {
                found(env)
            } else {
                false
            }
        }
        Pattern::App(f, ps) => match store.data(term) {
            TermData::App(g, args) if g == *f && args.len() == ps.len() => {
                match_seq(store, ps, args, 0, env, found)
            }
            _ => false,
        },
        Pattern::Set(ps) => match store.data(term) {
            TermData::Set(elems) => match_set(store, ps, elems, env, found),
            _ => false,
        },
    }
}

/// Match a tuple of patterns against a tuple of ground terms position
/// by position, invoking `found` per complete solution. This is the
/// entry point used for relation tuples and builtin candidate tuples.
pub fn match_tuple(
    store: &TermStore,
    patterns: &[Pattern],
    terms: &[TermId],
    env: &mut Env,
    found: &mut dyn FnMut(&mut Env) -> bool,
) -> bool {
    debug_assert_eq!(patterns.len(), terms.len());
    match_seq(store, patterns, terms, 0, env, found)
}

/// Match a sequence of patterns against a sequence of ground terms,
/// position by position (function arguments).
fn match_seq(
    store: &TermStore,
    patterns: &[Pattern],
    terms: &[TermId],
    idx: usize,
    env: &mut Env,
    found: &mut dyn FnMut(&mut Env) -> bool,
) -> bool {
    if idx == patterns.len() {
        return found(env);
    }
    let mut stop = false;
    match_pattern(store, &patterns[idx], terms[idx], env, &mut |env| {
        stop = match_seq(store, patterns, terms, idx + 1, env, found);
        stop
    });
    stop
}

/// Match a set-literal pattern `{p₁, …, pₙ}` against a ground set with
/// elements `elems`: enumerate assignments where every pattern element
/// matches *some* set element and every set element is matched by
/// *some* pattern element (so the denoted set equals the ground set).
fn match_set(
    store: &TermStore,
    patterns: &[Pattern],
    elems: &[TermId],
    env: &mut Env,
    found: &mut dyn FnMut(&mut Env) -> bool,
) -> bool {
    // Quick pruning: n patterns can denote at most n elements.
    if elems.len() > patterns.len() {
        return false;
    }
    let mut covered = vec![false; elems.len()];
    match_set_rec(store, patterns, elems, 0, &mut covered, env, found)
}

#[allow(clippy::too_many_arguments)]
fn match_set_rec(
    store: &TermStore,
    patterns: &[Pattern],
    elems: &[TermId],
    idx: usize,
    covered: &mut Vec<bool>,
    env: &mut Env,
    found: &mut dyn FnMut(&mut Env) -> bool,
) -> bool {
    if idx == patterns.len() {
        if covered.iter().all(|&c| c) {
            return found(env);
        }
        return false;
    }
    let mut stop = false;
    for (ei, &elem) in elems.iter().enumerate() {
        let was_covered = covered[ei];
        covered[ei] = true;
        match_pattern(store, &patterns[idx], elem, env, &mut |env| {
            stop = match_set_rec(store, patterns, elems, idx + 1, covered, env, found);
            stop
        });
        covered[ei] = was_covered;
        if stop {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_solutions(
        store: &TermStore,
        pattern: &Pattern,
        term: TermId,
        num_vars: usize,
    ) -> Vec<Vec<Option<TermId>>> {
        let mut env = Env::new(num_vars);
        let mut out = Vec::new();
        match_pattern(store, pattern, term, &mut env, &mut |env| {
            out.push((0..num_vars as u32).map(|i| env.get(VarId(i))).collect());
            false
        });
        out
    }

    #[test]
    fn var_binds_and_backtracks() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let sols = all_solutions(&st, &Pattern::Var(VarId(0)), a, 1);
        assert_eq!(sols, vec![vec![Some(a)]]);
    }

    #[test]
    fn bound_var_must_agree() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let mut env = Env::new(1);
        env.bind(VarId(0), b);
        let mut hits = 0;
        match_pattern(&st, &Pattern::Var(VarId(0)), a, &mut env, &mut |_| {
            hits += 1;
            false
        });
        assert_eq!(hits, 0);
        match_pattern(&st, &Pattern::Var(VarId(0)), b, &mut env, &mut |_| {
            hits += 1;
            false
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn app_matches_structurally() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let f = st.symbols_mut().intern("f");
        let fab = st.app_sym(f, vec![a, b]);
        let pat = Pattern::App(f, Box::new([Pattern::Var(VarId(0)), Pattern::Ground(b)]));
        let sols = all_solutions(&st, &pat, fab, 1);
        assert_eq!(sols, vec![vec![Some(a)]]);
        // Wrong function symbol: no match.
        let g = st.symbols_mut().intern("g");
        let pat_g = Pattern::App(g, Box::new([Pattern::Var(VarId(0)), Pattern::Ground(b)]));
        assert!(all_solutions(&st, &pat_g, fab, 1).is_empty());
    }

    #[test]
    fn singleton_set_pattern_binds_element() {
        // X = {N} from Example 5's base case.
        let mut st = TermStore::new();
        let n = st.int(7);
        let set = st.set(vec![n]);
        let pat = Pattern::Set(Box::new([Pattern::Var(VarId(0))]));
        let sols = all_solutions(&st, &pat, set, 1);
        assert_eq!(sols, vec![vec![Some(n)]]);
        // Fails against a 2-element set.
        let m = st.int(8);
        let set2 = st.set(vec![n, m]);
        assert!(all_solutions(&st, &pat, set2, 1).is_empty());
    }

    #[test]
    fn two_var_set_pattern_enumerates_assignments() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let ab = st.set(vec![a, b]);
        let pat = Pattern::Set(Box::new([Pattern::Var(VarId(0)), Pattern::Var(VarId(1))]));
        let sols = all_solutions(&st, &pat, ab, 2);
        // (X=a, Y=b) and (X=b, Y=a).
        assert_eq!(sols.len(), 2);
        assert!(sols.contains(&vec![Some(a), Some(b)]));
        assert!(sols.contains(&vec![Some(b), Some(a)]));
    }

    #[test]
    fn set_pattern_collapses_onto_singleton() {
        // {X, Y} matches {a} with X = Y = a.
        let mut st = TermStore::new();
        let a = st.atom("a");
        let sa = st.set(vec![a]);
        let pat = Pattern::Set(Box::new([Pattern::Var(VarId(0)), Pattern::Var(VarId(1))]));
        let sols = all_solutions(&st, &pat, sa, 2);
        assert_eq!(sols, vec![vec![Some(a), Some(a)]]);
    }

    #[test]
    fn set_pattern_requires_coverage() {
        // {a} must NOT match {a, b} — the denoted set would be smaller.
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let ab = st.set(vec![a, b]);
        let pat = Pattern::Set(Box::new([Pattern::Ground(a)]));
        assert!(all_solutions(&st, &pat, ab, 0).is_empty());
    }

    #[test]
    fn build_constructs_and_interns() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let f = st.symbols_mut().intern("f");
        let mut env = Env::new(1);
        env.bind(VarId(0), a);
        let pat = Pattern::Set(Box::new([
            Pattern::Var(VarId(0)),
            Pattern::App(f, Box::new([Pattern::Var(VarId(0))])),
        ]));
        let built = pat.build(&mut st, &env).unwrap();
        let fa = st.app_sym(f, vec![a]);
        let expected = st.set(vec![a, fa]);
        assert_eq!(built, expected);
    }

    #[test]
    fn build_fails_on_unbound() {
        let mut st = TermStore::new();
        let env = Env::new(1);
        assert_eq!(Pattern::Var(VarId(0)).build(&mut st, &env), None);
    }

    #[test]
    fn env_trail_undoes_bindings() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let mut env = Env::new(2);
        let mark = env.mark();
        env.bind(VarId(0), a);
        env.bind(VarId(1), a);
        assert!(env.get(VarId(0)).is_some());
        env.undo_to(mark);
        assert!(env.get(VarId(0)).is_none());
        assert!(env.get(VarId(1)).is_none());
    }

    #[test]
    fn empty_set_pattern_matches_only_empty_set() {
        let mut st = TermStore::new();
        let e = st.empty_set();
        let a = st.atom("a");
        let sa = st.set(vec![a]);
        let pat = Pattern::Set(Box::new([]));
        assert_eq!(all_solutions(&st, &pat, e, 0).len(), 1);
        assert!(all_solutions(&st, &pat, sa, 0).is_empty());
    }
}
