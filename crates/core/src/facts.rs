//! The ground-fact loader. Every way a fact enters — a database's
//! `load_str`, `load_program` and `add_fact`, and a live session's
//! `add_fact` and `load_facts` (the wire `F` op, `lpsi`'s fact lines) —
//! is checked against Definition 5 here and interned straight into
//! flat per-predicate rows: no clause, no `Value`, no lowering.

use lps_engine::FactBatch;
use lps_syntax::{parse_program_with, FactNode, GroundFact, Program, Span};
use lps_term::{StoreMark, TermId, TermNode, TermStore, Value};

use crate::dialect::Dialect;
use crate::error::CoreError;
use crate::sorts::nested_set_error;
use crate::validate::check_head;

/// Loaded facts: their rows, plus what sort inference reads in place
/// of the facts themselves.
#[derive(Clone, Debug, Default)]
pub(crate) struct Facts {
    pub batch: FactBatch,
    /// Per predicate, as `batch.preds()`: the first fact's head span,
    /// and per column whether its argument is a set, and its span.
    pub sorts: Vec<(Span, Vec<(bool, Span)>)>,
    /// Row buffer, reused across facts.
    row: Vec<TermId>,
}

/// A point [`Facts::rollback`] returns the facts and their store to.
#[derive(Clone, Debug)]
pub(crate) struct FactsMark(StoreMark, Vec<usize>, usize);

impl Facts {
    /// The current extent of the facts and of `store`.
    pub fn mark(&self, store: &TermStore) -> FactsMark {
        FactsMark(store.mark(), self.batch.mark(), self.sorts.len())
    }

    /// Forget every fact, term and symbol loaded since `mark`.
    pub fn rollback(&mut self, store: &mut TermStore, mark: &FactsMark) {
        store.rollback(mark.0);
        self.batch.truncate(&mark.1);
        self.sorts.truncate(mark.2);
    }

    /// Check `fact` and, if it passes, intern it into `store` and
    /// append its row. A rejected fact interns nothing. In the
    /// non-nesting dialects a column keeps the sort of its first fact.
    pub fn load(
        &mut self,
        store: &mut TermStore,
        dialect: Dialect,
        fact: GroundFact<'_, '_>,
    ) -> Result<(), CoreError> {
        check_fact(&fact, dialect)?;
        let is_set = |n: &FactNode<'_>| matches!(n.term, TermNode::Set(_));
        let known = store.symbols().get(fact.pred);
        match known.and_then(|sym| self.batch.find(sym, fact.arity)) {
            Some(slot) if !dialect.allows_nesting() => {
                let mut cols = fact.top_args().zip(&self.sorts[slot].1);
                if let Some((n, &(set, _))) = cols.find(|(n, c)| is_set(n) != c.0) {
                    let (pred, (now, was)) = (fact.pred, if set { ("a", "s") } else { ("s", "a") });
                    let msg = format!("{pred} is used at sort `{now}` but was inferred as `{was}`");
                    return Err(CoreError::sort(n.span, msg));
                }
            }
            Some(_) => {}
            None => {
                let cols = fact.top_args().map(|n| (is_set(n), n.span)).collect();
                self.sorts.push((fact.span, cols));
            }
        }
        let name = store.symbols_mut().intern(fact.pred);
        let slot = self.batch.slot(name, fact.arity);
        intern_args(store, &fact, &mut self.row);
        self.batch.push(slot, &self.row);
        self.row.clear();
        Ok(())
    }

    /// Parse `src`, loading its ground facts into `store` and `self`;
    /// returns the declarations and rules, which `facts_only` forbids.
    /// Any error — a syntax error, or a rejected fact or forbidden rule
    /// wherever it sits — rolls both back: a failed load leaves
    /// nothing behind.
    pub fn parse(
        &mut self,
        src: &str,
        dialect: Dialect,
        store: &mut TermStore,
        facts_only: bool,
    ) -> Result<Program, CoreError> {
        let mark = self.mark(store);
        let mut rejected = None;
        let parsed = parse_program_with(src, &mut |fact| {
            if rejected.is_none() {
                rejected = self.load(store, dialect, fact).err();
            }
        });
        let err = match (parsed, rejected) {
            (Err(e), _) => e.into(),
            (_, Some(e)) => e,
            (Ok(rules), None) => match rules.items.first() {
                Some(item) if facts_only => {
                    let msg = "only ground facts can be added to a live session";
                    CoreError::invalid(item.span(), msg)
                }
                _ => return Ok(rules),
            },
        };
        self.rollback(store, &mark);
        Err(err)
    }
}

/// One fact built from owned values, as the parser would hand it over.
pub(crate) fn value_fact<'v>(
    pred: &'v str,
    args: &'v [Value],
    out: &'v mut Vec<FactNode<'v>>,
) -> GroundFact<'v, 'v> {
    let span = Span::default();
    for a in args {
        a.write_nodes(&mut |term| out.push(FactNode { term, span }));
    }
    let arity = args.len();
    GroundFact {
        pred,
        arity,
        span,
        args: out,
    }
}

/// Intern a checked fact's arguments into `store`, pushing one id per
/// argument onto `row` (each argument's subterms use the space above).
pub(crate) fn intern_args(store: &mut TermStore, fact: &GroundFact<'_, '_>, row: &mut Vec<TermId>) {
    let mut nodes = fact.args.iter().map(|n| n.term);
    for _ in 0..fact.arity {
        let id = store.intern_nodes(&mut nodes, row);
        row.push(id);
    }
}

/// Definition 5 for a fact: at most `MAX_ARITY` arguments, a
/// non-builtin head and, in the non-nesting dialects, flat sets
/// (§2.1) and atom-sorted function arguments (Definition 1) — a
/// nested set reported first, as validation precedes sort inference.
pub(crate) fn check_fact(fact: &GroundFact<'_, '_>, dialect: Dialect) -> Result<(), CoreError> {
    check_head(fact.pred, fact.arity, fact.span)?;
    if dialect.allows_nesting() {
        return Ok(());
    }
    // The enclosing sets and applications, each with its children left.
    let (mut open, mut set_arg) = (Vec::new(), None);
    for node in fact.args {
        while open.last().is_some_and(|&(_, left)| left == 0) {
            open.pop();
        }
        let parent = open.last_mut().map(|(term, left)| {
            *left -= 1;
            *term
        });
        match (node.term, parent) {
            (TermNode::Set(_), _) if open.iter().any(|(t, _)| matches!(t, TermNode::Set(_))) => {
                return Err(nested_set_error(node.span));
            }
            (TermNode::Set(_), Some(TermNode::App(f, _))) => {
                let msg = format!("argument of `{f}`: sort `a` conflicts with sort `s`");
                set_arg.get_or_insert(CoreError::sort(node.span, msg));
            }
            _ => {}
        }
        if let TermNode::App(_, n) | TermNode::Set(n) = node.term {
            open.push((node.term, n));
        }
    }
    set_arg.map_or(Ok(()), Err)
}
