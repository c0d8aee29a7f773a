//! Abstract syntax for LPS/ELPS programs.
//!
//! The AST mirrors the paper's definitions:
//!
//! * [`Clause`] — Definition 5, generalized: the body is a full
//!   *positive formula* (Definition 12) plus negated literals; the
//!   Theorem-6 compiler in `lps-core` lowers it to pure LPS clauses
//!   (quantifier prefix + conjunction of atomic formulas).
//! * [`HeadArg::Group`] — LDL grouping heads `p(x̄, ⟨x⟩)`
//!   (Definition 14), written `p(X, <Y>)`.
//! * [`Literal::Cmp`] — the special predicates `=`, `∈` of
//!   Definition 1 plus the derived/builtin comparisons.

use lps_term::{TermNode, Value};

use crate::error::Span;

/// A parsed program: declarations and clauses in source order.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// The top-level items.
    pub items: Vec<Item>,
}

impl Program {
    /// Just the clauses, in order.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.items.iter().filter_map(|i| match i {
            Item::Clause(c) => Some(c),
            Item::Decl(_) => None,
        })
    }

    /// Just the predicate declarations, in order.
    pub fn decls(&self) -> impl Iterator<Item = &PredDecl> {
        self.items.iter().filter_map(|i| match i {
            Item::Decl(d) => Some(d),
            Item::Clause(_) => None,
        })
    }
}

/// A top-level item.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// `pred name(sort, …).`
    Decl(PredDecl),
    /// A fact or rule.
    Clause(Clause),
}

impl Item {
    /// Source location of the whole item.
    pub fn span(&self) -> Span {
        match self {
            Item::Decl(d) => d.span,
            Item::Clause(c) => c.span,
        }
    }
}

/// Sort annotation in a predicate declaration: the `αᵢ` strings of
/// Definition 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortAnn {
    /// Sort *a* — individual objects.
    Atom,
    /// Sort *s* — sets.
    Set,
    /// Unconstrained (ELPS is untyped; also used before inference).
    Any,
}

/// One node of a ground fact's arguments, in prefix order
/// ([`TermNode`]), with the source span of the whole subterm it heads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FactNode<'a> {
    /// The node.
    pub term: TermNode<'a>,
    /// Where the subterm it heads came from.
    pub span: Span,
}

/// A ground fact as a fact sink receives it
/// ([`crate::parser::parse_program_with`]): no clause and no owned
/// term, only borrowed token data.
#[derive(Clone, Copy, Debug)]
pub struct GroundFact<'b, 'a> {
    /// Predicate name.
    pub pred: &'a str,
    /// Number of top-level arguments.
    pub arity: usize,
    /// Source location of the head, as [`HeadAtom::span`].
    pub span: Span,
    /// The arguments, each in prefix order.
    pub args: &'b [FactNode<'a>],
}

impl<'b, 'a> GroundFact<'b, 'a> {
    /// The node heading each top-level argument.
    pub fn top_args(&self) -> impl Iterator<Item = &'b FactNode<'a>> {
        let mut inside = 0usize;
        self.args.iter().filter(move |n| {
            let top = inside == 0;
            inside = inside.saturating_sub(1);
            if let TermNode::App(_, k) | TermNode::Set(k) = n.term {
                inside += k;
            }
            top
        })
    }
}

/// `pred name(atom, set, …).` — optional sort declaration for a
/// predicate. Without a declaration, sorts are inferred.
#[derive(Clone, Debug, PartialEq)]
pub struct PredDecl {
    /// Predicate name.
    pub name: String,
    /// Sort of each argument position.
    pub sorts: Vec<SortAnn>,
    /// Source location.
    pub span: Span,
}

/// A fact (`body == None`) or rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Clause {
    /// The head atom (must be a non-special predicate; Definition 5).
    pub head: HeadAtom,
    /// The body formula, if any.
    pub body: Option<Formula>,
    /// Source location of the whole clause.
    pub span: Span,
}

/// The head of a clause.
#[derive(Clone, Debug, PartialEq)]
pub struct HeadAtom {
    /// Predicate name.
    pub pred: String,
    /// Arguments (terms, or a grouping slot).
    pub args: Vec<HeadArg>,
    /// Source location.
    pub span: Span,
}

impl HeadAtom {
    /// Whether any argument is an LDL grouping slot `<X>`.
    pub fn has_grouping(&self) -> bool {
        self.args.iter().any(|a| matches!(a, HeadArg::Group(..)))
    }

    /// This head as the ground fact a fact sink would receive, its
    /// arguments written into `out`; `None` when an argument is not a
    /// ground term.
    pub fn ground_fact<'b, 'h>(
        &'h self,
        out: &'b mut Vec<FactNode<'h>>,
    ) -> Option<GroundFact<'b, 'h>> {
        fn walk<'h>(t: &'h Term, out: &mut Vec<FactNode<'h>>) -> bool {
            let (term, kids) = match t {
                Term::Var(..) | Term::BinOp(..) => return false,
                Term::Const(c, _) => (TermNode::Atom(c), &[][..]),
                Term::Int(i, _) => (TermNode::Int(*i), &[][..]),
                Term::App(f, args, _) => (TermNode::App(f, args.len()), &args[..]),
                Term::SetLit(elems, _) => (TermNode::Set(elems.len()), &elems[..]),
            };
            out.push(FactNode {
                term,
                span: t.span(),
            });
            kids.iter().all(|k| walk(k, out))
        }
        out.clear();
        let ground = self.args.iter().all(|a| match a {
            HeadArg::Term(t) => walk(t, out),
            HeadArg::Group(..) => false,
        });
        ground.then_some(GroundFact {
            pred: &self.pred,
            arity: self.args.len(),
            span: self.span,
            args: out,
        })
    }
}

/// One argument of a clause head.
#[derive(Clone, Debug, PartialEq)]
pub enum HeadArg {
    /// An ordinary term.
    Term(Term),
    /// An LDL grouping slot `<X>` (Definition 14): collect the set of
    /// `X` values over the body's satisfying assignments, grouped by
    /// the remaining head arguments.
    Group(String, Span),
}

/// Body formulas: positive formulas (Definition 12) extended with
/// negated literals (§4.2) for the stratified fragment.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// An atomic formula.
    Lit(Literal),
    /// Negation-as-failure of a sub-formula (stratified programs only).
    Not(Box<Formula>, Span),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// `(∀ var ∈ set) body` — restricted universal quantification
    /// (Definition 4). True when `set` is empty.
    Forall {
        /// Bound variable.
        var: String,
        /// The set ranged over (a term of sort *s*).
        set: Term,
        /// The quantified sub-formula.
        body: Box<Formula>,
        /// Source location.
        span: Span,
    },
    /// `(∃ var ∈ set) body` — restricted existential quantification
    /// (Definition 12 case 3).
    Exists {
        /// Bound variable.
        var: String,
        /// The set ranged over.
        set: Term,
        /// The quantified sub-formula.
        body: Box<Formula>,
        /// Source location.
        span: Span,
    },
}

impl Formula {
    /// Conjunction of `fs`, flattening nested `And`s and dropping the
    /// wrapper for singletons.
    pub fn and(fs: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(fs.len());
        for f in fs {
            match f {
                Formula::And(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Formula::And(flat)
        }
    }

    /// Disjunction of `fs`, flattening nested `Or`s.
    pub fn or(fs: Vec<Formula>) -> Formula {
        let mut flat = Vec::with_capacity(fs.len());
        for f in fs {
            match f {
                Formula::Or(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("len checked")
        } else {
            Formula::Or(flat)
        }
    }

    /// Whether the formula is *positive* in the sense of Definition 12
    /// (no negation anywhere).
    pub fn is_positive(&self) -> bool {
        match self {
            Formula::Lit(_) => true,
            Formula::Not(..) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_positive),
            Formula::Forall { body, .. } | Formula::Exists { body, .. } => body.is_positive(),
        }
    }

    /// Free variables in order of first occurrence (quantifiers bind
    /// their variable within their body).
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free(&self, bound: &mut Vec<String>, out: &mut Vec<String>) {
        match self {
            Formula::Lit(lit) => lit.collect_vars_excluding(bound, out),
            Formula::Not(f, _) => f.collect_free(bound, out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_free(bound, out);
                }
            }
            Formula::Forall { var, set, body, .. } | Formula::Exists { var, set, body, .. } => {
                set.collect_vars_excluding(bound, out);
                bound.push(var.clone());
                body.collect_free(bound, out);
                bound.pop();
            }
        }
    }
}

/// An atomic formula.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// `p(t₁, …, tₙ)` for a user or auxiliary predicate.
    Pred(String, Vec<Term>, Span),
    /// A builtin comparison `t₁ op t₂` — the special predicates `=ᵃ`,
    /// `=ˢ`, `∈` of Definition 1 and the derived/arithmetic relations.
    Cmp(CmpOp, Term, Term, Span),
}

impl Literal {
    /// Source span.
    pub fn span(&self) -> Span {
        match self {
            Literal::Pred(_, _, s) | Literal::Cmp(_, _, _, s) => *s,
        }
    }

    fn collect_vars_excluding(&self, bound: &[String], out: &mut Vec<String>) {
        match self {
            Literal::Pred(_, args, _) => {
                for a in args {
                    a.collect_vars_excluding(bound, out);
                }
            }
            Literal::Cmp(_, l, r, _) => {
                l.collect_vars_excluding(bound, out);
                r.collect_vars_excluding(bound, out);
            }
        }
    }
}

/// Builtin comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum CmpOp {
    /// `=` — identity on atoms (`=ᵃ`) or extensional equality on sets
    /// (`=ˢ`); which one is resolved by sort checking.
    Eq,
    /// `!=` — the negation of equality. Used by Example 1's `disj`.
    Ne,
    /// `in` — membership `∈`.
    In,
    /// `notin` — negated membership.
    NotIn,
    /// `<` on integers.
    Lt,
    /// `<=` on integers.
    Le,
    /// `>` on integers.
    Gt,
    /// `>=` on integers.
    Ge,
}

impl CmpOp {
    /// Concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::In => "in",
            CmpOp::NotIn => "notin",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators usable inside comparison literals
/// (`K = M + N` in Example 5).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl ArithOp {
    /// Concrete-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
        }
    }
}

/// Terms (Definition 2, plus integers and arithmetic expressions).
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A variable.
    Var(String, Span),
    /// A named constant.
    Const(String, Span),
    /// An integer constant.
    Int(i64, Span),
    /// Function application `f(t₁, …, tₖ)`.
    App(String, Vec<Term>, Span),
    /// Set literal `{t₁, …, tₙ}` — the `{ₙ` constructors.
    SetLit(Vec<Term>, Span),
    /// Arithmetic expression; only allowed inside comparison literals.
    BinOp(ArithOp, Box<Term>, Box<Term>, Span),
}

impl Term {
    /// Source span.
    pub fn span(&self) -> Span {
        match self {
            Term::Var(_, s)
            | Term::Const(_, s)
            | Term::Int(_, s)
            | Term::App(_, _, s)
            | Term::SetLit(_, s)
            | Term::BinOp(_, _, _, s) => *s,
        }
    }

    /// Whether the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(..) => false,
            Term::Const(..) | Term::Int(..) => true,
            Term::App(_, args, _) | Term::SetLit(args, _) => args.iter().all(Term::is_ground),
            Term::BinOp(_, l, r, _) => l.is_ground() && r.is_ground(),
        }
    }

    /// Collect variables in first-occurrence order.
    pub fn vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars_excluding(&[], &mut out);
        out
    }

    fn collect_vars_excluding(&self, bound: &[String], out: &mut Vec<String>) {
        match self {
            Term::Var(v, _) => {
                if !bound.contains(v) && !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Term::Const(..) | Term::Int(..) => {}
            Term::App(_, args, _) | Term::SetLit(args, _) => {
                for a in args {
                    a.collect_vars_excluding(bound, out);
                }
            }
            Term::BinOp(_, l, r, _) => {
                l.collect_vars_excluding(bound, out);
                r.collect_vars_excluding(bound, out);
            }
        }
    }

    /// The [`Value`] of a ground term; `None` for variables and
    /// arithmetic.
    pub fn to_value(&self) -> Option<Value> {
        match self {
            Term::Var(..) | Term::BinOp(..) => None,
            Term::Const(c, _) => Some(Value::atom(c.clone())),
            Term::Int(i, _) => Some(Value::int(*i)),
            Term::App(f, args, _) => {
                let vals: Option<Vec<_>> = args.iter().map(Term::to_value).collect();
                Some(Value::app(f.clone(), vals?))
            }
            Term::SetLit(elems, _) => {
                let vals: Option<Vec<_>> = elems.iter().map(Term::to_value).collect();
                Some(Value::set(vals?))
            }
        }
    }

    /// Whether the term contains an arithmetic operator anywhere.
    pub fn has_arith(&self) -> bool {
        match self {
            Term::BinOp(..) => true,
            Term::Var(..) | Term::Const(..) | Term::Int(..) => false,
            Term::App(_, args, _) | Term::SetLit(args, _) => args.iter().any(Term::has_arith),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(name: &str) -> Term {
        Term::Var(name.into(), Span::default())
    }

    #[test]
    fn and_flattens() {
        let lit = |n: &str| Formula::Lit(Literal::Pred(n.into(), vec![], Span::default()));
        let inner = Formula::And(vec![lit("a"), lit("b")]);
        let f = Formula::and(vec![inner, lit("c")]);
        match f {
            Formula::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected And, got {other:?}"),
        }
        // Singleton unwraps.
        assert_eq!(Formula::and(vec![lit("a")]), lit("a"));
    }

    #[test]
    fn positivity() {
        let lit = Formula::Lit(Literal::Pred("p".into(), vec![], Span::default()));
        assert!(lit.is_positive());
        let neg = Formula::Not(Box::new(lit.clone()), Span::default());
        assert!(!neg.is_positive());
        let under_quant = Formula::Forall {
            var: "X".into(),
            set: var("S"),
            body: Box::new(neg),
            span: Span::default(),
        };
        assert!(!under_quant.is_positive());
    }

    #[test]
    fn free_vars_respect_binding() {
        // forall U in X: p(U, Y) — free vars are X and Y, not U.
        let f = Formula::Forall {
            var: "U".into(),
            set: var("X"),
            body: Box::new(Formula::Lit(Literal::Pred(
                "p".into(),
                vec![var("U"), var("Y")],
                Span::default(),
            ))),
            span: Span::default(),
        };
        assert_eq!(f.free_vars(), vec!["X".to_owned(), "Y".to_owned()]);
    }

    #[test]
    fn shadowed_outer_var_is_still_free_outside() {
        // p(U), forall U in X: q(U) — the first U is free.
        let f = Formula::And(vec![
            Formula::Lit(Literal::Pred("p".into(), vec![var("U")], Span::default())),
            Formula::Forall {
                var: "U".into(),
                set: var("X"),
                body: Box::new(Formula::Lit(Literal::Pred(
                    "q".into(),
                    vec![var("U")],
                    Span::default(),
                ))),
                span: Span::default(),
            },
        ]);
        assert_eq!(f.free_vars(), vec!["U".to_owned(), "X".to_owned()]);
    }

    #[test]
    fn term_groundness_and_vars() {
        let t = Term::SetLit(
            vec![
                Term::Const("a".into(), Span::default()),
                Term::App("f".into(), vec![var("X")], Span::default()),
            ],
            Span::default(),
        );
        assert!(!t.is_ground());
        assert_eq!(t.vars(), vec!["X".to_owned()]);
        let g = Term::SetLit(vec![Term::Int(1, Span::default())], Span::default());
        assert!(g.is_ground());
    }

    #[test]
    fn arith_detection() {
        let sum = Term::BinOp(
            ArithOp::Add,
            Box::new(var("M")),
            Box::new(var("N")),
            Span::default(),
        );
        assert!(sum.has_arith());
        assert!(!var("M").has_arith());
    }
}
