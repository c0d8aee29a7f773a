//! Collision-free fresh-name generation for auxiliary predicates and
//! renamed variables.

use std::collections::HashSet;

use lps_syntax::{Formula, HeadArg, Literal, Program, Term};

/// Generates predicate and variable names guaranteed not to collide
/// with anything in the source program (or previously generated).
#[derive(Debug, Default, Clone)]
pub struct FreshNames {
    used_preds: HashSet<String>,
    used_vars: HashSet<String>,
    pred_counter: usize,
    var_counter: usize,
}

impl FreshNames {
    /// Seed from a program: collect every predicate, constant,
    /// function, and variable name in use.
    pub fn for_program(program: &Program) -> Self {
        let mut fresh = FreshNames::default();
        for decl in program.decls() {
            fresh.used_preds.insert(decl.name.clone());
        }
        for clause in program.clauses() {
            fresh.used_preds.insert(clause.head.pred.clone());
            for arg in &clause.head.args {
                match arg {
                    HeadArg::Term(t) => fresh.scan_term(t),
                    HeadArg::Group(v, _) => {
                        fresh.used_vars.insert(v.clone());
                    }
                }
            }
            if let Some(body) = &clause.body {
                fresh.scan_formula(body);
            }
        }
        fresh
    }

    fn scan_formula(&mut self, f: &Formula) {
        match f {
            Formula::Lit(Literal::Pred(name, args, _)) => {
                self.used_preds.insert(name.clone());
                args.iter().for_each(|a| self.scan_term(a));
            }
            Formula::Lit(Literal::Cmp(_, l, r, _)) => {
                [l, r].into_iter().for_each(|t| self.scan_term(t))
            }
            Formula::Not(inner, _) => self.scan_formula(inner),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().for_each(|f| self.scan_formula(f)),
            Formula::Forall { var, set, body, .. } | Formula::Exists { var, set, body, .. } => {
                self.used_vars.insert(var.clone());
                self.scan_term(set);
                self.scan_formula(body);
            }
        }
    }

    fn scan_term(&mut self, t: &Term) {
        match t {
            Term::Var(v, _) => {
                self.used_vars.insert(v.clone());
            }
            // Constants share the lowercase namespace with predicates
            // in the surface syntax; avoid both.
            Term::Const(f, _) | Term::App(f, _, _) => {
                self.used_preds.insert(f.clone());
                if let Term::App(_, args, _) = t {
                    args.iter().for_each(|a| self.scan_term(a));
                }
            }
            Term::Int(..) => {}
            Term::SetLit(elems, _) => elems.iter().for_each(|e| self.scan_term(e)),
            Term::BinOp(_, l, r, _) => [l, r].into_iter().for_each(|t| self.scan_term(t)),
        }
    }

    /// Keep `name` from being generated: a predicate the program has
    /// outside its clauses (a loaded fact's).
    pub fn reserve_pred(&mut self, name: &str) {
        self.used_preds.insert(name.to_owned());
    }

    /// A fresh predicate name with the given stem (e.g. `aux`).
    pub fn pred(&mut self, stem: &str) -> String {
        loop {
            let candidate = format!("{stem}_{}", self.pred_counter);
            self.pred_counter += 1;
            if self.used_preds.insert(candidate.clone()) {
                return candidate;
            }
        }
    }

    /// A fresh variable name (uppercase, parser-compatible).
    pub fn var(&mut self, stem: &str) -> String {
        loop {
            let candidate = format!("{stem}{}", self.var_counter);
            self.var_counter += 1;
            if self.used_vars.insert(candidate.clone()) {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_syntax::parse_program;

    #[test]
    fn avoids_existing_names() {
        let p = parse_program("aux_0(X) :- q(X, Vq0).").unwrap();
        let mut f = FreshNames::for_program(&p);
        assert_ne!(f.pred("aux"), "aux_0");
        assert_ne!(f.var("Vq"), "Vq0");
    }

    #[test]
    fn generated_names_are_distinct() {
        let p = parse_program("p.").unwrap();
        let mut f = FreshNames::for_program(&p);
        let a = f.pred("aux");
        let b = f.pred("aux");
        assert_ne!(a, b);
        let x = f.var("V");
        let y = f.var("V");
        assert_ne!(x, y);
    }

    #[test]
    fn avoids_constants_too() {
        // A constant `aux_0` would collide with a generated predicate
        // name in the shared lowercase namespace.
        let p = parse_program("p(aux_0).").unwrap();
        let mut f = FreshNames::for_program(&p);
        assert_ne!(f.pred("aux"), "aux_0");
    }
}
