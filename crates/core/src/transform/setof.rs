//! §4.2: set construction through stratified negation.
//!
//! Theorem 8 proves that no LPS program can define
//! `B(X) ⇔ X = {x │ A(x)}` — the rule `B(X) :- (∀x∈X) A(x)` also
//! admits every *subset*. The paper then shows (end of §4.2) that with
//! stratified negation the construction becomes expressible:
//!
//! ```text
//! C(X) :- X ⊂ Y ∧ (∀y∈Y) A(y)        % some strictly larger covered set
//! B(X) :- (∀x∈X) A(x) ∧ ¬C(X)        % maximal covered set
//! X ⊂ Y :- (∀x∈X)(x∈Y) ∧ z∈Y ∧ z∉X
//! ```
//!
//! [`setof_clauses`] emits exactly this program. Evaluating it needs
//! the candidate sets (including the maximal one) to exist in the
//! active universe — run with `SetUniverse::ActiveSubsets` (the
//! default in [`setof_database`]), which is the exponential cost that
//! experiment E5 contrasts with LDL grouping.

use lps_syntax::{parse_program, Program};

use crate::error::CoreError;
use crate::fresh::FreshNames;

/// Generate the §4.2 clauses defining `target(X)` ⇔ `X = {x │
/// source(x)}` for a unary predicate `source`. Returns the clause
/// block to append to a program.
pub fn setof_clauses(program: &Program, source: &str, target: &str) -> Result<Program, CoreError> {
    setof_with(FreshNames::for_program(program), source, target)
}

fn setof_with(mut fresh: FreshNames, source: &str, target: &str) -> Result<Program, CoreError> {
    let psub = fresh.pred("proper_subset");
    let covered = fresh.pred("covered");
    let bigger = fresh.pred("bigger_covered");
    let src = format!(
        "{psub}(Px, Py) :- subseteq(Px, Py), Pw in Py, Pw notin Px.\n\
         {covered}(Cy) :- forall Cu in Cy: {source}(Cu).\n\
         {bigger}(Bx) :- {psub}(Bx, Bz), {covered}(Bz).\n\
         {target}(Tx) :- {covered}(Tx), not {bigger}(Tx).\n"
    );
    parse_program(&src)
        .map_err(|e| CoreError::invalid(e.span, format!("internal: setof clauses: {e}")))
}

/// Convenience: a [`crate::Database`] with `facts` loaded, the §4.2
/// construction appended, and the powerset universe enabled.
pub fn setof_database(
    facts: &str,
    source: &str,
    target: &str,
    max_card: usize,
) -> Result<crate::Database, CoreError> {
    use lps_engine::{EvalConfig, SetUniverse};
    let mut db = crate::Database::with_config(
        crate::Dialect::StratifiedElps,
        EvalConfig {
            set_universe: SetUniverse::ActiveSubsets { max_card },
            ..EvalConfig::default()
        },
    );
    db.load_str(facts)?;
    let block = setof_with(db.fresh_names(), source, target)?;
    db.load_program(block);
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_term::Value;

    #[test]
    fn constructs_exactly_the_full_set() {
        // {x | a(x)} = {c1, c2}.
        let db = setof_database("a(c1). a(c2). other(c3).", "a", "the_set", 3).unwrap();
        let m = db.evaluate().unwrap();
        let rows = m.extension("the_set");
        assert_eq!(
            rows,
            vec![vec![Value::set([Value::atom("c1"), Value::atom("c2")])]],
            "exactly one set: the full extension"
        );
        // Strict subsets are NOT in the answer (Theorem 8's failing
        // candidate B(X) :- ∀x∈X a(x) would include them).
        assert!(!m.holds("the_set", &[Value::set([Value::atom("c1")])]));
        assert!(!m.holds("the_set", &[Value::empty_set()]));
    }

    #[test]
    fn empty_extension_yields_empty_set() {
        let db = setof_database("other(c1).", "a", "the_set", 2).unwrap();
        let m = db.evaluate().unwrap();
        assert!(m.holds("the_set", &[Value::empty_set()]));
        assert_eq!(m.count("the_set", 1), 1);
    }

    #[test]
    fn paper_counterexample_p1_vs_p2() {
        // Theorem 8's proof: P1 = {A(c1)}, P2 = {A(c1), A(c2)}.
        // The construction answers {c1} under P1 and {c1, c2} under P2
        // — and in particular M_{P2} ⊉ M_{P1} on B, which is exactly
        // why no *monotone* (negation-free) program can do this.
        let db1 = setof_database("a(c1). dom(c2).", "a", "b", 2).unwrap();
        let m1 = db1.evaluate().unwrap();
        let c1set = Value::set([Value::atom("c1")]);
        assert!(m1.holds("b", std::slice::from_ref(&c1set)));
        assert_eq!(m1.count("b", 1), 1);

        let db2 = setof_database("a(c1). a(c2).", "a", "b", 2).unwrap();
        let m2 = db2.evaluate().unwrap();
        assert!(!m2.holds("b", &[c1set]), "P2 must NOT keep B({{c1}})");
        assert!(m2.holds("b", &[Value::set([Value::atom("c1"), Value::atom("c2")])]));
        assert_eq!(m2.count("b", 1), 1);
    }
}
