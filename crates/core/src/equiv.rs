//! Equivalence harness for the §6 translation theorems.
//!
//! §6 defines equivalence "relative only to the predicates that the
//! languages have in common". This module evaluates two databases and
//! compares the least models restricted to a chosen predicate list,
//! reporting any one-sided facts.

use std::collections::BTreeSet;

use lps_term::Value;

use crate::database::Database;
use crate::error::CoreError;

/// Disagreement report for one predicate.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivReport {
    /// Predicate name.
    pub pred: String,
    /// Arity compared.
    pub arity: usize,
    /// Rows only in the left model.
    pub left_only: Vec<Vec<Value>>,
    /// Rows only in the right model.
    pub right_only: Vec<Vec<Value>>,
    /// Rows in both.
    pub common: usize,
}

impl EquivReport {
    /// Whether the two models agree on this predicate.
    pub fn agrees(&self) -> bool {
        self.left_only.is_empty() && self.right_only.is_empty()
    }
}

/// Evaluate both databases and compare them on `preds`
/// (`(name, arity)` pairs).
pub fn compare_on(
    left: &Database,
    right: &Database,
    preds: &[(&str, usize)],
) -> Result<Vec<EquivReport>, CoreError> {
    let lm = left.evaluate()?;
    let rm = right.evaluate()?;
    let mut reports = Vec::with_capacity(preds.len());
    for &(name, arity) in preds {
        // Extensions are duplicate-free, so as sets they lose nothing.
        let lrows: BTreeSet<Vec<Value>> = lm.extension_n(name, arity).into_iter().collect();
        let rrows: BTreeSet<Vec<Value>> = rm.extension_n(name, arity).into_iter().collect();
        let left_only = lrows.difference(&rrows).cloned().collect();
        let right_only = rrows.difference(&lrows).cloned().collect();
        let common = lrows.intersection(&rrows).count();
        reports.push(EquivReport {
            pred: name.to_owned(),
            arity,
            left_only,
            right_only,
            common,
        });
    }
    Ok(reports)
}

/// Assert-style helper: `Ok(())` if the models agree on every listed
/// predicate, otherwise an error naming the first disagreement.
pub fn assert_equivalent(
    left: &Database,
    right: &Database,
    preds: &[(&str, usize)],
) -> Result<Vec<EquivReport>, CoreError> {
    let reports = compare_on(left, right, preds)?;
    for r in &reports {
        if !r.agrees() {
            let detail = format!(
                "models disagree on `{}/{}`: {} left-only (e.g. {:?}), {} right-only (e.g. {:?})",
                r.pred,
                r.arity,
                r.left_only.len(),
                r.left_only.first(),
                r.right_only.len(),
                r.right_only.first(),
            );
            return Err(CoreError::invalid(lps_syntax::Span::default(), detail));
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dialect::Dialect;

    #[test]
    fn identical_programs_agree() {
        let mut a = Database::new(Dialect::Elps);
        a.load_str("e(x, y). t(A, B) :- e(A, B).").unwrap();
        let b = a.clone();
        let reports = assert_equivalent(&a, &b, &[("t", 2)]).unwrap();
        assert_eq!(reports[0].common, 1);
    }

    #[test]
    fn disagreement_is_reported() {
        let mut a = Database::new(Dialect::Elps);
        a.load_str("t(x, y).").unwrap();
        let mut b = Database::new(Dialect::Elps);
        b.load_str("t(x, z).").unwrap();
        let reports = compare_on(&a, &b, &[("t", 2)]).unwrap();
        assert!(!reports[0].agrees());
        assert_eq!(reports[0].left_only.len(), 1);
        assert_eq!(reports[0].right_only.len(), 1);
        assert!(assert_equivalent(&a, &b, &[("t", 2)]).is_err());
    }

    #[test]
    fn missing_predicate_counts_as_empty() {
        let mut a = Database::new(Dialect::Elps);
        a.load_str("t(x).").unwrap();
        let b = Database::new(Dialect::Elps);
        let reports = compare_on(&a, &b, &[("t", 1)]).unwrap();
        assert_eq!(reports[0].left_only.len(), 1);
        assert!(reports[0].right_only.is_empty());
    }
}
