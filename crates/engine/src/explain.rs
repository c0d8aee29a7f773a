//! What a session can say about its demand plans without changing an
//! answer: [`Engine::explain`] describes the plan a point query would
//! run, and a query run with [`profile`](crate::EvalConfig::profile) on
//! leaves a [`QueryProfile`] of estimated against actual rows per body
//! literal.

use lps_term::TermId;

use crate::demand::PlanKey;
use crate::error::EngineError;
use crate::eval::StepProfiler;
use crate::magic;
use crate::plan::Step;
use crate::pred::PredId;
use crate::rule::BodyLit;
use crate::session::Engine;

/// Estimated-vs-actual accounting for one positive body literal of a
/// profiled query's demand plan, in the planner's chosen join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralProfile {
    /// Predicate the literal probes (adorned/magic relations keep
    /// their rewrite names, so the demand structure stays visible).
    pub pred: String,
    /// The planner's row estimate for this probe (0 when compiled
    /// without statistics).
    pub estimated_rows: u64,
    /// Index probes (or scans) actually performed across every round
    /// of the run.
    pub probes: u64,
    /// Rows those probes actually yielded.
    pub actual_rows: u64,
}

/// Per-rule slice of a [`QueryProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleProfile {
    /// Head predicate of the (rewritten) rule.
    pub head: String,
    /// Positive literals in chosen join order.
    pub literals: Vec<LiteralProfile>,
}

/// What [`EvalConfig::profile`](crate::EvalConfig::profile) buys: the
/// chosen demand plan's estimated rows per body literal next to what
/// evaluation actually probed — the planner's predictions held up
/// against ground truth (`:profile` in `lpsi`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryProfile {
    /// One entry per rewritten rule that has positive body literals.
    pub rules: Vec<RuleProfile>,
}

impl Engine {
    /// The per-literal profile of the most recent query run with
    /// [`profile`](crate::EvalConfig::profile) on; `None` if the last
    /// query was not profiled or read the model (the materialized and
    /// fallback paths run no demand plan to attribute).
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// Assemble a [`QueryProfile`] from the attribution a profiled pass
    /// of the plan under `key` collected: per rewritten rule, the
    /// planner's per-literal estimates next to the probes/rows actually
    /// observed.
    pub(crate) fn build_profile(&self, key: PlanKey, prof: &StepProfiler) -> QueryProfile {
        let mut rules = Vec::new();
        if let Some(plan) = self.query_plans.get(&key) {
            for cr in &plan.program.compiled {
                if cr.step_estimates.is_empty() {
                    continue;
                }
                let literals = cr
                    .step_estimates
                    .iter()
                    .map(|&(lit, est)| {
                        let pred = match &cr.rule.outer[lit] {
                            BodyLit::Pos(p, _) => *p,
                            other => {
                                unreachable!(
                                    "step_estimates points at positive literals: {other:?}"
                                )
                            }
                        };
                        let (probes, rows) = prof.get(cr.id, lit as u32);
                        LiteralProfile {
                            pred: self.pred_name(pred),
                            estimated_rows: est as u64,
                            probes,
                            actual_rows: rows,
                        }
                    })
                    .collect();
                rules.push(RuleProfile {
                    head: self.pred_name(cr.rule.head),
                    literals,
                });
            }
        }
        QueryProfile { rules }
    }

    /// Describe the demand plan a point query `pred(args)` would run,
    /// without running it: the goal adornment, the SIPS regime the
    /// planner used, and — when the magic rewrite succeeds — every
    /// rewritten rule's chosen join order with the planner's
    /// per-literal row estimates (`~N`). Compiles and caches the plan
    /// if this adornment has never been queried, so a following
    /// [`Engine::query`] call reuses it.
    pub fn explain(
        &mut self,
        pred: PredId,
        args: &[Option<TermId>],
    ) -> Result<String, EngineError> {
        let arity = self.preds.info(pred).arity;
        if args.len() != arity {
            return Err(EngineError::ArityMismatch {
                pred: self.pred_name(pred),
                expected: arity,
                got: args.len(),
            });
        }
        self.materialize_universe()?;
        let mask = magic::adornment_of(args);
        let key = (pred, mask);
        self.cached_plan(key, None);
        let mut out = String::new();
        out.push_str(&format!(
            "goal: {}/{}  adornment: {}\n",
            self.pred_name(pred),
            arity,
            magic::adornment_string(mask, arity)
        ));
        out.push_str(&format!(
            "sips: {}\n",
            if self.config.cost_planner {
                "cost-based (per-predicate statistics)"
            } else {
                "textual (left-to-right)"
            }
        ));
        match self.query_plans.get(&key) {
            None => {
                out.push_str(
                    "plan: fallback — rewrite obstructed; \
                     the query materializes the session's model\n",
                );
            }
            Some(plan) => {
                out.push_str(&format!(
                    "plan: demand — {} adornments, answer relation {}\n",
                    plan.adornments,
                    self.pred_name(plan.answer)
                ));
                for cr in &plan.program.compiled {
                    if cr.rule.is_fact() {
                        continue;
                    }
                    out.push_str(&format!("  {} :-", self.pred_name(cr.rule.head)));
                    let full = &cr.variants[0];
                    for (i, step) in full.steps.iter().chain(&full.post_steps).enumerate() {
                        if full.tail == Some(i) {
                            out.push_str(" |∃");
                        }
                        let desc = match step {
                            Step::Pos { lit, .. } => {
                                let BodyLit::Pos(p, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Pos step on a positive literal")
                                };
                                let est = cr
                                    .step_estimates
                                    .iter()
                                    .find(|(l, _)| l == lit)
                                    .map_or(0, |&(_, e)| e);
                                format!(" {}~{}", self.pred_name(*p), est)
                            }
                            Step::NegStep { lit } => {
                                let BodyLit::Neg(p, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Neg step on a negated literal")
                                };
                                format!(" !{}", self.pred_name(*p))
                            }
                            Step::BuiltinStep { lit, .. } => {
                                let BodyLit::Builtin(b, _) = &cr.rule.outer[*lit] else {
                                    unreachable!("Builtin step on a builtin literal")
                                };
                                format!(" <{}>", b.name())
                            }
                            Step::Members { lits, .. } => format!(" <in∩{}>", lits.len()),
                            Step::EnumUniverse { .. } => " <enum-universe>".to_owned(),
                        };
                        out.push_str(&desc);
                    }
                    out.push('\n');
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::EvalConfig;
    use crate::demand::QueryPath;
    use crate::session::tests::{tc_engine, tc_engine_with};

    #[test]
    fn profiled_query_reports_estimated_vs_actual_per_literal() {
        let (mut e, _, path, ids) = tc_engine_with(EvalConfig {
            profile: true,
            cost_planner: true,
            ..EvalConfig::default()
        });
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Demand);
        assert_eq!(res.rows.len(), 4);
        let profile = e.last_profile().expect("profiled demand query").clone();
        assert!(!profile.rules.is_empty(), "rewrite has rules with bodies");
        let total_rows: u64 = profile
            .rules
            .iter()
            .flat_map(|r| &r.literals)
            .map(|l| l.actual_rows)
            .sum();
        assert!(total_rows > 0, "the join touched rows");
        // Attribution covers all counted probe work: stats count only
        // indexed probes, the profile additionally counts scans.
        let total_probes: u64 = profile
            .rules
            .iter()
            .flat_map(|r| &r.literals)
            .map(|l| l.probes)
            .sum();
        assert!(total_probes as usize >= res.stats.index_probes);
        // A query that runs no demand plan (a model read) clears the
        // stale profile.
        e.run().unwrap();
        let res = e.query(path, &[Some(ids[1]), None]).unwrap();
        assert_eq!(res.path, QueryPath::Materialized);
        assert!(e.last_profile().is_none());
    }

    #[test]
    fn profiled_query_matches_unprofiled_answers() {
        let (mut e, _, path, ids) = tc_engine();
        let plain = e.query(path, &[Some(ids[0]), None]).unwrap();
        let (mut p, _, ppath, pids) = tc_engine_with(EvalConfig {
            profile: true,
            ..EvalConfig::default()
        });
        let profiled = p.query(ppath, &[Some(pids[0]), None]).unwrap();
        assert_eq!(plain.rows.sorted(), profiled.rows.sorted());
    }

    #[test]
    fn explain_prints_adornment_and_join_order_without_running() {
        let (mut e, _, path, ids) = tc_engine();
        let text = e.explain(path, &[Some(ids[0]), None]).unwrap();
        assert!(text.contains("adornment: bf"), "got:\n{text}");
        assert!(text.contains("plan: demand"), "got:\n{text}");
        assert!(text.contains(":-"), "join order lines present:\n{text}");
        // Explaining compiled and cached the plan; the query reuses it.
        let res = e.query(path, &[Some(ids[0]), None]).unwrap();
        assert_eq!(res.stats.adornments_compiled, 0, "plan was pre-compiled");
        assert_eq!(res.rows.len(), 4);
    }
}
