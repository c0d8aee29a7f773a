//! Evaluation configuration and statistics.

/// Which fixpoint algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FixpointStrategy {
    /// Semi-naive evaluation with delta relations (default).
    #[default]
    SemiNaive,
    /// Naive evaluation: every rule over full relations each round —
    /// the literal `T_P ↑ ω` of Theorem 5, kept as the ablation
    /// baseline for experiment E2.
    Naive,
}

/// Policy for variables that range over the sort-*s* universe without
/// being bound by any body literal (e.g. the translated Theorem-10
/// programs, or the Theorem-8 demonstration `b(X) :- forall U in X:
/// a(U)`).
///
/// The paper's Herbrand universe `Uˢ` is the *full* finite powerset of
/// `Uᵃ` (Definition 7) — infinite for evaluation purposes. These
/// policies carve out the finite fragments that make the theorems'
/// constructive content executable (see DESIGN.md §3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SetUniverse {
    /// Reject such rules as unsafe (strict range-restriction).
    #[default]
    Reject,
    /// Enumerate the *active* sets: every set interned so far (EDB
    /// sets, set literals, and sets built by builtins during
    /// evaluation). Grows monotonically during the fixpoint.
    ActiveSets,
    /// Enumerate all subsets of the active *atom* domain up to the
    /// given cardinality, materializing them up front. Exponential —
    /// exactly what Theorem 8's powerset demonstration needs.
    ActiveSubsets {
        /// Maximum cardinality of enumerated subsets.
        max_card: usize,
    },
}

/// Evaluation settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalConfig {
    /// Fixpoint algorithm.
    pub strategy: FixpointStrategy,
    /// Handling of set-sorted variables with no binding literal.
    pub set_universe: SetUniverse,
    /// Upper bound on fixpoint rounds (guards non-terminating
    /// constructor recursion).
    pub max_iterations: usize,
    /// Use the element→set inverted index to restrict re-evaluation of
    /// `(∀x∈X)` rules to candidate sets containing newly derived
    /// elements (experiment E9). Only affects semi-naive evaluation.
    pub forall_trigger_index: bool,
    /// Upper bound on the per-session demand plan cache: at most this
    /// many compiled `(predicate, adornment)` / conjunctive-shape
    /// plans are kept, least-recently-used plans evicted beyond it
    /// (their adorned/magic relation slots are reclaimed, and any
    /// retained fixpoint sharing those slots goes cold). Values below
    /// 1 are treated as 1.
    pub demand_plan_cache: usize,
    /// Use per-predicate cardinality statistics ([`crate::stats`]) to
    /// reorder positive body literals at compile time and to score the
    /// sideways-information-passing order of the magic-set rewrite
    /// (E16). `false` restores the textual planner — body literals are
    /// joined in written order (modulo safety) and demand propagates
    /// left-to-right — which is the ablation baseline and never changes
    /// answers, only work. The default honours the `LPS_PLANNER`
    /// environment variable (`off`/`0`/`false` = textual; unset or
    /// anything else = cost-based).
    pub cost_planner: bool,
    /// Emit structured trace spans (per-stratum and per-round fixpoint
    /// spans, demand-plan lifecycle spans) into the process-wide
    /// `lps_trace` collector. Spans are only recorded when the
    /// collector itself is enabled too, so the disabled cost is a
    /// branch here plus one relaxed atomic load there. The default
    /// honours the `LPS_TRACE` environment variable (`1`/`on`/`true` =
    /// tracing; unset or anything else = off), mirroring `LPS_PLANNER`.
    pub trace: bool,
    /// Attribute planner estimates and join probes to individual body
    /// literals during evaluation, feeding `Engine::last_profile`.
    /// Internal profiling switch (`:profile` in lpsi); never read from
    /// the environment, default off.
    pub profile: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            strategy: FixpointStrategy::SemiNaive,
            set_universe: SetUniverse::Reject,
            max_iterations: 100_000,
            forall_trigger_index: true,
            demand_plan_cache: 64,
            cost_planner: planner_from_env(),
            trace: trace_from_env(),
            profile: false,
        }
    }
}

/// The `LPS_PLANNER` default: `off`, `0`, or `false` (case-insensitive)
/// disables the cost-based planner; unset or any other value keeps it
/// on. Read once per `EvalConfig::default()` call — cheap, and it
/// keeps a long-lived process honest if the harness mutates the
/// environment between engine constructions.
fn planner_from_env() -> bool {
    !std::env::var("LPS_PLANNER")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "off" || v == "0" || v == "false"
        })
        .unwrap_or(false)
}

/// The `LPS_TRACE` default: `1`, `on`, or `true` (case-insensitive)
/// enables trace spans; unset or any other value leaves them off. Read
/// per `EvalConfig::default()` call, like `LPS_PLANNER`.
fn trace_from_env() -> bool {
    std::env::var("LPS_TRACE")
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            v == "1" || v == "on" || v == "true"
        })
        .unwrap_or(false)
}

/// Counters describing one evaluation run. `T_P` round counts are the
/// quantity Theorem 5 bounds by ω; benches report them alongside wall
/// time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Fixpoint rounds executed across all strata.
    pub iterations: usize,
    /// Facts derived (inserted and new) including loaded facts.
    pub facts_derived: usize,
    /// Rule-evaluation passes (rule × variant × round).
    pub rule_evaluations: usize,
    /// Tuples produced before deduplication.
    pub tuples_considered: usize,
    /// Number of strata.
    pub strata: usize,
    /// Indexed join probes (`Relation::lookup` calls).
    pub index_probes: usize,
    /// Row ids yielded by those probes (join fan-out).
    pub probe_rows: usize,
    /// Heap allocations on the probe path. Only compound key patterns
    /// (set/function literals interned per probe) allocate; ordinary
    /// joins build keys into a stack buffer, so this is 0 for them —
    /// the observable guarantee of the arena storage layer (E11).
    pub probe_allocs: usize,
    /// Update passes that took the incremental path: the semi-naive
    /// drivers were re-seeded from pending deltas and continued from
    /// the retained model instead of recomputing it (E12). A full
    /// recompute — batch run or non-monotone fallback — contributes 0.
    pub incremental_runs: usize,
    /// Pending facts spliced into the semi-naive deltas by incremental
    /// updates (new tuples only; duplicates of the model don't count).
    pub delta_seed_facts: usize,
    /// Adorned `(predicate, binding-pattern)` pairs compiled by the
    /// demand subsystem during this pass — the size of the magic-set
    /// rewrite a query triggered. 0 once a query hits the
    /// per-adornment plan cache (E13).
    pub adornments_compiled: usize,
    /// Magic seed facts planted by demand-driven queries: the ground
    /// bound-argument tuples that root the goal-directed derivation.
    pub magic_facts_seeded: usize,
    /// Queries that could not take the demand path — negation or
    /// grouping reachable from the query predicate, or an unplannable
    /// rewrite — and fell back to full materialization.
    pub demand_fallbacks: usize,
    /// Demand queries answered from a *retained* demand space: the
    /// plan's relations already held a completed fixpoint, and the new
    /// seed (or newly arrived EDB facts) was driven through the seeded
    /// semi-naive continuation instead of a cold batch re-run (E14).
    /// Includes no-op continuations (a repeated identical query).
    pub demand_continuations: usize,
    /// Demand plans evicted from the bounded plan cache during this
    /// pass (their adorned/magic relation slots were reclaimed).
    pub plans_evicted: usize,
    /// Always 0. Evaluation is one sequential semi-naive driver; the
    /// field is kept only because the standalone benchmark
    /// (`perfbench/`) still reads it for its constant
    /// `parallel.rounds` metric.
    pub parallel_rounds: usize,
    /// Always 0; kept only for the benchmark's `parallel.merge_frac`
    /// metric (see [`EvalStats::parallel_rounds`]).
    pub merge_rows: usize,
    /// Always 0; kept only for the benchmark's `parallel.imbalance_pct`
    /// metric (see [`EvalStats::parallel_rounds`]).
    pub worker_imbalance: usize,
    /// Rule variants whose join order the cost planner changed away
    /// from the textual order (plus SIPS choices in the magic rewrite
    /// that differ from textual sideways passing). 0 with
    /// `cost_planner = false`, and 0 when the statistics agreed with
    /// the written order everywhere (E16).
    pub reorders_applied: usize,
    /// Sum of the planner's estimated intermediate-result rows over the
    /// join orders it chose — the quantity the greedy ordering
    /// minimizes. A relative signal only: compare between planner
    /// configurations on the same program, not across programs.
    pub estimated_rows: usize,
    /// Lazy statistics-snapshot passes ([`crate::stats::StatsCache`])
    /// taken during this pass: how often fact movement actually forced
    /// a re-read of the relation cardinalities before a compile.
    pub stats_refreshes: usize,
    /// Peak mismatch between the planner's estimate and reality: the
    /// larger of `estimated_rows / probe_rows` and its reciprocal,
    /// sealed once per pass ([`EvalStats::seal_misestimate`]) and
    /// max-merged by [`EvalStats::absorb`] (a peak, unlike the
    /// additive counters). ≈1 means the independence-assumption cost
    /// model tracked the workload; large values are
    /// the ROADMAP's signal that histogram statistics have become
    /// worth building. 0 when either side of the ratio was 0 (no
    /// planner estimate, or no probes).
    pub misestimate_ratio: usize,
}

impl EvalStats {
    /// Merge counters from a stratum run.
    pub fn absorb(&mut self, other: EvalStats) {
        self.iterations += other.iterations;
        self.facts_derived += other.facts_derived;
        self.rule_evaluations += other.rule_evaluations;
        self.tuples_considered += other.tuples_considered;
        self.strata += other.strata;
        self.index_probes += other.index_probes;
        self.probe_rows += other.probe_rows;
        self.probe_allocs += other.probe_allocs;
        self.incremental_runs += other.incremental_runs;
        self.delta_seed_facts += other.delta_seed_facts;
        self.adornments_compiled += other.adornments_compiled;
        self.magic_facts_seeded += other.magic_facts_seeded;
        self.demand_fallbacks += other.demand_fallbacks;
        self.demand_continuations += other.demand_continuations;
        self.plans_evicted += other.plans_evicted;
        self.reorders_applied += other.reorders_applied;
        self.estimated_rows = self.estimated_rows.saturating_add(other.estimated_rows);
        self.stats_refreshes += other.stats_refreshes;
        self.misestimate_ratio = self.misestimate_ratio.max(other.misestimate_ratio);
    }

    /// Record this pass's estimate-vs-reality ratio into
    /// [`EvalStats::misestimate_ratio`]. Called once per evaluation
    /// pass, after the planner counters are folded in and the probe
    /// counters are final; keeps the peak so repeated sealing (a pass
    /// absorbed into cumulative stats) never shrinks it.
    pub fn seal_misestimate(&mut self) {
        if self.estimated_rows > 0 && self.probe_rows > 0 {
            let hi = self.estimated_rows.max(self.probe_rows);
            let lo = self.estimated_rows.min(self.probe_rows);
            self.misestimate_ratio = self.misestimate_ratio.max(hi / lo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_safe() {
        let c = EvalConfig::default();
        assert_eq!(c.strategy, FixpointStrategy::SemiNaive);
        assert_eq!(c.set_universe, SetUniverse::Reject);
        assert!(c.forall_trigger_index);
        assert!(c.max_iterations > 0);
        assert!(c.demand_plan_cache >= 1, "the plan cache is never empty");
        let expected_planner = !std::env::var("LPS_PLANNER")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "off" || v == "0" || v == "false"
            })
            .unwrap_or(false);
        assert_eq!(
            c.cost_planner, expected_planner,
            "planner default follows LPS_PLANNER (unset = cost-based)"
        );
        let expected_trace = std::env::var("LPS_TRACE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v == "1" || v == "on" || v == "true"
            })
            .unwrap_or(false);
        assert_eq!(
            c.trace, expected_trace,
            "trace default follows LPS_TRACE (unset = off)"
        );
        assert!(!c.profile, "per-literal profiling is opt-in per query");
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = EvalStats {
            iterations: 2,
            facts_derived: 10,
            rule_evaluations: 5,
            tuples_considered: 20,
            strata: 1,
            index_probes: 7,
            probe_rows: 30,
            probe_allocs: 0,
            incremental_runs: 1,
            delta_seed_facts: 2,
            adornments_compiled: 3,
            magic_facts_seeded: 1,
            demand_fallbacks: 0,
            demand_continuations: 1,
            plans_evicted: 0,
            reorders_applied: 1,
            estimated_rows: 100,
            stats_refreshes: 1,
            misestimate_ratio: 4,
            ..EvalStats::default()
        };
        a.absorb(EvalStats {
            iterations: 3,
            facts_derived: 1,
            rule_evaluations: 2,
            tuples_considered: 4,
            strata: 1,
            index_probes: 5,
            probe_rows: 6,
            probe_allocs: 1,
            incremental_runs: 1,
            delta_seed_facts: 3,
            adornments_compiled: 2,
            magic_facts_seeded: 2,
            demand_fallbacks: 1,
            demand_continuations: 2,
            plans_evicted: 1,
            reorders_applied: 2,
            estimated_rows: 50,
            stats_refreshes: 2,
            misestimate_ratio: 3,
            ..EvalStats::default()
        });
        assert_eq!(a.iterations, 5);
        assert_eq!(a.facts_derived, 11);
        assert_eq!(a.strata, 2);
        assert_eq!(a.index_probes, 12);
        assert_eq!(a.probe_rows, 36);
        assert_eq!(a.probe_allocs, 1);
        assert_eq!(a.incremental_runs, 2);
        assert_eq!(a.delta_seed_facts, 5);
        assert_eq!(a.adornments_compiled, 5);
        assert_eq!(a.magic_facts_seeded, 3);
        assert_eq!(a.demand_fallbacks, 1);
        assert_eq!(a.demand_continuations, 3);
        assert_eq!(a.plans_evicted, 1);
        assert_eq!(a.reorders_applied, 3);
        assert_eq!(a.estimated_rows, 150);
        assert_eq!(a.stats_refreshes, 3);
        assert_eq!(a.misestimate_ratio, 4, "misestimate is a peak, not a sum");
    }

    #[test]
    fn seal_misestimate_takes_the_larger_direction() {
        // Overestimate: 100 estimated vs 10 probed → ratio 10.
        let mut s = EvalStats {
            estimated_rows: 100,
            probe_rows: 10,
            ..EvalStats::default()
        };
        s.seal_misestimate();
        assert_eq!(s.misestimate_ratio, 10);
        // Underestimate on a later pass: 10 estimated, 300 probed →
        // 30, which beats the recorded peak.
        s.estimated_rows = 10;
        s.probe_rows = 300;
        s.seal_misestimate();
        assert_eq!(s.misestimate_ratio, 30);
        // A better pass never shrinks the peak.
        s.estimated_rows = 50;
        s.probe_rows = 50;
        s.seal_misestimate();
        assert_eq!(s.misestimate_ratio, 30);
        // Either side zero: no signal, no change.
        let mut z = EvalStats {
            probe_rows: 40,
            ..EvalStats::default()
        };
        z.seal_misestimate();
        assert_eq!(z.misestimate_ratio, 0);
    }
}
