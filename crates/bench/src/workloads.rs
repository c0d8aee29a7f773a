//! Program generators for every experiment.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// E2: random sparse digraph + transitive closure (the classic
/// fixpoint workload; `T_P` round count ≈ graph diameter).
pub fn transitive_closure(nodes: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::new();
    // A ring (guarantees a long derivation chain) plus random chords.
    for i in 0..nodes {
        let _ = writeln!(src, "e(n{i}, n{}).", (i + 1) % nodes);
    }
    for _ in 0..nodes / 2 {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        let _ = writeln!(src, "e(n{a}, n{b}).");
    }
    src.push_str("t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n");
    src
}

/// E3/E9: `disj` over pairs of random subsets of an `m`-atom universe
/// (Example 1). `pairs` controls the EDB size.
pub fn disj_pairs(m: usize, pairs: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::new();
    for _ in 0..pairs {
        let left = random_subset(m, &mut rng);
        let right = random_subset(m, &mut rng);
        let _ = writeln!(src, "pair({left}, {right}).");
    }
    src.push_str("disj(X, Y) :- pair(X, Y), forall U in X: forall V in Y: U != V.\n");
    src
}

fn random_subset(m: usize, rng: &mut SmallRng) -> String {
    let elems: Vec<String> = (0..m)
        .filter(|_| rng.gen_bool(0.5))
        .map(|i| format!("a{i}"))
        .collect();
    format!("{{{}}}", elems.join(", "))
}

/// E4: a positive-formula body of quantifier depth `d`: nested
/// `∀ Sᵢ` alternating with disjunctions — stress for the Theorem-6
/// compilers. The driver relation supplies `d` set arguments.
pub fn positive_depth(d: usize) -> String {
    // cand(S1, ..., Sd). query(S1..Sd) :- cand(...), ∀U1∈S1 (U1 in S2 ∨ (∀U2∈S2 (...))).
    let vars: Vec<String> = (1..=d).map(|i| format!("S{i}")).collect();
    // Innermost: U_d in S_1 (some membership check).
    let mut body = format!("U{d} in S1");
    for i in (1..d).rev() {
        body = format!(
            "forall U{next} in S{next_s}: (U{next} in S{i} ; {body})",
            next = i + 1,
            next_s = i + 1,
        );
    }
    let full = format!("forall U1 in S1: ({body})");
    let mut src = String::new();
    // EDB: d sets over 4 atoms.
    let sets: Vec<&str> = vec!["{a, b}", "{b, c}", "{a, c}", "{a, b, c}", "{c, d}", "{d}"];
    let args: Vec<&str> = sets.iter().take(d).copied().collect();
    let _ = writeln!(src, "cand({}).", args.join(", "));
    let _ = writeln!(
        src,
        "query({vars}) :- cand({vars}), {full}.",
        vars = vars.join(", ")
    );
    src
}

/// E5: facts for set construction over an `n`-atom source extension.
pub fn setof_facts(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        let _ = writeln!(src, "a(c{i}).");
    }
    src
}

/// E5 (grouping side): collect the same extension with an LDL
/// grouping head.
pub fn setof_grouping(n: usize) -> String {
    let mut src = setof_facts(n);
    src.push_str("tag(all).\ncollected(T, <X>) :- tag(T), a(X).\n");
    src
}

/// E6: a bill-of-materials with one object whose part set has `k`
/// primitives, rolled up with the given formulation.
pub enum SumStyle {
    /// Example 5's recursion over all disjoint partitions (2^k).
    DisjUnion,
    /// Peel any element with `scons` (still exponential subsets, but
    /// linear per-set decompositions).
    Scons,
    /// Canonical minimum-element peeling (linear chain).
    SconsMin,
}

pub fn bom(k: usize, style: SumStyle) -> String {
    let parts: Vec<String> = (0..k).map(|i| format!("p{i}")).collect();
    let mut src = String::new();
    let _ = writeln!(src, "parts(widget, {{{}}}).", parts.join(", "));
    for (i, p) in parts.iter().enumerate() {
        let _ = writeln!(src, "cost({p}, {}).", (i % 7) + 1);
    }
    match style {
        SumStyle::DisjUnion => src.push_str(
            "visit(Y) :- parts(_X, Y).
             visit(X) :- visit(Z), disj_union(X, _Y, Z).
             sum(S, 0) :- visit(S), S = {}.
             sum(S, N) :- visit(S), S = {P}, cost(P, N).
             sum(Z, K) :- visit(Z), disj_union(X, Y, Z), X != {}, Y != {},
                          sum(X, M), sum(Y, N), M + N = K.
             obj_cost(O, N) :- parts(O, Y), sum(Y, N).\n",
        ),
        SumStyle::Scons => src.push_str(
            "visit(Y) :- parts(_X, Y).
             visit(Rest) :- visit(S), scons(_P, Rest, S), card(S, N1), card(Rest, N2), N2 < N1.
             sum(S, 0) :- visit(S), S = {}.
             sum(S, K) :- visit(S), scons(P, Rest, S), P notin Rest,
                          cost(P, N), sum(Rest, M), N + M = K.
             obj_cost(O, N) :- parts(O, Y), sum(Y, N).\n",
        ),
        SumStyle::SconsMin => src.push_str(
            "visit(Y) :- parts(_X, Y).
             visit(Rest) :- visit(S), scons_min(_P, Rest, S).
             sum(S, 0) :- visit(S), S = {}.
             sum(S, K) :- visit(S), scons_min(P, Rest, S),
                          cost(P, N), sum(Rest, M), N + M = K.
             obj_cost(O, N) :- parts(O, Y), sum(Y, N).\n",
        ),
    }
    src
}

/// E8: a chain of `k` negation strata.
pub fn strata_chain(k: usize, facts: usize) -> String {
    let mut src = String::new();
    for i in 0..facts {
        let _ = writeln!(src, "p0(v{i}).");
    }
    for s in 1..=k {
        let prev = s - 1;
        // Each level keeps the values the previous level did NOT
        // exclude; `keep` alternates so every stratum does real work.
        let _ = writeln!(src, "drop{s}(X) :- p{prev}(X), marked{s}(X).");
        let _ = writeln!(src, "marked{s}(v{}).", s % facts.max(1));
        let _ = writeln!(src, "p{s}(X) :- p{prev}(X), not drop{s}(X).");
    }
    src
}

/// E9: many sparse sets over a large universe plus a slowly-growing
/// recursive predicate. Each fixpoint round derives one new `grow`
/// atom; the ∀-trigger restricts re-evaluation to the few sets
/// containing it, while the driver without it re-checks every set.
pub fn forall_trigger(num_sets: usize, universe: usize, set_size: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::new();
    for i in 0..num_sets {
        let elems: Vec<String> = (0..set_size)
            .map(|_| format!("a{}", rng.gen_range(0..universe)))
            .collect();
        let _ = writeln!(src, "g{}({{{}}}).", i % 2, elems.join(", "));
    }
    for i in 0..universe.saturating_sub(1) {
        let _ = writeln!(src, "next(a{i}, a{}).", i + 1);
    }
    src.push_str(
        "seedling(a0).
         grow(X) :- seedling(X).
         grow(X) :- next(Y, X), grow(Y).
         all_grown(S) :- g0(S), forall U in S: grow(U).
         all_grown(S) :- g1(S), forall U in S: grow(U).\n",
    );
    src
}

/// E12: a directed chain `n0 → n1 → … → n(nodes-1)` with the
/// transitive-closure rules. Acyclic, so the materialized closure is
/// the `O(n²/2)` ancestor relation and every update edge creates real
/// new paths — the incremental-maintenance stress workload.
pub fn chain_tc(nodes: usize) -> String {
    let mut src = String::new();
    for i in 0..nodes.saturating_sub(1) {
        let _ = writeln!(src, "e(n{i}, n{}).", i + 1);
    }
    src.push_str("t(X, Y) :- e(X, Y).\nt(X, Z) :- e(X, Y), t(Y, Z).\n");
    src
}

/// E12: `k` random single-edge updates over a `nodes`-node graph
/// (endpoint indices), deterministic in `seed`. Edges already present
/// in the [`chain_tc`] base (`i → i+1`) and repeats are rejected, so
/// every update is a genuinely new fact — a duplicate would make the
/// engine's `update()` a no-op and skew the incremental-run count the
/// E12 report asserts on.
pub fn update_edges(nodes: usize, k: usize, seed: u64) -> Vec<(usize, usize)> {
    assert!(nodes >= 3, "too few nodes to draw non-chain edges");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(k);
    while out.len() < k {
        let edge = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        if edge.1 == edge.0 + 1 || out.contains(&edge) {
            continue;
        }
        out.push(edge);
    }
    out
}

/// E13: the chain of [`chain_tc`] with *left-linear* transitive
/// closure — `t(X, Z) :- t(X, Y), e(Y, Z)` — the demand-friendly
/// orientation. Under the magic-set rewrite of a `?- t(src, X)` query
/// the recursive call keeps its first argument bound to `src`, so
/// demand never leaves the seed and the derivation is `O(reach(src))`.
/// (The right-linear form of [`chain_tc`] re-demands every suffix
/// node, materializing the whole sub-closure cone — sound, but the
/// known-degenerate case; see EXPERIMENTS.md E13.)
pub fn chain_tc_left(nodes: usize) -> String {
    let mut src = String::new();
    for i in 0..nodes.saturating_sub(1) {
        let _ = writeln!(src, "e(n{i}, n{}).", i + 1);
    }
    src.push_str("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n");
    src
}

/// E13: `k` point-query sources over a `nodes`-node graph — the query
/// stream `?- t(n_src, X).` for the demand-vs-materialization
/// comparison. Deterministic in `seed`; sources repeat only if
/// `k > nodes`, and every source is drawn uniformly, so the demand
/// side answers queries of widely varying reach.
pub fn point_query_sources(nodes: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k).map(|_| rng.gen_range(0..nodes)).collect()
}

/// E14: a stream of `k` point-query sources with *overlapping
/// demand*: `distinct` sources are drawn (without replacement) from
/// the low end of the chain — long, strongly overlapping reach
/// cones — and the stream cycles through them in seed-shuffled order,
/// so most queries repeat an already-demanded source. The retained
/// demand space answers repeats as pure reads and absorbs interleaved
/// EDB updates through the seeded continuation; the cold baseline
/// re-derives each source's whole cone every time.
pub fn overlapping_sources(nodes: usize, k: usize, distinct: usize, seed: u64) -> Vec<usize> {
    assert!(
        distinct >= 1 && distinct <= nodes / 4,
        "sources come from the low quarter"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = Vec::with_capacity(distinct);
    while pool.len() < distinct {
        let s = rng.gen_range(0..nodes / 4);
        if !pool.contains(&s) {
            pool.push(s);
        }
    }
    (0..k)
        .map(|i| pool[(i + rng.gen_range(0..distinct)) % distinct])
        .collect()
}

/// E16: a cyclic three-way join whose *textual* body order is
/// adversarial — the rule lists the two big bipartite layers first
/// and the tiny corner-closing relation last:
///
/// ```text
/// out(X, Z) :- big_a(X, Y), big_b(Y, Z), small_c(Z, X).
/// ```
///
/// `big_a` is the complete `srcs × fanout` layer `s_i → m_j`, `big_b`
/// the complete `fanout × srcs` layer `m_j → t_k`, and `small_c`
/// closes only `keep` random `(t, s)` corners. No literal becomes
/// fully bound until two are placed, so the textual order enumerates
/// the whole `big_a ⋈ big_b` cross-section — `srcs · fanout · srcs`
/// pairs — before `small_c` prunes it; a cost-based plan starts at
/// `small_c` (binding both corners at `keep` rows) and touches only
/// `keep · fanout` candidates. Deterministic in `seed` (which corners
/// `small_c` closes).
pub fn triangle_like(srcs: usize, fanout: usize, keep: usize, seed: u64) -> String {
    assert!(keep <= srcs * srcs, "more corners than (t, s) pairs");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::new();
    for i in 0..srcs {
        for j in 0..fanout {
            let _ = writeln!(src, "big_a(s{i}, m{j}).");
        }
    }
    for j in 0..fanout {
        for k in 0..srcs {
            let _ = writeln!(src, "big_b(m{j}, t{k}).");
        }
    }
    let mut kept: Vec<(usize, usize)> = Vec::with_capacity(keep);
    while kept.len() < keep {
        let corner = (rng.gen_range(0..srcs), rng.gen_range(0..srcs));
        if !kept.contains(&corner) {
            kept.push(corner);
        }
    }
    for (t, s) in kept {
        let _ = writeln!(src, "small_c(t{t}, s{s}).");
    }
    src.push_str("out(X, Z) :- big_a(X, Y), big_b(Y, Z), small_c(Z, X).\n");
    src
}

/// E16: the linear bill-of-materials roll-up (Examples 5-6 with the
/// canonical `scons_min` peel, as in `examples/parts_explosion.rs`).
/// Object `o_i` is built from `1 + i % max_parts` distinct random
/// primitives out of `primitives`, each priced 1-99. The textual body
/// order lists the `cost` scan before the peel that binds its key:
///
/// ```text
/// sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),
///                    cost(P, N), sum_costs(Rest, M), N + M = K.
/// ```
///
/// so a planner that ranks `scons_min` with `S` bound below a scan
/// crosses every new `sum_costs` fact with `chain × cost` before the
/// peel filters. Deterministic in `seed`.
pub fn rollup(objects: usize, primitives: usize, max_parts: usize, seed: u64) -> String {
    assert!(max_parts <= primitives, "more parts than primitives");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut src = String::new();
    for i in 0..objects {
        let mut parts: Vec<usize> = Vec::new();
        while parts.len() < 1 + i % max_parts {
            let p = rng.gen_range(0..primitives);
            if !parts.contains(&p) {
                parts.push(p);
            }
        }
        let names: Vec<String> = parts.iter().map(|p| format!("p{p}")).collect();
        let _ = writeln!(src, "parts(o{i}, {{{}}}).", names.join(", "));
    }
    for p in 0..primitives {
        let _ = writeln!(src, "cost(p{p}, {}).", rng.gen_range(1..100));
    }
    src.push_str(
        "chain(Y) :- parts(_O, Y).
         chain(Rest) :- chain(S), scons_min(_P, Rest, S).
         sum_costs(S, 0) :- chain(S), S = {}.
         sum_costs(S, K) :- chain(S), scons_min(P, Rest, S),
                            cost(P, N), sum_costs(Rest, M), N + M = K.
         obj_cost(O, N) :- parts(O, Y), sum_costs(Y, N).\n",
    );
    src
}

/// E10: a non-1NF relation with `rows` tuples whose set attribute has
/// `set_size` elements, plus the unnest rule (Example 4).
pub fn unnest(rows: usize, set_size: usize) -> String {
    let mut src = String::with_capacity(rows * set_size * 8);
    for r in 0..rows {
        let elems: Vec<String> = (0..set_size)
            .map(|i| format!("e{}", (r * 7 + i * 13) % (set_size * 4)))
            .collect();
        let _ = writeln!(src, "r(x{r}, {{{}}}).", elems.join(", "));
    }
    src.push_str("s(X, Y) :- r(X, Ys), Y in Ys.\n");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_produce_parseable_programs() {
        for src in [
            transitive_closure(6, 1),
            disj_pairs(4, 5, 2),
            positive_depth(2),
            positive_depth(4),
            setof_facts(3),
            setof_grouping(3),
            bom(3, SumStyle::DisjUnion),
            bom(3, SumStyle::Scons),
            bom(3, SumStyle::SconsMin),
            strata_chain(4, 6),
            unnest(10, 4),
            chain_tc(8),
            triangle_like(6, 3, 2, 1),
        ] {
            lps_syntax::parse_program(&src)
                .unwrap_or_else(|e| panic!("{}\n---\n{src}", e.render(&src)));
        }
    }

    #[test]
    fn bom_styles_agree() {
        use lps_core::{Dialect, Value};
        let mut expected: Option<Vec<Vec<Value>>> = None;
        for style in [SumStyle::DisjUnion, SumStyle::Scons, SumStyle::SconsMin] {
            let src = bom(5, style);
            let d = crate::db(&src, Dialect::Elps, lps_engine::SetUniverse::Reject);
            let m = crate::eval(&d);
            let got = m.extension_n("obj_cost", 2);
            assert_eq!(got.len(), 1);
            match &expected {
                None => expected = Some(got),
                Some(e) => assert_eq!(e, &got),
            }
        }
    }

    #[test]
    fn update_edges_are_new_and_distinct() {
        let edges = update_edges(64, 32, 7);
        assert_eq!(edges.len(), 32);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            assert_ne!(b, a + 1, "chain edge ({a}, {b}) already exists");
            assert!(seen.insert((a, b)), "duplicate edge ({a}, {b})");
        }
    }

    #[test]
    fn strata_chain_has_k_strata() {
        use lps_core::Dialect;
        // Each stratum drops one distinct value: k=5 strata over 10
        // facts leaves 5 survivors at the top level.
        let src = strata_chain(5, 10);
        let d = crate::db(
            &src,
            Dialect::StratifiedElps,
            lps_engine::SetUniverse::Reject,
        );
        let m = crate::eval(&d);
        assert!(m.stats().strata >= 5);
        assert_eq!(m.count("p5", 1), 5);
    }
}
