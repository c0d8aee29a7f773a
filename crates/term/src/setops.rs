//! Set algebra over interned sets.
//!
//! These kernels implement the semantics of the paper's built-in and
//! derived set predicates on canonical (sorted, deduplicated) payloads:
//! membership `∈` (Definition 3), `union` and `scons` (Definition 15,
//! used by the Theorem-10/11 equivalences), disjointness (Example 1),
//! subset (Example 2), and disjoint union (Example 5).
//!
//! All binary operations are linear merges over the sorted payloads;
//! equality is `TermId` comparison (O(1)) thanks to hash-consing.

use crate::store::{TermId, TermStore};

/// `elem ∈ set` (Definition 3, the `∈ᵃˢ` predicate generalized to ELPS).
/// Binary-searches the canonical payload.
///
/// # Panics
/// Panics if `set` is not a set term.
pub fn member(store: &TermStore, elem: TermId, set: TermId) -> bool {
    let elems = store.set_elems(set).expect("member: not a set");
    elems.binary_search(&elem).is_ok()
}

/// `x ⊆ y` (Example 2's `subset`). Linear merge over both payloads.
pub fn subset(store: &TermStore, x: TermId, y: TermId) -> bool {
    if x == y {
        return true;
    }
    let xs = store.set_elems(x).expect("subset: not a set");
    let ys = store.set_elems(y).expect("subset: not a set");
    if xs.len() > ys.len() {
        return false;
    }
    let mut yi = ys.iter();
    'outer: for &xe in xs {
        for &ye in yi.by_ref() {
            match ye.cmp(&xe) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// `x` and `y` have no common element (Example 1's `disj`).
pub fn disjoint(store: &TermStore, x: TermId, y: TermId) -> bool {
    let xs = store.set_elems(x).expect("disjoint: not a set");
    let ys = store.set_elems(y).expect("disjoint: not a set");
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// `x ∪ y`, interned (Definition 15.1, the `union` predicate's function
/// form). Linear merge producing a canonical payload directly.
pub fn union(store: &mut TermStore, x: TermId, y: TermId) -> TermId {
    if x == y {
        return x;
    }
    let xs = store.set_elems(x).expect("union: not a set").to_vec();
    let ys = store.set_elems(y).expect("union: not a set").to_vec();
    let mut out = Vec::with_capacity(xs.len() + ys.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => {
                out.push(xs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(ys[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&xs[i..]);
    out.extend_from_slice(&ys[j..]);
    store.set_canonical(out)
}

/// Whether `z` is the set `x ∪ y`, decided by merging the payloads in
/// place: a check interns nothing. `false` when `z` is not a set.
pub fn union_is(store: &TermStore, x: TermId, y: TermId, z: TermId) -> bool {
    let xs = store.set_elems(x).expect("union: not a set");
    let ys = store.set_elems(y).expect("union: not a set");
    let Some(zs) = store.set_elems(z) else {
        return false;
    };
    let (mut i, mut j) = (0, 0);
    for &e in zs {
        let (from_x, from_y) = (xs.get(i) == Some(&e), ys.get(j) == Some(&e));
        if !from_x && !from_y {
            return false;
        }
        i += usize::from(from_x);
        j += usize::from(from_y);
    }
    i == xs.len() && j == ys.len()
}

/// `x ∩ y`, interned.
pub fn intersect(store: &mut TermStore, x: TermId, y: TermId) -> TermId {
    if x == y {
        return x;
    }
    let xs = store.set_elems(x).expect("intersect: not a set").to_vec();
    let ys = store.set_elems(y).expect("intersect: not a set").to_vec();
    let mut out = Vec::with_capacity(xs.len().min(ys.len()));
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    store.set_canonical(out)
}

/// `x ∖ y`, interned.
pub fn difference(store: &mut TermStore, x: TermId, y: TermId) -> TermId {
    let xs = store.set_elems(x).expect("difference: not a set").to_vec();
    let ys = store.set_elems(y).expect("difference: not a set").to_vec();
    let mut out = Vec::with_capacity(xs.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() {
        if j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => {
                    out.push(xs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        } else {
            out.push(xs[i]);
            i += 1;
        }
    }
    store.set_canonical(out)
}

/// `scons(x, y) = {x} ∪ y` (Definition 15.2 — LDL's set constructor,
/// rendered as a function). Inserts `x` into the canonical payload.
pub fn scons(store: &mut TermStore, x: TermId, y: TermId) -> TermId {
    let ys = store.set_elems(y).expect("scons: not a set");
    match ys.binary_search(&x) {
        Ok(_) => y,
        Err(pos) => store.set_from(y, |arena, ys| {
            arena.extend_from_within(ys.start..ys.start + pos);
            arena.push(x);
            arena.extend_from_within(ys.start + pos..ys.end);
        }),
    }
}

/// Whether `z` is the set `{x} ∪ y`, decided on the payloads in place:
/// a check interns nothing. `false` when `z` is not a set.
pub fn scons_is(store: &TermStore, x: TermId, y: TermId, z: TermId) -> bool {
    let ys = store.set_elems(y).expect("scons: not a set");
    let Some(zs) = store.set_elems(z) else {
        return false;
    };
    match ys.binary_search(&x) {
        Ok(_) => y == z,
        Err(pos) => {
            zs.len() == ys.len() + 1
                && zs[..pos] == ys[..pos]
                && zs[pos] == x
                && zs[pos + 1..] == ys[pos..]
        }
    }
}

/// All decompositions `z = {x} ∪ y` with `x ∉ y` — the inverse mode of
/// `scons` used when translating ELPS clauses to Horn + `scons`
/// (Theorem 10 proof, step 4). Yields `|z|` pairs `(x, z ∖ {x})`.
pub fn scons_decompositions(store: &mut TermStore, z: TermId) -> Vec<(TermId, TermId)> {
    let elems = store
        .set_elems(z)
        .expect("scons_decompositions: not a set")
        .to_vec();
    let mut out = Vec::with_capacity(elems.len());
    for (i, &x) in elems.iter().enumerate() {
        let y = store.set_from(z, |arena, zs| {
            arena.extend_from_within(zs.start..zs.start + i);
            arena.extend_from_within(zs.start + i + 1..zs.end);
        });
        out.push((x, y));
    }
    out
}

/// The canonical decomposition `z = {min z} ∪ rest` — the engineering
/// extension `scons_min` (DESIGN.md §4.4). Returns `None` for `∅`.
pub fn scons_min_decomposition(store: &mut TermStore, z: TermId) -> Option<(TermId, TermId)> {
    let elems = store.set_elems(z).expect("scons_min: not a set");
    let &first = elems.first()?;
    let rest = store.set_from(z, |arena, zs| {
        arena.extend_from_within(zs.start + 1..zs.end)
    });
    Some((first, rest))
}

/// All ordered pairs `(x, y)` with `x ∪ y = z` and `x ∩ y = ∅` — the
/// inverse mode of Example 5's `disj-union`, which drives the paper's
/// recursive `sum` formulation. There are `2^|z|` such pairs; callers
/// bound `|z|`.
pub fn disjoint_union_decompositions(store: &mut TermStore, z: TermId) -> Vec<(TermId, TermId)> {
    let elems = store
        .set_elems(z)
        .expect("disjoint_union_decompositions: not a set")
        .to_vec();
    let n = elems.len();
    assert!(n < usize::BITS as usize, "set too large to partition");
    let mut out = Vec::with_capacity(1usize << n);
    for mask in 0..(1usize << n) {
        let mut left = Vec::with_capacity(mask.count_ones() as usize);
        let mut right = Vec::with_capacity(n - mask.count_ones() as usize);
        for (i, &e) in elems.iter().enumerate() {
            if mask & (1 << i) != 0 {
                left.push(e);
            } else {
                right.push(e);
            }
        }
        let l = store.set_canonical(left);
        let r = store.set_canonical(right);
        out.push((l, r));
    }
    out
}

/// Enumerate (and intern) every subset of `base`'s elements with
/// cardinality at most `max_card`. This materializes a bounded fragment
/// of the Herbrand sort-`s` universe `Uˢ = P^fin(Uᵃ)` (Definition 7) —
/// needed by the Theorem-8 demonstration and by translated Horn+`union`
/// programs, both of which quantify over *all* sets.
pub fn subsets_up_to(store: &mut TermStore, base: &[TermId], max_card: usize) -> Vec<TermId> {
    let mut elems = base.to_vec();
    elems.sort_unstable();
    elems.dedup();
    let n = elems.len();
    assert!(n < usize::BITS as usize, "base too large to enumerate");
    let mut out = Vec::new();
    for mask in 0..(1usize << n) {
        if (mask.count_ones() as usize) > max_card {
            continue;
        }
        let subset: Vec<TermId> = elems
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &e)| e)
            .collect();
        out.push(store.set_canonical(subset));
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc(store: &mut TermStore) -> (TermId, TermId, TermId) {
        (store.atom("a"), store.atom("b"), store.atom("c"))
    }

    #[test]
    fn member_checks_presence() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let set = s.set(vec![a, c]);
        assert!(member(&s, a, set));
        assert!(!member(&s, b, set));
        assert!(member(&s, c, set));
    }

    #[test]
    fn subset_relation() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let empty = s.empty_set();
        let ab = s.set(vec![a, b]);
        let abc_ = s.set(vec![a, b, c]);
        let bc = s.set(vec![b, c]);
        assert!(subset(&s, empty, ab));
        assert!(subset(&s, ab, abc_));
        assert!(subset(&s, ab, ab));
        assert!(!subset(&s, abc_, ab));
        assert!(!subset(&s, ab, bc));
    }

    #[test]
    fn disjointness() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let ab = s.set(vec![a, b]);
        let c_ = s.set(vec![c]);
        let bc = s.set(vec![b, c]);
        let empty = s.empty_set();
        assert!(disjoint(&s, ab, c_));
        assert!(!disjoint(&s, ab, bc));
        assert!(disjoint(&s, empty, ab), "∅ is disjoint from everything");
        assert!(disjoint(&s, empty, empty));
    }

    #[test]
    fn union_merges_canonically() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let ab = s.set(vec![a, b]);
        let bc = s.set(vec![b, c]);
        let expected = s.set(vec![a, b, c]);
        assert_eq!(union(&mut s, ab, bc), expected);
        assert_eq!(union(&mut s, bc, ab), expected, "commutative");
        assert_eq!(union(&mut s, ab, ab), ab, "idempotent");
        let empty = s.empty_set();
        assert_eq!(union(&mut s, empty, ab), ab, "∅ is the identity");
    }

    #[test]
    fn intersect_and_difference() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let ab = s.set(vec![a, b]);
        let bc = s.set(vec![b, c]);
        let just_b = s.set(vec![b]);
        let just_a = s.set(vec![a]);
        assert_eq!(intersect(&mut s, ab, bc), just_b);
        assert_eq!(difference(&mut s, ab, bc), just_a);
        let empty = s.empty_set();
        assert_eq!(difference(&mut s, ab, ab), empty);
    }

    #[test]
    fn scons_inserts() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let bc = s.set(vec![b, c]);
        let abc_ = s.set(vec![a, b, c]);
        assert_eq!(scons(&mut s, a, bc), abc_);
        assert_eq!(scons(&mut s, b, bc), bc, "inserting a member is a no-op");
        let empty = s.empty_set();
        let just_a = s.set(vec![a]);
        assert_eq!(scons(&mut s, a, empty), just_a);
    }

    /// The in-place checks agree with the interned results on every
    /// pair of subsets of `{a, b, c}` and every candidate `z`, an atom
    /// among them, and intern nothing.
    #[test]
    fn checks_agree_with_interned_results() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let sets: Vec<TermId> = (0..8u32)
            .map(|m| {
                let elems = [a, b, c].into_iter().enumerate();
                s.set(
                    elems
                        .filter(|(i, _)| m & 1 << i != 0)
                        .map(|(_, e)| e)
                        .collect(),
                )
            })
            .collect();
        let zs: Vec<TermId> = sets.iter().copied().chain([a]).collect();
        for &x in &sets {
            for &y in &sets {
                let u = union(&mut s, x, y);
                let len = s.len();
                for &z in &zs {
                    assert_eq!(union_is(&s, x, y, z), z == u);
                }
                assert_eq!(s.len(), len, "a check interns nothing");
            }
            for e in [a, b, c] {
                let u = scons(&mut s, e, x);
                let len = s.len();
                for &z in &zs {
                    assert_eq!(scons_is(&s, e, x, z), z == u);
                }
                assert_eq!(s.len(), len, "a check interns nothing");
            }
        }
    }

    #[test]
    fn scons_decompositions_cover_all_elements() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let abc_ = s.set(vec![a, b, c]);
        let decs = scons_decompositions(&mut s, abc_);
        assert_eq!(decs.len(), 3);
        for &(x, y) in &decs {
            assert!(!member(&s, x, y), "x ∉ rest");
            assert_eq!(scons(&mut s, x, y), abc_, "recomposition");
        }
        let empty = s.empty_set();
        assert!(scons_decompositions(&mut s, empty).is_empty());
    }

    #[test]
    fn scons_min_is_canonical() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let abc_ = s.set(vec![c, b, a]);
        let (x, y) = scons_min_decomposition(&mut s, abc_).unwrap();
        // The minimum TermId is `a` (interned first).
        assert_eq!(x, a);
        let bc = s.set(vec![b, c]);
        assert_eq!(y, bc);
        let empty = s.empty_set();
        assert_eq!(scons_min_decomposition(&mut s, empty), None);
    }

    #[test]
    fn disjoint_union_decompositions_enumerate_partitions() {
        let mut s = TermStore::new();
        let (a, b, _) = abc(&mut s);
        let ab = s.set(vec![a, b]);
        let decs = disjoint_union_decompositions(&mut s, ab);
        assert_eq!(decs.len(), 4, "2^2 ordered partitions");
        for &(x, y) in &decs {
            assert!(disjoint(&s, x, y));
            assert_eq!(union(&mut s, x, y), ab);
        }
    }

    #[test]
    fn subsets_up_to_bounds_cardinality() {
        let mut s = TermStore::new();
        let (a, b, c) = abc(&mut s);
        let all = subsets_up_to(&mut s, &[a, b, c], 3);
        assert_eq!(all.len(), 8);
        let small = subsets_up_to(&mut s, &[a, b, c], 1);
        assert_eq!(small.len(), 4, "∅ and three singletons");
        for &sub in &small {
            assert!(s.card(sub).unwrap() <= 1);
        }
    }

    #[test]
    fn subsets_deduplicate_base() {
        let mut s = TermStore::new();
        let (a, _, _) = abc(&mut s);
        let subs = subsets_up_to(&mut s, &[a, a, a], 5);
        assert_eq!(subs.len(), 2, "empty set and the singleton");
    }
}
