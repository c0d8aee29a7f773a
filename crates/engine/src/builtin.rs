//! Builtin relation evaluation with binding modes.
//!
//! Each builtin supports a set of *modes*: which arguments must be
//! bound for evaluation to be possible, and what gets enumerated when
//! the others are free. [`mode_ok`] is the static mode table used by
//! the planner; [`enumerate`] produces the candidate ground argument
//! tuples at run time (the caller pattern-matches them back against
//! the argument patterns, which handles destructuring like `X = {N}`).
//! [`functional`] marks the modes that yield at most one row, which the
//! cost planner ranks as 1-row probes.
//!
//! Free set-sorted arguments (e.g. `x in S` with `S` free, `subseteq`
//! with a free side) are enumerated over the **active set universe** —
//! every set interned in the store — under the [`SetUniverse`] policy.
//! This is the executable restriction of the paper's infinitary
//! Herbrand sort-s universe (see DESIGN.md §3).

use lps_term::{setops, TermId, TermStore};

use crate::config::SetUniverse;
use crate::error::EngineError;
use crate::rule::Builtin;

/// Is the builtin evaluable when exactly the arguments flagged in
/// `bound` are bound, under the given set-universe policy?
pub fn mode_ok(b: Builtin, bound: &[bool], policy: SetUniverse) -> bool {
    debug_assert_eq!(bound.len(), b.arity());
    let enumerable = !matches!(policy, SetUniverse::Reject);
    match b {
        Builtin::Eq => bound[0] || bound[1],
        Builtin::Ne | Builtin::NotIn | Builtin::Lt | Builtin::Le => bound[0] && bound[1],
        Builtin::In => bound[1] || enumerable,
        Builtin::SubsetEq => (bound[0] && bound[1]) || enumerable,
        // With only one input and `Z` bound, the other input ranges
        // over the active sets.
        Builtin::Union => (bound[0] && bound[1]) || (bound[2] && enumerable),
        Builtin::DisjUnion | Builtin::Scons | Builtin::SconsMin => {
            (bound[0] && bound[1]) || bound[2]
        }
        Builtin::Card => bound[0] || (bound[1] && enumerable),
        Builtin::Add | Builtin::Sub => bound.iter().filter(|&&b| b).count() >= 2,
        Builtin::Mul => (bound[0] && bound[1]) || (bound[2] && (bound[0] || bound[1])),
    }
}

/// Do the arguments flagged in `bound` determine at most one row of
/// `b`? Every such mode is also admitted by [`mode_ok`] under any
/// policy. The cost planner scores these builtins as 1-row probes, so
/// a computed column binds before any scan that could use it.
pub fn functional(b: Builtin, bound: &[bool]) -> bool {
    debug_assert_eq!(bound.len(), b.arity());
    match b {
        Builtin::Eq => bound[0] || bound[1],
        Builtin::Union | Builtin::Scons | Builtin::Mul => bound[0] && bound[1],
        Builtin::SconsMin => (bound[0] && bound[1]) || bound[2],
        Builtin::DisjUnion => (bound[0] && bound[1]) || (bound[2] && (bound[0] || bound[1])),
        Builtin::Card => bound[0],
        Builtin::Add | Builtin::Sub => bound.iter().filter(|&&f| f).count() >= 2,
        Builtin::Ne
        | Builtin::In
        | Builtin::NotIn
        | Builtin::SubsetEq
        | Builtin::Lt
        | Builtin::Le => false,
    }
}

/// The argument positions at which `b` needs a set: an atom there is a
/// `TypeError`, or for `in` simply no member. `notin` needs none, since
/// `x ∉ atom` holds. The planner ranges an unsorted variable found at
/// one of these positions over the active sets only.
pub fn set_positions(b: Builtin) -> &'static [usize] {
    match b {
        Builtin::Card => &[0],
        Builtin::Union | Builtin::DisjUnion => &[0, 1, 2],
        Builtin::Scons | Builtin::SconsMin => &[1, 2],
        Builtin::SubsetEq => &[0, 1],
        Builtin::In => &[1],
        Builtin::Eq
        | Builtin::Ne
        | Builtin::NotIn
        | Builtin::Add
        | Builtin::Sub
        | Builtin::Mul
        | Builtin::Lt
        | Builtin::Le => &[],
    }
}

/// The widest builtin (`union`, `+`, …): callers size their stack
/// argument buffers with it.
pub const MAX_BUILTIN_ARITY: usize = 3;

/// Append the candidate ground argument tuples for `b`, given the
/// already-known ground values in `known` (`None` = free), to `out`:
/// one tuple after another, `b.arity()` ids each. Guaranteed
/// consistent with the bound positions: a candidate repeats every
/// known value, so the executor reads only the free positions back.
///
/// `out` is the executor's shared candidate stack: whatever it already
/// holds is left untouched, and on `Err` nothing is appended. Checks
/// and enumerations read set payloads in place, so the only
/// allocations are those of terms the call interns into `store`
/// (computed unions, new integers). A set builtin with every argument
/// bound compares payloads and interns nothing, so a check never adds
/// a set to the active universe.
pub fn enumerate(
    b: Builtin,
    known: &[Option<TermId>],
    store: &mut TermStore,
    policy: SetUniverse,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    debug_assert_eq!(known.len(), b.arity());
    let start = out.len();
    let res = append_candidates(b, known, store, policy, out);
    if res.is_err() {
        out.truncate(start);
    }
    debug_assert_eq!((out.len() - start) % b.arity(), 0, "{}", b.name());
    res
}

/// Whether `b` holds of `args`, every argument bound: the check mode
/// of [`enumerate`], true exactly when it would append a candidate. The
/// comparisons and memberships are answered in place; any other
/// builtin runs [`enumerate`] on top of `scratch` and gives it back.
pub fn holds(
    b: Builtin,
    args: &[TermId],
    store: &mut TermStore,
    policy: SetUniverse,
    scratch: &mut Vec<TermId>,
) -> Result<bool, EngineError> {
    debug_assert_eq!(args.len(), b.arity());
    // ELPS (§5): an atom has no elements.
    let member = |store: &TermStore| {
        store
            .set_elems(args[1])
            .is_some_and(|elems| elems.binary_search(&args[0]).is_ok())
    };
    match b {
        Builtin::Eq => Ok(args[0] == args[1]),
        Builtin::Ne => Ok(args[0] != args[1]),
        Builtin::In => Ok(member(store)),
        Builtin::NotIn => Ok(!member(store)),
        _ => {
            let mut known = [None; MAX_BUILTIN_ARITY];
            for (k, &a) in known.iter_mut().zip(args) {
                *k = Some(a);
            }
            let start = scratch.len();
            enumerate(b, &known[..args.len()], store, policy, scratch)?;
            let holds = scratch.len() > start;
            scratch.truncate(start);
            Ok(holds)
        }
    }
}

fn append_candidates(
    b: Builtin,
    known: &[Option<TermId>],
    store: &mut TermStore,
    policy: SetUniverse,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    match b {
        Builtin::Eq => eq(known, out),
        Builtin::Ne => {
            let (x, y) = (req(b, known, 0)?, req(b, known, 1)?);
            if x != y {
                out.extend_from_slice(&[x, y]);
            }
            Ok(())
        }
        Builtin::In => member(known, store, policy, out),
        Builtin::NotIn => {
            let (x, s) = (req(b, known, 0)?, req(b, known, 1)?);
            // ELPS (§5): atoms have no elements, so x ∉ atom holds.
            let holds = match store.set_elems(s) {
                Some(elems) => elems.binary_search(&x).is_err(),
                None => true,
            };
            if holds {
                out.extend_from_slice(&[x, s]);
            }
            Ok(())
        }
        Builtin::SubsetEq => subseteq(known, store, policy, out),
        Builtin::Union => union(known, store, policy, out),
        Builtin::DisjUnion => disj_union(known, store, out),
        Builtin::Scons => scons(known, store, out),
        Builtin::SconsMin => scons_min(known, store, out),
        Builtin::Card => card(known, store, out),
        Builtin::Add => add(known, store, out),
        Builtin::Sub => sub(known, store, out),
        Builtin::Mul => mul(known, store, out),
        Builtin::Lt | Builtin::Le => {
            let (x, y) = (req(b, known, 0)?, req(b, known, 1)?);
            let (m, n) = (int_arg(b, store, x)?, int_arg(b, store, y)?);
            let holds = if b == Builtin::Lt { m < n } else { m <= n };
            if holds {
                out.extend_from_slice(&[x, y]);
            }
            Ok(())
        }
    }
}

fn req(b: Builtin, known: &[Option<TermId>], i: usize) -> Result<TermId, EngineError> {
    known[i].ok_or_else(|| EngineError::UnsupportedMode {
        builtin: b.name(),
        mode: mode_string(known),
    })
}

fn mode_string(known: &[Option<TermId>]) -> String {
    let parts: Vec<&str> = known
        .iter()
        .map(|k| if k.is_some() { "bound" } else { "free" })
        .collect();
    format!("({})", parts.join(", "))
}

/// The elements of set argument `id`, borrowed from the store.
fn set_arg(b: Builtin, store: &TermStore, id: TermId) -> Result<&[TermId], EngineError> {
    store.set_elems(id).ok_or_else(|| EngineError::TypeError {
        builtin: b.name(),
        detail: format!("expected a set, got `{}`", store.display(id)),
    })
}

fn int_arg(b: Builtin, store: &TermStore, id: TermId) -> Result<i64, EngineError> {
    store.as_int(id).ok_or_else(|| EngineError::TypeError {
        builtin: b.name(),
        detail: format!("expected an integer, got `{}`", store.display(id)),
    })
}

fn eq(known: &[Option<TermId>], out: &mut Vec<TermId>) -> Result<(), EngineError> {
    match (known[0], known[1]) {
        (Some(x), Some(y)) => {
            if x == y {
                out.extend_from_slice(&[x, y]);
            }
        }
        (Some(x), None) | (None, Some(x)) => out.extend_from_slice(&[x, x]),
        (None, None) => {
            return Err(EngineError::UnsupportedMode {
                builtin: Builtin::Eq.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

fn member(
    known: &[Option<TermId>],
    store: &TermStore,
    policy: SetUniverse,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    match (known[0], known[1]) {
        (Some(x), Some(s)) => {
            // ELPS (§5): membership in an atom is false, not an error.
            if matches!(store.set_elems(s), Some(elems) if elems.binary_search(&x).is_ok()) {
                out.extend_from_slice(&[x, s]);
            }
        }
        (None, Some(s)) => {
            for &e in store.set_elems(s).unwrap_or_default() {
                out.extend_from_slice(&[e, s]);
            }
        }
        (Some(x), None) => {
            require_enumerable(Builtin::In, known, policy)?;
            for &s in store.set_ids() {
                let elems = store.set_elems(s).expect("active sets are sets");
                if elems.binary_search(&x).is_ok() {
                    out.extend_from_slice(&[x, s]);
                }
            }
        }
        (None, None) => {
            require_enumerable(Builtin::In, known, policy)?;
            for &s in store.set_ids() {
                for &e in store.set_elems(s).expect("active sets are sets") {
                    out.extend_from_slice(&[e, s]);
                }
            }
        }
    }
    Ok(())
}

fn require_enumerable(
    b: Builtin,
    known: &[Option<TermId>],
    policy: SetUniverse,
) -> Result<(), EngineError> {
    if matches!(policy, SetUniverse::Reject) {
        Err(EngineError::UnsupportedMode {
            builtin: b.name(),
            mode: format!(
                "{} (set enumeration disabled; configure SetUniverse::ActiveSets)",
                mode_string(known)
            ),
        })
    } else {
        Ok(())
    }
}

fn subseteq(
    known: &[Option<TermId>],
    store: &TermStore,
    policy: SetUniverse,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::SubsetEq;
    match (known[0], known[1]) {
        (Some(x), Some(y)) => {
            check_set(b, store, x)?;
            check_set(b, store, y)?;
            if setops::subset(store, x, y) {
                out.extend_from_slice(&[x, y]);
            }
        }
        (None, Some(y)) => {
            check_set(b, store, y)?;
            require_enumerable(b, known, policy)?;
            for &s in store.set_ids() {
                if setops::subset(store, s, y) {
                    out.extend_from_slice(&[s, y]);
                }
            }
        }
        (Some(x), None) => {
            check_set(b, store, x)?;
            require_enumerable(b, known, policy)?;
            for &s in store.set_ids() {
                if setops::subset(store, x, s) {
                    out.extend_from_slice(&[x, s]);
                }
            }
        }
        (None, None) => {
            require_enumerable(b, known, policy)?;
            let sets = store.set_ids();
            for &x in sets {
                for &y in sets {
                    if setops::subset(store, x, y) {
                        out.extend_from_slice(&[x, y]);
                    }
                }
            }
        }
    }
    Ok(())
}

fn check_set(b: Builtin, store: &TermStore, id: TermId) -> Result<(), EngineError> {
    set_arg(b, store, id).map(|_| ())
}

fn union(
    known: &[Option<TermId>],
    store: &mut TermStore,
    policy: SetUniverse,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::Union;
    match (known[0], known[1], known[2]) {
        (Some(x), Some(y), Some(z)) => {
            check_set(b, store, x)?;
            check_set(b, store, y)?;
            if setops::union_is(store, x, y, z) {
                out.extend_from_slice(&[x, y, z]);
            }
        }
        (Some(x), Some(y), None) => {
            check_set(b, store, x)?;
            check_set(b, store, y)?;
            let u = setops::union(store, x, y);
            out.extend_from_slice(&[x, y, u]);
        }
        (Some(x), None, Some(z)) | (None, Some(x), Some(z)) => {
            // `union` is symmetric: the bound input `x` sits at its own
            // position, the other input ranges over the active sets.
            check_set(b, store, x)?;
            check_set(b, store, z)?;
            if !setops::subset(store, x, z) {
                return Ok(());
            }
            require_enumerable(b, known, policy)?;
            let x_first = known[0].is_some();
            // Index by position: computing a union may intern a new
            // set, and only the sets active on entry are candidates.
            for i in 0..store.set_ids().len() {
                let other = store.set_ids()[i];
                if setops::union(store, x, other) == z {
                    let row = if x_first {
                        [x, other, z]
                    } else {
                        [other, x, z]
                    };
                    out.extend_from_slice(&row);
                }
            }
        }
        (None, None, Some(z)) => {
            check_set(b, store, z)?;
            require_enumerable(b, known, policy)?;
            let candidates: Vec<TermId> = store
                .set_ids()
                .iter()
                .copied()
                .filter(|&s| setops::subset(store, s, z))
                .collect();
            for &x in &candidates {
                for &y in &candidates {
                    if setops::union(store, x, y) == z {
                        out.extend_from_slice(&[x, y, z]);
                    }
                }
            }
        }
        _ => {
            return Err(EngineError::UnsupportedMode {
                builtin: b.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

fn disj_union(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::DisjUnion;
    match (known[0], known[1], known[2]) {
        (Some(x), Some(y), z) => {
            check_set(b, store, x)?;
            check_set(b, store, y)?;
            if !setops::disjoint(store, x, y) {
                return Ok(());
            }
            match z {
                Some(z) if setops::union_is(store, x, y, z) => out.extend_from_slice(&[x, y, z]),
                Some(_) => {}
                None => {
                    let u = setops::union(store, x, y);
                    out.extend_from_slice(&[x, y, u]);
                }
            }
        }
        (Some(x), None, Some(z)) => {
            check_set(b, store, x)?;
            check_set(b, store, z)?;
            if setops::subset(store, x, z) {
                let y = setops::difference(store, z, x);
                out.extend_from_slice(&[x, y, z]);
            }
        }
        (None, Some(y), Some(z)) => {
            check_set(b, store, y)?;
            check_set(b, store, z)?;
            if setops::subset(store, y, z) {
                let x = setops::difference(store, z, y);
                out.extend_from_slice(&[x, y, z]);
            }
        }
        (None, None, Some(z)) => {
            check_set(b, store, z)?;
            // The paper-faithful inverse mode (Example 5): all 2^|z|
            // ordered disjoint partitions.
            for (x, y) in setops::disjoint_union_decompositions(store, z) {
                out.extend_from_slice(&[x, y, z]);
            }
        }
        _ => {
            return Err(EngineError::UnsupportedMode {
                builtin: b.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

fn scons(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::Scons;
    match (known[0], known[1], known[2]) {
        (Some(x), Some(y), Some(z)) => {
            check_set(b, store, y)?;
            if setops::scons_is(store, x, y, z) {
                out.extend_from_slice(&[x, y, z]);
            }
        }
        (Some(x), Some(y), None) => {
            check_set(b, store, y)?;
            let s = setops::scons(store, x, y);
            out.extend_from_slice(&[x, y, s]);
        }
        (None, None, Some(z)) => {
            check_set(b, store, z)?;
            // Z = {x} ∪ Y admits, per x ∈ Z, both Y = Z∖{x} and Y = Z.
            for (x, rest) in setops::scons_decompositions(store, z) {
                out.extend_from_slice(&[x, rest, z]);
                out.extend_from_slice(&[x, z, z]);
            }
        }
        (Some(x), None, Some(z)) => {
            check_set(b, store, z)?;
            if !setops::member(store, x, z) {
                return Ok(());
            }
            let singleton = store.set(vec![x]);
            let rest = setops::difference(store, z, singleton);
            out.extend_from_slice(&[x, rest, z]);
            if rest != z {
                out.extend_from_slice(&[x, z, z]);
            }
        }
        (None, Some(y), Some(z)) => {
            check_set(b, store, y)?;
            check_set(b, store, z)?;
            if !setops::subset(store, y, z) {
                return Ok(());
            }
            let extra = setops::difference(store, z, y);
            match *set_arg(b, store, extra)? {
                // Y = Z: any x ∈ Z works.
                [] => {
                    for &x in set_arg(b, store, z)? {
                        out.extend_from_slice(&[x, y, z]);
                    }
                }
                [x] => out.extend_from_slice(&[x, y, z]),
                _ => {}
            }
        }
        _ => {
            return Err(EngineError::UnsupportedMode {
                builtin: b.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

fn scons_min(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::SconsMin;
    match (known[0], known[1], known[2]) {
        (x, y, Some(z)) if x.is_none() || y.is_none() => {
            check_set(b, store, z)?;
            // The one canonical decomposition, kept if it agrees with
            // whichever of `x` and `Y` is bound.
            if let Some((min, rest)) = setops::scons_min_decomposition(store, z) {
                if x.is_none_or(|x| x == min) && y.is_none_or(|y| y == rest) {
                    out.extend_from_slice(&[min, rest, z]);
                }
            }
        }
        (Some(x), Some(y), z) => {
            // `x` must come before every element of `y`, which also
            // keeps it out of `y`.
            if set_arg(b, store, y)?.first().is_some_and(|&min| min <= x) {
                return Ok(());
            }
            match z {
                Some(z) if setops::scons_is(store, x, y, z) => out.extend_from_slice(&[x, y, z]),
                Some(_) => {}
                None => {
                    let s = setops::scons(store, x, y);
                    out.extend_from_slice(&[x, y, s]);
                }
            }
        }
        _ => {
            return Err(EngineError::UnsupportedMode {
                builtin: b.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

fn card(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    let b = Builtin::Card;
    match (known[0], known[1]) {
        (Some(s), n) => {
            let c = set_arg(b, store, s)?.len() as i64;
            let c_id = store.int(c);
            if n.is_none_or(|n| n == c_id) {
                out.extend_from_slice(&[s, c_id]);
            }
        }
        (None, Some(n)) => {
            let want = int_arg(b, store, n)?;
            if let Ok(want) = usize::try_from(want) {
                for &s in store.set_ids() {
                    if store.card(s) == Some(want) {
                        out.extend_from_slice(&[s, n]);
                    }
                }
            }
        }
        (None, None) => {
            return Err(EngineError::UnsupportedMode {
                builtin: b.name(),
                mode: mode_string(known),
            })
        }
    }
    Ok(())
}

/// The integer builtins: `f` maps the known integer values to `None`
/// (unsupported mode), `Some(None)` (no solution) or the one solution.
fn arith3(
    b: Builtin,
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
    f: impl Fn(Option<i64>, Option<i64>, Option<i64>) -> Option<Option<(i64, i64, i64)>>,
) -> Result<(), EngineError> {
    let mut vals = [None; MAX_BUILTIN_ARITY];
    for (v, k) in vals.iter_mut().zip(known) {
        *v = k.map(|id| int_arg(b, store, id)).transpose()?;
    }
    match f(vals[0], vals[1], vals[2]) {
        None => Err(EngineError::UnsupportedMode {
            builtin: b.name(),
            mode: mode_string(known),
        }),
        Some(None) => Ok(()),
        Some(Some((m, n, k))) => {
            let ids = [store.int(m), store.int(n), store.int(k)];
            out.extend_from_slice(&ids);
            Ok(())
        }
    }
}

fn add(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    arith3(Builtin::Add, known, store, out, |m, n, k| match (m, n, k) {
        (Some(m), Some(n), k) => {
            let sum = m.checked_add(n)?;
            Some(match k {
                Some(k) if k != sum => None,
                _ => Some((m, n, sum)),
            })
        }
        (Some(m), None, Some(k)) => Some(k.checked_sub(m).map(|n| (m, n, k))),
        (None, Some(n), Some(k)) => Some(k.checked_sub(n).map(|m| (m, n, k))),
        _ => None,
    })
}

fn sub(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    arith3(Builtin::Sub, known, store, out, |m, n, k| match (m, n, k) {
        (Some(m), Some(n), k) => {
            let diff = m.checked_sub(n)?;
            Some(match k {
                Some(k) if k != diff => None,
                _ => Some((m, n, diff)),
            })
        }
        (Some(m), None, Some(k)) => Some(m.checked_sub(k).map(|n| (m, n, k))),
        (None, Some(n), Some(k)) => Some(k.checked_add(n).map(|m| (m, n, k))),
        _ => None,
    })
}

fn mul(
    known: &[Option<TermId>],
    store: &mut TermStore,
    out: &mut Vec<TermId>,
) -> Result<(), EngineError> {
    arith3(Builtin::Mul, known, store, out, |m, n, k| match (m, n, k) {
        (Some(m), Some(n), k) => {
            let prod = m.checked_mul(n)?;
            Some(match k {
                Some(k) if k != prod => None,
                _ => Some((m, n, prod)),
            })
        }
        // 0 · n = 0 leaves n unconstrained: the one unsupported
        // instance of these modes. 0 · n = k ≠ 0 has no solution, and
        // neither has an overflowing quotient (`i64::MIN / -1`).
        (Some(0), None, Some(k)) | (None, Some(0), Some(k)) => (k != 0).then_some(None),
        (Some(m), None, Some(k)) => Some((k.checked_rem(m) == Some(0)).then(|| (m, k / m, k))),
        (None, Some(n), Some(k)) => Some((k.checked_rem(n) == Some(0)).then(|| (k / n, n, k))),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`enumerate`]'s candidates as rows, appended to a stack that
    /// already holds a one-id prefix (the executor's outer levels): the
    /// prefix must survive, a success appends whole tuples and an
    /// error appends nothing.
    fn rows(
        b: Builtin,
        known: &[Option<TermId>],
        st: &mut TermStore,
        policy: SetUniverse,
    ) -> Result<Vec<Vec<TermId>>, EngineError> {
        let prefix: Vec<TermId> = st.ids().take(1).collect();
        let mut stack = prefix.clone();
        let res = enumerate(b, known, st, policy, &mut stack);
        assert_eq!(
            stack[..prefix.len()],
            prefix[..],
            "{}: prefix clobbered",
            b.name()
        );
        let appended = &stack[prefix.len()..];
        match res {
            Ok(()) => {
                assert_eq!(appended.len() % b.arity(), 0, "{}: ragged tuples", b.name());
                Ok(appended.chunks(b.arity()).map(<[_]>::to_vec).collect())
            }
            Err(e) => {
                assert!(appended.is_empty(), "{}: appended on error", b.name());
                Err(e)
            }
        }
    }

    fn store_abc() -> (TermStore, TermId, TermId, TermId) {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let c = st.atom("c");
        (st, a, b, c)
    }

    #[test]
    fn eq_propagates_either_direction() {
        let (mut st, a, _, _) = store_abc();
        assert_eq!(
            rows(Builtin::Eq, &[Some(a), None], &mut st, SetUniverse::Reject).unwrap(),
            vec![vec![a, a]]
        );
        assert_eq!(
            rows(Builtin::Eq, &[None, Some(a)], &mut st, SetUniverse::Reject).unwrap(),
            vec![vec![a, a]]
        );
        assert!(rows(Builtin::Eq, &[None, None], &mut st, SetUniverse::Reject).is_err());
    }

    #[test]
    fn member_enumerates_elements() {
        let (mut st, a, b, c) = store_abc();
        let s = st.set(vec![a, c]);
        let sols = rows(Builtin::In, &[None, Some(s)], &mut st, SetUniverse::Reject).unwrap();
        assert_eq!(sols, vec![vec![a, s], vec![c, s]]);
        // Bound membership test.
        assert_eq!(
            rows(
                Builtin::In,
                &[Some(b), Some(s)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap()
            .len(),
            0
        );
    }

    #[test]
    fn member_free_set_scans_active_sets_under_policy() {
        let (mut st, a, b, _) = store_abc();
        let s1 = st.set(vec![a]);
        let s2 = st.set(vec![a, b]);
        let _s3 = st.set(vec![b]);
        let sols = rows(
            Builtin::In,
            &[Some(a), None],
            &mut st,
            SetUniverse::ActiveSets,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![a, s1], vec![a, s2]]);
        // Policy Reject refuses.
        assert!(rows(Builtin::In, &[Some(a), None], &mut st, SetUniverse::Reject).is_err());
    }

    #[test]
    fn member_of_atom_is_false_not_error() {
        // ELPS (§5): atoms have no elements.
        let (mut st, a, b, _) = store_abc();
        let sols = rows(
            Builtin::In,
            &[Some(a), Some(b)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert!(sols.is_empty());
        let sols = rows(
            Builtin::NotIn,
            &[Some(a), Some(b)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert_eq!(sols.len(), 1);
        let sols = rows(Builtin::In, &[None, Some(b)], &mut st, SetUniverse::Reject).unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn union_forward_and_check() {
        let (mut st, a, b, c) = store_abc();
        let xy = st.set(vec![a, b]);
        let yz = st.set(vec![b, c]);
        let all = st.set(vec![a, b, c]);
        let sols = rows(
            Builtin::Union,
            &[Some(xy), Some(yz), None],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![xy, yz, all]]);
        // Check mode with wrong z fails.
        let sols = rows(
            Builtin::Union,
            &[Some(xy), Some(yz), Some(xy)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn union_inverse_enumerates_active_sets() {
        let (mut st, a, b, _) = store_abc();
        let sa = st.set(vec![a]);
        let sb = st.set(vec![b]);
        let sab = st.set(vec![a, b]);
        let empty = st.empty_set();
        let sols = rows(
            Builtin::Union,
            &[None, None, Some(sab)],
            &mut st,
            SetUniverse::ActiveSets,
        )
        .unwrap();
        // Active sets: {a}, {b}, {a,b}, {}. Pairs unioning to {a,b}:
        // ({a},{b}), ({b},{a}), ({a},{a,b}), ({a,b},{a}), ({b},{a,b}),
        // ({a,b},{b}), ({a,b},{a,b}), ({},{a,b}), ({a,b},{}).
        assert_eq!(sols.len(), 9);
        for sol in &sols {
            assert_eq!(setops::union(&mut st, sol[0], sol[1]), sab);
        }
        assert!(sols.contains(&vec![sa, sb, sab]));
        assert!(sols.contains(&vec![empty, sab, sab]));
    }

    #[test]
    fn disj_union_inverse_is_exponential_partition() {
        let (mut st, a, b, _) = store_abc();
        let sab = st.set(vec![a, b]);
        let sols = rows(
            Builtin::DisjUnion,
            &[None, None, Some(sab)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert_eq!(sols.len(), 4, "2^2 ordered partitions");
        // Forward mode refuses overlapping operands.
        let sa = st.set(vec![a]);
        let sols = rows(
            Builtin::DisjUnion,
            &[Some(sa), Some(sa), None],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn disj_union_difference_mode() {
        let (mut st, a, b, c) = store_abc();
        let all = st.set(vec![a, b, c]);
        let sa = st.set(vec![a]);
        let sbc = st.set(vec![b, c]);
        let sols = rows(
            Builtin::DisjUnion,
            &[Some(sa), None, Some(all)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![sa, sbc, all]]);
    }

    #[test]
    fn scons_decomposition_includes_both_rest_variants() {
        let (mut st, a, b, _) = store_abc();
        let sab = st.set(vec![a, b]);
        let sols = rows(
            Builtin::Scons,
            &[None, None, Some(sab)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        // For each x ∈ {a,b}: (x, Z∖{x}, Z) and (x, Z, Z).
        assert_eq!(sols.len(), 4);
        for sol in &sols {
            let rebuilt = setops::scons(&mut st, sol[0], sol[1]);
            assert_eq!(rebuilt, sab);
        }
    }

    #[test]
    fn scons_min_is_single_canonical() {
        let (mut st, a, b, _) = store_abc();
        let sab = st.set(vec![a, b]);
        let sb = st.set(vec![b]);
        let sols = rows(
            Builtin::SconsMin,
            &[None, None, Some(sab)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![a, sb, sab]]);
        let empty = st.empty_set();
        let sols = rows(
            Builtin::SconsMin,
            &[None, None, Some(empty)],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        assert!(sols.is_empty());
    }

    #[test]
    fn card_computes_and_filters() {
        let (mut st, a, b, _) = store_abc();
        let sab = st.set(vec![a, b]);
        let sols = rows(
            Builtin::Card,
            &[Some(sab), None],
            &mut st,
            SetUniverse::Reject,
        )
        .unwrap();
        let two = st.int(2);
        assert_eq!(sols, vec![vec![sab, two]]);
        // Reverse: active sets of card 1.
        let sa = st.set(vec![a]);
        let one = st.int(1);
        let sols = rows(
            Builtin::Card,
            &[None, Some(one)],
            &mut st,
            SetUniverse::ActiveSets,
        )
        .unwrap();
        assert_eq!(sols, vec![vec![sa, one]]);
    }

    #[test]
    fn arithmetic_all_modes() {
        let mut st = TermStore::new();
        let i2 = st.int(2);
        let i3 = st.int(3);
        let i5 = st.int(5);
        let i6 = st.int(6);
        // add
        assert_eq!(
            rows(
                Builtin::Add,
                &[Some(i2), Some(i3), None],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i2, i3, i5]]
        );
        assert_eq!(
            rows(
                Builtin::Add,
                &[Some(i2), None, Some(i5)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i2, i3, i5]]
        );
        assert_eq!(
            rows(
                Builtin::Add,
                &[None, Some(i3), Some(i5)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i2, i3, i5]]
        );
        // sub: 5 - 3 = 2
        assert_eq!(
            rows(
                Builtin::Sub,
                &[Some(i5), Some(i3), None],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i5, i3, i2]]
        );
        // mul: 2 * 3 = 6; inverse 6 / 2 = 3
        assert_eq!(
            rows(
                Builtin::Mul,
                &[Some(i2), Some(i3), None],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i2, i3, i6]]
        );
        assert_eq!(
            rows(
                Builtin::Mul,
                &[Some(i2), None, Some(i6)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap(),
            vec![vec![i2, i3, i6]]
        );
        // non-divisible product: no solutions.
        assert!(rows(
            Builtin::Mul,
            &[Some(i2), None, Some(i5)],
            &mut st,
            SetUniverse::Reject
        )
        .unwrap()
        .is_empty());
        // -1 * n = i64::MIN overflows n: no solution, no panic.
        let minus_one = st.int(-1);
        let min = st.int(i64::MIN);
        assert!(rows(
            Builtin::Mul,
            &[Some(minus_one), None, Some(min)],
            &mut st,
            SetUniverse::Reject
        )
        .unwrap()
        .is_empty());
        // 0 * n = 6 has no solution; 0 * n = 0 is an unsupported mode
        // (n unconstrained).
        let zero = st.int(0);
        assert!(rows(
            Builtin::Mul,
            &[Some(zero), None, Some(i6)],
            &mut st,
            SetUniverse::Reject
        )
        .unwrap()
        .is_empty());
        assert!(rows(
            Builtin::Mul,
            &[Some(zero), None, Some(zero)],
            &mut st,
            SetUniverse::Reject
        )
        .is_err());
    }

    #[test]
    fn comparisons() {
        let mut st = TermStore::new();
        let i2 = st.int(2);
        let i3 = st.int(3);
        assert_eq!(
            rows(
                Builtin::Lt,
                &[Some(i2), Some(i3)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap()
            .len(),
            1
        );
        assert!(rows(
            Builtin::Lt,
            &[Some(i3), Some(i2)],
            &mut st,
            SetUniverse::Reject
        )
        .unwrap()
        .is_empty());
        assert_eq!(
            rows(
                Builtin::Le,
                &[Some(i2), Some(i2)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap()
            .len(),
            1
        );
        // Comparing a non-integer is a type error.
        let a = st.atom("a");
        assert!(rows(
            Builtin::Lt,
            &[Some(a), Some(i2)],
            &mut st,
            SetUniverse::Reject
        )
        .is_err());
    }

    #[test]
    fn subseteq_modes() {
        let (mut st, a, b, _) = store_abc();
        let sa = st.set(vec![a]);
        let sab = st.set(vec![a, b]);
        // Both bound.
        assert_eq!(
            rows(
                Builtin::SubsetEq,
                &[Some(sa), Some(sab)],
                &mut st,
                SetUniverse::Reject
            )
            .unwrap()
            .len(),
            1
        );
        // Free left side: active subsets of {a,b} are {a} and {a,b}
        // (the empty set hasn't been interned yet).
        let sols = rows(
            Builtin::SubsetEq,
            &[None, Some(sab)],
            &mut st,
            SetUniverse::ActiveSets,
        )
        .unwrap();
        assert_eq!(sols.len(), 2);
        // Reject policy errors on the free mode.
        assert!(rows(
            Builtin::SubsetEq,
            &[None, Some(sab)],
            &mut st,
            SetUniverse::Reject
        )
        .is_err());
    }

    const ALL: [Builtin; 15] = [
        Builtin::Eq,
        Builtin::Ne,
        Builtin::In,
        Builtin::NotIn,
        Builtin::SubsetEq,
        Builtin::Union,
        Builtin::DisjUnion,
        Builtin::Scons,
        Builtin::SconsMin,
        Builtin::Card,
        Builtin::Add,
        Builtin::Sub,
        Builtin::Mul,
        Builtin::Lt,
        Builtin::Le,
    ];

    /// Well-typed sample values for argument `i` of `b`.
    fn samples(st: &mut TermStore, b: Builtin, i: usize) -> Vec<TermId> {
        let (a, bb, c) = (st.atom("a"), st.atom("b"), st.atom("c"));
        let sets = vec![
            st.empty_set(),
            st.set(vec![a]),
            st.set(vec![bb]),
            st.set(vec![a, bb]),
            st.set(vec![a, bb, c]),
        ];
        let ints: Vec<TermId> = [0, 1, 2, 3, 6].into_iter().map(|n| st.int(n)).collect();
        match (b, i) {
            (Builtin::Eq | Builtin::Ne, _) => vec![a, sets[3], ints[2]],
            (Builtin::In | Builtin::NotIn | Builtin::Scons | Builtin::SconsMin, 0) => {
                vec![a, bb, c]
            }
            (Builtin::Card, 1)
            | (Builtin::Add | Builtin::Sub | Builtin::Mul | Builtin::Lt | Builtin::Le, _) => ints,
            _ => sets,
        }
    }

    /// `0 · N = 0` with `N` free: the one admitted mode instance whose
    /// answer is unbounded, so `mul` reports it instead of enumerating.
    fn mul_zero_unbounded(st: &TermStore, b: Builtin, known: &[Option<TermId>]) -> bool {
        let zero = |k: Option<TermId>| k.and_then(|id| st.as_int(id)) == Some(0);
        b == Builtin::Mul
            && zero(known[2])
            && ((zero(known[0]) && known[1].is_none()) || (known[0].is_none() && zero(known[1])))
    }

    #[test]
    fn every_admitted_mode_evaluates() {
        for b in ALL {
            let n = b.arity();
            for mask in 0..1u32 << n {
                let bound: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
                for policy in [SetUniverse::Reject, SetUniverse::ActiveSets] {
                    if !mode_ok(b, &bound, policy) {
                        assert!(
                            !functional(b, &bound),
                            "{} {bound:?}: functional but not admitted under {policy:?}",
                            b.name()
                        );
                        continue;
                    }
                    let mut st = TermStore::new();
                    // Every combination of sample values at the bound
                    // positions; free positions stay `None`.
                    let mut cases: Vec<Vec<Option<TermId>>> = vec![Vec::new()];
                    for (i, &is_bound) in bound.iter().enumerate() {
                        let vals: Vec<Option<TermId>> = if is_bound {
                            samples(&mut st, b, i).into_iter().map(Some).collect()
                        } else {
                            vec![None]
                        };
                        cases = cases
                            .iter()
                            .flat_map(|c| {
                                vals.iter().map(move |&v| {
                                    let mut c = c.clone();
                                    c.push(v);
                                    c
                                })
                            })
                            .collect();
                    }
                    for known in cases {
                        if mul_zero_unbounded(&st, b, &known) {
                            continue;
                        }
                        let cands = rows(b, &known, &mut st, policy).unwrap_or_else(|e| {
                            panic!("{} {known:?} under {policy:?}: {e}", b.name())
                        });
                        if functional(b, &bound) {
                            assert!(cands.len() <= 1, "{} {known:?}: {cands:?}", b.name());
                        }
                        for row in cands {
                            for (k, &v) in known.iter().zip(&row) {
                                assert!(k.is_none_or(|k| k == v), "{} {known:?}", b.name());
                            }
                            let all: Vec<Option<TermId>> = row.iter().copied().map(Some).collect();
                            assert_eq!(
                                rows(b, &all, &mut st, policy).unwrap(),
                                vec![row.clone()],
                                "{} {known:?}: {row:?} fails the check mode",
                                b.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// `holds` agrees with the all-bound mode of `enumerate` on every
    /// combination of sample values, errors included, and interns no
    /// set.
    #[test]
    fn holds_is_the_check_mode() {
        for b in ALL {
            let mut st = TermStore::new();
            let mut cases: Vec<Vec<TermId>> = vec![Vec::new()];
            for i in 0..b.arity() {
                let vals = samples(&mut st, b, i);
                cases = cases
                    .iter()
                    .flat_map(|c| {
                        vals.iter().map(move |&v| {
                            let mut c = c.clone();
                            c.push(v);
                            c
                        })
                    })
                    .collect();
            }
            for args in cases {
                let sets = st.set_ids().len();
                let mut scratch = Vec::new();
                let got = holds(b, &args, &mut st, SetUniverse::Reject, &mut scratch);
                assert_eq!(
                    st.set_ids().len(),
                    sets,
                    "{} {args:?} interned a set",
                    b.name()
                );
                let known: Vec<Option<TermId>> = args.iter().copied().map(Some).collect();
                let want = rows(b, &known, &mut st, SetUniverse::Reject);
                match (got, want) {
                    (Ok(h), Ok(r)) => assert_eq!(h, !r.is_empty(), "{} {args:?}", b.name()),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{} {args:?}: {got:?} vs {want:?}", b.name()),
                }
            }
        }
    }

    #[test]
    fn scons_min_partial_modes_filter_the_decomposition() {
        let (mut st, a, b, _) = store_abc();
        let sab = st.set(vec![a, b]);
        let sb = st.set(vec![b]);
        let sa = st.set(vec![a]);
        let r = SetUniverse::Reject;
        let sols = rows(Builtin::SconsMin, &[Some(a), None, Some(sab)], &mut st, r);
        assert_eq!(sols.unwrap(), vec![vec![a, sb, sab]]);
        let sols = rows(Builtin::SconsMin, &[Some(b), None, Some(sab)], &mut st, r);
        assert!(sols.unwrap().is_empty(), "b is not the minimum");
        let sols = rows(Builtin::SconsMin, &[None, Some(sb), Some(sab)], &mut st, r);
        assert_eq!(sols.unwrap(), vec![vec![a, sb, sab]]);
        let sols = rows(Builtin::SconsMin, &[None, Some(sa), Some(sab)], &mut st, r);
        assert!(sols.unwrap().is_empty(), "{{a}} is not the canonical rest");
    }

    #[test]
    fn mode_table_matches_enumerate_behaviour() {
        // Spot-check a few rows of the static mode table.
        assert!(mode_ok(Builtin::Eq, &[true, false], SetUniverse::Reject));
        assert!(!mode_ok(Builtin::Eq, &[false, false], SetUniverse::Reject));
        assert!(mode_ok(Builtin::In, &[false, true], SetUniverse::Reject));
        assert!(!mode_ok(Builtin::In, &[true, false], SetUniverse::Reject));
        assert!(mode_ok(
            Builtin::In,
            &[true, false],
            SetUniverse::ActiveSets
        ));
        assert!(mode_ok(
            Builtin::DisjUnion,
            &[false, false, true],
            SetUniverse::Reject
        ));
        assert!(!mode_ok(
            Builtin::Union,
            &[false, false, true],
            SetUniverse::Reject
        ));
        assert!(mode_ok(
            Builtin::Union,
            &[false, false, true],
            SetUniverse::ActiveSets
        ));
        assert!(!mode_ok(
            Builtin::Union,
            &[true, false, true],
            SetUniverse::Reject
        ));
        assert!(mode_ok(
            Builtin::Add,
            &[true, false, true],
            SetUniverse::Reject
        ));
        assert!(!mode_ok(
            Builtin::Add,
            &[true, false, false],
            SetUniverse::Reject
        ));
    }
}
