//! Property tests for the arena-backed [`Relation`] against a naive
//! `Vec`-of-tuples + linear-scan reference model: random streams of
//! insert/clear operations, then membership and indexed-lookup
//! agreement across every column mask — with indexes created both
//! before and after the stream, so incremental maintenance and bulk
//! build are exercised on the same data — and windowed lookups (the
//! semi-naive delta probe) against the filtered full lookup.

use proptest::prelude::*;

use lps_engine::relation::{ColMask, Relation};
use lps_term::{TermId, TermStore};

/// Linear-scan reference model: insertion-ordered, deduplicated.
struct RefModel {
    rows: Vec<Vec<TermId>>,
}

impl RefModel {
    fn insert(&mut self, tuple: &[TermId]) -> bool {
        if self.rows.iter().any(|r| r == tuple) {
            return false;
        }
        self.rows.push(tuple.to_vec());
        true
    }

    fn contains(&self, tuple: &[TermId]) -> bool {
        self.rows.iter().any(|r| r == tuple)
    }

    /// Row ids whose `mask` columns equal `key`, in insertion order.
    fn lookup(&self, mask: ColMask, key: &[TermId]) -> Vec<u32> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| key_of(row, mask) == key)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// The `mask`-selected columns of a tuple, ascending column order.
fn key_of(tuple: &[TermId], mask: ColMask) -> Vec<TermId> {
    tuple
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &t)| t)
        .collect()
}

/// Clear `rel`, asserting that it ends empty and that the clear moved
/// both its fingerprint and its clear mark.
fn clear_moving_marks(rel: &mut Relation) {
    let (fp, mark) = (rel.fingerprint(), rel.clear_mark());
    rel.clear();
    assert!(rel.is_empty());
    assert_ne!(rel.fingerprint(), fp, "clear must move the fingerprint");
    assert_ne!(rel.clear_mark(), mark, "clear must move the clear mark");
}

proptest! {
    /// insert/contains/lookup/clear agree with the reference model on
    /// random tuple streams over a small value universe (dense enough
    /// to force duplicates, shared index keys, and table growth).
    #[test]
    fn arena_matches_reference_model(
        arity in 1usize..4,
        ops in proptest::collection::vec((0u8..16, (0u8..6, 0u8..6, 0u8..6)), 1..120),
        probes in proptest::collection::vec((0u8..6, 0u8..6, 0u8..6), 0..24),
    ) {
        let mut store = TermStore::new();
        let atoms: Vec<TermId> = (0..6).map(|i| store.atom(&format!("a{i}"))).collect();
        let mut rel = Relation::new(arity);
        let mut model = RefModel { rows: Vec::new() };
        let all_masks: Vec<ColMask> = (1..(1u32 << arity)).collect();
        // Half the indexes exist from the start (incremental
        // maintenance); the rest are built after the stream (bulk).
        for &m in all_masks.iter().step_by(2) {
            rel.ensure_index(m);
        }
        for (op, (v0, v1, v2)) in &ops {
            let vals = [
                atoms[*v0 as usize],
                atoms[*v1 as usize],
                atoms[*v2 as usize],
            ];
            let tuple = &vals[..arity];
            if *op == 0 {
                // Occasional clear: both sides drop all tuples.
                rel.clear();
                model.rows.clear();
            } else {
                prop_assert_eq!(rel.insert(tuple), model.insert(tuple));
            }
            prop_assert_eq!(rel.len(), model.rows.len());
            prop_assert_eq!(rel.is_empty(), model.rows.is_empty());
        }
        for &m in &all_masks {
            rel.ensure_index(m);
        }
        // Arena rows agree with the model, in insertion order.
        for (i, row) in model.rows.iter().enumerate() {
            prop_assert_eq!(rel.row(i as u32), &row[..]);
        }
        let collected: Vec<Vec<TermId>> = rel.iter().map(<[_]>::to_vec).collect();
        prop_assert_eq!(&collected, &model.rows);
        // Membership and every-mask lookups, probing both present and
        // absent keys.
        for (v0, v1, v2) in &probes {
            let vals = [
                atoms[*v0 as usize],
                atoms[*v1 as usize],
                atoms[*v2 as usize],
            ];
            let tuple = &vals[..arity];
            prop_assert_eq!(rel.contains(tuple), model.contains(tuple));
            for &m in &all_masks {
                let key = key_of(tuple, m);
                prop_assert_eq!(rel.lookup(m, &key).to_vec(), model.lookup(m, &key));
            }
        }
    }

    /// A relation cleared and refilled behaves like a fresh one: clear
    /// keeps index definitions live and tables consistent.
    #[test]
    fn clear_then_refill_matches_fresh(
        tuples in proptest::collection::vec((0u8..5, 0u8..5), 1..60),
    ) {
        let mut store = TermStore::new();
        let atoms: Vec<TermId> = (0..5).map(|i| store.atom(&format!("a{i}"))).collect();
        let mut reused = Relation::new(2);
        reused.ensure_index(0b01);
        reused.ensure_index(0b10);
        // Fill with garbage, then clear.
        for (x, y) in &tuples {
            reused.insert(&[atoms[*y as usize], atoms[*x as usize]]);
        }
        reused.clear();
        let mut fresh = Relation::new(2);
        fresh.ensure_index(0b01);
        fresh.ensure_index(0b10);
        for (x, y) in &tuples {
            let t = [atoms[*x as usize], atoms[*y as usize]];
            prop_assert_eq!(reused.insert(&t), fresh.insert(&t));
        }
        prop_assert_eq!(reused.len(), fresh.len());
        for a in &atoms {
            prop_assert_eq!(reused.lookup(0b01, &[*a]), fresh.lookup(0b01, &[*a]));
            prop_assert_eq!(reused.lookup(0b10, &[*a]), fresh.lookup(0b10, &[*a]));
        }
    }

    /// Clearing a relation whose tables grew large but now hold few
    /// rows (a goal relation after one big answer) vacates only the occupied
    /// slots. Each clear must leave the tables as if freshly emptied:
    /// many small refill/clear cycles keep agreeing with the reference
    /// model, and every clear — of an empty relation too — moves both
    /// the fingerprint and the clear mark.
    #[test]
    fn sparse_clear_matches_reference_model(
        grow in 65usize..200,
        cycles in proptest::collection::vec(
            proptest::collection::vec((0u8..64, 0u8..64), 0..40),
            1..24,
        ),
        probes in proptest::collection::vec((0u8..64, 0u8..64), 0..24),
    ) {
        // Ids strided by a power of two share low hash bits, so home
        // slots collide and probe paths cross other rows and buckets.
        let mut store = TermStore::new();
        let mut strided = |n: i64, stride: i64| -> Vec<TermId> {
            let ids: Vec<TermId> = (0..n * stride).map(|i| store.int(i)).collect();
            ids.into_iter().step_by(stride as usize).collect()
        };
        let keys = strided(64, 16);
        let vals = strided(200, 4);
        let mut rel = Relation::new(2);
        rel.ensure_index(0b01);
        rel.ensure_index(0b10);
        for (i, &v) in vals.iter().enumerate().take(grow) {
            prop_assert!(rel.insert(&[keys[i % 64], v]));
        }
        clear_moving_marks(&mut rel);
        for (i, &v) in vals.iter().enumerate().take(grow) {
            prop_assert!(!rel.contains(&[keys[i % 64], v]));
        }
        for cycle in &cycles {
            let mut model = RefModel { rows: Vec::new() };
            for &(k, v) in cycle {
                let t = [keys[k as usize], vals[v as usize]];
                prop_assert_eq!(rel.insert(&t), model.insert(&t));
            }
            prop_assert_eq!(rel.len(), model.rows.len());
            // Probe this cycle's tuples, the random probes, and the
            // grown rows (absent unless reinserted this cycle).
            let grown = (0..grow).map(|i| ((i % 64) as u8, i as u8));
            let all = cycle.iter().copied().chain(probes.iter().copied()).chain(grown);
            for (k, v) in all {
                let t = [keys[k as usize], vals[v as usize]];
                prop_assert_eq!(rel.contains(&t), model.contains(&t));
                prop_assert_eq!(rel.lookup(0b01, &t[..1]).to_vec(), model.lookup(0b01, &t[..1]));
                prop_assert_eq!(rel.lookup(0b10, &t[1..]).to_vec(), model.lookup(0b10, &t[1..]));
            }
            clear_moving_marks(&mut rel);
            // A second clear finds the relation empty: still a clear.
            clear_moving_marks(&mut rel);
        }
    }

    /// `lookup_window(mask, key, lo, hi)` is `lookup(mask, key)`
    /// filtered to row ids in `lo..hi`, for indexes built before the
    /// inserts, after them, and after a `clear` and regrowth. The
    /// binary searches rely on every bucket listing its rows in
    /// ascending order, which is asserted directly too.
    #[test]
    fn lookup_window_matches_filtered_lookup(
        arity in 1usize..4,
        tuples in proptest::collection::vec((0u8..5, 0u8..5, 0u8..5), 1..80),
        garbage in proptest::collection::vec((0u8..5, 0u8..5, 0u8..5), 0..40),
        windows in proptest::collection::vec((0u8..90, 0u8..90), 1..12),
    ) {
        let mut store = TermStore::new();
        let atoms: Vec<TermId> = (0..5).map(|i| store.atom(&format!("a{i}"))).collect();
        let tuple = |&(v0, v1, v2): &(u8, u8, u8)| {
            [atoms[v0 as usize], atoms[v1 as usize], atoms[v2 as usize]]
        };
        let masks: Vec<ColMask> = (1..(1u32 << arity)).collect();

        let mut before = Relation::new(arity);
        for &m in &masks {
            before.ensure_index(m);
        }
        let mut regrown = Relation::new(arity);
        for &m in &masks {
            regrown.ensure_index(m);
        }
        for t in &garbage {
            regrown.insert(&tuple(t)[..arity]);
        }
        regrown.clear();
        let mut after = Relation::new(arity);
        for t in &tuples {
            let t = tuple(t);
            let fresh = before.insert(&t[..arity]);
            prop_assert_eq!(after.insert(&t[..arity]), fresh);
            prop_assert_eq!(regrown.insert(&t[..arity]), fresh);
        }
        for &m in &masks {
            after.ensure_index(m);
        }

        for rel in [&before, &after, &regrown] {
            for probe in &tuples {
                let probe = tuple(probe);
                for &m in &masks {
                    let key = key_of(&probe[..arity], m);
                    let rows = rel.lookup(m, &key);
                    prop_assert!(rows.windows(2).all(|w| w[0] < w[1]), "bucket not ascending");
                    for &(a, b) in &windows {
                        let (lo, hi) = (u32::from(a.min(b)), u32::from(a.max(b)));
                        let want: Vec<u32> =
                            rows.iter().copied().filter(|r| (lo..hi).contains(r)).collect();
                        prop_assert_eq!(rel.lookup_window(m, &key, lo, hi).to_vec(), want);
                    }
                }
            }
        }
    }

    /// The full mask — an existence check — is served by the dedup
    /// table with no index of its own: its lookups and windowed lookups
    /// agree with the reference model through inserts and clears, the
    /// relation reports it served, and it never joins the index masks.
    #[test]
    fn full_mask_lookups_read_the_dedup_table(
        arity in 1usize..4,
        ops in proptest::collection::vec((0u8..16, (0u8..5, 0u8..5, 0u8..5)), 1..100),
        probes in proptest::collection::vec((0u8..5, 0u8..5, 0u8..5), 1..24),
        (lo, hi) in (0u32..40, 0u32..40),
    ) {
        let mut store = TermStore::new();
        let atoms: Vec<TermId> = (0..5).map(|i| store.atom(&format!("a{i}"))).collect();
        let full: ColMask = (1 << arity) - 1;
        let mut rel = Relation::new(arity);
        rel.ensure_index(full);
        let mut model = RefModel { rows: Vec::new() };
        let tuple = |(x, y, z): (u8, u8, u8)| {
            [atoms[x as usize], atoms[y as usize], atoms[z as usize]]
        };
        for &(op, vals) in &ops {
            if op == 0 {
                rel.clear();
                model.rows.clear();
            } else {
                let t = tuple(vals);
                prop_assert_eq!(rel.insert(&t[..arity]), model.insert(&t[..arity]));
            }
        }
        prop_assert!(rel.has_index(full));
        prop_assert!(rel.index_masks().all(|m| m != full));
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        for &probe in ops.iter().map(|(_, vals)| vals).chain(&probes) {
            let t = tuple(probe);
            let want = model.lookup(full, &t[..arity]);
            prop_assert_eq!(rel.lookup(full, &t[..arity]).to_vec(), want.clone());
            let windowed: Vec<u32> = want.into_iter().filter(|r| (lo..hi).contains(r)).collect();
            prop_assert_eq!(rel.lookup_window(full, &t[..arity], lo, hi).to_vec(), windowed);
        }
    }
}
