//! Arena-backed tuple storage with on-demand, allocation-free indexes.
//!
//! A [`Relation`] holds the extension of one predicate: a deduplicated,
//! insertion-ordered list of tuples of interned terms, stored in one
//! contiguous [`TermId`] arena with stride = arity. Deduplication and
//! the per-[`ColMask`] secondary indexes never materialize keys: they
//! hash and compare the relevant columns *in place* in the arena
//! through [`IdTable`], the open-addressing table of `u32` ids the term
//! store and symbol table intern with, hashed with the workspace Fx
//! hasher ([`lps_term::fx_fold`]).
//!
//! Compared to the previous `Vec<Box<[TermId]>>` + boxed-key-hash-map
//! layout this removes all three per-tuple heap allocations on insert
//! (boxed tuple, cloned dedup key, per-mask boxed index keys) and both
//! per-probe allocations on lookup (key vector, defensive row-id
//! copy). [`Relation::lookup`] returns a borrowed row-id slice; probes
//! are allocation-free (DESIGN.md §3/§7, experiment E11).
//!
//! Secondary indexes are built per *column mask* (the set of columns
//! bound at a join step) the first time a plan needs them, and
//! maintained incrementally on insert thereafter. Every bucket lists
//! its row ids in ascending order (rows are appended, and a late index
//! is built in row order), so [`Relation::lookup_window`] narrows a
//! probe to a [`RowWindow`] with two binary searches: the semi-naive
//! delta of a round is such a window of the full relation.
//!
//! The mask of every column (an existence check) never gets an index
//! of its own: its key is the whole tuple, so the dedup table already
//! holds its one matching row, and a lookup answers with that row as a
//! one-element slice of the table.

use lps_term::{fx_fold, IdTable, TermId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide relation identity counter (see [`Relation::fingerprint`]).
static NEXT_REL_ID: AtomicU64 = AtomicU64::new(1);

/// Bitmask of bound columns (bit *i* set ⇔ column *i* bound).
pub type ColMask = u32;

/// The widest relation a [`ColMask`] can index: one mask bit per
/// column. Front ends reject wider predicates before registering them.
pub const MAX_ARITY: usize = ColMask::BITS as usize;

/// Hash a key slice (the bound values of a probe, in ascending column
/// order). Must agree with [`hash_masked_row`] for the same values.
#[inline]
fn hash_ids(ids: &[TermId]) -> u64 {
    ids.iter().fold(0u64, |h, id| fx_fold(h, id.index() as u64))
}

/// Row `r` of an arena with stride `arity`.
#[inline]
fn row_of(arena: &[TermId], arity: usize, r: u32) -> &[TermId] {
    let base = r as usize * arity;
    &arena[base..base + arity]
}

/// Hash the `mask`-selected columns of the row starting at `base`,
/// in place in the arena, in ascending column order.
#[inline]
fn hash_masked_row(arena: &[TermId], base: usize, mask: ColMask) -> u64 {
    let mut h = 0u64;
    let mut m = mask;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        h = fx_fold(h, arena[base + col].index() as u64);
        m &= m - 1;
    }
    h
}

/// A secondary index for one column mask: an [`IdTable`] of bucket
/// ids, where each bucket lists the row ids sharing the same values on
/// the `mask` columns, in insertion order. Probes hash the caller's
/// bound values directly; stored keys are compared against a bucket's
/// first row in place in the arena.
#[derive(Debug, Clone)]
struct ColIndex {
    mask: ColMask,
    /// Bucket ids, hashed by their first row's `mask` columns.
    table: IdTable,
    /// Row ids per distinct key, in ascending (insertion) order. Only
    /// the first `table.len()` buckets are in use; the tail is emptied
    /// buckets kept for reuse, so `clear` + refill (a demand space
    /// cleared and re-derived per query) reallocates nothing at steady
    /// state.
    buckets: Vec<Vec<u32>>,
}

impl ColIndex {
    fn new(mask: ColMask) -> Self {
        ColIndex {
            mask,
            table: IdTable::default(),
            buckets: Vec::new(),
        }
    }

    /// Add `row` (already appended to the arena) to the index.
    fn insert_row(&mut self, arena: &[TermId], arity: usize, row: u32) {
        let base = row as usize * arity;
        let (mask, buckets) = (self.mask, &self.buckets);
        let rep = |b: u32| buckets[b as usize][0] as usize * arity;
        let found = self.table.find_or_insert(
            hash_masked_row(arena, base, mask),
            |b| masked_rows_equal(arena, rep(b), base, mask),
            |b| hash_masked_row(arena, rep(b), mask),
        );
        let b = found.unwrap_or_else(|b| b) as usize;
        if b == self.buckets.len() {
            self.buckets.push(Vec::new());
        }
        self.buckets[b].push(row);
    }

    /// Row ids matching `key` (ascending-column order), or `&[]`.
    fn lookup<'a>(&'a self, arena: &[TermId], arity: usize, key: &[TermId]) -> &'a [u32] {
        let (mask, buckets) = (self.mask, &self.buckets);
        let found = self.table.find(hash_ids(key), |b| {
            let rep = buckets[b as usize][0] as usize * arity;
            Relation::row_matches(&arena[rep..rep + arity], mask, key)
        });
        found.map_or(&[], |b| &self.buckets[b as usize])
    }

    /// Empty the index, keeping its capacity and its buckets' (the
    /// [`IdTable::truncate`] cost: O(live buckets) when sparse). Must
    /// run before the arena clears.
    fn clear(&mut self, arena: &[TermId], arity: usize) {
        let live = self.table.len();
        let (mask, buckets) = (self.mask, &self.buckets);
        let rep = |b: u32| buckets[b as usize][0] as usize * arity;
        self.table
            .truncate(0, |b| hash_masked_row(arena, rep(b), mask));
        for bucket in &mut self.buckets[..live] {
            bucket.clear();
        }
    }
}

/// Do two rows (at arena offsets `b1`, `b2`) agree on `mask` columns?
#[inline]
fn masked_rows_equal(arena: &[TermId], b1: usize, b2: usize, mask: ColMask) -> bool {
    let mut m = mask;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        if arena[b1 + col] != arena[b2 + col] {
            return false;
        }
        m &= m - 1;
    }
    true
}

/// A half-open range `[lo, hi)` of row ids of one relation. Within a
/// stratum run a relation only grows, so the tuples one semi-naive
/// round added are exactly the window between its lengths before and
/// after that round's inserts: the delta is a view of the full
/// relation, not a copy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowWindow {
    /// First row in the window.
    pub lo: u32,
    /// One past the last row in the window.
    pub hi: u32,
}

impl RowWindow {
    /// The empty window at row `at`.
    pub fn empty_at(at: usize) -> Self {
        let at = at as u32;
        RowWindow { lo: at, hi: at }
    }

    /// Number of rows in the window.
    pub fn len(self) -> usize {
        (self.hi - self.lo) as usize
    }

    /// Whether the window holds no rows.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

/// The extension of one predicate: a flat `TermId` arena with stride =
/// arity, an in-place dedup table, and per-mask secondary indexes.
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Tuple storage: row *r* occupies `arena[r*arity .. (r+1)*arity]`.
    arena: Vec<TermId>,
    /// Row ids, hashed by their whole tuple.
    dedup: IdTable,
    /// Secondary indexes; relations have very few masks, so a linear
    /// scan beats hashing the mask on every probe.
    indexes: Vec<ColIndex>,
    /// Process-unique identity, minted fresh for every `new`, `default`
    /// *and clone* — two relations never share an `id`, so
    /// `(id, version)` keys content caches soundly (see
    /// [`Relation::fingerprint`]).
    id: u64,
    /// Bumped on every content change (`insert` of a new tuple,
    /// `clear`). Index creation does not bump: it changes access
    /// paths, not the tuple set.
    version: u64,
}

impl Default for Relation {
    fn default() -> Self {
        Relation {
            arity: 0,
            arena: Vec::new(),
            dedup: IdTable::default(),
            indexes: Vec::new(),
            id: NEXT_REL_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }
}

impl Clone for Relation {
    /// Clones the contents but mints a fresh identity: the clone and
    /// the original diverge independently afterwards, so sharing an
    /// `id` would let their `(id, version)` fingerprints collide.
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            arena: self.arena.clone(),
            dedup: self.dedup.clone(),
            indexes: self.indexes.clone(),
            id: NEXT_REL_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }
}

impl Relation {
    /// Do the `mask`-selected columns of `row` equal `key` (ascending
    /// column order)?
    #[inline]
    pub(crate) fn row_matches(row: &[TermId], mask: ColMask, key: &[TermId]) -> bool {
        let mut m = mask;
        let mut k = 0;
        while m != 0 {
            let col = m.trailing_zeros() as usize;
            if row[col] != key[k] {
                return false;
            }
            k += 1;
            m &= m - 1;
        }
        true
    }

    /// Empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        assert!(arity <= MAX_ARITY, "relation arity capped at {MAX_ARITY}");
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// Column count.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.dedup.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.dedup.is_empty()
    }

    /// Insert a tuple; returns `true` if it was new. The tuple is
    /// copied into the arena — no per-tuple box is allocated.
    ///
    /// # Panics
    /// Panics if `tuple.len() != arity`: a wrong-length row would
    /// shift the stride of every later row in the flat arena, so this
    /// is a hard check even in release builds (one compare per insert,
    /// off the per-column hot loop).
    pub fn insert(&mut self, tuple: &[TermId]) -> bool {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        let (arena, arity) = (&self.arena, self.arity);
        let found = self.dedup.find_or_insert(
            hash_ids(tuple),
            |r| row_of(arena, arity, r) == tuple,
            |r| hash_ids(row_of(arena, arity, r)),
        );
        let Err(row) = found else {
            return false;
        };
        self.arena.extend_from_slice(tuple);
        self.version += 1;
        let arena = &self.arena;
        for index in &mut self.indexes {
            index.insert_row(arena, arity, row);
        }
        true
    }

    /// Membership test (in-place hash and compare; no allocation).
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let eq = |r| row_of(&self.arena, self.arity, r) == tuple;
        self.dedup.find(hash_ids(tuple), eq).is_some()
    }

    /// Pre-grow the arena and dedup table for `additional` upcoming
    /// inserts (a reserve/commit pattern): a bulk copy such as
    /// `Relation::append_tail_from` reserves once instead of paying
    /// repeated doublings mid-loop. Inserts
    /// beyond the reservation stay correct — growth simply resumes.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional * self.arity);
        let (arena, arity) = (&self.arena, self.arity);
        self.dedup
            .reserve(additional, |r| hash_ids(row_of(arena, arity, r)));
    }

    /// All tuples in insertion order: borrowed straight out of the
    /// arena, nothing allocated, `len()` in O(1).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TermId]> {
        (0..self.len() as u32).map(move |r| self.row(r))
    }

    /// Tuple at a row index.
    #[inline]
    pub fn row(&self, row: u32) -> &[TermId] {
        debug_assert!((row as usize) < self.len(), "row {row} out of bounds");
        row_of(&self.arena, self.arity, row)
    }

    /// The mask of every column: its lookups are existence checks,
    /// answered by the dedup table.
    #[inline]
    fn full_mask(&self) -> ColMask {
        match self.arity {
            0 => 0,
            a => ColMask::MAX >> (ColMask::BITS as usize - a),
        }
    }

    /// Ensure an index exists for `mask` (no-op for the empty mask,
    /// which would just be a scan, and for the full mask, which the
    /// dedup table serves).
    pub fn ensure_index(&mut self, mask: ColMask) {
        if mask == 0 || mask == self.full_mask() || self.indexes.iter().any(|i| i.mask == mask) {
            return;
        }
        let mut index = ColIndex::new(mask);
        for row in 0..self.len() as u32 {
            index.insert_row(&self.arena, self.arity, row);
        }
        self.indexes.push(index);
    }

    /// Row indices matching `key` on the columns of `mask`, in
    /// insertion order. `key` holds the bound values in ascending
    /// column order. The probe hashes `key` directly against rows in
    /// the arena — nothing is allocated. The index must have been
    /// created with [`Relation::ensure_index`].
    ///
    /// # Panics
    /// Panics if the index for `mask` does not exist.
    pub fn lookup(&self, mask: ColMask, key: &[TermId]) -> &[u32] {
        debug_assert_ne!(mask, 0, "use iter() for full scans");
        debug_assert_eq!(key.len(), mask.count_ones() as usize);
        if mask == self.full_mask() {
            let eq = |r| row_of(&self.arena, self.arity, r) == key;
            return self.dedup.find_slice(hash_ids(key), eq);
        }
        self.indexes
            .iter()
            .find(|i| i.mask == mask)
            .expect("index not built — plan must call ensure_index")
            .lookup(&self.arena, self.arity, key)
    }

    /// [`Relation::lookup`] narrowed to the row ids in `lo..hi`, in the
    /// same (ascending) order. Buckets list rows in ascending order, so
    /// the bounds are found by two binary searches — a delta probe
    /// reuses the full relation's index (see [`RowWindow`]).
    ///
    /// # Panics
    /// Panics if the index for `mask` does not exist.
    pub fn lookup_window(&self, mask: ColMask, key: &[TermId], lo: u32, hi: u32) -> &[u32] {
        let rows = self.lookup(mask, key);
        let start = rows.partition_point(|&r| r < lo);
        let len = rows[start..].partition_point(|&r| r < hi);
        &rows[start..start + len]
    }

    /// Whether [`Relation::lookup`] serves `mask`: an index for it
    /// exists, or it is the full mask.
    pub fn has_index(&self, mask: ColMask) -> bool {
        (mask != 0 && mask == self.full_mask()) || self.indexes.iter().any(|i| i.mask == mask)
    }

    /// The masks of the secondary indexes, in creation order (a clone
    /// has the same masks in the same order). The full mask, which
    /// needs no index, is never among them.
    pub fn index_masks(&self) -> impl ExactSizeIterator<Item = ColMask> + '_ {
        self.indexes.iter().map(|i| i.mask)
    }

    /// Bring `self`, an earlier copy of `src`, level with it: build the
    /// index masks `src` gained since, then [`Relation::insert`] the
    /// rows past `self.len()`. Afterwards `self` equals a fresh clone
    /// of `src` row for row, with the same index masks in the same
    /// order — at the cost of the tail rather than the whole relation.
    ///
    /// The caller guarantees that `self`'s rows are a prefix of
    /// `src`'s: `src` has only grown since the copy (same
    /// [`Relation::fingerprint`] identity, no [`Relation::clear`] —
    /// see [`Relation::clear_mark`]).
    pub(crate) fn append_tail_from(&mut self, src: &Relation) {
        assert_eq!(self.arity, src.arity, "append_tail_from: arity mismatch");
        assert!(self.len() <= src.len(), "append_tail_from: not a prefix");
        // Indexes first, so the tail below is indexed incrementally.
        for mask in src.index_masks() {
            self.ensure_index(mask);
        }
        self.reserve(src.len() - self.len());
        for r in self.len() as u32..src.len() as u32 {
            let fresh = self.insert(src.row(r));
            debug_assert!(fresh, "append_tail_from: row {r} already present");
        }
    }

    /// Estimate the number of distinct values the `mask` columns take
    /// over this relation — the planner-statistics primitive behind
    /// cost-based join ordering ([`crate::stats`]).
    ///
    /// Exact and O(1) when a secondary index for `mask` already exists
    /// (its bucket count *is* the distinct-key count); otherwise a
    /// deterministic strided sample of up to 1024 rows is hashed in
    /// place in the arena (the same [`fx_fold`] column hashing the
    /// dedup table and indexes use — no keys are materialized) and
    /// scaled to the full row count. `mask == 0` estimates whole-tuple
    /// distinctness, which is exactly the row count.
    pub fn distinct_estimate(&self, mask: ColMask) -> usize {
        let n = self.len();
        if n == 0 {
            return 0;
        }
        // Rows are distinct, so the full mask has one key per row.
        if mask == 0 || mask == self.full_mask() {
            return n;
        }
        if let Some(ix) = self.indexes.iter().find(|i| i.mask == mask) {
            return ix.table.len();
        }
        const SAMPLE: usize = 1024;
        let step = n.div_ceil(SAMPLE).max(1);
        let mut seen: lps_term::FxHashSet<u64> = lps_term::FxHashSet::default();
        let mut sampled = 0usize;
        let mut r = 0usize;
        while r < n {
            seen.insert(hash_masked_row(&self.arena, r * self.arity, mask));
            sampled += 1;
            r += step;
        }
        let d = seen.len();
        if sampled == n {
            d
        } else {
            // Linear scale-up, clamped to the observed floor and the
            // row-count ceiling. Coarse, but the planner only needs
            // relative magnitudes.
            (d.saturating_mul(n) / sampled).clamp(d, n)
        }
    }

    /// Remove all tuples (keeping index *definitions* but emptying
    /// them). Used when facts are reset, when a demand space goes cold,
    /// and for an ad-hoc goal's head relation before each evaluation.
    /// Arena and table capacities are retained for reuse.
    ///
    /// Costs O(rows), not O(capacity): an empty relation only bumps its
    /// version, and a table whose occupants fill under a quarter of its
    /// slots vacates just those slots, so a goal relation that once
    /// grew large and now holds a few answers clears in O(answers).
    /// Dense tables are `fill`ed. Every clear, of an empty relation too, moves
    /// [`Relation::fingerprint`] and [`Relation::clear_mark`].
    pub fn clear(&mut self) {
        self.version += 1;
        if self.is_empty() {
            return;
        }
        let (arena, arity) = (&self.arena, self.arity);
        self.dedup
            .truncate(0, |r| hash_ids(row_of(arena, arity, r)));
        for index in &mut self.indexes {
            index.clear(&self.arena, self.arity);
        }
        self.arena.clear();
    }

    /// `(identity, version)` fingerprint for content caching: equal
    /// fingerprints imply equal tuple sets. `identity` is process-
    /// unique per relation *object* (fresh on construction and on
    /// clone); `version` counts content mutations. The snapshot
    /// publisher uses this to reuse the previously published
    /// `Arc<Relation>` for relations an update did not touch.
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.id, self.version)
    }

    /// A value that changes on every [`Relation::clear`] and on no
    /// insert: `version − rows`, since an insert bumps both and a clear
    /// bumps the version while zeroing the rows. Equal marks on the
    /// same identity mean the relation has only grown in between, so an
    /// earlier copy's rows are a prefix of its rows.
    pub fn clear_mark(&self) -> u64 {
        // Wrapping: a clone restarts `version` at 0 with its rows kept.
        self.version.wrapping_sub(self.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_term::TermStore;

    #[test]
    fn insert_deduplicates() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let mut r = Relation::new(2);
        assert!(r.insert(&[a, b]));
        assert!(!r.insert(&[a, b]));
        assert!(r.insert(&[b, a]));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[a, b]));
        assert!(!r.contains(&[a, a]));
    }

    #[test]
    fn index_built_before_inserts_stays_fresh() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let c = st.atom("c");
        let mut r = Relation::new(2);
        r.ensure_index(0b01);
        r.insert(&[a, b]);
        r.insert(&[a, c]);
        r.insert(&[b, c]);
        let rows = r.lookup(0b01, &[a]);
        assert_eq!(rows.len(), 2);
        assert_eq!(r.row(rows[0]), &[a, b]);
        assert_eq!(r.row(rows[1]), &[a, c]);
        assert!(r.lookup(0b01, &[c]).is_empty());
    }

    #[test]
    fn index_built_after_inserts_sees_existing_tuples() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let mut r = Relation::new(2);
        r.insert(&[a, b]);
        r.insert(&[b, b]);
        r.ensure_index(0b10);
        assert_eq!(r.lookup(0b10, &[b]).len(), 2);
    }

    #[test]
    fn multi_column_mask() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let mut r = Relation::new(3);
        r.insert(&[a, b, a]);
        r.insert(&[a, a, b]);
        r.ensure_index(0b101);
        assert_eq!(r.lookup(0b101, &[a, a]).len(), 1);
        assert_eq!(r.row(r.lookup(0b101, &[a, a])[0]), &[a, b, a]);
    }

    #[test]
    fn clear_empties_but_preserves_index_definitions() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let mut r = Relation::new(1);
        r.ensure_index(0b1);
        r.insert(&[a]);
        r.clear();
        assert!(r.is_empty());
        assert!(r.has_index(0b1));
        assert!(r.lookup(0b1, &[a]).is_empty());
        // Reinsert after clear works and is indexed.
        r.insert(&[a]);
        assert_eq!(r.lookup(0b1, &[a]).len(), 1);
    }

    #[test]
    fn zero_arity_relation_holds_one_tuple() {
        let mut r = Relation::new(0);
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.iter().count(), 1);
        assert_eq!(r.row(0), &[] as &[TermId]);
    }

    #[test]
    fn growth_rehashes_dedup_and_indexes() {
        // Push well past several resize thresholds and verify every
        // tuple stays findable through both the dedup table and an
        // index that existed from the start.
        let mut st = TermStore::new();
        let ids: Vec<_> = (0..512).map(|i| st.int(i)).collect();
        let mut r = Relation::new(2);
        r.ensure_index(0b01);
        for (i, &x) in ids.iter().enumerate() {
            // Key column cycles over 16 values → 32-row buckets.
            r.insert(&[ids[i % 16], x]);
        }
        assert_eq!(r.len(), 512);
        for (i, &x) in ids.iter().enumerate() {
            assert!(r.contains(&[ids[i % 16], x]));
        }
        for key in ids.iter().take(16) {
            assert_eq!(r.lookup(0b01, &[*key]).len(), 32);
        }
        // Late index sees the same rows.
        r.ensure_index(0b10);
        for &x in &ids {
            assert_eq!(r.lookup(0b10, &[x]).len(), 1);
        }
    }

    #[test]
    fn reserve_then_insert_preserves_lookup() {
        let mut st = TermStore::new();
        let ids: Vec<_> = (0..200).map(|i| st.int(i)).collect();
        let mut r = Relation::new(1);
        for &x in ids.iter().take(10) {
            r.insert(&[x]);
        }
        // Reserve well past several doubling thresholds, then fill.
        r.reserve(190);
        for &x in &ids {
            r.insert(&[x]);
        }
        assert_eq!(r.len(), 200);
        for &x in &ids {
            assert!(r.contains(&[x]));
        }
        // Reserving on an empty relation also works.
        let mut fresh = Relation::new(2);
        fresh.reserve(100);
        assert!(fresh.insert(&[ids[0], ids[1]]));
        assert!(fresh.contains(&[ids[0], ids[1]]));
    }

    #[test]
    fn fingerprint_tracks_content_not_indexes() {
        let mut st = TermStore::new();
        let a = st.atom("a");
        let b = st.atom("b");
        let mut r = Relation::new(2);
        let f0 = r.fingerprint();
        r.insert(&[a, b]);
        let f1 = r.fingerprint();
        assert_ne!(f0, f1, "insert must bump the version");
        // Duplicate insert: no content change, no bump.
        r.insert(&[a, b]);
        assert_eq!(r.fingerprint(), f1);
        // Index creation: access path only, no bump.
        r.ensure_index(0b01);
        assert_eq!(r.fingerprint(), f1);
        r.clear();
        assert_ne!(r.fingerprint(), f1, "clear must bump the version");
        // Clones mint a fresh identity so fingerprints never collide
        // even while both copies mutate independently.
        let c = r.clone();
        assert_ne!(c.fingerprint().0, r.fingerprint().0);
        // Distinct relations have distinct identities.
        assert_ne!(
            Relation::new(1).fingerprint().0,
            Relation::new(1).fingerprint().0
        );
    }

    #[test]
    fn append_tail_from_matches_a_fresh_clone() {
        let mut st = TermStore::new();
        let ids: Vec<_> = (0..300).map(|i| st.int(i)).collect();
        let mut src = Relation::new(2);
        src.ensure_index(0b01);
        for (i, &x) in ids.iter().take(20).enumerate() {
            src.insert(&[ids[i % 4], x]);
        }
        let mut copy = src.clone();
        let mark = src.clear_mark();
        // The source grows past several resize thresholds and gains an
        // index; inserts never move the clear mark.
        for (i, &x) in ids.iter().enumerate().skip(20) {
            src.insert(&[ids[i % 4], x]);
        }
        src.ensure_index(0b10);
        assert_eq!(src.clear_mark(), mark);
        copy.append_tail_from(&src);
        let fresh = src.clone();
        assert_eq!(
            copy.iter().collect::<Vec<_>>(),
            fresh.iter().collect::<Vec<_>>()
        );
        assert_eq!(
            copy.index_masks().collect::<Vec<_>>(),
            fresh.index_masks().collect::<Vec<_>>()
        );
        for &x in ids.iter().take(4) {
            assert_eq!(copy.lookup(0b01, &[x]), fresh.lookup(0b01, &[x]));
        }
        for &x in &ids {
            assert_eq!(copy.lookup(0b10, &[x]), fresh.lookup(0b10, &[x]));
            assert_eq!(copy.contains(&[ids[0], x]), fresh.contains(&[ids[0], x]));
        }
        // Up to date: a second append is a no-op.
        copy.append_tail_from(&src);
        assert_eq!(copy.len(), src.len());
        // A clear moves the mark, even when the relation regrows to
        // its old length.
        let n = src.len();
        src.clear();
        assert_ne!(src.clear_mark(), mark);
        for (i, &x) in ids.iter().enumerate().take(n) {
            src.insert(&[ids[(i + 1) % 4], x]);
        }
        assert_ne!(src.clear_mark(), mark);
    }

    #[test]
    fn iter_preserves_insertion_order() {
        let mut st = TermStore::new();
        let ids: Vec<_> = (0..64).map(|i| st.int(i)).collect();
        let mut r = Relation::new(1);
        for &x in &ids {
            r.insert(&[x]);
        }
        let seen: Vec<TermId> = r.iter().map(|t| t[0]).collect();
        assert_eq!(seen, ids);
    }
}
