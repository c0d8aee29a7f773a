//! Arena-backed tuple storage with on-demand, allocation-free indexes.
//!
//! A [`Relation`] holds the extension of one predicate: a deduplicated,
//! insertion-ordered list of tuples of interned terms, stored in one
//! contiguous [`TermId`] arena with stride = arity. Deduplication and
//! the per-[`ColMask`] secondary indexes never materialize keys: they
//! hash and compare the relevant columns *in place* in the arena, open
//! addressing over `u32` row ids with the workspace Fx hasher
//! ([`lps_term::fx_fold`]).
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

use lps_term::{fx_fold, TermId};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide relation identity counter (see [`Relation::fingerprint`]).
static NEXT_REL_ID: AtomicU64 = AtomicU64::new(1);

/// Bitmask of bound columns (bit *i* set ⇔ column *i* bound).
pub type ColMask = u32;

/// The widest relation a [`ColMask`] can index: one mask bit per
/// column. Front ends reject wider predicates before registering them.
pub const MAX_ARITY: usize = ColMask::BITS as usize;

/// Sentinel for an empty open-addressing slot.
const EMPTY_SLOT: u32 = u32::MAX;

/// Initial open-addressing capacity (power of two).
const INITIAL_CAP: usize = 8;

/// Hash a key slice (the bound values of a probe, in ascending column
/// order). Must agree with [`hash_masked_row`] for the same values.
#[inline]
fn hash_ids(ids: &[TermId]) -> u64 {
    ids.iter().fold(0u64, |h, id| fx_fold(h, id.index() as u64))
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

/// Do the `mask`-selected columns of the row starting at `base` equal
/// `key` (ascending column order)?
#[inline]
fn masked_row_matches(arena: &[TermId], base: usize, mask: ColMask, key: &[TermId]) -> bool {
    let mut m = mask;
    let mut k = 0;
    while m != 0 {
        let col = m.trailing_zeros() as usize;
        if arena[base + col] != key[k] {
            return false;
        }
        k += 1;
        m &= m - 1;
    }
    true
}

/// Linear-probe `slots` for `hash`, returning the first slot index that
/// is either empty or whose occupant satisfies `matches`. `slots.len()`
/// must be a nonzero power of two with at least one empty slot.
#[inline]
fn find_slot(slots: &[u32], hash: u64, mut matches: impl FnMut(u32) -> bool) -> usize {
    let cap_mask = slots.len() - 1;
    let mut i = (hash as usize) & cap_mask;
    loop {
        let s = slots[i];
        if s == EMPTY_SLOT || matches(s) {
            return i;
        }
        i = (i + 1) & cap_mask;
    }
}

/// Open-addressing dedup table over row ids: rows are hashed and
/// compared in place in the arena, so no key is ever materialized.
#[derive(Debug, Default, Clone)]
struct RowTable {
    /// Row ids (or [`EMPTY_SLOT`]); length is a power of two.
    slots: Box<[u32]>,
    /// Occupied slot count.
    len: usize,
}

impl RowTable {
    /// Grow and rehash (from the arena) when the next insert would push
    /// the load factor past 7/8.
    fn reserve_one(&mut self, arena: &[TermId], arity: usize) {
        if (self.len + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let new_cap = (self.slots.len() * 2).max(INITIAL_CAP);
        let mut slots = vec![EMPTY_SLOT; new_cap].into_boxed_slice();
        for row in 0..self.len as u32 {
            let base = row as usize * arity;
            let h = hash_ids(&arena[base..base + arity]);
            // All stored rows are distinct: only an empty slot matches.
            let i = find_slot(&slots, h, |_| false);
            slots[i] = row;
        }
        self.slots = slots;
    }

    /// Empty the table in O(rows) when it is sparse, else by `fill`.
    /// A sparse clear vacates the occupied slots newest row first: a
    /// row's probe path crosses only older rows (inserts and rehashes
    /// both place rows in row order), so every path still leads to its
    /// row when that row is removed. Must run before the arena clears.
    fn clear(&mut self, arena: &[TermId], arity: usize) {
        if is_sparse(self.len, self.slots.len()) {
            for row in (0..self.len as u32).rev() {
                let base = row as usize * arity;
                let i = find_slot(&self.slots, hash_ids(&arena[base..base + arity]), |r| {
                    r == row
                });
                self.slots[i] = EMPTY_SLOT;
            }
        } else {
            self.slots.fill(EMPTY_SLOT);
        }
        self.len = 0;
    }
}

/// Whether an open-addressing table with `len` occupants in `cap`
/// slots is cheaper to clear one occupant at a time than by `fill`.
#[inline]
fn is_sparse(len: usize, cap: usize) -> bool {
    len * 4 < cap
}

/// A secondary index for one column mask: an open-addressing table of
/// bucket ids, where each bucket lists the row ids sharing the same
/// values on the `mask` columns, in insertion order. Probes hash the
/// caller's bound values directly; stored keys are compared against a
/// bucket's first row in place in the arena. Clearing costs O(live
/// buckets) on a sparse table (see [`ColIndex::clear`]).
#[derive(Debug, Clone)]
struct ColIndex {
    mask: ColMask,
    /// Bucket ids (or [`EMPTY_SLOT`]); length is a power of two.
    slots: Box<[u32]>,
    /// Row ids per distinct key, in ascending (insertion) order. Only
    /// the first `live` buckets are in use; the tail is emptied buckets
    /// kept for reuse, so `clear` + refill (a demand space cleared and
    /// re-derived per query) reallocates nothing at steady state.
    buckets: Vec<Vec<u32>>,
    /// Buckets currently reachable from `slots`.
    live: usize,
}

impl ColIndex {
    fn new(mask: ColMask) -> Self {
        ColIndex {
            mask,
            slots: Box::default(),
            buckets: Vec::new(),
            live: 0,
        }
    }

    /// Add `row` (already appended to the arena) to the index.
    fn insert_row(&mut self, arena: &[TermId], arity: usize, row: u32) {
        // Grow on distinct-key count (`live`).
        if (self.live + 1) * 8 > self.slots.len() * 7 {
            let new_cap = (self.slots.len() * 2).max(INITIAL_CAP);
            let mut slots = vec![EMPTY_SLOT; new_cap].into_boxed_slice();
            for (b, bucket) in self.buckets[..self.live].iter().enumerate() {
                let base = bucket[0] as usize * arity;
                let h = hash_masked_row(arena, base, self.mask);
                let i = find_slot(&slots, h, |_| false);
                slots[i] = b as u32;
            }
            self.slots = slots;
        }
        let base = row as usize * arity;
        let h = hash_masked_row(arena, base, self.mask);
        let (mask, buckets) = (self.mask, &self.buckets);
        let i = find_slot(&self.slots, h, |b| {
            let rep = buckets[b as usize][0] as usize * arity;
            masked_rows_equal(arena, rep, base, mask)
        });
        match self.slots[i] {
            EMPTY_SLOT => {
                self.slots[i] = self.live as u32;
                if self.live == self.buckets.len() {
                    self.buckets.push(Vec::new());
                }
                self.buckets[self.live].push(row);
                self.live += 1;
            }
            b => self.buckets[b as usize].push(row),
        }
    }

    /// Row ids matching `key` (ascending-column order), or `&[]`.
    fn lookup<'a>(&'a self, arena: &[TermId], arity: usize, key: &[TermId]) -> &'a [u32] {
        if self.slots.is_empty() {
            return &[];
        }
        let h = hash_ids(key);
        let (mask, buckets) = (self.mask, &self.buckets);
        let i = find_slot(&self.slots, h, |b| {
            let rep = buckets[b as usize][0] as usize * arity;
            masked_row_matches(arena, rep, mask, key)
        });
        match self.slots[i] {
            EMPTY_SLOT => &[],
            b => &self.buckets[b as usize],
        }
    }

    /// Empty the index, keeping its capacity. On a sparse table the
    /// live buckets' slots are vacated in reverse creation order — the
    /// [`RowTable::clear`] argument with buckets for rows, since growth
    /// rehashes buckets in creation order too; a dense table is
    /// `fill`ed. Must run before the arena clears.
    fn clear(&mut self, arena: &[TermId], arity: usize) {
        if is_sparse(self.live, self.slots.len()) {
            for b in (0..self.live as u32).rev() {
                let base = self.buckets[b as usize][0] as usize * arity;
                let h = hash_masked_row(arena, base, self.mask);
                let i = find_slot(&self.slots, h, |s| s == b);
                self.slots[i] = EMPTY_SLOT;
            }
        } else {
            self.slots.fill(EMPTY_SLOT);
        }
        for bucket in &mut self.buckets[..self.live] {
            bucket.clear();
        }
        self.live = 0;
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
    /// Row count (tracked separately so zero-arity relations work).
    rows: u32,
    dedup: RowTable,
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
            rows: 0,
            dedup: RowTable::default(),
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
            rows: self.rows,
            dedup: self.dedup.clone(),
            indexes: self.indexes.clone(),
            id: NEXT_REL_ID.fetch_add(1, Ordering::Relaxed),
            version: 0,
        }
    }
}

impl Relation {
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
        self.rows as usize
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
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
        let hash = hash_ids(tuple);
        self.dedup.reserve_one(&self.arena, self.arity);
        let (arena, arity) = (&self.arena, self.arity);
        let slot = find_slot(&self.dedup.slots, hash, |r| {
            let base = r as usize * arity;
            &arena[base..base + arity] == tuple
        });
        if self.dedup.slots[slot] != EMPTY_SLOT {
            return false;
        }
        let row = self.rows;
        assert!(row != u32::MAX, "relation overflow");
        self.arena.extend_from_slice(tuple);
        self.rows += 1;
        self.version += 1;
        self.dedup.slots[slot] = row;
        self.dedup.len += 1;
        let arena = &self.arena;
        for index in &mut self.indexes {
            index.insert_row(arena, arity, row);
        }
        true
    }

    /// Membership test (in-place hash and compare; no allocation).
    pub fn contains(&self, tuple: &[TermId]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        if self.dedup.slots.is_empty() {
            return false;
        }
        let hash = hash_ids(tuple);
        let (arena, arity) = (&self.arena, self.arity);
        let slot = find_slot(&self.dedup.slots, hash, |r| {
            let base = r as usize * arity;
            &arena[base..base + arity] == tuple
        });
        self.dedup.slots[slot] != EMPTY_SLOT
    }

    /// Pre-grow the arena and dedup table for `additional` upcoming
    /// inserts (a reserve/commit pattern): a bulk copy such as
    /// `Relation::append_tail_from` reserves once instead of paying
    /// repeated doublings mid-loop. Inserts
    /// beyond the reservation stay correct — growth simply resumes.
    pub fn reserve(&mut self, additional: usize) {
        self.arena.reserve(additional * self.arity);
        let needed = self.rows as usize + additional;
        if (needed + 1) * 8 > self.dedup.slots.len() * 7 {
            let mut cap = self.dedup.slots.len().max(INITIAL_CAP);
            while (needed + 1) * 8 > cap * 7 {
                cap *= 2;
            }
            let mut slots = vec![EMPTY_SLOT; cap].into_boxed_slice();
            for row in 0..self.rows {
                let base = row as usize * self.arity;
                let h = hash_ids(&self.arena[base..base + self.arity]);
                // All stored rows are distinct: only an empty slot
                // matches.
                let i = find_slot(&slots, h, |_| false);
                slots[i] = row;
            }
            self.dedup.slots = slots;
        }
    }

    /// All tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[TermId]> {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Tuple at a row index.
    #[inline]
    pub fn row(&self, row: u32) -> &[TermId] {
        debug_assert!(row < self.rows, "row {row} out of bounds");
        let base = row as usize * self.arity;
        &self.arena[base..base + self.arity]
    }

    /// Ensure an index exists for `mask` (no-op for the empty mask,
    /// which would just be a scan).
    pub fn ensure_index(&mut self, mask: ColMask) {
        if mask == 0 || self.indexes.iter().any(|i| i.mask == mask) {
            return;
        }
        let mut index = ColIndex::new(mask);
        for row in 0..self.rows {
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

    /// Whether an index for `mask` exists.
    pub fn has_index(&self, mask: ColMask) -> bool {
        self.indexes.iter().any(|i| i.mask == mask)
    }

    /// The masks of the secondary indexes, in creation order (a clone
    /// has the same masks in the same order).
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
        assert!(self.rows <= src.rows, "append_tail_from: not a prefix");
        // Indexes first, so the tail below is indexed incrementally.
        for mask in src.index_masks() {
            self.ensure_index(mask);
        }
        self.reserve((src.rows - self.rows) as usize);
        for r in self.rows..src.rows {
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
        if mask == 0 {
            return n;
        }
        if let Some(ix) = self.indexes.iter().find(|i| i.mask == mask) {
            return ix.live;
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
        if self.rows == 0 {
            return;
        }
        self.dedup.clear(&self.arena, self.arity);
        for index in &mut self.indexes {
            index.clear(&self.arena, self.arity);
        }
        self.arena.clear();
        self.rows = 0;
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
        self.version.wrapping_sub(u64::from(self.rows))
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
