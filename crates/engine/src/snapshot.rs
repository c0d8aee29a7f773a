//! Epoch-published immutable engine snapshots — the single-writer /
//! many-reader split behind concurrent query serving.
//!
//! The engine itself stays a `&mut self` session: writes (`fact`,
//! `update`, rule changes) and anything that grows a demand space
//! belong to the one owning thread. What this module adds is a way for
//! that writer to *publish* a frozen, shareable view of the session —
//! an [`EngineSnapshot`] behind a shared `RwLock<Arc<EngineSnapshot>>`
//! — that any number of reader threads can query concurrently. A
//! reader holds the read lock only to clone the current `Arc`; every
//! lookup and query runs on its own `Arc` after the lock is released:
//!
//! ```text
//!            writer thread                    reader threads
//!   fact/update/query ──► Engine
//!            │ publish()                      current() ──► Arc<EngineSnapshot>
//!            ▼                                   │ try_query()   (no lock held)
//!   SnapshotPublisher ──► RwLock<Arc<_>> ◄───────┘
//!            (epoch n+1 swaps in;     hit  → answer rows, no writer involved
//!             epoch n lives until     miss → funnel the query to the writer,
//!             its last reader drops)         which answers with `&mut Engine`
//!                                            and publishes a fresh epoch
//! ```
//!
//! A snapshot can answer a point query from two sources, mirroring the
//! sequential [`Engine::query`] decision exactly:
//!
//! * **Materialized model** — when the engine was `Materialized` and
//!   clean at publish time, any point query reads straight from the
//!   frozen relations (index probe when the index was already built,
//!   linear scan otherwise — never a mutation).
//! * **Retained demand plans** — the PR 5 plan cache, converted here
//!   from `&mut self` LRU state into a read-mostly map: a query whose
//!   `(pred, bound-mask)` plan is live *and* whose seed tuple is
//!   already in the plan's magic relation is a pure indexed read of
//!   the retained answer relation. Anything else — a cold adornment or
//!   a new seed constant — returns `None` and funnels to the writer
//!   (which evaluates, then republishes so later readers hit). A
//!   non-monotone query funnels only until the writer answers it: that
//!   answer materializes the session's model, and from the next
//!   publish on the snapshot serves every point query from the model.
//!
//! A publish costs the rows added since the last one, not the size of
//! what changed. Each relation slot keeps two buffers: the one the
//! current epoch publishes and a *spare*, the one it published before.
//! A relation the writer did not touch (same [`Relation::fingerprint`]
//! and index count) reuses the published `Arc`. A touched one has, in
//! the common case, only grown — the materialized model and the
//! retained demand spaces are monotone, `T_P` iterated on from the last
//! fixpoint — so the publisher appends the new tail rows to the spare
//! (`Relation::append_tail_from`, which keeps its dedup table and
//! indexes), publishes the spare, and keeps the outgoing buffer as the
//! next spare. The spare is reused only when `Arc::get_mut` proves no
//! epoch or reader still holds it and the source kept its identity
//! with no clear (`Relation::clear_mark`); otherwise — first publish,
//! a rebased or evicted plan, a cleared space, a spare pinned by a
//! reader — the relation is cloned, as a fresh epoch needs. Either way
//! every published relation equals a clone of the source row for row,
//! with the same index masks. The interned-term store is re-cloned
//! only when it grew, and a publish that would change nothing a
//! snapshot holds mints no epoch at all.
//!
//! Readers never observe a torn epoch: the epoch swap happens under
//! the write lock, and a reader's `Arc` keeps its whole snapshot
//! (store, registry, relations, plans) alive together until dropped
//! (property-tested in `tests/prop_serve.rs`). The writer builds each
//! epoch before taking the lock and frees the superseded one after
//! releasing it, so the lock is held for a pointer swap only.

use crate::demand::RowSet;
use crate::magic;
use crate::pred::{PredId, PredRegistry};
use crate::relation::{ColMask, Relation};
use crate::session::{Engine, EngineState};
use lps_term::{FxHashMap, TermId, TermStore};
use std::sync::{Arc, PoisonError, RwLock};

/// One servable demand plan in a snapshot: the retained answer
/// relation and the magic relation that records which seeds its
/// fixpoint covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SnapshotPlan {
    /// The adorned predicate holding the answers.
    answer: PredId,
    /// The magic (seed) predicate; `None` for the all-free adornment,
    /// whose fixpoint covers every seed.
    magic: Option<PredId>,
}

/// An immutable, shareable view of an [`Engine`] at one publish point.
///
/// Obtained from [`SnapshotReader::current`]; all methods are `&self`
/// and never mutate, so one snapshot can serve any number of threads.
#[derive(Debug)]
pub struct EngineSnapshot {
    epoch: u64,
    store: Arc<TermStore>,
    preds: PredRegistry,
    /// Frozen `full` relations, positionally indexed by
    /// [`PredId::index`]. Shared with other epochs where unchanged.
    rels: Vec<Arc<Relation>>,
    /// Live demand plans by `(pred, bound-mask)`; empty when the
    /// demand spaces were not current at publish time.
    plans: FxHashMap<(PredId, ColMask), SnapshotPlan>,
    /// Whether the materialized model was complete and clean at
    /// publish time (any point query is then servable from `rels`).
    model_servable: bool,
}

impl EngineSnapshot {
    /// The publish sequence number this snapshot was created at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen term store (read-only: use the `find_*` lookups).
    pub fn store(&self) -> &TermStore {
        &self.store
    }

    /// Look up a predicate by name and arity without registering it.
    /// `None` means the program never mentions it — the writer will
    /// report the error.
    pub fn find_pred(&self, name: &str, arity: usize) -> Option<PredId> {
        let sym = self.store.symbols().get(name)?;
        self.preds.get(sym, arity)
    }

    /// Arity of a predicate in this snapshot.
    pub fn arity(&self, pred: PredId) -> usize {
        self.preds.info(pred).arity
    }

    /// Number of relation slots frozen in this snapshot (one per
    /// registered predicate slot at publish time).
    pub fn relation_count(&self) -> usize {
        self.rels.len()
    }

    /// The frozen relation of `pred`: row for row, with the same index
    /// masks, a clone of the engine's relation at publish time. `None`
    /// past [`EngineSnapshot::relation_count`].
    pub fn relation(&self, pred: PredId) -> Option<&Relation> {
        self.rels.get(pred.index()).map(|r| &**r)
    }

    /// Try to answer the point query `pred(args…)` from this snapshot
    /// alone. `Some(rows)` is exactly what the sequential engine would
    /// answer at this epoch; `None` means the snapshot cannot answer
    /// without mutating (cold adornment, unseeded constant, fallback
    /// query, stale demand space) and the caller must funnel the query
    /// to the writer.
    pub fn try_query(&self, pred: PredId, args: &[Option<TermId>]) -> Option<RowSet> {
        if args.len() != self.preds.info(pred).arity {
            return None;
        }
        let mask = magic::adornment_of(args);
        let key: Vec<TermId> = args.iter().filter_map(|a| *a).collect();
        if self.model_servable {
            let rel = self.rels.get(pred.index())?;
            return Some(read_rows(rel, mask, &key));
        }
        let plan = self.plans.get(&(pred, mask))?;
        if let Some(m) = plan.magic {
            // The retained fixpoint covers exactly the seeds recorded
            // in the magic relation; a new constant funnels.
            if !self.rels.get(m.index())?.contains(&key) {
                return None;
            }
        }
        let answer = self.rels.get(plan.answer.index())?;
        Some(read_rows(answer, mask, &key))
    }
}

/// Answer rows from a frozen relation: scan for the all-free mask,
/// index probe when the index exists, filtered scan otherwise (frozen
/// relations cannot build indexes on demand — the fallback is sound,
/// just linear).
fn read_rows(rel: &Relation, mask: ColMask, key: &[TermId]) -> RowSet {
    let mut out = RowSet::new(rel.arity());
    if mask == 0 {
        for row in rel.iter() {
            out.push(row);
        }
    } else if rel.has_index(mask) {
        for &r in rel.lookup(mask, key) {
            out.push(rel.row(r));
        }
    } else {
        for row in rel.iter() {
            if Relation::row_matches(row, mask, key) {
                out.push(row);
            }
        }
    }
    out
}

/// The source state a published buffer was last brought level with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SyncKey {
    /// The engine relation's `(identity, version)`
    /// ([`Relation::fingerprint`]).
    fingerprint: (u64, u64),
    /// Its [`Relation::clear_mark`]: equal marks on one identity mean
    /// the relation only grew in between.
    clear_mark: u64,
    /// Its index count — building an index does not bump the version,
    /// but a published copy must carry the same index masks.
    indexes: usize,
}

impl SyncKey {
    fn of(rel: &Relation) -> Self {
        SyncKey {
            fingerprint: rel.fingerprint(),
            clear_mark: rel.clear_mark(),
            indexes: rel.index_masks().len(),
        }
    }
}

/// A published copy of one engine relation and the source state it
/// mirrors.
#[derive(Debug)]
struct Buffer {
    synced: SyncKey,
    rel: Arc<Relation>,
}

impl Buffer {
    fn clone_of(src: &Relation, synced: SyncKey) -> Self {
        Buffer {
            synced,
            rel: Arc::new(src.clone()),
        }
    }
}

/// One relation slot: the buffer the current epoch publishes, and the
/// one the slot published before it, kept to be grown in place.
#[derive(Debug)]
struct Slot {
    published: Buffer,
    spare: Option<Buffer>,
}

impl Slot {
    fn new(src: &Relation) -> Self {
        Slot {
            published: Buffer::clone_of(src, SyncKey::of(src)),
            spare: None,
        }
    }

    /// The buffer to publish for `src`. An unchanged source reuses the
    /// published buffer. A changed one is copied into the spare when
    /// the source has only grown since the spare was synced and no
    /// epoch still holds the spare — only the new tail rows are
    /// copied; otherwise (first sight, a new identity after a rebase or
    /// eviction, a clear, a pinned spare) the source is cloned. Either
    /// way the outgoing buffer becomes the next spare.
    fn sync(&mut self, src: &Relation) -> Arc<Relation> {
        let key = SyncKey::of(src);
        if self.published.synced != key {
            let grown = self.spare.take().and_then(|mut buf| {
                let same_growth = buf.synced.fingerprint.0 == key.fingerprint.0
                    && buf.synced.clear_mark == key.clear_mark;
                let rel = Arc::get_mut(&mut buf.rel).filter(|_| same_growth)?;
                rel.append_tail_from(src);
                buf.synced = key;
                Some(buf)
            });
            let next = grown.unwrap_or_else(|| Buffer::clone_of(src, key));
            self.spare = Some(std::mem::replace(&mut self.published, next));
        }
        Arc::clone(&self.published.rel)
    }
}

/// The writer-side handle: owns the current epoch and the per-slot
/// buffers that make republishing cheap. Lives next to the owning
/// [`Engine`] on the writer thread; hand [`SnapshotPublisher::reader`]
/// clones to reader threads.
#[derive(Debug)]
pub struct SnapshotPublisher {
    /// The published epoch, shared with every [`SnapshotReader`]. Its
    /// only write is one `Arc` swap, so even a poisoned lock holds a
    /// whole epoch: both sides recover the guard instead of panicking.
    cell: Arc<RwLock<Arc<EngineSnapshot>>>,
    /// The epoch readers currently load (also held by `cell`).
    current: Arc<EngineSnapshot>,
    /// Published/spare buffer pair per relation slot.
    slots: Vec<Slot>,
}

impl SnapshotPublisher {
    /// Create a publisher and publish the engine's current state.
    pub fn new(engine: &mut Engine) -> Self {
        // Epoch 0 is just the cell's initial value; `publish` below
        // freezes the relations and plans through the one code path.
        let current = Arc::new(EngineSnapshot {
            epoch: 0,
            store: Arc::new(engine.store().clone()),
            preds: engine.preds().clone(),
            rels: Vec::new(),
            plans: FxHashMap::default(),
            model_servable: false,
        });
        let mut publisher = SnapshotPublisher {
            cell: Arc::new(RwLock::new(Arc::clone(&current))),
            current,
            slots: Vec::new(),
        };
        publisher.publish(engine);
        publisher
    }

    /// The epoch readers currently see.
    pub fn epoch(&self) -> u64 {
        self.current.epoch
    }

    /// A cheap, clonable reader handle for this publisher's epochs.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader {
            cell: Arc::clone(&self.cell),
        }
    }

    /// Freeze the engine's current state into a new epoch and swap it
    /// in for readers. Returns the epoch readers now see: the new one,
    /// or the current one unchanged when nothing a snapshot holds has
    /// changed since it was published (no epoch is minted then).
    /// Unchanged relations and an unchanged store are shared with the
    /// previous epoch; changed relations are grown in a spare buffer
    /// where possible (`Relation::append_tail_from`) rather than
    /// re-cloned.
    pub fn publish(&mut self, engine: &mut Engine) -> u64 {
        // Build the bound-column indexes the reader hit path probes
        // while we still have `&mut` — published relations are frozen.
        engine.prepare_publish();
        // The store only grows between publishes (a failed fact load
        // rolls back to where it started): unchanged `(terms,
        // symbols)` lengths mean an unchanged store, whose `Arc` is
        // reused.
        let store_key = |st: &TermStore| (st.len(), st.symbols().len());
        let store = if store_key(engine.store()) == store_key(&self.current.store) {
            Arc::clone(&self.current.store)
        } else {
            Arc::new(engine.store().clone())
        };
        let full = &engine.full;
        self.slots.truncate(full.len());
        let mut rels = Vec::with_capacity(full.len());
        for (i, src) in full.iter().enumerate() {
            if i == self.slots.len() {
                self.slots.push(Slot::new(src));
            }
            rels.push(self.slots[i].sync(src));
        }
        // Demand plans are servable only while nothing is waiting to
        // be folded into their spaces; otherwise a plan hit could miss
        // consequences of a fact this epoch is supposed to include.
        let mut plans = FxHashMap::default();
        if engine.demand_space_clean() {
            for (key, answer, magic) in engine.live_plan_triples() {
                plans.insert(key, SnapshotPlan { answer, magic });
            }
        }
        // `Materialized` implies the model holds every fact (a `fact`
        // call it does not already hold flips the state to `Dirty`),
        // so the model relations are the least model as of this epoch.
        let model_servable = engine.state() == EngineState::Materialized;
        let cur = &self.current;
        let unchanged = Arc::ptr_eq(&store, &cur.store)
            && rels.len() == cur.rels.len()
            && rels.iter().zip(&cur.rels).all(|(a, b)| Arc::ptr_eq(a, b))
            && plans == cur.plans
            && model_servable == cur.model_servable
            && *engine.preds() == cur.preds;
        if unchanged {
            return cur.epoch;
        }
        let next = Arc::new(EngineSnapshot {
            epoch: cur.epoch + 1,
            store,
            preds: engine.preds().clone(),
            rels,
            plans,
            model_servable,
        });
        // Only the swap runs under the write lock: the guard is a
        // temporary of this statement, and both of the writer's
        // references to the superseded epoch (`superseded` and
        // `self.current`) are dropped after it is released.
        let superseded = std::mem::replace(
            &mut *self.cell.write().unwrap_or_else(PoisonError::into_inner),
            Arc::clone(&next),
        );
        drop(superseded);
        self.current = next;
        self.current.epoch
    }
}

/// The reader-side handle: clone one per reader thread; each
/// [`SnapshotReader::current`] call takes the shared read lock only
/// long enough to clone the latest published epoch's `Arc`.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    cell: Arc<RwLock<Arc<EngineSnapshot>>>,
}

impl SnapshotReader {
    /// The latest published snapshot. The returned `Arc` pins its
    /// epoch alive for as long as the caller holds it, independent of
    /// later publishes; the read lock is already released.
    pub fn current(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::pattern::{Pattern, VarId};
    use crate::rule::{BodyLit, Rule};

    /// `path` transitive closure over a small chain.
    fn chain_engine(n: i64) -> (Engine, PredId, PredId) {
        let mut e = Engine::new(EvalConfig::default());
        let edge = e.pred("edge", 2);
        let path = e.pred("path", 2);
        let v = |i| Pattern::Var(VarId(i));
        e.rule(Rule {
            head: path,
            head_args: vec![v(0), v(1)],
            group: None,
            outer: vec![BodyLit::Pos(edge, vec![v(0), v(1)])],
            quant: None,
            num_vars: 2,
            var_names: vec!["X".into(), "Y".into()],
            var_sorts: vec![],
        })
        .unwrap();
        e.rule(Rule {
            head: path,
            head_args: vec![v(0), v(2)],
            group: None,
            outer: vec![
                BodyLit::Pos(path, vec![v(0), v(1)]),
                BodyLit::Pos(edge, vec![v(1), v(2)]),
            ],
            quant: None,
            num_vars: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
            var_sorts: vec![],
        })
        .unwrap();
        for i in 0..n {
            let a = e.store_mut().int(i);
            let b = e.store_mut().int(i + 1);
            e.fact(edge, vec![a, b]).unwrap();
        }
        (e, edge, path)
    }

    /// Append the edge `n → n+1` to `chain_engine`'s chain and reconcile.
    fn extend_chain(e: &mut Engine, edge: PredId, n: i64) {
        let a = e.store_mut().int(n);
        let b = e.store_mut().int(n + 1);
        e.fact(edge, vec![a, b]).unwrap();
        e.update().unwrap();
    }

    #[test]
    fn materialized_snapshot_answers_point_queries() {
        let (mut e, _edge, path) = chain_engine(8);
        e.run().unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let reader = publisher.reader();
        let snap = reader.current();
        let zero = snap.store().find_int(0).unwrap();
        let want = e.query(path, &[Some(zero), None]).unwrap().rows.sorted();
        let got = snap.try_query(path, &[Some(zero), None]).unwrap().sorted();
        assert_eq!(got, want);
        assert_eq!(got.len(), 8);
        // All-free scan matches the full extension.
        let all = snap.try_query(path, &[None, None]).unwrap();
        assert_eq!(all.len(), e.rows(path).len());
        // Unknown predicates funnel (writer reports the error).
        assert!(snap.find_pred("nope", 2).is_none());
        let _ = publisher.publish(&mut e);
    }

    #[test]
    fn demand_plan_hits_are_servable_and_new_seeds_funnel() {
        let (mut e, _edge, path) = chain_engine(8);
        // Goal-directed: no materialization, a retained demand plan.
        let three = e.store_mut().int(3);
        let five = e.store_mut().int(5);
        let want = e.query(path, &[Some(three), None]).unwrap();
        assert_eq!(want.path, crate::demand::QueryPath::Demand);
        let mut publisher = SnapshotPublisher::new(&mut e);
        let snap = publisher.reader().current();
        // Seeded constant: pure snapshot read, equal to the engine.
        let got = snap.try_query(path, &[Some(three), None]).unwrap();
        assert_eq!(got.sorted(), want.rows.sorted());
        // New constant under the same adornment: the seed is not in
        // the magic relation — funnel.
        assert!(snap.try_query(path, &[Some(five), None]).is_none());
        // Cold adornment: funnel.
        assert!(snap.try_query(path, &[None, Some(three)]).is_none());
        // After the writer answers the new seed and republishes, the
        // same snapshot read hits.
        let want5 = e.query(path, &[Some(five), None]).unwrap();
        publisher.publish(&mut e);
        let snap2 = publisher.reader().current();
        assert!(snap2.epoch() > snap.epoch());
        let got5 = snap2.try_query(path, &[Some(five), None]).unwrap();
        assert_eq!(got5.sorted(), want5.rows.sorted());
    }

    #[test]
    fn pending_writes_unpublish_plans_until_reconciled() {
        let (mut e, edge, path) = chain_engine(4);
        let zero = e.store_mut().int(0);
        e.query(path, &[Some(zero), None]).unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        assert!(publisher
            .reader()
            .current()
            .try_query(path, &[Some(zero), None])
            .is_some());
        // A fact the plan has not absorbed yet: publishing now must
        // not serve stale plan answers.
        let a = e.store_mut().int(100);
        let b = e.store_mut().int(101);
        e.fact(edge, vec![a, b]).unwrap();
        publisher.publish(&mut e);
        let snap = publisher.reader().current();
        assert!(
            snap.try_query(path, &[Some(zero), None]).is_none(),
            "stale demand space must funnel"
        );
        // The writer reconciles (next query drives the continuation),
        // republishes, and the hit path returns — now including any
        // new consequences.
        let want = e.query(path, &[Some(zero), None]).unwrap();
        publisher.publish(&mut e);
        let snap = publisher.reader().current();
        let got = snap.try_query(path, &[Some(zero), None]).unwrap();
        assert_eq!(got.sorted(), want.rows.sorted());
    }

    #[test]
    fn a_plan_another_query_left_behind_funnels() {
        let (mut e, edge, path) = chain_engine(2);
        let (zero, three) = (e.store_mut().int(0), e.store_mut().int(3));
        let five = e.store_mut().int(5);
        e.query(path, &[None, None]).unwrap();
        // The `bb` query syncs the new edge into `edge` and runs only
        // its own plan: the all-free plan's retained fixpoint is now
        // behind, though still live.
        e.fact(edge, vec![five, five]).unwrap();
        e.query(path, &[Some(zero), Some(three)]).unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let snap = publisher.reader().current();
        assert!(snap.try_query(path, &[Some(zero), Some(three)]).is_some());
        assert!(
            snap.try_query(path, &[None, None]).is_none(),
            "a plan behind the EDB must funnel, not serve stale rows"
        );
        // Its own query brings it level; the next epoch serves it.
        let want = e.query(path, &[None, None]).unwrap().rows.sorted();
        assert!(want.contains(&vec![five, five]));
        publisher.publish(&mut e);
        let snap = publisher.reader().current();
        assert_eq!(snap.try_query(path, &[None, None]).unwrap().sorted(), want);
    }

    #[test]
    fn unchanged_relations_are_shared_across_epochs() {
        let (mut e, _edge, path) = chain_engine(6);
        let mark = e.pred("mark", 1);
        let zero = e.store_mut().int(0);
        e.run().unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let s1 = publisher.reader().current();
        // Touch only `mark`: `path` and the store stay as published.
        e.fact(mark, vec![zero]).unwrap();
        e.update().unwrap();
        publisher.publish(&mut e);
        let s2 = publisher.reader().current();
        assert!(s2.epoch() > s1.epoch());
        let i = path.index();
        assert!(
            Arc::ptr_eq(&s1.rels[i], &s2.rels[i]),
            "untouched relations must be shared, not re-cloned"
        );
        assert!(!Arc::ptr_eq(&s1.rels[mark.index()], &s2.rels[mark.index()]));
        assert!(
            Arc::ptr_eq(&s1.store, &s2.store),
            "unchanged store is shared"
        );
        // Old epochs stay fully readable while held.
        assert_eq!(
            s1.try_query(path, &[Some(zero), None]).unwrap().len(),
            s2.try_query(path, &[Some(zero), None]).unwrap().len()
        );
        assert!(s1.try_query(mark, &[None]).unwrap().is_empty());
        assert_eq!(s2.try_query(mark, &[None]).unwrap().len(), 1);
    }

    #[test]
    fn publishing_an_unchanged_engine_mints_no_epoch() {
        let (mut e, edge, path) = chain_engine(4);
        let zero = e.store_mut().int(0);
        e.query(path, &[Some(zero), None]).unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let s1 = publisher.reader().current();
        // A repeat query and a duplicate fact change nothing a
        // snapshot holds.
        e.query(path, &[Some(zero), None]).unwrap();
        let one = e.store_mut().int(1);
        e.fact(edge, vec![zero, one]).unwrap();
        assert_eq!(publisher.publish(&mut e), s1.epoch());
        assert!(Arc::ptr_eq(&s1, &publisher.reader().current()));
        // A new seed does.
        let two = e.store_mut().int(2);
        e.query(path, &[Some(two), None]).unwrap();
        assert_eq!(publisher.publish(&mut e), s1.epoch() + 1);
    }

    #[test]
    fn superseded_epochs_are_freed_once_no_reader_holds_them() {
        let (mut e, edge, path) = chain_engine(4);
        e.run().unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let reader = publisher.reader();
        let zero = e.store_mut().int(0);
        let rows_from_zero = |s: &EngineSnapshot| s.try_query(path, &[Some(zero), None]).unwrap();
        let pinned = reader.current();
        let pinned_rows = rows_from_zero(&pinned).sorted();
        let pinned_weak = Arc::downgrade(&pinned);
        let mut unpinned = Vec::new();
        for n in 4..8 {
            extend_chain(&mut e, edge, n);
            publisher.publish(&mut e);
            unpinned.push(Arc::downgrade(&reader.current()));
        }
        // Every unpinned epoch but the current one was freed by the
        // publish that superseded it.
        let (current, superseded) = unpinned.split_last().unwrap();
        assert!(superseded.iter().all(|w| w.upgrade().is_none()));
        assert_eq!(current.upgrade().unwrap().epoch(), publisher.epoch());
        // The pinned epoch outlived four publishes and answers as it did.
        assert!(pinned.epoch() < publisher.epoch());
        assert_eq!(rows_from_zero(&pinned).sorted(), pinned_rows);
        assert_eq!(
            rows_from_zero(&reader.current()).len(),
            pinned_rows.len() + 4
        );
        // Dropping the last pin frees it; the next publish frees the
        // epoch that was current.
        drop(pinned);
        assert!(pinned_weak.upgrade().is_none());
        extend_chain(&mut e, edge, 8);
        publisher.publish(&mut e);
        assert!(current.upgrade().is_none());
    }

    /// The published relation of `pred` equals a fresh clone of the
    /// engine's: rows in order, index masks in order.
    fn assert_published_equals_clone(snap: &EngineSnapshot, e: &Engine, pred: PredId) {
        let want = e.relation(pred).clone();
        let got = snap.relation(pred).unwrap();
        assert!(got.iter().eq(want.iter()), "rows differ from a clone");
        assert!(
            got.index_masks().eq(want.index_masks()),
            "index masks differ from a clone"
        );
    }

    #[test]
    fn appends_alternate_between_two_buffers_and_pinned_spares_are_cloned() {
        let (mut e, edge, path) = chain_engine(4);
        e.run().unwrap();
        let mut publisher = SnapshotPublisher::new(&mut e);
        let mut next = 4;
        // Append one edge (so `path` grows by a tail), reconcile,
        // publish; return the identity of the published `path` buffer
        // (process-unique per relation object, fresh on every clone).
        // Identities, not `Arc`s: holding an epoch would pin its buffer.
        let mut step = |e: &mut Engine, publisher: &mut SnapshotPublisher| {
            extend_chain(e, edge, next);
            next += 1;
            publisher.publish(e);
            let snap = publisher.reader().current();
            assert_published_equals_clone(&snap, e, path);
            assert_published_equals_clone(&snap, e, edge);
            snap.relation(path).unwrap().fingerprint().0
        };
        let mut ids: Vec<u64> = (0..6).map(|_| step(&mut e, &mut publisher)).collect();
        // After warm-up (the first publish clones, the second clones
        // and keeps the first as its spare) every publish grows the
        // buffer of the epoch two back.
        for k in 2..ids.len() {
            assert_eq!(ids[k], ids[k - 2], "publish {k} reuses the spare");
            assert_ne!(ids[k], ids[k - 1], "publish {k} swaps buffers");
        }
        // Pin the current epoch: its buffer is the spare two publishes
        // on, so that publish must clone instead of growing it.
        let pinned = publisher.reader().current();
        let pinned_rows: Vec<Vec<TermId>> = pinned
            .relation(path)
            .unwrap()
            .iter()
            .map(<[TermId]>::to_vec)
            .collect();
        ids.push(step(&mut e, &mut publisher));
        ids.push(step(&mut e, &mut publisher));
        let n = ids.len();
        let pinned_id = pinned.relation(path).unwrap().fingerprint().0;
        assert_eq!(pinned_id, ids[n - 3]);
        assert_ne!(ids[n - 1], pinned_id, "a pinned spare is never grown");
        assert_ne!(ids[n - 1], ids[n - 2]);
        // The pinned epoch is unchanged and still answers.
        let got: Vec<Vec<TermId>> = pinned
            .relation(path)
            .unwrap()
            .iter()
            .map(<[TermId]>::to_vec)
            .collect();
        assert_eq!(got, pinned_rows);
        let zero = pinned.store().find_int(0).unwrap();
        let before = pinned.try_query(path, &[Some(zero), None]).unwrap().len();
        assert_eq!(before, pinned_rows.iter().filter(|r| r[0] == zero).count());
        drop(pinned);
        // Released: the pair re-forms from the clone and its spare.
        ids.push(step(&mut e, &mut publisher));
        ids.push(step(&mut e, &mut publisher));
        let n = ids.len();
        assert_eq!(ids[n - 1], ids[n - 3]);
        assert_eq!(ids[n - 2], ids[n - 4]);
    }
}
