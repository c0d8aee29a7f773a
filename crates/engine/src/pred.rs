//! Predicate identifiers and the predicate registry.

use lps_term::{FxHashMap, Symbol};

/// Identifier of a registered predicate (name + arity pair).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PredId(u32);

impl PredId {
    /// Raw index into the registry.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a predicate id from a raw index previously obtained from
    /// [`PredId::index`]. The caller must ensure it came from the same
    /// registry.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        PredId(u32::try_from(index).expect("predicate registry overflow"))
    }
}

/// Metadata for one predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PredInfo {
    /// Interned name.
    pub name: Symbol,
    /// Number of arguments.
    pub arity: usize,
}

/// Registry mapping `(name, arity)` to [`PredId`].
///
/// Predicates are identified by name *and* arity, so `p/1` and `p/2`
/// are distinct — matching standard logic-programming convention.
///
/// Slots are recyclable: [`PredRegistry::release`] returns an id's
/// slot to a free list, and the next [`PredRegistry::register`] of a
/// *new* key reuses it instead of growing the table. The engine
/// releases the demand-internal (adorned/magic/shape) predicates of
/// evicted query plans this way, so a long-lived session's registry —
/// and the positional relation vectors sized from it — stay bounded
/// by the live plans rather than by every adornment ever queried.
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct PredRegistry {
    preds: Vec<PredInfo>,
    by_key: FxHashMap<(Symbol, usize), PredId>,
    /// Released slot indices, reused LIFO by [`PredRegistry::register`].
    free: Vec<u32>,
}

impl PredRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a predicate. New keys fill a released
    /// slot when one is available.
    pub fn register(&mut self, name: Symbol, arity: usize) -> PredId {
        if let Some(&id) = self.by_key.get(&(name, arity)) {
            return id;
        }
        let id = match self.free.pop() {
            Some(slot) => {
                self.preds[slot as usize] = PredInfo { name, arity };
                PredId(slot)
            }
            None => {
                let id = PredId::from_index(self.preds.len());
                self.preds.push(PredInfo { name, arity });
                id
            }
        };
        self.by_key.insert((name, arity), id);
        id
    }

    /// Return `id`'s slot to the free list and forget its `(name,
    /// arity)` mapping, so a later [`PredRegistry::register`] of a new
    /// key may reuse the slot (and with it the positional relation
    /// storage the caller keyed by [`PredId::index`]). The caller must
    /// ensure nothing still refers to `id`; releasing twice is a bug.
    pub fn release(&mut self, id: PredId) {
        debug_assert!(!self.free.contains(&id.0), "predicate slot released twice");
        let info = &self.preds[id.index()];
        if self.by_key.get(&(info.name, info.arity)) == Some(&id) {
            self.by_key.remove(&(info.name, info.arity));
        }
        self.free.push(id.0);
    }

    /// Number of currently released (reusable) slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Look up a predicate without registering it.
    pub fn get(&self, name: Symbol, arity: usize) -> Option<PredId> {
        self.by_key.get(&(name, arity)).copied()
    }

    /// Metadata for `id`.
    pub fn info(&self, id: PredId) -> &PredInfo {
        &self.preds[id.index()]
    }

    /// Number of predicate slots (including released ones — this is
    /// the bound for positional storage indexed by [`PredId::index`]).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Iterate over all predicate ids.
    pub fn ids(&self) -> impl Iterator<Item = PredId> {
        (0..self.preds.len()).map(PredId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_term::SymbolTable;

    #[test]
    fn register_is_idempotent() {
        let mut syms = SymbolTable::new();
        let p = syms.intern("p");
        let mut reg = PredRegistry::new();
        let id1 = reg.register(p, 2);
        let id2 = reg.register(p, 2);
        assert_eq!(id1, id2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn arity_disambiguates() {
        let mut syms = SymbolTable::new();
        let p = syms.intern("p");
        let mut reg = PredRegistry::new();
        let p1 = reg.register(p, 1);
        let p2 = reg.register(p, 2);
        assert_ne!(p1, p2);
        assert_eq!(reg.info(p1).arity, 1);
        assert_eq!(reg.info(p2).arity, 2);
    }

    #[test]
    fn get_does_not_register() {
        let mut syms = SymbolTable::new();
        let p = syms.intern("p");
        let reg = PredRegistry::new();
        assert_eq!(reg.get(p, 1), None);
    }

    #[test]
    fn release_recycles_the_slot() {
        let mut syms = SymbolTable::new();
        let p = syms.intern("p");
        let q = syms.intern("q");
        let r = syms.intern("r");
        let mut reg = PredRegistry::new();
        let pid = reg.register(p, 1);
        let qid = reg.register(q, 2);
        assert_eq!(reg.len(), 2);

        reg.release(qid);
        assert_eq!(reg.get(q, 2), None, "released key is forgotten");
        assert_eq!(reg.free_slots(), 1);
        assert_eq!(reg.len(), 2, "positional storage bound is unchanged");

        // A new key reuses the released slot instead of growing.
        let rid = reg.register(r, 3);
        assert_eq!(rid.index(), qid.index(), "slot is recycled");
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.free_slots(), 0);
        assert_eq!(reg.info(rid).arity, 3);

        // Existing keys are untouched, and re-registering the released
        // key allocates afresh (append, nothing free).
        assert_eq!(reg.get(p, 1), Some(pid));
        let qid2 = reg.register(q, 2);
        assert_ne!(qid2.index(), qid.index());
        assert_eq!(reg.len(), 3);
    }
}
