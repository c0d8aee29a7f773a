//! Ground facts as flat per-predicate rows: the bulk form a session's
//! EDB is seeded from ([`crate::Engine::load_batch`]), with no `Vec`
//! per row.

use lps_term::{FxHashMap, Symbol, TermId};

/// Ground facts interned in one store, as flat rows per predicate.
#[derive(Clone, Debug, Default)]
pub struct FactBatch {
    preds: Vec<BatchPred>,
    index: FxHashMap<(Symbol, usize), usize>,
}

/// One predicate's rows in a [`FactBatch`].
#[derive(Clone, Debug)]
pub struct BatchPred {
    /// Predicate name, interned in the batch's store.
    pub name: Symbol,
    /// Arguments per row.
    pub arity: usize,
    ids: Vec<TermId>,
    len: usize,
}

impl BatchPred {
    /// Number of rows, duplicates included.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the predicate has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in load order, `arity` ids each.
    pub fn rows(&self) -> impl Iterator<Item = &[TermId]> {
        (0..self.len).map(move |i| &self.ids[i * self.arity..(i + 1) * self.arity])
    }
}

impl FactBatch {
    /// The predicates, in the order their first row arrived.
    pub fn preds(&self) -> &[BatchPred] {
        &self.preds
    }

    /// The position of `name/arity` in [`FactBatch::preds`], added
    /// with no rows on first use.
    pub fn slot(&mut self, name: Symbol, arity: usize) -> usize {
        let next = self.preds.len();
        let slot = *self.index.entry((name, arity)).or_insert(next);
        if slot == next {
            self.preds.push(BatchPred {
                name,
                arity,
                ids: Vec::new(),
                len: 0,
            });
        }
        slot
    }

    /// Append one row, `arity` ids long, to the predicate at `slot`.
    pub fn push(&mut self, slot: usize, row: &[TermId]) {
        let pred = &mut self.preds[slot];
        debug_assert_eq!(row.len(), pred.arity);
        pred.ids.extend_from_slice(row);
        pred.len += 1;
    }

    /// The slot of `name/arity`, if it has one.
    pub fn find(&self, name: Symbol, arity: usize) -> Option<usize> {
        self.index.get(&(name, arity)).copied()
    }

    /// The row count of every predicate, to [`FactBatch::truncate`]
    /// back to.
    pub fn mark(&self) -> Vec<usize> {
        self.preds.iter().map(BatchPred::len).collect()
    }

    /// Drop every row, and every predicate, added since `mark`.
    pub fn truncate(&mut self, mark: &[usize]) {
        for p in self.preds.drain(mark.len()..) {
            self.index.remove(&(p.name, p.arity));
        }
        for (p, &len) in self.preds.iter_mut().zip(mark) {
            p.ids.truncate(len * p.arity);
            p.len = len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lps_term::TermStore;

    #[test]
    fn rows_keep_load_order_and_truncate_to_a_mark() {
        let mut st = TermStore::new();
        let (p, q) = (st.symbols_mut().intern("p"), st.symbols_mut().intern("q"));
        let (a, b) = (st.atom("a"), st.atom("b"));
        let mut batch = FactBatch::default();
        let sp = batch.slot(p, 2);
        batch.push(sp, &[a, b]);
        let sq = batch.slot(q, 0);
        batch.push(sq, &[]);
        batch.push(sq, &[]);
        assert_eq!(batch.slot(p, 2), sp);
        batch.push(sp, &[b, a]);
        let rows: Vec<&[TermId]> = batch.preds()[sp].rows().collect();
        assert_eq!(rows, vec![&[a, b][..], &[b, a][..]]);
        assert_eq!(batch.preds()[sq].rows().count(), 2);

        let mark = batch.mark();
        let s = batch.slot(p, 1);
        batch.push(s, &[a]);
        batch.push(sq, &[]);
        assert_eq!(batch.find(p, 1), Some(2));
        batch.truncate(&mark);
        assert_eq!(batch.find(p, 1), None);
        assert_eq!(batch.preds().len(), 2);
        assert_eq!(batch.preds()[sq].len(), 2);
        assert_eq!(batch.preds()[sp].rows().count(), 2);
        assert_eq!(batch.slot(p, 1), 2, "a truncated slot is reused");
    }
}
