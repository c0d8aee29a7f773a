//! The one interning table: open addressing over dense `u32` ids.
//!
//! Every interned key of the workspace — a term of a
//! [`crate::TermStore`], a name of a [`crate::SymbolTable`], a row or
//! an index bucket of an engine relation — is stored once, in its
//! owner's flat arena, and numbered `0, 1, 2, …` in insertion order.
//! An [`IdTable`] holds only those numbers. It never sees a key: a
//! probe brings the key's hash and an equality test that compares a
//! candidate id's key in place in the arena, and growth rehashes the
//! ids through the owner's hash function.
//!
//! Ids enter in order, and linear probing places each id past older
//! ids only, so vacating the newest id first leaves every remaining
//! probe path intact. [`IdTable::truncate`] relies on that: it is the
//! rollback of a store and the sparse clear of a relation.

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;

/// The first capacity a table grows to (a power of two).
const INITIAL_CAP: usize = 8;

/// An open-addressing hash table of the ids `0..len()`, whose keys
/// live in the caller's arena.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// Ids, or [`EMPTY`]; the length is zero or a power of two, and at
    /// most 7/8 of the slots are taken.
    slots: Box<[u32]>,
    len: usize,
}

impl IdTable {
    /// Number of ids held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id whose key `eq` accepts, probing from `hash`.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        Some(self.slots[self.slot(hash, eq)]).filter(|&id| id != EMPTY)
    }

    /// The id whose key `eq` accepts as a one-element slice of the
    /// table itself, or `&[]`: a caller that hands out id lists can
    /// answer a unique-key probe without a list of its own.
    #[inline]
    pub fn find_slice(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> &[u32] {
        if self.slots.is_empty() {
            return &[];
        }
        let i = self.slot(hash, eq);
        if self.slots[i] == EMPTY {
            &[]
        } else {
            &self.slots[i..=i]
        }
    }

    /// `Ok` with the id whose key `eq` accepts, or else `Err` with the
    /// next id, `len()`, now held under `hash`: the caller appends its
    /// key to the arena. `hash_of` rehashes the held ids if the table
    /// grows first.
    #[inline]
    pub fn find_or_insert(
        &mut self,
        hash: u64,
        eq: impl FnMut(u32) -> bool,
        hash_of: impl FnMut(u32) -> u64,
    ) -> Result<u32, u32> {
        self.reserve(1, hash_of);
        let i = self.slot(hash, eq);
        if self.slots[i] != EMPTY {
            return Ok(self.slots[i]);
        }
        assert!(self.len < EMPTY as usize, "id table overflow");
        self.slots[i] = self.len as u32;
        self.len += 1;
        Err(self.slots[i])
    }

    /// Grow, rehashing the held ids in id order through `hash_of`, so
    /// that `additional` more ids fit.
    pub fn reserve(&mut self, additional: usize, mut hash_of: impl FnMut(u32) -> u64) {
        let needed = self.len + additional;
        if needed * 8 <= self.slots.len() * 7 {
            return;
        }
        let mut cap = self.slots.len().max(INITIAL_CAP);
        while needed * 8 > cap * 7 {
            cap *= 2;
        }
        self.slots = vec![EMPTY; cap].into_boxed_slice();
        for id in 0..self.len as u32 {
            // Held ids are distinct: only an empty slot matches.
            let i = self.slot(hash_of(id), |_| false);
            self.slots[i] = id;
        }
    }

    /// Forget every id from `len` on, newest first, each found again
    /// through `hash_of`, so the caller must still hold their keys. A
    /// table emptied while a quarter or more of its slots are taken is
    /// wiped by `fill` instead. Capacity is kept.
    pub fn truncate(&mut self, len: usize, mut hash_of: impl FnMut(u32) -> u64) {
        if len == 0 && self.len * 4 >= self.slots.len() {
            self.slots.fill(EMPTY);
            self.len = 0;
        }
        while self.len > len {
            let id = (self.len - 1) as u32;
            let i = self.slot(hash_of(id), |s| s == id);
            self.slots[i] = EMPTY;
            self.len -= 1;
        }
    }

    /// The first slot from `hash`'s home slot on that is empty or holds
    /// an id `eq` accepts. Needs a nonempty table, which always has an
    /// empty slot. The home slot is the hash's low bits, so a rehash
    /// needs only the low half of a key's hash.
    #[inline]
    fn slot(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let s = self.slots[i];
            if s == EMPTY || eq(s) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys are the ids' own values, hashed badly on purpose so that
    /// probe paths collide and cross.
    fn hash(key: u32) -> u64 {
        u64::from(key % 5)
    }

    #[test]
    fn finds_inserts_and_truncates_newest_first() {
        let keys: Vec<u32> = (0..100).map(|k| k * 7).collect();
        let mut t = IdTable::default();
        assert_eq!(t.find(0, |_| true), None);
        for (id, &k) in keys.iter().enumerate() {
            let held = |i: u32| keys[i as usize] == k;
            let hash_of = |i: u32| hash(keys[i as usize]);
            assert_eq!(t.find_or_insert(hash(k), held, hash_of), Err(id as u32));
            assert_eq!(t.find_or_insert(hash(k), held, hash_of), Ok(id as u32));
        }
        assert_eq!(t.len(), 100);
        t.truncate(40, |i| hash(keys[i as usize]));
        assert_eq!(t.len(), 40);
        for (id, &k) in keys.iter().enumerate() {
            let found = t.find(hash(k), |i| keys[i as usize] == k);
            assert_eq!(found, (id < 40).then_some(id as u32));
        }
        for (id, &k) in keys.iter().enumerate().take(50) {
            let found = t.find_slice(hash(k), |i| keys[i as usize] == k);
            let want: &[u32] = if id < 40 { &[id as u32] } else { &[] };
            assert_eq!(found, want);
        }
        t.truncate(0, |i| hash(keys[i as usize]));
        assert!(t.is_empty());
        assert!(t.find_slice(hash(0), |_| true).is_empty());
        assert_eq!(t.find(hash(0), |_| true), None);
    }
}
