//! Provider-side record repositories.
//!
//! Each provider keeps an access-controlled local store of the personal
//! records delegated to it (§II-A: `Delegate(⟨t_j, ε_j⟩, p_i)`). The
//! stores are the ground truth that the second search phase
//! (`AuthSearch`) queries after the locator service has produced its
//! candidate provider list.

use eppi_core::model::{OwnerId, ProviderId};
use std::collections::{BTreeSet, HashMap};

/// One personal record delegated by an owner to a provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The owner the record belongs to.
    pub owner: OwnerId,
    /// Opaque record payload (e.g. an encounter summary in the HIE
    /// example).
    pub payload: String,
}

/// A provider's local, access-controlled record repository.
#[derive(Debug, Clone)]
pub struct LocalStore {
    provider: ProviderId,
    records: HashMap<OwnerId, Vec<Record>>,
    /// Owners whose local membership bit may have flipped since the
    /// last time the delta was drained — the provider-side half of the
    /// epoch lifecycle's change batch (DESIGN.md §10).
    dirty: BTreeSet<OwnerId>,
}

impl LocalStore {
    /// Creates an empty store for `provider`.
    pub fn new(provider: ProviderId) -> Self {
        LocalStore {
            provider,
            records: HashMap::new(),
            dirty: BTreeSet::new(),
        }
    }

    /// The provider owning this store.
    pub fn provider(&self) -> ProviderId {
        self.provider
    }

    /// The provider's half of the `Delegate` operation: stores a record
    /// for `owner`. The owner's privacy degree is the construction's
    /// input, not the store's (`InformationNetwork::delegate` keeps it).
    pub fn delegate(&mut self, owner: OwnerId, payload: impl Into<String>) {
        self.records.entry(owner).or_default().push(Record {
            owner,
            payload: payload.into(),
        });
        self.dirty.insert(owner);
    }

    /// Withdraws all of `owner`'s records (e.g. the owner revokes the
    /// delegation or transfers care). Returns how many records were
    /// removed.
    pub fn withdraw(&mut self, owner: OwnerId) -> usize {
        let removed = self.records.remove(&owner).map_or(0, |r| r.len());
        if removed > 0 {
            self.dirty.insert(owner);
        }
        removed
    }

    /// Whether the store holds any records of `owner` (the provider's
    /// membership bit `M(i, j)`).
    pub fn holds(&self, owner: OwnerId) -> bool {
        self.records.contains_key(&owner)
    }

    /// Local search for an owner's records (only reachable after
    /// authorization).
    pub fn search(&self, owner: OwnerId) -> &[Record] {
        self.records.get(&owner).map_or(&[], Vec::as_slice)
    }

    /// The owners with records here.
    pub fn owners(&self) -> impl Iterator<Item = OwnerId> + '_ {
        self.records.keys().copied()
    }

    /// Total number of records stored.
    pub fn len(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The owners touched (delegated to or withdrawn from) since the
    /// dirty set was last drained, in ascending order.
    pub fn dirty_owners(&self) -> impl Iterator<Item = OwnerId> + '_ {
        self.dirty.iter().copied()
    }

    /// Drains and returns the dirty set (ascending) — called when the
    /// change batch is folded into a constructed index.
    pub fn take_dirty(&mut self) -> Vec<OwnerId> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn withdraw_removes_all_records() {
        let mut s = LocalStore::new(ProviderId(1));
        s.delegate(OwnerId(4), "a");
        s.delegate(OwnerId(4), "b");
        assert_eq!(s.withdraw(OwnerId(4)), 2);
        assert!(!s.holds(OwnerId(4)));
        assert_eq!(s.withdraw(OwnerId(4)), 0, "idempotent");
    }

    #[test]
    fn delegate_and_search() {
        let mut s = LocalStore::new(ProviderId(3));
        assert!(s.is_empty());
        s.delegate(OwnerId(1), "visit 2026-01-02");
        s.delegate(OwnerId(1), "visit 2026-03-04");
        s.delegate(OwnerId(2), "lab result");
        assert_eq!(s.len(), 3);
        assert!(s.holds(OwnerId(1)));
        assert!(!s.holds(OwnerId(7)));
        assert_eq!(s.search(OwnerId(1)).len(), 2);
        assert_eq!(s.search(OwnerId(7)), &[]);
        let mut owners: Vec<_> = s.owners().collect();
        owners.sort();
        assert_eq!(owners, vec![OwnerId(1), OwnerId(2)]);
    }

    #[test]
    fn dirty_tracking_records_touched_owners() {
        let mut s = LocalStore::new(ProviderId(0));
        assert_eq!(s.dirty_owners().count(), 0);
        s.delegate(OwnerId(3), "a");
        s.delegate(OwnerId(1), "b");
        s.delegate(OwnerId(3), "c");
        assert_eq!(
            s.dirty_owners().collect::<Vec<_>>(),
            vec![OwnerId(1), OwnerId(3)]
        );
        assert_eq!(s.take_dirty(), vec![OwnerId(1), OwnerId(3)]);
        // A no-op withdraw doesn't resurrect the dirty bit…
        assert_eq!(s.withdraw(OwnerId(9)), 0);
        assert_eq!(s.dirty_owners().count(), 0);
        // …but a real withdrawal does.
        assert_eq!(s.withdraw(OwnerId(1)), 1);
        assert_eq!(s.take_dirty(), vec![OwnerId(1)]);
    }
}
