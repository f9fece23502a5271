//! Owner-level change batches between index epochs.
//!
//! ε-PPI as published is deliberately static: re-randomizing the
//! publication coins on every refresh hands an archiving attacker the
//! intersection attack of §III-C (decoys survive `k` independent
//! epochs with probability `β^k`). The epoch lifecycle makes refresh
//! safe *by construction* instead of by abstinence: an [`IndexDelta`]
//! names exactly the owner columns whose content (or ε) changed, the
//! protocol layer re-runs the secure stages over only those columns,
//! and the deterministic publication coins of [`crate::publish`] keep
//! every untouched cell bit-identical across epochs — intersecting two
//! epochs then reveals nothing a single epoch didn't already.
//!
//! The model is provider-agnostic on purpose: a column is re-published
//! wholesale whenever *any* provider's bit for that owner changed, so a
//! delta is just `{owner, kind, ε}` triples plus the owner-count pair
//! it bridges.

use crate::error::EppiError;
use crate::model::{Epsilon, OwnerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why an owner column appears in a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnChange {
    /// The owner is new: its column index is `>= base_owners`.
    Added,
    /// An existing owner's membership (some provider bit) or ε changed.
    Changed,
    /// The owner withdrew everywhere; the column is now all-zero (its
    /// slot is kept — owner ids are never reused).
    Withdrawn,
}

/// One owner column scheduled for re-construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaEntry {
    /// The owner whose column changed.
    pub owner: OwnerId,
    /// What happened to the column.
    pub change: ColumnChange,
    /// The ε the column is (re-)published under.
    pub epsilon: Epsilon,
}

/// A batch of owner-column changes bridging two epochs: the previous
/// epoch had `base_owners` columns, the next has `owners ≥ base_owners`
/// (owner ids are append-only). Entries are kept sorted and unique per
/// owner; recording the same owner twice keeps the latest entry, except
/// that a column added within the batch stays `Added` however often it
/// is touched afterwards.
///
/// Invariant: `change == Added ⇔ owner.index() >= base_owners`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexDelta {
    base_owners: usize,
    owners: usize,
    entries: BTreeMap<OwnerId, DeltaEntry>,
}

impl IndexDelta {
    /// Starts an empty delta on top of an epoch with `base_owners`
    /// columns.
    pub fn new(base_owners: usize) -> Self {
        IndexDelta {
            base_owners,
            owners: base_owners,
            entries: BTreeMap::new(),
        }
    }

    /// Records one owner-column change.
    ///
    /// # Panics
    ///
    /// Panics where [`IndexDelta::try_record`] errs — for callers whose
    /// entries are correct by construction.
    pub fn record(&mut self, entry: DeltaEntry) {
        self.try_record(entry)
            .expect("entry violates the delta invariants");
    }

    /// Records one owner-column change, or leaves the delta untouched
    /// and says which invariant the entry breaks — the form for entries
    /// read from outside the program (the WAL decoder).
    ///
    /// # Errors
    ///
    /// [`EppiError::InvalidDelta`] if the entry violates the
    /// `Added ⇔ new column` invariant or if an added column would leave
    /// a gap above the current owner count (columns must be appended
    /// densely).
    pub fn try_record(&mut self, entry: DeltaEntry) -> Result<(), EppiError> {
        let idx = entry.owner.index();
        if idx >= self.base_owners {
            if idx > self.owners {
                return Err(EppiError::InvalidDelta {
                    what: "added owner would leave a gap above the owner count",
                });
            }
            self.owners = self.owners.max(idx + 1);
            // A column born in this batch is Added for the whole batch,
            // whatever happens to it afterwards.
            self.entries.insert(
                entry.owner,
                DeltaEntry {
                    change: ColumnChange::Added,
                    ..entry
                },
            );
        } else {
            if entry.change == ColumnChange::Added {
                return Err(EppiError::InvalidDelta {
                    what: "owner predates the base epoch but is marked Added",
                });
            }
            self.entries.insert(entry.owner, entry);
        }
        Ok(())
    }

    /// Owner count of the epoch this delta builds on.
    pub fn base_owners(&self) -> usize {
        self.base_owners
    }

    /// Owner count of the epoch this delta produces.
    pub fn owners(&self) -> usize {
        self.owners
    }

    /// `true` if the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of touched columns `k` — the unit of work of a delta
    /// construction.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entries in owner order.
    pub fn entries(&self) -> impl Iterator<Item = &DeltaEntry> {
        self.entries.values()
    }

    /// The touched owner ids in ascending order.
    pub fn touched(&self) -> Vec<OwnerId> {
        self.entries.keys().copied().collect()
    }

    /// `true` if `owner`'s column is re-constructed by this delta.
    pub fn contains(&self, owner: OwnerId) -> bool {
        self.entries.contains_key(&owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn records_are_deduped_and_sorted() {
        let mut d = IndexDelta::new(4);
        d.record(DeltaEntry {
            owner: OwnerId(2),
            change: ColumnChange::Changed,
            epsilon: e(0.5),
        });
        d.record(DeltaEntry {
            owner: OwnerId(0),
            change: ColumnChange::Withdrawn,
            epsilon: e(0.0),
        });
        d.record(DeltaEntry {
            owner: OwnerId(2),
            change: ColumnChange::Changed,
            epsilon: e(0.9),
        });
        assert_eq!(d.len(), 2);
        assert_eq!(d.touched(), vec![OwnerId(0), OwnerId(2)]);
        let last = d.entries().find(|en| en.owner == OwnerId(2)).unwrap();
        assert_eq!(last.epsilon, e(0.9), "latest entry wins");
        assert_eq!(d.owners(), 4, "no growth without added columns");
    }

    #[test]
    fn added_columns_grow_the_owner_count_and_stay_added() {
        let mut d = IndexDelta::new(3);
        d.record(DeltaEntry {
            owner: OwnerId(3),
            change: ColumnChange::Added,
            epsilon: e(0.2),
        });
        d.record(DeltaEntry {
            owner: OwnerId(4),
            change: ColumnChange::Changed, // normalized to Added
            epsilon: e(0.3),
        });
        // Re-touching an added column keeps it Added.
        d.record(DeltaEntry {
            owner: OwnerId(3),
            change: ColumnChange::Withdrawn,
            epsilon: e(0.2),
        });
        assert_eq!(d.owners(), 5);
        assert!(d
            .entries()
            .all(|en| en.change == ColumnChange::Added && en.owner.index() >= d.base_owners()));
    }

    #[test]
    #[should_panic(expected = "leave a gap")]
    fn sparse_additions_are_rejected() {
        let mut d = IndexDelta::new(2);
        d.record(DeltaEntry {
            owner: OwnerId(5),
            change: ColumnChange::Added,
            epsilon: e(0.1),
        });
    }

    #[test]
    #[should_panic(expected = "marked Added")]
    fn added_below_base_is_rejected() {
        let mut d = IndexDelta::new(2);
        d.record(DeltaEntry {
            owner: OwnerId(1),
            change: ColumnChange::Added,
            epsilon: e(0.1),
        });
    }
}
