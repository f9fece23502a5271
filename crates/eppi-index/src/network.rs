//! The information network as one object: the paper's four operations.
//!
//! §II-A formulates the system through exactly four interactions —
//! [`delegate`](InformationNetwork::delegate) (`Delegate(⟨t_j, ε_j⟩, p_i)`),
//! [`construct_ppi`](InformationNetwork::construct_ppi) (`ConstructPPI({ε_j})`),
//! [`query_ppi`](InformationNetwork::query_ppi) (`QueryPPI(t_j) → {p_i}`) and
//! [`auth_search`](InformationNetwork::auth_search) (`AuthSearch(s, {p_i}, t_j)`).
//! This module packages them over the provider endpoints, tracking
//! staleness: delegations after the last construction are not visible in
//! the index until `ConstructPPI` runs again. Between constructions the
//! network aggregates the providers' per-store dirty sets into an
//! [`IndexDelta`] via
//! [`pending_delta`](InformationNetwork::pending_delta), feeding the
//! epoch lifecycle (`eppi-protocol::epoch`) that refreshes only the
//! changed columns without reopening the re-publication attack of
//! `eppi-attacks::refresh`.
//!
//! Construction here uses the trusted in-memory constructor; production
//! deployments run the trusted-party-free protocol from `eppi-protocol`
//! and install its (statistically identical) output via
//! [`install_index`](InformationNetwork::install_index).

use crate::access::{AccessPolicy, SearcherId};
use crate::search::{LocatorService, ProviderEndpoint, SearchOutcome};
use crate::server::PpiServer;
use crate::store::LocalStore;
use eppi_core::construct::{construct, ConstructionConfig};
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::error::EppiError;
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use rand::Rng;
use std::collections::{BTreeSet, HashMap};

/// A whole information network: providers, delegated records, and the
/// (possibly stale) published index.
#[derive(Debug)]
pub struct InformationNetwork {
    endpoints: Vec<ProviderEndpoint>,
    epsilons: HashMap<OwnerId, Epsilon>,
    index: Option<PublishedIndex>,
    /// Owner count covered by the currently installed index — the base
    /// of the next [`pending_delta`](Self::pending_delta).
    indexed_owners: usize,
    dirty: bool,
}

impl InformationNetwork {
    /// Creates a network of `providers` providers with open admission
    /// policies and the default construction configuration.
    ///
    /// # Panics
    ///
    /// Panics if `providers == 0`.
    pub fn new(providers: usize) -> Self {
        assert!(providers >= 1, "at least one provider required");
        InformationNetwork {
            endpoints: (0..providers)
                .map(|i| ProviderEndpoint {
                    store: LocalStore::new(ProviderId(i as u32)),
                    policy: AccessPolicy::Open,
                })
                .collect(),
            epsilons: HashMap::new(),
            index: None,
            indexed_owners: 0,
            dirty: false,
        }
    }

    /// Number of providers `m`.
    pub fn providers(&self) -> usize {
        self.endpoints.len()
    }

    /// One provider's endpoint (store + policy).
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn endpoint(&self, provider: ProviderId) -> &ProviderEndpoint {
        &self.endpoints[provider.index()]
    }

    /// Number of distinct owners seen so far.
    pub fn owners(&self) -> usize {
        self.epsilons
            .keys()
            .map(|o| o.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The paper's `Delegate(⟨t_j, ε_j⟩, p_i)`: stores a record for
    /// `owner` at `provider` with the owner's privacy degree. A later
    /// delegation may raise or lower the owner's ε; the latest value
    /// wins at the next construction.
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn delegate(
        &mut self,
        owner: OwnerId,
        eps: Epsilon,
        provider: ProviderId,
        payload: impl Into<String>,
    ) {
        self.endpoints[provider.index()]
            .store
            .delegate(owner, payload);
        self.epsilons.insert(owner, eps);
        self.dirty = true;
    }

    /// Withdraws `owner`'s records from `provider` (the inverse of
    /// `Delegate`). The index becomes stale, and the owner's column
    /// enters the next [`pending_delta`](Self::pending_delta).
    ///
    /// # Panics
    ///
    /// Panics if `provider` is out of range.
    pub fn withdraw(&mut self, owner: OwnerId, provider: ProviderId) -> usize {
        let removed = self.endpoints[provider.index()].store.withdraw(owner);
        if removed > 0 {
            self.dirty = true;
        }
        removed
    }

    /// Whether records were delegated or withdrawn after the last
    /// construction — i.e. the published index is stale.
    pub fn is_stale(&self) -> bool {
        self.dirty || self.index.is_none()
    }

    /// Aggregates the providers' per-store dirty sets into the change
    /// batch bridging the installed index and the current delegations —
    /// the input to `eppi-protocol`'s `construct_delta`.
    ///
    /// Returns `None` when there is no installed index to delta from.
    /// An up-to-date network yields `Some(empty delta)`.
    ///
    /// Owner ids are append-only and columns dense: every id between
    /// the indexed owner count and the current one enters the batch as
    /// `Added`, delegated-to or not. Dirty pre-existing owners are
    /// `Changed` while some endpoint still holds them and `Withdrawn`
    /// once none does.
    pub fn pending_delta(&self) -> Option<IndexDelta> {
        self.index.as_ref()?;
        let base = self.indexed_owners;
        let mut delta = IndexDelta::new(base);
        for j in base..self.owners() {
            let owner = OwnerId(j as u32);
            delta.record(DeltaEntry {
                owner,
                change: ColumnChange::Added,
                epsilon: self.epsilons.get(&owner).copied().unwrap_or(Epsilon::ZERO),
            });
        }
        let mut touched: BTreeSet<OwnerId> = BTreeSet::new();
        for endpoint in &self.endpoints {
            touched.extend(endpoint.store.dirty_owners());
        }
        for owner in touched {
            if owner.index() >= base {
                continue; // already in the batch as Added
            }
            let held = self.endpoints.iter().any(|e| e.store.holds(owner));
            delta.record(DeltaEntry {
                owner,
                change: if held {
                    ColumnChange::Changed
                } else {
                    ColumnChange::Withdrawn
                },
                epsilon: self.epsilons.get(&owner).copied().unwrap_or(Epsilon::ZERO),
            });
        }
        Some(delta)
    }

    /// Empties every store's dirty set after its changes were folded
    /// into an installed index.
    fn drain_dirty(&mut self) {
        for endpoint in &mut self.endpoints {
            endpoint.store.take_dirty();
        }
    }

    /// Derives the private membership matrix `M` from the providers'
    /// stores (this never leaves the trusted constructor).
    pub fn membership_matrix(&self) -> MembershipMatrix {
        let n = self.owners();
        let mut matrix = MembershipMatrix::new(self.providers(), n);
        for endpoint in &self.endpoints {
            let provider = endpoint.store.provider();
            for owner in endpoint.store.owners() {
                matrix.set(provider, owner, true);
            }
        }
        matrix
    }

    /// The per-owner ε assignment (owners never seen default to ε = 0).
    pub fn epsilon_assignment(&self) -> Vec<Epsilon> {
        let n = self.owners();
        let mut eps = vec![Epsilon::ZERO; n];
        for (&owner, &e) in &self.epsilons {
            eps[owner.index()] = e;
        }
        eps
    }

    /// The paper's `ConstructPPI({ε_j})`: (re)builds the published index
    /// from the current delegations.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (invalid policy parameters); a
    /// network with no delegations yields an empty index error-free only
    /// when at least one owner exists.
    pub fn construct_ppi<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Result<&PublishedIndex, EppiError> {
        let matrix = self.membership_matrix();
        let epsilons = self.epsilon_assignment();
        if epsilons.is_empty() {
            return Err(EppiError::DimensionMismatch {
                what: "owners",
                expected: 1,
                actual: 0,
            });
        }
        let built = construct(&matrix, &epsilons, ConstructionConfig::default(), rng)?;
        self.indexed_owners = matrix.owners();
        self.index = Some(built.index);
        self.dirty = false;
        self.drain_dirty();
        Ok(self.index.as_ref().expect("just set"))
    }

    /// Installs an index constructed elsewhere (e.g. by the distributed
    /// trusted-party-free protocol in `eppi-protocol`).
    ///
    /// # Panics
    ///
    /// Panics if the index's provider count disagrees with the network.
    pub fn install_index(&mut self, index: PublishedIndex) {
        assert_eq!(
            index.matrix().providers(),
            self.providers(),
            "index provider count must match the network"
        );
        self.indexed_owners = index.matrix().owners();
        self.index = Some(index);
        self.dirty = false;
        self.drain_dirty();
    }

    /// The paper's `QueryPPI(t_j)`: the candidate provider list from the
    /// published index. Empty until an index is constructed.
    pub fn query_ppi(&self, owner: OwnerId) -> Vec<ProviderId> {
        match &self.index {
            Some(index) if owner.index() < index.matrix().owners() => index.query(owner),
            _ => Vec::new(),
        }
    }

    /// The paper's two-phase search: `QueryPPI` followed by
    /// `AuthSearch(s, {p_i}, t_j)` against every candidate.
    pub fn auth_search(&self, searcher: SearcherId, owner: OwnerId) -> SearchOutcome {
        let service = LocatorService::new(
            PpiServer::new(self.index.clone().unwrap_or_else(|| {
                PublishedIndex::new(MembershipMatrix::new(self.providers(), 0), Vec::new())
            })),
            self.endpoints.clone(),
        );
        // Owners outside the index produce an empty candidate list.
        if owner.index() >= self.index.as_ref().map_or(0, |i| i.matrix().owners()) {
            return SearchOutcome {
                records: Vec::new(),
                providers_contacted: 0,
                true_hits: 0,
                false_hits: 0,
                denied: 0,
            };
        }
        service.search(searcher, owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps(v: f64) -> Epsilon {
        Epsilon::saturating(v)
    }

    #[test]
    fn four_operations_flow() {
        let mut net = InformationNetwork::new(50);
        // Delegate.
        net.delegate(OwnerId(0), eps(0.8), ProviderId(3), "r1");
        net.delegate(OwnerId(0), eps(0.8), ProviderId(17), "r2");
        net.delegate(OwnerId(1), eps(0.2), ProviderId(5), "r3");
        assert!(net.is_stale());
        assert_eq!(net.owners(), 2);

        // ConstructPPI.
        let mut rng = StdRng::seed_from_u64(1);
        net.construct_ppi(&mut rng).expect("construction");
        assert!(!net.is_stale());

        // QueryPPI: recall for both owners.
        let a = net.query_ppi(OwnerId(0));
        assert!(a.contains(&ProviderId(3)) && a.contains(&ProviderId(17)));

        // AuthSearch: all records found.
        let out = net.auth_search(SearcherId(1), OwnerId(0));
        assert_eq!(out.records.len(), 2);
        assert_eq!(out.true_hits, 2);
    }

    #[test]
    fn delegation_after_construction_marks_stale() {
        let mut net = InformationNetwork::new(10);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(0), "r");
        let mut rng = StdRng::seed_from_u64(2);
        net.construct_ppi(&mut rng).expect("construction");
        assert!(!net.is_stale());
        net.delegate(OwnerId(1), eps(0.5), ProviderId(1), "r2");
        assert!(net.is_stale());
        // The stale index doesn't know the new owner yet.
        assert!(net.query_ppi(OwnerId(1)).is_empty());
        net.construct_ppi(&mut rng).expect("reconstruction");
        assert!(net.query_ppi(OwnerId(1)).contains(&ProviderId(1)));
    }

    #[test]
    fn query_before_construction_is_empty() {
        let mut net = InformationNetwork::new(5);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(0), "r");
        assert!(net.query_ppi(OwnerId(0)).is_empty());
        let out = net.auth_search(SearcherId(0), OwnerId(0));
        assert_eq!(out.providers_contacted, 0);
    }

    #[test]
    fn empty_network_construction_errors() {
        let mut net = InformationNetwork::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(net.construct_ppi(&mut rng).is_err());
    }

    #[test]
    fn denied_providers_block_auth_search() {
        let mut net = InformationNetwork::new(4);
        net.delegate(OwnerId(0), eps(0.0), ProviderId(2), "secret");
        net.endpoints[2].policy = AccessPolicy::Deny;
        let mut rng = StdRng::seed_from_u64(3);
        net.construct_ppi(&mut rng).expect("construction");
        let out = net.auth_search(SearcherId(9), OwnerId(0));
        assert_eq!(out.denied, 1);
        assert!(out.records.is_empty());
    }

    #[test]
    fn install_external_index() {
        let mut net = InformationNetwork::new(4);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(1), "r");
        let mut published = MembershipMatrix::new(4, 1);
        published.set(ProviderId(1), OwnerId(0), true);
        published.set(ProviderId(3), OwnerId(0), true);
        net.install_index(PublishedIndex::new(published, vec![0.5]));
        assert!(!net.is_stale());
        assert_eq!(net.query_ppi(OwnerId(0)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "must match the network")]
    fn install_mismatched_index_panics() {
        let mut net = InformationNetwork::new(4);
        net.install_index(PublishedIndex::new(MembershipMatrix::new(2, 1), vec![0.0]));
    }

    #[test]
    fn withdraw_forces_full_rebuild() {
        let mut net = InformationNetwork::new(30);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(2), "a");
        net.delegate(OwnerId(0), eps(0.5), ProviderId(9), "b");
        let mut rng = StdRng::seed_from_u64(12);
        net.construct_ppi(&mut rng).expect("construction");
        assert_eq!(net.withdraw(OwnerId(0), ProviderId(9)), 1);
        assert!(net.is_stale());
        // An old column changed: the batch carries it, and the index
        // stays stale until a construction folds it in.
        let changes: Vec<_> = net
            .pending_delta()
            .expect("delta")
            .entries()
            .map(|e| (e.owner, e.change))
            .collect();
        assert_eq!(changes, vec![(OwnerId(0), ColumnChange::Changed)]);
        net.construct_ppi(&mut rng).expect("rebuild");
        assert!(!net.is_stale());
        // The withdrawn provider may still appear as a *decoy*, but the
        // record is gone from its store.
        assert!(!net.endpoint(ProviderId(9)).store.holds(OwnerId(0)));
        // The remaining true provider is always in the answer.
        assert!(net.query_ppi(OwnerId(0)).contains(&ProviderId(2)));
    }

    #[test]
    fn pending_delta_tracks_changed_added_and_withdrawn_columns() {
        let mut net = InformationNetwork::new(12);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(1), "a");
        net.delegate(OwnerId(1), eps(0.3), ProviderId(2), "b");
        net.delegate(OwnerId(1), eps(0.3), ProviderId(7), "b2");
        // No index yet: nothing to delta from.
        assert!(net.pending_delta().is_none());
        let mut rng = StdRng::seed_from_u64(21);
        net.construct_ppi(&mut rng).expect("construction");
        // Up to date: empty batch.
        let d = net.pending_delta().expect("delta");
        assert!(d.is_empty());
        assert_eq!((d.base_owners(), d.owners()), (2, 2));

        // Owner 0 gains a provider (Changed), owner 1 withdraws from one
        // of two providers (still held ⇒ Changed), owner 2 is new.
        net.delegate(OwnerId(0), eps(0.5), ProviderId(4), "a2");
        net.withdraw(OwnerId(1), ProviderId(7));
        net.delegate(OwnerId(2), eps(0.9), ProviderId(0), "c");
        let d = net.pending_delta().expect("delta");
        assert_eq!((d.base_owners(), d.owners()), (2, 3));
        let changes: Vec<_> = d.entries().map(|e| (e.owner, e.change)).collect();
        assert_eq!(
            changes,
            vec![
                (OwnerId(0), ColumnChange::Changed),
                (OwnerId(1), ColumnChange::Changed),
                (OwnerId(2), ColumnChange::Added),
            ]
        );

        // Withdrawing everywhere flips the column to Withdrawn.
        net.withdraw(OwnerId(1), ProviderId(2));
        let d = net.pending_delta().expect("delta");
        assert!(d
            .entries()
            .any(|e| e.owner == OwnerId(1) && e.change == ColumnChange::Withdrawn));

        // Re-construction drains the batch.
        net.construct_ppi(&mut rng).expect("reconstruction");
        assert!(net.pending_delta().expect("delta").is_empty());
    }

    #[test]
    fn install_index_drains_the_pending_batch() {
        let mut net = InformationNetwork::new(4);
        net.delegate(OwnerId(0), eps(0.5), ProviderId(1), "r");
        let mut rng = StdRng::seed_from_u64(23);
        net.construct_ppi(&mut rng).expect("construction");
        net.delegate(OwnerId(1), eps(0.2), ProviderId(3), "s");
        assert_eq!(net.pending_delta().expect("delta").len(), 1);
        // Install an externally constructed two-owner index: the batch
        // is considered folded in.
        let mut published = MembershipMatrix::new(4, 2);
        published.set(ProviderId(1), OwnerId(0), true);
        published.set(ProviderId(3), OwnerId(1), true);
        net.install_index(PublishedIndex::new(published, vec![0.5, 0.2]));
        let d = net.pending_delta().expect("delta");
        assert!(d.is_empty());
        assert_eq!(d.base_owners(), 2);
    }

    #[test]
    fn latest_epsilon_wins() {
        let mut net = InformationNetwork::new(8);
        net.delegate(OwnerId(0), eps(0.2), ProviderId(0), "a");
        net.delegate(OwnerId(0), eps(0.9), ProviderId(1), "b");
        assert_eq!(net.epsilon_assignment()[0], eps(0.9));
    }
}
