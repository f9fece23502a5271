//! The two-phase search procedure (§II-A, Fig. 1).
//!
//! Phase 1 (`QueryPPI`): the searcher asks the untrusted PPI server for
//! the candidate provider list of an owner. Phase 2 (`AuthSearch`): the
//! searcher contacts each candidate, gets authorized, and searches the
//! provider's local repository. False positives in the index cost extra
//! provider contacts — the *search overhead* that privacy buys.

use crate::access::{AccessPolicy, SearcherId};
use crate::server::PpiServer;
use crate::store::{LocalStore, Record};
use eppi_core::model::{OwnerId, ProviderId};

/// A provider endpoint visible to searchers: repository + admission
/// policy.
#[derive(Debug, Clone)]
pub struct ProviderEndpoint {
    /// The provider's record repository.
    pub store: LocalStore,
    /// The provider's admission policy.
    pub policy: AccessPolicy,
}

/// Outcome of one two-phase search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// All records found for the owner.
    pub records: Vec<Record>,
    /// Providers returned by `QueryPPI` (phase-1 answer size = search
    /// cost).
    pub providers_contacted: usize,
    /// Contacts that found records (true positives).
    pub true_hits: usize,
    /// Contacts that found nothing (the index's false positives).
    pub false_hits: usize,
    /// Contacts rejected by the provider's access control.
    pub denied: usize,
}

impl SearchOutcome {
    /// The fraction of contacted providers that were false positives —
    /// what the searcher pays for the owner's privacy.
    pub fn overhead(&self) -> f64 {
        if self.providers_contacted == 0 {
            0.0
        } else {
            self.false_hits as f64 / self.providers_contacted as f64
        }
    }
}

/// The full locator-service deployment: the PPI server plus every
/// provider endpoint.
#[derive(Debug, Default)]
pub struct LocatorService {
    server: PpiServer,
    endpoints: Vec<ProviderEndpoint>,
}

impl LocatorService {
    /// Assembles the service.
    ///
    /// # Panics
    ///
    /// Panics if the endpoint count differs from the index's provider
    /// count.
    pub fn new(server: PpiServer, endpoints: Vec<ProviderEndpoint>) -> Self {
        assert_eq!(
            server.providers(),
            endpoints.len(),
            "one endpoint per indexed provider required"
        );
        LocatorService { server, endpoints }
    }

    /// The PPI server.
    pub fn server(&self) -> &PpiServer {
        &self.server
    }

    /// A provider endpoint.
    pub fn endpoint(&self, provider: ProviderId) -> &ProviderEndpoint {
        &self.endpoints[provider.index()]
    }

    /// Runs the two-phase search: `QueryPPI(owner)` followed by
    /// `AuthSearch` against every candidate provider.
    pub fn search(&self, searcher: SearcherId, owner: OwnerId) -> SearchOutcome {
        let candidates = self.server.query(owner);
        let mut outcome = SearchOutcome {
            records: Vec::new(),
            providers_contacted: candidates.len(),
            true_hits: 0,
            false_hits: 0,
            denied: 0,
        };
        for provider in candidates {
            let endpoint = &self.endpoints[provider.index()];
            if !endpoint.policy.authorize(searcher, owner) {
                outcome.denied += 1;
                continue;
            }
            let found = endpoint.store.search(owner);
            if found.is_empty() {
                outcome.false_hits += 1;
            } else {
                outcome.true_hits += 1;
                outcome.records.extend_from_slice(found);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::{MembershipMatrix, PublishedIndex};

    /// Network: p0 and p1 truly hold t0; index additionally (falsely)
    /// lists p2.
    fn service(policy2: AccessPolicy) -> LocatorService {
        let mut published = MembershipMatrix::new(4, 1);
        for p in [0u32, 1, 2] {
            published.set(ProviderId(p), OwnerId(0), true);
        }
        let server = PpiServer::new(PublishedIndex::new(published, vec![0.5]));

        let mut endpoints: Vec<ProviderEndpoint> = (0..4)
            .map(|i| ProviderEndpoint {
                store: LocalStore::new(ProviderId(i)),
                policy: AccessPolicy::Open,
            })
            .collect();
        endpoints[0].store.delegate(OwnerId(0), "rec-a");
        endpoints[1].store.delegate(OwnerId(0), "rec-b");
        endpoints[2].policy = policy2;
        LocatorService::new(server, endpoints)
    }

    #[test]
    fn search_finds_all_records_with_full_recall() {
        let svc = service(AccessPolicy::Open);
        let out = svc.search(SearcherId(1), OwnerId(0));
        assert_eq!(out.providers_contacted, 3);
        assert_eq!(out.true_hits, 2);
        assert_eq!(out.false_hits, 1);
        assert_eq!(out.denied, 0);
        assert_eq!(out.records.len(), 2);
        assert!((out.overhead() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn denied_contact_is_counted_separately() {
        let svc = service(AccessPolicy::Deny);
        let out = svc.search(SearcherId(1), OwnerId(0));
        assert_eq!(out.denied, 1);
        assert_eq!(out.false_hits, 0, "denied contact is not a false hit");
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn unknown_owner_searches_nothing() {
        let mut published = MembershipMatrix::new(2, 2);
        published.set(ProviderId(0), OwnerId(0), true);
        let server = PpiServer::new(PublishedIndex::new(published, vec![0.0, 0.0]));
        let endpoints = (0..2)
            .map(|i| ProviderEndpoint {
                store: LocalStore::new(ProviderId(i)),
                policy: AccessPolicy::Open,
            })
            .collect();
        let svc = LocatorService::new(server, endpoints);
        let out = svc.search(SearcherId(0), OwnerId(1));
        assert_eq!(out.providers_contacted, 0);
        assert_eq!(out.overhead(), 0.0);
    }

    #[test]
    #[should_panic(expected = "one endpoint per indexed provider")]
    fn endpoint_count_validated() {
        let published = MembershipMatrix::new(2, 1);
        let server = PpiServer::new(PublishedIndex::new(published, vec![0.0]));
        LocatorService::new(server, vec![]);
    }
}
