//! # eppi-index — the privacy-preserving locator service
//!
//! The service layer of the ε-PPI reproduction (§II-A, Fig. 1 of the
//! paper): an untrusted third-party [`server::PpiServer`] hosting the
//! published index, per-provider record repositories
//! ([`store::LocalStore`]) with access control ([`access`]), and the
//! two-phase search procedure ([`search::LocatorService`]):
//! `QueryPPI(t_j)` followed by `AuthSearch(s, {p_i}, t_j)`.
//!
//! ```
//! use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
//! use eppi_index::access::{AccessPolicy, SearcherId};
//! use eppi_index::search::{LocatorService, ProviderEndpoint};
//! use eppi_index::server::PpiServer;
//! use eppi_index::store::LocalStore;
//!
//! // One provider holds the owner's record; the published index also
//! // (falsely) lists a second provider for privacy.
//! let mut published = MembershipMatrix::new(2, 1);
//! published.set(ProviderId(0), OwnerId(0), true);
//! published.set(ProviderId(1), OwnerId(0), true);
//! let server = PpiServer::new(PublishedIndex::new(published, vec![0.5]));
//!
//! let mut store0 = LocalStore::new(ProviderId(0));
//! store0.delegate(OwnerId(0), "medical history");
//! let endpoints = vec![
//!     ProviderEndpoint { store: store0, policy: AccessPolicy::Open },
//!     ProviderEndpoint { store: LocalStore::new(ProviderId(1)), policy: AccessPolicy::Open },
//! ];
//! let service = LocatorService::new(server, endpoints);
//!
//! let outcome = service.search(SearcherId(1), OwnerId(0));
//! assert_eq!(outcome.records.len(), 1);   // found everything (100% recall)
//! assert_eq!(outcome.false_hits, 1);      // paid one extra contact for privacy
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod access;
pub mod codec;
pub mod network;
pub mod search;
pub mod server;
pub mod store;

pub use access::{AccessPolicy, SearcherId};
pub use codec::{
    crc32, decode as decode_index, decode_serve_snapshot, encode as encode_index,
    encode_serve_snapshot, CodecError, ServeShardRecord, ServeSnapshotRecord, ShardRowsRecord,
};
pub use network::InformationNetwork;
pub use search::{LocatorService, ProviderEndpoint, SearchOutcome};
pub use server::PpiServer;
pub use store::{LocalStore, Record};
