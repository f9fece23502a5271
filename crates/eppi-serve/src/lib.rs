//! eppi-serve: the locator-service front-end.
//!
//! The e-PPI constructions (`eppi-index`, `eppi-mpc`) end with a
//! published index `M'` handed to an untrusted PPI server; this crate
//! is that server's serving layer, built for sustained `QueryPPI`
//! traffic:
//!
//! * [`shard::ShardedIndex`] — the published matrix transposed to
//!   owner-major packed bitmaps and partitioned into owner-hash shards,
//!   so each query is one contiguous row read inside one shard.
//! * [`engine::ServeEngine`] / [`engine::ServeClient`] — the engine
//!   owns the published snapshot and its install path; a client
//!   answers single and batched queries on the caller's thread, one
//!   snapshot per request, taking no locks. The engine starts no
//!   threads.
//! * [`snapshot::SnapshotCell`] — wait-free snapshot publication so a
//!   `ConstructPPI` re-run can replace the index without ever blocking
//!   readers or exposing a torn version.
//! * [`private::PrivateEngine`] / [`private::PrivateClient`] — the
//!   oblivious serve mode: two non-colluding replicas answer XOR-PIR
//!   queries (`eppi-pir`) so neither ever learns which owner a query
//!   targets, with answers bit-identical to the plaintext path. A
//!   private query that could not be answered is a typed
//!   [`PrivateQueryError`] from `try_query*`, never mistaken for "no
//!   provider holds this owner".
//!
//! Observability enters through one handle: [`ServeEngine::start`],
//! [`ServeEngine::from_store`] and [`PrivateEngine::start`] report to
//! the process-global registry and trace nothing; their
//! `_with_registry` forms take an `impl Into<eppi_trace::Obs>` — a
//! `&Registry`, or a full `Obs` whose tracer the engine then keeps for
//! its per-request span trees (DESIGN.md §8, §13).
//!
//! Query results are bit-for-bit identical to
//! [`PpiServer::query`](eppi_index::server::PpiServer::query); the
//! sharding is purely a serving-side layout change and does not alter
//! the privacy semantics of the published index.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
pub mod private;
pub mod shard;
pub mod snapshot;

pub use engine::{
    default_shards, default_shards_for, PirServerAnswer, ServeClient, ServeConfig, ServeEngine,
    ServeStats,
};
pub use private::{PrivateClient, PrivateEngine, PrivateQueryError};
pub use shard::{shard_of, EpochOrderError, ShardMap, ShardedIndex, DEFAULT_APPEND_CAPACITY};
pub use snapshot::SnapshotCell;
