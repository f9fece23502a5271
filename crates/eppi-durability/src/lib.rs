//! # eppi-durability — crash-safe epoch lineage persistence
//!
//! The ε-PPI epoch lifecycle ([`eppi_protocol::epoch`]) makes index
//! refresh safe and O(k) — but only while the retained protocol state
//! (coordinator share vectors, thresholds, mix decisions, the lineage
//! seed) survives. Losing it forces a full re-randomized rebuild, which
//! is exactly the intersection-attack surface (§III-C of the paper) the
//! deterministic-coin design exists to avoid. This crate makes the
//! lineage durable:
//!
//! * **Write-ahead delta log** ([`wal`]) — every applied
//!   [`IndexDelta`](eppi_core::delta::IndexDelta) is journaled (with
//!   the touched membership columns, CRC-framed, fsync'd) *before* the
//!   produced epoch is installed.
//! * **Atomic checkpoints** ([`checkpoint`]) — full EPPI v2 epoch
//!   snapshots written temp-file-then-rename, retained two deep.
//! * **Recovery** ([`store`]) — newest decodable checkpoint + replay of
//!   the log's valid prefix; torn tails are detected, discarded and
//!   truncated. Replay re-runs the journaled constructions under the
//!   deterministic lineage coins, so the recovered head is
//!   bit-identical to the uninterrupted run.
//! * **Re-anchoring** — an operator can discard a lineage for a fresh
//!   epoch-0 construction under a bumped lineage generation (the
//!   anti-archive escape hatch).
//! * **Audited lineages** — a store created from an
//!   [`AuditedEpoch`](eppi_protocol::AuditedEpoch) persists every
//!   provider's publication commitment (checkpoint envelope + journal
//!   trailer), and recovery re-verifies them against the recovered and
//!   every replayed epoch: content that drifted from what the providers
//!   certified surfaces as a hard [`StoreError::Audit`], never a
//!   silently installed head (DESIGN.md §16).
//!
//! Every [`DurableStore`] operation has a bare form (process-global
//! telemetry, nothing traced) and one `_with_registry` form taking an
//! `impl Into<eppi_trace::Obs>`; the context given to `advance*` or
//! `open` is the one the journaled or replayed construction — MPC
//! rounds, prover, verifier — reports and traces into (DESIGN.md §8,
//! §13).
//!
//! ```
//! use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
//! use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
//! use eppi_durability::DurableStore;
//! use eppi_protocol::{construct_epoch, ProtocolConfig};
//!
//! let mut matrix = MembershipMatrix::new(8, 2);
//! matrix.set(ProviderId(0), OwnerId(0), true);
//! matrix.set(ProviderId(3), OwnerId(1), true);
//! let epsilons = vec![Epsilon::new(0.5)?; 2];
//! let config = ProtocolConfig::default();
//! let epoch0 = construct_epoch(&matrix, &epsilons, &config)?;
//!
//! let dir = std::env::temp_dir().join(format!("eppi-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = DurableStore::create(&dir, &epoch0)?;
//!
//! // One journaled refresh…
//! matrix.set(ProviderId(5), OwnerId(1), true);
//! let mut delta = IndexDelta::new(2);
//! delta.record(DeltaEntry {
//!     owner: OwnerId(1),
//!     change: ColumnChange::Changed,
//!     epsilon: Epsilon::new(0.5)?,
//! });
//! store.advance(&matrix, &delta)?;
//! drop(store); // "crash"
//!
//! // …survives a restart bit-identically, no rebuild.
//! let (store, recovery) = DurableStore::open(&dir)?;
//! assert_eq!(store.head().epoch(), 1);
//! assert_eq!(recovery.replayed, 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod epoch_codec;
pub mod error;
pub mod serve_cache;
pub mod store;
pub mod wal;

pub use checkpoint::Candidate;
pub use epoch_codec::{decode_epoch, encode_epoch, epoch_to_record};
pub use error::StoreError;
pub use serve_cache::{
    invalidate_serve_snapshot, load_serve_snapshot, save_serve_snapshot, SERVE_CACHE_FILE,
};
pub use store::{CheckpointReceipt, DurableStore, Recovery, KEEP_CHECKPOINTS, WAL_FILE};
pub use wal::{TailDefect, Wal, WalRecord};
