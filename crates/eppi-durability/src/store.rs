//! The crash-safe epoch lineage store.
//!
//! [`DurableStore`] keeps one directory per lineage:
//!
//! ```text
//! store/
//! ├── checkpoint-0000000000-00000000000000000003.eppi   (older fallback)
//! ├── checkpoint-0000000000-00000000000000000007.eppi   (newest snapshot)
//! └── wal.log                                           (deltas since it)
//! ```
//!
//! **Write path** — [`advance`](DurableStore::advance) runs
//! `construct_delta`, journals the delta's replay record (append +
//! `fdatasync`) and only then installs the new epoch as the lineage
//! head: a record is durable before anything downstream can observe the
//! epoch it produces. [`checkpoint`](DurableStore::checkpoint) folds
//! the log into one atomic snapshot (temp file + rename), truncates the
//! log *after* the snapshot is durable, and prunes all but the newest
//! two checkpoints.
//!
//! **Recovery** — [`open`](DurableStore::open) walks the recovery state
//! machine (DESIGN.md §11): newest decodable checkpoint → replay the
//! log's valid frame prefix in epoch order → discard and truncate
//! whatever is left (torn tail, foreign lineage, epoch gap or a record
//! the protocol layer rejects). Replay re-runs the journaled
//! constructions, so a recovered head is bit-identical to the
//! uninterrupted run — no rebuild, no re-randomized coins, no
//! intersection-attack surface.
//!
//! **Re-anchor** — [`reanchor`](DurableStore::reanchor) discards the
//! lineage for a fresh epoch-0 construction under a bumped lineage
//! generation; file-name ordering makes the new generation win recovery
//! even though its epoch numbers restart at 0.

use crate::checkpoint;
use crate::error::StoreError;
use crate::wal::{TailDefect, Wal, WalRecord};
use eppi_audit::ColumnCommitment;
use eppi_core::delta::IndexDelta;
use eppi_core::model::MembershipMatrix;
use eppi_protocol::{
    construct_delta_audited_with_registry, construct_delta_with_registry, verify_commitments,
    AuditConfig, AuditedConstructError, AuditedDelta, AuditedEpoch, DeltaConstruction, IndexEpoch,
};
use eppi_telemetry::{Counter, Histogram, Registry};
use eppi_trace::Obs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// File name of the write-ahead delta log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// How many checkpoints a store retains (the newest, plus one fallback
/// in case the newest is later found corrupt).
pub const KEEP_CHECKPOINTS: usize = 2;

/// The `durability.*` instrument handles a store updates.
#[derive(Debug, Clone)]
struct StoreMetrics {
    fsyncs: Arc<Counter>,
    fsync_ns: Arc<Histogram>,
    wal_records: Arc<Counter>,
    wal_append_bytes: Arc<Counter>,
    replayed_records: Arc<Counter>,
    audit_checks: Arc<Counter>,
    recovery_ns: Arc<Histogram>,
    checkpoint_ns: Arc<Histogram>,
    checkpoint_bytes: Arc<Counter>,
}

impl StoreMetrics {
    fn new(registry: &Registry) -> Self {
        StoreMetrics {
            fsyncs: registry.counter("durability.fsyncs", &[]),
            fsync_ns: registry.histogram("durability.fsync_ns", &[]),
            wal_records: registry.counter("durability.wal_records", &[]),
            wal_append_bytes: registry.counter("durability.wal_append_bytes", &[]),
            replayed_records: registry.counter("durability.replayed_records", &[]),
            audit_checks: registry.counter("durability.audit_checks", &[]),
            recovery_ns: registry.histogram("durability.recovery_ns", &[]),
            checkpoint_ns: registry.histogram("durability.checkpoint_ns", &[]),
            checkpoint_bytes: registry.counter("durability.checkpoint_bytes", &[]),
        }
    }

    fn fsync(&self, wall: Duration, count: u64) {
        self.fsyncs.add(count);
        self.fsync_ns.record(wall.as_nanos() as u64);
    }
}

/// What [`DurableStore::open`] did to reconstruct the lineage head.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Epoch number of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Epoch number of the reconstructed head (≥ `checkpoint_epoch`).
    pub head_epoch: u64,
    /// Re-anchor generation of the recovered lineage.
    pub lineage: u64,
    /// Checkpoint candidates that failed to decode before one loaded.
    pub corrupt_checkpoints: usize,
    /// Log records replayed through `construct_delta`.
    pub replayed: usize,
    /// Log records skipped because the checkpoint already covers them.
    pub skipped_stale: usize,
    /// Log bytes discarded (torn tail plus anything past a defect).
    pub discarded_bytes: u64,
    /// Persisted commitment sets re-verified against recovered state
    /// (the checkpoint's, plus one per audited replayed record).
    pub audited: usize,
    /// Why the log tail was discarded, when it was.
    pub tail_defect: Option<TailDefect>,
    /// Wall time of the whole recovery.
    pub wall: Duration,
}

/// Receipt of one [`DurableStore::checkpoint`].
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReceipt {
    /// Epoch number snapshotted.
    pub epoch: u64,
    /// Serialized snapshot size in bytes.
    pub bytes: u64,
    /// Older checkpoint files pruned.
    pub pruned: usize,
    /// Wall time of the whole checkpoint (write + truncate + prune).
    pub wall: Duration,
}

/// A crash-safe store for one epoch lineage: write-ahead delta log,
/// atomic checkpoints, warm recovery.
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    lineage: u64,
    head: IndexEpoch,
    /// The head's publication commitments (empty for an unaudited
    /// lineage); what the next checkpoint persists.
    commitments: Vec<ColumnCommitment>,
    wal: Wal,
    metrics: StoreMetrics,
}

impl DurableStore {
    /// Initializes `dir` as a new store anchored at `epoch` (normally a
    /// fresh [`construct_epoch`](eppi_protocol::construct_epoch)
    /// result) and leaves the log empty.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyInitialized`] if `dir` already holds a
    /// checkpoint; [`StoreError::Io`] on filesystem failure.
    pub fn create(dir: impl Into<PathBuf>, epoch: &IndexEpoch) -> Result<DurableStore, StoreError> {
        Self::create_with_registry(dir, epoch, Obs::default())
    }

    /// [`create`](Self::create) under a caller's observability
    /// context: the store's `durability.*` instruments — for this and
    /// every later operation on the returned store — live in
    /// `obs.registry`.
    ///
    /// # Errors
    ///
    /// Same contract as [`create`](Self::create).
    pub fn create_with_registry<'a>(
        dir: impl Into<PathBuf>,
        epoch: &IndexEpoch,
        obs: impl Into<Obs<'a>>,
    ) -> Result<DurableStore, StoreError> {
        Self::anchor(dir.into(), epoch, Vec::new(), obs.into())
    }

    /// Initializes `dir` with `epoch` as its lineage-0 checkpoint and
    /// an empty log; an unaudited anchor is the audited one with no
    /// commitments.
    fn anchor(
        dir: PathBuf,
        epoch: &IndexEpoch,
        commitments: Vec<ColumnCommitment>,
        obs: Obs<'_>,
    ) -> Result<DurableStore, StoreError> {
        std::fs::create_dir_all(&dir).map_err(|e| StoreError::io("create_dir", &dir, e))?;
        if !checkpoint::scan(&dir)?.is_empty() {
            return Err(StoreError::AlreadyInitialized { dir });
        }
        let metrics = StoreMetrics::new(obs.registry);
        let receipt = checkpoint::write_atomic(&dir, 0, epoch, &commitments)?;
        metrics.fsync(receipt.fsync_wall, receipt.fsyncs);
        metrics.checkpoint_bytes.add(receipt.bytes);
        let mut wal = Wal::open(dir.join(WAL_FILE))?;
        wal.clear()?;
        Ok(DurableStore {
            dir,
            lineage: 0,
            head: epoch.clone(),
            commitments,
            wal,
            metrics,
        })
    }

    /// [`create`](Self::create) for an audited lineage: the anchor's
    /// per-provider publication commitments are persisted in the
    /// checkpoint, and every recovery re-verifies them before handing
    /// the store out.
    ///
    /// # Errors
    ///
    /// Same contract as [`create`](Self::create).
    pub fn create_audited(
        dir: impl Into<PathBuf>,
        anchor: &AuditedEpoch,
    ) -> Result<DurableStore, StoreError> {
        Self::create_audited_with_registry(dir, anchor, Obs::default())
    }

    /// [`create_audited`](Self::create_audited) under a caller's
    /// observability context (see
    /// [`create_with_registry`](Self::create_with_registry)).
    ///
    /// # Errors
    ///
    /// Same contract as [`create`](Self::create).
    pub fn create_audited_with_registry<'a>(
        dir: impl Into<PathBuf>,
        anchor: &AuditedEpoch,
        obs: impl Into<Obs<'a>>,
    ) -> Result<DurableStore, StoreError> {
        Self::anchor(dir.into(), &anchor.epoch, anchor.commitments(), obs.into())
    }

    /// Recovers the lineage from `dir`: newest decodable checkpoint,
    /// plus a replay of the log's valid frame prefix. The log is
    /// truncated back to the replayed prefix so the next append lands
    /// after the last surviving record.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoCheckpoint`] /
    /// [`StoreError::CorruptStore`] when no checkpoint decodes;
    /// [`StoreError::Io`] on filesystem failure. Corruption in the
    /// *log* is never an error — recovery falls back to the longest
    /// valid prefix (reported in [`Recovery`]).
    pub fn open(dir: impl Into<PathBuf>) -> Result<(DurableStore, Recovery), StoreError> {
        Self::open_with_registry(dir, Obs::default())
    }

    /// [`open`](Self::open) under a caller's observability context.
    /// Telemetry — `durability.*` and everything the replayed
    /// constructions report — goes to `obs.registry`. Recovery runs
    /// under a `recover.open` span (a child of `obs.parent`, or a fresh
    /// trace root when there is none) with one child per state of the
    /// recovery machine — `recover.checkpoint_load` (payload =
    /// checkpoint candidates scanned), `recover.wal_scan` (payload =
    /// valid frames found), one `recover.replay_record` per delta
    /// re-run through `construct_delta` (payload = the record's epoch;
    /// the replayed construction's MPC spans hang under it), and
    /// `recover.truncate` (payload = bytes discarded) when a tail is
    /// cut. A disabled tracer records nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`open`](Self::open).
    pub fn open_with_registry<'a>(
        dir: impl Into<PathBuf>,
        obs: impl Into<Obs<'a>>,
    ) -> Result<(DurableStore, Recovery), StoreError> {
        let obs = obs.into();
        let tracer = obs.tracer;
        let dir = dir.into();
        let metrics = StoreMetrics::new(obs.registry);
        let started = Instant::now();
        let open_span = if obs.parent.is_none() {
            tracer.root("recover.open")
        } else {
            tracer.child(obs.parent, "recover.open")
        };
        let octx = open_span.ctx();

        // State 1 — newest decodable checkpoint, newest-first by
        // (lineage, epoch); a corrupt newest file falls back to the
        // retained older one (strictly older valid state).
        let mut load_span = tracer.child(octx, "recover.checkpoint_load");
        let candidates = checkpoint::scan(&dir)?;
        if candidates.is_empty() {
            return Err(StoreError::NoCheckpoint { dir });
        }
        let total = candidates.len();
        let mut corrupt_checkpoints = 0;
        let mut picked = None;
        for candidate in candidates {
            match checkpoint::load(&candidate.path) {
                Ok((epoch, commitments)) if epoch.epoch() == candidate.epoch => {
                    picked = Some((epoch, commitments, candidate.lineage));
                    break;
                }
                // A decodable file whose content disagrees with its
                // name is as untrustworthy as a checksum failure.
                Ok(_) | Err(StoreError::Codec(_)) | Err(StoreError::Protocol(_)) => {
                    corrupt_checkpoints += 1;
                }
                Err(e) => return Err(e),
            }
        }
        let Some((mut head, mut commitments, lineage)) = picked else {
            return Err(StoreError::CorruptStore {
                dir,
                candidates: total,
            });
        };
        let checkpoint_epoch = head.epoch();
        load_span.set_payload(total as u64);
        drop(load_span);

        // An audited checkpoint must still verify against the epoch it
        // carries — a mismatch is tampering with certified state, a
        // hard error rather than a discardable tail.
        let mut audited = 0;
        if !commitments.is_empty() {
            let mut audit_span = tracer.child(octx, "recover.audit_check");
            audit_span.set_payload(head.epoch());
            verify_commitments(&head, &commitments)?;
            metrics.audit_checks.inc();
            audited += 1;
        }

        // State 2 — replay the log's valid frame prefix in epoch order.
        let wal_path = dir.join(WAL_FILE);
        let mut scan_span = tracer.child(octx, "recover.wal_scan");
        let scan = Wal::scan(&wal_path)?;
        scan_span.set_payload(scan.frames.len() as u64);
        drop(scan_span);
        let mut tail_defect = scan.defect;
        let mut replayed = 0;
        let mut skipped_stale = 0;
        let mut kept: u64 = 0;
        for frame in &scan.frames {
            let record = &frame.record;
            if record.lineage != lineage {
                tail_defect = Some(TailDefect::ForeignLineage);
                break;
            }
            if record.epoch <= head.epoch() {
                skipped_stale += 1;
                kept = frame.end;
                continue;
            }
            if record.epoch != head.epoch() + 1 {
                tail_defect = Some(TailDefect::EpochGap);
                break;
            }
            let matrix = record.matrix();
            let mut replay_span = tracer.child(octx, "recover.replay_record");
            replay_span.set_payload(record.epoch);
            let replay = obs.under(replay_span.ctx());
            match construct_delta_with_registry(&head, &matrix, &record.delta, replay) {
                Ok(out) => {
                    // A journaled audited record must replay to exactly
                    // the columns its providers certified; a corrupted
                    // membership column that slips past the CRC is
                    // caught here as a hard audit error.
                    if !record.commitments.is_empty() {
                        let mut audit_span = tracer.child(octx, "recover.audit_check");
                        audit_span.set_payload(record.epoch);
                        verify_commitments(&out.epoch, &record.commitments)?;
                        metrics.audit_checks.inc();
                        audited += 1;
                    }
                    commitments = record.commitments.clone();
                    head = out.epoch;
                    replayed += 1;
                    kept = frame.end;
                }
                Err(_) => {
                    tail_defect = Some(TailDefect::InvalidState);
                    break;
                }
            }
        }

        // State 3 — truncate the discarded tail so appends resume
        // cleanly after the last surviving record.
        let mut wal = Wal::open(&wal_path)?;
        let discarded_bytes = scan.file_len - kept;
        if discarded_bytes > 0 {
            let mut truncate_span = tracer.child(octx, "recover.truncate");
            truncate_span.set_payload(discarded_bytes);
            wal.truncate_to(kept)?;
            self_fsync_note(&metrics);
        }

        let wall = started.elapsed();
        metrics.replayed_records.add(replayed as u64);
        metrics.recovery_ns.record(wall.as_nanos() as u64);
        let recovery = Recovery {
            checkpoint_epoch,
            head_epoch: head.epoch(),
            lineage,
            corrupt_checkpoints,
            replayed,
            skipped_stale,
            discarded_bytes,
            audited,
            tail_defect,
            wall,
        };
        Ok((
            DurableStore {
                dir,
                lineage,
                head,
                commitments,
                wal,
                metrics,
            },
            recovery,
        ))
    }

    /// The lineage head: the newest durable epoch.
    pub fn head(&self) -> &IndexEpoch {
        &self.head
    }

    /// The head's persisted publication commitments (empty when the
    /// head was installed without auditing).
    pub fn commitments(&self) -> &[ColumnCommitment] {
        &self.commitments
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current re-anchor generation.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn wal_bytes(&self) -> Result<u64, StoreError> {
        self.wal.len()
    }

    /// Applies one delta to the lineage: runs the incremental
    /// construction, journals its replay record durably, and only then
    /// installs the produced epoch as the head. A crash after this
    /// returns is recovered exactly; a crash before it leaves the
    /// previous head intact — there is no in-between.
    ///
    /// # Errors
    ///
    /// [`StoreError::Protocol`] when the construction rejects the
    /// delta; [`StoreError::Io`] on journal failure (the head is
    /// unchanged in both cases).
    pub fn advance(
        &mut self,
        matrix: &MembershipMatrix,
        delta: &IndexDelta,
    ) -> Result<DeltaConstruction, StoreError> {
        self.advance_with_registry(matrix, delta, Obs::default())
    }

    /// [`advance`](Self::advance) with the construction running under
    /// a caller's observability context (see
    /// [`construct_delta_with_registry`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`advance`](Self::advance).
    pub fn advance_with_registry<'a>(
        &mut self,
        matrix: &MembershipMatrix,
        delta: &IndexDelta,
        obs: impl Into<Obs<'a>>,
    ) -> Result<DeltaConstruction, StoreError> {
        let built = construct_delta_with_registry(&self.head, matrix, delta, obs)?;
        // An unaudited advance downgrades the lineage: the old
        // commitments do not describe the new head.
        self.install(matrix, delta, &built.epoch, Vec::new())?;
        Ok(built)
    }

    /// Journals the replay record of the delta that produced `epoch`
    /// (append + `fdatasync`) and only then installs `epoch` as the
    /// head, with the `commitments` its providers certified — none for
    /// an unaudited advance.
    fn install(
        &mut self,
        matrix: &MembershipMatrix,
        delta: &IndexDelta,
        epoch: &IndexEpoch,
        commitments: Vec<ColumnCommitment>,
    ) -> Result<(), StoreError> {
        let mut record = WalRecord::capture(self.lineage, epoch.epoch(), delta, matrix);
        record.commitments = commitments;
        let receipt = self.wal.append(&record)?;
        self.metrics.wal_records.inc();
        self.metrics.wal_append_bytes.add(receipt.bytes);
        self.metrics.fsync(receipt.fsync_wall, 1);
        self.head = epoch.clone();
        self.commitments = record.commitments;
        Ok(())
    }

    /// [`advance`](Self::advance) through the audit layer: the
    /// incremental construction is certified by every provider and
    /// auditor-verified *before* anything is journaled or installed,
    /// and the certificates' commitments ride the journal record so
    /// recovery replays stay audit-checked.
    ///
    /// # Errors
    ///
    /// [`StoreError::Audit`] when the auditor gate rejects (head and
    /// log unchanged); otherwise the same contract as
    /// [`advance`](Self::advance).
    pub fn advance_audited(
        &mut self,
        matrix: &MembershipMatrix,
        delta: &IndexDelta,
        audit: &AuditConfig,
    ) -> Result<AuditedDelta, StoreError> {
        self.advance_audited_with_registry(matrix, delta, audit, Obs::default())
    }

    /// [`advance_audited`](Self::advance_audited) with the construction
    /// and the audit layer running under a caller's observability
    /// context (see [`construct_delta_audited_with_registry`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`advance_audited`](Self::advance_audited).
    pub fn advance_audited_with_registry<'a>(
        &mut self,
        matrix: &MembershipMatrix,
        delta: &IndexDelta,
        audit: &AuditConfig,
        obs: impl Into<Obs<'a>>,
    ) -> Result<AuditedDelta, StoreError> {
        let built = construct_delta_audited_with_registry(&self.head, matrix, delta, audit, obs)
            .map_err(|e| match e {
                AuditedConstructError::Protocol(e) => StoreError::Protocol(e),
                AuditedConstructError::Audit(e) => StoreError::Audit(e),
                // Forward-compatibility arm for the #[non_exhaustive]
                // source enum.
                _ => StoreError::Audit(eppi_audit::AuditError::Malformed {
                    provider: u32::MAX,
                    reason: "unknown audited-construction failure",
                }),
            })?;
        self.install(matrix, delta, &built.delta.epoch, built.commitments())?;
        Ok(built)
    }

    /// Folds the log into one atomic snapshot of the head, truncates
    /// the log, and prunes all but the newest
    /// [`KEEP_CHECKPOINTS`] checkpoints. Ordering is crash-safe: the
    /// log is only truncated once the snapshot is durable, so a crash
    /// at any boundary recovers either the old `(checkpoint, log)` pair
    /// or the new one.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn checkpoint(&mut self) -> Result<CheckpointReceipt, StoreError> {
        let started = Instant::now();
        let receipt =
            checkpoint::write_atomic(&self.dir, self.lineage, &self.head, &self.commitments)?;
        self.metrics.fsync(receipt.fsync_wall, receipt.fsyncs);
        self.metrics.checkpoint_bytes.add(receipt.bytes);
        self.wal.clear()?;
        self_fsync_note(&self.metrics);
        let pruned = checkpoint::prune(&self.dir, KEEP_CHECKPOINTS)?;
        let wall = started.elapsed();
        self.metrics.checkpoint_ns.record(wall.as_nanos() as u64);
        Ok(CheckpointReceipt {
            epoch: receipt.epoch,
            bytes: receipt.bytes,
            pruned,
            wall,
        })
    }

    /// Discards the current lineage and re-anchors the store on a
    /// fresh epoch-0 construction under a new lineage generation — the
    /// operator response to an intersection-attack exposure window
    /// (DESIGN.md §11): archived epochs of the old generation stop
    /// accumulating against the new coins.
    ///
    /// Crash-safe by ordering: the old log is truncated first, so a
    /// crash mid-re-anchor recovers the old generation's checkpoint (a
    /// strictly older valid state) rather than a cross-generation mix.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotAnAnchor`] unless `anchor.epoch() == 0`;
    /// [`StoreError::Io`].
    pub fn reanchor(&mut self, anchor: IndexEpoch) -> Result<CheckpointReceipt, StoreError> {
        if anchor.epoch() != 0 {
            return Err(StoreError::NotAnAnchor {
                epoch: anchor.epoch(),
            });
        }
        let started = Instant::now();
        self.wal.clear()?;
        self_fsync_note(&self.metrics);
        let lineage = self.lineage + 1;
        let receipt = checkpoint::write_atomic(&self.dir, lineage, &anchor, &[])?;
        self.metrics.fsync(receipt.fsync_wall, receipt.fsyncs);
        self.metrics.checkpoint_bytes.add(receipt.bytes);
        let pruned = checkpoint::prune(&self.dir, KEEP_CHECKPOINTS)?;
        self.lineage = lineage;
        self.head = anchor;
        self.commitments.clear();
        let wall = started.elapsed();
        self.metrics.checkpoint_ns.record(wall.as_nanos() as u64);
        Ok(CheckpointReceipt {
            epoch: 0,
            bytes: receipt.bytes,
            pruned,
            wall,
        })
    }
}

/// Counts one fsync whose latency was folded into a surrounding
/// operation (log truncation syncs).
fn self_fsync_note(metrics: &StoreMetrics) {
    metrics.fsyncs.inc();
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::delta::{ColumnChange, DeltaEntry};
    use eppi_core::model::{Epsilon, OwnerId, ProviderId};
    use eppi_protocol::{construct_epoch, ProtocolConfig};

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn base(seed: u64) -> (MembershipMatrix, Vec<Epsilon>, ProtocolConfig) {
        let mut mat = MembershipMatrix::new(24, 6);
        for j in 0..6u32 {
            for p in 0..(2 + 3 * j) {
                mat.set(ProviderId(p % 24), OwnerId(j), true);
            }
        }
        let e = vec![eps(0.3), eps(0.5), eps(0.7), eps(0.2), eps(0.9), eps(0.6)];
        let cfg = ProtocolConfig {
            seed,
            ..ProtocolConfig::default()
        };
        (mat, e, cfg)
    }

    fn touch(matrix: &mut MembershipMatrix, owner: u32, provider: u32) -> IndexDelta {
        let flipped = !matrix.get(ProviderId(provider), OwnerId(owner));
        matrix.set(ProviderId(provider), OwnerId(owner), flipped);
        let mut delta = IndexDelta::new(matrix.owners());
        delta.record(DeltaEntry {
            owner: OwnerId(owner),
            change: ColumnChange::Changed,
            epsilon: eps(0.5),
        });
        delta
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eppi-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_advance_reopen_recovers_the_exact_head() {
        let dir = tmp_dir("reopen");
        let (mut mat, e, cfg) = base(11);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();

        let mut live = epoch0;
        for step in 0..4 {
            let delta = touch(&mut mat, step % 6, (step * 7) % 24);
            let built = store
                .advance_with_registry(&mat, &delta, &registry)
                .unwrap();
            live = built.epoch;
        }
        assert_eq!(store.head().epoch(), 4);
        drop(store);

        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.checkpoint_epoch, 0);
        assert_eq!(recovery.replayed, 4);
        assert_eq!(recovery.skipped_stale, 0);
        assert_eq!(recovery.discarded_bytes, 0);
        assert!(recovery.tail_defect.is_none());
        assert_eq!(reopened.head().index(), live.index());
        assert_eq!(reopened.head().decisions(), live.decisions());
        assert_eq!(reopened.head().shares(), live.shares());
        assert_eq!(reopened.head().common_count(), live.common_count());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_log_and_speeds_recovery() {
        let dir = tmp_dir("ckpt");
        let (mut mat, e, cfg) = base(5);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        for step in 0..3 {
            let delta = touch(&mut mat, step, step + 1);
            store
                .advance_with_registry(&mat, &delta, &registry)
                .unwrap();
        }
        let receipt = store.checkpoint().unwrap();
        assert_eq!(receipt.epoch, 3);
        assert_eq!(store.wal_bytes().unwrap(), 0);
        // One more delta after the checkpoint.
        let delta = touch(&mut mat, 4, 9);
        let live = store
            .advance_with_registry(&mat, &delta, &registry)
            .unwrap();
        drop(store);

        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.checkpoint_epoch, 3);
        assert_eq!(recovery.replayed, 1);
        assert_eq!(reopened.head().epoch(), 4);
        assert_eq!(reopened.head().index(), live.epoch.index());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn traced_recovery_spans_every_state() {
        use eppi_trace::{TraceConfig, Tracer};

        let dir = tmp_dir("traced");
        let (mut mat, e, cfg) = base(7);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        for step in 0..3 {
            let delta = touch(&mut mat, step, step + 2);
            store
                .advance_with_registry(&mat, &delta, &registry)
                .unwrap();
        }
        drop(store);

        // Tear the final record so the truncate state runs too.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let tracer = Tracer::new(TraceConfig::default());
        let obs = Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        };
        let (reopened, recovery) = DurableStore::open_with_registry(&dir, obs).unwrap();
        assert_eq!(recovery.replayed, 2);
        assert!(recovery.discarded_bytes > 0);
        assert_eq!(reopened.head().epoch(), 2);
        drop(reopened);

        let log = tracer.collect();
        let traces = log.trace_ids();
        assert_eq!(traces.len(), 1);
        let tree = log.span_tree(traces[0]).unwrap();
        assert_eq!(tree.name, "recover.open");
        assert_eq!(tree.count("recover.checkpoint_load"), 1);
        assert_eq!(tree.count("recover.wal_scan"), 1);
        assert_eq!(
            tree.count("recover.replay_record"),
            2,
            "{}",
            log.render(traces[0])
        );
        assert_eq!(tree.count("recover.truncate"), 1);
        // Replay spans carry the epoch each record produced.
        let epochs: Vec<u64> = tree
            .children
            .iter()
            .filter(|c| c.name == "recover.replay_record")
            .map(|c| c.payload)
            .collect();
        assert_eq!(epochs, vec![1, 2]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let dir = tmp_dir("torn");
        let (mut mat, e, cfg) = base(2);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        let d1 = touch(&mut mat, 0, 1);
        let after_one = store.advance_with_registry(&mat, &d1, &registry).unwrap();
        let d2 = touch(&mut mat, 1, 2);
        store.advance_with_registry(&mat, &d2, &registry).unwrap();
        drop(store);

        // Tear the final record mid-payload, as a crash during append
        // would.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.replayed, 1);
        assert!(recovery.discarded_bytes > 0);
        assert!(recovery.tail_defect.is_some());
        assert_eq!(reopened.head().epoch(), 1);
        assert_eq!(reopened.head().index(), after_one.epoch.index());
        // The tail was truncated away: a second open is clean.
        drop(reopened);
        let (clean, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.discarded_bytes, 0);
        assert!(recovery.tail_defect.is_none());
        assert_eq!(clean.head().epoch(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reanchor_starts_a_winning_fresh_lineage() {
        let dir = tmp_dir("anchor");
        let (mut mat, e, cfg) = base(8);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        for step in 0..5 {
            let delta = touch(&mut mat, step, step);
            store
                .advance_with_registry(&mat, &delta, &registry)
                .unwrap();
        }
        // A non-anchor is rejected.
        let not_anchor = store.head().clone();
        assert!(matches!(
            store.reanchor(not_anchor),
            Err(StoreError::NotAnAnchor { epoch: 5 })
        ));
        // A fresh epoch-0 under a new seed re-anchors.
        let fresh_cfg = ProtocolConfig { seed: 999, ..cfg };
        let fresh = construct_epoch(&mat, &e, &fresh_cfg).unwrap();
        store.reanchor(fresh.clone()).unwrap();
        assert_eq!(store.lineage(), 1);
        assert_eq!(store.head().epoch(), 0);
        drop(store);

        // Recovery picks the new generation over the old epoch 5.
        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.lineage, 1);
        assert_eq!(recovery.checkpoint_epoch, 0);
        assert_eq!(reopened.head().index(), fresh.index());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audited_lineage_roundtrips_and_reverifies_on_recovery() {
        use eppi_protocol::construct_epoch_audited;

        let dir = tmp_dir("audited");
        let (mut mat, e, cfg) = base(13);
        let audit = AuditConfig {
            params: eppi_audit::AuditParams { repetitions: 3 },
            ..AuditConfig::default()
        };
        let anchor = construct_epoch_audited(&mat, &e, &cfg, &audit).unwrap();
        let registry = Registry::new();
        let mut store =
            DurableStore::create_audited_with_registry(&dir, &anchor, &registry).unwrap();
        assert_eq!(store.commitments().len(), 24);

        let delta = touch(&mut mat, 2, 5);
        let built = store
            .advance_audited_with_registry(&mat, &delta, &audit, &registry)
            .unwrap();
        assert_eq!(built.delta.epoch.epoch(), 1);
        assert_eq!(store.commitments(), &built.commitments()[..]);
        drop(store);

        // Recovery re-verifies the checkpoint's commitments and the
        // replayed record's.
        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.audited, 2);
        assert_eq!(reopened.head().epoch(), 1);
        assert_eq!(reopened.commitments(), &built.commitments()[..]);
        assert_eq!(registry.counter("durability.audit_checks", &[]).get(), 2);

        // A checkpoint persists the audited head; reopening from it
        // still runs the audit check.
        let mut store = reopened;
        store.checkpoint().unwrap();
        drop(store);
        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.audited, 1);
        assert_eq!(reopened.commitments(), &built.commitments()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unaudited_advance_downgrades_the_lineage() {
        use eppi_protocol::construct_epoch_audited;

        let dir = tmp_dir("downgrade");
        let (mut mat, e, cfg) = base(14);
        let audit = AuditConfig {
            params: eppi_audit::AuditParams { repetitions: 2 },
            ..AuditConfig::default()
        };
        let anchor = construct_epoch_audited(&mat, &e, &cfg, &audit).unwrap();
        let registry = Registry::new();
        let mut store =
            DurableStore::create_audited_with_registry(&dir, &anchor, &registry).unwrap();
        let delta = touch(&mut mat, 1, 3);
        store
            .advance_with_registry(&mat, &delta, &registry)
            .unwrap();
        assert!(store.commitments().is_empty());
        drop(store);
        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        // The checkpoint's commitments were checked, the unaudited
        // record dropped them.
        assert_eq!(recovery.audited, 1);
        assert!(reopened.commitments().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_nothing_is_a_typed_error() {
        let dir = tmp_dir("empty");
        assert!(matches!(
            DurableStore::open(&dir),
            Err(StoreError::NoCheckpoint { .. })
        ));
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_to_the_retained_one() {
        let dir = tmp_dir("fallback");
        let (mut mat, e, cfg) = base(4);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        let delta = touch(&mut mat, 2, 3);
        store
            .advance_with_registry(&mat, &delta, &registry)
            .unwrap();
        store.checkpoint().unwrap();
        drop(store);

        // Corrupt the newest checkpoint (epoch 1); epoch 0 remains.
        let newest = checkpoint::scan(&dir).unwrap().remove(0);
        assert_eq!(newest.epoch, 1);
        let mut bytes = std::fs::read(&newest.path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0x80;
        std::fs::write(&newest.path, &bytes).unwrap();

        let (reopened, recovery) = DurableStore::open_with_registry(&dir, &registry).unwrap();
        assert_eq!(recovery.corrupt_checkpoints, 1);
        assert_eq!(recovery.checkpoint_epoch, 0);
        // Strictly older valid state: the log was truncated at the
        // checkpoint, so the head is epoch 0.
        assert_eq!(reopened.head().epoch(), 0);
        assert_eq!(reopened.head().index(), epoch0.index());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_counts_fsyncs_and_replays() {
        let dir = tmp_dir("metrics");
        let (mut mat, e, cfg) = base(6);
        let epoch0 = construct_epoch(&mat, &e, &cfg).unwrap();
        let registry = Registry::new();
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        let fsyncs = registry.counter("durability.fsyncs", &[]);
        let created = fsyncs.get();
        assert!(created >= 2, "create fsyncs twice, got {created}");
        assert_eq!(store.wal_bytes().unwrap(), 0, "an empty log has no bytes");
        let delta = touch(&mut mat, 1, 1);
        store
            .advance_with_registry(&mat, &delta, &registry)
            .unwrap();
        assert_eq!(fsyncs.get() - created, 1, "one fsync per journaled delta");
        assert!(store.wal_bytes().unwrap() > 0);
        drop(store);
        DurableStore::open_with_registry(&dir, &registry).unwrap();

        assert_eq!(registry.counter("durability.wal_records", &[]).get(), 1);
        assert_eq!(
            registry.counter("durability.replayed_records", &[]).get(),
            1
        );
        assert_eq!(registry.histogram("durability.recovery_ns", &[]).count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
