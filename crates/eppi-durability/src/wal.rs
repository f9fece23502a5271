//! The write-ahead delta log.
//!
//! An append-only file of framed [`WalRecord`]s, one per applied
//! [`IndexDelta`]:
//!
//! ```text
//! ┌───────────┬───────────┬────────────────────┐
//! │ len  u32  │ crc32 u32 │ payload (len bytes)│  … repeated
//! └───────────┴───────────┴────────────────────┘
//! ```
//!
//! Frames, payloads and the `ADT1` audit trailer are written and read
//! through `eppi_index::codec`'s one `Writer` / `Reader` (DESIGN.md
//! §11), so no count is trusted past the input's allocation cap. The
//! CRC-32 covers the payload only, so a frame is self-validating:
//! recovery walks frames from the start and stops at the first defect —
//! a header cut short, a payload longer than the remaining file, a
//! checksum mismatch or a malformed payload. Everything before the
//! defect is the *valid prefix*; everything after is a torn tail the
//! store discards and truncates away ([`TailDefect`] names the reason).
//!
//! A payload carries the full replay input of one delta: the lineage
//! generation, the epoch number it produces, the delta's entries, and —
//! crucially — the **new membership column** of every touched owner.
//! [`construct_delta`](eppi_protocol::construct_delta) reads only the
//! touched columns of the new matrix, so these bitmaps are exactly the
//! data needed to re-run the construction deterministically: replay of
//! a journaled record is bit-identical to the run that journaled it.
//!
//! Every append ends in `fdatasync` before the record is considered
//! journaled — the store installs a delta only after its record is
//! durable.

use crate::error::StoreError;
use eppi_audit::ColumnCommitment;
use eppi_core::commit::Digest256;
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_index::codec::{ensure, for_each_one, from_tag, pack_bits, Reader, Writer};
use eppi_index::CodecError;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::mem::size_of;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why the tail of a log (or its replay) was discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TailDefect {
    /// Fewer than 8 bytes left — the frame header itself is torn.
    TornHeader,
    /// The header promises more payload bytes than the file holds.
    TornPayload,
    /// The stored CRC-32 disagrees with the payload.
    Checksum,
    /// The payload passed its checksum but failed structural decoding
    /// (only possible under targeted corruption, not a torn write).
    Malformed,
    /// A structurally valid record belongs to a different lineage
    /// generation than the recovered checkpoint (stale pre-re-anchor
    /// tail).
    ForeignLineage,
    /// A structurally valid record skips ahead in the epoch sequence.
    EpochGap,
    /// The record does not fit the recovered epoch: its dimensions
    /// disagree with the head's, or the protocol layer rejected it.
    InvalidState,
}

/// One journaled delta: everything replay needs to re-run its
/// [`construct_delta`](eppi_protocol::construct_delta) bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Lineage generation (bumped by re-anchoring); replay refuses
    /// records from a generation other than the checkpoint's.
    pub lineage: u64,
    /// The epoch number this delta produces (`previous + 1`).
    pub epoch: u64,
    /// Provider count of the lineage.
    pub providers: usize,
    /// The owner-column change batch.
    pub delta: IndexDelta,
    /// `columns[t]`: the new membership column of `delta.touched()[t]`,
    /// packed LSB-first into bytes (`⌈providers/8⌉` each).
    pub columns: Vec<Vec<u8>>,
    /// Publication commitments of the epoch this record produces, one
    /// per provider (empty for an unaudited lineage). Encoded as a
    /// magic-tagged trailing section, so pre-audit records decode
    /// unchanged.
    pub commitments: Vec<ColumnCommitment>,
}

/// Magic opening a record's trailing audit section (`ADT1`, shared with
/// the audited checkpoint envelope):
///
/// ```text
/// "ADT1" count u32, count × (provider u32, owners u32, published [32], decisions [32])
/// ```
const AUDIT_MAGIC: &[u8; 4] = b"ADT1";

pub(crate) fn write_commitments(w: &mut Writer, commitments: &[ColumnCommitment]) {
    w.bytes(AUDIT_MAGIC);
    w.len32(commitments.len());
    for c in commitments {
        w.u32(c.provider.0);
        w.u32(c.owners);
        w.bytes(&c.published.to_bytes());
        w.bytes(&c.decisions.to_bytes());
    }
}

pub(crate) fn read_commitments(r: &mut Reader<'_>) -> Result<Vec<ColumnCommitment>, CodecError> {
    r.magic(AUDIT_MAGIC)?;
    let count = r.u32()? as usize;
    let mut out = Vec::with_capacity(r.reserve(count, size_of::<ColumnCommitment>())?);
    for _ in 0..count {
        out.push(ColumnCommitment {
            provider: ProviderId(r.u32()?),
            owners: r.u32()?,
            published: Digest256::from_bytes(&r.array()?),
            decisions: Digest256::from_bytes(&r.array()?),
        });
    }
    Ok(out)
}

/// Bytes per journaled delta entry: owner u32, change tag u8, ε f64.
const ENTRY_BYTES: usize = 4 + 1 + 8;

/// The change kinds in tag order.
const CHANGES: [ColumnChange; 3] = [
    ColumnChange::Added,
    ColumnChange::Changed,
    ColumnChange::Withdrawn,
];

impl WalRecord {
    /// Captures the replay input of one delta from the new full matrix
    /// (only the touched columns are read, mirroring what
    /// `construct_delta` consumes).
    pub fn capture(
        lineage: u64,
        epoch: u64,
        delta: &IndexDelta,
        matrix: &MembershipMatrix,
    ) -> WalRecord {
        let m = matrix.providers();
        let columns = delta
            .touched()
            .into_iter()
            .map(|owner| pack_bits(m, matrix.provider_ids().map(|p| matrix.get(p, owner))))
            .collect();
        WalRecord {
            lineage,
            epoch,
            providers: m,
            delta: delta.clone(),
            columns,
            commitments: Vec::new(),
        }
    }

    /// Synthesizes the matrix replay hands to `construct_delta`: full
    /// dimensions, with only the touched columns populated (exactly the
    /// columns the incremental construction reads). Allocates
    /// `providers × owners` bits: check both against the lineage first.
    pub fn matrix(&self) -> MembershipMatrix {
        let mut matrix = MembershipMatrix::new(self.providers, self.delta.owners());
        for (col, owner) in self.columns.iter().zip(self.delta.touched()) {
            for_each_one(col, |p| {
                if p < self.providers {
                    matrix.set(ProviderId(p as u32), owner, true);
                }
            });
        }
        matrix
    }

    /// Serializes the payload (the frame header is added by
    /// [`Wal::append`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let cb = self.providers.div_ceil(8);
        let mut w = Writer::with_capacity(32 + self.delta.len() * (ENTRY_BYTES + cb));
        w.u64(self.lineage);
        w.u64(self.epoch);
        w.len32(self.providers);
        w.len32(self.delta.base_owners());
        w.len32(self.delta.owners());
        w.len32(self.delta.len());
        for entry in self.delta.entries() {
            w.u32(entry.owner.0);
            w.u8(match entry.change {
                ColumnChange::Added => 0,
                ColumnChange::Changed => 1,
                ColumnChange::Withdrawn => 2,
            });
            w.f64(entry.epsilon.value());
        }
        self.columns.iter().for_each(|col| w.bytes(col));
        if !self.commitments.is_empty() {
            write_commitments(&mut w, &self.commitments);
        }
        w.finish()
    }

    /// Decodes one payload, re-validating every structural invariant a
    /// live [`IndexDelta`] enforces (ascending unique owners, dense
    /// appends, `Added ⇔ new column`, ε in domain) so that corrupt
    /// bytes yield a typed error rather than a downstream panic.
    ///
    /// # Errors
    ///
    /// [`CodecError`] naming the defect.
    pub fn decode_payload(bytes: &[u8]) -> Result<WalRecord, CodecError> {
        let mut r = Reader::new(bytes);
        let lineage = r.u64()?;
        let epoch = r.u64()?;
        let providers = r.u32()? as usize;
        let base_owners = r.u32()? as usize;
        let owners = r.u32()? as usize;
        let k = r.u32()? as usize;
        ensure(owners >= base_owners, "wal owners")?;
        let cb = providers.div_ceil(8);
        let mut entries = Reader::new(r.take(k.saturating_mul(ENTRY_BYTES))?);
        let columns = r.take(k.saturating_mul(cb))?;
        r.reserve(k, size_of::<Vec<u8>>() + cb)?;
        // Anything past the columns is either a magic-tagged audit
        // section or trailing garbage; the latter stays an error.
        let commitments = if r.remaining() == 0 {
            Vec::new()
        } else if r.clone().magic(AUDIT_MAGIC).is_ok() {
            read_commitments(&mut r)?
        } else {
            return Err(CodecError::TrailingBytes(r.remaining()));
        };
        r.finish()?;
        let mut delta = IndexDelta::new(base_owners);
        let mut prev_owner: Option<u32> = None;
        for _ in 0..k {
            let owner = entries.u32()?;
            let change = from_tag("wal change", entries.u8()?, &CHANGES)?;
            let raw = entries.f64()?;
            ensure(prev_owner.is_none_or(|p| owner > p), "wal owner order")?;
            prev_owner = Some(owner);
            // The encoder writes the canonical kind; `try_record` would
            // quietly normalize a new column to Added.
            let new_column = owner as usize >= base_owners;
            let canonical = !new_column || change == ColumnChange::Added;
            ensure(canonical, "wal change kind")?;
            let epsilon = Epsilon::new(raw).map_err(|_| CodecError::InvalidEpsilon { owner })?;
            let owner = OwnerId(owner);
            // An old column can only be mis-marked Added, a new one can
            // only leave a gap.
            let recorded = delta.try_record(DeltaEntry {
                owner,
                change,
                epsilon,
            });
            ensure(recorded.is_ok() || new_column, "wal change kind")?;
            ensure(recorded.is_ok(), "wal owner index")?;
        }
        ensure(delta.owners() == owners, "wal owner count")?;
        let column = |t: usize| columns.get(t * cb..(t + 1) * cb).unwrap_or_default();
        let columns = (0..k).map(|t| column(t).to_vec()).collect();
        Ok(WalRecord {
            lineage,
            epoch,
            providers,
            delta,
            columns,
            commitments,
        })
    }
}

/// Receipt of one durable append.
#[derive(Debug, Clone, Copy)]
pub struct AppendReceipt {
    /// Frame bytes written (header + payload).
    pub bytes: u64,
    /// Wall time of the `fdatasync` making the record durable.
    pub fsync_wall: Duration,
}

/// One scanned frame: the decoded record and the file offset one past
/// its frame (the valid prefix length if this is the last good frame).
#[derive(Debug, Clone)]
pub struct ScannedFrame {
    /// The decoded record.
    pub record: WalRecord,
    /// Offset one past this frame.
    pub end: u64,
}

/// Result of scanning a log file for its valid frame prefix.
#[derive(Debug, Clone, Default)]
pub struct WalScan {
    /// The structurally valid frames, in file order.
    pub frames: Vec<ScannedFrame>,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Why scanning stopped before the end of the file, if it did.
    pub defect: Option<TailDefect>,
}

/// Append handle on a log file.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, positioned for
    /// appending.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn open(path: impl Into<PathBuf>) -> Result<Wal, StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io("open", &path, e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", &path, e))?;
        Ok(Wal { path, file })
    }

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn len(&self) -> Result<u64, StoreError> {
        Ok(self
            .file
            .metadata()
            .map_err(|e| StoreError::io("stat", &self.path, e))?
            .len())
    }

    /// `true` when the log holds no frames.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn is_empty(&self) -> Result<bool, StoreError> {
        Ok(self.len()? == 0)
    }

    /// Appends one record and syncs it to disk; the record counts as
    /// journaled only once this returns.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn append(&mut self, record: &WalRecord) -> Result<AppendReceipt, StoreError> {
        let payload = record.encode_payload();
        let mut frame = Writer::with_capacity(8 + payload.len());
        frame.frame(&payload);
        let frame = frame.finish();
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &self.path, e))?;
        let t = Instant::now();
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync", &self.path, e))?;
        Ok(AppendReceipt {
            bytes: frame.len() as u64,
            fsync_wall: t.elapsed(),
        })
    }

    /// Truncates the log to `len` bytes (recovery discarding a torn
    /// tail) and syncs.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn truncate_to(&mut self, len: u64) -> Result<(), StoreError> {
        self.file
            .set_len(len)
            .map_err(|e| StoreError::io("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", &self.path, e))?;
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("fsync", &self.path, e))?;
        Ok(())
    }

    /// Empties the log (after a checkpoint made its content redundant).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`].
    pub fn clear(&mut self) -> Result<(), StoreError> {
        self.truncate_to(0)
    }

    /// Scans the file at `path` for its valid frame prefix. A missing
    /// file scans as empty; scanning stops (without error) at the first
    /// defective frame.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] for read failures only — corruption is
    /// reported in [`WalScan::defect`], not as an error.
    pub fn scan(path: &Path) -> Result<WalScan, StoreError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalScan::default());
            }
            Err(e) => return Err(StoreError::io("read", path, e)),
        };
        let mut scan = WalScan {
            file_len: bytes.len() as u64,
            ..WalScan::default()
        };
        let mut r = Reader::new(&bytes);
        scan.defect = loop {
            match r.remaining() {
                0 => break None,
                1..8 => break Some(TailDefect::TornHeader),
                _ => {}
            }
            let record = match r.frame().map(WalRecord::decode_payload) {
                Ok(Ok(record)) => record,
                Ok(Err(_)) => break Some(TailDefect::Malformed),
                Err(CodecError::BadChecksum { .. }) => break Some(TailDefect::Checksum),
                Err(_) => break Some(TailDefect::TornPayload),
            };
            let end = (bytes.len() - r.remaining()) as u64;
            scan.frames.push(ScannedFrame { record, end });
        };
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::OwnerId;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn sample_record(lineage: u64, epoch: u64) -> WalRecord {
        let mut matrix = MembershipMatrix::new(10, 5);
        matrix.set(ProviderId(0), OwnerId(1), true);
        matrix.set(ProviderId(9), OwnerId(1), true);
        matrix.set(ProviderId(3), OwnerId(4), true);
        let mut delta = IndexDelta::new(4);
        delta.record(DeltaEntry {
            owner: OwnerId(1),
            change: ColumnChange::Changed,
            epsilon: eps(0.5),
        });
        delta.record(DeltaEntry {
            owner: OwnerId(4),
            change: ColumnChange::Added,
            epsilon: eps(0.25),
        });
        WalRecord::capture(lineage, epoch, &delta, &matrix)
    }

    #[test]
    fn payload_roundtrips() {
        let record = sample_record(3, 17);
        let back = WalRecord::decode_payload(&record.encode_payload()).expect("roundtrip");
        assert_eq!(back, record);
        // The synthesized matrix reproduces the touched columns.
        let matrix = back.matrix();
        assert!(matrix.get(ProviderId(0), OwnerId(1)));
        assert!(matrix.get(ProviderId(9), OwnerId(1)));
        assert!(matrix.get(ProviderId(3), OwnerId(4)));
        assert_eq!(matrix.ones(), 3);
        assert_eq!(matrix.owners(), 5);
    }

    #[test]
    fn append_scan_roundtrips_and_detects_torn_tails() {
        let dir = std::env::temp_dir().join(format!("eppi-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let _ = std::fs::remove_file(&path);

        let mut wal = Wal::open(&path).unwrap();
        let a = sample_record(0, 1);
        let b = sample_record(0, 2);
        let ra = wal.append(&a).unwrap();
        let rb = wal.append(&b).unwrap();
        assert_eq!(wal.len().unwrap(), ra.bytes + rb.bytes);

        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[1].record, b);
        assert!(scan.defect.is_none());
        assert_eq!(scan.frames[1].end, scan.file_len);

        // Cut the last frame short: the first frame survives, the tail
        // is reported torn.
        wal.truncate_to(ra.bytes + 5).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].record, a);
        assert_eq!(scan.defect, Some(TailDefect::TornHeader));

        // Flip a payload byte of the only remaining frame.
        wal.truncate_to(ra.bytes).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.frames.is_empty());
        assert_eq!(scan.defect, Some(TailDefect::Checksum));

        std::fs::remove_file(&path).unwrap();
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.frames.is_empty() && scan.defect.is_none());
    }

    #[test]
    fn hostile_payloads_yield_typed_errors() {
        let record = sample_record(1, 2);
        let good = record.encode_payload();
        // Declared owner count below base.
        let mut bad = good.clone();
        bad[24..28].copy_from_slice(&1u32.to_le_bytes());
        assert!(WalRecord::decode_payload(&bad).is_err());
        // Unknown change tag.
        let mut bad = good.clone();
        bad[32 + 4] = 9;
        assert!(matches!(
            WalRecord::decode_payload(&bad),
            Err(CodecError::UnknownTag { .. })
        ));
        // Out-of-domain epsilon.
        let mut bad = good.clone();
        bad[32 + 5..32 + 13].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&bad),
            Err(CodecError::InvalidEpsilon { .. })
        ));
        // An added column that skips an index (base 4, first add at 5).
        let mut bad = good.clone();
        bad[45..49].copy_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&bad),
            Err(CodecError::InvalidField {
                field: "wal owner index"
            })
        ));
        // An old column marked Added, and a new one marked Changed.
        for (tag_at, tag) in [(32 + 4, 0u8), (45 + 4, 1u8)] {
            let mut bad = good.clone();
            bad[tag_at] = tag;
            assert!(matches!(
                WalRecord::decode_payload(&bad),
                Err(CodecError::InvalidField {
                    field: "wal change kind"
                })
            ));
        }
        // Truncated and oversized payloads.
        assert!(WalRecord::decode_payload(&good[..good.len() - 1]).is_err());
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            WalRecord::decode_payload(&long),
            Err(CodecError::TrailingBytes(1))
        ));
        // A huge declared k must not allocate.
        let mut huge = good.clone();
        huge[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            WalRecord::decode_payload(&huge),
            Err(CodecError::Truncated { .. })
        ));
    }
}
