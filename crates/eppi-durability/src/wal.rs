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
//! The CRC-32 covers the payload only, so a frame is self-validating:
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
use eppi_index::{crc32, CodecError};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
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
    /// The record replayed onto the recovered epoch was rejected by the
    /// protocol layer (dimensions no longer fit the lineage).
    InvalidState,
}

impl fmt::Display for TailDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TailDefect::TornHeader => "torn frame header",
            TailDefect::TornPayload => "torn payload",
            TailDefect::Checksum => "checksum mismatch",
            TailDefect::Malformed => "malformed payload",
            TailDefect::ForeignLineage => "foreign lineage generation",
            TailDefect::EpochGap => "epoch sequence gap",
            TailDefect::InvalidState => "record rejected by the protocol layer",
        };
        f.write_str(s)
    }
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

/// Magic tag opening a record's trailing audit section. Chosen so it
/// cannot be confused with the `TrailingBytes` garbage the strict
/// decoder otherwise rejects.
const AUDIT_MAGIC: u32 = u32::from_le_bytes(*b"ADT1");

/// Bytes per commitment entry: provider + owners + two 32-byte digests.
const COMMITMENT_BYTES: usize = 4 + 4 + 32 + 32;

pub(crate) fn encode_commitments(out: &mut Vec<u8>, commitments: &[ColumnCommitment]) {
    out.extend_from_slice(&AUDIT_MAGIC.to_le_bytes());
    out.extend_from_slice(&(commitments.len() as u32).to_le_bytes());
    for c in commitments {
        out.extend_from_slice(&c.provider.0.to_le_bytes());
        out.extend_from_slice(&c.owners.to_le_bytes());
        out.extend_from_slice(&c.published.to_bytes());
        out.extend_from_slice(&c.decisions.to_bytes());
    }
}

pub(crate) fn decode_commitments(bytes: &[u8]) -> Result<Vec<ColumnCommitment>, CodecError> {
    const HEADER: usize = 8;
    if bytes.len() < HEADER {
        return Err(CodecError::Truncated {
            expected: HEADER,
            actual: bytes.len(),
        });
    }
    if u32::from_le_bytes(bytes[..4].try_into().unwrap()) != AUDIT_MAGIC {
        return Err(CodecError::InvalidField {
            field: "audit magic",
        });
    }
    let count = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
    let need = HEADER as u128 + count as u128 * COMMITMENT_BYTES as u128;
    if need != bytes.len() as u128 {
        return Err(if need > bytes.len() as u128 {
            CodecError::Truncated {
                expected: need.min(usize::MAX as u128) as usize,
                actual: bytes.len(),
            }
        } else {
            CodecError::TrailingBytes(bytes.len() - need as usize)
        });
    }
    Ok((0..count)
        .map(|i| {
            let at = HEADER + i * COMMITMENT_BYTES;
            ColumnCommitment {
                provider: ProviderId(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())),
                owners: u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap()),
                published: Digest256::from_bytes(bytes[at + 8..at + 40].try_into().unwrap()),
                decisions: Digest256::from_bytes(bytes[at + 40..at + 72].try_into().unwrap()),
            }
        })
        .collect())
}

fn column_bytes(providers: usize) -> usize {
    providers.div_ceil(8)
}

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
            .iter()
            .map(|&owner| {
                let mut col = vec![0u8; column_bytes(m)];
                for p in 0..m {
                    if matrix.get(ProviderId(p as u32), owner) {
                        col[p / 8] |= 1 << (p % 8);
                    }
                }
                col
            })
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
    /// columns the incremental construction reads).
    pub fn matrix(&self) -> MembershipMatrix {
        let mut matrix = MembershipMatrix::new(self.providers, self.delta.owners());
        for (col, &owner) in self.columns.iter().zip(self.delta.touched().iter()) {
            for p in 0..self.providers {
                if col[p / 8] & (1 << (p % 8)) != 0 {
                    matrix.set(ProviderId(p as u32), owner, true);
                }
            }
        }
        matrix
    }

    /// Serializes the payload (the frame header is added by
    /// [`Wal::append`]).
    pub fn encode_payload(&self) -> Vec<u8> {
        let k = self.delta.len();
        let cb = column_bytes(self.providers);
        debug_assert!(self.columns.iter().all(|c| c.len() == cb));
        let mut out = Vec::with_capacity(32 + k * (13 + cb));
        out.extend_from_slice(&self.lineage.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&(self.providers as u32).to_le_bytes());
        out.extend_from_slice(&(self.delta.base_owners() as u32).to_le_bytes());
        out.extend_from_slice(&(self.delta.owners() as u32).to_le_bytes());
        out.extend_from_slice(&(k as u32).to_le_bytes());
        for entry in self.delta.entries() {
            out.extend_from_slice(&entry.owner.0.to_le_bytes());
            out.push(match entry.change {
                ColumnChange::Added => 0,
                ColumnChange::Changed => 1,
                ColumnChange::Withdrawn => 2,
            });
            out.extend_from_slice(&entry.epsilon.value().to_le_bytes());
        }
        for col in &self.columns {
            out.extend_from_slice(col);
        }
        if !self.commitments.is_empty() {
            encode_commitments(&mut out, &self.commitments);
        }
        out
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
        const HEADER: usize = 8 + 8 + 4 + 4 + 4 + 4;
        if bytes.len() < HEADER {
            return Err(CodecError::Truncated {
                expected: HEADER,
                actual: bytes.len(),
            });
        }
        let u64_at = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
        let lineage = u64_at(0);
        let epoch = u64_at(8);
        let providers = u32_at(16) as usize;
        let base_owners = u32_at(20) as usize;
        let owners = u32_at(24) as usize;
        let k = u32_at(28) as usize;
        if owners < base_owners {
            return Err(CodecError::InvalidField {
                field: "wal owners",
            });
        }
        let cb = column_bytes(providers);
        let need = HEADER as u128 + k as u128 * (13 + cb as u128);
        if need > bytes.len() as u128 {
            return Err(CodecError::Truncated {
                expected: need.min(usize::MAX as u128) as usize,
                actual: bytes.len(),
            });
        }
        // Anything past the columns is either a magic-tagged audit
        // section or trailing garbage; the latter stays an error.
        let trailer = &bytes[need as usize..];
        let commitments = if trailer.is_empty() {
            Vec::new()
        } else if trailer.len() >= 4 && trailer[..4] == AUDIT_MAGIC.to_le_bytes() {
            decode_commitments(trailer)?
        } else {
            return Err(CodecError::TrailingBytes(trailer.len()));
        };
        let mut delta = IndexDelta::new(base_owners);
        let mut cursor = HEADER;
        let mut prev_owner: Option<u32> = None;
        for _ in 0..k {
            let owner = u32_at(cursor);
            let change = match bytes[cursor + 4] {
                0 => ColumnChange::Added,
                1 => ColumnChange::Changed,
                2 => ColumnChange::Withdrawn,
                tag => {
                    return Err(CodecError::UnknownTag {
                        field: "wal change",
                        tag,
                    })
                }
            };
            let raw = f64::from_le_bytes(bytes[cursor + 5..cursor + 13].try_into().unwrap());
            cursor += 13;
            if prev_owner.is_some_and(|p| owner <= p) {
                return Err(CodecError::InvalidField {
                    field: "wal owner order",
                });
            }
            prev_owner = Some(owner);
            // The encoder writes the canonical kind; `try_record` would
            // quietly normalize a new column to Added.
            let new_column = owner as usize >= base_owners;
            if new_column && change != ColumnChange::Added {
                return Err(CodecError::InvalidField {
                    field: "wal change kind",
                });
            }
            let epsilon = Epsilon::new(raw).map_err(|_| CodecError::InvalidEpsilon { owner })?;
            let entry = DeltaEntry {
                owner: OwnerId(owner),
                change,
                epsilon,
            };
            // An old column can only be mis-marked Added, a new one can
            // only leave a gap.
            delta
                .try_record(entry)
                .map_err(|_| CodecError::InvalidField {
                    field: if new_column {
                        "wal owner index"
                    } else {
                        "wal change kind"
                    },
                })?;
        }
        if delta.owners() != owners {
            return Err(CodecError::InvalidField {
                field: "wal owner count",
            });
        }
        let columns = (0..k)
            .map(|t| bytes[cursor + t * cb..cursor + (t + 1) * cb].to_vec())
            .collect();
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

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
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
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
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
        let mut bytes = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)
                    .map_err(|e| StoreError::io("read", path, e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(WalScan::default());
            }
            Err(e) => return Err(StoreError::io("open", path, e)),
        }
        let mut scan = WalScan {
            file_len: bytes.len() as u64,
            ..WalScan::default()
        };
        let mut at = 0usize;
        while at < bytes.len() {
            if bytes.len() - at < 8 {
                scan.defect = Some(TailDefect::TornHeader);
                break;
            }
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let stored = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
            if bytes.len() - at - 8 < len {
                scan.defect = Some(TailDefect::TornPayload);
                break;
            }
            let payload = &bytes[at + 8..at + 8 + len];
            if crc32(payload) != stored {
                scan.defect = Some(TailDefect::Checksum);
                break;
            }
            match WalRecord::decode_payload(payload) {
                Ok(record) => {
                    at += 8 + len;
                    scan.frames.push(ScannedFrame {
                        record,
                        end: at as u64,
                    });
                }
                Err(_) => {
                    scan.defect = Some(TailDefect::Malformed);
                    break;
                }
            }
        }
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
