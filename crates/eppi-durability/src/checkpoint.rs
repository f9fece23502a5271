//! Atomic epoch checkpoints.
//!
//! A checkpoint is one EPPI v2 epoch record written atomically by
//! `write_file_atomic` (which the serve cache shares): serialize to
//! `checkpoint.tmp`, `fsync` the file, `rename(2)` it into place,
//! `fsync` the directory. A crash at any byte boundary leaves either
//! the old file set intact or the new file fully present — never a
//! half-written checkpoint under a valid name (the temp file is ignored
//! by recovery and clobbered by the next attempt). An audited lineage
//! wraps the record in the `EPAC` envelope with its `ADT1` commitment
//! section.
//!
//! File names carry the full recovery ordering:
//!
//! ```text
//! checkpoint-{lineage:010}-{epoch:020}.eppi
//! ```
//!
//! `lineage` is the re-anchor generation: an operator-triggered
//! re-anchor starts a fresh epoch-0 lineage whose files must win over
//! any epoch number of the previous generation, so recovery orders
//! candidates by `(lineage, epoch)` descending and takes the first one
//! that decodes. Older files are pruned down to a small retention set
//! so a latent corruption of the newest checkpoint still leaves a valid
//! (strictly older) fallback.

use crate::epoch_codec::{decode_epoch, encode_epoch};
use crate::error::StoreError;
use crate::wal::{read_commitments, write_commitments};
use eppi_audit::ColumnCommitment;
use eppi_index::codec::{Reader, Writer};
use eppi_protocol::IndexEpoch;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PREFIX: &str = "checkpoint-";
const SUFFIX: &str = ".eppi";
const TMP_NAME: &str = "checkpoint.tmp";

/// Magic opening an *audited* checkpoint envelope:
///
/// ```text
/// [u32 "EPAC"][u32 record_len][epoch record][audit section]
/// ```
///
/// A legacy checkpoint is the bare epoch record (which starts with the
/// v2 codec's own `"EPPI"` magic, so the two are unambiguous); the
/// loader accepts both.
const ENVELOPE_MAGIC: &[u8; 4] = b"EPAC";

/// One checkpoint file candidate found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Re-anchor generation parsed from the file name.
    pub lineage: u64,
    /// Epoch number parsed from the file name.
    pub epoch: u64,
    /// The file path.
    pub path: PathBuf,
}

/// The checkpoint file name for `(lineage, epoch)`.
pub fn file_name(lineage: u64, epoch: u64) -> String {
    format!("{PREFIX}{lineage:010}-{epoch:020}{SUFFIX}")
}

fn parse_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
    let (lineage, epoch) = rest.split_once('-')?;
    if lineage.len() != 10 || epoch.len() != 20 {
        return None;
    }
    Some((lineage.parse().ok()?, epoch.parse().ok()?))
}

/// Timing/size receipt of one atomic checkpoint write.
#[derive(Debug, Clone, Copy)]
pub struct WriteReceipt {
    /// Serialized record size in bytes.
    pub bytes: u64,
    /// Number of `fsync` calls issued (file + directory).
    pub fsyncs: u64,
    /// Total wall time spent inside `fsync`.
    pub fsync_wall: Duration,
    /// The epoch number written.
    pub epoch: u64,
}

fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    File::open(dir)
        .map_err(|e| StoreError::io("open", dir, e))?
        .sync_all()
        .map_err(|e| StoreError::io("fsync", dir, e))
}

/// Writes `bytes` as `dir/name` atomically — temp file `dir/tmp_name`,
/// `fsync`, `rename(2)`, directory `fsync` — and returns the wall time
/// spent in the two `fsync`s.
///
/// # Errors
///
/// [`StoreError::Io`]; an existing `dir/name` is untouched unless the
/// rename succeeded.
pub(crate) fn write_file_atomic(
    dir: &Path,
    tmp_name: &str,
    name: &str,
    bytes: &[u8],
) -> Result<Duration, StoreError> {
    let tmp = dir.join(tmp_name);
    let fin = dir.join(name);
    fs::write(&tmp, bytes).map_err(|e| StoreError::io("write", &tmp, e))?;
    let t = Instant::now();
    File::open(&tmp)
        .map_err(|e| StoreError::io("open", &tmp, e))?
        .sync_all()
        .map_err(|e| StoreError::io("fsync", &tmp, e))?;
    let file_sync = t.elapsed();
    fs::rename(&tmp, &fin).map_err(|e| StoreError::io("rename", &fin, e))?;
    let t = Instant::now();
    sync_dir(dir)?;
    Ok(file_sync + t.elapsed())
}

/// Atomically writes `epoch` as the `(lineage, epoch)` checkpoint of
/// `dir`, wrapping it in the audited envelope when `commitments` is
/// non-empty.
///
/// # Errors
///
/// [`StoreError::Io`].
pub fn write_atomic(
    dir: &Path,
    lineage: u64,
    epoch: &IndexEpoch,
    commitments: &[ColumnCommitment],
) -> Result<WriteReceipt, StoreError> {
    let record = encode_epoch(epoch);
    let bytes = if commitments.is_empty() {
        record
    } else {
        let mut w = Writer::with_capacity(8 + record.len() + 8 + 72 * commitments.len());
        w.bytes(ENVELOPE_MAGIC);
        w.len32(record.len());
        w.bytes(&record);
        write_commitments(&mut w, commitments);
        w.finish()
    };
    let name = file_name(lineage, epoch.epoch());
    let fsync_wall = write_file_atomic(dir, TMP_NAME, &name, &bytes)?;
    Ok(WriteReceipt {
        bytes: bytes.len() as u64,
        fsyncs: 2,
        fsync_wall,
        epoch: epoch.epoch(),
    })
}

/// Lists the checkpoint candidates of `dir`, newest first by
/// `(lineage, epoch)`. Non-checkpoint files (including the temp file)
/// are ignored; a missing directory lists as empty.
///
/// # Errors
///
/// [`StoreError::Io`].
pub fn scan(dir: &Path) -> Result<Vec<Candidate>, StoreError> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::io("read_dir", dir, e)),
    };
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read_dir", dir, e))?;
        if let Some((lineage, epoch)) = entry.file_name().to_str().and_then(parse_name) {
            out.push(Candidate {
                lineage,
                epoch,
                path: entry.path(),
            });
        }
    }
    out.sort_by_key(|c| std::cmp::Reverse((c.lineage, c.epoch)));
    Ok(out)
}

/// Loads and decodes one checkpoint file: either a bare (legacy) epoch
/// record, or the audited envelope carrying the head's publication
/// commitments alongside it.
///
/// # Errors
///
/// [`StoreError::Io`] on read failure, [`StoreError::Codec`] /
/// [`StoreError::Protocol`] on corrupt or invalid content.
pub fn load(path: &Path) -> Result<(IndexEpoch, Vec<ColumnCommitment>), StoreError> {
    let bytes = fs::read(path).map_err(|e| StoreError::io("read", path, e))?;
    if !bytes.starts_with(ENVELOPE_MAGIC) {
        return Ok((decode_epoch(&bytes)?, Vec::new()));
    }
    let mut r = Reader::new(&bytes);
    r.magic(ENVELOPE_MAGIC)?;
    let record_len = r.u32()? as usize;
    let epoch = decode_epoch(r.take(record_len)?)?;
    let commitments = read_commitments(&mut r)?;
    r.finish()?;
    Ok((epoch, commitments))
}

/// Deletes all but the newest `keep` checkpoints; returns how many were
/// removed.
///
/// # Errors
///
/// [`StoreError::Io`].
pub fn prune(dir: &Path, keep: usize) -> Result<usize, StoreError> {
    let candidates = scan(dir)?;
    let mut removed = 0;
    for stale in candidates.iter().skip(keep) {
        fs::remove_file(&stale.path).map_err(|e| StoreError::io("remove", &stale.path, e))?;
        removed += 1;
    }
    if removed > 0 {
        sync_dir(dir)?;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
    use eppi_protocol::{construct_epoch, ProtocolConfig};

    fn sample_epoch(seed: u64) -> IndexEpoch {
        let mut mat = MembershipMatrix::new(16, 3);
        for j in 0..3u32 {
            for p in 0..=j {
                mat.set(ProviderId(p * 5), OwnerId(j), true);
            }
        }
        let eps = vec![Epsilon::new(0.5).unwrap(); 3];
        let cfg = ProtocolConfig {
            seed,
            ..ProtocolConfig::default()
        };
        construct_epoch(&mat, &eps, &cfg).unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eppi-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_roundtrip_and_sort_by_lineage_then_epoch() {
        assert_eq!(parse_name(&file_name(3, 17)), Some((3, 17)));
        assert_eq!(parse_name("checkpoint.tmp"), None);
        assert_eq!(parse_name("checkpoint-x-y.eppi"), None);

        let dir = tmp_dir("sort");
        for (l, e) in [(0, 5), (0, 9), (1, 0)] {
            fs::write(dir.join(file_name(l, e)), b"x").unwrap();
        }
        let got: Vec<(u64, u64)> = scan(&dir)
            .unwrap()
            .iter()
            .map(|c| (c.lineage, c.epoch))
            .collect();
        // The re-anchored generation wins over any older epoch number.
        assert_eq!(got, vec![(1, 0), (0, 9), (0, 5)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_load_prune_cycle() {
        let dir = tmp_dir("cycle");
        let epoch = sample_epoch(7);
        let receipt = write_atomic(&dir, 0, &epoch, &[]).unwrap();
        assert!(receipt.bytes > 0);
        let found = scan(&dir).unwrap();
        assert_eq!(found.len(), 1);
        let (back, commitments) = load(&found[0].path).unwrap();
        assert_eq!(back.index(), epoch.index());
        assert!(commitments.is_empty());
        assert!(!dir.join(TMP_NAME).exists(), "temp file renamed away");

        // Write two more generations and prune down to 2.
        write_atomic(&dir, 1, &sample_epoch(8), &[]).unwrap();
        write_atomic(&dir, 2, &sample_epoch(9), &[]).unwrap();
        assert_eq!(prune(&dir, 2).unwrap(), 1);
        let left = scan(&dir).unwrap();
        assert_eq!(left.len(), 2);
        assert_eq!((left[0].lineage, left[1].lineage), (2, 1));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn audited_envelope_roundtrips_and_binds_its_commitments() {
        use eppi_protocol::{certify_epoch, AuditConfig};

        let dir = tmp_dir("audited");
        let epoch = sample_epoch(6);
        let mat = {
            let mut mat = MembershipMatrix::new(16, 3);
            for j in 0..3u32 {
                for p in 0..=j {
                    mat.set(ProviderId(p * 5), OwnerId(j), true);
                }
            }
            mat
        };
        let audit = AuditConfig::default();
        let commitments: Vec<_> = certify_epoch(&mat, &epoch, &audit)
            .into_iter()
            .map(|c| c.commitment)
            .collect();
        write_atomic(&dir, 0, &epoch, &commitments).unwrap();
        let path = scan(&dir).unwrap().remove(0).path;
        let (back, loaded) = load(&path).unwrap();
        assert_eq!(back.index(), epoch.index());
        assert_eq!(loaded, commitments);
        // A tampered envelope byte fails the CRC or the audit framing.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (_, tampered) = load(&path).unwrap();
        assert_ne!(tampered, commitments, "digest byte flip must surface");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_load_as_typed_errors() {
        let dir = tmp_dir("corrupt");
        let epoch = sample_epoch(3);
        write_atomic(&dir, 0, &epoch, &[]).unwrap();
        let path = scan(&dir).unwrap().remove(0).path;
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path), Err(StoreError::Codec(_))));
        fs::remove_dir_all(&dir).unwrap();
    }
}
