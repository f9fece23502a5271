//! Warm-boot cache for serving-layout snapshots.
//!
//! The durable store's checkpoints persist *protocol* state (v2 epoch
//! records); a serve node restoring from one still pays a full
//! re-shard — transpose, routing, and (for the compressed backend)
//! re-encoding every row — before it can answer a query. This module
//! caches the finished serving layout itself as an EPPI v3 frame
//! ([`eppi_index::codec::ServeSnapshotRecord`]): shard-map manifest,
//! per-shard owner lists, and the physical row blocks in whichever
//! backend the engine runs.
//!
//! Writes go through the checkpoint's atomic write (DESIGN.md §11):
//! serialize to a temp file, `fsync`, `rename(2)` into place, `fsync`
//! the directory. The cache is *advisory* — a missing, torn, or corrupt
//! file means a cold (re-shard) boot, never a wrong answer — so
//! [`load_serve_snapshot`] reports corruption as `Ok(None)` after the
//! codec rejects it, and only surfaces real I/O failures as errors. The
//! caller is responsible for checking the restored snapshot's version
//! against its lineage before serving it.

use crate::checkpoint::write_file_atomic;
use crate::error::StoreError;
use eppi_index::codec::{decode_serve_snapshot, encode_serve_snapshot, ServeSnapshotRecord};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The cache file name inside a store directory.
pub const SERVE_CACHE_FILE: &str = "serve-snapshot.eppi";

const TMP_NAME: &str = "serve-snapshot.tmp";

/// The cache file path inside `dir`.
pub fn cache_path(dir: &Path) -> PathBuf {
    dir.join(SERVE_CACHE_FILE)
}

/// Atomically writes `record` as the directory's serve cache,
/// replacing any previous one. Returns the encoded byte count.
///
/// # Errors
///
/// [`StoreError::Io`] if any filesystem step fails; the previous cache
/// file (if any) is untouched unless the final rename succeeded.
pub fn save_serve_snapshot(dir: &Path, record: &ServeSnapshotRecord) -> Result<u64, StoreError> {
    let bytes = encode_serve_snapshot(record);
    write_file_atomic(dir, TMP_NAME, SERVE_CACHE_FILE, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads the directory's serve cache, if a valid one exists.
///
/// Returns `Ok(None)` when the file is absent *or* fails the codec's
/// validation (bad checksum, truncation, version mismatch): an invalid
/// cache is indistinguishable from a crash mid-replacement, and the
/// correct response to either is a cold boot, not a refusal to start.
///
/// # Errors
///
/// [`StoreError::Io`] only for real I/O failures (permissions, device
/// errors) — not for a missing or corrupt file.
pub fn load_serve_snapshot(dir: &Path) -> Result<Option<ServeSnapshotRecord>, StoreError> {
    let path = cache_path(dir);
    let bytes = match fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(StoreError::io("read", &path, e)),
    };
    Ok(decode_serve_snapshot(&bytes).ok())
}

/// Removes the cache file, if present (e.g. after a re-anchor that
/// invalidates the cached lineage).
///
/// # Errors
///
/// [`StoreError::Io`] for any failure other than the file already
/// being absent.
pub fn invalidate_serve_snapshot(dir: &Path) -> Result<(), StoreError> {
    let path = cache_path(dir);
    match fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError::io("remove", &path, e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::rowstore::RowBackend;
    use eppi_index::codec::{ServeShardRecord, ShardRowsRecord};

    fn sample_record() -> ServeSnapshotRecord {
        // 3 owners over 100 providers (2 words per row), 2 base shards:
        // owners 0 and 2 hash-route to shard 1, owner 1 to shard 0,
        // under the Fibonacci multiply-shift (matching eppi-serve's
        // routing, though the cache layer itself does not care).
        ServeSnapshotRecord {
            snapshot_version: 4,
            backend: RowBackend::Dense,
            providers: 100,
            betas: vec![0.5, 0.25, 1.0],
            base_shards: 2,
            base_owners: 3,
            append_capacity: 8192,
            shards: vec![
                ServeShardRecord {
                    owners: vec![1],
                    rows: ShardRowsRecord::Dense(vec![0xff, 0x1]),
                },
                ServeShardRecord {
                    owners: vec![0, 2],
                    rows: ShardRowsRecord::Dense(vec![0b1010, 0, u64::MAX, 0xf]),
                },
            ],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eppi-serve-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_roundtrip_and_replacement() {
        let dir = temp_dir("roundtrip");
        assert_eq!(load_serve_snapshot(&dir).unwrap(), None, "empty dir");

        let record = sample_record();
        let bytes = save_serve_snapshot(&dir, &record).unwrap();
        assert!(bytes > 0);
        assert!(!dir.join(TMP_NAME).exists(), "temp renamed away");
        assert_eq!(load_serve_snapshot(&dir).unwrap(), Some(record.clone()));

        // Replacement wins atomically.
        let mut next = record;
        next.snapshot_version = 5;
        save_serve_snapshot(&dir, &next).unwrap();
        assert_eq!(
            load_serve_snapshot(&dir).unwrap().unwrap().snapshot_version,
            5
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_or_torn_cache_reads_as_cold_boot() {
        let dir = temp_dir("corrupt");
        save_serve_snapshot(&dir, &sample_record()).unwrap();

        // Flip a byte: checksum rejects, load says cold boot.
        let path = cache_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(load_serve_snapshot(&dir).unwrap(), None);

        // Truncate: same.
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(load_serve_snapshot(&dir).unwrap(), None);

        // A v2 epoch record under the cache name: version-rejected.
        fs::write(&path, b"EPPI\x02\x00junk").unwrap();
        assert_eq!(load_serve_snapshot(&dir).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalidate_is_idempotent() {
        let dir = temp_dir("invalidate");
        invalidate_serve_snapshot(&dir).unwrap();
        save_serve_snapshot(&dir, &sample_record()).unwrap();
        invalidate_serve_snapshot(&dir).unwrap();
        assert_eq!(load_serve_snapshot(&dir).unwrap(), None);
        invalidate_serve_snapshot(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }
}
