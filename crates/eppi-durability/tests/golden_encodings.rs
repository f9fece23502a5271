//! Golden encodings: the exact bytes every persisted format produces
//! for fixed sample records, pinned as a length plus an FNV-1a digest
//! per format.
//!
//! This is what "byte-identical" means for a codec refactor: the EPPI
//! v1 index, the v2 epoch record (bare and inside the audited `EPAC`
//! checkpoint envelope), the v3 serving snapshot in both row backends,
//! and the write-ahead log's payload (with and without its `ADT1`
//! commitment trailer) and frame. The samples are plain data — no
//! protocol run — so the pins move only when a format does.

use eppi_audit::ColumnCommitment;
use eppi_core::commit::Digest256;
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::policy::PolicyKind;
use eppi_core::rowstore::RowBackend;
use eppi_durability::{checkpoint, encode_epoch, Wal, WalRecord};
use eppi_index::codec::{
    encode as encode_index, encode_serve_snapshot, ServeShardRecord, ServeSnapshotRecord,
    ShardRowsRecord,
};
use eppi_net::sim::LinkModel;
use eppi_protocol::{Backend, EpochState, IndexEpoch, ProtocolConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const PROVIDERS: usize = 12;
const OWNERS: usize = 10;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 12 × 10: neither the bitmap (120 bits) nor the decisions (10 bits)
/// end on a word boundary.
fn sample_matrix() -> MembershipMatrix {
    let mut matrix = MembershipMatrix::new(PROVIDERS, OWNERS);
    for p in 0..PROVIDERS {
        for o in 0..OWNERS {
            if (p * 7 + o * 3) % 5 == 0 {
                matrix.set(ProviderId(p as u32), OwnerId(o as u32), true);
            }
        }
    }
    matrix
}

fn sample_index() -> PublishedIndex {
    PublishedIndex::new(
        sample_matrix(),
        (0..OWNERS).map(|o| o as f64 / 10.0).collect(),
    )
}

fn sample_epoch() -> IndexEpoch {
    IndexEpoch::resume(EpochState {
        index: sample_index(),
        decisions: (0..OWNERS).map(|o| o % 3 == 0).collect(),
        lambda: 0.375,
        common_count: 2,
        epoch: 9,
        thresholds: (0..OWNERS as u64).map(|o| o * 2 + 1).collect(),
        epsilons: (0..OWNERS)
            .map(|o| Epsilon::new(o as f64 / 10.0).unwrap())
            .collect(),
        // share_width(12) = 4 bits: every share below 16.
        shares: (0..3u64)
            .map(|k| (0..OWNERS as u64).map(|o| (k * 5 + o) % 16).collect())
            .collect(),
        config: ProtocolConfig {
            c: 3,
            policy: PolicyKind::Chernoff { gamma: 0.9 },
            coin_bits: 16,
            link: LinkModel {
                latency_us: 200.0,
                bandwidth_bytes_per_us: 125.0,
            },
            backend: Backend::Pipelined { workers: 2 },
            seed: 0xfeed_beef,
        },
    })
    .expect("valid sample state")
}

fn sample_commitments() -> Vec<ColumnCommitment> {
    (0..3u64)
        .map(|p| ColumnCommitment {
            provider: ProviderId(p as u32),
            owners: OWNERS as u32,
            published: Digest256([p, p + 1, p + 2, u64::MAX - p]),
            decisions: Digest256([p << 32, 7, 0, p * 11]),
        })
        .collect()
}

fn sample_wal_record() -> WalRecord {
    let eps = |v: f64| Epsilon::new(v).unwrap();
    let mut delta = IndexDelta::new(8);
    for (owner, change, epsilon) in [
        (1, ColumnChange::Changed, eps(0.5)),
        (4, ColumnChange::Withdrawn, eps(0.25)),
        (8, ColumnChange::Added, eps(0.75)),
        (9, ColumnChange::Added, eps(1.0)),
    ] {
        delta.record(DeltaEntry {
            owner: OwnerId(owner),
            change,
            epsilon,
        });
    }
    WalRecord::capture(2, 10, &delta, &sample_matrix())
}

fn sample_serve_snapshot(backend: RowBackend) -> ServeSnapshotRecord {
    // 70 providers ⇒ 2 words per row; owners 0 and 2 in shard 0, 1 in
    // shard 1.
    let rows = |dense: Vec<u64>, stream: Vec<u64>, offsets: Vec<u32>| match backend {
        RowBackend::Dense => ShardRowsRecord::Dense(dense),
        RowBackend::Compressed => ShardRowsRecord::Compressed { stream, offsets },
    };
    ServeSnapshotRecord {
        snapshot_version: 9,
        backend,
        providers: 70,
        betas: vec![0.25, 0.5, 1.0],
        base_shards: 2,
        base_owners: 3,
        append_capacity: 8192,
        shards: vec![
            ServeShardRecord {
                owners: vec![0, 2],
                rows: rows(
                    vec![0b1011, 0, u64::MAX, 0x3f],
                    vec![1 << 40 | 0b1011, 7, u64::MAX, 0x3f],
                    vec![0, 2, 4],
                ),
            },
            ServeShardRecord {
                owners: vec![1],
                rows: rows(vec![0, 1 << 63], vec![3, 1 << 63], vec![0, 2]),
            },
        ],
    }
}

/// A fresh directory per call: the tests run in parallel.
fn temp_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let call = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eppi-golden-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every format's bytes for the fixed samples, by name.
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let epoch = sample_epoch();
    let commitments = sample_commitments();
    let plain = sample_wal_record();
    let mut audited = plain.clone();
    audited.commitments = commitments.clone();

    let dir = temp_dir();
    let mut wal = Wal::open(dir.join("wal.log")).unwrap();
    wal.append(&plain).unwrap();
    wal.append(&audited).unwrap();
    let wal_frames = std::fs::read(dir.join("wal.log")).unwrap();
    let bare = checkpoint::write_atomic(&dir, 0, &epoch, &[]).unwrap();
    let envelope = checkpoint::write_atomic(&dir, 1, &epoch, &commitments).unwrap();
    let read = |lineage| std::fs::read(dir.join(checkpoint::file_name(lineage, 9))).unwrap();
    let (bare_file, envelope_file) = (read(0), read(1));
    assert_eq!(bare.bytes as usize, bare_file.len());
    assert_eq!(envelope.bytes as usize, envelope_file.len());
    std::fs::remove_dir_all(&dir).unwrap();

    vec![
        ("v1 index", encode_index(&sample_index())),
        ("v2 epoch", encode_epoch(&epoch)),
        (
            "v3 dense",
            encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Dense)),
        ),
        (
            "v3 compressed",
            encode_serve_snapshot(&sample_serve_snapshot(RowBackend::Compressed)),
        ),
        ("wal payload", plain.encode_payload()),
        ("wal payload + ADT1", audited.encode_payload()),
        ("wal frames", wal_frames),
        ("bare checkpoint", bare_file),
        ("EPAC checkpoint", envelope_file),
    ]
}

#[test]
fn every_format_encodes_to_its_pinned_bytes() {
    let pinned: [(&str, usize, u64); 9] = [
        ("v1 index", 109, 0x295090f05ed0c850),
        ("v2 epoch", 581, 0xea6b49f5e39a9a29),
        ("v3 dense", 135, 0x5225003cac41c554),
        ("v3 compressed", 163, 0xb4de60c8ab28f14a),
        ("wal payload", 92, 0xabcf23e8e1dfff8f),
        ("wal payload + ADT1", 316, 0x17a3151c524e8a8f),
        ("wal frames", 424, 0xb2a9c58df01e76fc),
        ("bare checkpoint", 581, 0xea6b49f5e39a9a29),
        ("EPAC checkpoint", 813, 0x282453dc0ed76523),
    ];
    let actual: Vec<(&str, usize, u64)> = encodings()
        .iter()
        .map(|(name, bytes)| (*name, bytes.len(), fnv1a(bytes)))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, len, digest)| format!("        (\"{name}\", {len}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(actual, pinned, "actual encodings:\n{table}");
}

#[test]
fn the_bare_checkpoint_is_the_v2_record() {
    let by_name: std::collections::HashMap<_, _> = encodings().into_iter().collect();
    assert_eq!(by_name["bare checkpoint"], by_name["v2 epoch"]);
    // The envelope wraps the same record: magic, length, record, ADT1.
    let envelope = &by_name["EPAC checkpoint"];
    let record = &by_name["v2 epoch"];
    assert_eq!(&envelope[..4], b"EPAC");
    assert_eq!(&envelope[8..8 + record.len()], &record[..]);
    assert_eq!(&envelope[8 + record.len()..8 + record.len() + 4], b"ADT1");
}
