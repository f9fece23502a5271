//! Re-sealed mutation properties of every persisted format.
//!
//! Byte-flip fault injection cannot reach the decoders' count handling:
//! the CRC rejects a flipped byte before any count is trusted. Here a
//! count or dimension field of a valid record is set to 0, 1, `u32::MAX`
//! or a random value and the checksum is recomputed, so only the
//! decoder's own checks stand between the field and an allocation.
//! Decoding must return `Err` or a value that re-encodes to exactly the
//! mutated bytes — never panic — and a counting global allocator checks
//! that no decode's peak heap use exceeds the input's allocation cap.

use eppi_audit::ColumnCommitment;
use eppi_core::commit::Digest256;
use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::policy::PolicyKind;
use eppi_core::rowstore::RowBackend;
use eppi_durability::{checkpoint, decode_epoch, encode_epoch, WalRecord};
use eppi_index::codec::{alloc_cap, ServeShardRecord, ServeSnapshotRecord, ShardRowsRecord};
use eppi_index::{crc32, decode_index, decode_serve_snapshot, encode_index, encode_serve_snapshot};
use eppi_net::sim::LinkModel;
use eppi_protocol::{Backend, EpochState, IndexEpoch, ProtocolConfig};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A single request past this fails (and aborts the test) instead of
/// committing memory: nothing a capped decode of these samples does
/// comes near it.
const REFUSE_ABOVE: usize = 64 << 20;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Serializes the measured sections: the counters are process-wide.
static MEASURE: Mutex<()> = Mutex::new(());

/// Runs `decode` and returns its result with the peak heap bytes it
/// added over the live bytes at entry.
fn peak_of<T>(decode: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = decode();
    (out, PEAK.load(Relaxed).saturating_sub(base))
}

const PROVIDERS: usize = 12;
const OWNERS: usize = 10;

fn sample_matrix(providers: usize, owners: usize) -> MembershipMatrix {
    let mut matrix = MembershipMatrix::new(providers, owners);
    for p in 0..providers {
        for o in 0..owners {
            if (p * 7 + o * 3) % 5 == 0 {
                matrix.set(ProviderId(p as u32), OwnerId(o as u32), true);
            }
        }
    }
    matrix
}

fn sample_index(providers: usize, owners: usize) -> PublishedIndex {
    let betas = (0..owners).map(|o| (o % 10) as f64 / 10.0).collect();
    PublishedIndex::new(sample_matrix(providers, owners), betas)
}

fn sample_epoch() -> IndexEpoch {
    IndexEpoch::resume(EpochState {
        index: sample_index(PROVIDERS, OWNERS),
        decisions: (0..OWNERS).map(|o| o % 3 == 0).collect(),
        lambda: 0.375,
        common_count: 2,
        epoch: 9,
        thresholds: (0..OWNERS as u64).map(|o| o * 2 + 1).collect(),
        epsilons: (0..OWNERS)
            .map(|o| Epsilon::new(o as f64 / 10.0).unwrap())
            .collect(),
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
            seed: 7,
        },
    })
    .unwrap()
}

fn sample_commitments() -> Vec<ColumnCommitment> {
    (0..3u64)
        .map(|p| ColumnCommitment {
            provider: ProviderId(p as u32),
            owners: OWNERS as u32,
            published: Digest256([p, p + 1, p + 2, p + 3]),
            decisions: Digest256([7, p, 0, u64::MAX]),
        })
        .collect()
}

fn sample_wal_record(audited: bool) -> WalRecord {
    let eps = Epsilon::new(0.5).unwrap();
    let mut delta = IndexDelta::new(8);
    for (owner, change) in [
        (1, ColumnChange::Changed),
        (4, ColumnChange::Withdrawn),
        (8, ColumnChange::Added),
        (9, ColumnChange::Added),
    ] {
        delta.record(DeltaEntry {
            owner: OwnerId(owner),
            change,
            epsilon: eps,
        });
    }
    let mut record = WalRecord::capture(2, 10, &delta, &sample_matrix(PROVIDERS, OWNERS));
    if audited {
        record.commitments = sample_commitments();
    }
    record
}

fn sample_serve_snapshot(backend: RowBackend) -> ServeSnapshotRecord {
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
                rows: rows(vec![11, 0, u64::MAX, 63], vec![5, 7, 9, 63], vec![0, 2, 4]),
            },
            ServeShardRecord {
                owners: vec![1],
                rows: rows(vec![0, 1 << 63], vec![3, 1 << 63], vec![0, 2]),
            },
        ],
    }
}

/// Which decoder a sample goes through, and how it is re-sealed.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Format {
    V1,
    V2,
    V3,
    WalPayload,
    Envelope,
}

/// One valid record plus the byte ranges of its count and dimension
/// fields.
struct Sample {
    name: &'static str,
    format: Format,
    bytes: Vec<u8>,
    /// `(offset, width)` of every count or dimension field.
    fields: Vec<(usize, usize)>,
}

fn v3_fields(record: &ServeSnapshotRecord) -> Vec<(usize, usize)> {
    // providers, owners, the three manifest counts, shard count.
    let mut fields: Vec<(usize, usize)> = (0..6).map(|i| (15 + 4 * i, 4)).collect();
    let mut at = 39 + 8 * record.betas.len();
    for shard in &record.shards {
        fields.push((at, 4));
        at += 4 + 4 * shard.owners.len();
        match &shard.rows {
            ShardRowsRecord::Dense(words) => at += 8 * words.len(),
            ShardRowsRecord::Compressed { stream, offsets } => {
                fields.push((at, 4));
                at += 4 + 4 * offsets.len() + 8 * stream.len();
            }
        }
    }
    fields
}

fn samples() -> &'static [Sample] {
    static SAMPLES: OnceLock<Vec<Sample>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        // providers, owners; common count, coordinators, coin bits.
        let v2_fields = vec![(72, 4), (76, 4), (22, 8), (30, 4), (43, 4)];
        let wal_fields = vec![(16, 4), (20, 4), (24, 4), (28, 4)];
        let plain_len = sample_wal_record(false).encode_payload().len();
        let record = encode_epoch(&sample_epoch());
        let mut envelope = b"EPAC".to_vec();
        envelope.extend_from_slice(&(record.len() as u32).to_le_bytes());
        envelope.extend_from_slice(&record);
        envelope.extend_from_slice(&adt1(&sample_commitments()));
        let mut envelope_fields = vec![(4, 4), (8 + record.len() + 4, 4)];
        envelope_fields.extend(v2_fields.iter().map(|&(at, w)| (8 + at, w)));
        let dense = sample_serve_snapshot(RowBackend::Dense);
        let compressed = sample_serve_snapshot(RowBackend::Compressed);
        vec![
            Sample {
                name: "v1",
                format: Format::V1,
                bytes: encode_index(&sample_index(PROVIDERS, OWNERS)),
                fields: vec![(6, 4), (10, 4)],
            },
            // The densest legitimate shape — one owner, so every bitmap
            // bit decodes to a padded 64-bit row word — large enough
            // that the cap is 64× the input rather than the floor.
            Sample {
                name: "v1 one-owner",
                format: Format::V1,
                bytes: encode_index(&sample_index(200_000, 1)),
                fields: vec![(6, 4), (10, 4)],
            },
            Sample {
                name: "v2",
                format: Format::V2,
                bytes: record.clone(),
                fields: v2_fields,
            },
            Sample {
                name: "v3 dense",
                format: Format::V3,
                fields: v3_fields(&dense),
                bytes: encode_serve_snapshot(&dense),
            },
            Sample {
                name: "v3 compressed",
                format: Format::V3,
                fields: v3_fields(&compressed),
                bytes: encode_serve_snapshot(&compressed),
            },
            Sample {
                name: "wal payload",
                format: Format::WalPayload,
                bytes: sample_wal_record(false).encode_payload(),
                fields: wal_fields.clone(),
            },
            Sample {
                name: "wal payload + ADT1",
                format: Format::WalPayload,
                bytes: sample_wal_record(true).encode_payload(),
                fields: [wal_fields, vec![(plain_len + 4, 4)]].concat(),
            },
            Sample {
                name: "EPAC checkpoint",
                format: Format::Envelope,
                bytes: envelope,
                fields: envelope_fields,
            },
        ]
    })
}

/// The `ADT1` section for `commitments`, written out by hand.
fn adt1(commitments: &[ColumnCommitment]) -> Vec<u8> {
    let mut out = b"ADT1".to_vec();
    out.extend_from_slice(&(commitments.len() as u32).to_le_bytes());
    for c in commitments {
        out.extend_from_slice(&c.provider.0.to_le_bytes());
        out.extend_from_slice(&c.owners.to_le_bytes());
        out.extend_from_slice(&c.published.to_bytes());
        out.extend_from_slice(&c.decisions.to_bytes());
    }
    out
}

/// Recomputes the CRC-32 trailer of the sealed record in `range`.
fn reseal(bytes: &mut [u8], range: std::ops::Range<usize>) {
    let trailer = range.end - 4;
    let crc = crc32(&bytes[range.start..trailer]);
    bytes[trailer..range.end].copy_from_slice(&crc.to_le_bytes());
}

fn case_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let case = NEXT.fetch_add(1, Relaxed);
    std::env::temp_dir().join(format!("eppi-mutation-{}-{case}.eppi", std::process::id()))
}

/// Decodes `bytes` as `format`, returning the re-encoding of whatever
/// decoded (`None` for an error) and the decode's peak heap bytes.
fn decode_and_reencode(format: Format, bytes: &[u8], path: &Path) -> (Option<Vec<u8>>, usize) {
    let (reencoded, peak) = match format {
        Format::V1 => {
            let (out, peak) = peak_of(|| decode_index(bytes));
            (out.ok().map(|index| encode_index(&index)), peak)
        }
        Format::V2 => {
            let (out, peak) = peak_of(|| decode_epoch(bytes));
            (out.ok().map(|epoch| encode_epoch(&epoch)), peak)
        }
        Format::V3 => {
            let (out, peak) = peak_of(|| decode_serve_snapshot(bytes));
            (out.ok().map(|record| encode_serve_snapshot(&record)), peak)
        }
        Format::WalPayload => {
            let (out, peak) = peak_of(|| WalRecord::decode_payload(bytes));
            (out.ok().map(|record| record.encode_payload()), peak)
        }
        Format::Envelope => {
            std::fs::write(path, bytes).unwrap();
            let (out, peak) = peak_of(|| checkpoint::load(path));
            let _ = std::fs::remove_file(path);
            let reencoded = out.ok().map(|(epoch, commitments)| {
                let record = encode_epoch(&epoch);
                let mut envelope = b"EPAC".to_vec();
                envelope.extend_from_slice(&(record.len() as u32).to_le_bytes());
                envelope.extend_from_slice(&record);
                envelope.extend_from_slice(&adt1(&commitments));
                envelope
            });
            // Loading also holds the file's bytes and opens its path.
            (reencoded, peak.saturating_sub(bytes.len() + 4096))
        }
    };
    (reencoded, peak)
}

/// Sets field `field` of `sample` to `value`, re-seals, decodes, and
/// checks the two properties.
fn check_mutation(sample: &Sample, field: usize, value: u64) {
    // Held from before the copy below: another thread's copy of the
    // 25 KB one-owner sample would otherwise land in this thread's
    // measured peak.
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let (at, width) = sample.fields[field];
    let mut bytes = sample.bytes.clone();
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    let len = bytes.len();
    match sample.format {
        Format::V2 | Format::V3 => reseal(&mut bytes, 0..len),
        Format::Envelope => {
            let record_len = u32::from_le_bytes(sample.bytes[4..8].try_into().unwrap());
            reseal(&mut bytes, 8..8 + record_len as usize);
        }
        Format::V1 | Format::WalPayload => {}
    }
    let path = case_path();
    let (reencoded, peak) = decode_and_reencode(sample.format, &bytes, &path);
    assert!(
        peak <= alloc_cap(len),
        "{}: field at {at} = {value}: decode peaked at {peak} B, cap {} B",
        sample.name,
        alloc_cap(len)
    );
    if let Some(reencoded) = reencoded {
        assert!(
            reencoded == bytes,
            "{}: field at {at} = {value} decoded to a value that re-encodes differently",
            sample.name
        );
    }
}

#[test]
fn unmutated_samples_decode_to_themselves_under_the_cap() {
    for sample in samples() {
        let path = case_path();
        let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
        let (reencoded, peak) = decode_and_reencode(sample.format, &sample.bytes, &path);
        assert_eq!(reencoded.as_ref(), Some(&sample.bytes), "{}", sample.name);
        assert!(peak <= alloc_cap(sample.bytes.len()), "{}", sample.name);
    }
    // The one-owner sample is the tight case: its matrix alone takes
    // all but the header's share of the cap.
    let dense = &samples()[1];
    assert!(alloc_cap(dense.bytes.len()) - 200_000 * 8 < 2048);
}

#[test]
fn every_count_field_at_0_1_and_u32_max_is_typed_or_exact() {
    for sample in samples() {
        for field in 0..sample.fields.len() {
            for value in [0, 1, u32::MAX as u64] {
                check_mutation(sample, field, value);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A random value in a random count field of a random format.
    #[test]
    fn random_count_fields_are_typed_or_exact(
        pick in any::<usize>(),
        field in any::<usize>(),
        value in any::<u32>(),
        small in any::<bool>(),
    ) {
        let sample = &samples()[pick % samples().len()];
        // Half the cases stay near the real counts, where a wrong value
        // is most likely to slip through the length checks.
        let value = if small { u64::from(value % 64) } else { u64::from(value) };
        check_mutation(sample, field % sample.fields.len(), value);
    }
}
