//! A handful of hostile bytes must never abort the process. Each input
//! below declares `providers` or `coordinators = u32::MAX` in an
//! otherwise well-formed (and, where the format has one, correctly
//! checksummed) record; a decoder that trusted the field would ask for
//! tens of gigabytes at once. They
//! live in their own test binary: an abort here cannot hide the
//! results of any other test.

use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_durability::{checkpoint, decode_epoch, DurableStore, TailDefect, WalRecord, WAL_FILE};
use eppi_index::{crc32, decode_index};
use eppi_protocol::{construct_epoch, ProtocolConfig};
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eppi-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A store over a 16 × 5 lineage holding only its epoch-0 checkpoint.
fn fresh_store(dir: &PathBuf) -> (DurableStore, MembershipMatrix) {
    let mut matrix = MembershipMatrix::new(16, 5);
    for o in 0..5u32 {
        for p in 0..=o {
            matrix.set(ProviderId(p * 3), OwnerId(o), true);
        }
    }
    let epsilons = vec![Epsilon::new(0.5).unwrap(); 5];
    let cfg = ProtocolConfig {
        seed: 9,
        ..ProtocolConfig::default()
    };
    let epoch0 = construct_epoch(&matrix, &epsilons, &cfg).unwrap();
    (DurableStore::create(dir, &epoch0).unwrap(), matrix)
}

/// A CRC-valid zero-owner epoch-1 record: no bitmap, β, decision,
/// threshold, ε or share bytes — just the 80-byte header and the CRC.
fn zero_owner_v2(coordinators: u32, providers: u32) -> Vec<u8> {
    let mut record = b"EPPI".to_vec();
    record.extend_from_slice(&2u16.to_le_bytes());
    record.extend_from_slice(&1u64.to_le_bytes()); // epoch
    record.extend_from_slice(&0f64.to_le_bytes()); // lambda
    record.extend_from_slice(&0u64.to_le_bytes()); // common count
    record.extend_from_slice(&coordinators.to_le_bytes());
    record.push(0); // basic policy
    record.extend_from_slice(&0f64.to_le_bytes());
    record.extend_from_slice(&16u32.to_le_bytes()); // coin bits
    record.extend_from_slice(&200f64.to_le_bytes()); // link latency
    record.extend_from_slice(&125f64.to_le_bytes()); // link bandwidth
    record.push(0); // in-process backend
    record.extend_from_slice(&9u64.to_le_bytes()); // seed
    record.extend_from_slice(&providers.to_le_bytes());
    record.extend_from_slice(&0u32.to_le_bytes()); // owners
    let crc = crc32(&record);
    record.extend_from_slice(&crc.to_le_bytes());
    record
}

#[test]
fn a_14_byte_v1_index_with_u32_max_providers_is_an_error() {
    let mut bytes = b"EPPI".to_vec();
    bytes.extend_from_slice(&1u16.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // providers
    bytes.extend_from_slice(&0u32.to_le_bytes()); // owners
    assert_eq!(bytes.len(), 14);
    assert!(decode_index(&bytes).is_err());
}

#[test]
fn an_84_byte_v2_checkpoint_with_u32_max_providers_falls_back_to_the_older_one() {
    let dir = tmp_dir("v2");
    let (mut store, mut matrix) = fresh_store(&dir);
    matrix.set(ProviderId(7), OwnerId(2), true);
    let mut delta = IndexDelta::new(5);
    delta.record(DeltaEntry {
        owner: OwnerId(2),
        change: ColumnChange::Changed,
        epsilon: Epsilon::new(0.5).unwrap(),
    });
    store.advance(&matrix, &delta).unwrap();
    store.checkpoint().unwrap();
    drop(store);

    let hostile = zero_owner_v2(3, u32::MAX);
    assert_eq!(hostile.len(), 84);
    assert!(decode_epoch(&hostile).is_err());

    let newest = checkpoint::scan(&dir).unwrap().remove(0);
    assert_eq!(newest.epoch, 1);
    std::fs::write(&newest.path, &hostile).unwrap();
    let (store, recovery) = DurableStore::open(&dir).expect("falls back");
    assert_eq!(recovery.corrupt_checkpoints, 1);
    assert_eq!(recovery.checkpoint_epoch, 0);
    assert_eq!(store.head().epoch(), 0);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resealed_wal_frame_with_u32_max_providers_is_a_discarded_tail() {
    let dir = tmp_dir("wal");
    drop(fresh_store(&dir));

    // An empty delta producing epoch 1: structurally valid, so only the
    // comparison with the recovered head can refuse it.
    let mut payload = 0u64.to_le_bytes().to_vec(); // lineage
    payload.extend_from_slice(&1u64.to_le_bytes()); // epoch
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // providers
    payload.extend_from_slice(&5u32.to_le_bytes()); // base owners
    payload.extend_from_slice(&5u32.to_le_bytes()); // owners
    payload.extend_from_slice(&0u32.to_le_bytes()); // entries
    let record = WalRecord::decode_payload(&payload).expect("structurally valid");
    assert_eq!(record.providers, u32::MAX as usize);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    std::fs::write(dir.join(WAL_FILE), &frame).unwrap();

    let (store, recovery) = DurableStore::open(&dir).expect("recovers");
    assert_eq!(recovery.tail_defect, Some(TailDefect::InvalidState));
    assert_eq!(recovery.replayed, 0);
    assert_eq!(recovery.discarded_bytes, frame.len() as u64);
    assert_eq!(store.head().epoch(), 0);
    drop(store);
    // The tail was truncated away: a second open is clean.
    let (_, recovery) = DurableStore::open(&dir).unwrap();
    assert!(recovery.tail_defect.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_zero_owner_v2_record_with_u32_max_coordinators_is_an_error() {
    // No share bytes follow for zero owners, yet the decoder would
    // reserve one share vector per declared coordinator.
    let hostile = zero_owner_v2(u32::MAX, 16);
    assert_eq!(hostile.len(), 84);
    assert!(decode_epoch(&hostile).is_err());
    // The same record with sane counts is a valid (empty) epoch.
    assert!(decode_epoch(&zero_owner_v2(3, 16)).is_ok());
}
