//! Fault-injection properties of the durability store (ISSUE §11):
//! arbitrary byte flips and truncations in the checkpoint and log files
//! must leave recovery either succeeding with a **strictly older valid
//! state** of the same lineage or failing with a **typed error** —
//! never panicking, never loading corrupt state.
//!
//! The oracle is the uninterrupted run itself: every head the golden
//! lineage ever had is serialized up front, and a recovered head must
//! re-serialize to exactly one of those byte strings.

use eppi_core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_durability::{encode_epoch, DurableStore, StoreError, WAL_FILE};
use eppi_protocol::{construct_epoch, ProtocolConfig};
use eppi_telemetry::Registry;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The golden store: checkpoints at epochs 0 and 3, a log carrying
/// epochs 4 and 5, and the serialized bytes of every head the lineage
/// ever had.
struct Golden {
    dir: PathBuf,
    /// `heads[e]` = `encode_epoch` of the lineage at epoch `e`.
    heads: Vec<Vec<u8>>,
    wal_len: u64,
    /// Checkpoint file names, newest first.
    checkpoints: Vec<PathBuf>,
}

fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("eppi-fault-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut matrix = MembershipMatrix::new(16, 5);
        for o in 0..5u32 {
            for p in 0..(1 + 2 * o) {
                matrix.set(ProviderId(p % 16), OwnerId(o), true);
            }
        }
        let epsilons: Vec<Epsilon> = [0.3, 0.6, 0.2, 0.8, 0.5]
            .iter()
            .map(|&v| Epsilon::new(v).unwrap())
            .collect();
        let cfg = ProtocolConfig {
            seed: 42,
            ..ProtocolConfig::default()
        };
        let registry = Registry::new();
        let epoch0 = construct_epoch(&matrix, &epsilons, &cfg).unwrap();
        let mut heads = vec![encode_epoch(&epoch0)];
        let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).unwrap();
        for step in 0..5u32 {
            let owner = OwnerId(step % 5);
            let provider = ProviderId((step * 3) % 16);
            matrix.set(provider, owner, !matrix.get(provider, owner));
            let mut delta = IndexDelta::new(matrix.owners());
            delta.record(DeltaEntry {
                owner,
                change: ColumnChange::Changed,
                epsilon: Epsilon::new(0.4).unwrap(),
            });
            let built = store
                .advance_with_registry(&matrix, &delta, &registry)
                .unwrap();
            heads.push(encode_epoch(&built.epoch));
            if step == 2 {
                // Checkpoint mid-lineage: retains epochs 0 and 3,
                // leaves epochs 4 and 5 in the log.
                store.checkpoint().unwrap();
            }
        }
        let wal_len = store.wal_bytes().unwrap();
        drop(store);
        let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.file_name().is_some_and(|n| n != WAL_FILE))
            .collect();
        checkpoints.sort();
        checkpoints.reverse(); // newest (highest epoch) first
        assert_eq!(checkpoints.len(), 2);
        assert!(wal_len > 0);
        Golden {
            dir,
            heads,
            wal_len,
            checkpoints,
        }
    })
}

/// Copies the golden store into a fresh per-case directory.
fn fresh_case() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let golden = golden();
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("eppi-fault-case-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for entry in std::fs::read_dir(&golden.dir).unwrap() {
        let from = entry.unwrap().path();
        std::fs::copy(&from, dir.join(from.file_name().unwrap())).unwrap();
    }
    dir
}

fn flip_byte(path: &Path, pos: u64, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    let i = (pos % bytes.len() as u64) as usize;
    bytes[i] ^= mask;
    std::fs::write(path, &bytes).unwrap();
}

/// The central invariant: recovery of a corrupted copy either yields a
/// head whose serialization is byte-identical to some epoch the golden
/// lineage actually had (never newer than the newest), or a typed
/// error. Panics fail the test by propagation.
fn assert_valid_outcome(dir: &Path) {
    let golden = golden();
    match DurableStore::open_with_registry(dir, &Registry::new()) {
        Ok((store, recovery)) => {
            let epoch = store.head().epoch() as usize;
            assert!(epoch < golden.heads.len(), "head beyond the golden lineage");
            assert_eq!(
                encode_epoch(store.head()),
                golden.heads[epoch],
                "recovered head is not a state the lineage ever had"
            );
            assert_eq!(recovery.head_epoch, epoch as u64);
            assert_eq!(recovery.lineage, 0);
        }
        Err(
            StoreError::CorruptStore { .. }
            | StoreError::NoCheckpoint { .. }
            | StoreError::Io { .. },
        ) => {}
        Err(other) => panic!("recovery surfaced an unexpected error kind: {other}"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Targeted tamper on an *audited* lineage: flip committed membership
/// bits inside a journaled record's column bytes and fix up the frame's
/// CRC so the framing layer accepts it. Replay then reconstructs a
/// column the providers never certified, and recovery must refuse with
/// a hard [`StoreError::Audit`] — not silently install, not discard as
/// a torn tail.
#[test]
fn audited_wal_tamper_is_a_hard_audit_error() {
    use eppi_index::crc32;
    use eppi_protocol::{construct_epoch_audited, AuditConfig};
    use eppi_trace::Obs;

    let dir = std::env::temp_dir().join(format!("eppi-fault-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut matrix = MembershipMatrix::new(16, 5);
    for o in 0..5u32 {
        for p in 0..(1 + 2 * o) {
            matrix.set(ProviderId(p % 16), OwnerId(o), true);
        }
    }
    let epsilons: Vec<Epsilon> = vec![Epsilon::new(0.5).unwrap(); 5];
    let cfg = ProtocolConfig {
        seed: 77,
        ..ProtocolConfig::default()
    };
    let audit = AuditConfig::default();
    let registry = Registry::new();
    let anchor = construct_epoch_audited(&matrix, &epsilons, &cfg, &audit, Obs::default()).unwrap();
    let mut store = DurableStore::create_audited_with_registry(&dir, &anchor, &registry).unwrap();
    matrix.set(
        ProviderId(9),
        OwnerId(2),
        !matrix.get(ProviderId(9), OwnerId(2)),
    );
    let mut delta = IndexDelta::new(matrix.owners());
    delta.record(DeltaEntry {
        owner: OwnerId(2),
        change: ColumnChange::Changed,
        epsilon: Epsilon::new(0.4).unwrap(),
    });
    store
        .advance_audited_with_registry(&matrix, &delta, &audit, &registry)
        .unwrap();
    drop(store);

    // Untampered control: recovery verifies both commitment sets.
    let (reopened, recovery) = DurableStore::open_with_registry(&dir, &Registry::new()).unwrap();
    assert_eq!(recovery.audited, 2);
    drop(reopened);

    // Tamper: the single record's frame is [len][crc][payload]; the
    // payload holds a 32-byte header, one 13-byte delta entry, then the
    // touched column's membership bytes. Flip a whole column byte
    // (providers 0..8 of owner 2) and recompute the CRC so the framing
    // layer cannot tell.
    let wal_path = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let column_at = 8 + 32 + 13;
    bytes[column_at] ^= 0xff;
    let crc = crc32(&bytes[8..8 + len]);
    bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal_path, &bytes).unwrap();

    match DurableStore::open_with_registry(&dir, &Registry::new()) {
        Err(StoreError::Audit(e)) => {
            let kind = e.kind();
            assert!(
                kind == "published_digest" || kind == "decisions_digest",
                "unexpected audit failure kind: {kind}"
            );
        }
        Ok(_) => panic!("tampered audited record was silently installed"),
        Err(other) => panic!("expected an audit error, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery runs the auditor gate's own check, not only the digests:
/// clear one decoy cell (decision 1, raw 0) in an audited checkpoint's
/// bitmap and re-seal the file — record CRC and the `ADT1` published
/// digest recomputed over the edited bitmap — and `open` refuses with
/// [`StoreError::Audit`] naming that provider and owner, where it used
/// to install and serve the under-decoyed column.
///
/// An attacker who also rewrites that owner's β and the decisions
/// digest still passes: both digests are unkeyed, so whoever can write
/// the checkpoint can re-seal them too. Binding them to the auditor
/// takes keys, which this store does not have.
#[test]
fn resealed_under_decoyed_checkpoint_is_a_hard_audit_error() {
    use eppi_audit::{decision_words, published_digest, AuditError};
    use eppi_core::model::PublishedIndex;
    use eppi_durability::checkpoint;
    use eppi_protocol::{construct_epoch_audited, AuditConfig, IndexEpoch};
    use eppi_trace::Obs;

    let dir = std::env::temp_dir().join(format!("eppi-fault-decoy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut matrix = MembershipMatrix::new(16, 5);
    for o in 0..5u32 {
        for p in 0..(1 + 2 * o) {
            matrix.set(ProviderId(p % 16), OwnerId(o), true);
        }
    }
    let epsilons: Vec<Epsilon> = vec![Epsilon::new(0.5).unwrap(); 5];
    let cfg = ProtocolConfig {
        seed: 77,
        ..ProtocolConfig::default()
    };
    let anchor = construct_epoch_audited(
        &matrix,
        &epsilons,
        &cfg,
        &AuditConfig::default(),
        Obs::default(),
    )
    .unwrap();
    drop(DurableStore::create_audited(&dir, &anchor).unwrap());

    // The first decoy cell of the lineage, in provider order.
    let betas = anchor.epoch.index().betas();
    let (provider, owner) = matrix
        .provider_ids()
        .find_map(|p| {
            let decisions = decision_words(cfg.seed, p, betas);
            let raw = matrix.row_words(p);
            (0..5u32)
                .find(|&o| decisions[0] >> o & 1 == 1 && raw[0] >> o & 1 == 0)
                .map(|o| (p, OwnerId(o)))
        })
        .expect("the lineage has a decoy");

    let path = checkpoint::scan(&dir).unwrap().remove(0).path;
    let (epoch, mut commitments) = checkpoint::load(&path).unwrap();
    let mut state = epoch.into_state();
    let mut published = state.index.matrix().clone();
    assert!(published.get(provider, owner));
    published.set(provider, owner, false);
    commitments[provider.index()].published =
        published_digest(provider, 5, &published.row_words(provider)[..1]);
    state.index = PublishedIndex::new(published, betas.to_vec());
    let tampered = IndexEpoch::resume(state).unwrap();
    checkpoint::write_atomic(&dir, 0, &tampered, &commitments).unwrap();
    assert_eq!(
        checkpoint::scan(&dir).unwrap().len(),
        1,
        "the file is replaced"
    );

    match DurableStore::open(&dir) {
        Err(StoreError::Audit(e)) => assert_eq!(
            e,
            AuditError::UnderDecoyed {
                provider: provider.0,
                owner: owner.0
            }
        ),
        Ok(_) => panic!("under-decoyed checkpoint was installed"),
        Err(other) => panic!("expected an audit error, got: {other}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any single byte flip anywhere in the log: the checkpoints are
    /// intact, so recovery must succeed, land on epoch 3, 4 or 5, and
    /// reproduce that epoch's exact bytes.
    #[test]
    fn wal_byte_flips_recover_an_older_valid_state(pos in any::<u64>(), mask in 1u8..255) {
        let dir = fresh_case();
        flip_byte(&dir.join(WAL_FILE), pos % golden().wal_len, mask);
        let (store, recovery) =
            DurableStore::open_with_registry(&dir, &Registry::new()).expect("checkpoints intact");
        let epoch = store.head().epoch();
        prop_assert!((3..=5).contains(&epoch), "epoch {epoch} outside checkpoint..head");
        prop_assert_eq!(&encode_epoch(store.head()), &golden().heads[epoch as usize]);
        prop_assert_eq!(recovery.checkpoint_epoch, 3);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncating the log at any byte boundary (a crash mid-append)
    /// recovers the longest valid prefix — and a reopen after the
    /// repair is clean.
    #[test]
    fn wal_truncation_recovers_the_valid_prefix(cut in any::<u64>()) {
        let dir = fresh_case();
        let keep = cut % (golden().wal_len + 1);
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..keep as usize]).unwrap();

        let (store, recovery) =
            DurableStore::open_with_registry(&dir, &Registry::new()).expect("checkpoints intact");
        let epoch = store.head().epoch();
        prop_assert!((3..=5).contains(&epoch));
        prop_assert_eq!(&encode_epoch(store.head()), &golden().heads[epoch as usize]);
        prop_assert_eq!(recovery.replayed as u64, epoch - 3);
        drop(store);

        let (store, recovery) =
            DurableStore::open_with_registry(&dir, &Registry::new()).expect("repaired store");
        prop_assert_eq!(recovery.discarded_bytes, 0, "truncation repair must persist");
        prop_assert!(recovery.tail_defect.is_none());
        prop_assert_eq!(store.head().epoch(), epoch);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single byte flip in either checkpoint file: recovery either
    /// reads the other checkpoint (plus whatever log prefix still
    /// chains onto it) or types out — and whatever head it produces is
    /// a state the lineage actually had.
    #[test]
    fn checkpoint_byte_flips_never_load_corrupt_state(
        which in 0usize..2,
        pos in any::<u64>(),
        mask in 1u8..255,
    ) {
        let dir = fresh_case();
        let name = golden().checkpoints[which].file_name().unwrap().to_owned();
        flip_byte(&dir.join(name), pos, mask);
        assert_valid_outcome(&dir);
    }

    /// Flips in *both* checkpoints plus the log — the worst case must
    /// still be a typed outcome, and any recovered head a real state.
    #[test]
    fn combined_corruption_is_typed_or_valid(
        pos_a in any::<u64>(),
        pos_b in any::<u64>(),
        pos_wal in any::<u64>(),
        mask in 1u8..255,
    ) {
        let dir = fresh_case();
        for (which, pos) in [(0usize, pos_a), (1, pos_b)] {
            let name = golden().checkpoints[which].file_name().unwrap().to_owned();
            flip_byte(&dir.join(name), pos, mask);
        }
        flip_byte(&dir.join(WAL_FILE), pos_wal % golden().wal_len, mask);
        assert_valid_outcome(&dir);
    }
}
