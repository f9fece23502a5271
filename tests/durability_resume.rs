//! End-to-end resume equivalence: a lineage driven through the
//! durability store with restarts (drop + recover) after every epoch
//! must be **bit-identical** to the same lineage run uninterrupted in
//! memory — across every MPC backend. This is the anti-intersection
//! invariant extended to crashes: recovery replays the journaled
//! constructions with the same deterministic coins, so an archiving
//! adversary learns nothing from a restart boundary.

use eppi::core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi::durability::{encode_epoch, DurableStore};
use eppi::net::sim::LinkModel;
use eppi::protocol::construct::construct_distributed_with_registry;
use eppi::protocol::{
    construct_delta, construct_epoch, construct_epoch_audited, verify_commitments, verify_epoch,
    AuditConfig, Backend, ProtocolConfig,
};
use eppi::telemetry::Registry;
use eppi::trace::Obs;
use std::path::PathBuf;

fn base_matrix() -> (MembershipMatrix, Vec<Epsilon>) {
    let mut matrix = MembershipMatrix::new(24, 6);
    for o in 0..6u32 {
        for p in 0..(2 + 3 * o) {
            matrix.set(ProviderId(p % 24), OwnerId(o), true);
        }
    }
    let epsilons = [0.3, 0.5, 0.7, 0.2, 0.9, 0.6]
        .iter()
        .map(|&v| Epsilon::new(v).unwrap())
        .collect();
    (matrix, epsilons)
}

/// A deterministic churn script: `(matrix after step i, delta i)`.
fn churn_script(mut matrix: MembershipMatrix, steps: u32) -> Vec<(MembershipMatrix, IndexDelta)> {
    (0..steps)
        .map(|step| {
            let owner = OwnerId(step % 6);
            let provider = ProviderId((step * 5 + 1) % 24);
            matrix.set(provider, owner, !matrix.get(provider, owner));
            let mut delta = IndexDelta::new(matrix.owners());
            delta.record(DeltaEntry {
                owner,
                change: ColumnChange::Changed,
                epsilon: Epsilon::new(0.45).unwrap(),
            });
            (matrix.clone(), delta)
        })
        .collect()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eppi-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the script uninterrupted and through a restart-after-every-
/// epoch store, comparing the serialized lineage byte for byte.
fn resume_matches_uninterrupted(backend: Backend, link: LinkModel, tag: &str) {
    let (matrix, epsilons) = base_matrix();
    let cfg = ProtocolConfig {
        seed: 2024,
        backend,
        link,
        ..ProtocolConfig::default()
    };
    let script = churn_script(matrix.clone(), 4);

    // Uninterrupted in-memory lineage.
    let epoch0 = construct_epoch(&matrix, &epsilons, &cfg).expect("epoch 0");
    let mut expected = vec![encode_epoch(&epoch0)];
    let mut live = epoch0.clone();
    for (m, d) in &script {
        live = construct_delta(&live, m, d)
            .expect("uninterrupted delta")
            .epoch;
        expected.push(encode_epoch(&live));
    }

    // The same lineage, but dropped and recovered before every epoch.
    let dir = tmp_dir(tag);
    let registry = Registry::new();
    drop(DurableStore::create_with_registry(&dir, &epoch0, &registry).expect("create"));
    for (i, (m, d)) in script.iter().enumerate() {
        let (mut store, recovery) =
            DurableStore::open_with_registry(&dir, &registry).expect("recover");
        assert_eq!(
            recovery.replayed, i,
            "every prior epoch replays from the log"
        );
        assert!(recovery.tail_defect.is_none());
        assert_eq!(
            encode_epoch(store.head()),
            expected[i],
            "backend {backend:?}: recovered epoch {i} diverged from the uninterrupted run"
        );
        let built = store
            .advance_with_registry(m, d, &registry)
            .expect("advance");
        assert_eq!(
            encode_epoch(&built.epoch),
            expected[i + 1],
            "backend {backend:?}: epoch {} diverged after resume",
            i + 1
        );
    }
    let (store, recovery) = DurableStore::open_with_registry(&dir, &registry).expect("final");
    assert_eq!(recovery.replayed, script.len());
    assert_eq!(encode_epoch(store.head()), expected[script.len()]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_is_bit_identical_in_process() {
    resume_matches_uninterrupted(Backend::InProcess, LinkModel::default(), "inproc");
}

#[test]
fn resume_is_bit_identical_threaded() {
    resume_matches_uninterrupted(Backend::Threaded, LinkModel::default(), "threaded");
}

/// The lockstep hub pricing a simulated WAN: the lineage's link model
/// survives every restart.
#[test]
fn resume_is_bit_identical_simulated() {
    resume_matches_uninterrupted(Backend::InProcess, LinkModel::WAN, "simulated");
}

/// The no-rebuild guarantee: advancing after a recovery runs the
/// O(k)-column incremental circuit, not a full reconstruction.
#[test]
fn post_recovery_advance_runs_the_delta_circuit_only() {
    let (matrix, epsilons) = base_matrix();
    let cfg = ProtocolConfig {
        seed: 77,
        ..ProtocolConfig::default()
    };
    let script = churn_script(matrix.clone(), 2);
    let dir = tmp_dir("gates");
    let registry = Registry::new();
    let epoch0 = construct_epoch(&matrix, &epsilons, &cfg).expect("epoch 0");
    let mut store = DurableStore::create_with_registry(&dir, &epoch0, &registry).expect("create");
    let (m0, d0) = &script[0];
    store
        .advance_with_registry(m0, d0, &registry)
        .expect("advance");
    drop(store);

    let (mut store, _) = DurableStore::open_with_registry(&dir, &registry).expect("recover");
    let (m1, d1) = &script[1];
    let built = store
        .advance_with_registry(m1, d1, &registry)
        .expect("advance");
    let full = construct_distributed_with_registry(m1, &epsilons, &cfg, &Registry::new())
        .expect("full rebuild");
    assert!(
        built.report.circuit_size() < full.report.circuit_size(),
        "post-recovery delta circuit ({}) must be smaller than a rebuild ({})",
        built.report.circuit_size(),
        full.report.circuit_size()
    );
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An audited lineage may start with no owners at all (it grows by
/// deltas): every provider's empty column certifies and verifies
/// vacuously, the store persists and re-checks the commitments, and the
/// first audited delta certifies real cells. The audited build of an
/// empty lineage used to panic on the column width.
#[test]
fn audited_empty_lineage_certifies_persists_and_grows() {
    let mut matrix = MembershipMatrix::new(5, 0);
    let cfg = ProtocolConfig {
        seed: 31,
        ..ProtocolConfig::default()
    };
    let audit = AuditConfig::default();
    let anchor = construct_epoch_audited(&matrix, &[], &cfg, &audit, Obs::default())
        .expect("empty audited build");
    assert_eq!(anchor.certificates.len(), 5);
    for cert in &anchor.certificates {
        assert_eq!(cert.commitment.owners, 0);
        assert_eq!(cert.proof.size_bytes(), 0);
    }
    verify_epoch(&anchor.epoch, &anchor.certificates, &audit).expect("vacuous gate");
    verify_commitments(&anchor.epoch, &anchor.commitments()).expect("commitments");
    // Vacuous is not unchecked: certificates still have to be the epoch's own.
    assert!(verify_epoch(&anchor.epoch, &anchor.certificates[..4], &audit).is_err());

    let dir = tmp_dir("audited-empty");
    drop(DurableStore::create_audited(&dir, &anchor).expect("create_audited"));
    let (mut store, recovery) = DurableStore::open(&dir).expect("open");
    assert_eq!(recovery.audited, 1);
    assert_eq!(store.commitments(), anchor.commitments());
    assert_eq!(encode_epoch(store.head()), encode_epoch(&anchor.epoch));

    matrix.grow_owners(1);
    matrix.set(ProviderId(2), OwnerId(0), true);
    let mut delta = IndexDelta::new(0);
    delta.record(DeltaEntry {
        owner: OwnerId(0),
        change: ColumnChange::Added,
        epsilon: Epsilon::new(0.5).unwrap(),
    });
    store
        .advance_audited(&matrix, &delta, &audit)
        .expect("first audited delta");
    assert!(store.commitments().iter().all(|c| c.owners == 1));
    drop(store);
    let (store, recovery) = DurableStore::open(&dir).expect("reopen");
    assert_eq!((recovery.replayed, recovery.audited), (1, 2));
    assert!(store.head().index().matrix().get(ProviderId(2), OwnerId(0)));
    let _ = std::fs::remove_dir_all(&dir);
}
