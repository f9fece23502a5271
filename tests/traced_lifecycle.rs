//! One traced, isolated lifecycle through the single observability
//! handle: construct (threaded MPC) → certify/verify →
//! durable anchor → audited advance → crash → recover, all under ONE
//! caller-owned root span and ONE caller-owned registry.
//!
//! What this pins (DESIGN.md §8, §13): the `Obs` a caller hands to an
//! entry point is the one every layer beneath it reports to — the MPC
//! drivers, the prover/verifier and the WAL replay included — so the
//! private registry sees every family, the process-global registry
//! sees none of them, and the collected trace is a single tree.
//!
//! This file holds exactly one test so the process-global registry it
//! inspects is touched by nothing else.

use eppi::core::delta::{ColumnChange, DeltaEntry, IndexDelta};
use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi::durability::DurableStore;
use eppi::protocol::{
    construct_epoch_audited, construct_epoch_with_registry, AuditConfig, Backend, ProtocolConfig,
};
use eppi::telemetry::Registry;
use eppi::trace::{Obs, SpanNode, TraceConfig, Tracer};

/// True when `path` occurs somewhere in `node`'s subtree as a chain of
/// direct parent → child links.
fn has_path(node: &SpanNode, path: &[&str]) -> bool {
    fn chain(node: &SpanNode, path: &[&str]) -> bool {
        node.name == path[0]
            && (path.len() == 1 || node.children.iter().any(|c| chain(c, &path[1..])))
    }
    chain(node, path) || node.children.iter().any(|c| has_path(c, path))
}

#[test]
fn one_obs_reaches_every_layer_under_one_root() {
    let mut matrix = MembershipMatrix::new(12, 5);
    for o in 0..5u32 {
        for p in 0..(2 + 2 * o) {
            matrix.set(ProviderId(p % 12), OwnerId(o), true);
        }
    }
    let epsilons: Vec<Epsilon> = [0.3, 0.5, 0.7, 0.2, 0.9]
        .iter()
        .map(|&v| Epsilon::new(v).unwrap())
        .collect();
    let config = |backend| ProtocolConfig {
        seed: 15,
        backend,
        ..ProtocolConfig::default()
    };
    let audit = AuditConfig::default();

    let registry = Registry::new();
    let tracer = Tracer::new(TraceConfig {
        capacity_per_thread: 1 << 14,
        ..TraceConfig::default()
    });
    let root = tracer.root("lifecycle");
    let obs = Obs {
        registry: &registry,
        tracer: &tracer,
        parent: root.ctx(),
    };

    // Construct on the threaded backend, plain and audited.
    construct_epoch_with_registry(&matrix, &epsilons, &config(Backend::Threaded), obs)
        .expect("threaded");
    assert!(registry.snapshot().find("gmw.rounds", &[]).is_some());
    let anchor =
        construct_epoch_audited(&matrix, &epsilons, &config(Backend::Threaded), &audit, obs)
            .expect("threaded, audited");

    // Durable lineage: anchor, one audited advance, crash, recover.
    let dir = std::env::temp_dir().join(format!("eppi-traced-lifecycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = DurableStore::create_audited_with_registry(&dir, &anchor, obs).expect("create");
    matrix.set(ProviderId(7), OwnerId(1), true);
    let mut delta = IndexDelta::new(matrix.owners());
    delta.record(DeltaEntry {
        owner: OwnerId(1),
        change: ColumnChange::Changed,
        epsilon: Epsilon::new(0.4).unwrap(),
    });
    let advanced = store
        .advance_audited_with_registry(&matrix, &delta, &audit, obs)
        .expect("advance");
    drop(store);
    let (reopened, recovery) = DurableStore::open_with_registry(&dir, obs).expect("open");
    assert_eq!(recovery.replayed, 1);
    assert_eq!(reopened.head().index(), advanced.delta.epoch.index());
    drop(reopened);
    std::fs::remove_dir_all(&dir).unwrap();
    drop(root);

    // Every layer reported into the caller's registry …
    let snap = registry.snapshot();
    for family in [
        "gmw.rounds",
        "gmw.and_gates",
        "gmw.round_ns",
        "audit.proofs",
        "audit.verified",
        "construct.wall_ns",
        "secsum.messages",
        "durability.fsyncs",
        "durability.wal_records",
        "durability.replayed_records",
        "durability.audit_checks",
    ] {
        assert!(!snap.family(family).is_empty(), "{family} missing");
    }
    // … and none of it leaked into the process-global one.
    let global = eppi::telemetry::global().snapshot();
    for family in [
        "gmw.rounds",
        "audit.proofs",
        "construct.wall_ns",
        "durability.fsyncs",
    ] {
        assert!(
            global.family(family).is_empty(),
            "{family} leaked into the global registry"
        );
    }

    // The trace is ONE tree under the caller's root, and the span sites
    // of every layer hang beneath it.
    let log = tracer.collect();
    assert_eq!(log.total_dropped(), 0);
    let traces = log.trace_ids();
    assert_eq!(traces.len(), 1, "one trace: nothing opened its own root");
    let tree = log.span_tree(traces[0]).unwrap();
    let rendered = log.render(traces[0]);
    assert_eq!(tree.name, "lifecycle");
    for path in [
        &["lifecycle", "mpc.execute", "mpc.party", "net.exchange"][..],
        &["lifecycle", "audit.prove"],
        &["lifecycle", "audit.verify"],
        &[
            "lifecycle",
            "recover.open",
            "recover.replay_record",
            "mpc.execute",
            "mpc.party",
            "net.exchange",
        ],
        &["recover.open", "recover.checkpoint_load"],
        &["recover.open", "recover.audit_check"],
    ] {
        assert!(has_path(&tree, path), "no {path:?} in\n{rendered}");
    }
    // Anchor + advance each certify and verify every provider once.
    assert_eq!(tree.count("audit.prove"), 2 * 12);
    assert_eq!(tree.count("audit.verify"), 2 * 12);
}
