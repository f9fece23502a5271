//! The whole deployment in one test: trusted-party-free distributed
//! construction → binary serialization → locator service on the decoded
//! index → full recall for searchers → attacker confidence bounded.

use eppi::attacks::evaluate::evaluate;
use eppi::core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi::core::privacy::PrivacyDegree;
use eppi::index::access::{AccessPolicy, SearcherId};
use eppi::index::codec::{decode, encode};
use eppi::index::search::{LocatorService, ProviderEndpoint};
use eppi::index::server::PpiServer;
use eppi::index::store::LocalStore;
use eppi::protocol::construct::{construct_distributed, ProtocolConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROVIDERS: usize = 80;
const OWNERS: usize = 24;

fn build_network() -> (MembershipMatrix, Vec<Epsilon>) {
    let mut rng = StdRng::seed_from_u64(0xf00d);
    let matrix = eppi::workload::collections::pinned_cohorts(
        PROVIDERS,
        &[
            eppi::workload::collections::Cohort {
                owners: OWNERS - 1,
                frequency: 6,
            },
            // One common identity to exercise mixing end to end.
            eppi::workload::collections::Cohort {
                owners: 1,
                frequency: PROVIDERS,
            },
        ],
        &mut rng,
    );
    let epsilons = vec![Epsilon::saturating(0.7); OWNERS];
    (matrix, epsilons)
}

#[test]
fn distributed_construct_serialize_serve_search_attack() {
    let (matrix, epsilons) = build_network();

    // 1. Trusted-party-free construction (SecSumShare + coordinator MPC).
    let out = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            seed: 42,
            ..ProtocolConfig::default()
        },
    )
    .expect("distributed construction");
    assert_eq!(
        out.common_count, 1,
        "the planted common identity is detected"
    );

    // 2. Ship the index: encode → decode must be lossless.
    let bytes = encode(&out.index);
    let served = decode(&bytes).expect("index deserializes");
    assert_eq!(served, out.index);

    // 3. Stand up the locator service on the decoded index.
    let endpoints: Vec<ProviderEndpoint> = matrix
        .provider_ids()
        .map(|p| {
            let mut store = LocalStore::new(p);
            for owner in matrix.owner_ids() {
                if matrix.get(p, owner) {
                    store.delegate(owner, format!("{owner}@{p}"));
                }
            }
            ProviderEndpoint {
                store,
                policy: AccessPolicy::Open,
            }
        })
        .collect();
    let service = LocatorService::new(PpiServer::new(served), endpoints);

    // 4. Every owner's records are fully retrievable (100% recall).
    for owner in matrix.owner_ids() {
        let outcome = service.search(SearcherId(7), owner);
        assert_eq!(
            outcome.true_hits,
            matrix.frequency(owner),
            "recall for {owner}"
        );
    }

    // 5. The public index bounds the attacker.
    let ev = evaluate(&matrix, &out.index, &epsilons, None, 0.95, 0.15);
    assert_eq!(ev.primary_degree, PrivacyDegree::EpsPrivate);
    assert!(
        ev.primary_mean_confidence <= 0.3 + 0.1,
        "mean confidence {} above 1 − ε with slack",
        ev.primary_mean_confidence
    );
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let (matrix, epsilons) = build_network();
    let run = |seed| {
        let out = construct_distributed(
            &matrix,
            &epsilons,
            &ProtocolConfig {
                seed,
                ..ProtocolConfig::default()
            },
        )
        .expect("construction");
        encode(&out.index)
    };
    assert_eq!(run(7), run(7), "same seed ⇒ identical serialized index");
    assert_ne!(run(7), run(8), "different seed ⇒ different coin flips");
}

#[test]
fn common_identity_broadcasts_through_the_whole_stack() {
    let (matrix, epsilons) = build_network();
    let out = construct_distributed(
        &matrix,
        &epsilons,
        &ProtocolConfig {
            seed: 11,
            ..ProtocolConfig::default()
        },
    )
    .expect("construction");
    let common = OwnerId((OWNERS - 1) as u32);
    // β = 1 all the way to the query answer.
    assert_eq!(out.index.query(common).len(), PROVIDERS);
    // And its row gives the common-identity attacker nothing beyond the
    // mixing bound (precision measured at the evaluate level; here we
    // just confirm the row is indistinguishable from a broadcast row).
    assert!(out.index.betas()[common.index()] >= 1.0 - 1e-12);
    let _ = ProviderId(0);
}
