//! End-to-end integration: workload synthesis → ε-PPI construction →
//! locator-service search → attack evaluation, across crates.

use eppi::attacks::evaluate::evaluate;
use eppi::core::construct::{construct, ConstructionConfig};
use eppi::core::model::{Epsilon, OwnerId};
use eppi::core::policy::PolicyKind;
use eppi::core::privacy::{success_ratio, PrivacyDegree};
use eppi::index::access::{AccessPolicy, SearcherId};
use eppi::index::search::{LocatorService, ProviderEndpoint};
use eppi::index::server::PpiServer;
use eppi::index::store::LocalStore;
use eppi::workload::collections::{uniform_epsilons, CollectionTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

const PROVIDERS: usize = 800;
const OWNERS: usize = 400;

fn build_world() -> (
    eppi::core::model::MembershipMatrix,
    Vec<Epsilon>,
    eppi::core::construct::Construction,
) {
    let mut rng = StdRng::seed_from_u64(0xe2e);
    let matrix = CollectionTable::new(PROVIDERS, OWNERS)
        .zipf_exponent(1.0)
        .max_frequency(40)
        .build(&mut rng);
    let epsilons = uniform_epsilons(OWNERS, &mut rng);
    let built = construct(
        &matrix,
        &epsilons,
        ConstructionConfig {
            policy: PolicyKind::Chernoff { gamma: 0.9 },
            mixing: true,
        },
        &mut rng,
    )
    .expect("construction succeeds");
    (matrix, epsilons, built)
}

#[test]
fn search_has_full_recall_for_every_owner() {
    let (matrix, _, built) = build_world();
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
    let service = LocatorService::new(PpiServer::new(built.index.clone()), endpoints);

    for owner in matrix.owner_ids() {
        let outcome = service.search(SearcherId(1), owner);
        let want = matrix.frequency(owner);
        assert_eq!(outcome.true_hits, want, "recall for {owner}");
        assert_eq!(outcome.records.len(), want, "records for {owner}");
    }
}

#[test]
fn privacy_success_ratio_meets_gamma() {
    let (matrix, epsilons, built) = build_world();
    let ratio = success_ratio(&matrix, &built.index, &epsilons, true);
    assert!(
        ratio >= 0.88,
        "success ratio {ratio} below γ = 0.9 (with slack)"
    );
}

#[test]
fn attack_evaluation_classifies_eppi_as_private() {
    let (matrix, epsilons, built) = build_world();
    let ev = evaluate(&matrix, &built.index, &epsilons, None, 0.95, 0.15);
    assert_eq!(ev.primary_degree, PrivacyDegree::EpsPrivate);
    // With uniform ε and the average owner demanding ε = 0.5, the mean
    // attacker confidence must sit well below certainty.
    assert!(
        ev.primary_mean_confidence < 0.6,
        "{}",
        ev.primary_mean_confidence
    );
}

#[test]
fn denied_searchers_retrieve_nothing_anywhere() {
    let (matrix, _, built) = build_world();
    let endpoints: Vec<ProviderEndpoint> = matrix
        .provider_ids()
        .map(|p| {
            let mut store = LocalStore::new(p);
            for owner in matrix.owner_ids() {
                if matrix.get(p, owner) {
                    store.delegate(owner, "secret");
                }
            }
            ProviderEndpoint {
                store,
                policy: AccessPolicy::Deny,
            }
        })
        .collect();
    let service = LocatorService::new(PpiServer::new(built.index.clone()), endpoints);
    for owner in matrix.owner_ids().take(20) {
        let outcome = service.search(SearcherId(5), owner);
        assert!(outcome.records.is_empty());
        assert_eq!(outcome.denied, outcome.providers_contacted);
    }
}

#[test]
fn epsilon_zero_owners_cost_nothing_extra() {
    let mut rng = StdRng::seed_from_u64(0xe20);
    let matrix = CollectionTable::new(300, 50)
        .max_frequency(10)
        .build(&mut rng);
    let epsilons = vec![Epsilon::ZERO; 50];
    let built = construct(&matrix, &epsilons, ConstructionConfig::default(), &mut rng)
        .expect("construction succeeds");
    for owner in matrix.owner_ids() {
        assert_eq!(
            built.index.query(owner).len(),
            matrix.frequency(owner),
            "ε = 0 must publish exactly the truth for {owner}"
        );
    }
}

#[test]
fn query_answer_grows_with_epsilon() {
    let mut rng = StdRng::seed_from_u64(0xe21);
    let matrix = CollectionTable::new(600, 40)
        .min_frequency(5)
        .max_frequency(5)
        .build(&mut rng);
    let sizes: Vec<f64> = [0.2, 0.5, 0.8]
        .iter()
        .map(|&e| {
            let eps = vec![Epsilon::saturating(e); 40];
            let mut rng = StdRng::seed_from_u64(0xbeef);
            let built = construct(&matrix, &eps, ConstructionConfig::default(), &mut rng)
                .expect("construction succeeds");
            (0..40u32)
                .map(|j| built.index.query(OwnerId(j)).len() as f64)
                .sum::<f64>()
                / 40.0
        })
        .collect();
    assert!(
        sizes[0] < sizes[1] && sizes[1] < sizes[2],
        "sizes {sizes:?} must grow with ε"
    );
}
