//! Healthcare Information Exchange scenario — the paper's motivating
//! application (§I).
//!
//! A state-wide network of hospitals stores patient records. A patient
//! arrives unconscious at an emergency room; the attending physician
//! uses the locator service to find the hospitals holding the patient's
//! history, then retrieves the records through each hospital's access
//! control. Meanwhile a tabloid journalist scraping the public index
//! learns (almost) nothing about a celebrity patient.
//!
//! ```sh
//! cargo run --example hie_network
//! ```

use eppi::attacks::primary::expected_confidence;
use eppi::core::construct::{construct, ConstructionConfig};
use eppi::core::model::{Epsilon, OwnerId};
use eppi::index::access::{AccessPolicy, SearcherId};
use eppi::index::search::{LocatorService, ProviderEndpoint};
use eppi::index::server::PpiServer;
use eppi::index::store::LocalStore;
use eppi::workload::collections::CollectionTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOSPITALS: usize = 500;
const PATIENTS: usize = 2_000;
const CELEBRITY: OwnerId = OwnerId(0);
const ER_PHYSICIAN: SearcherId = SearcherId(1);
const JOURNALIST_TRIALS: usize = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2014);

    // A realistic membership structure: Zipf-skewed visit histories.
    let network = CollectionTable::new(HOSPITALS, PATIENTS)
        .zipf_exponent(1.1)
        .max_frequency(25)
        .build(&mut rng);

    // Privacy degrees: the celebrity demands ε = 0.95; everyone else
    // defaults to ε = 0.4.
    let mut epsilons = vec![Epsilon::new(0.4)?; PATIENTS];
    epsilons[CELEBRITY.index()] = Epsilon::new(0.95)?;

    // Hospitals jointly construct the ε-PPI (modelled here with the
    // centralized constructor; `examples/distributed_construction.rs`
    // runs the real trusted-party-free protocol).
    let built = construct(&network, &epsilons, ConstructionConfig::default(), &mut rng)?;

    // Stand up the locator service: the index goes to an untrusted
    // third-party server; each hospital keeps its records behind its own
    // access control (the ER physician is enrolled everywhere).
    let endpoints: Vec<ProviderEndpoint> = network
        .provider_ids()
        .map(|p| {
            let mut store = LocalStore::new(p);
            for owner in network.owner_ids() {
                if network.get(p, owner) {
                    store.delegate(owner, format!("record of {owner} at {p}"));
                }
            }
            ProviderEndpoint {
                store,
                policy: AccessPolicy::allowing([ER_PHYSICIAN]),
            }
        })
        .collect();
    let service = LocatorService::new(PpiServer::new(built.index.clone()), endpoints);

    // --- The emergency search ------------------------------------------------
    let outcome = service.search(ER_PHYSICIAN, CELEBRITY);
    let true_hospitals = network.frequency(CELEBRITY);
    println!("ER physician searches for the unconscious celebrity patient:");
    println!(
        "  contacted {} hospitals, found all {} records ({} true hospitals, {} decoys)",
        outcome.providers_contacted,
        outcome.records.len(),
        outcome.true_hits,
        outcome.false_hits
    );
    assert_eq!(outcome.true_hits, true_hospitals, "recall must be 100%");

    // An unauthorized searcher gets nothing past AuthSearch.
    let snoop = service.search(SearcherId(999), CELEBRITY);
    println!(
        "  an unenrolled searcher is denied by all {} hospitals and retrieves {} records",
        snoop.denied,
        snoop.records.len()
    );
    assert!(snoop.records.is_empty());

    // --- The journalist's attack ---------------------------------------------
    println!("\njournalist scraping the public index (primary attack):");
    let conf = expected_confidence(&network, &built.index, CELEBRITY).unwrap_or(0.0);
    println!(
        "  confidence against the celebrity: {conf:.3} (bound requested: ≤ {:.3})",
        1.0 - epsilons[CELEBRITY.index()].value()
    );
    for trial in 0..JOURNALIST_TRIALS {
        let claim =
            eppi::attacks::primary::attack_owner(&network, &built.index, CELEBRITY, &mut rng)
                .expect("celebrity is indexed");
        println!(
            "  trial {trial}: accuses {} — {}",
            claim.provider,
            if claim.succeeded {
                "correct (lucky guess)"
            } else {
                "wrong"
            }
        );
    }
    println!("\nwith ε = 0.95, roughly 19 of every 20 accusations are wrong.");
    Ok(())
}
