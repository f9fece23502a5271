//! Fig. 6 — performance of the index-construction protocol: ε-PPI's
//! MPC-reduced approach versus the pure-MPC baseline.
//!
//! Paper setting (§V-B): FairplayMP-based prototype on 3–9 Emulab
//! machines, `c = 3`. Our substitution runs the same two protocols on
//! the threaded in-process runtime (one OS thread per party; see
//! DESIGN.md §4).
//!
//! * **Fig. 6a** — start-to-end execution time vs number of parties
//!   (3–9), single identity;
//! * **Fig. 6b** — compiled circuit size vs number of parties (3–61);
//! * **Fig. 6c** — execution time vs number of identities (1–1000),
//!   three parties.
//!
//! Expected shape: pure MPC grows super-linearly in the party count
//! while ε-PPI stays near-flat (its MPC part is pinned to `c`
//! coordinators); in 6c both grow with the identity count but ε-PPI
//! with a much smaller slope.

use crate::report::{ms, Table};
use eppi_core::model::{Epsilon, MembershipMatrix, OwnerId, ProviderId};
use eppi_core::policy::PolicyKind;
use eppi_mpc::circuits::{
    CountBelowCircuit, FixedPoint, MixDecisionCircuit, NaiveConstructionCircuit,
};
use eppi_protocol::construct::{construct_distributed, frequency_thresholds, ProtocolConfig};
use eppi_protocol::countbelow::Backend;
use eppi_protocol::pure_mpc::{construct_pure_mpc, PureMpcConfig};
use std::time::Instant;

/// Configuration of the Fig. 6 experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Config {
    /// Party counts of Fig. 6a.
    pub party_counts: Vec<usize>,
    /// Party counts of Fig. 6b (circuit size only, so it scales further).
    pub circuit_party_counts: Vec<usize>,
    /// Identity counts of Fig. 6c.
    pub identity_counts: Vec<usize>,
    /// Number of coordinators `c`.
    pub c: usize,
    /// ε assigned to every identity.
    pub epsilon: f64,
    /// Mixing-coin bits.
    pub coin_bits: usize,
    /// Repetitions per timing point.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
}

impl Fig6Config {
    /// The paper's configuration (3–9 machines for time, up to 61
    /// parties for circuit size, 1–1000 identities).
    pub fn paper() -> Self {
        Fig6Config {
            party_counts: vec![3, 5, 7, 9],
            circuit_party_counts: vec![3, 11, 21, 31, 41, 51, 61],
            identity_counts: vec![1, 10, 100, 1000],
            c: 3,
            epsilon: 0.5,
            coin_bits: 8,
            reps: 3,
            seed: 0x66a,
        }
    }

    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Fig6Config {
            party_counts: vec![3, 5],
            circuit_party_counts: vec![3, 9, 17],
            identity_counts: vec![1, 8],
            c: 3,
            epsilon: 0.5,
            coin_bits: 4,
            reps: 1,
            seed: 0x66a,
        }
    }
}

/// Builds a small network of `m` providers and `n` identities where each
/// identity is held by roughly a third of the providers.
fn network(m: usize, n: usize) -> MembershipMatrix {
    let mut matrix = MembershipMatrix::new(m, n);
    for j in 0..n {
        let holders = (m / 3).max(1);
        for p in 0..holders {
            matrix.set(ProviderId(((p + j) % m) as u32), OwnerId(j as u32), true);
        }
    }
    matrix
}

/// Runs Fig. 6a: execution time vs number of parties, single identity.
pub fn fig6a(cfg: &Fig6Config) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 6a — execution time (ms) vs parties, 1 identity, c={}",
            cfg.c
        ),
        vec!["parties".into(), "e-PPI".into(), "Pure-MPC".into()],
    );
    for &m in &cfg.party_counts {
        let matrix = network(m, 1);
        let epsilons = vec![Epsilon::saturating(cfg.epsilon)];
        let (eppi_t, pure_t) = time_both(&matrix, &epsilons, cfg);
        table.push_row(vec![m.to_string(), ms(eppi_t), ms(pure_t)]);
    }
    table
}

fn time_both(
    matrix: &MembershipMatrix,
    epsilons: &[Epsilon],
    cfg: &Fig6Config,
) -> (std::time::Duration, std::time::Duration) {
    let mut eppi_total = std::time::Duration::ZERO;
    let mut pure_total = std::time::Duration::ZERO;
    for rep in 0..cfg.reps {
        let proto = ProtocolConfig {
            c: cfg.c.min(matrix.providers()),
            coin_bits: cfg.coin_bits,
            backend: Backend::Threaded,
            seed: cfg.seed ^ rep as u64,
            ..ProtocolConfig::default()
        };
        let started = Instant::now();
        construct_distributed(matrix, epsilons, &proto).expect("e-PPI construction");
        eppi_total += started.elapsed();

        let pure = PureMpcConfig {
            coin_bits: cfg.coin_bits,
            backend: Backend::Threaded,
            seed: cfg.seed ^ rep as u64,
            // The paper's naive baseline keeps the whole β computation
            // (Eq. 5's division and square root) inside the circuit.
            in_circuit_beta: true,
            ..PureMpcConfig::default()
        };
        let started = Instant::now();
        construct_pure_mpc(matrix, epsilons, &pure).expect("pure-MPC construction");
        pure_total += started.elapsed();
    }
    (eppi_total / cfg.reps as u32, pure_total / cfg.reps as u32)
}

/// Fig. 6a under the *simulated* network: per-point simulated network
/// time (ms) instead of wall-clock — the latency-dominated view that
/// matches the paper's Emulab environment, where LAN round trips (not
/// CPU) set the curve.
pub fn fig6a_simulated(cfg: &Fig6Config) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 6a (simulated LAN) — network time (ms) vs parties, 1 identity, c={}",
            cfg.c
        ),
        vec!["parties".into(), "e-PPI".into(), "Pure-MPC".into()],
    );
    for &m in &cfg.party_counts {
        let matrix = network(m, 1);
        let epsilons = vec![Epsilon::saturating(cfg.epsilon)];
        let proto = ProtocolConfig {
            c: cfg.c.min(m),
            coin_bits: cfg.coin_bits,
            backend: Backend::InProcess,
            seed: cfg.seed,
            ..ProtocolConfig::default()
        };
        let eppi = construct_distributed(&matrix, &epsilons, &proto).expect("e-PPI");
        // ε-PPI simulated time: SecSumShare + both coordinator stages.
        let eppi_us = eppi.report.secsum.simulated_us
            + eppi.report.count_stage.simulated_us
            + eppi.report.mix_stage.simulated_us;

        // Pure baseline: one big simulated circuit over m parties.
        let thresholds = frequency_thresholds(PolicyKind::default(), &epsilons, m);
        let fp = eppi_mpc::circuits::FixedPoint { frac_bits: 8 };
        let a_fp = fp.encode(1.0 / cfg.epsilon - 1.0);
        let l_fp = fp.encode((1.0f64 / (1.0 - 0.9)).ln());
        let _ = &thresholds;
        let pure = eppi_mpc::circuits::NaiveConstructionCircuit::build(
            m,
            &[a_fp],
            l_fp,
            fp,
            cfg.coin_bits,
            0,
        );
        let inputs: Vec<Vec<bool>> = (0..m)
            .map(|p| pure.encode_party_input(&[p < m / 3 + 1], &[0]))
            .collect();
        let (_, net) = eppi_mpc::gmw::execute(
            pure.circuit(),
            pure.layout(),
            &inputs,
            eppi_net::sim::LinkModel::LAN,
            cfg.seed,
        );
        table.push_row(vec![
            m.to_string(),
            format!("{:.2}", eppi_us / 1000.0),
            format!("{:.2}", net.simulated_us / 1000.0),
        ]);
    }
    table
}

/// Runs Fig. 6b: compiled circuit size vs number of parties (no
/// execution — the paper uses circuit size as the proxy that lets it
/// scale to 61 parties).
pub fn fig6b(cfg: &Fig6Config) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 6b — circuit size (gates) vs parties, 1 identity, c={}",
            cfg.c
        ),
        vec!["parties".into(), "e-PPI".into(), "Pure-MPC".into()],
    );
    let eps = vec![Epsilon::saturating(cfg.epsilon)];
    for &m in &cfg.circuit_party_counts {
        let thresholds = frequency_thresholds(PolicyKind::default(), &eps, m);
        let width = eppi_protocol::construct::share_width(m);
        // ε-PPI's MPC is always among c coordinators regardless of m.
        let count = CountBelowCircuit::build(cfg.c, &thresholds, width);
        let mix = MixDecisionCircuit::build(cfg.c, &thresholds, width, cfg.coin_bits, 0);
        let eppi_size = count.circuit().stats().total_gates + mix.circuit().stats().total_gates;
        let fp = FixedPoint { frac_bits: 8 };
        let a_fp = fp.encode(1.0 / cfg.epsilon - 1.0);
        let l_fp = fp.encode((1.0f64 / (1.0 - 0.9)).ln());
        let pure = NaiveConstructionCircuit::build(m, &[a_fp], l_fp, fp, cfg.coin_bits, 0);
        let pure_size = pure.circuit().stats().total_gates;
        table.push_row(vec![
            m.to_string(),
            eppi_size.to_string(),
            pure_size.to_string(),
        ]);
    }
    table
}

/// Runs Fig. 6c: execution time vs number of identities, `c`-party
/// network.
pub fn fig6c(cfg: &Fig6Config) -> Table {
    let mut table = Table::new(
        format!(
            "Fig. 6c — execution time (ms) vs identities, {} parties",
            cfg.c
        ),
        vec!["identities".into(), "e-PPI".into(), "Pure-MPC".into()],
    );
    for &n in &cfg.identity_counts {
        let matrix = network(cfg.c, n);
        let epsilons = vec![Epsilon::saturating(cfg.epsilon); n];
        let (eppi_t, pure_t) = time_both(&matrix, &epsilons, cfg);
        table.push_row(vec![n.to_string(), ms(eppi_t), ms(pure_t)]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6b_eppi_flat_pure_grows() {
        let cfg = Fig6Config::quick();
        let t = fig6b(&cfg);
        let first_eppi: usize = t.rows[0][1].parse().unwrap();
        let last_eppi: usize = t.rows.last().unwrap()[1].parse().unwrap();
        let first_pure: usize = t.rows[0][2].parse().unwrap();
        let last_pure: usize = t.rows.last().unwrap()[2].parse().unwrap();
        // ε-PPI's circuit grows only via the share width (log m); the
        // naive pure-MPC circuit carries the whole Eq. 5 computation and
        // grows further with every provider's input bits.
        assert!(last_pure > first_pure, "pure should grow: {t}");
        assert!(
            first_pure > 20 * first_eppi,
            "in-circuit β must dwarf the coordinator circuits: {t}"
        );
        assert!(
            last_pure - first_pure > 2 * (last_eppi - first_eppi),
            "pure must grow faster than ε-PPI in absolute gates: {t}"
        );
    }

    #[test]
    fn fig6a_sim_shows_latency_gap() {
        let cfg = Fig6Config::quick();
        let t = fig6a_simulated(&cfg);
        assert_eq!(t.rows.len(), cfg.party_counts.len());
        let eppi: f64 = t.rows[0][1].parse().unwrap();
        let pure: f64 = t.rows[0][2].parse().unwrap();
        assert!(
            pure > 10.0 * eppi,
            "latency-bound pure MPC must dwarf ε-PPI: {eppi} vs {pure}"
        );
    }

    #[test]
    fn fig6a_produces_rows() {
        let cfg = Fig6Config::quick();
        let t = fig6a(&cfg);
        assert_eq!(t.rows.len(), cfg.party_counts.len());
    }

    #[test]
    fn fig6c_produces_rows() {
        let cfg = Fig6Config::quick();
        let t = fig6c(&cfg);
        assert_eq!(t.rows.len(), cfg.identity_counts.len());
    }
}
