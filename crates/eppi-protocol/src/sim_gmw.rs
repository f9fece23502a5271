//! GMW evaluation over the round-based network simulator.
//!
//! One of the four execution backends of the single packed GMW core
//! ([`eppi_mpc::gmw_core`]; `Backend::execute` in [`crate::countbelow`]
//! is where a backend choice turns into a call here): the protocol
//! logic lives in
//! [`PartyCore`], and this module only supplies the transport — a
//! [`SimTransport`] hub whose every exchange runs as one round of the
//! deterministic [`eppi_net::sim::Simulator`] under the configurable
//! [`LinkModel`]. The run therefore accumulates *simulated network
//! time*, the quantity that dominated the paper's Emulab numbers (their
//! LAN round trips, not CPU, set the curve); it is the backend behind
//! the Fig. 6a latency curves at party counts no thread-per-party run
//! could reach.
//!
//! Message flow per party: one packed input-share batch to every peer
//! (round 1), then per AND layer one broadcast
//! [`PackedBatch`](eppi_net::transport::PackedBatch) carrying
//! the layer's `d`/`e` openings word-aligned (64 gates per `u64` word —
//! not a per-gate bit pair), then one packed output-share broadcast.
//! Rounds advance in lockstep because the simulator delivers all of
//! round `r`'s messages before round `r + 1`. The returned
//! [`NetStats`] follow the workspace traffic convention (see
//! `eppi-net`'s crate docs): logical payload bits in
//! [`NetStats::bits`], packed on-the-wire bytes in [`NetStats::bytes`].

use eppi_mpc::circuit::{Circuit, InputLayout};
use eppi_mpc::gmw_core::{deal_packed_triples, run_lockstep, PartyCore, Schedule};
use eppi_net::sim::{LinkModel, NetStats};
use eppi_net::transport::SimTransport;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Executes `circuit` among `layout.parties()` simulated parties and
/// returns the opened outputs plus the network statistics (rounds,
/// bits, bytes, simulated time under `link`).
///
/// # Panics
///
/// Panics if the layout/input shapes disagree with the circuit, or if
/// the parties open different outputs (a protocol bug).
pub fn execute_simulated(
    circuit: &Circuit,
    layout: &InputLayout,
    inputs: &[Vec<bool>],
    link: LinkModel,
    seed: u64,
) -> (Vec<bool>, NetStats) {
    assert_eq!(
        layout.total_inputs(),
        circuit.inputs(),
        "layout does not cover the circuit inputs"
    );
    assert_eq!(inputs.len(), layout.parties(), "one input vector per party");
    let parties = layout.parties();
    let sched = Schedule::new(circuit);

    // Dealer (offline phase) and per-party RNGs, seeded exactly as the
    // pre-refactor backend so runs stay reproducible per seed.
    let mut dealer_rng = StdRng::seed_from_u64(seed ^ 0xdea1);
    let mut triples = deal_packed_triples(parties, &sched, &mut dealer_rng);
    let mut rngs: Vec<StdRng> = (0..parties)
        .map(|p| StdRng::seed_from_u64(seed ^ (p as u64).wrapping_mul(0x9e3779b97f4a7c15)))
        .collect();

    let mut cores: Vec<PartyCore<'_>> = (0..parties)
        .map(|p| PartyCore::new(circuit, layout, &sched, p, std::mem::take(&mut triples[p])))
        .collect();
    let mut hub = SimTransport::hub(parties, link);
    let outputs = run_lockstep(&mut cores, &mut hub, |p, core| {
        core.share_inputs(&inputs[p], &mut rngs[p])
    });
    let stats = hub[0].stats();
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_mpc::builder::CircuitBuilder;

    #[test]
    fn simulated_time_scales_with_and_depth() {
        // Deeper circuits take more simulated rounds → more latency.
        let build = |chain: usize| {
            let mut cb = CircuitBuilder::new();
            let mut w = cb.input();
            let x = cb.input();
            for _ in 0..chain {
                w = cb.and(w, x);
            }
            (cb.finish(vec![w]), InputLayout::new(vec![1, 1]))
        };
        let (short, l1) = build(2);
        let (long, l2) = build(16);
        let inputs = vec![vec![true], vec![true]];
        let (_, s1) = execute_simulated(&short, &l1, &inputs, LinkModel::LAN, 1);
        let (_, s2) = execute_simulated(&long, &l2, &inputs, LinkModel::LAN, 1);
        assert!(s2.rounds > s1.rounds);
        assert!(s2.simulated_us > s1.simulated_us);
    }

    #[test]
    fn count_below_runs_simulated() {
        use eppi_mpc::circuits::CountBelowCircuit;
        use eppi_mpc::field::Modulus;
        use eppi_mpc::share::split;
        use rand::SeedableRng;
        let thresholds = [25u64, 60];
        let cc = CountBelowCircuit::build(3, &thresholds, 8);
        let q = Modulus::pow2(8);
        let mut rng = StdRng::seed_from_u64(2);
        let freqs = [30u64, 10];
        let mut per = vec![vec![0u64; 2]; 3];
        for (j, &f) in freqs.iter().enumerate() {
            let s = split(f, 3, q, &mut rng);
            for (k, &v) in s.values().iter().enumerate() {
                per[k][j] = v;
            }
        }
        let inputs: Vec<Vec<bool>> = per.iter().map(|s| cc.encode_party_input(s)).collect();
        let (out, stats) = execute_simulated(cc.circuit(), cc.layout(), &inputs, LinkModel::LAN, 3);
        assert_eq!(cc.decode_count(&out), 1);
        assert!(stats.simulated_us > 0.0);
        assert!(stats.bytes > 0);
    }
}
