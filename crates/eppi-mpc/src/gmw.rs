//! GMW-style secure evaluation of Boolean circuits — in-process backend.
//!
//! This is the generic-MPC engine standing in for FairplayMP (see
//! DESIGN.md §4 for the substitution rationale). Wire values are
//! XOR-secret-shared among the parties; XOR/NOT/Const gates are local,
//! while each AND gate consumes one **Beaver multiplication triple** and
//! one opening round (amortized across all AND gates at the same depth).
//!
//! Since the core refactor this module is a thin adapter: the protocol
//! itself lives in [`crate::gmw_core`] (one bit-packed [`PartyCore`] per
//! party, 64 wires per word) and the message flow in an
//! [`InProcessTransport`] hub driven in lockstep. The engine runs all
//! parties in-process under the semi-honest model the paper assumes
//! (§IV-C) and accounts the communication a real deployment would
//! perform: every AND layer is a batched all-to-all broadcast carrying
//! two logical bits per gate per ordered party pair, so per-AND-gate
//! traffic still grows quadratically with the party count — the
//! structural reason the paper's *pure MPC* baseline scales
//! super-linearly while ε-PPI pins the circuit to `c` coordinators.

use crate::circuit::{Circuit, InputLayout};
use crate::gmw_core::{deal_packed_triples, payload_bits, run_lockstep, PartyCore, Schedule};
use eppi_net::transport::InProcessTransport;
use rand::Rng;

/// The cost of one secure evaluation — the one record every backend
/// (in-process, simulated, threaded, each pipelined lane) reports.
///
/// Everything but `messages` and `bytes` is fixed by the circuit
/// structure and the party count, so two backends can only differ in
/// what their transport measured. Traffic follows the workspace-wide
/// two-unit convention documented in `eppi-net`'s crate docs:
/// [`bits_sent`](GmwStats::bits_sent) counts logical payload bits (the
/// paper's cost model) and [`bytes`](GmwStats::bytes) the packed wire
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GmwStats {
    /// Number of participating parties.
    pub parties: usize,
    /// AND gates evaluated (Beaver triples consumed).
    pub and_gates: usize,
    /// Synchronized AND-opening rounds (circuit AND-depth).
    pub and_rounds: usize,
    /// Protocol rounds: input sharing + one per AND layer + output
    /// opening (the first and last only when more than one party has
    /// something to exchange).
    pub rounds: usize,
    /// Total logical payload bits sent across all parties
    /// ([`logical_bits`](crate::gmw_core::logical_bits)).
    pub bits_sent: u64,
    /// Total point-to-point messages sent. Openings are batched per AND
    /// layer (one message per ordered party pair per round), not per
    /// gate. For one lane of a pipelined run this is 0: lanes share
    /// coalesced frames, which only the run as a whole can count.
    pub messages: u64,
    /// Total on-the-wire bytes of the packed batch encoding (0 for one
    /// pipelined lane, like `messages`).
    pub bytes: u64,
}

impl GmwStats {
    /// The cost record of evaluating `circuit` under `sched` among
    /// `layout.parties()` parties, given the `messages` and `bytes` the
    /// transport measured.
    pub fn measured(
        circuit: &Circuit,
        layout: &InputLayout,
        sched: &Schedule,
        messages: u64,
        bytes: u64,
    ) -> GmwStats {
        let parties = layout.parties();
        let and_rounds = sched.and_rounds();
        let exchanging = parties > 1;
        GmwStats {
            parties,
            and_gates: sched.and_gates(),
            and_rounds,
            rounds: and_rounds
                + usize::from(exchanging && circuit.inputs() > 0)
                + usize::from(exchanging && !circuit.outputs().is_empty()),
            bits_sent: payload_bits(layout, sched.and_gates(), circuit.outputs().len()),
            messages,
            bytes,
        }
    }
}

/// Securely evaluates `circuit` among `layout.parties()` parties.
///
/// `inputs[p]` holds party `p`'s private input bits in layout order. The
/// returned output bits are the opened (public) circuit outputs, exactly
/// equal to `circuit.eval(flattened inputs)`; the [`GmwStats`] describe
/// the communication a distributed run would have performed.
///
/// # Panics
///
/// Panics if the layout's total input count differs from the circuit's,
/// or if `inputs` disagrees with the layout.
///
/// ```
/// use eppi_mpc::builder::{to_bits, word_value, CircuitBuilder};
/// use eppi_mpc::circuit::InputLayout;
/// use eppi_mpc::gmw::execute;
/// use rand::SeedableRng;
///
/// // Two parties each contribute a 4-bit word; compute their sum.
/// let mut cb = CircuitBuilder::new();
/// let a = cb.input_word(4);
/// let b = cb.input_word(4);
/// let sum = cb.add_words_expand(&a, &b);
/// let circuit = cb.finish_word(sum);
/// let layout = InputLayout::new(vec![4, 4]);
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (out, stats) = execute(&circuit, &layout, &[to_bits(9, 4), to_bits(5, 4)], &mut rng);
/// assert_eq!(word_value(&out), 14);
/// assert_eq!(stats.parties, 2);
/// ```
pub fn execute<R: Rng + ?Sized>(
    circuit: &Circuit,
    layout: &InputLayout,
    inputs: &[Vec<bool>],
    rng: &mut R,
) -> (Vec<bool>, GmwStats) {
    let parties = layout.parties();
    let sched = Schedule::new(circuit);
    let mut triples = deal_packed_triples(parties, &sched, rng);
    let mut cores: Vec<PartyCore<'_>> = (0..parties)
        .map(|p| PartyCore::new(circuit, layout, &sched, p, std::mem::take(&mut triples[p])))
        .collect();
    let mut hub = InProcessTransport::hub(parties);
    let outputs = run_lockstep(&mut cores, &mut hub, |p, core| {
        core.share_inputs(&inputs[p], rng)
    });
    let report = hub[0].report();
    let stats = GmwStats::measured(circuit, layout, &sched, report.messages, report.bytes);
    debug_assert_eq!(report.bits, stats.bits_sent);
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{to_bits, word_value, CircuitBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn works_with_many_parties() {
        // 8 parties each supply one bit; compute the popcount.
        let parties = 8usize;
        let mut cb = CircuitBuilder::new();
        let bits: Vec<_> = (0..parties).map(|_| cb.input()).collect();
        let count = cb.popcount(&bits);
        let circuit = cb.finish_word(count);
        let layout = InputLayout::new(vec![1; parties]);
        let mut rng = StdRng::seed_from_u64(3);
        for pattern in [0u64, 1, 0b10110101, 0xff] {
            let inputs: Vec<Vec<bool>> =
                (0..parties).map(|p| vec![pattern >> p & 1 == 1]).collect();
            let (out, _) = execute(&circuit, &layout, &inputs, &mut rng);
            assert_eq!(word_value(&out), (pattern & 0xff).count_ones() as u64);
        }
    }

    #[test]
    fn communication_grows_quadratically_with_parties() {
        // Same circuit, increasing party counts: bits per AND gate is
        // 2·P·(P−1).
        let build = |parties: usize| {
            let mut cb = CircuitBuilder::new();
            let bits: Vec<_> = (0..parties).map(|_| cb.input()).collect();
            let all = cb.and_many(&bits);
            (cb.finish(vec![all]), InputLayout::new(vec![1; parties]))
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut per_and: Vec<f64> = Vec::new();
        for parties in [2usize, 4, 8] {
            let (circuit, layout) = build(parties);
            let inputs = vec![vec![true]; parties];
            let (_, stats) = execute(&circuit, &layout, &inputs, &mut rng);
            per_and.push(stats.bits_sent as f64 / stats.and_gates as f64);
        }
        assert!(per_and[1] > 2.5 * per_and[0], "4 vs 2 parties: {per_and:?}");
        assert!(per_and[2] > 2.5 * per_and[1], "8 vs 4 parties: {per_and:?}");
    }

    #[test]
    fn rounds_follow_and_depth() {
        let mut cb = CircuitBuilder::new();
        let a = cb.input();
        let b = cb.input();
        let c = cb.input();
        let ab = cb.and(a, b);
        let abc = cb.and(ab, c);
        let circuit = cb.finish(vec![abc]);
        let layout = InputLayout::new(vec![1, 1, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        let (_, stats) = execute(
            &circuit,
            &layout,
            &[vec![true], vec![true], vec![false]],
            &mut rng,
        );
        // input round + 2 AND layers + output round.
        assert_eq!(stats.rounds, 4);
    }

    #[test]
    fn bits_follow_cost_model_and_bytes_the_packed_framing() {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(8);
        let b = cb.input_word(8);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![8, 8]);
        let mut rng = StdRng::seed_from_u64(8);
        let (_, stats) = execute(
            &circuit,
            &layout,
            &[to_bits(3, 8), to_bits(200, 8)],
            &mut rng,
        );
        let s = circuit.stats();
        // bits: inputs·(P−1) + 2·ands·P·(P−1) + outputs·P·(P−1), P = 2.
        let expect = (s.inputs + 4 * s.and_gates + 2 * s.outputs) as u64;
        assert_eq!(stats.bits_sent, expect);
        // bytes: packed framing is a 4-byte header + 8 bytes per word;
        // input/output batches here are one word, AND-layer batches two
        // (word-aligned d then e halves).
        let layers = circuit.and_layers();
        let mut expect_bytes = 2 * 12u64; // input scatter, one 8-bit batch each way
        for layer in &layers {
            let words = 2 * layer.len().div_ceil(64);
            expect_bytes += 2 * (4 + 8 * words) as u64;
        }
        expect_bytes += 2 * 12; // output opening, one 1-bit batch each way
        assert_eq!(stats.bytes, expect_bytes);
        assert_eq!(stats.messages, 2 + 2 * layers.len() as u64 + 2);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn layout_arity_checked() {
        let mut cb = CircuitBuilder::new();
        cb.input();
        let circuit = cb.finish(vec![]);
        let layout = InputLayout::new(vec![2]);
        let mut rng = StdRng::seed_from_u64(0);
        execute(&circuit, &layout, &[vec![true, false]], &mut rng);
    }
}
