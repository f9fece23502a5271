//! The flip circuit: the publication rule as a Boolean relation.
//!
//! One circuit instance decides one cell. The paper's construction rule
//! (§IV-A, Formula 9) keeps inside the secure computation only what
//! touches a secret, and the proven relation follows it: the one
//! secret is the provider's raw membership bit, so the circuit is the
//! one gate that bit enters —
//!
//! ```text
//! published = raw ∨ decision               (the truthful-OR of Eq. 2)
//! ```
//!
//! — and `decision = coin < T(β)` is a *public input*: prover and
//! verifier each derive it from public state ([`decision_words`], the
//! exact [`eppi_core::publish::publish_cell`] rule on a non-member
//! cell), and the verifier never reads it from a proof. The circuit
//! output therefore agrees bit-for-bit with `publish_cell` for every
//! cell — pinned by `circuit_matches_publish_cell`.
//!
//! The prover evaluates the circuit bitsliced: every wire carries one
//! 64-bit word per owner block, i.e. 64 cell instances per word
//! (`PackedBits` packing), which is the same trick the GMW core uses.

use eppi_core::model::{OwnerId, ProviderId};
use eppi_core::publish::publish_cell;
use eppi_mpc::builder::CircuitBuilder;
use eppi_mpc::circuit::Circuit;
use eppi_mpc::packed::words_for;

/// Input-wire count of the flip circuit: the secret raw bit and the
/// public decision bit.
pub const FLIP_INPUTS: usize = 2;

/// Builds the flip circuit. Wire 0 is the secret raw bit, wire 1 the
/// public decision bit; the one output wire is the published bit. Its
/// only AND gate (the OR's product term) has the witness in its fan-in:
/// an AND of public values alone would be proven 3·R times for nothing.
pub fn flip_circuit() -> Circuit {
    let mut b = CircuitBuilder::new();
    let raw = b.input();
    let decision = b.input();
    let published = b.or(raw, decision);
    b.finish(vec![published])
}

/// The all-valid-lanes mask for the last word of an `owners`-bit packed
/// vector: bits past the owner count never count.
pub fn tail_mask(owners: usize) -> u64 {
    match owners % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// Masks the tail lanes of a packed `owners`-bit vector in place.
pub fn mask_tail(words: &mut [u64], owners: usize) {
    if let Some(last) = words.last_mut() {
        *last &= tail_mask(owners);
    }
}

/// The packed per-owner publication *decision* bits of one provider
/// column under the official β's: lane `j` is `coin_j < T(β_j)` — what
/// the provider's committed decisions must equal, and the flip
/// circuit's public input word.
pub fn decision_words(epoch_seed: u64, provider: ProviderId, betas: &[f64]) -> Vec<u64> {
    let mut words = vec![0u64; words_for(betas.len())];
    for (j, &beta) in betas.iter().enumerate() {
        // A decision is a decoy on a non-member cell; publish_cell with
        // member = false is exactly the decision bit.
        if publish_cell(epoch_seed, provider, OwnerId(j as u32), false, beta) {
            words[j / 64] |= 1u64 << (j % 64);
        }
    }
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_mpc::circuit::Gate;

    #[test]
    fn circuit_shape() {
        let c = flip_circuit();
        assert_eq!(c.inputs(), FLIP_INPUTS);
        assert_eq!(c.outputs().len(), 1);
        // The OR's product term, and nothing else.
        assert_eq!(c.stats().and_gates, 1);
    }

    /// Taint analysis from the witness wire: an AND whose fan-in is
    /// public-only would cost a decomposed slot in every repetition while
    /// proving nothing the verifier cannot compute itself — the public
    /// comparator must never re-enter the circuit unnoticed.
    #[test]
    fn every_and_gate_depends_on_the_witness() {
        let c = flip_circuit();
        let mut tainted = vec![false; c.wires()];
        tainted[0] = true;
        for (g, gate) in c.gates().iter().enumerate() {
            tainted[c.inputs() + g] = match *gate {
                Gate::Xor(a, b) => tainted[a.index()] || tainted[b.index()],
                Gate::Not(a) => tainted[a.index()],
                Gate::Const(_) => false,
                Gate::And(a, b) => {
                    let secret = tainted[a.index()] || tainted[b.index()];
                    assert!(secret, "gate {g} is an AND of public wires only");
                    secret
                }
            };
        }
        assert!(tainted[c.outputs()[0].index()]);
    }

    #[test]
    fn circuit_matches_publish_cell() {
        let circuit = flip_circuit();
        for seed in [0u64, 7, 0xdead_beef] {
            for p in 0..6u32 {
                for beta in [0.0, 0.2, 0.5, 0.93, 1.0] {
                    let decisions = decision_words(seed, ProviderId(p), &[beta; 6]);
                    for o in 0..6u32 {
                        for member in [false, true] {
                            let decision = decisions[0] >> o & 1 == 1;
                            let out = circuit.eval(&[member, decision]);
                            let expect =
                                publish_cell(seed, ProviderId(p), OwnerId(o), member, beta);
                            assert_eq!(
                                out,
                                [expect],
                                "seed {seed} cell ({p},{o}) β {beta} member {member}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn public_words_slice_per_lane() {
        let betas = vec![0.3; 70];
        let words = decision_words(5, ProviderId(2), &betas);
        assert_eq!(words.len(), 2);
        // Lane 65 of the public input word is owner 65's decision bit.
        let expect = publish_cell(5, ProviderId(2), OwnerId(65), false, 0.3);
        assert_eq!(words[1] >> 1 & 1 == 1, expect);
        // Lanes past the owner count carry nothing.
        assert_eq!(words[1] & !tail_mask(70), 0);
        assert!(decision_words(5, ProviderId(2), &[]).is_empty());
    }

    #[test]
    fn decisions_match_cellwise_rule() {
        let betas: Vec<f64> = (0..130).map(|j| (j % 11) as f64 / 10.0).collect();
        let words = decision_words(9, ProviderId(4), &betas);
        for (j, &beta) in betas.iter().enumerate() {
            let expect = publish_cell(9, ProviderId(4), OwnerId(j as u32), false, beta);
            assert_eq!(words[j / 64] >> (j % 64) & 1 == 1, expect, "owner {j}");
        }
    }

    #[test]
    fn tail_masks() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(65), 1);
        let mut words = vec![!0u64, !0];
        mask_tail(&mut words, 70);
        assert_eq!(words, vec![!0, 0x3f]);
    }
}
