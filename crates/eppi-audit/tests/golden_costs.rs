//! Golden cost table of the audit proof: the decomposed circuit's shape
//! and the exact byte size of a proof at two fixed `(seed, n, R)`
//! points. `bench/`'s `proof_kb` and `audit.proof_bytes_per_owner` read
//! `ColumnProof::size_bytes` at a larger scale, so a change that puts a
//! public gate back into the decomposition, or that stops counting a
//! field, fails here first.
//!
//! Per repetition a proof carries three view commitments, three output
//! share vectors, two seeds, one AND slot of partner words, and party
//! 2's witness share when the challenge opens party 2 (`nw` =
//! `words_for(n)`):
//!
//! ```text
//! 96 + 24·nw + 16 + 8·nw  (+ 8·nw when party 2 opens)   bytes
//! ```

use eppi_audit::{
    decision_words, flip_circuit, prove_column, verify_column, AuditParams, ColumnCommitment,
    ColumnProof, ColumnStatement,
};
use eppi_core::model::ProviderId;
use eppi_mpc::gmw_core::Schedule;
use eppi_mpc::packed::words_for;
use std::mem::size_of_val;

const EPOCH_SEED: u64 = 7;
const PROVIDER: ProviderId = ProviderId(3);
const PROVER_SEED: u64 = 0x5eed;

/// `(owners, repetitions, repetitions that open party 2, size_bytes)`.
/// Which pairs open is fixed by the Fiat–Shamir transcript of the seeds
/// above; about two thirds of the repetitions open party 2.
const SHAPES: [(usize, usize, usize, usize); 2] = [(100, 8, 6, 1504), (2048, 40, 24, 51_584)];

/// Every field of the proof, byte for byte.
fn literal_bytes(proof: &ColumnProof) -> usize {
    proof
        .reps
        .iter()
        .map(|r| {
            size_of_val(&r.commits)
                + r.outputs
                    .iter()
                    .map(|y| size_of_val(y.as_slice()))
                    .sum::<usize>()
                + size_of_val(&r.seeds)
                + size_of_val(r.partner_ands.as_slice())
                + size_of_val(r.witness_share.as_slice())
        })
        .sum()
}

#[test]
fn the_decomposed_circuit_is_one_and_slot_over_two_inputs() {
    let circuit = flip_circuit();
    assert_eq!(circuit.inputs(), 2);
    assert_eq!(circuit.stats().and_gates, 1);
    assert_eq!(Schedule::new(&circuit).and_gates(), 1);
}

#[test]
fn proof_bytes_are_the_sum_of_the_fields_and_the_closed_form() {
    for (owners, repetitions, party2_opens, bytes) in SHAPES {
        let nw = words_for(owners);
        let betas: Vec<f64> = (0..owners).map(|j| (j % 10) as f64 / 10.0).collect();
        let raw: Vec<u64> = (0..nw as u64)
            .map(|w| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w + 1))
            .collect();
        let mut published: Vec<u64> = decision_words(EPOCH_SEED, PROVIDER, &betas)
            .iter()
            .zip(&raw)
            .map(|(d, r)| d | r)
            .collect();
        eppi_audit::mask_tail(&mut published, owners);
        let stmt = ColumnStatement {
            epoch_seed: EPOCH_SEED,
            provider: PROVIDER,
            betas: &betas,
            published: &published,
        };
        let params = AuditParams { repetitions };
        let proof = prove_column(&stmt, &raw, &params, PROVER_SEED);
        let commitment = ColumnCommitment::compute(EPOCH_SEED, PROVIDER, &betas, &published);
        verify_column(&stmt, &commitment, &proof, &params).unwrap();

        let what = format!("n = {owners}, R = {repetitions}");
        assert!(
            proof.reps.iter().all(|r| r.partner_ands.len() == nw),
            "{what}"
        );
        let opened = proof
            .reps
            .iter()
            .filter(|r| !r.witness_share.is_empty())
            .count();
        assert_eq!(opened, party2_opens, "{what}");
        assert_eq!(proof.size_bytes(), literal_bytes(&proof), "{what}");
        assert_eq!(
            proof.size_bytes(),
            repetitions * (96 + 24 * nw + 16 + 8 * nw) + party2_opens * 8 * nw,
            "{what}"
        );
        assert_eq!(proof.size_bytes(), bytes, "{what}");
    }
}
