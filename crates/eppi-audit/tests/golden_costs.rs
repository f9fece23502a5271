//! Golden cost table of the audit certificate: the exact byte size of a
//! proof at fixed `(seed, n, R)` points. `bench/`'s `proof_kb` and
//! `audit.proof_bytes_per_owner` read `ColumnProof::size_bytes` at a
//! larger scale, so a change that ships proof bytes again fails here
//! first.
//!
//! The check reads public data only (DESIGN.md §16), so a proof carries
//! no fields and a certificate is its 72-byte commitment:
//!
//! ```text
//! 0 bytes, for every n and R
//! ```

use eppi_audit::{
    decision_words, mask_tail, prove_column, verify_column, AuditParams, ColumnCommitment,
    ColumnStatement,
};
use eppi_core::model::ProviderId;

const EPOCH_SEED: u64 = 7;
const PROVIDER: ProviderId = ProviderId(3);
const PROVER_SEED: u64 = 0x5eed;

#[test]
fn proof_bytes_are_the_sum_of_the_fields_and_the_closed_form() {
    for owners in [0usize, 1, 100, 2048] {
        for repetitions in [1, 8, 40] {
            let nw = owners.div_ceil(64);
            let betas: Vec<f64> = (0..owners).map(|j| (j % 10) as f64 / 10.0).collect();
            let raw: Vec<u64> = (0..nw as u64)
                .map(|w| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(w + 1))
                .collect();
            let mut published: Vec<u64> = decision_words(EPOCH_SEED, PROVIDER, &betas)
                .iter()
                .zip(&raw)
                .map(|(d, r)| d | r)
                .collect();
            mask_tail(&mut published, owners);
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
            assert_eq!(proof.size_bytes(), 0, "n = {owners}, R = {repetitions}");
            assert_eq!(size_of_val(&proof), 0);
        }
    }
}
