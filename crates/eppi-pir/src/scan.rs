//! Server-side oblivious XOR scan kernels.
//!
//! A PIR server answers a [`SelectionVector`] by XOR-accumulating the
//! selected rows of its packed row block. The kernels here are
//! deliberately *branchless over the selection*: every row is read and
//! combined under an all-ones/all-zero mask whether or not it is
//! selected, so the memory traffic and instruction stream — the whole
//! observable scan shape — are identical for every query. That linear
//! pass is the obliviousness invariant the serve-mode tests pin down
//! (`pir.scanned_words` moves by exactly the same amount for every
//! query), and the batched kernels are where Peer2PIR's lesson lands:
//! one pass over the rows serves a whole batch of vectors, amortizing
//! the scan.
//!
//! Two addressing modes:
//!
//! * **dense** ([`xor_scan`], [`xor_scan_batch`]) — slot `s` holds row
//!   `s`; for flat, unsharded row blocks.
//! * **indexed** ([`xor_scan_indexed`], [`xor_scan_indexed_batch`]) —
//!   slot `s` holds row `row_ids[s]`; for the owner-hash shard layout,
//!   where each shard stores an arbitrary subset of the global row
//!   space and partial answers XOR together across shards.

use crate::query::SelectionVector;
use eppi_core::model::OwnerId;

fn check_acc(words_per_row: usize, acc: &[u64]) {
    assert_eq!(
        acc.len(),
        words_per_row,
        "accumulator of {} words cannot hold {words_per_row}-word rows",
        acc.len()
    );
}

#[inline]
fn xor_masked(acc: &mut [u64], row: &[u64], mask: u64) {
    for (a, &w) in acc.iter_mut().zip(row) {
        *a ^= w & mask;
    }
}

/// XOR-accumulates the selected rows of a dense block (slot ≡ row id)
/// into `acc`. Returns the number of `u64` words scanned — always the
/// block's word count, independent of the query.
///
/// Generic over anything physically laid out as flat packed words
/// (`&[u64]`, `Vec<u64>`, `eppi_core::rowstore::DenseRows`, …) — the
/// kernels never see the storage type, only the dense words, which is
/// exactly the property the obliviousness invariant needs.
///
/// # Panics
///
/// Panics if `rows` is not a whole number of `words_per_row`-word rows
/// or `acc` is mis-sized.
pub fn xor_scan<R: AsRef<[u64]> + ?Sized>(
    rows: &R,
    words_per_row: usize,
    query: &SelectionVector,
    acc: &mut [u64],
) -> u64 {
    let rows = rows.as_ref();
    check_acc(words_per_row, acc);
    assert_eq!(rows.len() % words_per_row.max(1), 0, "ragged row block");
    for (slot, row) in rows.chunks_exact(words_per_row).enumerate() {
        xor_masked(acc, row, query.mask(slot as u32));
    }
    rows.len() as u64
}

/// Batched [`xor_scan`]: one pass over the rows answers every query in
/// `queries` (`accs[i]` accumulates query `i`). Each row is read once
/// and applied under each query's mask while still cache-hot — the
/// batching that amortizes the linear scan. Returns words scanned
/// (counted once; the row pass is shared).
///
/// # Panics
///
/// Panics if `queries` and `accs` differ in length, any accumulator is
/// mis-sized, or the row block is ragged.
pub fn xor_scan_batch<R: AsRef<[u64]> + ?Sized>(
    rows: &R,
    words_per_row: usize,
    queries: &[SelectionVector],
    accs: &mut [Vec<u64>],
) -> u64 {
    let rows = rows.as_ref();
    assert_eq!(queries.len(), accs.len(), "one accumulator per query");
    for acc in accs.iter() {
        check_acc(words_per_row, acc);
    }
    assert_eq!(rows.len() % words_per_row.max(1), 0, "ragged row block");
    for (slot, row) in rows.chunks_exact(words_per_row).enumerate() {
        for (query, acc) in queries.iter().zip(accs.iter_mut()) {
            xor_masked(acc, row, query.mask(slot as u32));
        }
    }
    rows.len() as u64
}

/// As [`xor_scan`] for an indexed block: slot `s` holds global row
/// `row_ids[s]` (the shard layout's slot → owner map). Rows whose id
/// lies beyond the vector's span contribute nothing, on every server
/// alike.
///
/// # Panics
///
/// Panics if `rows` does not hold exactly one row per id or `acc` is
/// mis-sized.
pub fn xor_scan_indexed<R: AsRef<[u64]> + ?Sized>(
    rows: &R,
    words_per_row: usize,
    row_ids: &[OwnerId],
    query: &SelectionVector,
    acc: &mut [u64],
) -> u64 {
    let rows = rows.as_ref();
    check_acc(words_per_row, acc);
    assert_eq!(
        rows.len(),
        row_ids.len() * words_per_row,
        "ragged row block"
    );
    for (row, &id) in rows.chunks_exact(words_per_row.max(1)).zip(row_ids) {
        xor_masked(acc, row, query.mask(id.0));
    }
    rows.len() as u64
}

/// Batched [`xor_scan_indexed`] — the kernel the serve engine runs on
/// each shard. Returns words scanned (one shared row pass).
///
/// # Panics
///
/// Panics if `queries` and `accs` differ in length, any accumulator is
/// mis-sized, or the row block is ragged.
pub fn xor_scan_indexed_batch<R: AsRef<[u64]> + ?Sized>(
    rows: &R,
    words_per_row: usize,
    row_ids: &[OwnerId],
    queries: &[SelectionVector],
    accs: &mut [Vec<u64>],
) -> u64 {
    let rows = rows.as_ref();
    assert_eq!(queries.len(), accs.len(), "one accumulator per query");
    for acc in accs.iter() {
        check_acc(words_per_row, acc);
    }
    assert_eq!(
        rows.len(),
        row_ids.len() * words_per_row,
        "ragged row block"
    );
    for (row, &id) in rows.chunks_exact(words_per_row.max(1)).zip(row_ids) {
        for (query, acc) in queries.iter().zip(accs.iter_mut()) {
            xor_masked(acc, row, query.mask(id.0));
        }
    }
    rows.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryPair;
    use eppi_core::rows::RowAnswer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random dense row block: `n` rows of `wpr` words.
    fn random_block(rng: &mut StdRng, n: usize, wpr: usize) -> Vec<u64> {
        (0..n * wpr).map(|_| rng.gen::<u64>()).collect()
    }

    fn row(block: &[u64], wpr: usize, j: usize) -> &[u64] {
        &block[j * wpr..(j + 1) * wpr]
    }

    #[test]
    fn two_server_recombination_recovers_the_exact_row() {
        let mut rng = StdRng::seed_from_u64(31);
        for (n, wpr) in [(1, 1), (64, 2), (100, 3)] {
            let block = random_block(&mut rng, n, wpr);
            for target in [0, n / 2, n - 1] {
                let pair = QueryPair::generate(n, target, &mut rng);
                let mut share_a = vec![0u64; wpr];
                let mut share_b = vec![0u64; wpr];
                assert_eq!(
                    xor_scan(&block, wpr, &pair.a, &mut share_a),
                    (n * wpr) as u64
                );
                xor_scan(&block, wpr, &pair.b, &mut share_b);
                let mut got = RowAnswer::new(share_a, wpr * 64);
                got.xor_assign(&RowAnswer::new(share_b, wpr * 64));
                assert_eq!(got.words(), row(&block, wpr, target), "row {target}");
            }
        }
    }

    #[test]
    fn indexed_scan_matches_dense_scan_under_permutation() {
        let mut rng = StdRng::seed_from_u64(32);
        let (n, wpr) = (37, 2);
        let block = random_block(&mut rng, n, wpr);
        // A "shard" holding rows in scrambled order.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let shard_rows: Vec<u64> = ids
            .iter()
            .flat_map(|&id| row(&block, wpr, id as usize).to_vec())
            .collect();
        let owner_ids: Vec<OwnerId> = ids.iter().map(|&i| OwnerId(i)).collect();
        let query = SelectionVector::random(n, &mut rng);
        let mut dense = vec![0u64; wpr];
        let mut indexed = vec![0u64; wpr];
        xor_scan(&block, wpr, &query, &mut dense);
        xor_scan_indexed(&shard_rows, wpr, &owner_ids, &query, &mut indexed);
        assert_eq!(dense, indexed);
    }

    #[test]
    fn batch_equals_independent_single_scans() {
        let mut rng = StdRng::seed_from_u64(33);
        let (n, wpr, batch) = (50, 3, 7);
        let block = random_block(&mut rng, n, wpr);
        let queries: Vec<SelectionVector> = (0..batch)
            .map(|_| SelectionVector::random(n, &mut rng))
            .collect();
        let mut accs = vec![vec![0u64; wpr]; batch];
        let scanned = xor_scan_batch(&block, wpr, &queries, &mut accs);
        assert_eq!(scanned, (n * wpr) as u64, "one shared pass");
        for (query, acc) in queries.iter().zip(&accs) {
            let mut single = vec![0u64; wpr];
            xor_scan(&block, wpr, query, &mut single);
            assert_eq!(&single, acc);
        }
        // Indexed batch agrees too (identity id map).
        let ids: Vec<OwnerId> = (0..n as u32).map(OwnerId).collect();
        let mut accs2 = vec![vec![0u64; wpr]; batch];
        xor_scan_indexed_batch(&block, wpr, &ids, &queries, &mut accs2);
        assert_eq!(accs, accs2);
    }

    #[test]
    fn rows_beyond_the_vector_span_are_never_selected() {
        let mut rng = StdRng::seed_from_u64(34);
        let wpr = 2;
        // Server holds 10 rows; the vector only spans 6 (an epoch
        // append raced the client). The surplus rows must not leak in.
        let block = random_block(&mut rng, 10, wpr);
        let pair = QueryPair::generate(6, 3, &mut rng);
        let mut share_a = vec![0u64; wpr];
        let mut share_b = vec![0u64; wpr];
        xor_scan(&block, wpr, &pair.a, &mut share_a);
        xor_scan(&block, wpr, &pair.b, &mut share_b);
        for (a, b) in share_a.iter_mut().zip(&share_b) {
            *a ^= b;
        }
        assert_eq!(share_a, row(&block, wpr, 3));
    }

    #[test]
    fn scan_shape_is_query_independent() {
        let mut rng = StdRng::seed_from_u64(35);
        let (n, wpr) = (64, 2);
        let block = random_block(&mut rng, n, wpr);
        let mut acc = vec![0u64; wpr];
        let everything = SelectionVector::random(n, &mut rng);
        let nothing = SelectionVector::zero(n);
        let one = SelectionVector::singleton(n, 9);
        let words: Vec<u64> = [everything, nothing, one]
            .iter()
            .map(|q| {
                acc.iter_mut().for_each(|w| *w = 0);
                xor_scan(&block, wpr, q, &mut acc)
            })
            .collect();
        assert_eq!(words, vec![(n * wpr) as u64; 3]);
    }

    #[test]
    #[should_panic(expected = "ragged row block")]
    fn ragged_blocks_are_rejected() {
        let mut acc = vec![0u64; 2];
        xor_scan(&[1, 2, 3], 2, &SelectionVector::zero(2), &mut acc);
    }
}
