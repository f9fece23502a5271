//! The MPC-in-the-head prover and verifier (ZKBoo over GF(2)).
//!
//! The prover runs the flip circuit ([`crate::flip`]) under a
//! 2-out-of-3 XOR decomposition: the raw column is split into three
//! additive shares, each "virtual party" evaluates the circuit on its
//! share, and AND gates consume one correlated tape word per party —
//! the (2,3)-decomposition of \[ZKBoo, GMO16\]:
//!
//! ```text
//! z_i = a_i·b_i ⊕ a_{i+1}·b_i ⊕ a_i·b_{i+1} ⊕ r_i ⊕ r_{i+1}     (indices mod 3)
//! ```
//!
//! Summing the three `z_i` telescopes to `(Σa)(Σb)`: the tape words
//! cancel and every cross term appears exactly once, so the three
//! shares always reconstruct the plain circuit value. Crucially, party
//! `i`'s view depends only on its own state and party `i+1`'s wires —
//! so opening *two* adjacent views lets a verifier recompute one of
//! them completely while the third share keeps the witness hidden.
//!
//! Everything is word-level: a wire's share is one 64-bit word per
//! owner block (64 circuit instances per word — [`PackedBits`]
//! packing), and tape words are indexed by the dense AND-slot order of
//! the GMW [`Schedule`], the same machinery the MPC runtime uses.
//!
//! The challenge is Fiat–Shamir: all 3·R view commitments and 3·R
//! output share vectors are hashed together with the statement and the
//! column commitment, and the resulting digest picks which adjacent
//! pair `(e, e+1)` opens in each repetition. A cheating prover must
//! corrupt at least one party's view, which survives only when the
//! challenge avoids recomputing that view — probability 2/3 per
//! repetition, `(2/3)^R` overall (≈ 9·10⁻⁸ at the default R = 40).
//!
//! [`PackedBits`]: eppi_mpc::packed::PackedBits
//! [`Schedule`]: eppi_mpc::gmw_core::Schedule

use crate::commitment::ColumnCommitment;
use crate::error::AuditError;
use crate::flip::{flip_circuit, public_input_words, tail_mask, FLIP_INPUTS};
use eppi_core::commit::{Digest256, Hasher256};
use eppi_core::model::ProviderId;
use eppi_mpc::circuit::{Circuit, Gate};
use eppi_mpc::gmw_core::Schedule;
use eppi_mpc::packed::words_for;
use eppi_trace::Obs;
use std::time::Instant;

/// Default repetition count: soundness error `(2/3)^40 ≈ 9·10⁻⁸`.
pub const DEFAULT_REPETITIONS: usize = 40;

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;
/// PRG domain of the AND-gate tape stream.
const TAPE_DOMAIN: u64 = 0xA1;
/// PRG domain of the witness-share stream.
const WITNESS_DOMAIN: u64 = 0xA2;

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Audit proof-system parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditParams {
    /// Number of independent repetitions; each adds a 2/3 factor to
    /// the soundness error.
    pub repetitions: usize,
}

impl Default for AuditParams {
    fn default() -> Self {
        AuditParams {
            repetitions: DEFAULT_REPETITIONS,
        }
    }
}

/// The public statement one column proof speaks about.
#[derive(Debug, Clone, Copy)]
pub struct ColumnStatement<'a> {
    /// The lineage seed driving the deterministic publication coins.
    pub epoch_seed: u64,
    /// The proving provider.
    pub provider: ProviderId,
    /// The official per-owner publishing probabilities.
    pub betas: &'a [f64],
    /// The packed published column entering the epoch.
    pub published: &'a [u64],
}

impl ColumnStatement<'_> {
    /// Owner count of the column.
    pub fn owners(&self) -> usize {
        self.betas.len()
    }

    /// Packed word count per wire.
    pub fn words(&self) -> usize {
        words_for(self.owners())
    }
}

/// One Fiat–Shamir repetition: the three committed views, all three
/// output share vectors, and the opening of the challenged pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepetitionProof {
    /// View commitments of the three virtual parties.
    pub commits: [Digest256; 3],
    /// Output share words of the three parties (their XOR is the
    /// claimed published column).
    pub outputs: [Vec<u64>; 3],
    /// PRG seeds of the opened parties `e` and `e+1`.
    pub seeds: [u64; 2],
    /// AND-gate output words of party `e+1`, AND-slot-major — the
    /// wires party `e`'s recomputation needs.
    pub partner_ands: Vec<u64>,
    /// Party 2's explicit witness-share words, present iff party 2 is
    /// in the opened pair (parties 0 and 1 derive theirs from their
    /// seeds).
    pub witness_share: Vec<u64>,
}

/// A full MPC-in-the-head proof for one provider column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProof {
    /// One entry per repetition.
    pub reps: Vec<RepetitionProof>,
}

impl ColumnProof {
    /// Serialized size of the proof in bytes (digests + words + seeds).
    pub fn size_bytes(&self) -> usize {
        self.reps
            .iter()
            .map(|r| {
                3 * 32
                    + r.outputs.iter().map(|y| y.len() * 8).sum::<usize>()
                    + 2 * 8
                    + r.partner_ands.len() * 8
                    + r.witness_share.len() * 8
            })
            .sum()
    }
}

/// Counter-mode PRG word `index` of stream `(seed, domain)` — the
/// splitmix64 construction over a domain-twisted seed.
#[inline]
fn prg_word(seed: u64, domain: u64, index: u64) -> u64 {
    mix64(
        seed ^ mix64(domain.wrapping_mul(GAMMA))
            ^ (index.wrapping_add(1)).wrapping_mul(0x2545_f491_4f6c_dd1d),
    )
}

fn prg_words(seed: u64, domain: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| prg_word(seed, domain, i))
        .collect()
}

/// The per-(repetition, party) PRG seed of one proving session.
fn rep_seed(prover_seed: u64, stmt: &ColumnStatement<'_>, rep: usize, party: usize) -> u64 {
    let mut h = Hasher256::new("eppi.audit.seed.v1");
    h.absorb_u64(prover_seed);
    h.absorb_u64(stmt.epoch_seed);
    h.absorb_u64(u64::from(stmt.provider.0));
    h.absorb_u64(rep as u64);
    h.absorb_u64(party as u64);
    h.finalize().0[0]
}

/// Commits one party's view: its seed, its explicit witness share
/// (party 2 only — parties 0/1 re-derive theirs from the seed), and
/// its AND-gate output words. Bound to the statement coordinates so a
/// view cannot be replayed across cells, repetitions, or parties.
fn commit_view(
    stmt: &ColumnStatement<'_>,
    rep: usize,
    party: usize,
    seed: u64,
    witness: &[u64],
    ands: &[u64],
) -> Digest256 {
    let mut h = Hasher256::new("eppi.audit.view.v1");
    h.absorb_u64(stmt.epoch_seed);
    h.absorb_u64(u64::from(stmt.provider.0));
    h.absorb_u64(stmt.owners() as u64);
    h.absorb_u64(rep as u64);
    h.absorb_u64(party as u64);
    h.absorb_u64(seed);
    h.absorb_words(witness);
    h.absorb_words(ands);
    h.finalize()
}

/// The Fiat–Shamir transcript digest: statement, column commitment,
/// then every repetition's view commitments and output shares.
fn challenge_root(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    reps: &[([Digest256; 3], [Vec<u64>; 3])],
) -> Digest256 {
    let mut h = Hasher256::new("eppi.audit.challenge.v1");
    h.absorb_u64(stmt.epoch_seed);
    h.absorb_u64(u64::from(stmt.provider.0));
    h.absorb_u64(stmt.owners() as u64);
    h.absorb_words(stmt.published);
    for lane in commitment
        .published
        .0
        .into_iter()
        .chain(commitment.decisions.0)
    {
        h.absorb_u64(lane);
    }
    h.absorb_u64(reps.len() as u64);
    for (commits, outputs) in reps {
        for c in commits {
            for lane in c.0 {
                h.absorb_u64(lane);
            }
        }
        for y in outputs {
            h.absorb_words(y);
        }
    }
    h.finalize()
}

/// The challenged party `e` of repetition `rep` (the pair `(e, e+1)`
/// opens).
fn challenge_for(root: Digest256, rep: usize) -> usize {
    (mix64(root.0[0] ^ (rep as u64 + 1).wrapping_mul(GAMMA)) % 3) as usize
}

/// Input share words of one party: wire 0 is its witness share, the
/// public coin/threshold wires follow the public-input rule — party 0
/// carries the public word, parties 1 and 2 carry zero, so the XOR of
/// the three shares is the public value and the verifier can derive
/// every opened party's public wires without any proof data.
fn input_share_words(
    party: usize,
    nw: usize,
    witness: &[u64],
    public: &[Vec<u64>],
) -> Vec<Vec<u64>> {
    let mut shares = Vec::with_capacity(FLIP_INPUTS);
    shares.push(witness.to_vec());
    for word in public {
        shares.push(if party == 0 {
            word.clone()
        } else {
            vec![0u64; nw]
        });
    }
    shares
}

/// Word-level evaluation of all three virtual parties at once (prover
/// side).
struct Evaluated {
    /// Per party: AND outputs, slot-major (`slot * nw + word`).
    and_words: [Vec<u64>; 3],
    /// Per party: output-wire share words.
    outputs: [Vec<u64>; 3],
}

fn evaluate_all(
    circuit: &Circuit,
    schedule: &Schedule,
    nw: usize,
    inputs: &[Vec<Vec<u64>>; 3],
    tapes: &[Vec<u64>; 3],
) -> Evaluated {
    let wires = circuit.wires();
    let mut vals: [Vec<u64>; 3] = std::array::from_fn(|_| vec![0u64; wires * nw]);
    for (party, shares) in inputs.iter().enumerate() {
        for (i, words) in shares.iter().enumerate() {
            vals[party][i * nw..(i + 1) * nw].copy_from_slice(words);
        }
    }
    let mut and_words: [Vec<u64>; 3] =
        std::array::from_fn(|_| vec![0u64; schedule.and_gates() * nw]);
    for (g, gate) in circuit.gates().iter().enumerate() {
        let out = (circuit.inputs() + g) * nw;
        match *gate {
            Gate::Xor(a, b) => {
                let (a, b) = (a.index() * nw, b.index() * nw);
                for val in vals.iter_mut() {
                    for w in 0..nw {
                        val[out + w] = val[a + w] ^ val[b + w];
                    }
                }
            }
            Gate::Not(a) => {
                // Flipping is a public affine offset: party 0 alone
                // absorbs it so the share XOR flips exactly once.
                let a = a.index() * nw;
                for (party, val) in vals.iter_mut().enumerate() {
                    let flip = if party == 0 { !0u64 } else { 0 };
                    for w in 0..nw {
                        val[out + w] = val[a + w] ^ flip;
                    }
                }
            }
            Gate::Const(v) => {
                let value = if v { !0u64 } else { 0 };
                for (party, val) in vals.iter_mut().enumerate() {
                    let word = if party == 0 { value } else { 0 };
                    val[out..out + nw].fill(word);
                }
            }
            Gate::And(a, b) => {
                let slot = schedule.triple_index(g) * nw;
                let (a, b) = (a.index() * nw, b.index() * nw);
                for party in 0..3 {
                    let next = (party + 1) % 3;
                    for w in 0..nw {
                        let (ai, bi) = (vals[party][a + w], vals[party][b + w]);
                        let (an, bn) = (vals[next][a + w], vals[next][b + w]);
                        let z = (ai & bi)
                            ^ (an & bi)
                            ^ (ai & bn)
                            ^ tapes[party][slot + w]
                            ^ tapes[next][slot + w];
                        and_words[party][slot + w] = z;
                    }
                }
                for party in 0..3 {
                    for w in 0..nw {
                        vals[party][out + w] = and_words[party][slot + w];
                    }
                }
            }
        }
    }
    let o = circuit.outputs()[0].index() * nw;
    Evaluated {
        outputs: std::array::from_fn(|party| vals[party][o..o + nw].to_vec()),
        and_words,
    }
}

/// Verifier-side recomputation of the opened pair `(e, e+1)`: party
/// `e+1`'s AND wires come from the proof, party `e`'s are recomputed
/// from both tapes and both parties' wires. Returns party `e`'s AND
/// words and both parties' output share words.
#[allow(clippy::too_many_arguments)]
fn recompute_pair(
    circuit: &Circuit,
    schedule: &Schedule,
    nw: usize,
    e: usize,
    inputs_e: &[Vec<u64>],
    inputs_e1: &[Vec<u64>],
    tape_e: &[u64],
    tape_e1: &[u64],
    partner_ands: &[u64],
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let wires = circuit.wires();
    let mut val_e = vec![0u64; wires * nw];
    let mut val_e1 = vec![0u64; wires * nw];
    for (i, words) in inputs_e.iter().enumerate() {
        val_e[i * nw..(i + 1) * nw].copy_from_slice(words);
    }
    for (i, words) in inputs_e1.iter().enumerate() {
        val_e1[i * nw..(i + 1) * nw].copy_from_slice(words);
    }
    let e1 = (e + 1) % 3;
    let mut and_e = vec![0u64; schedule.and_gates() * nw];
    for (g, gate) in circuit.gates().iter().enumerate() {
        let out = (circuit.inputs() + g) * nw;
        match *gate {
            Gate::Xor(a, b) => {
                let (a, b) = (a.index() * nw, b.index() * nw);
                for w in 0..nw {
                    val_e[out + w] = val_e[a + w] ^ val_e[b + w];
                    val_e1[out + w] = val_e1[a + w] ^ val_e1[b + w];
                }
            }
            Gate::Not(a) => {
                let a = a.index() * nw;
                let (flip_e, flip_e1) = (
                    if e == 0 { !0u64 } else { 0 },
                    if e1 == 0 { !0u64 } else { 0 },
                );
                for w in 0..nw {
                    val_e[out + w] = val_e[a + w] ^ flip_e;
                    val_e1[out + w] = val_e1[a + w] ^ flip_e1;
                }
            }
            Gate::Const(v) => {
                let value = if v { !0u64 } else { 0 };
                val_e[out..out + nw].fill(if e == 0 { value } else { 0 });
                val_e1[out..out + nw].fill(if e1 == 0 { value } else { 0 });
            }
            Gate::And(a, b) => {
                let slot = schedule.triple_index(g) * nw;
                let (a, b) = (a.index() * nw, b.index() * nw);
                for w in 0..nw {
                    let (ai, bi) = (val_e[a + w], val_e[b + w]);
                    let (an, bn) = (val_e1[a + w], val_e1[b + w]);
                    let z =
                        (ai & bi) ^ (an & bi) ^ (ai & bn) ^ tape_e[slot + w] ^ tape_e1[slot + w];
                    and_e[slot + w] = z;
                    val_e[out + w] = z;
                    val_e1[out + w] = partner_ands[slot + w];
                }
            }
        }
    }
    let o = circuit.outputs()[0].index() * nw;
    (and_e, val_e[o..o + nw].to_vec(), val_e1[o..o + nw].to_vec())
}

/// Produces the honest proof that `stmt.published` is the flip-circuit
/// output on the raw column `raw` under the statement's official β's.
///
/// `prover_seed` drives all proving randomness (views, tapes); honest
/// proofs verify for *every* seed, and distinct seeds yield
/// independent transcripts.
///
/// # Panics
///
/// Panics when `raw` or `stmt.published` is not `words_for(owners)`
/// words, or the column is empty.
pub fn prove_column(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
) -> ColumnProof {
    prove_column_with_registry(stmt, raw, params, prover_seed, Obs::default())
}

/// [`prove_column`] under a caller's observability context: reports
/// `audit.proofs`, `audit.proof_bytes` and the `audit.prove_ns`
/// histogram into `obs.registry`, and runs as an `audit.prove` span
/// (payload: provider id) under `obs.parent`.
pub fn prove_column_with_registry<'a>(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
    obs: impl Into<Obs<'a>>,
) -> ColumnProof {
    let obs = obs.into();
    let mut span = obs.tracer.child(obs.parent, "audit.prove");
    span.set_payload(u64::from(stmt.provider.0));
    let started = Instant::now();
    let proof = prove_inner(stmt, raw, params, prover_seed, None);
    obs.registry.counter("audit.proofs", &[]).add(1);
    obs.registry
        .counter("audit.proof_bytes", &[])
        .add(proof.size_bytes() as u64);
    obs.registry
        .histogram("audit.prove_ns", &[])
        .record(started.elapsed().as_nanos() as u64);
    proof
}

/// A *cheating* prover (the `eppi-attacks` forged-view model): proves
/// honestly on `raw`, then rewrites virtual party 2's view so the
/// reconstructed output is the honest circuit output XOR `deflip` —
/// covering a β-violating published column. The forgery is internally
/// consistent for challenge pairs (0,1) and (1,2) and is exposed only
/// when the challenge recomputes party 2 (pair (2,0)): detection
/// probability exactly 1/3 per repetition.
///
/// # Panics
///
/// Same shape contract as [`prove_column`]; `deflip` must be
/// `words_for(owners)` words.
pub fn prove_column_forged(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
    deflip: &[u64],
) -> ColumnProof {
    assert_eq!(deflip.len(), stmt.words(), "deflip width mismatch");
    prove_inner(stmt, raw, params, prover_seed, Some(deflip))
}

fn prove_inner(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
    tamper: Option<&[u64]>,
) -> ColumnProof {
    let owners = stmt.owners();
    let nw = stmt.words();
    assert!(owners > 0, "empty column");
    assert_eq!(raw.len(), nw, "raw column width mismatch");
    assert_eq!(stmt.published.len(), nw, "published column width mismatch");

    let circuit = flip_circuit();
    let schedule = Schedule::new(&circuit);
    let slots = schedule.and_gates();
    let public = public_input_words(stmt.epoch_seed, stmt.provider, stmt.betas);
    // The forged-view tamper lands on the final AND (the output OR's
    // AND term): flipping its z-word flips the party's output share.
    let last_and_slot = circuit
        .gates()
        .iter()
        .enumerate()
        .rev()
        .find_map(|(g, gate)| matches!(gate, Gate::And(..)).then(|| schedule.triple_index(g)))
        .expect("flip circuit has AND gates");

    let mut masked_raw = raw.to_vec();
    crate::flip::mask_tail(&mut masked_raw, owners);

    let commitment =
        ColumnCommitment::compute(stmt.epoch_seed, stmt.provider, stmt.betas, stmt.published);

    struct RepState {
        seeds: [u64; 3],
        witness2: Vec<u64>,
        and_words: [Vec<u64>; 3],
        commits: [Digest256; 3],
        outputs: [Vec<u64>; 3],
    }

    let mut states = Vec::with_capacity(params.repetitions);
    for rep in 0..params.repetitions {
        let seeds: [u64; 3] = std::array::from_fn(|party| rep_seed(prover_seed, stmt, rep, party));
        let tapes: [Vec<u64>; 3] =
            std::array::from_fn(|party| prg_words(seeds[party], TAPE_DOMAIN, slots * nw));
        let w0 = prg_words(seeds[0], WITNESS_DOMAIN, nw);
        let w1 = prg_words(seeds[1], WITNESS_DOMAIN, nw);
        let witness2: Vec<u64> = (0..nw).map(|w| masked_raw[w] ^ w0[w] ^ w1[w]).collect();
        let inputs: [Vec<Vec<u64>>; 3] = [
            input_share_words(0, nw, &w0, &public),
            input_share_words(1, nw, &w1, &public),
            input_share_words(2, nw, &witness2, &public),
        ];
        let mut eval = evaluate_all(&circuit, &schedule, nw, &inputs, &tapes);
        if let Some(delta) = tamper {
            for (w, &d) in delta.iter().enumerate().take(nw) {
                eval.and_words[2][last_and_slot * nw + w] ^= d;
                eval.outputs[2][w] ^= d;
            }
        }
        let commits: [Digest256; 3] = std::array::from_fn(|party| {
            let witness: &[u64] = if party == 2 { &witness2 } else { &[] };
            commit_view(
                stmt,
                rep,
                party,
                seeds[party],
                witness,
                &eval.and_words[party],
            )
        });
        states.push(RepState {
            seeds,
            witness2,
            and_words: eval.and_words,
            commits,
            outputs: eval.outputs,
        });
    }

    let transcript: Vec<([Digest256; 3], [Vec<u64>; 3])> = states
        .iter()
        .map(|s| (s.commits, s.outputs.clone()))
        .collect();
    let root = challenge_root(stmt, &commitment, &transcript);

    let reps = states
        .into_iter()
        .enumerate()
        .map(|(rep, state)| {
            let e = challenge_for(root, rep);
            let e1 = (e + 1) % 3;
            RepetitionProof {
                commits: state.commits,
                outputs: state.outputs,
                seeds: [state.seeds[e], state.seeds[e1]],
                partner_ands: state.and_words[e1].clone(),
                witness_share: if e == 0 { Vec::new() } else { state.witness2 },
            }
        })
        .collect();
    ColumnProof { reps }
}

/// Verifies one column certificate against public data only: the
/// statement (official β's + the column entering the epoch), the
/// provider's [`ColumnCommitment`], and its [`ColumnProof`].
///
/// # Errors
///
/// A typed [`AuditError`] naming the provider, the failing repetition,
/// and the failing check — see the variants for the cheat each one
/// catches.
pub fn verify_column(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    proof: &ColumnProof,
    params: &AuditParams,
) -> Result<(), AuditError> {
    verify_column_with_registry(stmt, commitment, proof, params, Obs::default())
}

/// [`verify_column`] under a caller's observability context: reports
/// the `audit.verified` / `audit.rejects{kind=…}` counters and the
/// `audit.verify_ns` histogram into `obs.registry`, and runs as an
/// `audit.verify` span (payload: provider id) under `obs.parent`.
///
/// # Errors
///
/// Same contract as [`verify_column`].
pub fn verify_column_with_registry<'a>(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    proof: &ColumnProof,
    params: &AuditParams,
    obs: impl Into<Obs<'a>>,
) -> Result<(), AuditError> {
    let obs = obs.into();
    let mut span = obs.tracer.child(obs.parent, "audit.verify");
    span.set_payload(u64::from(stmt.provider.0));
    let started = Instant::now();
    let out = check_column(stmt, commitment, proof, params);
    obs.registry
        .histogram("audit.verify_ns", &[])
        .record(started.elapsed().as_nanos() as u64);
    match &out {
        Ok(()) => obs.registry.counter("audit.verified", &[]).add(1),
        Err(e) => obs
            .registry
            .counter("audit.rejects", &[("kind", e.kind())])
            .add(1),
    }
    out
}

/// The verifier proper: every check of [`verify_column`], no telemetry.
fn check_column(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    proof: &ColumnProof,
    params: &AuditParams,
) -> Result<(), AuditError> {
    let provider = stmt.provider.0;
    let owners = stmt.owners();
    let nw = stmt.words();
    if owners == 0 {
        return Err(AuditError::Malformed {
            provider,
            reason: "empty column",
        });
    }
    if stmt.published.len() != nw {
        return Err(AuditError::Malformed {
            provider,
            reason: "published column width",
        });
    }
    if commitment.provider != stmt.provider {
        return Err(AuditError::Malformed {
            provider,
            reason: "commitment provider",
        });
    }
    commitment.verify(stmt.epoch_seed, stmt.betas, stmt.published)?;
    if proof.reps.len() != params.repetitions {
        return Err(AuditError::Malformed {
            provider,
            reason: "repetition count",
        });
    }

    let circuit = flip_circuit();
    let schedule = Schedule::new(&circuit);
    let slots = schedule.and_gates();
    let public = public_input_words(stmt.epoch_seed, stmt.provider, stmt.betas);

    let transcript: Vec<([Digest256; 3], [Vec<u64>; 3])> = proof
        .reps
        .iter()
        .map(|r| (r.commits, r.outputs.clone()))
        .collect();
    let root = challenge_root(stmt, commitment, &transcript);

    let mask = tail_mask(owners);
    for (rep, r) in proof.reps.iter().enumerate() {
        let e = challenge_for(root, rep);
        let e1 = (e + 1) % 3;
        if r.outputs.iter().any(|y| y.len() != nw) {
            return Err(AuditError::Malformed {
                provider,
                reason: "output share width",
            });
        }
        if r.partner_ands.len() != slots * nw {
            return Err(AuditError::Malformed {
                provider,
                reason: "partner AND words",
            });
        }
        let needs_witness = e != 0;
        if r.witness_share.len() != if needs_witness { nw } else { 0 } {
            return Err(AuditError::Malformed {
                provider,
                reason: "witness share width",
            });
        }

        let tape_e = prg_words(r.seeds[0], TAPE_DOMAIN, slots * nw);
        let tape_e1 = prg_words(r.seeds[1], TAPE_DOMAIN, slots * nw);
        // Witness shares of the opened parties: parties 0/1 expand
        // their seed, party 2's explicit words come from the proof.
        let wit_e: Vec<u64> = if e == 2 {
            r.witness_share.clone()
        } else {
            prg_words(r.seeds[0], WITNESS_DOMAIN, nw)
        };
        let wit_e1: Vec<u64> = if e1 == 2 {
            r.witness_share.clone()
        } else {
            prg_words(r.seeds[1], WITNESS_DOMAIN, nw)
        };
        let inputs_e = input_share_words(e, nw, &wit_e, &public);
        let inputs_e1 = input_share_words(e1, nw, &wit_e1, &public);
        let (and_e, out_e, out_e1) = recompute_pair(
            &circuit,
            &schedule,
            nw,
            e,
            &inputs_e,
            &inputs_e1,
            &tape_e,
            &tape_e1,
            &r.partner_ands,
        );

        let wit_commit_e: &[u64] = if e == 2 { &wit_e } else { &[] };
        if commit_view(stmt, rep, e, r.seeds[0], wit_commit_e, &and_e) != r.commits[e] {
            return Err(AuditError::ViewDigest {
                provider,
                rep,
                party: e,
            });
        }
        let wit_commit_e1: &[u64] = if e1 == 2 { &wit_e1 } else { &[] };
        if commit_view(stmt, rep, e1, r.seeds[1], wit_commit_e1, &r.partner_ands) != r.commits[e1] {
            return Err(AuditError::ViewDigest {
                provider,
                rep,
                party: e1,
            });
        }
        if out_e != r.outputs[e] {
            return Err(AuditError::OutputShare {
                provider,
                rep,
                party: e,
            });
        }
        if out_e1 != r.outputs[e1] {
            return Err(AuditError::OutputShare {
                provider,
                rep,
                party: e1,
            });
        }
        for w in 0..nw {
            let recon = r.outputs[0][w] ^ r.outputs[1][w] ^ r.outputs[2][w];
            let lane_mask = if w + 1 == nw { mask } else { !0 };
            if recon & lane_mask != stmt.published[w] & lane_mask {
                return Err(AuditError::OutputMismatch { provider, rep });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_core::model::OwnerId;
    use eppi_core::publish::publish_cell;

    fn published_from(
        raw: &[u64],
        stmt_seed: u64,
        provider: ProviderId,
        betas: &[f64],
    ) -> Vec<u64> {
        let nw = words_for(betas.len());
        let mut out = vec![0u64; nw];
        for (j, &beta) in betas.iter().enumerate() {
            let member = raw[j / 64] >> (j % 64) & 1 == 1;
            if publish_cell(stmt_seed, provider, OwnerId(j as u32), member, beta) {
                out[j / 64] |= 1 << (j % 64);
            }
        }
        out
    }

    fn sample(owners: usize, seed: u64) -> (Vec<f64>, Vec<u64>, Vec<u64>) {
        let betas: Vec<f64> = (0..owners).map(|j| (j % 10) as f64 / 10.0).collect();
        let nw = words_for(owners);
        let mut raw = vec![0u64; nw];
        for j in 0..owners {
            if mix64(seed ^ j as u64) & 1 == 1 {
                raw[j / 64] |= 1 << (j % 64);
            }
        }
        let published = published_from(&raw, 77, ProviderId(3), &betas);
        (betas, raw, published)
    }

    #[test]
    fn honest_proof_verifies() {
        let (betas, raw, published) = sample(100, 1);
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &published,
        };
        let params = AuditParams { repetitions: 8 };
        let commitment = ColumnCommitment::compute(77, ProviderId(3), &betas, &published);
        for prover_seed in 0..4 {
            let proof = prove_column(&stmt, &raw, &params, prover_seed);
            verify_column(&stmt, &commitment, &proof, &params).unwrap();
        }
    }

    #[test]
    fn bare_forms_report_to_the_global_registry_and_explicit_forms_to_the_callers() {
        use eppi_telemetry::Registry;

        let (betas, raw, published) = sample(70, 5);
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &published,
        };
        let params = AuditParams { repetitions: 4 };
        let commitment = ColumnCommitment::compute(77, ProviderId(3), &betas, &published);
        let counts = |r: &Registry| {
            let get = |name| r.counter(name, &[]).get();
            (get("audit.proofs"), get("audit.verified"))
        };

        // Other tests of this process share the global registry, so the
        // bare forms can only be seen to move it.
        let global = eppi_telemetry::global();
        let before = counts(global);
        let proof = prove_column(&stmt, &raw, &params, 1);
        verify_column(&stmt, &commitment, &proof, &params).unwrap();
        let after = counts(global);
        assert!(after.0 > before.0 && after.1 > before.1);

        let mine = Registry::new();
        let proof = prove_column_with_registry(&stmt, &raw, &params, 1, &mine);
        verify_column_with_registry(&stmt, &commitment, &proof, &params, &mine).unwrap();
        assert_eq!(counts(&mine), (1, 1));
    }

    #[test]
    fn deflipped_column_fails_output_check() {
        let (betas, raw, published) = sample(100, 2);
        // Drop one decoy: a lane where published = 1 but raw = 0.
        let mut deflipped = published.clone();
        let lane = (0..100)
            .find(|&j| published[j / 64] >> (j % 64) & 1 == 1 && raw[j / 64] >> (j % 64) & 1 == 0)
            .expect("some decoy exists");
        deflipped[lane / 64] ^= 1 << (lane % 64);
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &deflipped,
        };
        let params = AuditParams { repetitions: 8 };
        let commitment = ColumnCommitment::compute(77, ProviderId(3), &betas, &deflipped);
        let proof = prove_column(&stmt, &raw, &params, 9);
        assert!(matches!(
            verify_column(&stmt, &commitment, &proof, &params),
            Err(AuditError::OutputMismatch {
                provider: 3,
                rep: 0
            })
        ));
    }

    #[test]
    fn forged_view_sometimes_escapes_one_repetition_never_forty() {
        let (betas, raw, published) = sample(80, 3);
        let mut deflipped = published.clone();
        let lane = (0..80)
            .find(|&j| published[j / 64] >> (j % 64) & 1 == 1 && raw[j / 64] >> (j % 64) & 1 == 0)
            .expect("some decoy exists");
        deflipped[lane / 64] ^= 1 << (lane % 64);
        let delta: Vec<u64> = published
            .iter()
            .zip(&deflipped)
            .map(|(a, b)| a ^ b)
            .collect();
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &deflipped,
        };
        let commitment = ColumnCommitment::compute(77, ProviderId(3), &betas, &deflipped);
        // At R = 1 some prover seeds hit a lucky challenge; at the
        // default R = 40 none of them do.
        let one = AuditParams { repetitions: 1 };
        let mut escapes = 0;
        for seed in 0..60 {
            let proof = prove_column_forged(&stmt, &raw, &one, seed, &delta);
            if verify_column(&stmt, &commitment, &proof, &one).is_ok() {
                escapes += 1;
            }
        }
        assert!(escapes > 20, "≈2/3 of single reps escape, saw {escapes}/60");
        assert!(escapes < 60, "pair (2,0) must catch the forgery");
        let full = AuditParams {
            repetitions: DEFAULT_REPETITIONS,
        };
        for seed in 0..3 {
            let proof = prove_column_forged(&stmt, &raw, &full, seed, &delta);
            assert!(
                verify_column(&stmt, &commitment, &proof, &full).is_err(),
                "forgery survived 40 repetitions (seed {seed})"
            );
        }
    }

    #[test]
    fn tampered_proof_fields_are_rejected() {
        let (betas, raw, published) = sample(70, 4);
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &published,
        };
        let params = AuditParams { repetitions: 4 };
        let commitment = ColumnCommitment::compute(77, ProviderId(3), &betas, &published);
        let proof = prove_column(&stmt, &raw, &params, 5);
        verify_column(&stmt, &commitment, &proof, &params).unwrap();

        let mut bad = proof.clone();
        bad.reps[1].partner_ands[3] ^= 1;
        assert!(verify_column(&stmt, &commitment, &bad, &params).is_err());

        let mut bad = proof.clone();
        bad.reps[2].seeds[0] ^= 1;
        assert!(verify_column(&stmt, &commitment, &bad, &params).is_err());

        let mut bad = proof.clone();
        bad.reps[0].outputs[0][0] ^= 1;
        assert!(verify_column(&stmt, &commitment, &bad, &params).is_err());

        let mut bad = proof;
        bad.reps.pop();
        assert!(matches!(
            verify_column(&stmt, &commitment, &bad, &params),
            Err(AuditError::Malformed { .. })
        ));
    }

    #[test]
    fn proof_size_scales_with_repetitions() {
        let (betas, raw, published) = sample(64, 5);
        let stmt = ColumnStatement {
            epoch_seed: 77,
            provider: ProviderId(3),
            betas: &betas,
            published: &published,
        };
        let p2 = prove_column(&stmt, &raw, &AuditParams { repetitions: 2 }, 1);
        let p4 = prove_column(&stmt, &raw, &AuditParams { repetitions: 4 }, 1);
        assert!(p4.size_bytes() > p2.size_bytes());
        assert!(p2.size_bytes() > 0);
    }
}
