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
//! Only the circuit's one secret gate is decomposed: `raw ∧ decision`,
//! the product term of the output OR. The decision word is a public
//! input that prover and verifier each derive from public state
//! ([`decision_words`]) — never shipped in, or read from, a proof —
//! and a proof's size is linear in the AND slots of the decomposed
//! circuit, so each repetition carries `nw` partner AND words, not one
//! per comparator gate.
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
use crate::flip::{decision_words, flip_circuit, mask_tail, tail_mask, FLIP_INPUTS};
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

/// Fills `out` with the leading words of PRG stream `(seed, domain)`.
fn prg_fill(seed: u64, domain: u64, out: &mut [u64]) {
    for (i, word) in out.iter_mut().enumerate() {
        *word = prg_word(seed, domain, i as u64);
    }
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
fn challenge_root<'a>(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    reps: impl ExactSizeIterator<Item = (&'a [Digest256; 3], &'a [Vec<u64>; 3])>,
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

/// The per-column evaluation context plus the tape and wire buffers of
/// up to three virtual parties, allocated once and refilled every
/// repetition.
struct Head<'a> {
    circuit: Circuit,
    schedule: Schedule,
    /// Packed words per wire.
    nw: usize,
    /// The public decision word — input wire 1.
    decisions: &'a [u64],
    /// Per loaded party: its AND-slot tape words.
    tapes: [Vec<u64>; 3],
    /// Per loaded party: its wire share words, wire-major.
    vals: [Vec<u64>; 3],
}

impl<'a> Head<'a> {
    fn new(decisions: &'a [u64]) -> Self {
        let circuit = flip_circuit();
        let schedule = Schedule::new(&circuit);
        let nw = decisions.len();
        Head {
            tapes: std::array::from_fn(|_| vec![0u64; schedule.and_gates() * nw]),
            vals: std::array::from_fn(|_| vec![0u64; circuit.wires() * nw]),
            circuit,
            schedule,
            nw,
            decisions,
        }
    }

    /// Words of one party's AND outputs, slot-major (`slot * nw + word`).
    fn and_words(&self) -> usize {
        self.schedule.and_gates() * self.nw
    }

    /// Loads virtual party `party` into buffer `slot`: its tape and its
    /// witness share (wire 0) expand from `seed` — except party 2, whose
    /// share is the explicit remainder `witness2` — and wire 1 follows
    /// the public-input rule: party 0 carries the decision word, parties
    /// 1 and 2 carry zero, so the three shares XOR to the public value
    /// and no opened party's public wire needs any proof data.
    fn load(&mut self, slot: usize, party: usize, seed: u64, witness2: &[u64]) {
        let nw = self.nw;
        prg_fill(seed, TAPE_DOMAIN, &mut self.tapes[slot]);
        let (witness, public) = self.vals[slot][..FLIP_INPUTS * nw].split_at_mut(nw);
        if party == 2 {
            witness.copy_from_slice(witness2);
        } else {
            prg_fill(seed, WITNESS_DOMAIN, witness);
        }
        if party == 0 {
            public.copy_from_slice(self.decisions);
        } else {
            public.fill(0);
        }
    }

    /// Word-level evaluation of the loaded `parties` — all three on the
    /// prover side, the opened pair `(e, e+1)` on the verifier side.
    /// `ands[i]` receives party `parties[i]`'s AND outputs, computed
    /// from its own and its successor's wires and tapes; the verifier's
    /// party `e+1` has no successor in the opened pair, so its `ands`
    /// entry is read as given (the proof's `partner_ands`).
    fn evaluate(&mut self, parties: &[usize], ands: &mut [Vec<u64>]) {
        let (nw, k) = (self.nw, parties.len());
        let recomputed = if k == 3 { 3 } else { k - 1 };
        let vals = &mut self.vals[..k];
        for (g, gate) in self.circuit.gates().iter().enumerate() {
            let out = (self.circuit.inputs() + g) * nw;
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
                    for (val, &party) in vals.iter_mut().zip(parties) {
                        let flip = if party == 0 { !0u64 } else { 0 };
                        for w in 0..nw {
                            val[out + w] = val[a + w] ^ flip;
                        }
                    }
                }
                Gate::Const(v) => {
                    for (val, &party) in vals.iter_mut().zip(parties) {
                        val[out..out + nw].fill(if v && party == 0 { !0u64 } else { 0 });
                    }
                }
                Gate::And(a, b) => {
                    let slot = self.schedule.triple_index(g) * nw;
                    let (a, b) = (a.index() * nw, b.index() * nw);
                    for i in 0..recomputed {
                        let next = (i + 1) % k;
                        for w in 0..nw {
                            let (ai, bi) = (vals[i][a + w], vals[i][b + w]);
                            let (an, bn) = (vals[next][a + w], vals[next][b + w]);
                            ands[i][slot + w] = (ai & bi)
                                ^ (an & bi)
                                ^ (ai & bn)
                                ^ self.tapes[i][slot + w]
                                ^ self.tapes[next][slot + w];
                        }
                    }
                    for (val, and) in vals.iter_mut().zip(ands.iter()) {
                        val[out..out + nw].copy_from_slice(&and[slot..slot + nw]);
                    }
                }
            }
        }
    }

    /// The output-wire share words of the party loaded in `slot`.
    fn output(&self, slot: usize) -> &[u64] {
        let o = self.circuit.outputs()[0].index() * self.nw;
        &self.vals[slot][o..o + self.nw]
    }
}

/// The prover's public work, done once per column: the official
/// decision words and the commitment over them and the served column.
fn committed(stmt: &ColumnStatement<'_>) -> (Vec<u64>, ColumnCommitment) {
    let decisions = decision_words(stmt.epoch_seed, stmt.provider, stmt.betas);
    let commitment =
        ColumnCommitment::over(stmt.provider, stmt.owners(), stmt.published, &decisions);
    (decisions, commitment)
}

/// Produces the honest proof that `stmt.published` is the flip-circuit
/// output on the raw column `raw` under the statement's official β's.
///
/// `prover_seed` drives all proving randomness (views, tapes); honest
/// proofs verify for *every* seed, and distinct seeds yield
/// independent transcripts. An empty column proves vacuously (every
/// word vector of the proof is empty).
///
/// # Panics
///
/// Panics when `raw` or `stmt.published` is not `words_for(owners)`
/// words.
pub fn prove_column(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
) -> ColumnProof {
    certify_column_with_registry(stmt, raw, params, prover_seed, Obs::default()).1
}

/// [`prove_column`] together with the column's [`ColumnCommitment`]
/// (the decision words are derived once and feed both), under a
/// caller's observability context: reports `audit.proofs`,
/// `audit.proof_bytes` and the `audit.prove_ns` histogram into
/// `obs.registry`, and runs as an `audit.prove` span (payload: provider
/// id) under `obs.parent`.
pub fn certify_column_with_registry<'a>(
    stmt: &ColumnStatement<'_>,
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
    obs: impl Into<Obs<'a>>,
) -> (ColumnCommitment, ColumnProof) {
    let obs = obs.into();
    let mut span = obs.tracer.child(obs.parent, "audit.prove");
    span.set_payload(u64::from(stmt.provider.0));
    let started = Instant::now();
    let (decisions, commitment) = committed(stmt);
    let proof = prove_inner(
        stmt,
        &commitment,
        &decisions,
        raw,
        params,
        prover_seed,
        None,
    );
    obs.registry.counter("audit.proofs", &[]).add(1);
    obs.registry
        .counter("audit.proof_bytes", &[])
        .add(proof.size_bytes() as u64);
    obs.registry
        .histogram("audit.prove_ns", &[])
        .record(started.elapsed().as_nanos() as u64);
    (commitment, proof)
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
    let (decisions, commitment) = committed(stmt);
    prove_inner(
        stmt,
        &commitment,
        &decisions,
        raw,
        params,
        prover_seed,
        Some(deflip),
    )
}

/// The prover proper. `commitment` enters the Fiat–Shamir transcript and
/// `decisions` is the public word the virtual parties evaluate under —
/// both are the caller's, computed once ([`committed`]).
fn prove_inner(
    stmt: &ColumnStatement<'_>,
    commitment: &ColumnCommitment,
    decisions: &[u64],
    raw: &[u64],
    params: &AuditParams,
    prover_seed: u64,
    tamper: Option<&[u64]>,
) -> ColumnProof {
    let nw = stmt.words();
    assert_eq!(raw.len(), nw, "raw column width mismatch");
    assert_eq!(stmt.published.len(), nw, "published column width mismatch");

    let mut masked_raw = raw.to_vec();
    mask_tail(&mut masked_raw, stmt.owners());
    let mut head = Head::new(decisions);
    // The forged-view tamper lands on the final AND slot (the output
    // OR's product term; slots follow gate order): flipping its z-word
    // flips the party's output share.
    let forged = head.and_words() - nw;

    struct RepState {
        seeds: [u64; 3],
        witness2: Vec<u64>,
        ands: [Vec<u64>; 3],
        commits: [Digest256; 3],
        outputs: [Vec<u64>; 3],
    }

    let mut states = Vec::with_capacity(params.repetitions);
    for rep in 0..params.repetitions {
        let seeds: [u64; 3] = std::array::from_fn(|party| rep_seed(prover_seed, stmt, rep, party));
        head.load(0, 0, seeds[0], &[]);
        head.load(1, 1, seeds[1], &[]);
        let witness2: Vec<u64> = (0..nw)
            .map(|w| masked_raw[w] ^ head.vals[0][w] ^ head.vals[1][w])
            .collect();
        head.load(2, 2, seeds[2], &witness2);
        let mut ands: [Vec<u64>; 3] = std::array::from_fn(|_| vec![0u64; head.and_words()]);
        head.evaluate(&[0, 1, 2], &mut ands);
        let mut outputs: [Vec<u64>; 3] = std::array::from_fn(|party| head.output(party).to_vec());
        if let Some(delta) = tamper {
            for (w, &d) in delta.iter().enumerate() {
                ands[2][forged + w] ^= d;
                outputs[2][w] ^= d;
            }
        }
        let commits: [Digest256; 3] = std::array::from_fn(|party| {
            let witness: &[u64] = if party == 2 { &witness2 } else { &[] };
            commit_view(stmt, rep, party, seeds[party], witness, &ands[party])
        });
        states.push(RepState {
            seeds,
            witness2,
            ands,
            commits,
            outputs,
        });
    }

    let root = challenge_root(
        stmt,
        commitment,
        states.iter().map(|s| (&s.commits, &s.outputs)),
    );
    let reps = states
        .into_iter()
        .enumerate()
        .map(|(rep, mut state)| {
            let e = challenge_for(root, rep);
            let e1 = (e + 1) % 3;
            RepetitionProof {
                commits: state.commits,
                outputs: state.outputs,
                seeds: [state.seeds[e], state.seeds[e1]],
                partner_ands: std::mem::take(&mut state.ands[e1]),
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
    if commitment.provider != stmt.provider {
        return Err(AuditError::Malformed {
            provider,
            reason: "commitment provider",
        });
    }
    // The circuit's public operand comes from public state, never from
    // the proof; the same words re-check the committed decisions digest.
    let decisions = decision_words(stmt.epoch_seed, stmt.provider, stmt.betas);
    commitment.check(owners, stmt.published, &decisions)?;
    if proof.reps.len() != params.repetitions {
        return Err(AuditError::Malformed {
            provider,
            reason: "repetition count",
        });
    }

    let root = challenge_root(
        stmt,
        commitment,
        proof.reps.iter().map(|r| (&r.commits, &r.outputs)),
    );
    let mut head = Head::new(&decisions);
    let mut ands: [Vec<u64>; 2] = std::array::from_fn(|_| vec![0u64; head.and_words()]);
    let mask = tail_mask(owners);
    for (rep, r) in proof.reps.iter().enumerate() {
        let e = challenge_for(root, rep);
        let pair = [e, (e + 1) % 3];
        if r.outputs.iter().any(|y| y.len() != nw) {
            return Err(AuditError::Malformed {
                provider,
                reason: "output share width",
            });
        }
        if r.partner_ands.len() != head.and_words() {
            return Err(AuditError::Malformed {
                provider,
                reason: "partner AND words",
            });
        }
        // Party 2's explicit witness share is opened iff party 2 is;
        // parties 0/1 expand theirs from their seeds.
        if r.witness_share.len() != if e == 0 { 0 } else { nw } {
            return Err(AuditError::Malformed {
                provider,
                reason: "witness share width",
            });
        }

        // Party `e+1`'s AND wires come from the proof, party `e`'s are
        // recomputed from both tapes and both parties' wires.
        for (slot, &party) in pair.iter().enumerate() {
            head.load(slot, party, r.seeds[slot], &r.witness_share);
        }
        ands[1].copy_from_slice(&r.partner_ands);
        head.evaluate(&pair, &mut ands);

        for (slot, &party) in pair.iter().enumerate() {
            let witness: &[u64] = if party == 2 { &r.witness_share } else { &[] };
            if commit_view(stmt, rep, party, r.seeds[slot], witness, &ands[slot])
                != r.commits[party]
            {
                return Err(AuditError::ViewDigest {
                    provider,
                    rep,
                    party,
                });
            }
        }
        for (slot, &party) in pair.iter().enumerate() {
            if head.output(slot) != r.outputs[party] {
                return Err(AuditError::OutputShare {
                    provider,
                    rep,
                    party,
                });
            }
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

    const SEED: u64 = 77;
    const PROVIDER: ProviderId = ProviderId(3);

    /// Per-owner β's, a raw column, and the column they honestly publish.
    fn sample(owners: usize, seed: u64) -> (Vec<f64>, Vec<u64>, Vec<u64>) {
        let betas: Vec<f64> = (0..owners).map(|j| (j % 10) as f64 / 10.0).collect();
        let mut raw = vec![0u64; words_for(owners)];
        let mut published = raw.clone();
        for (j, &beta) in betas.iter().enumerate() {
            let member = mix64(seed ^ j as u64) & 1 == 1;
            raw[j / 64] |= u64::from(member) << (j % 64);
            let bit = publish_cell(SEED, PROVIDER, OwnerId(j as u32), member, beta);
            published[j / 64] |= u64::from(bit) << (j % 64);
        }
        (betas, raw, published)
    }

    /// The statement serving `published`, with its honest commitment.
    fn statement<'a>(
        betas: &'a [f64],
        published: &'a [u64],
    ) -> (ColumnStatement<'a>, ColumnCommitment) {
        let stmt = ColumnStatement {
            epoch_seed: SEED,
            provider: PROVIDER,
            betas,
            published,
        };
        let commitment = ColumnCommitment::compute(SEED, PROVIDER, betas, published);
        (stmt, commitment)
    }

    /// `published` with its first decoy (published 1, raw 0) cleared,
    /// and the one-bit difference.
    fn drop_one_decoy(published: &[u64], raw: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let mut delta = vec![0u64; published.len()];
        let w = (0..published.len())
            .find(|&w| published[w] & !raw[w] != 0)
            .expect("some decoy exists");
        delta[w] = 1 << (published[w] & !raw[w]).trailing_zeros();
        let deflipped = published.iter().zip(&delta).map(|(p, d)| p ^ d).collect();
        (deflipped, delta)
    }

    #[test]
    fn honest_proof_verifies() {
        let (betas, raw, published) = sample(100, 1);
        let (stmt, commitment) = statement(&betas, &published);
        let params = AuditParams { repetitions: 8 };
        for prover_seed in 0..4 {
            let proof = prove_column(&stmt, &raw, &params, prover_seed);
            verify_column(&stmt, &commitment, &proof, &params).unwrap();
        }
    }

    #[test]
    fn bare_forms_report_to_the_global_registry_and_explicit_forms_to_the_callers() {
        use eppi_telemetry::Registry;

        let (betas, raw, published) = sample(70, 5);
        let (stmt, commitment) = statement(&betas, &published);
        let params = AuditParams { repetitions: 4 };
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
        let (certified, proof) = certify_column_with_registry(&stmt, &raw, &params, 1, &mine);
        assert_eq!(certified, commitment);
        verify_column_with_registry(&stmt, &commitment, &proof, &params, &mine).unwrap();
        assert_eq!(counts(&mine), (1, 1));
    }

    #[test]
    fn deflipped_column_fails_output_check() {
        let (betas, raw, published) = sample(100, 2);
        let (deflipped, _) = drop_one_decoy(&published, &raw);
        let (stmt, commitment) = statement(&betas, &deflipped);
        let params = AuditParams { repetitions: 8 };
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
        let (deflipped, delta) = drop_one_decoy(&published, &raw);
        let (stmt, commitment) = statement(&betas, &deflipped);
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
        let full = AuditParams::default();
        for seed in 0..3 {
            let proof = prove_column_forged(&stmt, &raw, &full, seed, &delta);
            assert!(
                verify_column(&stmt, &commitment, &proof, &full).is_err(),
                "forgery survived 40 repetitions (seed {seed})"
            );
        }
    }

    /// The verifier's public operand comes from public state, not from
    /// the prover: a prover that commits honestly but evaluates under a
    /// decision word of its own (one decoy cleared, so its shares
    /// reconstruct the deflipped column) is internally consistent, and
    /// is still exposed whenever party 0 — the carrier of the public
    /// word — is in the opened pair.
    #[test]
    fn own_decision_word_is_caught_whenever_party_zero_opens() {
        let (betas, raw, published) = sample(80, 6);
        let (deflipped, delta) = drop_one_decoy(&published, &raw);
        let (stmt, commitment) = statement(&betas, &deflipped);
        let (official, _) = committed(&stmt);
        let own: Vec<u64> = official.iter().zip(&delta).map(|(o, d)| o ^ d).collect();

        let one = AuditParams { repetitions: 1 };
        let mut escapes = 0;
        for seed in 0..60 {
            let proof = prove_inner(&stmt, &commitment, &own, &raw, &one, seed, None);
            let transcript = proof.reps.iter().map(|r| (&r.commits, &r.outputs));
            let e = challenge_for(challenge_root(&stmt, &commitment, transcript), 0);
            let verdict = verify_column(&stmt, &commitment, &proof, &one);
            assert_eq!(
                verdict.is_err(),
                e != 1,
                "seed {seed}, e = {e}: {verdict:?}"
            );
            assert!(matches!(
                verdict,
                Ok(()) | Err(AuditError::ViewDigest { .. } | AuditError::OutputShare { .. })
            ));
            escapes += usize::from(verdict.is_ok());
        }
        assert!((5..=35).contains(&escapes), "pair (1,2) is ≈1/3 of 60");
        let full = AuditParams::default();
        for seed in 0..8 {
            let proof = prove_inner(&stmt, &commitment, &own, &raw, &full, seed, None);
            assert!(
                verify_column(&stmt, &commitment, &proof, &full).is_err(),
                "own decision word survived 40 repetitions (seed {seed})"
            );
        }
    }

    #[test]
    fn tampered_proof_fields_are_rejected() {
        let (betas, raw, published) = sample(70, 4);
        let (stmt, commitment) = statement(&betas, &published);
        let params = AuditParams { repetitions: 4 };
        let proof = prove_column(&stmt, &raw, &params, 5);
        verify_column(&stmt, &commitment, &proof, &params).unwrap();

        // One AND slot: a repetition opens exactly `nw` partner words.
        assert!(proof.reps.iter().all(|r| r.partner_ands.len() == 2));
        let mut bad = proof.clone();
        bad.reps[1].partner_ands[1] ^= 1;
        assert!(matches!(
            verify_column(&stmt, &commitment, &bad, &params),
            Err(AuditError::ViewDigest { rep: 1, .. })
        ));

        let mut bad = proof.clone();
        bad.reps[1].partner_ands.push(0);
        assert!(matches!(
            verify_column(&stmt, &commitment, &bad, &params),
            Err(AuditError::Malformed { .. })
        ));

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
    fn empty_column_certifies_and_verifies_vacuously() {
        let (stmt, commitment) = statement(&[], &[]);
        let params = AuditParams { repetitions: 4 };
        let (certified, proof) =
            certify_column_with_registry(&stmt, &[], &params, 1, Obs::default());
        assert_eq!(certified, commitment);
        assert_eq!(proof.reps.len(), 4);
        assert_eq!(proof.size_bytes(), 4 * (96 + 16));
        verify_column(&stmt, &commitment, &proof, &params).unwrap();
        // Vacuous is not unchecked: the views are still committed.
        let mut bad = proof;
        bad.reps[2].seeds[1] ^= 1;
        assert!(matches!(
            verify_column(&stmt, &commitment, &bad, &params),
            Err(AuditError::ViewDigest { rep: 2, .. })
        ));
    }

    #[test]
    fn proof_size_scales_with_repetitions() {
        let (betas, raw, published) = sample(64, 5);
        let (stmt, _) = statement(&betas, &published);
        let p2 = prove_column(&stmt, &raw, &AuditParams { repetitions: 2 }, 1);
        let p4 = prove_column(&stmt, &raw, &AuditParams { repetitions: 4 }, 1);
        assert!(p4.size_bytes() > p2.size_bytes());
        assert!(p2.size_bytes() > 0);
    }
}
