//! The one bit-packed GMW core shared by every execution backend.
//!
//! Historically the workspace carried three complete copies of the GMW
//! protocol — the in-process evaluator here, plus round-simulated and
//! one-thread-per-party variants in `eppi-protocol` — each with its own
//! AND-layer scheduler and Beaver-triple logic, all shuffling shares as
//! `Vec<bool>`. This module is the single remaining implementation:
//!
//! * [`Schedule`] — the one true level scheduler (free gates per level,
//!   AND gates opened together per level, dense triple numbering).
//! * [`deal_packed_triples`] / [`PartyTriples`] — Beaver triples dealt
//!   as packed words, one triple bit per AND gate, 64 per `u64`.
//! * [`PartyCore`] — a sans-io state machine holding one party's packed
//!   wire shares. [`advance`](PartyCore::advance) runs local work up to
//!   the next exchange and yields its [`PackedBatch`]es,
//!   [`absorb`](PartyCore::absorb) completes the exchange with the
//!   peers' batches; *how* those batches move is the [`Transport`]'s
//!   business (`eppi_net::transport`). The order *share inputs → one
//!   exchange per AND level → open outputs*, and which of those
//!   exchanges a lone party or an input-/output-free circuit skips, is
//!   written in `advance` and nowhere else.
//! * [`run_party`] — one party's "advance → transport → absorb" loop
//!   over a blocking transport (what each thread of the threaded
//!   backend runs); [`run_lockstep`] — the same loop for all parties on
//!   one thread over the in-process hub (`crate::gmw::execute`). These
//!   are the only two drivers.
//! * [`dealer_rng`] / [`party_rng`] — the one seeding rule: every
//!   GMW run seeded `s` deals its triples from `dealer_rng(s)`
//!   and lets party `p` share its inputs from `party_rng(s, p)`.
//! * [`mod@reference`] — the frozen pre-refactor `Vec<bool>` evaluator, kept
//!   as the equivalence-test oracle.
//!
//! Per AND layer the packed protocol opens `d = x ⊕ a`, `e = y ⊕ b` for
//! all gates of the layer in one word-aligned batch (`d` words then `e`
//! words), XOR-combines the peers' batches word-wise, and completes the
//! Beaver identity `z = c ⊕ (d ∧ b) ⊕ (e ∧ a) ⊕ [party 0](d ∧ e)` with
//! whole-word operations — 64 gates per instruction.

use crate::circuit::{Circuit, Gate, InputLayout};
use crate::packed::{mask_tail, words_for, PackedBits};
use crate::stage::StageOutput;
use eppi_net::transport::{PackedBatch, Transport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One level of the schedule: the free gates evaluated locally, then
/// the AND gates opened together in one communication round.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Gate indices of the level's XOR/NOT/Const gates.
    pub free: Vec<usize>,
    /// Gate indices of the level's AND gates.
    pub ands: Vec<usize>,
}

/// The level-synchronized evaluation schedule of a circuit — the single
/// scheduler behind every backend and [`Circuit::and_layers`].
#[derive(Debug, Clone)]
pub struct Schedule {
    levels: Vec<Layer>,
    /// AND gate index → dense triple index (gate-list order).
    triple_index: Vec<usize>,
    and_gates: usize,
}

impl Schedule {
    /// Computes the schedule of `circuit`.
    pub fn new(circuit: &Circuit) -> Schedule {
        let inputs = circuit.inputs();
        let mut wire_level = vec![0usize; circuit.wires()];
        let mut levels: Vec<Layer> = Vec::new();
        let mut triple_index = vec![usize::MAX; circuit.gates().len()];
        let mut next_triple = 0usize;
        for (k, gate) in circuit.gates().iter().enumerate() {
            let this = inputs + k;
            let (level, is_and) = match *gate {
                Gate::Xor(a, b) => (wire_level[a.index()].max(wire_level[b.index()]), false),
                Gate::Not(a) => (wire_level[a.index()], false),
                Gate::Const(_) => (0, false),
                Gate::And(a, b) => (wire_level[a.index()].max(wire_level[b.index()]), true),
            };
            if levels.len() <= level {
                levels.resize_with(level + 1, Layer::default);
            }
            if is_and {
                levels[level].ands.push(k);
                wire_level[this] = level + 1;
                triple_index[k] = next_triple;
                next_triple += 1;
            } else {
                levels[level].free.push(k);
                wire_level[this] = level;
            }
        }
        Schedule {
            levels,
            triple_index,
            and_gates: next_triple,
        }
    }

    /// The levels, in evaluation order.
    pub fn levels(&self) -> &[Layer] {
        &self.levels
    }

    /// Number of AND gates (= Beaver triples consumed).
    pub fn and_gates(&self) -> usize {
        self.and_gates
    }

    /// Number of communication rounds the AND gates need (levels with at
    /// least one AND gate — the circuit's AND-depth).
    pub fn and_rounds(&self) -> usize {
        self.levels.iter().filter(|l| !l.ands.is_empty()).count()
    }

    /// The dense triple index of AND gate `gate` (gate-list order).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is not an AND gate.
    pub fn triple_index(&self, gate: usize) -> usize {
        let t = self.triple_index[gate];
        assert_ne!(t, usize::MAX, "gate {gate} is not an AND gate");
        t
    }

    /// Per level, the gate indices of its AND gates — the layering
    /// [`Circuit::and_layers`] exposes. Only levels containing AND gates
    /// appear (a level without them needs no round).
    pub fn and_layer_gates(&self) -> Vec<Vec<usize>> {
        self.levels
            .iter()
            .filter(|l| !l.ands.is_empty())
            .map(|l| l.ands.clone())
            .collect()
    }
}

/// One level's Beaver-triple shares of one party, packed bit `i` ↔ the
/// level's `i`-th AND gate.
#[derive(Debug, Clone, Default)]
struct LayerTriples {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

/// One party's packed Beaver-triple shares, aligned with a
/// [`Schedule`]'s levels.
#[derive(Debug, Clone, Default)]
pub struct PartyTriples {
    layers: Vec<LayerTriples>,
}

fn random_words<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Vec<u64> {
    let mut words: Vec<u64> = (0..words_for(bits)).map(|_| rng.gen()).collect();
    mask_tail(&mut words, bits);
    words
}

/// Deals the XOR-shared Beaver triples of one schedule level with
/// `and_gates` AND gates: one [`LayerTriples`] share per party.
fn deal_layer_triples<R: Rng + ?Sized>(
    parties: usize,
    and_gates: usize,
    rng: &mut R,
) -> Vec<LayerTriples> {
    let a = random_words(and_gates, rng);
    let b = random_words(and_gates, rng);
    let c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x & y).collect();
    let mut rem = LayerTriples { a, b, c };
    let mut out = Vec::with_capacity(parties);
    for _ in 0..parties - 1 {
        let share = LayerTriples {
            a: random_words(and_gates, rng),
            b: random_words(and_gates, rng),
            c: random_words(and_gates, rng),
        };
        for w in 0..rem.a.len() {
            rem.a[w] ^= share.a[w];
            rem.b[w] ^= share.b[w];
            rem.c[w] ^= share.c[w];
        }
        out.push(share);
    }
    out.push(rem);
    out
}

/// Seed salt of the triple dealer.
const DEALER_SALT: u64 = 0xd1a1e5;
/// Per-party seed spread.
const PARTY_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The triple dealer's RNG of a run seeded `seed`. Both drivers —
/// lockstep and threaded — deal from this, so a run deals the same
/// triples whichever backend carries it.
pub fn dealer_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ DEALER_SALT)
}

/// Party `party`'s input-sharing RNG of a run seeded `seed` (see
/// [`dealer_rng`]).
pub fn party_rng(seed: u64, party: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (party as u64).wrapping_mul(PARTY_SALT))
}

/// Deals XOR-shared Beaver triples for every AND gate of `sched`, as
/// the trusted dealer of the offline phase — but word-at-a-time: one
/// RNG draw covers 64 gates.
///
/// # Panics
///
/// Panics if `parties == 0`.
pub fn deal_packed_triples<R: Rng + ?Sized>(
    parties: usize,
    sched: &Schedule,
    rng: &mut R,
) -> Vec<PartyTriples> {
    assert!(parties >= 1, "at least one party required");
    let mut out = vec![
        PartyTriples {
            layers: Vec::with_capacity(sched.levels().len()),
        };
        parties
    ];
    for layer in sched.levels() {
        let shares = deal_layer_triples(parties, layer.ands.len(), rng);
        for (party, share) in out.iter_mut().zip(shares) {
            party.layers.push(share);
        }
    }
    out
}

/// Where a party stands in the protocol: between exchanges (`Share`,
/// `Layers`), parked at one (`Await*`), or finished.
#[derive(Debug)]
enum State {
    /// Inputs not shared yet.
    Share,
    /// Input shares scattered; the peers' are outstanding.
    AwaitInputs,
    /// Evaluating levels.
    Layers,
    /// An AND level's `d`/`e` batch (kept here) is out; the peers' are
    /// outstanding.
    AwaitLayer(PackedBatch),
    /// Own output shares (kept here) are out; the peers' are outstanding.
    AwaitOutputs(PackedBatch),
    /// The opened outputs.
    Done(Vec<bool>),
}

/// One party's sans-io GMW state machine over packed shares.
///
/// The core never touches a socket, channel or simulator: call
/// [`advance`](Self::advance) until it yields an exchange
/// ([`StageOutput::Scatter`] / [`StageOutput::Broadcast`]), deliver the
/// peers' batches through [`absorb`](Self::absorb) exactly once, repeat
/// until [`StageOutput::Done`]. The caller decides how batches travel
/// (see [`run_party`] / [`run_lockstep`]). The exchange sequence is
/// deterministic in the circuit structure — never in share values —
/// which is what keeps the schedule oblivious.
#[derive(Debug)]
pub struct PartyCore<'c> {
    circuit: &'c Circuit,
    layout: &'c InputLayout,
    sched: &'c Schedule,
    me: usize,
    triples: PartyTriples,
    /// One packed share bit per circuit wire.
    shares: PackedBits,
    /// Next schedule level to process.
    level: usize,
    state: State,
}

impl<'c> PartyCore<'c> {
    /// Creates the state machine for party `me` with its triples dealt
    /// up front ([`deal_packed_triples`]).
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover the circuit inputs, `me` is
    /// out of range, or `triples` is not aligned with `sched`.
    pub fn new(
        circuit: &'c Circuit,
        layout: &'c InputLayout,
        sched: &'c Schedule,
        me: usize,
        triples: PartyTriples,
    ) -> PartyCore<'c> {
        assert_eq!(
            triples.layers.len(),
            sched.levels().len(),
            "triples not aligned with the schedule"
        );
        assert_eq!(
            layout.total_inputs(),
            circuit.inputs(),
            "layout does not cover the circuit inputs"
        );
        assert!(me < layout.parties(), "party {me} out of range");
        PartyCore {
            circuit,
            layout,
            sched,
            me,
            triples,
            shares: PackedBits::zeros(circuit.wires()),
            level: 0,
            state: State::Share,
        }
    }

    /// Runs local computation up to the next exchange and returns what
    /// to send, or the opened outputs once the protocol is complete.
    /// `share` is called once, on the first advance, and must return
    /// this party's [`share_inputs`](Self::share_inputs) batches (the
    /// caller owns the input bits and the RNG discipline).
    ///
    /// This is the one place that orders the protocol. A lone party, a
    /// circuit without inputs and a circuit without outputs skip the
    /// exchange they have nothing to send in — the step still runs,
    /// completed on the spot with no peer batches.
    ///
    /// # Panics
    ///
    /// Panics if the previous exchange was not absorbed.
    pub fn advance(&mut self, share: impl FnOnce(&mut Self) -> Vec<PackedBatch>) -> StageOutput {
        let exchanging = self.layout.parties() > 1;
        if matches!(self.state, State::Share) {
            let batches = share(self);
            if exchanging && self.layout.total_inputs() > 0 {
                self.state = State::AwaitInputs;
                return StageOutput::Scatter(batches);
            }
            self.state = State::Layers;
        }
        if matches!(self.state, State::Layers) {
            while let Some(batch) = self.next_layer_batch() {
                self.state = State::AwaitLayer(batch.clone());
                if exchanging {
                    return StageOutput::Broadcast(batch);
                }
                self.absorb(&[]);
            }
            let mine = self.output_batch();
            self.state = State::AwaitOutputs(mine.clone());
            if exchanging && mine.bits > 0 {
                return StageOutput::Broadcast(mine);
            }
            self.absorb(&[]);
        }
        match &self.state {
            State::Done(outputs) => StageOutput::Done(outputs.clone()),
            _ => panic!("pending exchange not absorbed"),
        }
    }

    /// Completes the pending exchange with the peers' batches, in any
    /// peer order.
    ///
    /// # Panics
    ///
    /// Panics if no exchange is pending or a batch has the wrong size.
    pub fn absorb(&mut self, peers: &[(usize, PackedBatch)]) {
        self.state = match std::mem::replace(&mut self.state, State::Layers) {
            State::AwaitInputs => {
                for (from, batch) in peers {
                    self.absorb_inputs(*from, batch);
                }
                State::Layers
            }
            State::AwaitLayer(mine) => {
                self.finish_layer(mine, peers);
                State::Layers
            }
            State::AwaitOutputs(mine) => State::Done(Self::open_outputs(mine, peers)),
            _ => panic!("no pending exchange to absorb"),
        };
    }

    /// Splits this party's private input bits into XOR shares: returns
    /// one dense input-share batch per destination party (the own slot
    /// stays empty) and installs the own correction share.
    ///
    /// # Panics
    ///
    /// Panics if `my_bits` disagrees with the layout.
    pub fn share_inputs<R: Rng + ?Sized>(
        &mut self,
        my_bits: &[bool],
        rng: &mut R,
    ) -> Vec<PackedBatch> {
        let range = self.layout.range_of(self.me);
        assert_eq!(
            my_bits.len(),
            range.len(),
            "party {} supplied wrong input count",
            self.me
        );
        let parties = self.layout.parties();
        let mut acc = PackedBits::from_bits(my_bits);
        let mut batches = vec![PackedBatch::empty(); parties];
        for (p, batch) in batches.iter_mut().enumerate() {
            if p == self.me {
                continue;
            }
            let share = PackedBits::random(my_bits.len(), rng);
            acc.xor_assign(&share);
            *batch = PackedBatch {
                bits: share.len(),
                words: share.into_words(),
            };
        }
        self.shares
            .copy_bits_from(range.start, acc.words(), my_bits.len());
        batches
    }

    /// Installs a peer's input-share batch (dense layout over the
    /// peer's input-wire range).
    fn absorb_inputs(&mut self, from: usize, batch: &PackedBatch) {
        let range = self.layout.range_of(from);
        assert_eq!(batch.bits, range.len(), "input batch size from {from}");
        self.shares
            .copy_bits_from(range.start, &batch.words, batch.bits);
    }

    /// Advances through free gates and, when an AND level is reached,
    /// returns this party's `d`/`e` opening batch for it (`d` words then
    /// `e` words, each half word-aligned). Returns `None` once every
    /// gate is evaluated.
    fn next_layer_batch(&mut self) -> Option<PackedBatch> {
        let n_inputs = self.circuit.inputs();
        // Branchless word-level bit access: the free-gate sweep runs
        // once per party over the whole circuit, so data-dependent
        // branches here dominate the entire evaluation.
        let me0 = (self.me == 0) as u64;
        while self.level < self.sched.levels().len() {
            let layer = &self.sched.levels()[self.level];
            for &k in &layer.free {
                let v = match self.circuit.gates()[k] {
                    Gate::Xor(a, b) => {
                        self.shares.bit_word(a.index()) ^ self.shares.bit_word(b.index())
                    }
                    // Party 0 flips its share.
                    Gate::Not(a) => me0 ^ self.shares.bit_word(a.index()),
                    Gate::Const(v) => me0 & v as u64,
                    Gate::And(..) => unreachable!("AND scheduled as free gate"),
                };
                self.shares.store_bit(n_inputs + k, v);
            }
            if layer.ands.is_empty() {
                self.level += 1;
                continue;
            }
            let g = layer.ands.len();
            let words = words_for(g);
            let mut de = vec![0u64; 2 * words];
            for (i, &k) in layer.ands.iter().enumerate() {
                let (a, b) = match self.circuit.gates()[k] {
                    Gate::And(a, b) => (a, b),
                    _ => unreachable!("non-AND in ands"),
                };
                de[i / 64] |= self.shares.bit_word(a.index()) << (i % 64);
                de[words + i / 64] |= self.shares.bit_word(b.index()) << (i % 64);
            }
            // d = x ⊕ a, e = y ⊕ b — masked word-wise.
            let t = &self.triples.layers[self.level];
            for w in 0..words {
                de[w] ^= t.a[w];
                de[words + w] ^= t.b[w];
            }
            return Some(PackedBatch {
                words: de,
                bits: 2 * g,
            });
        }
        None
    }

    /// Completes the pending AND level: XOR-combines the peers' batches
    /// with the own one (`mine`) into the opened `d`/`e` words and applies the
    /// Beaver identity `z = c ⊕ (d ∧ b) ⊕ (e ∧ a) ⊕ [party 0](d ∧ e)`
    /// word-wise.
    fn finish_layer(&mut self, mine: PackedBatch, peers: &[(usize, PackedBatch)]) {
        let layer = &self.sched.levels()[self.level];
        let g = layer.ands.len();
        let words = words_for(g);
        let mut opened = mine.words;
        for (from, batch) in peers {
            assert_eq!(
                batch.words.len(),
                opened.len(),
                "layer batch size from {from}"
            );
            for (w, o) in opened.iter_mut().zip(&batch.words) {
                *w ^= o;
            }
        }
        let t = &self.triples.layers[self.level];
        let mut z = vec![0u64; words];
        for w in 0..words {
            let d = opened[w];
            let e = opened[words + w];
            z[w] = t.c[w] ^ (d & t.b[w]) ^ (e & t.a[w]);
            if self.me == 0 {
                z[w] ^= d & e;
            }
        }
        let n_inputs = self.circuit.inputs();
        for (i, &k) in layer.ands.iter().enumerate() {
            self.shares
                .store_bit(n_inputs + k, (z[i / 64] >> (i % 64)) & 1);
        }
        self.level += 1;
    }

    /// This party's output shares as a dense batch.
    fn output_batch(&self) -> PackedBatch {
        let outs = self.circuit.outputs();
        let mut p = PackedBits::zeros(outs.len());
        for (i, o) in outs.iter().enumerate() {
            p.set(i, self.shares.get(o.index()));
        }
        PackedBatch {
            bits: p.len(),
            words: p.into_words(),
        }
    }

    /// Opens the circuit outputs: the own output shares XOR the peers'.
    fn open_outputs(mut opened: PackedBatch, peers: &[(usize, PackedBatch)]) -> Vec<bool> {
        for (from, batch) in peers {
            assert_eq!(
                batch.words.len(),
                opened.words.len(),
                "output batch size from {from}"
            );
            for (w, o) in opened.words.iter_mut().zip(&batch.words) {
                *w ^= o;
            }
        }
        (0..opened.bits).map(|i| opened.bit(i)).collect()
    }
}

/// Total logical payload bits a `parties`-party evaluation of `circuit`
/// exchanges: `(parties − 1)` per input wire (the owner's shares), then
/// `2 · parties · (parties − 1)` per AND gate (every party broadcasts
/// its `d` and `e` bits) and `parties · (parties − 1)` per output wire.
/// Deterministic in the circuit structure, so every backend reports the
/// identical figure.
pub fn logical_bits(circuit: &Circuit, layout: &InputLayout) -> u64 {
    payload_bits(layout, circuit.stats().and_gates, circuit.outputs().len())
}

/// [`logical_bits`] from an AND-gate count already at hand (a
/// [`Schedule`] has it; `Circuit::stats` is a full pass over the gates).
pub(crate) fn payload_bits(layout: &InputLayout, and_gates: usize, outputs: usize) -> u64 {
    let p = layout.parties() as u64;
    if p <= 1 {
        return 0;
    }
    let inputs = layout.total_inputs() as u64 * (p - 1);
    let ands = 2 * and_gates as u64 * p * (p - 1);
    let outputs = outputs as u64 * p * (p - 1);
    inputs + ands + outputs
}

/// The outputs every party opened, checked to be one answer: a party
/// that opened something else means a corrupted batch or a protocol
/// bug, and returning party 0's view would hide it. Every backend
/// funnels its per-party results through here, in debug and release
/// builds alike — the check is `O(parties × outputs)`.
///
/// # Panics
///
/// Panics if `per_party` is empty or two parties disagree.
pub fn agreed_outputs(per_party: impl IntoIterator<Item = Vec<bool>>) -> Vec<bool> {
    let mut per_party = per_party.into_iter();
    let first = per_party.next().expect("at least one party");
    for (p, opened) in per_party.enumerate() {
        assert_eq!(
            opened,
            first,
            "party {} disagrees on the opened outputs",
            p + 1
        );
    }
    first
}

/// Runs the protocol for one party over a blocking transport — what
/// each thread of the threaded backend executes.
/// `on_round(level_round, elapsed)` fires after each completed AND
/// exchange with its wall time (for the `gmw.round_ns` telemetry).
///
/// # Panics
///
/// Panics if `my_bits` disagrees with the layout or the transport
/// violates the protocol.
pub fn run_party<T, R, F>(
    core: &mut PartyCore<'_>,
    my_bits: &[bool],
    rng: &mut R,
    transport: &mut T,
    mut on_round: F,
) -> Vec<bool>
where
    T: Transport,
    R: Rng + ?Sized,
    F: FnMut(usize, Duration),
{
    let mut round = 0usize;
    loop {
        let step = core.advance(|core| core.share_inputs(my_bits, rng));
        let and_exchange = matches!(core.state, State::AwaitLayer(_));
        let started = Instant::now();
        match step {
            StageOutput::Scatter(batches) => transport.scatter(batches),
            StageOutput::Broadcast(batch) => transport.broadcast(batch),
            StageOutput::Done(outputs) => return outputs,
        }
        core.absorb(&transport.collect());
        if and_exchange {
            on_round(round, started.elapsed());
            round += 1;
        }
    }
}

/// Drives all parties in lockstep on the current thread over per-party
/// transports (the in-process hub): every exchange first lets
/// each party deposit, then lets each party collect. `share(p, core)`
/// produces party `p`'s input batches (so callers choose the per-party
/// RNG discipline). All parties must open identical outputs; the opened
/// bits are returned.
///
/// # Panics
///
/// Panics if `cores` and `transports` disagree in length or party
/// order, or if the parties open different outputs (a protocol bug).
pub fn run_lockstep<T, F>(
    cores: &mut [PartyCore<'_>],
    transports: &mut [T],
    mut share: F,
) -> Vec<bool>
where
    T: Transport,
    F: FnMut(usize, &mut PartyCore<'_>) -> Vec<PackedBatch>,
{
    assert_eq!(transports.len(), cores.len(), "one transport per party");
    assert!(!cores.is_empty(), "at least one party required");
    loop {
        let mut opened = Vec::new();
        for (p, (core, transport)) in cores.iter_mut().zip(transports.iter_mut()).enumerate() {
            match core.advance(|core| share(p, core)) {
                StageOutput::Scatter(batches) => transport.scatter(batches),
                StageOutput::Broadcast(batch) => transport.broadcast(batch),
                StageOutput::Done(outputs) => opened.push(outputs),
            }
        }
        if !opened.is_empty() {
            assert_eq!(
                opened.len(),
                cores.len(),
                "parties disagree on the schedule"
            );
            return agreed_outputs(opened);
        }
        for (core, transport) in cores.iter_mut().zip(transports.iter_mut()) {
            core.absorb(&transport.collect());
        }
    }
}

pub mod reference {
    //! The frozen pre-refactor `Vec<bool>` evaluator.
    //!
    //! This is the original single-threaded GMW evaluator, byte-for-byte
    //! in behaviour: one heap bool per wire per party, per-bit triple
    //! dealing, per-gate Beaver opening. It is the oracle of the
    //! cross-backend equivalence property test (packed vs. unpacked
    //! outputs must be bit-identical) and must not be "improved".

    use crate::circuit::{Circuit, Gate, InputLayout};
    use crate::gmw::GmwStats;
    use rand::Rng;

    struct SharedTriple {
        a: Vec<bool>,
        b: Vec<bool>,
        c: Vec<bool>,
    }

    fn share_bit<R: Rng + ?Sized>(parties: usize, secret: bool, rng: &mut R) -> Vec<bool> {
        let mut shares: Vec<bool> = (0..parties - 1).map(|_| rng.gen()).collect();
        let xor_rest = shares.iter().fold(false, |acc, &s| acc ^ s);
        shares.push(secret ^ xor_rest);
        shares
    }

    /// Evaluates `circuit` with the unpacked reference path. Outputs
    /// equal `circuit.eval` on the flattened inputs; the stats follow
    /// the same accounting as [`crate::gmw::execute`] (`bytes` is the
    /// logical bits rounded up, since this path predates the packed
    /// wire framing).
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover the circuit inputs or
    /// `inputs` disagrees with the layout.
    pub fn execute_unpacked<R: Rng + ?Sized>(
        circuit: &Circuit,
        layout: &InputLayout,
        inputs: &[Vec<bool>],
        rng: &mut R,
    ) -> (Vec<bool>, GmwStats) {
        assert_eq!(
            layout.total_inputs(),
            circuit.inputs(),
            "layout does not cover the circuit inputs"
        );
        let parties = layout.parties();
        let mut stats = GmwStats {
            parties,
            ..GmwStats::default()
        };

        // wire_shares[w][p] = party p's XOR share of wire w.
        let mut wire_shares: Vec<Vec<bool>> = Vec::with_capacity(circuit.wires());

        let flat = layout.flatten(inputs);
        for (w, &bit) in flat.iter().enumerate() {
            let owner = layout.party_of(w);
            let mut shares: Vec<bool> = (0..parties).map(|_| rng.gen()).collect();
            let xor_others = shares
                .iter()
                .enumerate()
                .filter(|&(p, _)| p != owner)
                .fold(false, |acc, (_, &s)| acc ^ s);
            shares[owner] = bit ^ xor_others;
            wire_shares.push(shares);
            stats.bits_sent += (parties - 1) as u64;
            stats.messages += (parties - 1) as u64;
        }
        if parties > 1 && circuit.inputs() > 0 {
            stats.rounds += 1;
        }

        stats.and_rounds = circuit.and_layers().len();
        stats.rounds += stats.and_rounds;

        for gate in circuit.gates() {
            let shares = match *gate {
                Gate::Xor(a, b) => {
                    let (sa, sb) = (&wire_shares[a.index()], &wire_shares[b.index()]);
                    sa.iter().zip(sb).map(|(&x, &y)| x ^ y).collect()
                }
                Gate::Not(a) => {
                    let sa = &wire_shares[a.index()];
                    sa.iter()
                        .enumerate()
                        .map(|(p, &x)| if p == 0 { !x } else { x })
                        .collect()
                }
                Gate::Const(v) => (0..parties).map(|p| p == 0 && v).collect(),
                Gate::And(a, b) => {
                    let sec_a: bool = rng.gen();
                    let sec_b: bool = rng.gen();
                    let triple = SharedTriple {
                        a: share_bit(parties, sec_a, rng),
                        b: share_bit(parties, sec_b, rng),
                        c: share_bit(parties, sec_a & sec_b, rng),
                    };
                    let sa = &wire_shares[a.index()];
                    let sb = &wire_shares[b.index()];
                    let d = sa
                        .iter()
                        .zip(&triple.a)
                        .fold(false, |acc, (&x, &ta)| acc ^ x ^ ta);
                    let e = sb
                        .iter()
                        .zip(&triple.b)
                        .fold(false, |acc, (&y, &tb)| acc ^ y ^ tb);
                    stats.bits_sent += 2 * (parties * (parties - 1)) as u64;
                    stats.messages += (parties * (parties - 1)) as u64;
                    stats.and_gates += 1;
                    (0..parties)
                        .map(|p| {
                            let mut z = triple.c[p] ^ (d & triple.b[p]) ^ (e & triple.a[p]);
                            if p == 0 {
                                z ^= d & e;
                            }
                            z
                        })
                        .collect()
                }
            };
            wire_shares.push(shares);
        }

        let outputs: Vec<bool> = circuit
            .outputs()
            .iter()
            .map(|o| wire_shares[o.index()].iter().fold(false, |acc, &s| acc ^ s))
            .collect();
        if !outputs.is_empty() && parties > 1 {
            stats.rounds += 1;
            stats.bits_sent += (outputs.len() * parties * (parties - 1)) as u64;
            stats.messages += (parties * (parties - 1)) as u64;
        }
        stats.bytes = stats.bits_sent.div_ceil(8);

        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{to_bits, word_value, CircuitBuilder};
    use crate::gmw::GmwStats;
    use eppi_net::sim::LinkModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> (Circuit, InputLayout) {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(6);
        let b = cb.input_word(6);
        let sum = cb.add_words_expand(&a, &b);
        (cb.finish_word(sum), InputLayout::new(vec![6, 6]))
    }

    fn run_packed(
        circuit: &Circuit,
        layout: &InputLayout,
        inputs: &[Vec<bool>],
        seed: u64,
    ) -> Vec<bool> {
        crate::gmw::execute(circuit, layout, inputs, LinkModel::LAN, seed).0
    }

    #[test]
    fn schedule_matches_legacy_and_layers() {
        let (circuit, _) = adder();
        let sched = Schedule::new(&circuit);
        assert_eq!(sched.and_layer_gates(), circuit.and_layers());
        assert_eq!(sched.and_gates(), circuit.stats().and_gates);
        assert_eq!(sched.and_rounds(), circuit.stats().and_depth);
        // Every gate appears in exactly one level.
        let scheduled: usize = sched
            .levels()
            .iter()
            .map(|l| l.free.len() + l.ands.len())
            .sum();
        assert_eq!(scheduled, circuit.gates().len());
    }

    #[test]
    fn lockstep_core_matches_cleartext() {
        let (circuit, layout) = adder();
        for (x, y, seed) in [(0u64, 0u64, 1), (17, 42, 2), (63, 63, 3)] {
            let inputs = vec![to_bits(x, 6), to_bits(y, 6)];
            let out = run_packed(&circuit, &layout, &inputs, seed);
            assert_eq!(word_value(&out), x + y, "x={x} y={y}");
        }
    }

    #[test]
    fn single_party_runs_without_exchanges() {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(5);
        let b = cb.const_word(11, 5);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![5]);
        let out = run_packed(&circuit, &layout, &[to_bits(7, 5)], 9);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn packed_agrees_with_reference_unpacked() {
        let (circuit, layout) = adder();
        let mut rng = StdRng::seed_from_u64(5);
        for seed in 0..8u64 {
            let inputs = vec![
                to_bits(rng.gen_range(0..64), 6),
                to_bits(rng.gen_range(0..64), 6),
            ];
            let packed = run_packed(&circuit, &layout, &inputs, seed);
            let mut ref_rng = StdRng::seed_from_u64(seed ^ 0xabc);
            let (unpacked, stats) =
                reference::execute_unpacked(&circuit, &layout, &inputs, &mut ref_rng);
            assert_eq!(packed, unpacked, "seed {seed}");
            // The oracle's hand-counted cost is the structural record.
            let sched = Schedule::new(&circuit);
            let expect = GmwStats::measured(&circuit, &layout, &sched, stats.messages, stats.bytes);
            assert_eq!(stats, expect);
        }
    }

    #[test]
    fn run_party_over_threaded_transport_agrees() {
        use eppi_net::threaded::run_parties;
        use eppi_net::transport::{PackedBatch, ThreadedTransport};

        let (circuit, layout) = adder();
        let inputs = [to_bits(33, 6), to_bits(20, 6)];
        let sched = Schedule::new(&circuit);
        let mut dealer = StdRng::seed_from_u64(44);
        let triples = deal_packed_triples(2, &sched, &mut dealer);
        let (results, _) = run_parties::<PackedBatch, Vec<bool>, _>(2, |h| {
            let me = h.me().index();
            let mut transport = ThreadedTransport::new(h);
            let mut core = PartyCore::new(&circuit, &layout, &sched, me, triples[me].clone());
            let mut rng = StdRng::seed_from_u64(900 + me as u64);
            run_party(&mut core, &inputs[me], &mut rng, &mut transport, |_, _| {})
        });
        assert_eq!(word_value(&results[0]), 53);
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn logical_bits_formula() {
        let (circuit, layout) = adder();
        let s = circuit.stats();
        let expect = (s.inputs + 2 * 2 * s.and_gates + 2 * s.outputs) as u64;
        assert_eq!(logical_bits(&circuit, &layout), expect);
        assert_eq!(logical_bits(&circuit, &InputLayout::new(vec![12])), 0);
    }
}
