//! Stage decomposition of the per-party GMW loop.
//!
//! [`run_party`](crate::gmw_core::run_party) is a straight line: share
//! inputs, then for every AND level *compute → exchange → finish*, then
//! open outputs — with the transport call baked into the middle of the
//! loop. The pipelined runtime (`eppi-protocol`) needs that loop turned
//! inside out, so a worker can park a lane at its exchange point while
//! the coalescing sender and the triple dealer run on their own
//! threads. This module is that inversion:
//!
//! * [`PartyStages`] — the backend-agnostic lane state machine: call
//!   [`advance`](PartyStages::advance) until it yields an exchange
//!   ([`StageOutput::Scatter`] / [`StageOutput::Broadcast`]), deliver
//!   the peers' batches through [`absorb`](PartyStages::absorb), repeat
//!   until [`StageOutput::Done`]. Any secret-sharing backend whose
//!   protocol is a sequence of local-compute/exchange steps (the GMW
//!   core today, the honest-majority 3PC fast path next) can implement
//!   it and inherit the whole pipeline.
//! * [`GmwStages`] — the [`PartyCore`] implementation, driving the
//!   identical call sequence as `run_party` (the equivalence proptests
//!   in `eppi-protocol/tests/mpc_backends.rs` hold it to that).
//! * [`TripleFeed`] — where a lane's Beaver triples come from:
//!   [`PreloadedTriples`] (dealt up front, as the classic drivers do)
//!   or [`ChannelTriples`] (streamed level-by-level from a dealer
//!   thread over a bounded channel, with stall accounting). Both feed
//!   [`PartyCore::feed_layer_triples`] in schedule order, and the
//!   streaming dealer reuses
//!   [`deal_layer_triples`](crate::gmw_core::deal_layer_triples), so
//!   triple *values* are bit-identical however they arrive.

use crate::circuit::{Circuit, InputLayout};
use crate::gmw_core::{protocol_rounds, LayerTriples, PartyCore, PartyTriples, Schedule};
use crossbeam::channel::Receiver;
use eppi_net::transport::PackedBatch;
use rand::Rng;
use std::collections::VecDeque;
use std::fmt;
use std::time::Instant;

/// What a lane asks of the network next.
#[derive(Debug, Clone)]
pub enum StageOutput {
    /// Personalized input-share batches, one slot per party (the own
    /// slot stays empty) — the input-sharing exchange.
    Scatter(Vec<PackedBatch>),
    /// The common batch of this exchange step (an AND layer's `d`/`e`
    /// opening or the output shares), to be sent to every peer.
    Broadcast(PackedBatch),
    /// The lane is finished; these are the opened outputs.
    Done(Vec<bool>),
}

/// A backend-agnostic per-party lane state machine.
///
/// The contract mirrors one party's view of the protocol: `advance`
/// runs local computation until the lane either needs the network
/// (returning the outgoing batches) or completes; after an exchange the
/// driver hands the peers' batches to `absorb` exactly once before the
/// next `advance`. The exchange sequence is deterministic in the
/// circuit structure — never in share values — which is what keeps the
/// pipeline schedule oblivious (DESIGN.md §15).
pub trait PartyStages {
    /// This party's id.
    fn me(&self) -> usize;
    /// Number of parties.
    fn parties(&self) -> usize;
    /// Runs local computation up to the next exchange (or completion).
    fn advance(&mut self) -> StageOutput;
    /// Completes the pending exchange with the peers' batches, in any
    /// peer order.
    fn absorb(&mut self, peers: &[(usize, PackedBatch)]);
    /// Total exchange steps this lane performs — equal to
    /// [`protocol_rounds`] for multi-party runs, `0` for a lone party
    /// (which never exchanges anything).
    fn total_steps(&self) -> usize;
}

/// Source of a lane's per-level Beaver-triple shares.
pub trait TripleFeed {
    /// The next schedule level's share, in feed order — blocking until
    /// the dealer has produced it, if streamed.
    fn next_layer(&mut self) -> LayerTriples;
    /// Levels currently buffered ahead of consumption (0 when unknown).
    fn buffered(&self) -> usize {
        0
    }
    /// Nanoseconds this feed has spent blocked waiting on the dealer.
    fn stall_ns(&self) -> u64 {
        0
    }
}

/// A feed over triples dealt up front
/// ([`crate::gmw_core::deal_packed_triples`]) — the classic offline phase.
#[derive(Debug, Default)]
pub struct PreloadedTriples {
    layers: VecDeque<LayerTriples>,
}

impl PreloadedTriples {
    /// Wraps one party's pre-dealt triples.
    pub fn new(triples: PartyTriples) -> Self {
        PreloadedTriples {
            layers: triples.into_layers().into(),
        }
    }
}

impl TripleFeed for PreloadedTriples {
    fn next_layer(&mut self) -> LayerTriples {
        self.layers
            .pop_front()
            .expect("preloaded triples exhausted")
    }

    fn buffered(&self) -> usize {
        self.layers.len()
    }
}

/// A feed streaming triples from a dealer thread over a bounded
/// channel, measuring how long the lane stalls when the dealer falls
/// behind (the `mpc.pipeline.triple_stall_ns` telemetry).
#[derive(Debug)]
pub struct ChannelTriples {
    rx: Receiver<LayerTriples>,
    stall_ns: u64,
}

impl ChannelTriples {
    /// Wraps the consuming end of a dealer channel.
    pub fn new(rx: Receiver<LayerTriples>) -> Self {
        ChannelTriples { rx, stall_ns: 0 }
    }
}

impl TripleFeed for ChannelTriples {
    fn next_layer(&mut self) -> LayerTriples {
        if let Ok(share) = self.rx.try_recv() {
            return share;
        }
        let started = Instant::now();
        let share = self.rx.recv().expect("triple dealer hung up");
        self.stall_ns += started.elapsed().as_nanos() as u64;
        share
    }

    fn buffered(&self) -> usize {
        self.rx.len()
    }

    fn stall_ns(&self) -> u64 {
        self.stall_ns
    }
}

/// Triple-supply accounting of one finished lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Nanoseconds the lane spent blocked on the triple dealer.
    pub triple_stall_ns: u64,
    /// Levels pulled from the feed.
    pub triple_pulls: u64,
    /// Sum of the feed's buffered depth sampled at each pull (divide by
    /// `triple_pulls` for the mean `mpc.pipeline.triple_buffer` depth).
    pub triple_buffered_sum: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Share,
    Layers,
    Open,
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    None,
    Inputs,
    Layer,
    Outputs,
}

/// The GMW implementation of [`PartyStages`]: a [`PartyCore`] plus a
/// [`TripleFeed`] and this party's input RNG, advancing through the
/// exact call sequence of [`run_party`](crate::gmw_core::run_party).
pub struct GmwStages<'c, F, R> {
    core: PartyCore<'c>,
    sched: &'c Schedule,
    feed: F,
    rng: R,
    my_bits: Vec<bool>,
    phase: Phase,
    pending: Pending,
    steps: usize,
    outputs: Option<Vec<bool>>,
    triple_pulls: u64,
    triple_buffered_sum: u64,
}

impl<F, R> fmt::Debug for GmwStages<'_, F, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GmwStages")
            .field("me", &self.core.me())
            .field("phase", &self.phase)
            .field("pending", &self.pending)
            .field("level", &self.core.level())
            .finish_non_exhaustive()
    }
}

impl<'c, F: TripleFeed, R: Rng> GmwStages<'c, F, R> {
    /// Creates the lane for party `me` with its private input bits.
    ///
    /// # Panics
    ///
    /// Panics if the layout does not cover the circuit inputs, `me` is
    /// out of range, or `my_bits` disagrees with the layout.
    pub fn new(
        circuit: &'c Circuit,
        layout: &'c InputLayout,
        sched: &'c Schedule,
        me: usize,
        my_bits: Vec<bool>,
        feed: F,
        rng: R,
    ) -> Self {
        assert_eq!(
            my_bits.len(),
            layout.range_of(me).len(),
            "party {me} supplied wrong input count"
        );
        GmwStages {
            core: PartyCore::new_streaming(circuit, layout, sched, me),
            sched,
            feed,
            rng,
            my_bits,
            phase: Phase::Share,
            pending: Pending::None,
            steps: if layout.parties() > 1 {
                protocol_rounds(circuit, layout, sched)
            } else {
                0
            },
            outputs: None,
            triple_pulls: 0,
            triple_buffered_sum: 0,
        }
    }

    /// Triple-supply accounting (valid any time; final once `Done`).
    pub fn stats(&self) -> StageStats {
        StageStats {
            triple_stall_ns: self.feed.stall_ns(),
            triple_pulls: self.triple_pulls,
            triple_buffered_sum: self.triple_buffered_sum,
        }
    }

    /// Pulls triple levels through the next AND level (or to the end of
    /// the schedule when only free levels remain): one `advance` may
    /// cross several free levels, and [`PartyCore`] indexes its triples
    /// by absolute level, so AND-free levels are fed too (their shares
    /// are empty and consume no dealer randomness). Pulling to the very
    /// end keeps the feed balanced with a dealer that streams every
    /// level.
    fn ensure_triples(&mut self) {
        let until = self
            .sched
            .next_and_level(self.core.level())
            .map_or(self.sched.levels().len(), |l| l + 1);
        while self.core.fed_layers() < until {
            self.triple_pulls += 1;
            self.triple_buffered_sum += self.feed.buffered() as u64;
            let share = self.feed.next_layer();
            self.core.feed_layer_triples(share);
        }
    }
}

impl<F: TripleFeed, R: Rng> PartyStages for GmwStages<'_, F, R> {
    fn me(&self) -> usize {
        self.core.me()
    }

    fn parties(&self) -> usize {
        self.core.parties()
    }

    fn advance(&mut self) -> StageOutput {
        assert_eq!(self.pending, Pending::None, "pending exchange not absorbed");
        loop {
            match self.phase {
                Phase::Share => {
                    let bits = std::mem::take(&mut self.my_bits);
                    let batches = self.core.share_inputs(&bits, &mut self.rng);
                    self.phase = Phase::Layers;
                    if self.core.parties() > 1 && self.core.layout().total_inputs() > 0 {
                        self.pending = Pending::Inputs;
                        return StageOutput::Scatter(batches);
                    }
                }
                Phase::Layers => {
                    self.ensure_triples();
                    match self.core.next_layer_batch() {
                        Some(batch) => {
                            if self.core.parties() > 1 {
                                self.pending = Pending::Layer;
                                return StageOutput::Broadcast(batch);
                            }
                            self.core.finish_layer(&[]);
                        }
                        None => self.phase = Phase::Open,
                    }
                }
                Phase::Open => {
                    self.phase = Phase::Finished;
                    if self.core.parties() > 1 && !self.core.circuit().outputs().is_empty() {
                        self.pending = Pending::Outputs;
                        return StageOutput::Broadcast(self.core.output_batch());
                    }
                    self.outputs = Some(self.core.open_outputs(&[]));
                }
                Phase::Finished => {
                    let outputs = self.outputs.clone().expect("finished without outputs");
                    return StageOutput::Done(outputs);
                }
            }
        }
    }

    fn absorb(&mut self, peers: &[(usize, PackedBatch)]) {
        match std::mem::replace(&mut self.pending, Pending::None) {
            Pending::None => panic!("no pending exchange to absorb"),
            Pending::Inputs => {
                for (from, batch) in peers {
                    self.core.absorb_inputs(*from, batch);
                }
            }
            Pending::Layer => self.core.finish_layer(peers),
            Pending::Outputs => self.outputs = Some(self.core.open_outputs(peers)),
        }
    }

    fn total_steps(&self) -> usize {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{to_bits, word_value, CircuitBuilder};
    use crate::gmw_core::{deal_layer_triples, deal_packed_triples};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> (Circuit, InputLayout) {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(6);
        let b = cb.input_word(6);
        let sum = cb.add_words_expand(&a, &b);
        (cb.finish_word(sum), InputLayout::new(vec![6, 6]))
    }

    /// Drives all parties' stage machines in lockstep on this thread,
    /// routing every exchange by hand — the minimal driver, used to
    /// prove the state machine itself before any pipeline is involved.
    fn run_stages<S: PartyStages>(stages: &mut [S]) -> Vec<Vec<bool>> {
        let parties = stages.len();
        let mut done: Vec<Option<Vec<bool>>> = vec![None; parties];
        while done.iter().any(Option::is_none) {
            let mut sent: Vec<Vec<Option<PackedBatch>>> = vec![vec![None; parties]; parties];
            let mut exchanged = false;
            for (p, stage) in stages.iter_mut().enumerate() {
                if done[p].is_some() {
                    continue;
                }
                match stage.advance() {
                    StageOutput::Scatter(batches) => {
                        for (q, batch) in batches.into_iter().enumerate() {
                            if q != p {
                                sent[q][p] = Some(batch);
                            }
                        }
                        exchanged = true;
                    }
                    StageOutput::Broadcast(batch) => {
                        for (q, inbox) in sent.iter_mut().enumerate().take(parties) {
                            if q != p {
                                inbox[p] = Some(batch.clone());
                            }
                        }
                        exchanged = true;
                    }
                    StageOutput::Done(out) => done[p] = Some(out),
                }
            }
            if exchanged {
                for (p, stage) in stages.iter_mut().enumerate() {
                    if done[p].is_some() {
                        continue;
                    }
                    let peers: Vec<(usize, PackedBatch)> = sent[p]
                        .iter_mut()
                        .enumerate()
                        .filter_map(|(q, b)| b.take().map(|b| (q, b)))
                        .collect();
                    stage.absorb(&peers);
                }
            }
        }
        done.into_iter().map(|o| o.expect("all done")).collect()
    }

    #[test]
    fn stages_match_lockstep_driver_with_preloaded_triples() {
        let (circuit, layout) = adder();
        let sched = Schedule::new(&circuit);
        let mut dealer = StdRng::seed_from_u64(7);
        let mut triples = deal_packed_triples(2, &sched, &mut dealer);
        let inputs = [to_bits(23, 6), to_bits(40, 6)];
        let stages: Vec<_> = (0..2)
            .map(|p| {
                GmwStages::new(
                    &circuit,
                    &layout,
                    &sched,
                    p,
                    inputs[p].clone(),
                    PreloadedTriples::new(std::mem::take(&mut triples[p])),
                    StdRng::seed_from_u64(100 + p as u64),
                )
            })
            .collect();
        let mut stages = stages;
        let outs = run_stages(&mut stages);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(word_value(&outs[0]), 63);
        // Every lane pulled exactly one triple level per schedule level.
        for stage in &stages {
            assert_eq!(stage.stats().triple_pulls, sched.levels().len() as u64);
        }
    }

    #[test]
    fn channel_fed_triples_match_preloaded_bit_for_bit() {
        let (circuit, layout) = adder();
        let sched = Schedule::new(&circuit);
        let inputs = [to_bits(9, 6), to_bits(33, 6)];

        // Stream: a dealer draws layer-by-layer from the same seed the
        // up-front dealer would use, feeding bounded channels.
        let depth = sched.levels().len();
        let (txs, rxs): (Vec<_>, Vec<_>) =
            (0..2).map(|_| crossbeam::channel::bounded(depth)).unzip();
        let mut dealer = StdRng::seed_from_u64(7);
        for layer in sched.levels() {
            let shares = deal_layer_triples(2, layer.ands.len(), &mut dealer);
            for (tx, share) in txs.iter().zip(shares) {
                tx.send(share).unwrap();
            }
        }
        drop(txs);
        let mut rxs = rxs.into_iter();
        let stages: Vec<_> = (0..2)
            .map(|p| {
                GmwStages::new(
                    &circuit,
                    &layout,
                    &sched,
                    p,
                    inputs[p].clone(),
                    ChannelTriples::new(rxs.next().unwrap()),
                    StdRng::seed_from_u64(100 + p as u64),
                )
            })
            .collect();
        let mut stages = stages;
        let streamed = run_stages(&mut stages);

        // Preloaded path from the identical dealer seed.
        let mut dealer = StdRng::seed_from_u64(7);
        let mut triples = deal_packed_triples(2, &sched, &mut dealer);
        let preloaded: Vec<_> = (0..2)
            .map(|p| {
                GmwStages::new(
                    &circuit,
                    &layout,
                    &sched,
                    p,
                    inputs[p].clone(),
                    PreloadedTriples::new(std::mem::take(&mut triples[p])),
                    StdRng::seed_from_u64(100 + p as u64),
                )
            })
            .collect();
        let mut preloaded = preloaded;
        assert_eq!(streamed, run_stages(&mut preloaded));
        assert_eq!(word_value(&streamed[0]), 42);
    }

    #[test]
    fn single_party_lane_completes_without_exchanges() {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(5);
        let b = cb.const_word(11, 5);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![5]);
        let sched = Schedule::new(&circuit);
        let mut dealer = StdRng::seed_from_u64(3);
        let mut triples = deal_packed_triples(1, &sched, &mut dealer);
        let mut stage = GmwStages::new(
            &circuit,
            &layout,
            &sched,
            0,
            to_bits(7, 5),
            PreloadedTriples::new(std::mem::take(&mut triples[0])),
            StdRng::seed_from_u64(1),
        );
        assert_eq!(stage.total_steps(), 0);
        match stage.advance() {
            StageOutput::Done(out) => assert_eq!(out, vec![true]),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "pending exchange not absorbed")]
    fn advancing_past_a_pending_exchange_panics() {
        let (circuit, layout) = adder();
        let sched = Schedule::new(&circuit);
        let mut dealer = StdRng::seed_from_u64(7);
        let mut triples = deal_packed_triples(2, &sched, &mut dealer);
        let mut stage = GmwStages::new(
            &circuit,
            &layout,
            &sched,
            0,
            to_bits(1, 6),
            PreloadedTriples::new(std::mem::take(&mut triples[0])),
            StdRng::seed_from_u64(0),
        );
        let _ = stage.advance();
        let _ = stage.advance();
    }
}
