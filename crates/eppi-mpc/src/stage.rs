//! What a party's driver sees between two calls into the core.
//!
//! [`PartyCore`](crate::gmw_core::PartyCore) is a state machine: its
//! `advance` runs local computation until the party either needs the
//! network or is finished, and says which through a [`StageOutput`];
//! `absorb` hands it the peers' answer. Every driver — the blocking
//! per-thread loop, the single-threaded lockstep loop and the pipelined
//! lane worker of `eppi-protocol`, which parks a lane at its exchange
//! point while a coalescing sender and a triple dealer run on their own
//! threads — is the same "advance → move the batches → absorb" loop
//! around a different transport.
//!
//! [`ChannelTriples`] is the second thing a pipelined lane needs: Beaver
//! triples streamed level-by-level from a dealer thread over a bounded
//! channel, with stall accounting ([`StageStats`]), instead of a whole
//! run's triples dealt up front. The streaming dealer reuses
//! [`deal_layer_triples`](crate::gmw_core::deal_layer_triples), so
//! triple *values* are bit-identical however they arrive.

use crate::gmw_core::LayerTriples;
use crossbeam::channel::Receiver;
use eppi_net::transport::PackedBatch;
use std::time::Instant;

/// What a party asks of the network next.
#[derive(Debug, Clone)]
pub enum StageOutput {
    /// Personalized input-share batches, one slot per party (the own
    /// slot stays empty) — the input-sharing exchange.
    Scatter(Vec<PackedBatch>),
    /// The common batch of this exchange step (an AND layer's `d`/`e`
    /// opening or the output shares), to be sent to every peer.
    Broadcast(PackedBatch),
    /// The party is finished; these are the opened outputs.
    Done(Vec<bool>),
}

/// Triple-supply accounting of one lane.
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

/// One party's per-level Beaver-triple shares streamed from a dealer
/// thread over a bounded channel, measuring how long the lane stalls
/// when the dealer falls behind (the `mpc.pipeline.triple_stall_ns`
/// telemetry).
#[derive(Debug)]
pub struct ChannelTriples {
    rx: Receiver<LayerTriples>,
    stats: StageStats,
}

impl ChannelTriples {
    /// Wraps the consuming end of a dealer channel.
    pub fn new(rx: Receiver<LayerTriples>) -> Self {
        ChannelTriples {
            rx,
            stats: StageStats::default(),
        }
    }

    /// The next schedule level's share, in feed order — blocking until
    /// the dealer has produced it.
    ///
    /// # Panics
    ///
    /// Panics if the dealer hung up before sending every level.
    pub fn next_layer(&mut self) -> LayerTriples {
        self.stats.triple_pulls += 1;
        self.stats.triple_buffered_sum += self.rx.len() as u64;
        if let Ok(share) = self.rx.try_recv() {
            return share;
        }
        let started = Instant::now();
        let share = self.rx.recv().expect("triple dealer hung up");
        self.stats.triple_stall_ns += started.elapsed().as_nanos() as u64;
        share
    }

    /// Supply accounting so far (final once the lane is done).
    pub fn stats(&self) -> StageStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{to_bits, word_value, CircuitBuilder};
    use crate::circuit::{Circuit, InputLayout};
    use crate::gmw_core::{
        deal_layer_triples, deal_packed_triples, run_lockstep, PartyCore, Schedule,
    };
    use eppi_net::transport::InProcessTransport;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> (Circuit, InputLayout) {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(6);
        let b = cb.input_word(6);
        let sum = cb.add_words_expand(&a, &b);
        (cb.finish_word(sum), InputLayout::new(vec![6, 6]))
    }

    fn preloaded<'c>(
        circuit: &'c Circuit,
        layout: &'c InputLayout,
        sched: &'c Schedule,
        dealer_seed: u64,
    ) -> Vec<PartyCore<'c>> {
        let mut dealer = StdRng::seed_from_u64(dealer_seed);
        deal_packed_triples(layout.parties(), sched, &mut dealer)
            .into_iter()
            .enumerate()
            .map(|(p, triples)| PartyCore::new(circuit, layout, sched, p, triples))
            .collect()
    }

    /// Drives all parties' state machines in lockstep on this thread,
    /// routing every exchange by hand — the minimal driver, used to
    /// prove the state machine itself before any transport is involved.
    /// Party `p` shares `inputs[p]` under RNG seed `100 + p`.
    fn run_stages(cores: &mut [PartyCore<'_>], inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let parties = cores.len();
        loop {
            let mut sent: Vec<Vec<Option<PackedBatch>>> = vec![vec![None; parties]; parties];
            let mut done = Vec::new();
            for (p, core) in cores.iter_mut().enumerate() {
                let mut rng = StdRng::seed_from_u64(100 + p as u64);
                match core.advance(|core| core.share_inputs(&inputs[p], &mut rng)) {
                    StageOutput::Scatter(batches) => {
                        for (q, batch) in batches.into_iter().enumerate() {
                            if q != p {
                                sent[q][p] = Some(batch);
                            }
                        }
                    }
                    StageOutput::Broadcast(batch) => {
                        for (q, inbox) in sent.iter_mut().enumerate() {
                            if q != p {
                                inbox[p] = Some(batch.clone());
                            }
                        }
                    }
                    StageOutput::Done(out) => done.push(out),
                }
            }
            if !done.is_empty() {
                assert_eq!(done.len(), parties, "parties finish together");
                return done;
            }
            for (core, inbox) in cores.iter_mut().zip(&mut sent) {
                let peers: Vec<(usize, PackedBatch)> = inbox
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(q, b)| b.take().map(|b| (q, b)))
                    .collect();
                core.absorb(&peers);
            }
        }
    }

    #[test]
    fn stages_match_lockstep_driver_with_preloaded_triples() {
        let (circuit, layout) = adder();
        let sched = Schedule::new(&circuit);
        let inputs = [to_bits(23, 6), to_bits(40, 6)];
        let outs = run_stages(&mut preloaded(&circuit, &layout, &sched, 7), &inputs);
        assert_eq!(outs[0], outs[1]);
        assert_eq!(word_value(&outs[0]), 63);

        let mut hub = InProcessTransport::hub(2);
        let lockstep = run_lockstep(
            &mut preloaded(&circuit, &layout, &sched, 7),
            &mut hub,
            |p, core| core.share_inputs(&inputs[p], &mut StdRng::seed_from_u64(100 + p as u64)),
        );
        assert_eq!(outs[0], lockstep);
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
        let mut streaming: Vec<PartyCore<'_>> = rxs
            .into_iter()
            .enumerate()
            .map(|(p, rx)| {
                PartyCore::new_streaming(&circuit, &layout, &sched, p, ChannelTriples::new(rx))
            })
            .collect();
        let streamed = run_stages(&mut streaming, &inputs);
        // Every lane pulled exactly one triple level per schedule level.
        for core in &streaming {
            assert_eq!(core.triple_stats().triple_pulls, depth as u64);
        }

        // Preloaded path from the identical dealer seed.
        let dealt = run_stages(&mut preloaded(&circuit, &layout, &sched, 7), &inputs);
        assert_eq!(streamed, dealt);
        assert_eq!(word_value(&streamed[0]), 42);
    }

    #[test]
    #[should_panic(expected = "pending exchange not absorbed")]
    fn advancing_past_a_pending_exchange_panics() {
        let (circuit, layout) = adder();
        let sched = Schedule::new(&circuit);
        let mut cores = preloaded(&circuit, &layout, &sched, 7);
        let mut rng = StdRng::seed_from_u64(0);
        let _ = cores[0].advance(|core| core.share_inputs(&to_bits(1, 6), &mut rng));
        let _ = cores[0].advance(|_| unreachable!("inputs are shared once"));
    }
}
