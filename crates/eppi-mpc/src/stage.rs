//! What a party's driver sees between two calls into the core.
//!
//! [`PartyCore`](crate::gmw_core::PartyCore) is a state machine: its
//! `advance` runs local computation until the party either needs the
//! network or is finished, and says which through a [`StageOutput`];
//! `absorb` hands it the peers' answer. Both drivers — the blocking
//! per-thread loop and the single-threaded lockstep loop — are the same
//! "advance → move the batches → absorb" loop around a different
//! transport.

use eppi_net::transport::PackedBatch;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{to_bits, word_value, CircuitBuilder};
    use crate::circuit::{Circuit, InputLayout};
    use crate::gmw_core::{deal_packed_triples, run_lockstep, PartyCore, Schedule};
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
