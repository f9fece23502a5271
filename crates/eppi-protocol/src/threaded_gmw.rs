//! Multi-threaded GMW execution over the threaded party runtime.
//!
//! One of the two drivers of the single packed GMW core
//! ([`eppi_mpc::gmw_core`]; `Backend::execute` in [`crate::countbelow`]
//! is where a backend choice turns into a call here): each party runs
//! the [`run_party`] loop on its own pooled thread, exchanging real
//! messages through a [`ThreadedTransport`] (crossbeam channels). This
//! is the backend the Fig. 6a / 6c wall-clock execution-time
//! experiments use — the lockstep executor (`eppi_mpc::gmw::execute`)
//! reports modeled rather than measured time. Dealer and parties are
//! seeded by the one rule of [`dealer_rng`] / [`party_rng`].
//!
//! Communication structure per AND layer: every party broadcasts one
//! [`PackedBatch`] carrying its `d = x⊕a` and `e = y⊕b` shares for all
//! AND gates of the layer — word-aligned, 64 gates per `u64` word, not
//! a per-gate bit pair — then combines the received words. Per-party
//! work per layer is `O(gates/64 · parties)` word operations and total
//! traffic stays `O(gates · parties²)` logical bits, the super-linear
//! growth the paper observes for the pure-MPC baseline. The returned
//! [`GmwStats`] carries both traffic units of the workspace convention
//! (see `eppi-net`'s crate docs).

use eppi_mpc::circuit::{Circuit, InputLayout};
use eppi_mpc::gmw::GmwStats;
use eppi_mpc::gmw_core::{
    agreed_outputs, deal_packed_triples, dealer_rng, party_rng, run_party, PartyCore, Schedule,
};
use eppi_net::threaded::run_parties;
use eppi_net::traced::TracedTransport;
use eppi_net::transport::{PackedBatch, ThreadedTransport};
use eppi_trace::Obs;
use std::sync::Arc;

/// Executes `circuit` with one thread per party. Returns the opened
/// outputs (identical to `circuit.eval` on the flattened inputs) and
/// the cost record. Telemetry goes to the process-global registry and
/// nothing is traced; see [`execute_threaded_with_registry`].
///
/// # Panics
///
/// Panics if the layout does not cover the circuit inputs or `inputs`
/// disagrees with the layout.
pub fn execute_threaded(
    circuit: &Circuit,
    layout: &InputLayout,
    inputs: &[Vec<bool>],
    seed: u64,
) -> (Vec<bool>, GmwStats) {
    execute_threaded_with_registry(circuit, layout, inputs, seed, Obs::default())
}

/// [`execute_threaded`] under a caller's observability context.
///
/// Telemetry: the `gmw.round_ns` histogram gets one sample per
/// synchronized AND round (wall time observed by party 0), and the
/// `gmw.and_gates` / `gmw.rounds` counters accumulate circuit work
/// across runs.
///
/// Tracing: the run is one `mpc.execute` span (a child of `obs.parent`,
/// or a fresh trace root when there is none, payload = AND gates), each
/// party thread runs under its own `mpc.party` child span (payload =
/// party id), every protocol exchange is a `net.exchange` span via
/// [`TracedTransport`], and each completed AND round drops an
/// `mpc.and_round` instant (payload = round index) per party. A
/// disabled tracer makes this identical to the untraced entry point.
///
/// # Panics
///
/// Panics if the layout does not cover the circuit inputs, `inputs`
/// disagrees with the layout, or the parties open different outputs.
pub fn execute_threaded_with_registry<'a>(
    circuit: &Circuit,
    layout: &InputLayout,
    inputs: &[Vec<bool>],
    seed: u64,
    obs: impl Into<Obs<'a>>,
) -> (Vec<bool>, GmwStats) {
    let obs = obs.into();
    assert_eq!(
        layout.total_inputs(),
        circuit.inputs(),
        "layout does not cover the circuit inputs"
    );
    assert_eq!(inputs.len(), layout.parties(), "one input vector per party");
    let parties = layout.parties();
    let sched = Schedule::new(circuit);

    let triples = deal_packed_triples(parties, &sched, &mut dealer_rng(seed));
    let round_hist = obs.registry.histogram("gmw.round_ns", &[]);

    let mut exec_span = if obs.parent.is_none() {
        obs.tracer.root("mpc.execute")
    } else {
        obs.tracer.child(obs.parent, "mpc.execute")
    };
    exec_span.set_payload(sched.and_gates() as u64);
    let exec_ctx = exec_span.ctx();

    let (results, counters) = run_parties::<PackedBatch, (Vec<bool>, u64), _>(parties, {
        let sched = &sched;
        let triples = &triples;
        let round_hist = Arc::clone(&round_hist);
        let tracer = obs.tracer.clone();
        move |h| {
            let me = h.me().index();
            let mut party_span = tracer.child(exec_ctx, "mpc.party");
            party_span.set_payload(me as u64);
            let pctx = party_span.ctx();
            let mut transport =
                TracedTransport::new(ThreadedTransport::new(h), tracer.clone(), pctx);
            let mut core = PartyCore::new(circuit, layout, sched, me, triples[me].clone());
            let mut rng = party_rng(seed, me);
            // Party 0 times each synchronized round; one shared
            // histogram record per round is negligible next to the
            // broadcast/gather it measures.
            let out = run_party(
                &mut core,
                &inputs[me],
                &mut rng,
                &mut transport,
                |round, took| {
                    tracer.instant(pctx, "mpc.and_round", round as u64);
                    if me == 0 {
                        round_hist.record(took.as_nanos() as u64);
                    }
                },
            );
            let bits = transport.into_inner().bits_sent();
            (out, bits)
        }
    });

    let stats = GmwStats::measured(
        circuit,
        layout,
        &sched,
        counters.messages(),
        counters.bytes(),
    );
    debug_assert_eq!(
        results.iter().map(|&(_, bits)| bits).sum::<u64>(),
        stats.bits_sent
    );
    let outputs = agreed_outputs(results.into_iter().map(|(out, _)| out));
    obs.registry
        .counter("gmw.and_gates", &[])
        .add(stats.and_gates as u64);
    obs.registry
        .counter("gmw.rounds", &[])
        .add(stats.and_rounds as u64);
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eppi_mpc::builder::{to_bits, word_value, CircuitBuilder};
    use eppi_telemetry::Registry;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn agrees_with_in_process_gmw() {
        let mut cb = CircuitBuilder::new();
        let bits: Vec<_> = (0..6).map(|_| cb.input()).collect();
        let count = cb.popcount(&bits);
        let circuit = cb.finish_word(count);
        let layout = InputLayout::new(vec![1; 6]);
        let inputs: Vec<Vec<bool>> = (0..6).map(|p| vec![p % 2 == 0]).collect();

        let link = eppi_net::sim::LinkModel::LAN;
        let (a, in_process) = eppi_mpc::gmw::execute(&circuit, &layout, &inputs, link, 77);
        let (b, threaded) = execute_threaded(&circuit, &layout, &inputs, 77);
        assert_eq!(word_value(&a), 3);
        assert_eq!(a, b);
        // Both backends report the same analytic traffic/round figures
        // and the same messages and bytes; only the lockstep run prices
        // simulated time.
        let traffic = |s: GmwStats| (s.bits_sent, s.rounds, s.messages, s.bytes);
        assert_eq!(traffic(threaded), traffic(in_process));
        assert_eq!(threaded.simulated_us, 0.0);
        assert!(in_process.simulated_us > 0.0);
    }

    #[test]
    fn reports_rounds_and_publishes_round_telemetry() {
        use eppi_telemetry::MetricValue;

        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(4);
        let b = cb.input_word(4);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![4, 4]);
        let inputs = vec![to_bits(3, 4), to_bits(9, 4)];
        let registry = Registry::new();
        let (out, report) =
            execute_threaded_with_registry(&circuit, &layout, &inputs, 11, &registry);
        assert_eq!(out, vec![true]);
        assert!(report.and_rounds >= 1);
        assert!(report.and_rounds <= report.and_gates);
        // input round + AND rounds + output round for a 2-party run.
        assert_eq!(report.rounds, report.and_rounds + 2);
        let snap = registry.snapshot();
        match &snap.expect("gmw.round_ns", &[]).unwrap().value {
            MetricValue::Histogram(h) => assert_eq!(h.count, report.and_rounds as u64),
            other => panic!("unexpected metric {other:?}"),
        }
        assert_eq!(
            snap.expect("gmw.rounds", &[]).unwrap().value,
            MetricValue::Counter(report.and_rounds as u64)
        );
        assert_eq!(
            snap.expect("gmw.and_gates", &[]).unwrap().value,
            MetricValue::Counter(report.and_gates as u64)
        );
    }

    #[test]
    fn traced_run_spans_every_party_round_and_exchange() {
        use eppi_trace::{TraceConfig, Tracer};

        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(4);
        let b = cb.input_word(4);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![4, 4]);
        let inputs = vec![to_bits(3, 4), to_bits(9, 4)];
        let registry = Registry::new();
        let tracer = Tracer::new(TraceConfig::default());

        let obs = Obs {
            tracer: &tracer,
            ..Obs::from(&registry)
        };
        let (out, report) = execute_threaded_with_registry(&circuit, &layout, &inputs, 11, obs);
        assert_eq!(out, vec![true]);

        let log = tracer.collect();
        let traces = log.trace_ids();
        assert_eq!(traces.len(), 1, "one mpc.execute root trace");
        let tree = log.span_tree(traces[0]).unwrap();
        assert_eq!(tree.name, "mpc.execute");
        assert_eq!(tree.payload, report.and_gates as u64);
        assert_eq!(tree.count("mpc.party"), report.parties);
        // Every protocol round of every party is one exchange span, and
        // every AND round drops one instant per party.
        assert_eq!(
            tree.count("net.exchange"),
            report.parties * report.rounds,
            "{}",
            log.render(traces[0])
        );
        assert_eq!(
            tree.count("mpc.and_round"),
            report.parties * report.and_rounds
        );
        for party in &tree.children {
            assert_eq!(party.count("net.exchange"), report.rounds);
        }

        // The untraced entry point reports identically.
        let (out2, report2) = execute_threaded(&circuit, &layout, &inputs, 11);
        assert_eq!(out2, out);
        assert_eq!(report2, report);
    }

    #[test]
    #[should_panic(expected = "disagrees on the opened outputs")]
    fn corrupted_peer_batch_trips_the_output_agreement_check() {
        // The threaded path by hand — real threads, `ThreadedTransport`,
        // the `run_party` loop — so that one link can be made to lie:
        // in the last exchange (the output opening) party 1 receives
        // party 0's share with a bit flipped and opens a different
        // answer. `agreed_outputs`, the check `execute_threaded` ends
        // with, must refuse to pick one (before, release builds
        // returned party 0's).
        use eppi_mpc::stage::StageOutput;
        use eppi_net::transport::Transport;
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(4);
        let b = cb.input_word(4);
        let lt = cb.lt_words(&a, &b);
        let circuit = cb.finish(vec![lt]);
        let layout = InputLayout::new(vec![4, 4]);
        let inputs = [to_bits(3, 4), to_bits(9, 4)];
        let sched = Schedule::new(&circuit);
        let rounds = execute_threaded(&circuit, &layout, &inputs, 11).1.rounds;
        let triples = deal_packed_triples(2, &sched, &mut StdRng::seed_from_u64(5));
        let (results, _) = run_parties::<PackedBatch, Vec<bool>, _>(2, |h| {
            let me = h.me().index();
            let mut transport = ThreadedTransport::new(h);
            let mut core = PartyCore::new(&circuit, &layout, &sched, me, triples[me].clone());
            let mut rng = StdRng::seed_from_u64(me as u64);
            for exchange in 1.. {
                match core.advance(|core| core.share_inputs(&inputs[me], &mut rng)) {
                    StageOutput::Scatter(batches) => transport.scatter(batches),
                    StageOutput::Broadcast(batch) => transport.broadcast(batch),
                    StageOutput::Done(outputs) => return outputs,
                }
                let mut peers = transport.collect();
                if me == 1 && exchange == rounds {
                    peers[0].1.words[0] ^= 1;
                }
                core.absorb(&peers);
            }
            unreachable!("the protocol finishes")
        });
        agreed_outputs(results);
    }

    #[test]
    fn traffic_grows_superlinearly_with_parties() {
        let build = |parties: usize| {
            let mut cb = CircuitBuilder::new();
            let bits: Vec<_> = (0..parties).map(|_| cb.input()).collect();
            let all = cb.and_many(&bits);
            (cb.finish(vec![all]), InputLayout::new(vec![1; parties]))
        };
        let mut per_and = Vec::new();
        for parties in [3usize, 6, 12] {
            let (circuit, layout) = build(parties);
            let inputs = vec![vec![true]; parties];
            let (_, report) = execute_threaded(&circuit, &layout, &inputs, 9);
            per_and.push(report.bytes as f64 / report.and_gates.max(1) as f64);
        }
        assert!(per_and[1] > 1.8 * per_and[0], "{per_and:?}");
        assert!(per_and[2] > 1.8 * per_and[1], "{per_and:?}");
    }
}
