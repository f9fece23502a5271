//! Pipelined multi-lane GMW execution — the stage-based driver.
//!
//! The threaded backend ([`crate::threaded_gmw`]) runs one circuit at a
//! time with every party in lockstep: each AND layer is a synchronized
//! broadcast/gather, so the link round-trip time is paid once per layer
//! per circuit, serially. The CountBelow batch of the ε-PPI
//! construction, however, is *many independent circuits* (one per
//! touched column), and nothing about GMW requires their rounds to
//! interleave in lockstep.
//!
//! This module runs those circuits as pipeline *lanes* over one shared
//! network (DESIGN.md §15). Per party, the monolithic protocol loop is
//! split into explicit stages connected by bounded channels:
//!
//! * **Triple supply** — one dealer thread per lane streams each
//!   schedule level's Beaver shares ([`deal_layer_triples`]) into
//!   bounded per-party channels ahead of consumption, instead of
//!   materializing the whole run's triples up front.
//! * **Lane evaluation** — a pool of worker threads drives each lane's
//!   sans-io [`PartyCore`] state machine with the same "advance → send
//!   → absorb" loop as the lockstep drivers (`run_lane`): local gate
//!   evaluation up to the next exchange, then park on the lane's inbox
//!   while *other* lanes' local work and exchanges proceed.
//! * **Coalesced send** — one sender thread per party drains every
//!   lane's due batches and writes **one frame per peer per flush**
//!   ([`FrameSender`]), so concurrent lanes share wire messages instead
//!   of multiplying them.
//! * **Routing** — one router thread per party demultiplexes incoming
//!   [`LaneItem`]s by `(lane, step)` and completes each lane's exchange
//!   set as soon as all peers have contributed, in any arrival order.
//!
//! The schedule of every stage is **data-independent**: which lanes
//! exchange at which step, the size of every batch, and the total
//! frame/bit counts are all functions of the circuit structures alone,
//! never of share values — so the pipelining leaks nothing the lockstep
//! driver did not (the obliviousness argument of DESIGN.md §15).
//!
//! Outputs are bit-identical to the frozen lockstep oracle: lanes seed
//! their dealer and party RNGs exactly as [`execute_threaded`] seeds
//! its single run, and GMW outputs are deterministic in the inputs.
//! `tests/mpc_backends.rs` proves this under proptest.
//!
//! [`execute_threaded`]: crate::threaded_gmw::execute_threaded

use eppi_mpc::circuit::{Circuit, InputLayout};
use eppi_mpc::gmw::GmwStats;
use eppi_mpc::gmw_core::{agreed_outputs, deal_layer_triples, PartyCore, Schedule};
use eppi_mpc::stage::{ChannelTriples, StageOutput};
use eppi_net::pipeline::{
    Frame, FrameReceiver, FrameSender, LaneItem, LinkPacing, PipelineMetrics,
};
use eppi_net::threaded::{run_parties, TransportError};
use eppi_net::transport::PackedBatch;
use eppi_trace::Obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed salt of the triple dealer — identical to the lockstep
/// backends', so a lane's triples match a standalone run of the same
/// circuit from the same seed.
const DEALER_SALT: u64 = 0xd1a1e5;
/// Per-party seed spread — identical to the lockstep backends'.
const PARTY_SALT: u64 = 0x9e3779b97f4a7c15;

/// Tuning of the pipelined runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Lane-evaluation worker threads per party. On a paced link this
    /// is the number of lane round-trips kept in flight concurrently.
    pub workers: usize,
    /// Bounded depth (in schedule levels) of each lane's streaming
    /// triple channel — how far the dealer may run ahead.
    pub triple_buffer: usize,
    /// Optional emulated link latency (absolute delivery deadlines).
    pub pacing: Option<LinkPacing>,
    /// How long a router waits for the next frame before declaring the
    /// network dead.
    pub recv_timeout: Duration,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 2,
            triple_buffer: 4,
            pacing: None,
            recv_timeout: Duration::from_secs(30),
        }
    }
}

impl PipelineConfig {
    /// The default configuration with `workers` lane workers.
    pub fn with_workers(workers: usize) -> Self {
        PipelineConfig {
            workers,
            ..PipelineConfig::default()
        }
    }
}

/// One independent circuit evaluation in the pipelined batch.
#[derive(Debug, Clone, Copy)]
pub struct LaneSpec<'a> {
    /// The lane's circuit.
    pub circuit: &'a Circuit,
    /// Its input layout (all lanes must agree on the party count).
    pub layout: &'a InputLayout,
    /// Per-party private input bits, indexed by party.
    pub inputs: &'a [Vec<bool>],
    /// The lane's RNG seed — the same value handed to
    /// [`execute_threaded`](crate::threaded_gmw::execute_threaded)
    /// yields a bit-identical standalone run.
    pub seed: u64,
}

/// Aggregate report of a pipelined run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Number of parties.
    pub parties: usize,
    /// Lanes evaluated.
    pub lanes: usize,
    /// Worker threads per party.
    pub workers: usize,
    /// Messages on the wire — coalesced frames, not lane items.
    pub messages: u64,
    /// On-the-wire bytes of the frame encoding.
    pub bytes: u64,
    /// Total logical payload bits (Σ over `lane_reports`).
    pub bits_sent: u64,
    /// Lane items carried by the frames (`/ messages` = the coalescing
    /// factor).
    pub coalesced_items: u64,
    /// Per-lane cost records, in lane order — each equal to the
    /// lockstep oracle's for the same circuit, except that a pipelined
    /// lane cannot tell its share of the coalesced frames (`messages`
    /// and `bytes` are 0 there; the run's totals are above).
    pub lane_reports: Vec<GmwStats>,
}

/// A worker's message to the coalescing sender stage: one lane's
/// batches for one exchange step, one slot per party (the own slot is
/// skipped). Input sharing fills the slots with personalized batches,
/// AND layers and the output opening with copies of one batch.
struct OutMsg {
    lane: u32,
    step: u32,
    batches: Vec<PackedBatch>,
}

/// Buckets one worker message into the per-peer staging slots.
fn stage_msg(msg: OutMsg, per_peer: &mut [Vec<LaneItem>], me: usize) {
    let OutMsg {
        lane,
        step,
        batches,
    } = msg;
    for (to, batch) in batches.into_iter().enumerate() {
        if to != me {
            per_peer[to].push(LaneItem { lane, step, batch });
        }
    }
}

/// What one party's pipeline hands back to the main thread.
struct PartyOutcome {
    lane_outputs: Vec<Option<Vec<bool>>>,
    bits: u64,
    frames: u64,
    items: u64,
    error: Option<TransportError>,
}

/// Runs every lane through the pipelined stage runtime. Returns the
/// lanes' opened outputs (in lane order) and the aggregate report.
/// Telemetry goes to the process-global registry and nothing is traced.
///
/// # Errors
///
/// [`TransportError`] when a party stops responding mid-run (the
/// remaining parties time out instead of hanging).
///
/// # Panics
///
/// Panics if the lanes disagree on the party count, a lane's inputs
/// disagree with its layout, or a party thread panics.
pub fn execute_pipelined(
    lanes: &[LaneSpec<'_>],
    config: &PipelineConfig,
) -> Result<(Vec<Vec<bool>>, PipelineReport), TransportError> {
    execute_pipelined_with_registry(lanes, config, Obs::default())
}

/// [`execute_pipelined`] under a caller's observability context:
/// telemetry goes to `obs.registry` (the `mpc.pipeline.*` family — see
/// [`PipelineMetrics`]), and the run is one `mpc.pipeline` span (a
/// child of `obs.parent`, or a fresh trace root when there is none;
/// payload = lane count), each party runs under an `mpc.party` child
/// span, and every lane evaluation is an `mpc.lane` span (payload =
/// lane index) under its party.
///
/// # Errors
///
/// [`TransportError`] when a party stops responding mid-run.
///
/// # Panics
///
/// Panics under the same conditions as [`execute_pipelined`].
pub fn execute_pipelined_with_registry<'a>(
    lanes: &[LaneSpec<'_>],
    config: &PipelineConfig,
    obs: impl Into<Obs<'a>>,
) -> Result<(Vec<Vec<bool>>, PipelineReport), TransportError> {
    let obs = obs.into();
    if lanes.is_empty() {
        return Ok((Vec::new(), PipelineReport::default()));
    }
    let parties = lanes[0].layout.parties();
    for (i, lane) in lanes.iter().enumerate() {
        assert_eq!(
            lane.layout.parties(),
            parties,
            "lane {i} disagrees on the party count"
        );
        assert_eq!(
            lane.inputs.len(),
            parties,
            "lane {i}: one input vector per party"
        );
    }
    let scheds: Vec<Schedule> = lanes.iter().map(|l| Schedule::new(l.circuit)).collect();
    let lane_reports: Vec<GmwStats> = lanes
        .iter()
        .zip(&scheds)
        .map(|(l, s)| GmwStats::measured(l.circuit, l.layout, s, 0, 0))
        .collect();
    // Exchange steps per lane: what the workers emit and the routers
    // await. A lone party never exchanges.
    let steps: Vec<usize> = lane_reports
        .iter()
        .map(|r| if parties > 1 { r.rounds } else { 0 })
        .collect();
    let metrics = PipelineMetrics::register(obs.registry);
    let workers = config.workers.max(1);

    let mut exec_span = if obs.parent.is_none() {
        obs.tracer.root("mpc.pipeline")
    } else {
        obs.tracer.child(obs.parent, "mpc.pipeline")
    };
    exec_span.set_payload(lanes.len() as u64);
    let exec_ctx = exec_span.ctx();

    // Streaming triple channels, indexed [party][lane] on the consumer
    // side. The dealers run ahead of consumption up to the bounded
    // depth and park when the lane falls behind.
    let mut triple_txs: Vec<Vec<crossbeam::channel::Sender<_>>> = (0..lanes.len())
        .map(|_| Vec::with_capacity(parties))
        .collect();
    let mut triple_rxs: Vec<Vec<crossbeam::channel::Receiver<_>>> = (0..parties)
        .map(|_| Vec::with_capacity(lanes.len()))
        .collect();
    for lane_txs in &mut triple_txs {
        for party_rxs in &mut triple_rxs {
            let (tx, rx) = crossbeam::channel::bounded(config.triple_buffer.max(1));
            lane_txs.push(tx);
            party_rxs.push(rx);
        }
    }

    let outcomes = crossbeam::thread::scope(|s| {
        // Owned inside the scope so that dropping it after the parties
        // return disconnects any dealer still feeding an aborted lane
        // (otherwise a blocked `send` would keep the scope joined
        // forever on the error path).
        let triple_rxs = triple_rxs;
        for (lane_idx, (lane, lane_txs)) in lanes.iter().zip(triple_txs).enumerate() {
            let sched = &scheds[lane_idx];
            s.spawn(move |_| {
                let mut rng = StdRng::seed_from_u64(lane.seed ^ DEALER_SALT);
                for level in sched.levels() {
                    let shares = deal_layer_triples(parties, level.ands.len(), &mut rng);
                    for (tx, share) in lane_txs.iter().zip(shares) {
                        if tx.send(share).is_err() {
                            // The lane unwound (a transport failure
                            // elsewhere); nothing left to feed.
                            return;
                        }
                    }
                }
            });
        }

        let (results, counters) = run_parties::<Frame, PartyOutcome, _>(parties, {
            let lanes = &lanes;
            let scheds = &scheds;
            let steps = &steps;
            let triple_rxs = &triple_rxs;
            let metrics = &metrics;
            let config = &config;
            let tracer = obs.tracer.clone();
            move |h| {
                let me = h.me().index();
                let mut party_span = tracer.child(exec_ctx, "mpc.party");
                party_span.set_payload(me as u64);
                let pctx = party_span.ctx();
                let (net_tx, net_rx) = h.split();

                let (out_tx, out_rx) = crossbeam::channel::bounded::<OutMsg>(lanes.len() * 2);
                let mut inbox_txs = Vec::with_capacity(lanes.len());
                let mut inbox_rxs = Vec::with_capacity(lanes.len());
                for &lane_steps in steps.iter() {
                    // Sized to the lane's whole exchange count so the
                    // router never blocks on a lane whose worker has
                    // unwound (healthy lanes keep at most two sets
                    // queued — peers cannot run further ahead).
                    let (tx, rx) = crossbeam::channel::bounded::<(u32, Vec<(usize, PackedBatch)>)>(
                        lane_steps.max(1),
                    );
                    inbox_txs.push(tx);
                    inbox_rxs.push(rx);
                }
                let (ready_tx, ready_rx) = crossbeam::channel::bounded(lanes.len());
                for lane_idx in 0..lanes.len() {
                    ready_tx.send(lane_idx).expect("preloading ready queue");
                }
                drop(ready_tx);

                let lane_outputs: Mutex<Vec<Option<Vec<bool>>>> =
                    Mutex::new(vec![None; lanes.len()]);
                let first_error: Mutex<Option<TransportError>> = Mutex::new(None);
                let occupancy = AtomicU64::new(0);

                let (bits, frames, items) = crossbeam::thread::scope(|ps| {
                    // Stage: coalescing sender. Greedily drains every
                    // lane's due batches and writes one frame per peer.
                    let sender = ps.spawn({
                        let out_rx = out_rx.clone();
                        move |_| {
                            let mut fs = FrameSender::new(net_tx);
                            let mut failure = None;
                            while let Ok(first) = out_rx.recv() {
                                let mut per_peer: Vec<Vec<LaneItem>> = vec![Vec::new(); parties];
                                stage_msg(first, &mut per_peer, me);
                                while let Ok(more) = out_rx.try_recv() {
                                    stage_msg(more, &mut per_peer, me);
                                }
                                if let Err(e) = fs.flush(per_peer) {
                                    failure = Some(e);
                                    break;
                                }
                            }
                            (
                                fs.logical_bits(),
                                fs.frames(),
                                fs.coalesced_items(),
                                failure,
                            )
                        }
                    });

                    // Stage: router. Demultiplexes incoming frames by
                    // (lane, step) and completes exchange sets in any
                    // arrival order. Exits (dropping the inboxes, which
                    // unblocks every parked worker) once all expected
                    // sets are delivered or the network goes silent.
                    let router = ps.spawn(move |_| -> Option<TransportError> {
                        let mut fr = FrameReceiver::new(net_rx, config.pacing);
                        let mut outstanding: u64 = steps.iter().map(|&n| n as u64).sum();
                        let mut waiting: HashMap<(u32, u32), Vec<(usize, PackedBatch)>> =
                            HashMap::new();
                        while outstanding > 0 {
                            let (from, arrived) = match fr.recv(config.recv_timeout) {
                                Ok(v) => v,
                                Err(e) => return Some(e),
                            };
                            for item in arrived {
                                let key = (item.lane, item.step);
                                let set = waiting
                                    .entry(key)
                                    .or_insert_with(|| Vec::with_capacity(parties - 1));
                                set.push((from, item.batch));
                                if set.len() == parties - 1 {
                                    let set = waiting.remove(&key).expect("just filled");
                                    if inbox_txs[key.0 as usize].send((key.1, set)).is_err() {
                                        // The owning worker unwound.
                                        return Some(TransportError::Disconnected);
                                    }
                                    outstanding -= 1;
                                }
                            }
                        }
                        None
                    });

                    // Stage: lane workers.
                    for _ in 0..workers {
                        ps.spawn({
                            let out_tx = out_tx.clone();
                            let ready_rx = ready_rx.clone();
                            let inbox_rxs = &inbox_rxs;
                            let lane_outputs = &lane_outputs;
                            let first_error = &first_error;
                            let occupancy = &occupancy;
                            let tracer = tracer.clone();
                            move |_| {
                                while let Ok(lane_idx) = ready_rx.recv() {
                                    let in_flight = occupancy.fetch_add(1, Ordering::Relaxed) + 1;
                                    metrics.lane_occupancy.record(in_flight);
                                    let mut lane_span = tracer.child(pctx, "mpc.lane");
                                    lane_span.set_payload(lane_idx as u64);
                                    let outcome = run_lane(
                                        lane_idx,
                                        me,
                                        &lanes[lane_idx],
                                        &scheds[lane_idx],
                                        &triple_rxs[me][lane_idx],
                                        &out_tx,
                                        &inbox_rxs[lane_idx],
                                        metrics,
                                    );
                                    drop(lane_span);
                                    occupancy.fetch_sub(1, Ordering::Relaxed);
                                    match outcome {
                                        Ok(out) => {
                                            lane_outputs.lock().expect("poisoned")[lane_idx] =
                                                Some(out);
                                            if me == 0 {
                                                metrics.lanes.inc();
                                            }
                                        }
                                        Err(e) => {
                                            first_error.lock().expect("poisoned").get_or_insert(e);
                                            break;
                                        }
                                    }
                                }
                            }
                        });
                    }
                    drop(out_tx);
                    drop(out_rx);

                    let (bits, frames, items, send_failure) =
                        sender.join().expect("sender stage panicked");
                    let route_failure = router.join().expect("router stage panicked");
                    if let Some(e) = send_failure.or(route_failure) {
                        first_error.lock().expect("poisoned").get_or_insert(e);
                    }
                    (bits, frames, items)
                })
                .expect("party stage scope failed");

                PartyOutcome {
                    lane_outputs: lane_outputs.into_inner().expect("poisoned"),
                    bits,
                    frames,
                    items,
                    error: first_error.into_inner().expect("poisoned"),
                }
            }
        });
        drop(triple_rxs);
        (results, counters)
    })
    .expect("pipeline scope failed");
    let (mut results, counters) = outcomes;

    if let Some(e) = results.iter_mut().find_map(|o| o.error.take()) {
        return Err(e);
    }
    let bits_sent: u64 = results.iter().map(|o| o.bits).sum();
    let frames: u64 = results.iter().map(|o| o.frames).sum();
    let items: u64 = results.iter().map(|o| o.items).sum();
    metrics.frames.add(frames);
    metrics.lane_items.add(items);
    debug_assert_eq!(
        bits_sent,
        lane_reports.iter().map(|r| r.bits_sent).sum::<u64>(),
        "measured logical bits disagree with the circuit-structure formula"
    );

    let outputs = (0..lanes.len())
        .map(|lane_idx| {
            agreed_outputs(results.iter_mut().map(|party| {
                party.lane_outputs[lane_idx]
                    .take()
                    .unwrap_or_else(|| panic!("lane {lane_idx} finished without outputs"))
            }))
        })
        .collect();

    let report = PipelineReport {
        parties,
        lanes: lanes.len(),
        workers,
        messages: counters.messages(),
        bytes: counters.bytes(),
        bits_sent,
        coalesced_items: items,
        lane_reports,
    };
    Ok((outputs, report))
}

/// Drives one lane's party to completion on a worker thread: the same
/// "advance → send → absorb" loop as `run_party`, with the send handed
/// to the coalescing stage and the receive parked on the lane's inbox.
#[allow(clippy::too_many_arguments)]
fn run_lane(
    lane_idx: usize,
    me: usize,
    lane: &LaneSpec<'_>,
    sched: &Schedule,
    triples: &crossbeam::channel::Receiver<eppi_mpc::gmw_core::LayerTriples>,
    out_tx: &crossbeam::channel::Sender<OutMsg>,
    inbox: &crossbeam::channel::Receiver<(u32, Vec<(usize, PackedBatch)>)>,
    metrics: &PipelineMetrics,
) -> Result<Vec<bool>, TransportError> {
    let mut rng = StdRng::seed_from_u64(lane.seed ^ (me as u64).wrapping_mul(PARTY_SALT));
    let mut core = PartyCore::new_streaming(
        lane.circuit,
        lane.layout,
        sched,
        me,
        ChannelTriples::new(triples.clone()),
    );
    let mut step = 0u32;
    loop {
        let batches = match core.advance(|core| core.share_inputs(&lane.inputs[me], &mut rng)) {
            StageOutput::Done(out) => {
                let stats = core.triple_stats();
                metrics.triple_stall_ns.record(stats.triple_stall_ns);
                if let Some(mean) = stats.triple_buffered_sum.checked_div(stats.triple_pulls) {
                    metrics.triple_buffer.record(mean);
                }
                return Ok(out);
            }
            StageOutput::Scatter(batches) => batches,
            StageOutput::Broadcast(batch) => vec![batch; lane.layout.parties()],
        };
        let msg = OutMsg {
            lane: lane_idx as u32,
            step,
            batches,
        };
        out_tx.send(msg).map_err(|_| TransportError::Disconnected)?;
        let parked = Instant::now();
        let (got_step, peers) = inbox.recv().map_err(|_| TransportError::Disconnected)?;
        metrics
            .exchange_stall_ns
            .record(parked.elapsed().as_nanos() as u64);
        assert_eq!(got_step, step, "lane {lane_idx} exchange out of step");
        core.absorb(&peers);
        step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded_gmw::execute_threaded;
    use eppi_mpc::builder::{to_bits, CircuitBuilder};
    use rand::Rng;

    fn sum_lt_circuit(width: usize) -> (Circuit, InputLayout) {
        let mut cb = CircuitBuilder::new();
        let a = cb.input_word(width);
        let b = cb.input_word(width);
        let c = cb.input_word(width);
        let sum = cb.add_words_expand(&a, &b);
        let c_wide = cb.resize_word(&c, width + 1);
        let lt = cb.lt_words(&sum, &c_wide);
        let circuit = cb.finish(vec![lt]);
        (circuit, InputLayout::new(vec![width, width, width]))
    }

    #[test]
    fn pipelined_lanes_match_the_lockstep_oracle() {
        let (circuit, layout) = sum_lt_circuit(6);
        let mut rng = StdRng::seed_from_u64(11);
        let lane_inputs: Vec<Vec<Vec<bool>>> = (0..5)
            .map(|_| (0..3).map(|_| to_bits(rng.gen_range(0..64), 6)).collect())
            .collect();
        let lanes: Vec<LaneSpec<'_>> = lane_inputs
            .iter()
            .enumerate()
            .map(|(i, inputs)| LaneSpec {
                circuit: &circuit,
                layout: &layout,
                inputs,
                seed: 900 + i as u64,
            })
            .collect();

        let (outputs, report) =
            execute_pipelined(&lanes, &PipelineConfig::with_workers(3)).unwrap();
        assert_eq!(outputs.len(), 5);
        for (i, inputs) in lane_inputs.iter().enumerate() {
            let (oracle, oracle_report) =
                execute_threaded(&circuit, &layout, inputs, 900 + i as u64);
            assert_eq!(outputs[i], oracle, "lane {i} diverged from the oracle");
            assert_eq!(report.lane_reports[i].rounds, oracle_report.rounds);
            assert_eq!(report.lane_reports[i].bits_sent, oracle_report.bits_sent);
        }
        // Coalescing: the wire saw fewer messages than lane items.
        assert_eq!(
            report.bits_sent,
            5 * eppi_mpc::gmw_core::logical_bits(&circuit, &layout)
        );
        assert!(report.messages <= report.coalesced_items);
    }

    #[test]
    fn sequential_baseline_matches_and_counts_one_item_per_message() {
        let (circuit, layout) = sum_lt_circuit(5);
        let inputs = vec![to_bits(9, 5), to_bits(20, 5), to_bits(31, 5)];
        let lanes = [
            LaneSpec {
                circuit: &circuit,
                layout: &layout,
                inputs: &inputs,
                seed: 44,
            },
            LaneSpec {
                circuit: &circuit,
                layout: &layout,
                inputs: &inputs,
                seed: 45,
            },
        ];
        let (pipe_out, pipe_report) =
            execute_pipelined(&lanes, &PipelineConfig::default()).unwrap();
        // The lockstep oracle, one lane after another: one item per
        // message, nothing coalesces.
        let mut seq_messages = 0;
        let mut seq_bits = 0;
        for (lane, out) in lanes.iter().zip(&pipe_out) {
            let (oracle, stats) = execute_threaded(&circuit, &layout, &inputs, lane.seed);
            assert_eq!(out, &oracle);
            seq_messages += stats.messages;
            seq_bits += stats.bits_sent;
        }
        assert_eq!(seq_bits, pipe_report.bits_sent);
        // The pipeline coalesces, the baseline cannot.
        assert!(pipe_report.messages <= seq_messages);
    }

    #[test]
    fn empty_lane_list_is_a_noop() {
        let (outputs, report) = execute_pipelined(&[], &PipelineConfig::default()).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(report.lanes, 0);
    }

    #[test]
    fn paced_pipeline_overlaps_lane_round_trips() {
        // With a paced link, 4 lanes × 4 workers should take far less
        // than 4× one lane's serial latency budget. Keep the margin
        // loose: this is a correctness-of-overlap check, not a bench.
        let (circuit, layout) = sum_lt_circuit(4);
        let mut rng = StdRng::seed_from_u64(3);
        let lane_inputs: Vec<Vec<Vec<bool>>> = (0..4)
            .map(|_| (0..3).map(|_| to_bits(rng.gen_range(0..16), 4)).collect())
            .collect();
        let lanes: Vec<LaneSpec<'_>> = lane_inputs
            .iter()
            .enumerate()
            .map(|(i, inputs)| LaneSpec {
                circuit: &circuit,
                layout: &layout,
                inputs,
                seed: 70 + i as u64,
            })
            .collect();
        let latency = Duration::from_millis(2);
        let pacing = Some(LinkPacing { latency });

        let started = Instant::now();
        let config = PipelineConfig {
            workers: 4,
            pacing,
            ..PipelineConfig::default()
        };
        let (outputs, report) = execute_pipelined(&lanes, &config).unwrap();
        let pipelined = started.elapsed();
        let rounds = report.lane_reports[0].rounds as u32;

        for (i, inputs) in lane_inputs.iter().enumerate() {
            let (oracle, _) = execute_threaded(&circuit, &layout, inputs, 70 + i as u64);
            assert_eq!(outputs[i], oracle);
        }
        // Serial would cost ≥ lanes × rounds × latency; overlapped
        // should stay well under that (allow 3× headroom for the
        // single-core box this runs on).
        let serial_floor = latency * rounds * 4;
        assert!(
            pipelined < serial_floor,
            "no overlap: {pipelined:?} ≥ {serial_floor:?}"
        );
    }
}
