//! Lane framing, per-peer send coalescing and link pacing for the
//! pipelined MPC runtime.
//!
//! The pipelined driver (`eppi_protocol::pipelined_gmw`) runs many
//! independent circuit *lanes* concurrently over one threaded network.
//! Naively that multiplies the message count by the lane count; real
//! deployments instead write one frame per peer per flush, carrying
//! every lane's due batch. This module is that wire layer:
//!
//! * [`LaneItem`] — one lane's batch for one exchange step, tagged with
//!   `(lane, step)` so the receiver can demultiplex regardless of
//!   arrival interleaving.
//! * [`Frame`] — one framed write to one peer: all items headed there
//!   in this flush, stamped with its send time so a paced link can
//!   honour an *absolute* delivery deadline (receiver-side processing
//!   does not serialize the latencies).
//! * [`FrameSender`] — the coalescing writer: one
//!   [`PartySender::send_checked`] per peer per flush, counted as one
//!   message in the run's [`TrafficCounters`](crate::threaded::TrafficCounters)
//!   (that is the coalescing win), while the logical payload **bits**
//!   of every item are tallied per peer, keeping the workspace's
//!   bits/bytes accounting convention intact.
//! * [`FrameReceiver`] — the paced reader feeding a router thread.
//! * [`PipelineMetrics`] — the `mpc.pipeline.*` telemetry instruments
//!   (lane occupancy, stage stall time, triple-buffer depth).

use crate::threaded::{PartyReceiver, PartySender, TransportError};
use crate::transport::PackedBatch;
use crate::{NodeId, WireSize};
use eppi_telemetry::{Counter, Histogram, Registry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One lane's batch for one exchange step.
#[derive(Debug, Clone)]
pub struct LaneItem {
    /// Which pipeline lane the batch belongs to.
    pub lane: u32,
    /// The lane's exchange step number (0-based, deterministic in the
    /// circuit structure).
    pub step: u32,
    /// The packed payload of the step.
    pub batch: PackedBatch,
}

impl WireSize for LaneItem {
    fn wire_size(&self) -> usize {
        // 4-byte lane + 4-byte step headers plus the framed batch.
        8 + self.batch.wire_size()
    }
}

/// One framed write to one peer: every [`LaneItem`] headed there in
/// this flush.
#[derive(Debug, Clone)]
pub struct Frame {
    /// When the frame was written — the base of the paced link's
    /// absolute delivery deadline. Not part of the wire encoding.
    pub sent_at: Instant,
    /// The coalesced lane items.
    pub items: Vec<LaneItem>,
}

impl WireSize for Frame {
    fn wire_size(&self) -> usize {
        // 4-byte item count plus the items.
        4 + self.items.iter().map(WireSize::wire_size).sum::<usize>()
    }
}

/// Emulated per-frame link latency.
///
/// The in-process channels deliver instantly; real provider networks do
/// not, and the pipeline exists precisely to keep multiple lanes' round
/// trips in flight at once. Pacing waits until `sent_at + latency` —
/// an *absolute* deadline, so a receiver that processes several frames
/// back-to-back pays the latency once, not once per frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkPacing {
    /// One-way frame delivery latency.
    pub latency: Duration,
}

impl LinkPacing {
    /// Blocks until the delivery deadline of a frame sent at `sent_at`.
    pub fn wait_for(&self, sent_at: Instant) {
        let deadline = sent_at + self.latency;
        let now = Instant::now();
        if deadline > now {
            std::thread::sleep(deadline - now);
        }
    }
}

/// The per-party coalescing frame writer.
#[derive(Debug)]
pub struct FrameSender {
    tx: PartySender<Frame>,
    bits: u64,
    frames: u64,
    items: u64,
}

impl FrameSender {
    /// Wraps the sending half of a party's endpoint.
    pub fn new(tx: PartySender<Frame>) -> Self {
        FrameSender {
            tx,
            bits: 0,
            frames: 0,
            items: 0,
        }
    }

    /// This party's id.
    pub fn me(&self) -> usize {
        self.tx.me().index()
    }

    /// Number of parties in the network.
    pub fn parties(&self) -> usize {
        self.tx.parties()
    }

    /// Writes one frame per peer carrying that peer's due items
    /// (`per_peer` is indexed by destination; the own slot and empty
    /// slots are skipped). All frames of a flush share one send
    /// timestamp.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] if a peer's receiving half is
    /// gone (it failed and unwound).
    pub fn flush(&mut self, mut per_peer: Vec<Vec<LaneItem>>) -> Result<(), TransportError> {
        let now = Instant::now();
        let me = self.me();
        for (to, items) in per_peer.drain(..).enumerate() {
            if to == me || items.is_empty() {
                continue;
            }
            self.bits += items.iter().map(|i| i.batch.bits as u64).sum::<u64>();
            self.items += items.len() as u64;
            self.frames += 1;
            self.tx.send_checked(
                NodeId(to),
                Frame {
                    sent_at: now,
                    items,
                },
            )?;
        }
        Ok(())
    }

    /// Logical payload bits written so far (per item per peer).
    pub fn logical_bits(&self) -> u64 {
        self.bits
    }

    /// Frames written so far (= messages on the wire).
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Lane items coalesced into those frames.
    pub fn coalesced_items(&self) -> u64 {
        self.items
    }
}

/// The per-party paced frame reader (what a router thread drains).
#[derive(Debug)]
pub struct FrameReceiver {
    rx: PartyReceiver<Frame>,
    pacing: Option<LinkPacing>,
}

impl FrameReceiver {
    /// Wraps the receiving half, optionally behind an emulated link.
    pub fn new(rx: PartyReceiver<Frame>, pacing: Option<LinkPacing>) -> Self {
        FrameReceiver { rx, pacing }
    }

    /// This party's id.
    pub fn me(&self) -> usize {
        self.rx.me().index()
    }

    /// Receives the next frame, honouring its pacing deadline.
    ///
    /// # Errors
    ///
    /// [`TransportError`] when the network is silent past `timeout` or
    /// fully disconnected.
    pub fn recv(&mut self, timeout: Duration) -> Result<(usize, Vec<LaneItem>), TransportError> {
        let (from, frame) = self.rx.recv_timeout(timeout)?;
        if let Some(pacing) = self.pacing {
            pacing.wait_for(frame.sent_at);
        }
        Ok((from.index(), frame.items))
    }
}

/// The `mpc.pipeline.*` telemetry instruments of one pipelined run.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// `mpc.pipeline.lanes` — lanes completed.
    pub lanes: Arc<Counter>,
    /// `mpc.pipeline.frames` — coalesced frames written.
    pub frames: Arc<Counter>,
    /// `mpc.pipeline.lane_items` — lane items carried by those frames
    /// (items ÷ frames = the coalescing factor).
    pub lane_items: Arc<Counter>,
    /// `mpc.pipeline.lane_occupancy` — lanes in flight on this party,
    /// sampled when a worker picks a lane up.
    pub lane_occupancy: Arc<Histogram>,
    /// `mpc.pipeline.exchange_stall_ns` — per exchange, how long a
    /// worker sat parked waiting for the peers' batches.
    pub exchange_stall_ns: Arc<Histogram>,
    /// `mpc.pipeline.triple_stall_ns` — per lane, how long it waited on
    /// the streaming triple dealer.
    pub triple_stall_ns: Arc<Histogram>,
    /// `mpc.pipeline.triple_buffer` — dealer lead in buffered levels,
    /// sampled at every pull.
    pub triple_buffer: Arc<Histogram>,
}

impl PipelineMetrics {
    /// Registers (or re-binds) the instrument family in `registry`.
    pub fn register(registry: &Registry) -> Self {
        PipelineMetrics {
            lanes: registry.counter("mpc.pipeline.lanes", &[]),
            frames: registry.counter("mpc.pipeline.frames", &[]),
            lane_items: registry.counter("mpc.pipeline.lane_items", &[]),
            lane_occupancy: registry.histogram("mpc.pipeline.lane_occupancy", &[]),
            exchange_stall_ns: registry.histogram("mpc.pipeline.exchange_stall_ns", &[]),
            triple_stall_ns: registry.histogram("mpc.pipeline.triple_stall_ns", &[]),
            triple_buffer: registry.histogram("mpc.pipeline.triple_buffer", &[]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_parties;

    fn batch(v: u64, bits: usize) -> PackedBatch {
        PackedBatch {
            words: vec![v],
            bits,
        }
    }

    #[test]
    fn coalesced_flush_is_one_message_per_peer() {
        let (results, counters) = run_parties::<Frame, (u64, u64, u64), _>(3, |h| {
            let me = h.me().index();
            let (tx, rx) = h.split();
            let mut sender = FrameSender::new(tx);
            // Every party flushes 4 lane items to each peer in one go.
            let per_peer: Vec<Vec<LaneItem>> = (0..3)
                .map(|to| {
                    if to == me {
                        return Vec::new();
                    }
                    (0..4u32)
                        .map(|lane| LaneItem {
                            lane,
                            step: 0,
                            batch: batch(lane as u64, 10),
                        })
                        .collect()
                })
                .collect();
            sender.flush(per_peer).unwrap();
            let mut receiver = FrameReceiver::new(rx, None);
            let mut items = 0u64;
            for _ in 0..2 {
                let (_, got) = receiver.recv(Duration::from_secs(5)).unwrap();
                items += got.len() as u64;
            }
            (sender.frames(), sender.logical_bits(), items)
        });
        for (frames, bits, items) in &results {
            // 2 peers × 1 frame each, carrying 4 items × 10 bits.
            assert_eq!(*frames, 2);
            assert_eq!(*bits, 2 * 4 * 10);
            assert_eq!(*items, 2 * 4);
        }
        // The wire saw 1 message per peer per party — not 4.
        assert_eq!(counters.messages(), 3 * 2);
    }

    #[test]
    fn paced_delivery_honours_absolute_deadlines() {
        let latency = Duration::from_millis(20);
        let both_started = std::sync::Barrier::new(2);
        let (results, _) = run_parties::<Frame, Duration, _>(2, |h| {
            let me = h.me().index();
            let (tx, rx) = h.split();
            let mut sender = FrameSender::new(tx);
            let mut per_peer = vec![Vec::new(); 2];
            // Deadlines count from the *peer's* `sent_at`, so the clock
            // must be running before the peer's first send: start it,
            // then hold both parties until both clocks run (a party
            // whose thread came up late otherwise reads a hair under
            // one latency).
            let started = Instant::now();
            both_started.wait();
            // 3 frames back-to-back (separate flushes).
            for step in 0..3u32 {
                per_peer[1 - me] = vec![LaneItem {
                    lane: 0,
                    step,
                    batch: batch(step as u64, 8),
                }];
                sender.flush(per_peer.clone()).unwrap();
            }
            let mut receiver = FrameReceiver::new(rx, Some(LinkPacing { latency }));
            for _ in 0..3 {
                receiver.recv(Duration::from_secs(5)).unwrap();
            }
            started.elapsed()
        });
        for elapsed in &results {
            // Absolute deadlines: ~1 latency total, nowhere near 3.
            assert!(
                *elapsed >= latency && *elapsed < 3 * latency,
                "elapsed {elapsed:?}"
            );
        }
    }

    #[test]
    fn frame_wire_size_counts_headers_and_items() {
        let frame = Frame {
            sent_at: Instant::now(),
            items: vec![
                LaneItem {
                    lane: 0,
                    step: 1,
                    batch: batch(7, 3),
                },
                LaneItem {
                    lane: 9,
                    step: 2,
                    batch: PackedBatch::empty(),
                },
            ],
        };
        // 4 (count) + [8 + (4 + 8)] + [8 + 4].
        assert_eq!(frame.wire_size(), 4 + 20 + 12);
    }
}
