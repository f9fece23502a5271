//! Simulated network time.
//!
//! A [`LinkModel`] converts one exchange's traffic into simulated time,
//! standing in for the paper's Emulab LAN: the lockstep hub
//! ([`crate::transport::InProcessTransport::simulated_us`]) prices each
//! exchange as one round of its busiest sender's bytes. [`NetStats`] is
//! the traffic record of one SecSumShare run.

/// Link parameters used to convert traffic into simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way message latency in microseconds (applies once per round,
    /// since all messages of a round travel in parallel).
    pub latency_us: f64,
    /// Link bandwidth in bytes per microsecond (per node).
    pub bandwidth_bytes_per_us: f64,
}

impl LinkModel {
    /// A LAN-like default: 200 µs latency, 125 bytes/µs (≈ 1 Gb/s).
    pub const LAN: LinkModel = LinkModel {
        latency_us: 200.0,
        bandwidth_bytes_per_us: 125.0,
    };

    /// A WAN-like profile: 40 ms latency, 12.5 bytes/µs (≈ 100 Mb/s) —
    /// hospitals across a state network rather than one machine room.
    pub const WAN: LinkModel = LinkModel {
        latency_us: 40_000.0,
        bandwidth_bytes_per_us: 12.5,
    };

    /// Simulated time for one round in which the busiest node sent
    /// `max_bytes_per_node` bytes.
    pub fn round_time_us(&self, max_bytes_per_node: usize) -> f64 {
        self.latency_us + max_bytes_per_node as f64 / self.bandwidth_bytes_per_us
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel::LAN
    }
}

/// Traffic statistics of one SecSumShare run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetStats {
    /// Exchanges (protocol rounds) run.
    pub rounds: usize,
    /// Total messages sent, self-sends included.
    pub messages: u64,
    /// Total payload bytes sent ([`crate::WireSize`] of every message).
    pub bytes: u64,
    /// Simulated wall time in microseconds under the link model (0 on
    /// the threaded runtime, which measures real wall clock).
    pub simulated_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_travels_the_ring() {
        // Party 0 starts a token; each holder passes it on, incremented,
        // to its successor until it reaches 8: one point-to-point
        // message per exchange, every other party depositing nothing.
        use crate::transport::{InProcessTransport, Transport};
        let n = 4;
        let mut hub = InProcessTransport::<u64>::hub(n);
        let mut seen = vec![Vec::new(); n];
        let (mut holder, mut token) = (0, 0);
        while token < 8 {
            let next = (holder + 1) % n;
            for (p, t) in hub.iter_mut().enumerate() {
                let out = if p == holder {
                    vec![(next, token + 1)]
                } else {
                    Vec::new()
                };
                t.deposit(out);
            }
            for (p, t) in hub.iter_mut().enumerate() {
                let from: &[usize] = if p == next { &[holder] } else { &[] };
                for (_, v) in t.collect_from(from) {
                    seen[p].push(v);
                    token = v;
                }
            }
            holder = next;
        }
        let report = hub[0].report();
        assert_eq!(
            (report.rounds, report.messages, report.bytes),
            (8, 8, 8 * 8)
        );
        let priced = (0..8).fold(0.0, |us, _| us + LinkModel::LAN.round_time_us(8));
        assert_eq!(hub[0].simulated_us(LinkModel::LAN), priced);
        // Node 1 saw tokens 1 and 5.
        assert_eq!(seen[1], vec![1, 5]);
    }

    #[test]
    fn link_model_time() {
        let link = LinkModel {
            latency_us: 100.0,
            bandwidth_bytes_per_us: 10.0,
        };
        assert!((link.round_time_us(1000) - 200.0).abs() < 1e-9);
    }
}
