//! # eppi-net — provider-network runtime for the ε-PPI construction
//!
//! The paper evaluates its construction protocol on an Emulab testbed of
//! physical machines connected over a LAN (Netty + protocol buffers).
//! This crate is the substitution (DESIGN.md §4): one party network,
//! the [`transport::Transport`] trait, through which SecSumShare and the
//! packed GMW core (`eppi-mpc::gmw_core`) send every message.
//!
//! * [`transport`] — the [`transport::Transport`] trait, generic over
//!   its payload: in each exchange a party deposits its messages to the
//!   parties it names, then collects exactly one message from each party
//!   it expects one from. Two implementations: the one lockstep
//!   in-process hub, which also prices each exchange in simulated time
//!   under a [`sim::LinkModel`], and the thread-backed transport.
//! * [`sim`] — the [`sim::LinkModel`] that prices simulated time, and
//!   SecSumShare's traffic record [`sim::NetStats`].
//! * [`threaded`] — real multi-threaded party execution (one scoped
//!   thread per party, crossbeam channels) for the GMW coordinators of
//!   the wall-clock measurements (Fig. 6a/6c). [`threaded::run_parties`]
//!   is the only place the protocol crates start a thread: SecSumShare's
//!   providers never wait on each other within an exchange, so they run
//!   on the caller's thread on every backend.
//! * [`topology`] — ring successor maps and coordinator selection used by
//!   the SecSumShare share-distribution step (Fig. 3).
//! * [`traced`] — a [`transport::Transport`] decorator emitting one
//!   causal span per protocol exchange (DESIGN.md §13), so MPC rounds
//!   show up in `eppi-trace` span trees.
//!
//! ## Traffic-accounting convention
//!
//! Every traffic report in the workspace exposes the same two units,
//! measured per message and summed over all parties:
//!
//! * **`bits`** (`bits_sent` on the GMW reports) — *logical payload
//!   bits*: the number of protocol-level share bits a message carries,
//!   reported through [`WireSize::logical_bits`].
//!   This is the quantity the paper's cost model counts (one bit per
//!   party per peer per opened share), independent of framing, and is
//!   what makes the `O(gates · parties²)` growth of the pure-MPC
//!   baseline visible.
//! * **`bytes`** — *on-the-wire bytes* of the encoding actually
//!   exchanged, reported through [`WireSize`]. Packed GMW batches
//!   ([`transport::PackedBatch`]) frame 64 share bits per `u64` word
//!   plus a 4-byte length header, so `bytes` is roughly `bits / 8`
//!   rounded up to whole words — never compute one unit from the other;
//!   both are counted at the send site.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod sim;
pub mod threaded;
pub mod topology;
pub mod traced;
pub mod transport;

use std::fmt;

/// Identifier of a network node (a provider or coordinator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The dense node index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Serialized size of a protocol payload, for bandwidth accounting.
///
/// The transports never actually serialize messages; payload types
/// report the size their wire encoding would have (the paper's prototype
/// used protocol buffers — we count the equivalent fixed-width encoding).
pub trait WireSize {
    /// The payload's size in bytes on the wire.
    fn wire_size(&self) -> usize;

    /// The logical payload bits the message carries (see the crate
    /// docs); 0 for payloads that are accounted in bytes only.
    fn logical_bits(&self) -> u64 {
        0
    }
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for u32 {
    fn wire_size(&self) -> usize {
        4
    }
}

impl WireSize for bool {
    fn wire_size(&self) -> usize {
        1
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_size(&self) -> usize {
        self.iter().map(WireSize::wire_size).sum::<usize>() + 4
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_size(&self) -> usize {
        1 + self.as_ref().map_or(0, WireSize::wire_size)
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_size(&self) -> usize {
        self.0.wire_size() + self.1.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(7u64.wire_size(), 8);
        assert_eq!(7u32.wire_size(), 4);
        assert_eq!(true.wire_size(), 1);
        assert_eq!(vec![1u64, 2, 3].wire_size(), 28);
        assert_eq!(Some(1u64).wire_size(), 9);
        assert_eq!(None::<u64>.wire_size(), 1);
        assert_eq!((1u64, vec![true, false]).wire_size(), 8 + 6);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(NodeId(4).index(), 4);
    }
}
