//! # eppi-mpc — the secure-computation substrate of the ε-PPI reproduction
//!
//! The ε-PPI construction protocol (ICDCS 2014) relies on two secure
//! building blocks, both implemented here from scratch:
//!
//! * **(c, c) additive secret sharing** over `Z_q` with additive
//!   homomorphism ([`share`], [`field`]) — the cheap primitive that lets
//!   the SecSumShare protocol reduce an `m`-party secure sum to `c`
//!   coordinator shares (Theorem 4.1).
//! * **A generic Boolean-circuit MPC engine** ([`circuit`], [`builder`],
//!   [`gmw`]) — the stand-in for FairplayMP: circuits are built with
//!   word-level combinators and evaluated under a GMW-style
//!   XOR-secret-shared protocol with Beaver AND-triples, with full
//!   communication accounting (rounds, bits, messages). The protocol
//!   itself lives in one place, [`gmw_core`]: a bit-packed ([`packed`],
//!   64 wires per `u64` word) sans-io party state machine that every
//!   execution backend — in-process ([`gmw`]), round-simulated,
//!   threaded and pipelined (`eppi-protocol`) — drives through a
//!   transport (`eppi_net::transport::Transport`). Packed GMW is the
//!   only engine: the crate carries no second protocol (Yao,
//!   arithmetic circuits, OT) that no construction path calls.
//!
//! The ε-PPI domain circuits (CountBelow of Algorithm 2, the
//! mix-decision pass, and the whole-construction *pure MPC* baseline)
//! are compiled in [`circuits`].
//!
//! ## Example: a secure two-party comparison
//!
//! ```
//! use eppi_mpc::builder::{to_bits, CircuitBuilder};
//! use eppi_mpc::circuit::InputLayout;
//! use eppi_mpc::gmw::execute;
//! use rand::SeedableRng;
//!
//! let mut cb = CircuitBuilder::new();
//! let a = cb.input_word(8);
//! let b = cb.input_word(8);
//! let lt = cb.lt_words(&a, &b);
//! let circuit = cb.finish(vec![lt]);
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layout = InputLayout::new(vec![8, 8]);
//! let (out, stats) = execute(&circuit, &layout, &[to_bits(3, 8), to_bits(9, 8)], &mut rng);
//! assert!(out[0]); // 3 < 9, revealed; the operands were never exchanged.
//! assert!(stats.bits_sent > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builder;
pub mod circuit;
pub mod circuits;
pub mod field;
pub mod gmw;
pub mod gmw_core;
pub mod packed;
pub mod share;
pub mod stage;

pub use circuit::{Circuit, CircuitStats, Gate, InputLayout, WireId};
pub use circuits::{
    CountBelowCircuit, FixedPoint, MixDecisionCircuit, NaiveConstructionCircuit,
    PureConstructionCircuit,
};
pub use field::Modulus;
pub use gmw::{execute, GmwStats};
pub use gmw_core::{PartyCore, Schedule};
pub use packed::PackedBits;
pub use share::{add_shares, recombine, split, Shares};
pub use stage::{ChannelTriples, StageOutput};
