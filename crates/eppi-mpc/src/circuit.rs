//! Boolean circuit intermediate representation.
//!
//! The generic-MPC stage of the ε-PPI construction (CountBelow, Alg. 2)
//! is compiled to a Boolean circuit, as in the paper's FairplayMP
//! implementation. The circuit's *size* is the paper's scalability metric
//! (Fig. 6b): it "determines the execution time in real runs".
//!
//! Wires are numbered densely: wires `0..inputs` are circuit inputs; the
//! wire produced by gate `k` is `inputs + k`. Gates may only reference
//! lower-numbered wires, so the gate list is topologically ordered by
//! construction.

use std::fmt;

/// Identifier of a circuit wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WireId(pub u32);

impl WireId {
    /// The wire's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for WireId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// A Boolean gate. `Xor`/`Not`/`Const` are "free" under GMW-style
/// secret-shared evaluation; `And` costs one multiplication triple and
/// one communication round (amortized per layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Exclusive-or of two wires.
    Xor(WireId, WireId),
    /// Conjunction of two wires (the expensive gate).
    And(WireId, WireId),
    /// Negation of a wire.
    Not(WireId),
    /// A constant bit.
    Const(bool),
}

/// Size and depth statistics of a circuit.
///
/// `total_gates` is the paper's *circuit size*; `and_depth` is the number
/// of sequential communication rounds a GMW-style evaluation needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of input wires.
    pub inputs: usize,
    /// Number of output wires.
    pub outputs: usize,
    /// Total gate count (the paper's circuit-size metric).
    pub total_gates: usize,
    /// AND gates (each consumes a Beaver triple).
    pub and_gates: usize,
    /// XOR gates (free).
    pub xor_gates: usize,
    /// NOT gates (free).
    pub not_gates: usize,
    /// Constant gates (free).
    pub const_gates: usize,
    /// Longest path through the circuit, in gates.
    pub depth: usize,
    /// Longest path counting only AND gates (communication rounds).
    pub and_depth: usize,
}

impl CircuitStats {
    /// The combined figure of two circuits evaluated as one stage:
    /// wire and gate counts sum, depths take the maximum.
    #[must_use]
    pub fn merge(self, other: CircuitStats) -> CircuitStats {
        CircuitStats {
            inputs: self.inputs + other.inputs,
            outputs: self.outputs + other.outputs,
            total_gates: self.total_gates + other.total_gates,
            and_gates: self.and_gates + other.and_gates,
            xor_gates: self.xor_gates + other.xor_gates,
            not_gates: self.not_gates + other.not_gates,
            const_gates: self.const_gates + other.const_gates,
            depth: self.depth.max(other.depth),
            and_depth: self.and_depth.max(other.and_depth),
        }
    }
}

/// An immutable Boolean circuit.
///
/// Build one with [`crate::builder::CircuitBuilder`]; evaluate it in
/// cleartext with [`eval`](Circuit::eval) (the testing reference) or
/// under MPC with [`crate::gmw::execute`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<WireId>,
}

impl Circuit {
    /// Assembles a circuit.
    ///
    /// # Panics
    ///
    /// Panics if any gate or output references a wire that does not exist
    /// or (for gates) is not strictly lower-numbered.
    pub fn new(inputs: usize, gates: Vec<Gate>, outputs: Vec<WireId>) -> Self {
        for (k, gate) in gates.iter().enumerate() {
            let this = inputs + k;
            let check = |w: WireId| {
                assert!(
                    w.index() < this,
                    "gate {k} references wire {w} ≥ its own wire w{this}"
                );
            };
            match *gate {
                Gate::Xor(a, b) | Gate::And(a, b) => {
                    check(a);
                    check(b);
                }
                Gate::Not(a) => check(a),
                Gate::Const(_) => {}
            }
        }
        let total = inputs + gates.len();
        for &o in &outputs {
            assert!(o.index() < total, "output references missing wire {o}");
        }
        Circuit {
            inputs,
            gates,
            outputs,
        }
    }

    /// Number of input wires.
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// The gate list, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output wires.
    pub fn outputs(&self) -> &[WireId] {
        &self.outputs
    }

    /// Total number of wires (inputs + gates).
    pub fn wires(&self) -> usize {
        self.inputs + self.gates.len()
    }

    /// Evaluates the circuit in cleartext — the correctness reference for
    /// the MPC evaluator.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the circuit's input count.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.inputs, "wrong number of inputs");
        let mut values = Vec::with_capacity(self.wires());
        values.extend_from_slice(inputs);
        for gate in &self.gates {
            let v = match *gate {
                Gate::Xor(a, b) => values[a.index()] ^ values[b.index()],
                Gate::And(a, b) => values[a.index()] & values[b.index()],
                Gate::Not(a) => !values[a.index()],
                Gate::Const(c) => c,
            };
            values.push(v);
        }
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Computes size and depth statistics.
    pub fn stats(&self) -> CircuitStats {
        let mut stats = CircuitStats {
            inputs: self.inputs,
            outputs: self.outputs.len(),
            total_gates: self.gates.len(),
            ..CircuitStats::default()
        };
        // depth[w]: (total depth, and depth) of the wire.
        let mut depth = vec![(0usize, 0usize); self.wires()];
        for (k, gate) in self.gates.iter().enumerate() {
            let this = self.inputs + k;
            let (d, ad) = match *gate {
                Gate::Xor(a, b) => {
                    stats.xor_gates += 1;
                    let (da, aa) = depth[a.index()];
                    let (db, ab) = depth[b.index()];
                    (da.max(db) + 1, aa.max(ab))
                }
                Gate::And(a, b) => {
                    stats.and_gates += 1;
                    let (da, aa) = depth[a.index()];
                    let (db, ab) = depth[b.index()];
                    (da.max(db) + 1, aa.max(ab) + 1)
                }
                Gate::Not(a) => {
                    stats.not_gates += 1;
                    let (da, aa) = depth[a.index()];
                    (da + 1, aa)
                }
                Gate::Const(_) => {
                    stats.const_gates += 1;
                    (1, 0)
                }
            };
            depth[this] = (d, ad);
            stats.depth = stats.depth.max(d);
            stats.and_depth = stats.and_depth.max(ad);
        }
        stats
    }

    /// Groups AND gates by their AND-depth layer; gates in the same layer
    /// can share one communication round under GMW. Returns, per layer,
    /// the gate indices (not wire ids) of its AND gates.
    ///
    /// This is a view of the one true scheduler,
    /// [`crate::gmw_core::Schedule`].
    pub fn and_layers(&self) -> Vec<Vec<usize>> {
        crate::gmw_core::Schedule::new(self).and_layer_gates()
    }
}

/// Assignment of a circuit's input wires to protocol parties.
///
/// Party `i` owns a contiguous block of input wires; blocks are laid out
/// in party order. This is the MPC analogue of FairplayMP's per-party
/// input declarations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputLayout {
    counts: Vec<usize>,
}

impl InputLayout {
    /// Creates a layout where party `i` owns `counts[i]` consecutive
    /// input wires.
    pub fn new(counts: Vec<usize>) -> Self {
        InputLayout { counts }
    }

    /// Number of parties.
    pub fn parties(&self) -> usize {
        self.counts.len()
    }

    /// Total number of input wires across all parties.
    pub fn total_inputs(&self) -> usize {
        self.counts.iter().sum()
    }

    /// The input-wire range `[start, start + len)` owned by `party`.
    pub fn range_of(&self, party: usize) -> std::ops::Range<usize> {
        let start: usize = self.counts[..party].iter().sum();
        start..start + self.counts[party]
    }

    /// The party owning input wire `wire`.
    ///
    /// # Panics
    ///
    /// Panics if `wire` exceeds the total input count.
    pub fn party_of(&self, wire: usize) -> usize {
        let mut acc = 0;
        for (party, &c) in self.counts.iter().enumerate() {
            acc += c;
            if wire < acc {
                return party;
            }
        }
        panic!("input wire {wire} beyond layout total {acc}");
    }

    /// Flattens per-party input bit vectors into the circuit's global
    /// input order.
    ///
    /// # Panics
    ///
    /// Panics if the number of parties or any party's bit count
    /// disagrees with the layout.
    pub fn flatten(&self, per_party: &[Vec<bool>]) -> Vec<bool> {
        assert_eq!(per_party.len(), self.parties(), "party count mismatch");
        let mut flat = Vec::with_capacity(self.total_inputs());
        for (party, bits) in per_party.iter().enumerate() {
            assert_eq!(
                bits.len(),
                self.counts[party],
                "party {party} supplied wrong input count"
            );
            flat.extend_from_slice(bits);
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xor(and(i0, i1), not(i2))
    fn sample_circuit() -> Circuit {
        Circuit::new(
            3,
            vec![
                Gate::And(WireId(0), WireId(1)),
                Gate::Not(WireId(2)),
                Gate::Xor(WireId(3), WireId(4)),
            ],
            vec![WireId(5)],
        )
    }

    #[test]
    fn eval_truth_table() {
        let c = sample_circuit();
        for a in [false, true] {
            for b in [false, true] {
                for d in [false, true] {
                    let out = c.eval(&[a, b, d]);
                    assert_eq!(out, vec![(a & b) ^ !d]);
                }
            }
        }
    }

    #[test]
    fn stats_counts_gate_kinds() {
        let c = sample_circuit();
        let s = c.stats();
        assert_eq!(s.inputs, 3);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.total_gates, 3);
        assert_eq!(s.and_gates, 1);
        assert_eq!(s.xor_gates, 1);
        assert_eq!(s.not_gates, 1);
        assert_eq!(s.depth, 2);
        assert_eq!(s.and_depth, 1);
    }

    #[test]
    fn and_layers_group_independent_ands() {
        // Two independent ANDs then a dependent one.
        let c = Circuit::new(
            4,
            vec![
                Gate::And(WireId(0), WireId(1)), // w4, layer 0
                Gate::And(WireId(2), WireId(3)), // w5, layer 0
                Gate::And(WireId(4), WireId(5)), // w6, layer 1
            ],
            vec![WireId(6)],
        );
        let layers = c.and_layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0], vec![0, 1]);
        assert_eq!(layers[1], vec![2]);
    }

    #[test]
    fn const_gate_evaluates() {
        let c = Circuit::new(
            1,
            vec![Gate::Const(true), Gate::Xor(WireId(0), WireId(1))],
            vec![WireId(2)],
        );
        assert_eq!(c.eval(&[false]), vec![true]);
        assert_eq!(c.eval(&[true]), vec![false]);
        assert_eq!(c.stats().const_gates, 1);
    }

    #[test]
    #[should_panic(expected = "references wire")]
    fn forward_reference_rejected() {
        Circuit::new(1, vec![Gate::Not(WireId(5))], vec![]);
    }

    #[test]
    #[should_panic(expected = "missing wire")]
    fn dangling_output_rejected() {
        Circuit::new(1, vec![], vec![WireId(3)]);
    }

    #[test]
    #[should_panic(expected = "wrong number of inputs")]
    fn eval_input_arity_checked() {
        sample_circuit().eval(&[true]);
    }

    #[test]
    fn input_layout_ranges_and_ownership() {
        let l = InputLayout::new(vec![2, 0, 3]);
        assert_eq!(l.parties(), 3);
        assert_eq!(l.total_inputs(), 5);
        assert_eq!(l.range_of(0), 0..2);
        assert_eq!(l.range_of(1), 2..2);
        assert_eq!(l.range_of(2), 2..5);
        assert_eq!(l.party_of(0), 0);
        assert_eq!(l.party_of(1), 0);
        assert_eq!(l.party_of(2), 2);
        assert_eq!(l.party_of(4), 2);
    }

    #[test]
    fn input_layout_flatten() {
        let l = InputLayout::new(vec![1, 2]);
        let flat = l.flatten(&[vec![true], vec![false, true]]);
        assert_eq!(flat, vec![true, false, true]);
    }

    #[test]
    #[should_panic(expected = "wrong input count")]
    fn input_layout_flatten_checks_counts() {
        let l = InputLayout::new(vec![1, 2]);
        l.flatten(&[vec![true], vec![false]]);
    }

    #[test]
    #[should_panic(expected = "beyond layout")]
    fn input_layout_party_of_out_of_range() {
        InputLayout::new(vec![1]).party_of(1);
    }
}
