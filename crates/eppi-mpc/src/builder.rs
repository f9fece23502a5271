//! Word-level circuit construction combinators.
//!
//! [`CircuitBuilder`] plays the role of FairplayMP's SFDL compiler: the
//! CountBelow / mix-decision programs of the ε-PPI construction are
//! written against these combinators and compiled to a flat Boolean
//! [`Circuit`]. Words are little-endian bit vectors; arithmetic is
//! unsigned with power-of-two wraparound (the share group `Z_{2^w}`).
//!
//! **Public constants fold.** The primitive gates ([`xor`], [`and`],
//! [`not`]) look at their operands: an operand that is a constant wire
//! yields a constant, the other operand, or its negation instead of a
//! gate, and [`constant`] emits at most one wire per value. So no
//! emitted gate ever takes a constant operand, and no Beaver AND is
//! spent on public data — a comparison, addition or subtraction of a
//! `w`-bit secret and a public constant costs at most `w − 1` ANDs
//! instead of about `2w`. The costs quoted on the combinators below are
//! for secret operands; constant ones only make them cheaper. The
//! circuit's shape therefore depends on the public constants it was
//! built with, never on a secret.
//!
//! [`xor`]: CircuitBuilder::xor
//! [`and`]: CircuitBuilder::and
//! [`not`]: CircuitBuilder::not
//! [`constant`]: CircuitBuilder::constant

use crate::circuit::{Circuit, Gate, WireId};

/// A little-endian machine word made of circuit wires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word(Vec<WireId>);

impl Word {
    /// The word's bits, least-significant first.
    pub fn bits(&self) -> &[WireId] {
        &self.0
    }

    /// The word width in bits.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// Builds a word from raw wires (least-significant first).
    pub fn from_bits(bits: Vec<WireId>) -> Self {
        Word(bits)
    }
}

/// Incremental Boolean-circuit builder.
///
/// All inputs must be declared (via [`input`](Self::input) /
/// [`input_word`](Self::input_word)) before the first gate is emitted, so
/// input wires form a dense prefix as [`Circuit`] requires.
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    inputs: usize,
    gates: Vec<Gate>,
    /// The wire of each constant emitted so far, indexed by its value.
    constants: [Option<WireId>; 2],
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    /// Declares one input wire.
    ///
    /// # Panics
    ///
    /// Panics if any gate has already been emitted.
    pub fn input(&mut self) -> WireId {
        assert!(
            self.gates.is_empty(),
            "all inputs must be declared before the first gate"
        );
        let w = WireId(self.inputs as u32);
        self.inputs += 1;
        w
    }

    /// Declares a `bits`-wide input word.
    pub fn input_word(&mut self, bits: usize) -> Word {
        Word((0..bits).map(|_| self.input()).collect())
    }

    fn push(&mut self, gate: Gate) -> WireId {
        let w = WireId((self.inputs + self.gates.len()) as u32);
        self.gates.push(gate);
        w
    }

    /// The value of `w` if it is a constant wire.
    fn constant_value(&self, w: WireId) -> Option<bool> {
        match self.gates.get(w.index().checked_sub(self.inputs)?) {
            Some(&Gate::Const(v)) => Some(v),
            _ => None,
        }
    }

    /// The constant bit `value`: emitted on first use, then reused.
    pub fn constant(&mut self, value: bool) -> WireId {
        if let Some(w) = self.constants[usize::from(value)] {
            return w;
        }
        let w = self.push(Gate::Const(value));
        self.constants[usize::from(value)] = Some(w);
        w
    }

    /// `a XOR b`; free. A constant operand folds to the other operand
    /// or its negation.
    pub fn xor(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.constant_value(a), self.constant_value(b)) {
            (Some(k), _) => self.xor_constant(b, k),
            (None, Some(k)) => self.xor_constant(a, k),
            (None, None) => self.push(Gate::Xor(a, b)),
        }
    }

    fn xor_constant(&mut self, a: WireId, k: bool) -> WireId {
        if k {
            self.not(a)
        } else {
            a
        }
    }

    /// `a AND b`: one Beaver AND when both operands are secret; a
    /// constant operand folds to `false` or the other operand.
    pub fn and(&mut self, a: WireId, b: WireId) -> WireId {
        match (self.constant_value(a), self.constant_value(b)) {
            (Some(false), _) | (_, Some(false)) => self.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            (None, None) => self.push(Gate::And(a, b)),
        }
    }

    /// `NOT a`; free. A constant operand folds to the opposite constant.
    pub fn not(&mut self, a: WireId) -> WireId {
        match self.constant_value(a) {
            Some(v) => self.constant(!v),
            None => self.push(Gate::Not(a)),
        }
    }

    /// `a OR b` as `a⊕b⊕(a∧b)`: one AND when both operands are secret,
    /// none when either is constant.
    pub fn or(&mut self, a: WireId, b: WireId) -> WireId {
        if self.constant_value(a) == Some(true) || self.constant_value(b) == Some(true) {
            return self.constant(true);
        }
        let x = self.xor(a, b);
        let n = self.and(a, b);
        self.xor(x, n)
    }

    /// AND of many wires via a balanced tree; `true` constant if empty.
    pub fn and_many(&mut self, wires: &[WireId]) -> WireId {
        match wires.len() {
            0 => self.constant(true),
            1 => wires[0],
            _ => {
                let mut layer = wires.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            self.and(pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// The constant word `value` (low `bits` bits), built from the two
    /// shared constant wires.
    pub fn const_word(&mut self, value: u64, bits: usize) -> Word {
        Word(
            (0..bits)
                .map(|i| self.constant(value >> i & 1 == 1))
                .collect(),
        )
    }

    /// Zero-extends (or truncates) a word to `bits`.
    pub fn resize_word(&mut self, a: &Word, bits: usize) -> Word {
        let mut out = a.0.clone();
        if out.len() > bits {
            out.truncate(bits);
        } else {
            while out.len() < bits {
                out.push(self.constant(false));
            }
        }
        Word(out)
    }

    /// Ripple-carry addition with the carry dropped: `(a + b) mod 2^w`,
    /// `2w − 1` ANDs for secret operands.
    ///
    /// This is exactly the share-group reduction for a power-of-two
    /// modulus, which is why CountBelow needs no explicit mod-q circuit.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add_words(&mut self, a: &Word, b: &Word) -> Word {
        self.add_inner(a, b, false)
    }

    /// Ripple-carry addition widened by one bit: exact `a + b`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add_words_expand(&mut self, a: &Word, b: &Word) -> Word {
        self.add_inner(a, b, true)
    }

    fn add_inner(&mut self, a: &Word, b: &Word, keep_carry: bool) -> Word {
        assert_eq!(a.width(), b.width(), "adder operands must match width");
        let mut out = Vec::with_capacity(a.width() + 1);
        let mut carry: Option<WireId> = None;
        for (&x, &y) in a.0.iter().zip(&b.0) {
            let xy = self.xor(x, y);
            match carry {
                None => {
                    out.push(xy);
                    carry = Some(self.and(x, y));
                }
                Some(c) => {
                    let s = self.xor(xy, c);
                    out.push(s);
                    // carry' = (x∧y) ⊕ (c∧(x⊕y)) — the two terms are
                    // mutually exclusive, so XOR implements OR.
                    let t1 = self.and(x, y);
                    let t2 = self.and(c, xy);
                    carry = Some(self.xor(t1, t2));
                }
            }
        }
        if keep_carry {
            out.push(carry.expect("non-empty words"));
        }
        Word(out)
    }

    /// Unsigned subtraction `(a − b) mod 2^w` via the borrow chain.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn sub_words(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "subtractor operands must match width");
        let mut out = Vec::with_capacity(a.width());
        let mut borrow = self.constant(false);
        for (&x, &y) in a.0.iter().zip(&b.0) {
            let xy = self.xor(x, y);
            let d = self.xor(xy, borrow);
            out.push(d);
            // borrow' = (!x ∧ y) ⊕ (borrow ∧ !(x⊕y)) — mutually
            // exclusive terms, XOR implements OR.
            let nx = self.not(x);
            let t1 = self.and(nx, y);
            let nxy = self.not(xy);
            let t2 = self.and(borrow, nxy);
            borrow = self.xor(t1, t2);
        }
        Word(out)
    }

    /// Left shift by a constant amount, widening: `a · 2^k`.
    pub fn shl_words(&mut self, a: &Word, k: usize) -> Word {
        let mut out = Vec::with_capacity(a.width() + k);
        for _ in 0..k {
            out.push(self.constant(false));
        }
        out.extend_from_slice(&a.0);
        Word(out)
    }

    /// Schoolbook multiplication: exact product of width
    /// `a.width() + b.width()` (O(w²) gates for secret operands — this
    /// is why the paper pushes arithmetic out of the secure
    /// computation; a constant multiplier leaves only the adders of its
    /// set bits).
    pub fn mul_words(&mut self, a: &Word, b: &Word) -> Word {
        let total = a.width() + b.width();
        let mut acc = self.const_word(0, total);
        for (i, &bit) in b.0.iter().enumerate() {
            // Partial product: (a AND b_i) << i, zero-extended.
            let mut partial = Vec::with_capacity(total);
            for _ in 0..i {
                partial.push(self.constant(false));
            }
            for &abit in &a.0 {
                partial.push(self.and(abit, bit));
            }
            while partial.len() < total {
                partial.push(self.constant(false));
            }
            partial.truncate(total);
            acc = self.add_words(&acc, &Word(partial));
        }
        acc
    }

    /// Restoring integer division: `(a / b, a % b)`, both of `a`'s
    /// width. Division by zero yields all-ones quotient and `a` as
    /// remainder (hardware convention; callers guard `b ≠ 0`).
    pub fn div_words(&mut self, a: &Word, b: &Word) -> (Word, Word) {
        let w = a.width();
        let bw = b.width();
        // Remainder register one bit wider than the divisor so the
        // trial subtraction cannot wrap.
        let rw = bw + 1;
        let b_ext = self.resize_word(b, rw);
        let mut rem = self.const_word(0, rw);
        let mut quot = vec![self.constant(false); w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a_i
            let mut shifted = Vec::with_capacity(rw);
            shifted.push(a.0[i]);
            shifted.extend_from_slice(&rem.0[..rw - 1]);
            rem = Word(shifted);
            // If rem ≥ b: rem -= b, q_i = 1.
            let ge = self.ge_words(&rem, &b_ext);
            let diff = self.sub_words(&rem, &b_ext);
            rem = self.mux_word(ge, &diff, &rem);
            quot[i] = ge;
        }
        let rem = self.resize_word(&rem, w.min(rw));
        (Word(quot), self.resize_word(&rem, w))
    }

    /// Bit-by-bit integer square root: `⌊sqrt(a)⌋` of width
    /// `⌈a.width()/2⌉` (digit-recurrence; O(w²) gates).
    pub fn sqrt_word(&mut self, a: &Word) -> Word {
        // Work at even width.
        let w = a.width().div_ceil(2) * 2;
        let a = self.resize_word(a, w);
        let half = w / 2;
        // Invariant per iteration (classic non-restoring-free variant):
        // rem holds the current remainder, root the partial root.
        // Trial value = (root << 2) | 01 at the current digit position.
        let rw = w + 2;
        let mut rem = self.const_word(0, rw);
        let mut root = self.const_word(0, rw);
        for i in (0..half).rev() {
            // rem = (rem << 2) | next two bits of a.
            let mut shifted = Vec::with_capacity(rw);
            shifted.push(a.0[2 * i]);
            shifted.push(a.0[2 * i + 1]);
            shifted.extend_from_slice(&rem.0[..rw - 2]);
            rem = Word(shifted);
            // trial = (root << 2) | 1 — the digit-recurrence test value
            // 4·root + 1.
            let one = self.constant(true);
            let zero = self.constant(false);
            let mut trial = Vec::with_capacity(rw);
            trial.push(one);
            trial.push(zero);
            trial.extend_from_slice(&root.0[..rw - 2]);
            let trial = Word(trial);
            let ge = self.ge_words(&rem, &trial);
            let diff = self.sub_words(&rem, &trial);
            rem = self.mux_word(ge, &diff, &rem);
            // root = (root << 1) | ge
            let mut newroot = Vec::with_capacity(rw);
            newroot.push(ge);
            newroot.extend_from_slice(&root.0[..rw - 1]);
            root = Word(newroot);
        }
        self.resize_word(&root, half)
    }

    /// Unsigned comparison `a < b` via the borrow chain of `a − b`:
    /// `2w − 1` ANDs for secret operands, at most `w − 1` when one of
    /// them is a constant word (one AND per bit once the borrow
    /// depends on the secret).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn lt_words(&mut self, a: &Word, b: &Word) -> WireId {
        assert_eq!(a.width(), b.width(), "comparator operands must match width");
        let mut borrow = self.constant(false);
        for (&x, &y) in a.0.iter().zip(&b.0) {
            // borrow' = (!x ∧ y) ⊕ (borrow ∧ !(x⊕y)) — mutually exclusive
            // terms, XOR implements OR.
            let nx = self.not(x);
            let t1 = self.and(nx, y);
            let xy = self.xor(x, y);
            let nxy = self.not(xy);
            let t2 = self.and(borrow, nxy);
            borrow = self.xor(t1, t2);
        }
        borrow
    }

    /// Unsigned comparison `a ≥ b`.
    pub fn ge_words(&mut self, a: &Word, b: &Word) -> WireId {
        let lt = self.lt_words(a, b);
        self.not(lt)
    }

    /// Word equality.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn eq_words(&mut self, a: &Word, b: &Word) -> WireId {
        assert_eq!(a.width(), b.width(), "equality operands must match width");
        let same: Vec<WireId> =
            a.0.iter()
                .zip(&b.0)
                .map(|(&x, &y)| {
                    let d = self.xor(x, y);
                    self.not(d)
                })
                .collect();
        self.and_many(&same)
    }

    /// Bitwise XOR of two words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor_words(&mut self, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "xor operands must match width");
        Word(
            a.0.iter()
                .zip(&b.0)
                .map(|(&x, &y)| self.xor(x, y))
                .collect(),
        )
    }

    /// Two-way multiplexer: `sel ? a : b`, bit-wise
    /// (`b ⊕ (sel ∧ (a⊕b))`).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mux_word(&mut self, sel: WireId, a: &Word, b: &Word) -> Word {
        assert_eq!(a.width(), b.width(), "mux operands must match width");
        Word(
            a.0.iter()
                .zip(&b.0)
                .map(|(&x, &y)| {
                    let d = self.xor(x, y);
                    let g = self.and(sel, d);
                    self.xor(y, g)
                })
                .collect(),
        )
    }

    /// Population count: the number of set bits, as a word of width
    /// `⌈log₂(n+1)⌉`, built as a balanced adder tree.
    pub fn popcount(&mut self, bits: &[WireId]) -> Word {
        if bits.is_empty() {
            return self.const_word(0, 1);
        }
        let mut words: Vec<Word> = bits.iter().map(|&b| Word(vec![b])).collect();
        while words.len() > 1 {
            let mut next = Vec::with_capacity(words.len().div_ceil(2));
            let mut it = words.into_iter();
            while let Some(a) = it.next() {
                match it.next() {
                    Some(b) => {
                        let w = a.width().max(b.width());
                        let a = self.resize_word(&a, w);
                        let b = self.resize_word(&b, w);
                        next.push(self.add_words_expand(&a, &b));
                    }
                    None => next.push(a),
                }
            }
            words = next;
        }
        words.pop().expect("non-empty")
    }

    /// Seals the builder into a [`Circuit`] with the given output wires.
    pub fn finish(self, outputs: Vec<WireId>) -> Circuit {
        Circuit::new(self.inputs, self.gates, outputs)
    }

    /// Seals the builder with a word output (least-significant bit
    /// first).
    pub fn finish_word(self, output: Word) -> Circuit {
        Circuit::new(self.inputs, self.gates, output.0)
    }
}

/// Decodes circuit output bits as a little-endian unsigned integer.
pub fn word_value(bits: &[bool]) -> u64 {
    bits.iter()
        .enumerate()
        .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i))
}

/// Encodes an unsigned integer as `bits` little-endian booleans.
pub fn to_bits(value: u64, bits: usize) -> Vec<bool> {
    (0..bits).map(|i| value >> i & 1 == 1).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// What constant folding guarantees of every built circuit: no gate
    /// but a constant takes a constant operand, and each constant value
    /// has at most one wire.
    pub(crate) fn assert_folded(c: &Circuit) {
        let is_const = |w: WireId| {
            w.index() >= c.inputs() && matches!(c.gates()[w.index() - c.inputs()], Gate::Const(_))
        };
        for (k, gate) in c.gates().iter().enumerate() {
            let operands = match *gate {
                Gate::Xor(a, b) | Gate::And(a, b) => vec![a, b],
                Gate::Not(a) => vec![a],
                Gate::Const(_) => Vec::new(),
            };
            assert!(
                !operands.into_iter().any(is_const),
                "gate {k} ({gate:?}) takes a constant operand"
            );
        }
        let stats = c.stats();
        assert!(
            stats.const_gates <= 2,
            "{} constant gates",
            stats.const_gates
        );
    }

    /// `f(x, k)` (or `f(k, x)` when `const_first`) over a secret `w`-bit
    /// word `x` and the constant word `k`, checked for folding.
    fn mixed_circuit(
        f: &impl Fn(&mut CircuitBuilder, &Word, &Word) -> Vec<WireId>,
        k: u64,
        w: usize,
        const_first: bool,
    ) -> Circuit {
        let mut cb = CircuitBuilder::new();
        let secret = cb.input_word(w);
        let constant = cb.const_word(k, w);
        let out = if const_first {
            f(&mut cb, &constant, &secret)
        } else {
            f(&mut cb, &secret, &constant)
        };
        let c = cb.finish(out);
        assert_folded(&c);
        c
    }

    /// Exhaustively compares `f` with one operand a constant word
    /// against `want` (as u64 semantics) for widths 1..=4, both operand
    /// orders; returns the largest AND count any of the circuits had,
    /// per width.
    fn check_mixed(
        f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> Vec<WireId>,
        want: impl Fn(u64, u64, usize) -> u64,
        what: &str,
    ) -> Vec<usize> {
        (1..=4usize)
            .map(|w| {
                let mut most_ands = 0;
                for k in 0..1u64 << w {
                    for const_first in [false, true] {
                        let c = mixed_circuit(&f, k, w, const_first);
                        most_ands = most_ands.max(c.stats().and_gates);
                        for x in 0..1u64 << w {
                            let (a, b) = if const_first { (k, x) } else { (x, k) };
                            let got = word_value(&c.eval(&to_bits(x, w)));
                            assert_eq!(got, want(a, b, w), "{what}({a}, {b}) at w = {w}");
                        }
                    }
                }
                most_ands
            })
            .collect()
    }

    /// Adders, subtractor and comparators with a constant operand: u64
    /// semantics, at most `w − 1` ANDs.
    #[test]
    fn linear_combinators_with_a_constant_operand_match_u64_and_cost_under_w() {
        let mask = |w: usize| (1u64 << w) - 1;
        let checks: [(&str, Vec<usize>); 6] = [
            (
                "add",
                check_mixed(
                    |cb, a, b| cb.add_words(a, b).bits().to_vec(),
                    |a, b, w| (a + b) & mask(w),
                    "add",
                ),
            ),
            (
                "add_expand",
                check_mixed(
                    |cb, a, b| cb.add_words_expand(a, b).bits().to_vec(),
                    |a, b, _| a + b,
                    "add_expand",
                ),
            ),
            (
                "sub",
                check_mixed(
                    |cb, a, b| cb.sub_words(a, b).bits().to_vec(),
                    |a, b, w| a.wrapping_sub(b) & mask(w),
                    "sub",
                ),
            ),
            (
                "lt",
                check_mixed(
                    |cb, a, b| vec![cb.lt_words(a, b)],
                    |a, b, _| u64::from(a < b),
                    "lt",
                ),
            ),
            (
                "ge",
                check_mixed(
                    |cb, a, b| vec![cb.ge_words(a, b)],
                    |a, b, _| u64::from(a >= b),
                    "ge",
                ),
            ),
            (
                "eq",
                check_mixed(
                    |cb, a, b| vec![cb.eq_words(a, b)],
                    |a, b, _| u64::from(a == b),
                    "eq",
                ),
            ),
        ];
        for (what, most_ands) in checks {
            for (w, ands) in (1..).zip(most_ands) {
                assert!(ands < w, "{what} at w = {w}: {ands} ANDs");
            }
        }
    }

    #[test]
    fn multiplier_and_divider_with_a_constant_operand_match_u64() {
        check_mixed(
            |cb, a, b| cb.mul_words(a, b).bits().to_vec(),
            |a, b, _| a * b,
            "mul",
        );
        // Division by zero: all-ones quotient, the dividend as remainder.
        let div = |a: u64, b: u64, w: usize| match b {
            0 => ((1u64 << w) - 1, a),
            _ => (a / b, a % b),
        };
        check_mixed(
            |cb, a, b| cb.div_words(a, b).0.bits().to_vec(),
            |a, b, w| div(a, b, w).0,
            "div quotient",
        );
        check_mixed(
            |cb, a, b| cb.div_words(a, b).1.bits().to_vec(),
            |a, b, w| div(a, b, w).1,
            "div remainder",
        );
    }

    /// `mux` with a secret selector and one constant arm, and with a
    /// constant selector over secret arms.
    #[test]
    fn mux_with_constant_operands_matches_u64() {
        for w in 1..=4usize {
            for k in 0..1u64 << w {
                for const_arm in [0usize, 1] {
                    let mut cb = CircuitBuilder::new();
                    let sel = cb.input();
                    let secret = cb.input_word(w);
                    let constant = cb.const_word(k, w);
                    let (a, b) = if const_arm == 0 {
                        (&constant, &secret)
                    } else {
                        (&secret, &constant)
                    };
                    let out = cb.mux_word(sel, a, b);
                    let c = cb.finish_word(out);
                    assert_folded(&c);
                    for x in 0..1u64 << w {
                        for s in [false, true] {
                            let mut inputs = vec![s];
                            inputs.extend(to_bits(x, w));
                            let (va, vb) = if const_arm == 0 { (k, x) } else { (x, k) };
                            let want = if s { va } else { vb };
                            assert_eq!(word_value(&c.eval(&inputs)), want, "w={w} k={k}");
                        }
                    }
                }
            }
            for s in [false, true] {
                let mut cb = CircuitBuilder::new();
                let a = cb.input_word(w);
                let b = cb.input_word(w);
                let sel = cb.constant(s);
                let out = cb.mux_word(sel, &a, &b);
                let c = cb.finish_word(out);
                assert_folded(&c);
                assert_eq!(c.stats().and_gates, 0, "a public selector costs no AND");
                for x in 0..1u64 << (2 * w) {
                    let (va, vb) = (x & ((1 << w) - 1), x >> w);
                    let want = if s { va } else { vb };
                    assert_eq!(word_value(&c.eval(&to_bits(x, 2 * w))), want);
                }
            }
        }
    }

    /// `sqrt` and `popcount` over words whose high bits are public.
    #[test]
    fn sqrt_and_popcount_with_constant_bits_match_u64() {
        for w in 1..=4usize {
            for k in 0..1u64 << w {
                let mut cb = CircuitBuilder::new();
                let secret = cb.input_word(w);
                let constant = cb.const_word(k, w);
                let mut bits = secret.bits().to_vec();
                bits.extend_from_slice(constant.bits());
                let root = cb.sqrt_word(&Word::from_bits(bits.clone()));
                let count = cb.popcount(&bits);
                let mut outs = root.bits().to_vec();
                let root_width = outs.len();
                outs.extend_from_slice(count.bits());
                let c = cb.finish(outs);
                assert_folded(&c);
                for x in 0..1u64 << w {
                    let v = x | k << w;
                    let out = c.eval(&to_bits(x, w));
                    let want_root = (v as f64).sqrt().floor() as u64;
                    assert_eq!(word_value(&out[..root_width]), want_root, "sqrt({v})");
                    let want_count = u64::from(v.count_ones());
                    assert_eq!(word_value(&out[root_width..]), want_count, "popcount({v})");
                }
            }
        }
    }

    /// A circuit over constants alone folds to constants: no gate but
    /// the two constant wires.
    #[test]
    fn all_constant_operands_fold_away() {
        let mut cb = CircuitBuilder::new();
        let a = cb.const_word(11, 5);
        let b = cb.const_word(6, 5);
        let sum = cb.add_words_expand(&a, &b);
        let prod = cb.mul_words(&a, &b);
        let lt = cb.lt_words(&b, &a);
        let or = cb.or(lt, sum.bits()[0]);
        let mut outs = sum.bits().to_vec();
        outs.extend_from_slice(prod.bits());
        outs.push(or);
        let c = cb.finish(outs);
        assert_eq!(c.gates().len(), 2, "{:?}", c.gates());
        let out = c.eval(&[]);
        assert_eq!(word_value(&out[..6]), 17);
        assert_eq!(word_value(&out[6..16]), 66);
        assert!(out[16]);
    }

    fn eval_binop(
        f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> Word,
        a: u64,
        b: u64,
        w: usize,
    ) -> u64 {
        let mut cb = CircuitBuilder::new();
        let wa = cb.input_word(w);
        let wb = cb.input_word(w);
        let out = f(&mut cb, &wa, &wb);
        let c = cb.finish_word(out);
        let mut inputs = to_bits(a, w);
        inputs.extend(to_bits(b, w));
        word_value(&c.eval(&inputs))
    }

    fn eval_cmp(
        f: impl Fn(&mut CircuitBuilder, &Word, &Word) -> WireId,
        a: u64,
        b: u64,
        w: usize,
    ) -> bool {
        let mut cb = CircuitBuilder::new();
        let wa = cb.input_word(w);
        let wb = cb.input_word(w);
        let out = f(&mut cb, &wa, &wb);
        let c = cb.finish(vec![out]);
        let mut inputs = to_bits(a, w);
        inputs.extend(to_bits(b, w));
        c.eval(&inputs)[0]
    }

    #[test]
    fn adder_matches_u64_semantics() {
        for (a, b) in [
            (0u64, 0u64),
            (1, 1),
            (5, 11),
            (255, 1),
            (200, 100),
            (254, 255),
        ] {
            let got = eval_binop(|cb, x, y| cb.add_words(x, y), a, b, 8);
            assert_eq!(got, (a + b) & 0xff, "{a}+{b} mod 256");
            let exact = eval_binop(|cb, x, y| cb.add_words_expand(x, y), a, b, 8);
            assert_eq!(exact, a + b, "{a}+{b} exact");
        }
    }

    #[test]
    fn comparators_match_u64_semantics() {
        for (a, b) in [
            (0u64, 0u64),
            (1, 2),
            (2, 1),
            (100, 100),
            (255, 0),
            (0, 255),
            (37, 38),
        ] {
            assert_eq!(
                eval_cmp(|cb, x, y| cb.lt_words(x, y), a, b, 8),
                a < b,
                "{a}<{b}"
            );
            assert_eq!(
                eval_cmp(|cb, x, y| cb.ge_words(x, y), a, b, 8),
                a >= b,
                "{a}>={b}"
            );
            assert_eq!(
                eval_cmp(|cb, x, y| cb.eq_words(x, y), a, b, 8),
                a == b,
                "{a}=={b}"
            );
        }
    }

    #[test]
    fn xor_words_matches() {
        let got = eval_binop(|cb, x, y| cb.xor_words(x, y), 0b1010, 0b0110, 4);
        assert_eq!(got, 0b1100);
    }

    #[test]
    fn mux_selects() {
        let mut cb = CircuitBuilder::new();
        let sel = cb.input();
        let a = cb.input_word(4);
        let b = cb.input_word(4);
        let out = cb.mux_word(sel, &a, &b);
        let c = cb.finish_word(out);
        let mut inputs = vec![true];
        inputs.extend(to_bits(9, 4));
        inputs.extend(to_bits(3, 4));
        assert_eq!(word_value(&c.eval(&inputs)), 9);
        inputs[0] = false;
        assert_eq!(word_value(&c.eval(&inputs)), 3);
    }

    #[test]
    fn popcount_matches() {
        for n in [1usize, 2, 3, 7, 8, 13] {
            for pattern in 0..(1u64 << n.min(10)) {
                let mut cb = CircuitBuilder::new();
                let w = cb.input_word(n);
                let bits: Vec<WireId> = w.bits().to_vec();
                let out = cb.popcount(&bits);
                let c = cb.finish_word(out);
                let got = word_value(&c.eval(&to_bits(pattern, n)));
                assert_eq!(
                    got,
                    pattern.count_ones() as u64,
                    "n={n} pattern={pattern:b}"
                );
            }
        }
    }

    #[test]
    fn popcount_empty_is_zero() {
        let mut cb = CircuitBuilder::new();
        let out = cb.popcount(&[]);
        let c = cb.finish_word(out);
        assert_eq!(word_value(&c.eval(&[])), 0);
    }

    #[test]
    fn or_and_many_trees() {
        for n in 0..6usize {
            for pattern in 0..(1u64 << n) {
                let mut cb = CircuitBuilder::new();
                let w = cb.input_word(n);
                let bits = w.bits().to_vec();
                let none = cb.constant(false);
                let o = bits.iter().fold(none, |acc, &b| cb.or(acc, b));
                let a = cb.and_many(&bits);
                let c = cb.finish(vec![o, a]);
                let out = c.eval(&to_bits(pattern, n));
                assert_eq!(out[0], pattern != 0 && n > 0, "or n={n} p={pattern:b}");
                assert_eq!(
                    out[1],
                    pattern.count_ones() as usize == n,
                    "and n={n} p={pattern:b}"
                );
            }
        }
    }

    #[test]
    fn const_word_roundtrip() {
        let mut cb = CircuitBuilder::new();
        let w = cb.const_word(0b1011, 6);
        let c = cb.finish_word(w);
        assert_eq!(word_value(&c.eval(&[])), 0b1011);
    }

    #[test]
    fn resize_zero_extends_and_truncates() {
        let mut cb = CircuitBuilder::new();
        let w = cb.input_word(4);
        let wide = cb.resize_word(&w, 8);
        let narrow = cb.resize_word(&w, 2);
        let mut outs = wide.bits().to_vec();
        outs.extend_from_slice(narrow.bits());
        let c = cb.finish(outs);
        let out = c.eval(&to_bits(0b1101, 4));
        assert_eq!(word_value(&out[..8]), 0b1101);
        assert_eq!(word_value(&out[8..]), 0b01);
    }

    #[test]
    #[should_panic(expected = "before the first gate")]
    fn late_inputs_rejected() {
        let mut cb = CircuitBuilder::new();
        let a = cb.input();
        cb.not(a);
        cb.input();
    }

    #[test]
    fn word_value_and_to_bits_roundtrip() {
        for v in [0u64, 1, 37, 255, 12345] {
            assert_eq!(word_value(&to_bits(v, 16)), v & 0xffff);
        }
    }

    #[test]
    fn subtractor_matches_wrapping_sub() {
        for (a, b) in [(0u64, 0u64), (5, 3), (3, 5), (255, 1), (0, 255), (200, 200)] {
            let got = eval_binop(|cb, x, y| cb.sub_words(x, y), a, b, 8);
            assert_eq!(got, a.wrapping_sub(b) & 0xff, "{a}-{b}");
        }
    }

    #[test]
    fn multiplier_matches_u64() {
        for (a, b) in [(0u64, 0u64), (1, 1), (3, 5), (15, 15), (12, 9), (7, 13)] {
            let mut cb = CircuitBuilder::new();
            let wa = cb.input_word(4);
            let wb = cb.input_word(4);
            let p = cb.mul_words(&wa, &wb);
            assert_eq!(p.width(), 8);
            let c = cb.finish_word(p);
            let mut inputs = to_bits(a, 4);
            inputs.extend(to_bits(b, 4));
            assert_eq!(word_value(&c.eval(&inputs)), a * b, "{a}*{b}");
        }
    }

    #[test]
    fn divider_matches_u64() {
        for (a, b) in [
            (0u64, 1u64),
            (7, 3),
            (100, 10),
            (255, 2),
            (13, 13),
            (5, 255),
            (254, 7),
        ] {
            let mut cb = CircuitBuilder::new();
            let wa = cb.input_word(8);
            let wb = cb.input_word(8);
            let (q, r) = cb.div_words(&wa, &wb);
            let mut outs = q.bits().to_vec();
            outs.extend_from_slice(r.bits());
            let c = cb.finish(outs);
            let mut inputs = to_bits(a, 8);
            inputs.extend(to_bits(b, 8));
            let out = c.eval(&inputs);
            assert_eq!(word_value(&out[..8]), a / b, "{a}/{b}");
            assert_eq!(word_value(&out[8..]), a % b, "{a}%{b}");
        }
    }

    #[test]
    fn divider_exhaustive_small() {
        let mut cb = CircuitBuilder::new();
        let wa = cb.input_word(5);
        let wb = cb.input_word(5);
        let (q, _) = cb.div_words(&wa, &wb);
        let c = cb.finish_word(q);
        for a in 0u64..32 {
            for b in 1u64..32 {
                let mut inputs = to_bits(a, 5);
                inputs.extend(to_bits(b, 5));
                assert_eq!(word_value(&c.eval(&inputs)), a / b, "{a}/{b}");
            }
        }
    }

    #[test]
    fn sqrt_matches_isqrt() {
        let mut cb = CircuitBuilder::new();
        let wa = cb.input_word(10);
        let r = cb.sqrt_word(&wa);
        let c = cb.finish_word(r);
        for v in 0u64..1024 {
            let got = word_value(&c.eval(&to_bits(v, 10)));
            let want = (v as f64).sqrt().floor() as u64;
            assert_eq!(got, want, "sqrt({v})");
        }
    }

    #[test]
    fn shl_widens() {
        let mut cb = CircuitBuilder::new();
        let wa = cb.input_word(4);
        let s = cb.shl_words(&wa, 3);
        assert_eq!(s.width(), 7);
        let c = cb.finish_word(s);
        assert_eq!(word_value(&c.eval(&to_bits(0b1011, 4))), 0b1011000);
    }
}
