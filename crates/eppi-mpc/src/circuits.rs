//! The ε-PPI domain circuits compiled for the generic-MPC stage.
//!
//! Three programs are compiled (the SFDL programs of the paper's
//! prototype, §IV-B.2):
//!
//! * [`CountBelowCircuit`] — Algorithm 2: reconstruct each identity's
//!   hidden frequency from the coordinators' additive shares and output
//!   **only** the number of common identities (`Σ_{σ ≥ σ'} 1`), never the
//!   per-identity frequencies. (The paper names the algorithm
//!   *CountBelow* although Alg. 1 line 3 consumes the count of identities
//!   at-or-above the threshold; we follow the usage, not the name.)
//! * [`MixDecisionCircuit`] — the second secure pass: per identity,
//!   output the single bit `common_j ∨ coin_j(λ)` (Eq. 6). Identities
//!   with an output of `1` publish with `β = 1`; only for the rest is the
//!   frequency later reconstructed in cleartext to evaluate β* — the
//!   computation-reordering optimization of Formula 9.
//! * [`PureConstructionCircuit`] — the paper's *pure MPC* baseline: the
//!   same computation but with all `m` providers feeding their private
//!   membership bits straight into one big circuit (no SecSumShare
//!   reduction to `c` coordinators).
//!
//! All circuits work over the power-of-two share group `Z_{2^w}`: the
//! ripple-carry adders drop the carry, which *is* the mod-`2^w`
//! reduction.
//!
//! The thresholds `t_j` and the λ threshold are public constants, and
//! the builder folds them (see [`crate::builder`]): the comparison of a
//! `w`-bit share sum against `t_j` costs at most `w − 1` ANDs, the
//! `k + 1`-bit coin comparison at most `k`, and a λ of 0 or 1 decides
//! the coin without any. So per identity CountBelow costs at most
//! `(c−1)(2w−1) + (w−1)` ANDs plus its share of the popcount, and the
//! mix decision at most `(c−1)(2w−1) + (w−1) + k + 1`. A circuit's
//! shape is a function of `c`, `w`, the thresholds and λ — public data
//! every coordinator already holds — and of nothing secret.

use crate::builder::{to_bits, word_value, CircuitBuilder, Word};
use crate::circuit::{Circuit, InputLayout};

/// Number of random bits per identity used to realize the Bernoulli(λ)
/// mixing coin inside the circuit.
pub const DEFAULT_COIN_BITS: usize = 16;

/// Converts a probability into the integer threshold `⌊λ·2^k⌋` compared
/// against a uniform `k`-bit value inside the circuit.
pub fn lambda_threshold(lambda: f64, coin_bits: usize) -> u64 {
    let max = 1u64 << coin_bits;
    ((lambda.clamp(0.0, 1.0) * max as f64).floor() as u64).min(max)
}

fn encode_share_words(values: &[u64], width: usize) -> Vec<bool> {
    let mut bits = Vec::with_capacity(values.len() * width);
    for &v in values {
        bits.extend(to_bits(v, width));
    }
    bits
}

/// The CountBelow circuit (Algorithm 2) among the `c` coordinators.
#[derive(Debug, Clone)]
pub struct CountBelowCircuit {
    circuit: Circuit,
    layout: InputLayout,
    identities: usize,
    width: usize,
}

impl CountBelowCircuit {
    /// Compiles the circuit for `parties` coordinators, per-identity
    /// public thresholds `t_j = σ'_j · m` (clamped to `2^width − 1`,
    /// folded into the comparators) and a `width`-bit share group
    /// `Z_{2^width}`.
    ///
    /// # Panics
    ///
    /// Panics if `parties == 0`, `thresholds` is empty, or `width` is 0
    /// or exceeds 63.
    pub fn build(parties: usize, thresholds: &[u64], width: usize) -> Self {
        assert!(parties >= 1, "at least one coordinator required");
        assert!(!thresholds.is_empty(), "at least one identity required");
        assert!((1..=63).contains(&width), "share width must be in 1..=63");
        let n = thresholds.len();

        let mut cb = CircuitBuilder::new();
        // Input order: party-major — party i supplies its share vector
        // s(i, ·) as n words of `width` bits.
        let mut party_words: Vec<Vec<Word>> = Vec::with_capacity(parties);
        for _ in 0..parties {
            party_words.push((0..n).map(|_| cb.input_word(width)).collect());
        }

        let common_bits: Vec<_> = (0..n)
            .map(|j| {
                // S[j] = Σ_i s(i, j) mod 2^width.
                let mut sum = party_words[0][j].clone();
                for words in party_words.iter().skip(1) {
                    sum = cb.add_words(&sum, &words[j]);
                }
                let t = cb.const_word(thresholds[j].min((1 << width) - 1), width);
                cb.ge_words(&sum, &t)
            })
            .collect();
        let count = cb.popcount(&common_bits);
        let circuit = cb.finish_word(count);

        CountBelowCircuit {
            circuit,
            layout: InputLayout::new(vec![n * width; parties]),
            identities: n,
            width,
        }
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The per-party input layout.
    pub fn layout(&self) -> &InputLayout {
        &self.layout
    }

    /// Number of identities the circuit processes.
    pub fn identities(&self) -> usize {
        self.identities
    }

    /// Encodes a coordinator's share vector `s(i, ·)` into its input
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `shares.len()` differs from the identity count.
    pub fn encode_party_input(&self, shares: &[u64]) -> Vec<bool> {
        assert_eq!(shares.len(), self.identities, "one share per identity");
        encode_share_words(shares, self.width)
    }

    /// Decodes the opened output into the common-identity count.
    pub fn decode_count(&self, outputs: &[bool]) -> u64 {
        word_value(outputs)
    }
}

/// The mix-decision circuit: per identity, `common_j ∨ coin_j(λ)`.
#[derive(Debug, Clone)]
pub struct MixDecisionCircuit {
    circuit: Circuit,
    layout: InputLayout,
    identities: usize,
    width: usize,
    coin_bits: usize,
}

impl MixDecisionCircuit {
    /// Compiles the circuit for `parties` coordinators.
    ///
    /// `lambda_threshold` is `⌊λ·2^coin_bits⌋` (see
    /// [`lambda_threshold`]); each party additionally contributes
    /// `coin_bits` uniform bits per identity, whose XOR forms the shared
    /// coin — uniform as long as at least one party is honest.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CountBelowCircuit::build`],
    /// or if `coin_bits` is 0 or exceeds 32.
    pub fn build(
        parties: usize,
        thresholds: &[u64],
        width: usize,
        coin_bits: usize,
        lambda_threshold: u64,
    ) -> Self {
        assert!(parties >= 1, "at least one coordinator required");
        assert!(!thresholds.is_empty(), "at least one identity required");
        assert!((1..=63).contains(&width), "share width must be in 1..=63");
        assert!((1..=32).contains(&coin_bits), "coin bits must be in 1..=32");
        let n = thresholds.len();

        let mut cb = CircuitBuilder::new();
        // Party i supplies: n share words, then n coin words.
        let mut share_words: Vec<Vec<Word>> = Vec::with_capacity(parties);
        let mut coin_words: Vec<Vec<Word>> = Vec::with_capacity(parties);
        for _ in 0..parties {
            share_words.push((0..n).map(|_| cb.input_word(width)).collect());
            coin_words.push((0..n).map(|_| cb.input_word(coin_bits)).collect());
        }

        let lambda_word_value = lambda_threshold.min(1 << coin_bits);
        let outputs: Vec<_> = (0..n)
            .map(|j| {
                let mut sum = share_words[0][j].clone();
                for words in share_words.iter().skip(1) {
                    sum = cb.add_words(&sum, &words[j]);
                }
                let t = cb.const_word(thresholds[j].min((1 << width) - 1), width);
                let common = cb.ge_words(&sum, &t);

                let mut coin_u = coin_words[0][j].clone();
                for words in coin_words.iter().skip(1) {
                    coin_u = cb.xor_words(&coin_u, &words[j]);
                }
                // coin = (u < ⌊λ·2^k⌋), i.e. Bernoulli(λ). Widen by one
                // bit so a threshold of 2^k (λ = 1) is representable.
                let coin_u = cb.resize_word(&coin_u, coin_bits + 1);
                let l = cb.const_word(lambda_word_value, coin_bits + 1);
                let coin = cb.lt_words(&coin_u, &l);
                cb.or(common, coin)
            })
            .collect();
        let circuit = cb.finish(outputs);

        MixDecisionCircuit {
            circuit,
            layout: InputLayout::new(vec![n * (width + coin_bits); parties]),
            identities: n,
            width,
            coin_bits,
        }
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The per-party input layout.
    pub fn layout(&self) -> &InputLayout {
        &self.layout
    }

    /// Number of identities the circuit processes.
    pub fn identities(&self) -> usize {
        self.identities
    }

    /// Encodes a coordinator's share vector and its per-identity coin
    /// randomness into input bits.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the identity count.
    pub fn encode_party_input(&self, shares: &[u64], coins: &[u64]) -> Vec<bool> {
        assert_eq!(shares.len(), self.identities, "one share per identity");
        assert_eq!(coins.len(), self.identities, "one coin word per identity");
        let mut bits = encode_share_words(shares, self.width);
        bits.extend(encode_share_words(coins, self.coin_bits));
        bits
    }

    /// Decodes the opened output into per-identity publish-as-common
    /// bits.
    pub fn decode_decisions(&self, outputs: &[bool]) -> Vec<bool> {
        outputs.to_vec()
    }
}

/// The *pure MPC* baseline circuit: the whole β computation with all `m`
/// providers as circuit parties (no SecSumShare reduction).
///
/// Outputs, in order: the common count, the per-identity mix decisions,
/// and per-identity *masked frequencies* — the frequency when the mix
/// decision is `0` (the identity will publish with `β = β*(σ)`, so its
/// frequency must be revealed to evaluate the policy in cleartext), or
/// `0` when the decision is `1` (common or mixed identities keep their
/// frequency hidden; they publish with `β = 1` regardless).
#[derive(Debug, Clone)]
pub struct PureConstructionCircuit {
    circuit: Circuit,
    layout: InputLayout,
    identities: usize,
    providers: usize,
    coin_bits: usize,
    count_width: usize,
    freq_width: usize,
}

impl PureConstructionCircuit {
    /// Compiles the circuit for `providers` parties, each contributing
    /// one private membership bit per identity (plus coin randomness).
    /// Outputs the common count followed by the per-identity mix
    /// decisions.
    ///
    /// # Panics
    ///
    /// Panics if `providers == 0`, `thresholds` is empty, or `coin_bits`
    /// is 0 or exceeds 32.
    pub fn build(
        providers: usize,
        thresholds: &[u64],
        coin_bits: usize,
        lambda_threshold: u64,
    ) -> Self {
        assert!(providers >= 1, "at least one provider required");
        assert!(!thresholds.is_empty(), "at least one identity required");
        assert!((1..=32).contains(&coin_bits), "coin bits must be in 1..=32");
        let n = thresholds.len();
        let freq_width = usize::BITS as usize - providers.leading_zeros() as usize + 1;

        let mut cb = CircuitBuilder::new();
        let mut member_bits: Vec<Vec<crate::circuit::WireId>> = Vec::with_capacity(providers);
        let mut coin_words: Vec<Vec<Word>> = Vec::with_capacity(providers);
        for _ in 0..providers {
            member_bits.push((0..n).map(|_| cb.input()).collect());
            coin_words.push((0..n).map(|_| cb.input_word(coin_bits)).collect());
        }

        let mut decision_bits = Vec::with_capacity(n);
        let mut common_bits = Vec::with_capacity(n);
        let mut masked_freq_bits = Vec::with_capacity(n * freq_width);
        for j in 0..n {
            let column: Vec<_> = member_bits.iter().map(|row| row[j]).collect();
            let freq = cb.popcount(&column);
            let freq = cb.resize_word(&freq, freq_width);
            let t = cb.const_word(thresholds[j].min((1u64 << freq_width) - 1), freq_width);
            let common = cb.ge_words(&freq, &t);
            common_bits.push(common);

            let mut coin_u = coin_words[0][j].clone();
            for words in coin_words.iter().skip(1) {
                coin_u = cb.xor_words(&coin_u, &words[j]);
            }
            let coin_u = cb.resize_word(&coin_u, coin_bits + 1);
            let l = cb.const_word(lambda_threshold.min(1 << coin_bits), coin_bits + 1);
            let coin = cb.lt_words(&coin_u, &l);
            let decision = cb.or(common, coin);
            decision_bits.push(decision);

            // Reveal the frequency only when the identity publishes with
            // β = β*(σ) (decision = 0).
            let zero = cb.const_word(0, freq_width);
            let masked = cb.mux_word(decision, &zero, &freq);
            masked_freq_bits.extend_from_slice(masked.bits());
        }
        let count = cb.popcount(&common_bits);
        let mut outputs: Vec<_> = count.bits().to_vec();
        let count_width = outputs.len();
        outputs.extend(decision_bits);
        outputs.extend(masked_freq_bits);
        let circuit = cb.finish(outputs);

        PureConstructionCircuit {
            circuit,
            layout: InputLayout::new(vec![n * (1 + coin_bits); providers]),
            identities: n,
            providers,
            coin_bits,
            count_width,
            freq_width,
        }
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The per-party input layout.
    pub fn layout(&self) -> &InputLayout {
        &self.layout
    }

    /// Number of identities the circuit processes.
    pub fn identities(&self) -> usize {
        self.identities
    }

    /// Number of provider parties.
    pub fn providers(&self) -> usize {
        self.providers
    }

    /// Encodes one provider's membership bits and coin randomness.
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the identity count.
    pub fn encode_party_input(&self, membership: &[bool], coins: &[u64]) -> Vec<bool> {
        assert_eq!(membership.len(), self.identities, "one bit per identity");
        assert_eq!(coins.len(), self.identities, "one coin word per identity");
        let mut bits = membership.to_vec();
        bits.extend(encode_share_words(coins, self.coin_bits));
        bits
    }

    /// Decodes the opened output into `(common count, per-identity mix
    /// decisions, per-identity masked frequencies)`.
    ///
    /// A masked frequency is the true frequency for identities with a
    /// `false` decision and `0` otherwise.
    pub fn decode(&self, outputs: &[bool]) -> (u64, Vec<bool>, Vec<u64>) {
        let count = word_value(&outputs[..self.count_width]);
        let decisions = outputs[self.count_width..self.count_width + self.identities].to_vec();
        let freq_bits = &outputs[self.count_width + self.identities..];
        let freqs = freq_bits.chunks(self.freq_width).map(word_value).collect();
        (count, decisions, freqs)
    }
}

/// Fixed-point parameters of the naive in-circuit β computation.
///
/// The β formulas operate on real numbers; inside a Boolean circuit they
/// run in unsigned fixed point with `frac_bits` fractional bits:
/// `FP(x) = ⌊x · 2^frac_bits⌋`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedPoint {
    /// Fractional bits `k`.
    pub frac_bits: usize,
}

impl FixedPoint {
    /// Encodes a non-negative real into fixed point.
    pub fn encode(self, x: f64) -> u64 {
        (x.max(0.0) * (1u64 << self.frac_bits) as f64).floor() as u64
    }

    /// Decodes a fixed-point value back to a real.
    pub fn decode(self, v: u64) -> f64 {
        v as f64 / (1u64 << self.frac_bits) as f64
    }
}

/// The **naive** pure-MPC construction circuit: the entire β computation
/// of Eq. 3/5 — division, multiplication, *square root* — evaluated
/// inside the secure circuit, identity by identity.
///
/// This is the comparator the paper argues against (§IV-A: "even for a
/// single identity it involves fairly complex computation (e.g., square
/// root and logarithm as in Equation 5)"): ε-PPI's Formula-9 reordering
/// pushes all of this float math outside the MPC, keeping only a
/// threshold comparison inside. The cost difference between this circuit
/// and [`CountBelowCircuit`]/[`MixDecisionCircuit`] *is* the paper's
/// Fig. 6 performance story.
///
/// Per identity `j`, with `f` = private frequency (popcount of the
/// providers' input bits), all in fixed point (`k = frac_bits`):
///
/// ```text
/// β_b = f / ((m − f) · A_j)          A_j = FP(ε_j⁻¹ − 1)  (public)
/// G   = L / (m − f)                  L   = FP(ln 1/(1−γ)) (public)
/// β_c = β_b + G + sqrt(G² + 2·β_b·G)                      (Eq. 5)
/// common_j = β_c ≥ FP(1)
/// ```
///
/// Outputs match [`PureConstructionCircuit::decode`]: common count, mix
/// decisions (`common ∨ coin(λ)`), masked frequencies.
#[derive(Debug, Clone)]
pub struct NaiveConstructionCircuit {
    circuit: Circuit,
    layout: InputLayout,
    identities: usize,
    providers: usize,
    coin_bits: usize,
    count_width: usize,
    freq_width: usize,
}

impl NaiveConstructionCircuit {
    /// Compiles the naive circuit for `providers` parties.
    ///
    /// `a_fps[j] = FP(ε_j⁻¹ − 1)` per identity and `l_fp = FP(ln 1/(1−γ))`
    /// (pass `0` for the expectation-based policy, which drops the
    /// Chernoff terms).
    ///
    /// A zero `a_fps[j]` (ε = 1) makes the in-circuit division divide by
    /// zero, which by the divider's convention yields an all-ones β —
    /// i.e. the identity is always common, exactly the ε = 1 semantics.
    ///
    /// # Panics
    ///
    /// Panics if `providers == 0`, `a_fps` is empty, or
    /// `coin_bits`/`frac_bits` are out of `1..=32` / `1..=16`.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        providers: usize,
        a_fps: &[u64],
        l_fp: u64,
        fp: FixedPoint,
        coin_bits: usize,
        lambda_threshold: u64,
    ) -> Self {
        assert!(providers >= 1, "at least one provider required");
        assert!(!a_fps.is_empty(), "at least one identity required");
        assert!((1..=32).contains(&coin_bits), "coin bits must be in 1..=32");
        assert!(
            (1..=16).contains(&fp.frac_bits),
            "frac bits must be in 1..=16"
        );
        let n = a_fps.len();
        let k = fp.frac_bits;
        let freq_width = usize::BITS as usize - providers.leading_zeros() as usize + 1;
        // Working width: β_b ≤ f·2^2k when the denominator bottoms out.
        let ww = freq_width + 2 * k + 2;

        let mut cb = CircuitBuilder::new();
        let mut member_bits: Vec<Vec<crate::circuit::WireId>> = Vec::with_capacity(providers);
        let mut coin_words: Vec<Vec<Word>> = Vec::with_capacity(providers);
        for _ in 0..providers {
            member_bits.push((0..n).map(|_| cb.input()).collect());
            coin_words.push((0..n).map(|_| cb.input_word(coin_bits)).collect());
        }

        let mut decision_bits = Vec::with_capacity(n);
        let mut common_bits = Vec::with_capacity(n);
        let mut masked_freq_bits = Vec::with_capacity(n * freq_width);
        for j in 0..n {
            let column: Vec<_> = member_bits.iter().map(|row| row[j]).collect();
            let freq = cb.popcount(&column);
            let freq = cb.resize_word(&freq, freq_width);

            // --- the expensive in-circuit β computation -----------------
            let f_w = cb.resize_word(&freq, ww);
            let m_w = cb.const_word(providers as u64, ww);
            let mf = cb.sub_words(&m_w, &f_w); // m − f ≥ 0

            // β_b = (f << 2k) / (mf · A)
            let a_word = cb.const_word(a_fps[j], ww);
            let denom_full = cb.mul_words(&mf, &a_word); // value · 2^k
            let denom = cb.resize_word(&denom_full, ww);
            let num = cb.shl_words(&f_w, 2 * k);
            let num = cb.resize_word(&num, 2 * ww);
            let denom2 = cb.resize_word(&denom, 2 * ww);
            let (bb_raw, _) = cb.div_words(&num, &denom2); // FP(β_b)·2^k / 2^k
            let bb = cb.resize_word(&bb_raw, ww);

            // G = L / mf, computed as (L << k) / mf then >> k for
            // precision.
            let l_word = cb.const_word(l_fp << k, ww);
            let mf_div = cb.resize_word(&mf, ww);
            let (g_raw, _) = cb.div_words(&l_word, &mf_div);
            let g = Word::from_bits(g_raw.bits()[k..].to_vec()); // >> k
            let g = cb.resize_word(&g, ww);

            // sqrt(G² + 2·β_b·G)
            let g2_full = cb.mul_words(&g, &g);
            let g2 = Word::from_bits(g2_full.bits()[k..].to_vec());
            let g2 = cb.resize_word(&g2, ww);
            let bbg_full = cb.mul_words(&bb, &g);
            let bbg = Word::from_bits(bbg_full.bits()[k..].to_vec());
            let bbg = cb.resize_word(&bbg, ww);
            let bbg2 = cb.shl_words(&bbg, 1);
            let bbg2 = cb.resize_word(&bbg2, ww);
            let inner = cb.add_words(&g2, &bbg2);
            let inner_scaled = cb.shl_words(&inner, k); // · 2^k so sqrt stays FP
            let s = cb.sqrt_word(&inner_scaled);
            let s = cb.resize_word(&s, ww);

            // β_c = β_b + G + sqrt(…) ; common ⇔ β_c ≥ FP(1)
            let bc = cb.add_words(&bb, &g);
            let bc = cb.add_words(&bc, &s);
            let one_fp = cb.const_word(1u64 << k, ww);
            let common = cb.ge_words(&bc, &one_fp);
            common_bits.push(common);
            // ------------------------------------------------------------

            let mut coin_u = coin_words[0][j].clone();
            for words in coin_words.iter().skip(1) {
                coin_u = cb.xor_words(&coin_u, &words[j]);
            }
            let coin_u = cb.resize_word(&coin_u, coin_bits + 1);
            let l = cb.const_word(lambda_threshold.min(1 << coin_bits), coin_bits + 1);
            let coin = cb.lt_words(&coin_u, &l);
            let decision = cb.or(common, coin);
            decision_bits.push(decision);

            let zero = cb.const_word(0, freq_width);
            let masked = cb.mux_word(decision, &zero, &freq);
            masked_freq_bits.extend_from_slice(masked.bits());
        }
        let count = cb.popcount(&common_bits);
        let mut outputs: Vec<_> = count.bits().to_vec();
        let count_width = outputs.len();
        outputs.extend(decision_bits);
        outputs.extend(masked_freq_bits);
        let circuit = cb.finish(outputs);

        NaiveConstructionCircuit {
            circuit,
            layout: InputLayout::new(vec![n * (1 + coin_bits); providers]),
            identities: n,
            providers,
            coin_bits,
            count_width,
            freq_width,
        }
    }

    /// The compiled circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The per-party input layout.
    pub fn layout(&self) -> &InputLayout {
        &self.layout
    }

    /// Number of identities the circuit processes.
    pub fn identities(&self) -> usize {
        self.identities
    }

    /// Number of provider parties.
    pub fn providers(&self) -> usize {
        self.providers
    }

    /// Encodes one provider's membership bits and coin randomness (same
    /// wire format as [`PureConstructionCircuit::encode_party_input`]).
    ///
    /// # Panics
    ///
    /// Panics if either slice length differs from the identity count.
    pub fn encode_party_input(&self, membership: &[bool], coins: &[u64]) -> Vec<bool> {
        assert_eq!(membership.len(), self.identities, "one bit per identity");
        assert_eq!(coins.len(), self.identities, "one coin word per identity");
        let mut bits = membership.to_vec();
        bits.extend(encode_share_words(coins, self.coin_bits));
        bits
    }

    /// Decodes the opened output into `(common count, mix decisions,
    /// masked frequencies)`.
    pub fn decode(&self, outputs: &[bool]) -> (u64, Vec<bool>, Vec<u64>) {
        let count = word_value(&outputs[..self.count_width]);
        let decisions = outputs[self.count_width..self.count_width + self.identities].to_vec();
        let freqs = outputs[self.count_width + self.identities..]
            .chunks(self.freq_width)
            .map(word_value)
            .collect();
        (count, decisions, freqs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Modulus;
    use crate::gmw::GmwStats;
    use crate::share::split;
    use eppi_net::sim::LinkModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Evaluates `circuit` under GMW, seeded from `rng`.
    fn execute(
        circuit: &Circuit,
        layout: &InputLayout,
        inputs: &[Vec<bool>],
        rng: &mut StdRng,
    ) -> (Vec<bool>, GmwStats) {
        crate::gmw::execute(circuit, layout, inputs, LinkModel::LAN, rng.gen())
    }

    /// Splits each frequency into `c` additive shares over 2^width and
    /// returns the per-party share vectors.
    fn share_frequencies(freqs: &[u64], c: usize, width: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
        let q = Modulus::pow2(width as u32);
        let mut per_party = vec![vec![0u64; freqs.len()]; c];
        for (j, &f) in freqs.iter().enumerate() {
            let shares = split(f, c, q, rng);
            for (i, &s) in shares.values().iter().enumerate() {
                per_party[i][j] = s;
            }
        }
        per_party
    }

    #[test]
    fn count_below_counts_commons() {
        let mut rng = StdRng::seed_from_u64(1);
        let freqs = [95u64, 5, 50, 80, 0];
        let thresholds = [60u64, 60, 60, 60, 60];
        let cc = CountBelowCircuit::build(3, &thresholds, 12);
        let shares = share_frequencies(&freqs, 3, 12, &mut rng);
        let inputs: Vec<Vec<bool>> = shares.iter().map(|s| cc.encode_party_input(s)).collect();
        let (out, stats) = execute(cc.circuit(), cc.layout(), &inputs, &mut rng);
        assert_eq!(cc.decode_count(&out), 2); // 95 and 80 are ≥ 60.
        assert_eq!(stats.parties, 3);
    }

    #[test]
    fn count_below_per_identity_thresholds() {
        let mut rng = StdRng::seed_from_u64(2);
        let freqs = [30u64, 30, 30];
        let thresholds = [10u64, 30, 31];
        let cc = CountBelowCircuit::build(2, &thresholds, 8);
        let shares = share_frequencies(&freqs, 2, 8, &mut rng);
        let inputs: Vec<Vec<bool>> = shares.iter().map(|s| cc.encode_party_input(s)).collect();
        let (out, _) = execute(cc.circuit(), cc.layout(), &inputs, &mut rng);
        // 30 ≥ 10 ✓, 30 ≥ 30 ✓, 30 ≥ 31 ✗.
        assert_eq!(cc.decode_count(&out), 2);
    }

    #[test]
    fn count_below_matches_cleartext_eval() {
        let mut rng = StdRng::seed_from_u64(3);
        let freqs: Vec<u64> = (0..8).map(|_| rng.gen_range(0..200)).collect();
        let thresholds: Vec<u64> = (0..8).map(|_| rng.gen_range(0..200)).collect();
        let cc = CountBelowCircuit::build(3, &thresholds, 9);
        let shares = share_frequencies(&freqs, 3, 9, &mut rng);
        let inputs: Vec<Vec<bool>> = shares.iter().map(|s| cc.encode_party_input(s)).collect();
        let flat = cc.layout().flatten(&inputs);
        let clear = cc.decode_count(&cc.circuit().eval(&flat));
        let (out, _) = execute(cc.circuit(), cc.layout(), &inputs, &mut rng);
        let expected = freqs
            .iter()
            .zip(&thresholds)
            .filter(|(f, t)| f >= t)
            .count() as u64;
        assert_eq!(clear, expected);
        assert_eq!(cc.decode_count(&out), expected);
    }

    #[test]
    fn mix_decision_lambda_zero_flags_only_commons() {
        let mut rng = StdRng::seed_from_u64(4);
        let freqs = [90u64, 10, 70];
        let thresholds = [50u64, 50, 50];
        let mc = MixDecisionCircuit::build(3, &thresholds, 10, 8, 0);
        let shares = share_frequencies(&freqs, 3, 10, &mut rng);
        let inputs: Vec<Vec<bool>> = shares
            .iter()
            .map(|s| {
                let coins: Vec<u64> = (0..3).map(|_| rng.gen_range(0..256)).collect();
                mc.encode_party_input(s, &coins)
            })
            .collect();
        let (out, _) = execute(mc.circuit(), mc.layout(), &inputs, &mut rng);
        assert_eq!(mc.decode_decisions(&out), vec![true, false, true]);
    }

    #[test]
    fn mix_decision_lambda_one_flags_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let freqs = [1u64, 2];
        let thresholds = [50u64, 50];
        let k = 8usize;
        let mc = MixDecisionCircuit::build(2, &thresholds, 10, k, lambda_threshold(1.0, k));
        let shares = share_frequencies(&freqs, 2, 10, &mut rng);
        let inputs: Vec<Vec<bool>> = shares
            .iter()
            .map(|s| {
                let coins: Vec<u64> = (0..2).map(|_| rng.gen_range(0..256)).collect();
                mc.encode_party_input(s, &coins)
            })
            .collect();
        let (out, _) = execute(mc.circuit(), mc.layout(), &inputs, &mut rng);
        assert_eq!(mc.decode_decisions(&out), vec![true, true]);
    }

    #[test]
    fn mix_decision_coin_rate_tracks_lambda() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 400usize;
        let freqs = vec![1u64; n];
        let thresholds = vec![1000u64; n]; // nothing common
        let k = 10usize;
        let lambda = 0.25;
        let mc = MixDecisionCircuit::build(2, &thresholds, 11, k, lambda_threshold(lambda, k));
        let shares = share_frequencies(&freqs, 2, 11, &mut rng);
        let inputs: Vec<Vec<bool>> = shares
            .iter()
            .map(|s| {
                let coins: Vec<u64> = (0..n).map(|_| rng.gen_range(0..(1 << k))).collect();
                mc.encode_party_input(s, &coins)
            })
            .collect();
        let flat = mc.layout().flatten(&inputs);
        let out = mc.circuit().eval(&flat);
        let rate = out.iter().filter(|&&b| b).count() as f64 / n as f64;
        assert!(
            (rate - lambda).abs() < 0.08,
            "coin rate {rate} vs λ {lambda}"
        );
    }

    #[test]
    fn pure_construction_counts_and_decides() {
        let mut rng = StdRng::seed_from_u64(7);
        let providers = 6usize;
        // Identity 0 in all providers; identity 1 in one.
        let membership: Vec<Vec<bool>> = (0..providers).map(|p| vec![true, p == 0]).collect();
        let thresholds = [5u64, 5];
        let pc = PureConstructionCircuit::build(providers, &thresholds, 8, 0);
        let inputs: Vec<Vec<bool>> = membership
            .iter()
            .map(|m| {
                let coins: Vec<u64> = (0..2).map(|_| rng.gen_range(0..256)).collect();
                pc.encode_party_input(m, &coins)
            })
            .collect();
        let (out, stats) = execute(pc.circuit(), pc.layout(), &inputs, &mut rng);
        let (count, decisions, freqs) = pc.decode(&out);
        assert_eq!(count, 1);
        assert_eq!(decisions, vec![true, false]);
        // Identity 0 decided common ⇒ frequency hidden; identity 1
        // publishes with β* ⇒ frequency (1) revealed.
        assert_eq!(freqs, vec![0, 1]);
        assert_eq!(stats.parties, providers);
    }

    #[test]
    fn pure_circuit_grows_with_providers_while_count_below_does_not() {
        let thresholds = [10u64];
        let small = PureConstructionCircuit::build(4, &thresholds, 4, 0)
            .circuit()
            .stats()
            .total_gates;
        let large = PureConstructionCircuit::build(32, &thresholds, 4, 0)
            .circuit()
            .stats()
            .total_gates;
        assert!(
            large > 3 * small,
            "pure circuit should grow with m: {small} vs {large}"
        );

        let c_small = CountBelowCircuit::build(3, &thresholds, 16)
            .circuit()
            .stats()
            .total_gates;
        // CountBelow depends on c, not m — identical for any network size.
        assert_eq!(
            c_small,
            CountBelowCircuit::build(3, &thresholds, 16)
                .circuit()
                .stats()
                .total_gates
        );
    }

    /// Cleartext fixed-point reference of the in-circuit β_c (mirrors
    /// the circuit's arithmetic exactly).
    fn naive_beta_fp(f: u64, m: u64, a_fp: u64, l_fp: u64, k: usize) -> u64 {
        let mf = m - f;
        let denom = mf * a_fp;
        let bb = (f << (2 * k)).checked_div(denom).unwrap_or(u64::MAX);
        let g = (l_fp << k).checked_div(mf).unwrap_or(u64::MAX) >> k;
        let inner = (g * g) >> k;
        let bbg2 = ((bb * g) >> k) << 1;
        let s = (((inner + bbg2) << k) as f64).sqrt().floor() as u64;
        bb + g + s
    }

    #[test]
    fn naive_circuit_matches_fixed_point_reference() {
        let fp = FixedPoint { frac_bits: 8 };
        let providers = 12usize;
        // ε = 0.5 ⇒ A = 1; γ = 0.9 ⇒ L = ln 10 ≈ 2.3026.
        let a_fp = fp.encode(1.0);
        let l_fp = fp.encode((1.0f64 / 0.1).ln());
        let nc = NaiveConstructionCircuit::build(providers, &[a_fp, a_fp, a_fp], l_fp, fp, 4, 0);

        // Frequencies 2 (rare), 6 (σ = 0.5 — exactly at the β_b = 1
        // boundary for ε = 0.5, so Chernoff pushes it over), 11 (common).
        let freqs = [2usize, 6, 11];
        let membership: Vec<Vec<bool>> = (0..providers)
            .map(|p| freqs.iter().map(|&f| p < f).collect())
            .collect();
        let mut rng = StdRng::seed_from_u64(1);
        let inputs: Vec<Vec<bool>> = membership
            .iter()
            .map(|m| {
                let coins: Vec<u64> = (0..3).map(|_| rng.gen_range(0..16)).collect();
                nc.encode_party_input(m, &coins)
            })
            .collect();
        let out = nc.circuit().eval(&nc.layout().flatten(&inputs));
        let (count, decisions, masked) = nc.decode(&out);

        let one_fp = 1u64 << fp.frac_bits;
        let expected: Vec<bool> = freqs
            .iter()
            .map(|&f| naive_beta_fp(f as u64, providers as u64, a_fp, l_fp, fp.frac_bits) >= one_fp)
            .collect();
        assert_eq!(decisions, expected, "β_c threshold decisions");
        assert_eq!(count, expected.iter().filter(|&&b| b).count() as u64);
        // Frequencies of flagged identities stay hidden.
        for (j, (&d, &f)) in expected.iter().zip(&freqs).enumerate() {
            assert_eq!(masked[j], if d { 0 } else { f as u64 }, "identity {j}");
        }
        // Sanity on the shape: rare is not common, full-frequency is.
        assert!(!expected[0]);
        assert!(expected[2]);
    }

    #[test]
    fn naive_circuit_runs_under_gmw() {
        let fp = FixedPoint { frac_bits: 6 };
        let providers = 5usize;
        let a_fp = fp.encode(1.0);
        let nc = NaiveConstructionCircuit::build(providers, &[a_fp], fp.encode(2.3), fp, 4, 0);
        let mut rng = StdRng::seed_from_u64(2);
        let inputs: Vec<Vec<bool>> = (0..providers)
            .map(|p| nc.encode_party_input(&[p < 4], &[rng.gen_range(0..16)]))
            .collect();
        let clear = nc.circuit().eval(&nc.layout().flatten(&inputs));
        let (secure, stats) = execute(nc.circuit(), nc.layout(), &inputs, &mut rng);
        assert_eq!(clear, secure);
        assert_eq!(stats.parties, providers);
    }

    #[test]
    fn naive_circuit_dwarfs_threshold_only_circuits() {
        let fp = FixedPoint { frac_bits: 8 };
        let a_fp = fp.encode(1.0);
        let naive = NaiveConstructionCircuit::build(9, &[a_fp], fp.encode(2.3), fp, 8, 0)
            .circuit()
            .stats()
            .total_gates;
        let compare_only = PureConstructionCircuit::build(9, &[5], 8, 0)
            .circuit()
            .stats()
            .total_gates;
        assert!(
            naive > 10 * compare_only,
            "in-circuit β ({naive} gates) must dwarf the compare-only circuit ({compare_only})"
        );
    }

    /// Every circuit the builder makes folds its public constants: no
    /// gate takes a constant operand, there are at most two constant
    /// wires, and a public comparison stays inside its per-identity AND
    /// budget — across party counts, share widths, thresholds at the
    /// bit-pattern edges (0, 1, powers of two, 2^w − 1, clamped) and λ
    /// from 0 to 1. CountBelow and mix also still compute what they
    /// should on those edges.
    #[test]
    fn circuits_fold_public_constants_within_their_and_budgets() {
        use crate::builder::tests::assert_folded;
        let k = 8usize;
        let lambdas = [0.0, 2f64.powi(-(k as i32)), 0.1656, 1.0];
        let mut rng = StdRng::seed_from_u64(8);
        for c in [2usize, 3, 5] {
            for w in [1usize, 4, 7, 9] {
                let top = (1u64 << w) - 1;
                let mut thresholds = vec![0, 1, top, top + 1, top + 100];
                thresholds.extend((1..w).map(|i| 1u64 << i));
                let n = thresholds.len();
                let popcount_ands = {
                    let mut cb = CircuitBuilder::new();
                    let bits = cb.input_word(n);
                    let count = cb.popcount(bits.bits());
                    cb.finish_word(count).stats().and_gates
                };
                let compare = (c - 1) * (2 * w - 1) + (w - 1);
                let what = format!("c={c} w={w}");

                let freqs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..=top)).collect();
                let shares = share_frequencies(&freqs, c, w, &mut rng);
                let common: Vec<bool> = freqs
                    .iter()
                    .zip(&thresholds)
                    .map(|(&f, &t)| f >= t.min(top))
                    .collect();

                let cc = CountBelowCircuit::build(c, &thresholds, w);
                assert_folded(cc.circuit());
                let ands = cc.circuit().stats().and_gates;
                assert!(ands <= n * compare + popcount_ands, "{what}: {ands} ANDs");
                let inputs: Vec<Vec<bool>> =
                    shares.iter().map(|s| cc.encode_party_input(s)).collect();
                let count = cc.decode_count(&cc.circuit().eval(&cc.layout().flatten(&inputs)));
                assert_eq!(
                    count,
                    common.iter().filter(|&&b| b).count() as u64,
                    "{what}"
                );

                for lambda in lambdas {
                    let lam = lambda_threshold(lambda, k);
                    let what = format!("{what} λ={lambda}");
                    let mc = MixDecisionCircuit::build(c, &thresholds, w, k, lam);
                    assert_folded(mc.circuit());
                    let ands = mc.circuit().stats().and_gates;
                    assert!(ands <= n * (compare + k + 1), "{what}: {ands} ANDs");
                    let coins: Vec<Vec<u64>> = (0..c)
                        .map(|_| (0..n).map(|_| rng.gen_range(0..1 << k)).collect())
                        .collect();
                    let inputs: Vec<Vec<bool>> = shares
                        .iter()
                        .zip(&coins)
                        .map(|(s, coins)| mc.encode_party_input(s, coins))
                        .collect();
                    let decisions =
                        mc.decode_decisions(&mc.circuit().eval(&mc.layout().flatten(&inputs)));
                    for j in 0..n {
                        let coin = coins.iter().fold(0, |u, party| u ^ party[j]);
                        assert_eq!(decisions[j], common[j] || coin < lam, "{what} identity {j}");
                    }

                    let pc = PureConstructionCircuit::build(c, &thresholds, k, lam);
                    assert_folded(pc.circuit());
                }
            }
        }
        let fp = FixedPoint { frac_bits: 4 };
        for providers in [2usize, 3, 5] {
            let nc = NaiveConstructionCircuit::build(
                providers,
                &[0, 1, fp.encode(1.0), fp.encode(2.5)],
                fp.encode(2.3),
                fp,
                4,
                lambda_threshold(0.1656, 4),
            );
            assert_folded(nc.circuit());
        }
    }

    #[test]
    fn fixed_point_roundtrip() {
        let fp = FixedPoint { frac_bits: 8 };
        assert_eq!(fp.encode(1.0), 256);
        assert_eq!(fp.encode(0.5), 128);
        assert!((fp.decode(fp.encode(2.302)) - 2.302).abs() < 1.0 / 256.0);
        assert_eq!(fp.encode(-1.0), 0);
    }

    #[test]
    fn lambda_threshold_conversion() {
        assert_eq!(lambda_threshold(0.0, 8), 0);
        assert_eq!(lambda_threshold(1.0, 8), 256);
        assert_eq!(lambda_threshold(0.5, 8), 128);
        assert_eq!(lambda_threshold(2.0, 8), 256); // clamped
        assert_eq!(lambda_threshold(-1.0, 8), 0); // clamped
    }
}
