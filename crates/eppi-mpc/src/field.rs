//! Modular arithmetic over the share group `Z_q`.
//!
//! Additive secret sharing (§IV-B.1 of the paper) works over any cyclic
//! group `Z_q`; the paper's running example uses `q = 5`. Two choices
//! matter in practice:
//!
//! * a **power-of-two modulus** `q = 2^w` lets the Boolean-circuit stage
//!   (CountBelow) reduce sums for free by dropping the carry, and
//! * a **prime modulus** is required if shares are later multiplied
//!   (not needed by ε-PPI, but supported for completeness).
//!
//! The modulus only needs to exceed the largest possible secret (the
//! identity frequency `σ_j · m ≤ m`).

use rand::Rng;
use std::fmt;

/// A share-group modulus `q ≥ 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus(u64);

impl Modulus {
    /// The default protocol modulus `2^32`: wrap-free for any network of
    /// fewer than 4·10⁹ providers and circuit-friendly (32-bit words).
    pub const DEFAULT: Modulus = Modulus(1 << 32);

    /// Creates a modulus.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2, got {q}");
        Modulus(q)
    }

    /// Creates the power-of-two modulus `2^bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ bits ≤ 63`.
    pub fn pow2(bits: u32) -> Self {
        assert!(
            (1..=63).contains(&bits),
            "bits must be in 1..=63, got {bits}"
        );
        Modulus(1u64 << bits)
    }

    /// The raw modulus value `q`.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Number of bits needed to represent an element (`⌈log₂ q⌉`).
    pub fn bits(self) -> u32 {
        if self.0.is_power_of_two() {
            self.0.trailing_zeros()
        } else {
            64 - (self.0 - 1).leading_zeros()
        }
    }

    /// Reduces an arbitrary value into `[0, q)`.
    #[inline]
    pub fn reduce(self, v: u64) -> u64 {
        v % self.0
    }

    /// Modular addition.
    #[inline]
    pub fn add(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.0 && b < self.0);
        let s = (a as u128 + b as u128) % self.0 as u128;
        s as u64
    }

    /// Modular subtraction.
    #[inline]
    pub fn sub(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.0 && b < self.0);
        if a >= b {
            a - b
        } else {
            a + (self.0 - b)
        }
    }

    /// Modular multiplication (via 128-bit intermediate).
    #[inline]
    pub fn mul(self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.0 && b < self.0);
        ((a as u128 * b as u128) % self.0 as u128) as u64
    }

    /// Samples a uniform element of `Z_q`.
    pub fn random<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.0)
    }
}

impl Default for Modulus {
    fn default() -> Self {
        Modulus::DEFAULT
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Z_{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(97);
        for a in [0u64, 1, 50, 96] {
            for b in [0u64, 1, 47, 96] {
                let s = q.add(a, b);
                assert!(s < 97);
                assert_eq!(q.sub(s, b), a, "a={a} b={b}");
            }
            // The additive inverse: a + (0 − a) = 0.
            assert_eq!(q.add(a, q.sub(0, a)), 0);
        }
    }

    #[test]
    fn paper_example_modulus_five() {
        // The worked example in Fig. 3: (2 + 3 + 0) mod 5 = 0.
        let q = Modulus::new(5);
        assert_eq!(q.add(q.add(2, 3), 0), 0);
        // (4 + 2) mod 5 = 1 (coordinator super-share sum).
        assert_eq!(q.add(4, 2), 1);
        // (1 + 4 + 2) mod 5 = 2 (total appearances of t0).
        assert_eq!(q.add(q.add(1, 4), 2), 2);
    }

    #[test]
    fn mul_matches_bigint() {
        let q = Modulus::new((1 << 61) - 1);
        let a = 0xdeadbeefdeadbeu64 % q.value();
        let b = 0x1234567890abcdu64 % q.value();
        let expect = ((a as u128 * b as u128) % q.value() as u128) as u64;
        assert_eq!(q.mul(a, b), expect);
    }

    #[test]
    fn pow2_properties() {
        let q = Modulus::pow2(32);
        assert_eq!(q.bits(), 32);
        assert_eq!(q.value(), 1 << 32);
        let q5 = Modulus::new(5);
        assert_eq!(q5.bits(), 3);
    }

    #[test]
    fn random_is_in_range() {
        let q = Modulus::new(7);
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..200 {
            let v = q.random(&mut rng);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn modulus_one_rejected() {
        Modulus::new(1);
    }

    #[test]
    fn display() {
        assert_eq!(Modulus::new(5).to_string(), "Z_5");
    }
}
