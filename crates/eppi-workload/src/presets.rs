//! Paper-scale dataset presets.
//!
//! The paper's dataset \[23\] spans 2,500–25,000 "collections" (providers)
//! derived from TREC-WT10g, with source URLs as identities and a default
//! cap of 10,000 providers in the experiments. These presets bundle the
//! corresponding generator configurations so experiments and examples
//! can say `Preset::Default.build(rng)` instead of repeating magic
//! numbers.

use crate::collections::CollectionTable;
use eppi_core::model::MembershipMatrix;
use rand::Rng;

/// Named network scales mirroring §V-A's setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The dataset's smallest configuration: 2,500 providers.
    Small,
    /// The experiments' default: 10,000 providers ("if not otherwise
    /// specified, we use no more than 10,000 providers").
    Default,
    /// The dataset's largest configuration: 25,000 providers.
    Large,
    /// A miniature for tests and doc examples: 250 providers.
    Mini,
}

impl Preset {
    /// Number of providers `m`.
    pub fn providers(self) -> usize {
        match self {
            Preset::Small => 2_500,
            Preset::Default => 10_000,
            Preset::Large => 25_000,
            Preset::Mini => 250,
        }
    }

    /// Number of owner identities `n` (the paper indexes many more
    /// identities than providers; we scale at 2× for tractable sweeps).
    pub fn owners(self) -> usize {
        self.providers() * 2
    }

    /// Builds the membership matrix with TREC-like skew: Zipf(1.0)
    /// frequencies from 1 up to 5% of the network.
    pub fn build<R: Rng + ?Sized>(self, rng: &mut R) -> MembershipMatrix {
        CollectionTable::new(self.providers(), self.owners())
            .zipf_exponent(1.0)
            .min_frequency(1)
            .max_frequency(self.providers() / 20)
            .build(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preset_scales_match_the_paper() {
        assert_eq!(Preset::Small.providers(), 2_500);
        assert_eq!(Preset::Default.providers(), 10_000);
        assert_eq!(Preset::Large.providers(), 25_000);
    }

    #[test]
    fn mini_preset_builds_quickly_and_consistently() {
        let mut rng = StdRng::seed_from_u64(1);
        let matrix = Preset::Mini.build(&mut rng);
        assert_eq!(matrix.providers(), 250);
        assert_eq!(matrix.owners(), 500);
        let freqs = matrix.frequencies();
        assert!(freqs.iter().all(|&f| (1..=12).contains(&f)));
    }
}
