//! Privacy metrics and degrees (§II-C).
//!
//! The paper measures privacy disclosure by the attacker's confidence
//! that an attack on `(t_j, p_i)` with `M'(i,j) = 1` succeeds:
//! `Pr(M(i,j)=1 | M'(i,j)=1)`, averaged over the published row — which
//! equals `1 − fp_j`, where `fp_j` is the row's false-positive rate. A
//! construction is ε-PRIVATE for owner `t_j` when `fp_j ≥ ε_j`.

use crate::model::{Epsilon, MembershipMatrix, OwnerId, PublishedIndex};
use serde::{Deserialize, Serialize};

/// Discrete privacy degrees of §II-C's information-flow model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrivacyDegree {
    /// The information cannot flow to the attacker at all (highest level).
    Unleaked,
    /// Leakage is quantitatively bounded: attacker confidence `≤ 1 − ε`.
    EpsPrivate,
    /// Information flows and no bound can be given.
    NoGuarantee,
    /// The design does not address the leak; attacks succeed with
    /// certainty (lowest level).
    NoProtect,
}

/// Per-owner privacy measurement of one published index against ground
/// truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OwnerPrivacy {
    /// The owner measured.
    pub owner: OwnerId,
    /// True frequency count (`σ_j · m`).
    pub true_frequency: usize,
    /// Published frequency count (row weight of `M'`).
    pub published_frequency: usize,
    /// The achieved false-positive rate `fp_j`, if the row has any
    /// published positives.
    pub false_positive_rate: Option<f64>,
}

impl OwnerPrivacy {
    /// The primary attacker's expected confidence `1 − fp_j` against this
    /// owner; `None` when the published row is empty (nothing to attack).
    pub fn attacker_confidence(&self) -> Option<f64> {
        self.false_positive_rate.map(|fp| 1.0 - fp)
    }

    /// Whether the measurement satisfies the owner's requirement
    /// `fp_j ≥ ε_j`.
    ///
    /// An owner with an empty published row trivially satisfies any ε
    /// (there is nothing for the primary attacker to pick); an owner with
    /// no true records satisfies any ε as well (every published positive
    /// is false).
    pub fn satisfies(&self, eps: Epsilon) -> bool {
        match self.false_positive_rate {
            Some(fp) => fp >= eps.value() - 1e-12,
            None => true,
        }
    }
}

/// Measures the false-positive rate `fp_j` of one owner's published row.
///
/// Returns `None` when the published row is empty.
///
/// # Panics
///
/// Panics if the dimensions of `truth` and `published` disagree.
pub fn owner_privacy(
    truth: &MembershipMatrix,
    published: &PublishedIndex,
    owner: OwnerId,
) -> OwnerPrivacy {
    assert_eq!(
        truth.providers(),
        published.matrix().providers(),
        "provider count mismatch"
    );
    assert_eq!(
        truth.owners(),
        published.matrix().owners(),
        "owner count mismatch"
    );
    let true_frequency = truth.frequency(owner);
    let published_frequency = published.published_frequency(owner);
    let false_positive_rate = if published_frequency == 0 {
        None
    } else {
        let mut false_pos = 0usize;
        for p in truth.provider_ids() {
            if published.matrix().get(p, owner) && !truth.get(p, owner) {
                false_pos += 1;
            }
        }
        Some(false_pos as f64 / published_frequency as f64)
    };
    OwnerPrivacy {
        owner,
        true_frequency,
        published_frequency,
        false_positive_rate,
    }
}

/// The paper's *success ratio* metric (§V-A): the fraction of owners whose
/// achieved false-positive rate meets their requested `ε_j`.
///
/// Owners whose rows give the attacker nothing to act on (empty published
/// row) count as successes; owners with no true records are excluded only
/// if `exclude_absent` is set (the effectiveness experiments measure
/// indexed identities).
///
/// # Panics
///
/// Panics if `epsilons.len()` differs from the owner count.
pub fn success_ratio(
    truth: &MembershipMatrix,
    published: &PublishedIndex,
    epsilons: &[Epsilon],
    exclude_absent: bool,
) -> f64 {
    assert_eq!(truth.owners(), epsilons.len(), "one ε per owner required");
    let mut total = 0usize;
    let mut ok = 0usize;
    for owner in truth.owner_ids() {
        let m = owner_privacy(truth, published, owner);
        if exclude_absent && m.true_frequency == 0 {
            continue;
        }
        total += 1;
        if m.satisfies(epsilons[owner.index()]) {
            ok += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        ok as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProviderId;

    fn idx_from(m: MembershipMatrix, betas: Vec<f64>) -> PublishedIndex {
        PublishedIndex::new(m, betas)
    }

    #[test]
    fn fp_rate_counts_false_positives() {
        // Truth: p0 has t0. Published: p0, p1, p2 claim t0.
        let mut truth = MembershipMatrix::new(4, 1);
        truth.set(ProviderId(0), OwnerId(0), true);
        let mut pubm = truth.clone();
        pubm.set(ProviderId(1), OwnerId(0), true);
        pubm.set(ProviderId(2), OwnerId(0), true);
        let published = idx_from(pubm, vec![0.5]);
        let m = owner_privacy(&truth, &published, OwnerId(0));
        assert_eq!(m.true_frequency, 1);
        assert_eq!(m.published_frequency, 3);
        assert!((m.false_positive_rate.unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((m.attacker_confidence().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_row_has_no_rate() {
        let truth = MembershipMatrix::new(3, 1);
        let published = idx_from(MembershipMatrix::new(3, 1), vec![0.0]);
        let m = owner_privacy(&truth, &published, OwnerId(0));
        assert_eq!(m.false_positive_rate, None);
        assert!(m.satisfies(Epsilon::ONE));
    }

    #[test]
    fn no_noise_means_full_confidence() {
        let mut truth = MembershipMatrix::new(3, 1);
        truth.set(ProviderId(1), OwnerId(0), true);
        let published = idx_from(truth.clone(), vec![0.0]);
        let m = owner_privacy(&truth, &published, OwnerId(0));
        assert_eq!(m.false_positive_rate, Some(0.0));
        assert_eq!(m.attacker_confidence(), Some(1.0));
        assert!(!m.satisfies(Epsilon::new(0.5).unwrap()));
        assert!(m.satisfies(Epsilon::ZERO));
    }

    #[test]
    fn success_ratio_mixes_owners() {
        // Owner 0: fp = 2/3 ≥ 0.5 ✓; owner 1: fp = 0 < 0.5 ✗.
        let mut truth = MembershipMatrix::new(3, 2);
        truth.set(ProviderId(0), OwnerId(0), true);
        truth.set(ProviderId(1), OwnerId(1), true);
        let mut pubm = truth.clone();
        pubm.set(ProviderId(1), OwnerId(0), true);
        pubm.set(ProviderId(2), OwnerId(0), true);
        let published = idx_from(pubm, vec![0.5, 0.5]);
        let eps = vec![Epsilon::new(0.5).unwrap(); 2];
        let r = success_ratio(&truth, &published, &eps, false);
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exclude_absent_skips_zero_frequency_owners() {
        let truth = MembershipMatrix::new(3, 2);
        let published = idx_from(MembershipMatrix::new(3, 2), vec![0.0, 0.0]);
        let eps = vec![Epsilon::new(0.9).unwrap(); 2];
        // All owners are absent: excluded population is empty ⇒ ratio 1.
        assert_eq!(success_ratio(&truth, &published, &eps, true), 1.0);
        assert_eq!(success_ratio(&truth, &published, &eps, false), 1.0);
    }
}
