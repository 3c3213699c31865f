//! Privacy constraints and privacy-enhancing mechanisms.
//!
//! The paper (§2.3) describes a spectrum for enterprise federated ML:
//! sharing only *aggregates*, encrypting channels (see `exdra-net::crypto`),
//! and privacy-enhancing technologies like differential privacy. Federated
//! data objects carry a [`PrivacyLevel`]; workers enforce it on every `GET`
//! and the executor propagates derived levels through instructions
//! (§4.1: workers "check privacy constraints (e.g., for data exchange)").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use exdra_matrix::DenseMatrix;

/// Data-exchange constraint attached to (federated) data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrivacyLevel {
    /// May be transferred freely.
    Public,
    /// Raw values must not leave the site, but aggregates combining at
    /// least `min_group` observations may.
    PrivateAggregate {
        /// Minimum number of observations per released cell.
        min_group: usize,
    },
    /// Must never leave the site, not even in aggregate form.
    Private,
}

impl PrivacyLevel {
    /// The stricter of two levels (used when an op combines inputs).
    pub fn max(self, other: PrivacyLevel) -> PrivacyLevel {
        use PrivacyLevel::*;
        match (self, other) {
            (Private, _) | (_, Private) => Private,
            (PrivateAggregate { min_group: a }, PrivateAggregate { min_group: b }) => {
                PrivateAggregate {
                    min_group: a.max(b),
                }
            }
            (pa @ PrivateAggregate { .. }, Public) | (Public, pa @ PrivateAggregate { .. }) => pa,
            (Public, Public) => Public,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PrivacyLevel::Public => "public",
            PrivacyLevel::PrivateAggregate { .. } => "private-aggregate",
            PrivacyLevel::Private => "private",
        }
    }
}

/// Wire tag helpers (used by the protocol module).
impl PrivacyLevel {
    /// Encodes to `(tag, min_group)`.
    pub fn to_parts(self) -> (u8, u64) {
        match self {
            PrivacyLevel::Public => (0, 0),
            PrivacyLevel::PrivateAggregate { min_group } => (1, min_group as u64),
            PrivacyLevel::Private => (2, 0),
        }
    }

    /// Decodes from `(tag, min_group)`: `None` for an unknown tag, or for
    /// a group on a level that has none, so each level has one encoding.
    pub fn from_parts(tag: u8, min_group: u64) -> Option<Self> {
        match (tag, min_group) {
            (0, 0) => Some(PrivacyLevel::Public),
            (1, _) => Some(PrivacyLevel::PrivateAggregate {
                min_group: min_group as usize,
            }),
            (2, 0) => Some(PrivacyLevel::Private),
            _ => None,
        }
    }
}

/// Release decision for one symbol-table entry.
///
/// `releasable` is maintained by the executor: it becomes true once every
/// private input has been aggregated over at least `min_group` observations.
pub fn may_release(level: PrivacyLevel, releasable: bool) -> bool {
    match level {
        PrivacyLevel::Public => true,
        PrivacyLevel::PrivateAggregate { .. } => releasable,
        PrivacyLevel::Private => false,
    }
}

/// Adds Laplace noise with scale `sensitivity / epsilon` to every cell —
/// the classic ε-differential-privacy mechanism for released aggregates.
pub fn laplace_mechanism(
    m: &DenseMatrix,
    sensitivity: f64,
    epsilon: f64,
    seed: u64,
) -> DenseMatrix {
    let scale = sensitivity / epsilon;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = m.clone();
    for v in out.values_mut() {
        let u: f64 = rng.gen_range(-0.5..0.5);
        *v -= scale * u.signum() * (1.0 - 2.0 * u.abs()).ln();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_prefers_stricter() {
        let pa = PrivacyLevel::PrivateAggregate { min_group: 10 };
        let pb = PrivacyLevel::PrivateAggregate { min_group: 50 };
        assert_eq!(PrivacyLevel::Public.max(pa), pa);
        assert_eq!(pa.max(pb), pb);
        assert_eq!(pa.max(PrivacyLevel::Private), PrivacyLevel::Private);
        assert_eq!(
            PrivacyLevel::Public.max(PrivacyLevel::Public),
            PrivacyLevel::Public
        );
    }

    #[test]
    fn release_rules() {
        assert!(may_release(PrivacyLevel::Public, false));
        assert!(!may_release(PrivacyLevel::Private, true));
        let pa = PrivacyLevel::PrivateAggregate { min_group: 5 };
        assert!(!may_release(pa, false));
        assert!(may_release(pa, true));
    }

    #[test]
    fn parts_roundtrip() {
        for lvl in [
            PrivacyLevel::Public,
            PrivacyLevel::PrivateAggregate { min_group: 7 },
            PrivacyLevel::Private,
        ] {
            let (t, g) = lvl.to_parts();
            assert_eq!(PrivacyLevel::from_parts(t, g), Some(lvl));
        }
        assert_eq!(PrivacyLevel::from_parts(9, 0), None);
        assert_eq!(PrivacyLevel::from_parts(0, 5), None);
        assert_eq!(PrivacyLevel::from_parts(2, 1), None);
    }

    #[test]
    fn laplace_noise_unbiased_and_scaled() {
        let m = DenseMatrix::filled(100, 100, 10.0);
        let noisy = laplace_mechanism(&m, 1.0, 0.5, 7);
        let mean = noisy.values().iter().sum::<f64>() / noisy.len() as f64;
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        // Variance of Laplace(b) is 2b^2 = 8 for b = 2.
        let var = noisy
            .values()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / noisy.len() as f64;
        assert!((var - 8.0).abs() < 1.5, "var {var}");
    }
}
