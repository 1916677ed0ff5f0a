//! Serializable instance specifications.
//!
//! [`Instance`] keeps its invariants behind private fields, so it is not
//! directly (de)serializable. [`InstanceSpec`] is the plain-data twin: a
//! JSON-friendly description that can be saved, shared, and rebuilt into
//! a validated [`Instance`] — the artifact a research group would check
//! into a repo to pin an experiment.
//!
//! # Examples
//!
//! ```
//! use wrsn_core::{InstanceSampler, InstanceSpec};
//! use wrsn_geom::Field;
//!
//! let original = InstanceSampler::new(Field::square(200.0), 8, 16).sample(1);
//! let spec = InstanceSpec::from_instance(&original).expect("geometric");
//! let json = spec.to_json();
//! let rebuilt = InstanceSpec::from_json(&json).unwrap().build().unwrap();
//! assert_eq!(rebuilt, original);
//! ```

use crate::{BuildError, ChargeSpec, GainKind, GeometricInstanceBuilder, Instance};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use wrsn_energy::{Energy, RadioParams, TxLevels};
use wrsn_geom::Point;

/// Error reading an [`InstanceSpec`] from JSON.
#[derive(Debug)]
pub enum SpecError {
    /// The document was not valid JSON for the spec schema.
    Parse(serde_json::Error),
    /// The spec parsed but described an invalid instance.
    Build(BuildError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "parsing instance spec: {e}"),
            SpecError::Build(e) => write!(f, "spec describes an invalid instance: {e}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            SpecError::Build(e) => Some(e),
        }
    }
}

/// The serializable gain-curve description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum GainSpec {
    /// `k(m) = m`.
    Linear,
    /// `k(m) = m^p`.
    Sublinear {
        /// The exponent `p ∈ (0, 1]`.
        exponent: f64,
    },
    /// Tabulated `k(m)` samples starting at `k(1) = 1`.
    Measured {
        /// The samples.
        samples: Vec<f64>,
    },
}

/// A plain-data, JSON-serializable description of a geometric instance.
///
/// Explicit-adjacency instances (the NP-reduction gadgets) are built
/// programmatically and are intentionally not covered.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct InstanceSpec {
    /// Post coordinates in meters, `(x, y)`.
    pub posts: Vec<(f64, f64)>,
    /// Base-station coordinates.
    pub base_station: (f64, f64),
    /// Total sensor-node budget.
    pub num_nodes: u32,
    /// Transmission ranges in meters, strictly increasing.
    pub ranges_m: Vec<f64>,
    /// Radio `α` in nanojoules per bit.
    pub alpha_nj: f64,
    /// Radio `β` in picojoules per bit per m^γ.
    pub beta_pj: f64,
    /// Radio loss exponent `γ`.
    pub gamma: f64,
    /// Single-node charging efficiency `η`.
    pub eta: f64,
    /// The gain curve.
    pub gain: GainSpec,
    /// Optional per-post node cap.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub max_nodes_per_post: Option<u32>,
    /// Optional per-post report rates (bits per round; default 1).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub report_rates: Option<Vec<f64>>,
    /// Optional per-post sensing energy in nanojoules per round.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sensing_nj: Option<Vec<f64>>,
}

impl InstanceSpec {
    /// Extracts the spec from a geometric instance. Returns `None` for
    /// explicit-adjacency instances (no geometry to describe).
    #[must_use]
    pub fn from_instance(instance: &Instance) -> Option<Self> {
        let geo = instance.geometry()?;
        let charge = instance.charge();
        let gain = match charge.gain() {
            GainKind::Linear => GainSpec::Linear,
            GainKind::Sublinear(p) => GainSpec::Sublinear { exponent: *p },
            GainKind::Measured(samples) => GainSpec::Measured {
                samples: samples.clone(),
            },
        };
        let rates = instance.report_rates();
        let sensing: Vec<f64> = (0..instance.num_posts())
            .map(|p| instance.sensing_energy(p).as_njoules())
            .collect();
        Some(InstanceSpec {
            posts: geo.posts.iter().map(|p| (p.x, p.y)).collect(),
            base_station: (geo.base_station.x, geo.base_station.y),
            num_nodes: instance.num_nodes(),
            ranges_m: geo.levels.ranges().to_vec(),
            alpha_nj: geo.radio.alpha().as_njoules(),
            beta_pj: geo.radio.beta_pj(),
            gamma: geo.radio.gamma(),
            eta: charge.eta(),
            gain,
            max_nodes_per_post: instance.max_nodes_per_post(),
            report_rates: if rates.iter().all(|&r| r == 1.0) {
                None
            } else {
                Some(rates.to_vec())
            },
            sensing_nj: if sensing.iter().all(|&s| s == 0.0) {
                None
            } else {
                Some(sensing)
            },
        })
    }

    /// Builds (and fully validates) the instance this spec describes.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for inconsistent specs (disconnected,
    /// budget too small, malformed profiles, …), and
    /// [`BuildError::InvalidParameter`] naming the field for a radio,
    /// level or charging parameter outside the domain of the constructor
    /// it feeds, such as non-increasing ranges or an `eta` above 1.
    /// Every link's routing weight must be positive, so `alpha_nj` and
    /// `beta_pj` may not both be zero: that is a
    /// [`BuildError::InvalidEnergy`] naming a link.
    pub fn build(&self) -> Result<Instance, BuildError> {
        let gain = match &self.gain {
            GainSpec::Linear => GainKind::Linear,
            GainSpec::Sublinear { exponent } => GainKind::Sublinear(*exponent),
            GainSpec::Measured { samples } => GainKind::Measured(samples.clone()),
        };
        let charge = ChargeSpec::try_new(self.eta, gain)?;
        self.check_radio()?;
        let mut builder = GeometricInstanceBuilder::new(
            self.posts.iter().map(|&(x, y)| Point::new(x, y)).collect(),
            self.num_nodes,
        )
        .base_station(Point::new(self.base_station.0, self.base_station.1))
        .levels(TxLevels::new(self.ranges_m.clone()))
        .radio(RadioParams::new(
            Energy::from_njoules(self.alpha_nj),
            self.beta_pj,
            self.gamma,
        ))
        .charge(charge);
        if let Some(cap) = self.max_nodes_per_post {
            builder = builder.max_nodes_per_post(cap);
        }
        if let Some(rates) = &self.report_rates {
            builder = builder.report_rates(rates.clone());
        }
        if let Some(sensing) = &self.sensing_nj {
            builder = builder
                .sensing_energies(sensing.iter().map(|&nj| Energy::from_njoules(nj)).collect());
        }
        builder.build()
    }

    /// Checks the ranges and radio parameters against the domains of
    /// [`TxLevels::new`] and [`RadioParams::new`], which panic outside
    /// them.
    fn check_radio(&self) -> Result<(), BuildError> {
        let invalid = |what, expected| Err(BuildError::InvalidParameter { what, expected });
        let ranges = &self.ranges_m;
        if ranges.is_empty()
            || !ranges.iter().all(|d| d.is_finite() && *d > 0.0)
            || !ranges.windows(2).all(|w| w[0] < w[1])
        {
            return invalid(
                "ranges_m",
                "non-empty, finite, positive and strictly increasing",
            );
        }
        if !(self.alpha_nj >= 0.0 && self.alpha_nj.is_finite()) {
            return invalid("alpha_nj", "finite and non-negative");
        }
        if !(self.beta_pj >= 0.0 && self.beta_pj.is_finite()) {
            return invalid("beta_pj", "finite and non-negative");
        }
        if !(1.0..=6.0).contains(&self.gamma) {
            return invalid("gamma", "in [1, 6]");
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec is always serializable")
    }

    /// Parses a spec from JSON (without building it yet).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, SpecError> {
        serde_json::from_str(json).map_err(SpecError::Parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceBuilder, InstanceSampler};
    use wrsn_geom::Field;

    #[test]
    fn roundtrip_preserves_everything() {
        let inst = InstanceSampler::new(Field::square(250.0), 12, 30)
            .levels(TxLevels::evenly_spaced(4, 25.0))
            .charge(ChargeSpec::new(0.02, GainKind::Sublinear(0.9)))
            .max_nodes_per_post(6)
            .sample(7);
        let spec = InstanceSpec::from_instance(&inst).unwrap();
        let rebuilt = InstanceSpec::from_json(&spec.to_json())
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(rebuilt, inst);
    }

    #[test]
    fn roundtrip_with_profiles() {
        let posts = Field::square(100.0).random_posts(3, 9);
        let inst = GeometricInstanceBuilder::new(posts, 9)
            .report_rates(vec![1.0, 2.0, 0.5])
            .sensing_energies(vec![
                Energy::from_njoules(5.0),
                Energy::ZERO,
                Energy::from_njoules(1.5),
            ])
            .build()
            .unwrap();
        let spec = InstanceSpec::from_instance(&inst).unwrap();
        assert!(spec.report_rates.is_some());
        assert!(spec.sensing_nj.is_some());
        assert_eq!(spec.build().unwrap(), inst);
    }

    #[test]
    fn default_profiles_are_omitted_from_json() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8).sample(1);
        let spec = InstanceSpec::from_instance(&inst).unwrap();
        let json = spec.to_json();
        assert!(!json.contains("report_rates"));
        assert!(!json.contains("sensing_nj"));
        assert!(!json.contains("max_nodes_per_post"));
    }

    #[test]
    fn explicit_instances_have_no_spec() {
        let inst = InstanceBuilder::new(1, 1)
            .uplink(0, 1, Energy::from_njoules(1.0))
            .build()
            .unwrap();
        assert!(InstanceSpec::from_instance(&inst).is_none());
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = InstanceSpec::from_json("{not json").unwrap_err();
        assert!(matches!(err, SpecError::Parse(_)));
        assert!(format!("{err}").contains("parsing"));
    }

    #[test]
    fn inconsistent_spec_is_a_build_error() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8).sample(1);
        let mut spec = InstanceSpec::from_instance(&inst).unwrap();
        spec.num_nodes = 2; // fewer nodes than posts
        assert!(matches!(spec.build(), Err(BuildError::TooFewNodes { .. })));
    }

    #[test]
    fn out_of_domain_parameters_are_build_errors_naming_the_field() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8).sample(1);
        let valid = InstanceSpec::from_instance(&inst).unwrap();
        type Corrupt = fn(&mut InstanceSpec);
        let cases: Vec<(&str, Corrupt)> = vec![
            ("eta", |s| s.eta = 2.0),
            ("eta", |s| s.eta = 0.0),
            ("eta", |s| s.eta = f64::NAN),
            ("gain exponent", |s| {
                s.gain = GainSpec::Sublinear { exponent: 1.5 }
            }),
            ("gain exponent", |s| {
                s.gain = GainSpec::Sublinear { exponent: f64::NAN }
            }),
            ("gain samples", |s| {
                s.gain = GainSpec::Measured { samples: vec![] }
            }),
            ("gain samples", |s| {
                s.gain = GainSpec::Measured {
                    samples: vec![2.0, 3.0],
                }
            }),
            ("gain samples", |s| {
                s.gain = GainSpec::Measured {
                    samples: vec![1.0, 2.0, 1.5],
                }
            }),
            ("gain samples", |s| {
                s.gain = GainSpec::Measured {
                    samples: vec![1.0, f64::NAN],
                }
            }),
            ("ranges_m", |s| s.ranges_m = vec![]),
            ("ranges_m", |s| s.ranges_m = vec![50.0, 25.0]),
            ("ranges_m", |s| s.ranges_m = vec![25.0, f64::INFINITY]),
            ("ranges_m", |s| s.ranges_m = vec![-1.0, 25.0]),
            ("alpha_nj", |s| s.alpha_nj = -1.0),
            ("alpha_nj", |s| s.alpha_nj = f64::INFINITY),
            ("beta_pj", |s| s.beta_pj = -0.5),
            ("beta_pj", |s| s.beta_pj = f64::NAN),
            ("gamma", |s| s.gamma = 0.5),
            ("gamma", |s| s.gamma = 7.0),
        ];
        for (field, corrupt) in cases {
            let mut spec = valid.clone();
            corrupt(&mut spec);
            match spec.build() {
                Err(BuildError::InvalidParameter { what, .. }) => assert_eq!(what, field),
                other => panic!("{field}: expected InvalidParameter, got {other:?}"),
            }
        }
        // The domains' closed ends still build, but with both radio
        // constants at zero every link is free, which routing rejects.
        let mut edge = valid;
        edge.eta = 1.0;
        edge.gamma = 6.0;
        edge.alpha_nj = 0.0;
        assert!(edge.build().is_ok());
        edge.beta_pj = 0.0;
        assert!(matches!(
            edge.build(),
            Err(BuildError::InvalidEnergy { link: Some(_) })
        ));
    }

    #[test]
    fn an_overflowing_link_energy_is_a_build_error() {
        // beta = 1e308 pJ makes every transmit energy +inf.
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8).sample(1);
        let mut spec = InstanceSpec::from_instance(&inst).unwrap();
        spec.beta_pj = 1e308;
        assert!(matches!(
            spec.build(),
            Err(BuildError::InvalidEnergy { link: Some(_) })
        ));
    }

    #[test]
    fn measured_gain_roundtrips() {
        let inst = InstanceSampler::new(Field::square(150.0), 4, 8)
            .charge(ChargeSpec::new(
                0.5,
                GainKind::Measured(vec![1.0, 1.7, 2.1]),
            ))
            .sample(3);
        let spec = InstanceSpec::from_instance(&inst).unwrap();
        assert!(matches!(spec.gain, GainSpec::Measured { .. }));
        assert_eq!(spec.build().unwrap(), inst);
    }
}
