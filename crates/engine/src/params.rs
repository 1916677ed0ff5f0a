//! Declarative instance parameters: the JSON-friendly description of an
//! instance source shared by the CLI flags and the serving layer's
//! request bodies, so both front ends resolve requests into identical
//! [`InstanceSource`]s (and therefore identical cache fingerprints).

use crate::{EngineError, InstanceSource};
use serde::{Deserialize, Serialize};
use wrsn_core::{ChargeSpec, InstanceSampler, InstanceSpec, ScenarioSpec};
use wrsn_energy::TxLevels;
use wrsn_geom::Field;

fn default_posts() -> usize {
    100
}
fn default_nodes() -> u32 {
    400
}
fn default_field() -> f64 {
    500.0
}
fn default_levels() -> usize {
    3
}
fn default_eta() -> f64 {
    1.0
}

/// The most posts a sampled instance may have: five times the paper's
/// largest field (200). Links grow with the square of the post count, so
/// the cap bounds them too: in the worst case every pair is in range
/// (as at [`MAX_LEVELS`] in the default field) and an instance at the
/// cap holds 10⁶ uplinks, 16 MB; a solve of it peaks at 50–80 MB.
pub const MAX_POSTS: usize = 1_000;

/// The most sensor nodes an instance may have, sampled or pinned: two per
/// post at [`MAX_POSTS`], over three times the paper's largest budget
/// (600). Exhaustive search sizes its composition count, and
/// branch-and-bound its floor table, by the `M − N` spare nodes. That
/// table's build grows with `N·(M − N)²`: at 1 000 posts on a 2-vCPU VM
/// it takes 0.3 s (8 MB) at this cap against 5.4 s for the IDB
/// incumbent, but 20 s (72 MB) at 10 000 nodes against 45 s.
pub const MAX_NODES: u32 = 2_000;

/// The most transmit levels a sampled instance may have (25 m apart, so
/// up to a 25 km range). The paper uses 3 to 6; the cap keeps a request
/// from sizing the level table by an arbitrary count.
pub const MAX_LEVELS: usize = 1_000;

/// The instance-shaping parameters accepted by every front end: post
/// and node counts, field side length, transmit-level count, charging
/// efficiency, an optional per-post node cap, and an optional pinned
/// [`InstanceSpec`] that overrides the sampled geometry entirely.
///
/// Defaults match the paper's headline configuration (100 posts, 400
/// nodes, a 500 m field, 3 transmit levels, lossless charging) and the
/// CLI's historical flag defaults.
///
/// # Examples
///
/// ```
/// use wrsn_engine::InstanceParams;
///
/// let params = InstanceParams::default();
/// assert_eq!(params.posts, 100);
/// let source = params.source()?;
/// assert!(matches!(source, wrsn_engine::InstanceSource::Sampled(_)));
/// # Ok::<(), wrsn_engine::EngineError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct InstanceParams {
    /// Number of monitoring posts (sampled instances).
    #[serde(default = "default_posts")]
    pub posts: usize,
    /// Number of sensor nodes to distribute over the posts.
    #[serde(default = "default_nodes")]
    pub nodes: u32,
    /// Side length of the square deployment field, meters.
    #[serde(default = "default_field")]
    pub field: f64,
    /// Number of evenly spaced transmit power levels.
    #[serde(default = "default_levels")]
    pub levels: usize,
    /// Wireless charging efficiency in `(0, 1]`.
    #[serde(default = "default_eta")]
    pub eta: f64,
    /// Optional maximum nodes per post for the sampler.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub cap: Option<u32>,
    /// A pinned instance spec; when present the sampled parameters
    /// above are ignored and every seed rebuilds this exact instance.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spec: Option<InstanceSpec>,
    /// An optional charging scenario for the scheduling solvers
    /// (`sched-tour`, `sched-place`, `sched-bilevel`): front ends
    /// overlay it onto the registry and fold it into cache
    /// fingerprints. Absent means those solvers run their defaults.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub scenario: Option<ScenarioSpec>,
}

impl Default for InstanceParams {
    fn default() -> Self {
        InstanceParams {
            posts: default_posts(),
            nodes: default_nodes(),
            field: default_field(),
            levels: default_levels(),
            eta: default_eta(),
            cap: None,
            spec: None,
            scenario: None,
        }
    }
}

impl InstanceParams {
    /// Validates the parameters and resolves them into an engine
    /// instance source: a pinned spec when `spec` is present, a
    /// configured sampler otherwise.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for out-of-range parameters,
    /// naming the parameter: counts and levels must be positive, `field`
    /// positive and finite, `posts` at most [`MAX_POSTS`], `nodes` (a
    /// pinned spec's `num_nodes` too) at most [`MAX_NODES`] and `levels`
    /// at most [`MAX_LEVELS`];
    /// [`EngineError::Build`] when a pinned spec describes an invalid
    /// instance.
    pub fn source(&self) -> Result<InstanceSource, EngineError> {
        if let Some(scenario) = &self.scenario {
            scenario.validate().map_err(EngineError::InvalidRequest)?;
        }
        if let Some(spec) = &self.spec {
            check_nodes(spec.num_nodes)?;
            // Validate eagerly so bad specs fail at request time, not
            // per seed deep inside a sweep.
            spec.build()?;
            return Ok(InstanceSource::Spec(spec.clone()));
        }
        if self.posts == 0 || self.nodes == 0 || self.field <= 0.0 || self.levels == 0 {
            return Err(EngineError::InvalidRequest(
                "posts, nodes, field and levels must be positive".to_string(),
            ));
        }
        if !self.field.is_finite() {
            return Err(EngineError::InvalidRequest(format!(
                "field must be a finite side length in meters, got {}",
                self.field
            )));
        }
        if self.posts > MAX_POSTS {
            return Err(EngineError::InvalidRequest(format!(
                "posts must be at most {MAX_POSTS}, got {}",
                self.posts
            )));
        }
        check_nodes(self.nodes)?;
        if self.levels > MAX_LEVELS {
            return Err(EngineError::InvalidRequest(format!(
                "levels must be at most {MAX_LEVELS}, got {}",
                self.levels
            )));
        }
        if !(self.eta > 0.0 && self.eta <= 1.0) {
            return Err(EngineError::InvalidRequest(format!(
                "eta must lie in (0, 1], got {}",
                self.eta
            )));
        }
        let mut sampler = InstanceSampler::new(Field::square(self.field), self.posts, self.nodes)
            .levels(TxLevels::evenly_spaced(self.levels, 25.0))
            .charge(ChargeSpec::linear(self.eta));
        if let Some(c) = self.cap {
            sampler = sampler.max_nodes_per_post(c);
        }
        Ok(InstanceSource::Sampled(sampler))
    }
}

/// Rejects a node budget above [`MAX_NODES`].
fn check_nodes(nodes: u32) -> Result<(), EngineError> {
    if nodes > MAX_NODES {
        return Err(EngineError::InvalidRequest(format!(
            "nodes must be at most {MAX_NODES}, got {nodes}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_cli_flags() {
        let p = InstanceParams::default();
        assert_eq!(
            (p.posts, p.nodes, p.field, p.levels, p.eta),
            (100, 400, 500.0, 3, 1.0)
        );
        assert!(p.cap.is_none() && p.spec.is_none());
    }

    #[test]
    fn empty_json_deserializes_to_defaults() {
        let v: serde::Value = serde_json::from_str("{}").unwrap();
        let p = InstanceParams::from_value(&v).unwrap();
        assert_eq!(p.posts, 100);
        assert_eq!(p.nodes, 400);
    }

    #[test]
    fn sampled_source_resolves_and_validates() {
        let p = InstanceParams {
            posts: 6,
            nodes: 12,
            field: 150.0,
            ..InstanceParams::default()
        };
        assert!(matches!(p.source().unwrap(), InstanceSource::Sampled(_)));
        let bad = InstanceParams {
            eta: 1.5,
            ..InstanceParams::default()
        };
        assert!(matches!(bad.source(), Err(EngineError::InvalidRequest(_))));
        let zero = InstanceParams {
            posts: 0,
            ..InstanceParams::default()
        };
        assert!(matches!(zero.source(), Err(EngineError::InvalidRequest(_))));
    }

    #[test]
    fn non_finite_fields_and_huge_counts_are_rejected_by_name() {
        let reject = |p: InstanceParams, name: &str| {
            let Err(EngineError::InvalidRequest(msg)) = p.source() else {
                panic!("{p:?} must be rejected");
            };
            assert!(msg.starts_with(name), "{msg}");
        };
        for field in [f64::INFINITY, f64::NAN] {
            reject(
                InstanceParams {
                    field,
                    ..InstanceParams::default()
                },
                "field",
            );
        }
        reject(
            InstanceParams {
                posts: MAX_POSTS + 1,
                nodes: u32::MAX,
                ..InstanceParams::default()
            },
            "posts",
        );
        reject(
            InstanceParams {
                posts: 5,
                nodes: MAX_NODES + 1,
                ..InstanceParams::default()
            },
            "nodes",
        );
        reject(
            InstanceParams {
                posts: 5,
                nodes: 4_000_000_000,
                ..InstanceParams::default()
            },
            "nodes",
        );
        let instance = InstanceSampler::new(Field::square(150.0), 5, 10).sample(7);
        let mut spec = InstanceSpec::from_instance(&instance).unwrap();
        spec.num_nodes = MAX_NODES + 1;
        reject(
            InstanceParams {
                spec: Some(spec),
                ..InstanceParams::default()
            },
            "nodes",
        );
        reject(
            InstanceParams {
                levels: MAX_LEVELS + 1,
                ..InstanceParams::default()
            },
            "levels",
        );
        // JSON's 1e999 parses to +inf; it fails the same way.
        let v: serde::Value = serde_json::from_str(r#"{"field":1e999}"#).unwrap();
        reject(InstanceParams::from_value(&v).unwrap(), "field");
    }

    #[test]
    fn the_caps_sample_and_build_with_every_pair_in_range() {
        // MAX_LEVELS reaches 25 km, past the default field's diagonal:
        // the worst case, where every post links to every other post and
        // to the base station.
        let at_caps = InstanceParams {
            posts: MAX_POSTS,
            nodes: MAX_POSTS as u32,
            levels: MAX_LEVELS,
            ..InstanceParams::default()
        };
        let Ok(InstanceSource::Sampled(sampler)) = at_caps.source() else {
            panic!("the caps must be accepted");
        };
        let inst = sampler.try_sample(1).expect("every pair is in range");
        let links: usize = (0..inst.num_posts()).map(|p| inst.uplinks(p).len()).sum();
        assert_eq!(links, MAX_POSTS * MAX_POSTS);
    }

    #[test]
    fn pinned_spec_wins_over_sampled_fields() {
        let instance = InstanceSampler::new(Field::square(150.0), 5, 10).sample(7);
        let spec = InstanceSpec::from_instance(&instance).unwrap();
        let p = InstanceParams {
            // Bogus sampled parameters must be ignored with a spec set.
            posts: 0,
            spec: Some(spec),
            ..InstanceParams::default()
        };
        assert!(matches!(p.source().unwrap(), InstanceSource::Spec(_)));
    }

    #[test]
    fn source_matches_the_equivalent_hand_built_sampler() {
        let p = InstanceParams {
            posts: 8,
            nodes: 24,
            field: 200.0,
            levels: 4,
            eta: 0.8,
            cap: Some(6),
            spec: None,
            scenario: None,
        };
        let by_params = p.source().unwrap();
        let by_hand = InstanceSource::Sampled(
            InstanceSampler::new(Field::square(200.0), 8, 24)
                .levels(TxLevels::evenly_spaced(4, 25.0))
                .charge(ChargeSpec::linear(0.8))
                .max_nodes_per_post(6),
        );
        // Debug forms drive cache fingerprints; they must agree.
        assert_eq!(format!("{by_params:?}"), format!("{by_hand:?}"));
    }

    #[test]
    fn round_trips_through_json() {
        let p = InstanceParams {
            posts: 9,
            cap: Some(3),
            ..InstanceParams::default()
        };
        let text = serde_json::to_string(&p.to_value()).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let back = InstanceParams::from_value(&v).unwrap();
        assert_eq!(back.posts, 9);
        assert_eq!(back.cap, Some(3));
        assert!(back.scenario.is_none());
    }

    #[test]
    fn scenario_round_trips_and_is_validated() {
        let p = InstanceParams {
            posts: 6,
            nodes: 12,
            field: 150.0,
            scenario: Some(ScenarioSpec {
                chargers: 2,
                ..ScenarioSpec::default()
            }),
            ..InstanceParams::default()
        };
        assert!(p.source().is_ok());
        let text = serde_json::to_string(&p.to_value()).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let back = InstanceParams::from_value(&v).unwrap();
        assert_eq!(back.scenario.as_ref().unwrap().chargers, 2);
        // An invalid scenario is rejected at request time and names the
        // offending parameter.
        let bad = InstanceParams {
            scenario: Some(ScenarioSpec {
                duty_target: 0.0,
                ..ScenarioSpec::default()
            }),
            ..p
        };
        let Err(EngineError::InvalidRequest(msg)) = bad.source() else {
            panic!("invalid scenario must be rejected");
        };
        assert!(msg.contains("duty_target"));
    }
}
