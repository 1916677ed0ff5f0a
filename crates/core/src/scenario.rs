//! Declarative charging-scenario parameters.
//!
//! The paper fixes the charger's behavior out of scope ("nodes can
//! always be recharged in time"); the charging-scenario solver family
//! (`wrsn-sched`) makes it the decision variable. [`ScenarioSpec`]
//! is the JSON-friendly knob set shared by every front end — CLI
//! `--scenario`, HTTP request bodies, and the engine's cache
//! fingerprints — so identical scenario parameters resolve to identical
//! solver behavior everywhere.

use serde::{Deserialize, Serialize};

fn default_charger_speed() -> f64 {
    5.0
}
fn default_charger_power() -> f64 {
    5.0
}
fn default_battery_j() -> f64 {
    0.1
}
fn default_bits() -> u64 {
    4000
}
fn default_round_interval() -> f64 {
    1.0
}
fn default_chargers() -> u32 {
    1
}
fn default_site_grid() -> usize {
    6
}
fn default_charger_budget() -> u32 {
    4
}
fn default_duty_target() -> f64 {
    0.5
}
fn default_rf_power() -> f64 {
    2.0
}
fn default_rf_range() -> f64 {
    150.0
}
fn default_sa_iters() -> u32 {
    400
}
fn default_sa_temp() -> f64 {
    0.05
}
fn default_seed() -> u64 {
    0
}

/// Everything a charging-scenario solver needs to know beyond the
/// instance itself: the mobile-charger fleet (speed, radiated power,
/// fleet size), the node batteries and reporting workload that set the
/// battery deadlines, the RF-charger placement knobs (candidate grid
/// density, charger budget, per-post duty-cycle target, radiated power
/// and half-power range), and the bi-level metaheuristic's budget and
/// seed.
///
/// Defaults describe a single 5 m/s mobile charger topping up 0.1 J
/// batteries under the simulator's default reporting load — matching
/// [`SimConfig`](https://docs.rs/wrsn-sim) defaults, so scenario-aware
/// solvers and the simulator agree out of the box.
///
/// # Examples
///
/// ```
/// use wrsn_core::ScenarioSpec;
///
/// let spec = ScenarioSpec::default();
/// assert_eq!(spec.chargers, 1);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioSpec {
    /// Mobile-charger travel speed in meters per second.
    #[serde(default = "default_charger_speed")]
    pub charger_speed_mps: f64,
    /// Mobile-charger radiated power in watts (sets per-visit dwell).
    #[serde(default = "default_charger_power")]
    pub charger_power_w: f64,
    /// Per-node battery capacity in joules (sets battery deadlines).
    #[serde(default = "default_battery_j")]
    pub battery_j: f64,
    /// Bits per report (workload behind the per-round energy drain).
    #[serde(default = "default_bits")]
    pub bits_per_report: u64,
    /// Seconds between reporting rounds.
    #[serde(default = "default_round_interval")]
    pub round_interval_s: f64,
    /// Mobile chargers sharing the patrol (tour scheduling).
    #[serde(default = "default_chargers")]
    pub chargers: u32,
    /// Candidate RF-charger sites per field side (placement searches a
    /// `site_grid × site_grid` lattice).
    #[serde(default = "default_site_grid")]
    pub site_grid: usize,
    /// Static RF chargers the placement solver may install.
    #[serde(default = "default_charger_budget")]
    pub charger_budget: u32,
    /// Per-post duty-cycle target in `(0, 1]` the placement tries to
    /// guarantee (received power / required power, capped at 1).
    #[serde(default = "default_duty_target")]
    pub duty_target: f64,
    /// RF-charger radiated power in watts.
    #[serde(default = "default_rf_power")]
    pub rf_power_w: f64,
    /// RF path-loss half-power range in meters: a post at this distance
    /// receives half the power of a co-located one.
    #[serde(default = "default_rf_range")]
    pub rf_range_m: f64,
    /// Simulated-annealing iterations for the bi-level solver.
    #[serde(default = "default_sa_iters")]
    pub sa_iters: u32,
    /// Initial annealing temperature as a fraction of the starting
    /// objective.
    #[serde(default = "default_sa_temp")]
    pub sa_temp: f64,
    /// Scenario seed mixed into the bi-level solver's RNG (combined
    /// with an instance digest, so each instance anneals its own
    /// deterministic trajectory).
    #[serde(default = "default_seed")]
    pub seed: u64,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            charger_speed_mps: default_charger_speed(),
            charger_power_w: default_charger_power(),
            battery_j: default_battery_j(),
            bits_per_report: default_bits(),
            round_interval_s: default_round_interval(),
            chargers: default_chargers(),
            site_grid: default_site_grid(),
            charger_budget: default_charger_budget(),
            duty_target: default_duty_target(),
            rf_power_w: default_rf_power(),
            rf_range_m: default_rf_range(),
            sa_iters: default_sa_iters(),
            sa_temp: default_sa_temp(),
            seed: default_seed(),
        }
    }
}

impl ScenarioSpec {
    /// Checks every parameter's range, returning the first offense as a
    /// human-readable message. Front ends call this at request time so
    /// bad scenarios fail before a sweep starts.
    ///
    /// # Errors
    ///
    /// A message naming the out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        let positive = [
            ("charger_speed_mps", self.charger_speed_mps),
            ("charger_power_w", self.charger_power_w),
            ("battery_j", self.battery_j),
            ("round_interval_s", self.round_interval_s),
            ("rf_power_w", self.rf_power_w),
            ("rf_range_m", self.rf_range_m),
        ];
        for (name, v) in positive {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive and finite, got {v}"));
            }
        }
        if self.bits_per_report == 0 {
            return Err("bits_per_report must be positive".to_string());
        }
        if self.chargers == 0 {
            return Err("chargers must be at least 1".to_string());
        }
        if self.site_grid < 2 {
            return Err(format!(
                "site_grid must be at least 2, got {}",
                self.site_grid
            ));
        }
        if self.charger_budget == 0 {
            return Err("charger_budget must be at least 1".to_string());
        }
        if !(self.duty_target > 0.0 && self.duty_target <= 1.0) {
            return Err(format!(
                "duty_target must lie in (0, 1], got {}",
                self.duty_target
            ));
        }
        if self.sa_iters == 0 {
            return Err("sa_iters must be at least 1".to_string());
        }
        if !(self.sa_temp > 0.0 && self.sa_temp.is_finite()) {
            return Err(format!("sa_temp must be positive, got {}", self.sa_temp));
        }
        Ok(())
    }

    /// The spec rendered as canonical JSON — the form pushed into cache
    /// fingerprints, so any parameter change invalidates cached runs.
    #[must_use]
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("scenario serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(ScenarioSpec::default().validate().is_ok());
    }

    #[test]
    fn each_bad_parameter_is_named() {
        let cases: Vec<(ScenarioSpec, &str)> = vec![
            (
                ScenarioSpec {
                    charger_speed_mps: 0.0,
                    ..ScenarioSpec::default()
                },
                "charger_speed_mps",
            ),
            (
                ScenarioSpec {
                    battery_j: -1.0,
                    ..ScenarioSpec::default()
                },
                "battery_j",
            ),
            (
                ScenarioSpec {
                    bits_per_report: 0,
                    ..ScenarioSpec::default()
                },
                "bits_per_report",
            ),
            (
                ScenarioSpec {
                    chargers: 0,
                    ..ScenarioSpec::default()
                },
                "chargers",
            ),
            (
                ScenarioSpec {
                    site_grid: 1,
                    ..ScenarioSpec::default()
                },
                "site_grid",
            ),
            (
                ScenarioSpec {
                    charger_budget: 0,
                    ..ScenarioSpec::default()
                },
                "charger_budget",
            ),
            (
                ScenarioSpec {
                    duty_target: 1.5,
                    ..ScenarioSpec::default()
                },
                "duty_target",
            ),
            (
                ScenarioSpec {
                    sa_iters: 0,
                    ..ScenarioSpec::default()
                },
                "sa_iters",
            ),
            (
                ScenarioSpec {
                    sa_temp: f64::NAN,
                    ..ScenarioSpec::default()
                },
                "sa_temp",
            ),
        ];
        for (spec, name) in cases {
            let err = spec.validate().expect_err(name);
            assert!(err.contains(name), "{err} should mention {name}");
        }
    }

    #[test]
    fn empty_json_deserializes_to_defaults() {
        let v: serde::Value = serde_json::from_str("{}").unwrap();
        let spec = ScenarioSpec::from_value(&v).unwrap();
        assert_eq!(spec, ScenarioSpec::default());
    }

    #[test]
    fn round_trips_through_json_and_canonical_form_is_stable() {
        let spec = ScenarioSpec {
            charger_speed_mps: 2.5,
            chargers: 3,
            seed: 9,
            ..ScenarioSpec::default()
        };
        let text = spec.canonical_json();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let back = ScenarioSpec::from_value(&v).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.canonical_json(), text);
        // Different parameters produce different canonical forms (the
        // property cache fingerprints rely on).
        assert_ne!(text, ScenarioSpec::default().canonical_json());
    }
}
