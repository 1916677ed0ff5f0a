//! `wrsn simulate`: solve, then run the network in the discrete-event
//! simulator.

use super::{instance_params, save_instance, CliError};
use crate::args::Args;
use crate::render;
use std::fmt::Write as _;
use wrsn_engine::SolverRegistry;
use wrsn_serve::api::SimulateRequest;
use wrsn_sim::{ChargerPolicy, PatrolTour};

pub(super) const HELP: &str = "\
wrsn simulate — solve, then run the network over time

All `wrsn solve` options, plus:
    --rounds R      reporting rounds to simulate         [default: 1000]
    --bits B        bits per report                      [default: 4000]
    --battery J     per-node battery capacity in joules  [default: 0.1]
    --policy P      threshold | tour | none              [default: threshold]
    --speed V       charger speed (m/s, tour policy), at most 1000
                                                         [default: 5.0]
    --chargers K    charger fleet size (tour policy), at most 1000
                                                         [default: 1]
    --power W       charger radiated power in watts (finite => refills take time)
    --timeline R    sample state of charge every R rounds and plot it
    --sched-tour    drive the tour policy along the sched-tour solver's
                    planned visit order (uses --scenario when given)
    --json          machine-readable output

The tour policy audits patrol feasibility at setup: posts whose battery
window is shorter than their charger's cycle are reported (and listed in
the JSON output as tour_infeasible_posts).

Failure injection (any of these enables the fault plan):
    --fault-seed K     seed for the probabilistic faults    [default: 0]
    --kill R:P,...     a node at post P dies at round R
    --outage P:A:B,... post P is offline for rounds A..B
    --charger-skip Q   probability a due refill is skipped
    --charger-delay Q  probability a patrol leg is delayed
    --delay-s S        extra seconds per delayed leg        [default: 5]
    --link-loss Q      per-hop probability a transmission is lost
                       (lost reports count against delivery ratio)
    --battery-fade F   per-charge-cycle capacity fade fraction
    --fade-floor F     fade floor as a fraction of nameplate [default: 0.2]
    --charger-down FROM:UNTIL[,...]
                       total charger breakdown over rounds FROM..UNTIL

The same spec is the body of POST /v1/simulate (see `wrsn serve
--help`), and --json prints the report it answers. Each flag is a key
with `-` written `_`, except --algo (solver), --battery (battery_j),
--bits (bits_per_report), --speed (speed_mps) and --power (power_w);
the instance flags go in an \"instance\" object (the --scenario JSON
as its \"scenario\", the --load file's spec as its \"spec\"); lists
are arrays, e.g. --kill 10:0,20:1 is \"kill\": [[10, 0], [20, 1]]; and
over HTTP \"seed\" defaults to 0.";

/// Reads a `--kill`, `--outage` or `--charger-down` list: comma-separated
/// entries of `N` colon-separated numbers, laid out as `shape`.
fn entry_list<const N: usize>(
    args: &mut Args,
    flag: &str,
    shape: &'static str,
) -> Result<Option<Vec<[u64; N]>>, CliError> {
    let Some(text) = args.opt::<String>(flag, shape)? else {
        return Ok(None);
    };
    text.split(',')
        .map(|entry| {
            let bad = |what| CliError(format!("--{flag} expects {shape} {what}, got {entry:?}"));
            let parts: Vec<&str> = entry.split(':').collect();
            if parts.len() != N {
                return Err(bad("entries"));
            }
            let mut numbers = [0; N];
            for (slot, part) in numbers.iter_mut().zip(parts) {
                *slot = part.trim().parse().map_err(|_| bad("numbers"))?;
            }
            Ok(numbers)
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

/// A post index read from a list entry. It saturates, so a post too
/// large for this platform still fails the fault plan's range check.
fn post_index(post: u64) -> usize {
    usize::try_from(post).unwrap_or(usize::MAX)
}

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let defaults = SimulateRequest::default();
    let (instance, _) = instance_params(&mut args)?;
    let kill = entry_list::<2>(&mut args, "kill", "ROUND:POST")?;
    let outage = entry_list::<3>(&mut args, "outage", "POST:FROM:UNTIL")?;
    let charger_down = entry_list::<2>(&mut args, "charger-down", "FROM:UNTIL")?;
    let spec = SimulateRequest {
        instance,
        solver: args.get_or("algo", "an algorithm name", defaults.solver)?,
        seed: args.get_or("seed", "an integer seed", 1)?,
        rounds: args.get_or("rounds", "a round count", defaults.rounds)?,
        bits_per_report: args.get_or("bits", "bits per report", defaults.bits_per_report)?,
        battery_j: args.get_or("battery", "joules", defaults.battery_j)?,
        policy: args.get_or("policy", "threshold|tour|none", defaults.policy)?,
        speed_mps: args.get_or("speed", "meters per second", defaults.speed_mps)?,
        chargers: args.get_or("chargers", "a charger count", defaults.chargers)?,
        power_w: args.opt("power", "charger watts")?,
        timeline: args.opt("timeline", "a sample interval in rounds")?,
        sched_tour: args.flag("sched-tour"),
        fault_seed: args.opt("fault-seed", "an integer seed")?,
        kill: kill.map(|v| {
            v.iter()
                .map(|&[round, post]| (round, post_index(post)))
                .collect()
        }),
        outage: outage.map(|v| {
            v.iter()
                .map(|&[post, from, until]| (post_index(post), from, until))
                .collect()
        }),
        charger_skip: args.opt("charger-skip", "a probability")?,
        charger_delay: args.opt("charger-delay", "a probability")?,
        delay_s: args.get_or("delay-s", "seconds", defaults.delay_s)?,
        link_loss: args.opt("link-loss", "a probability")?,
        battery_fade: args.opt("battery-fade", "a fraction")?,
        fade_floor: args.opt("fade-floor", "a fraction")?,
        charger_down: charger_down.map(|v| v.iter().map(|&[from, until]| (from, until)).collect()),
    };
    let save: Option<String> = args.opt("save", "a file path")?;
    let json = args.flag("json");
    args.finish()?;
    let run = spec.run(&SolverRegistry::with_defaults())?;
    if let Some(path) = save {
        save_instance(&path, &run.instance)?;
    }
    if json {
        return Ok(serde_json::to_string_pretty(&run.summary()).expect("serializable"));
    }
    let report = &run.report;
    let mut out = String::new();
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "charger energy per round: {} (analytic prediction: {})",
        report.charger_energy_per_round(),
        run.analytic_per_round()
    );
    if let Some((t, p)) = report.first_death {
        let _ = writeln!(
            out,
            "first death: post {p} at t={t:.1}s — charger policy too weak"
        );
    } else {
        let _ = writeln!(out, "network alive for the whole run");
    }
    if run.config.faults.is_some() {
        let _ = writeln!(
            out,
            "faults: delivery ratio {:.3}, first fault at round {}, {} round(s) survived after, \
             charger skips {} / delays {}, link losses {}, max energy deficit {:.3}",
            report.delivery_ratio(),
            report
                .first_fault_round
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            report.rounds_after_first_fault,
            report.charger_skips,
            report.charger_delays,
            report.link_losses,
            report.max_energy_deficit,
        );
        if report.capacity_floor_hits > 0
            || report.charger_downtime_rounds > 0
            || report.breakdown_deaths > 0
        {
            let _ = writeln!(
                out,
                "degradation: {} cell(s) faded to the capacity floor, charger down \
                 {} round(s), {} death(s) attributable to the breakdown",
                report.capacity_floor_hits, report.charger_downtime_rounds, report.breakdown_deaths,
            );
        }
    }
    if let (ChargerPolicy::PatrolTour { .. }, Some(geo)) =
        (run.config.charger, run.instance.geometry())
    {
        let (speed, chargers) = (spec.speed_mps, spec.chargers);
        let tour = PatrolTour::plan(geo.base_station, geo.posts.clone());
        let _ = writeln!(
            out,
            "patrol tour: {:.0} m, cycle {:.1}s at {speed} m/s across {chargers} charger(s)",
            tour.length(),
            tour.cycle_s(speed)
        );
    }
    if let Some(schedule) = &run.schedule {
        let _ = writeln!(
            out,
            "sched-tour: {} route(s), {} post(s) scheduled, feasible: {}",
            schedule.routes.len(),
            schedule.visit_order.len(),
            schedule.is_feasible()
        );
    }
    if !report.tour_infeasible_posts.is_empty() {
        let posts: Vec<String> = report
            .tour_infeasible_posts
            .iter()
            .map(ToString::to_string)
            .collect();
        let _ = writeln!(
            out,
            "WARNING: patrol tour cannot sustain {} post(s): {} — their battery \
             windows are shorter than the charger cycle",
            posts.len(),
            posts.join(", ")
        );
    }
    if !report.soc_timeline.is_empty() {
        let mins: Vec<f64> = report.soc_timeline.iter().map(|&(_, min, _)| min).collect();
        let means: Vec<f64> = report.soc_timeline.iter().map(|&(_, _, m)| m).collect();
        let _ = writeln!(out, "state of charge over time (0..100%):");
        let _ = writeln!(out, "  mean {}", render::sparkline(&means));
        let _ = writeln!(out, "  min  {}", render::sparkline(&mins));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::tests::run_str;
    use crate::commands::{flag_of, run};
    use serde::{Deserialize as _, Serialize as _};
    use wrsn_engine::InstanceParams;
    use wrsn_serve::api::ApiContext;

    #[test]
    fn simulate_round_trip() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --bits 1000 --battery 0.01 --policy threshold --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["rounds"], 200);
        assert_eq!(v["reports_lost"], 0);
    }

    #[test]
    fn simulate_with_tour_policy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --policy tour --speed 20 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(v["charger_energy_j"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn simulate_with_finite_charger_power() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 300 --policy tour --speed 20 --power 3 --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["rounds"], 300);
        assert!(
            run_str("simulate --power 0 --posts 5 --nodes 15 --field 150")
                .unwrap_err()
                .to_string()
                .contains("power")
        );
    }

    #[test]
    fn simulate_human_output_reports_charger_energy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --bits 1000",
        )
        .unwrap();
        assert!(out.contains("charger energy per round"));
        assert!(out.contains("analytic prediction"));
        assert!(out.contains("network alive") || out.contains("first death"));
    }

    #[test]
    fn simulate_tour_human_output_describes_the_patrol() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --policy tour --speed 20",
        )
        .unwrap();
        assert!(out.contains("patrol tour:"));
    }

    #[test]
    fn simulate_timeline_draws_a_sparkline() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 200 --timeline 20",
        )
        .unwrap();
        assert!(out.contains("state of charge over time"));
        assert!(out.contains("mean "));
        assert!(out.contains("min  "));
    }

    #[test]
    fn simulate_policy_none_and_bad_policy() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 50 --policy none --json",
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["charger_energy_j"], 0.0);
        let err =
            run_str("simulate --posts 5 --nodes 15 --field 150 --policy teleport").unwrap_err();
        assert!(err.to_string().contains("--policy"));
    }

    #[test]
    fn simulate_rejects_bad_battery_and_chargers() {
        assert!(
            run_str("simulate --posts 5 --nodes 15 --field 150 --battery 0")
                .unwrap_err()
                .to_string()
                .contains("battery")
        );
        assert!(
            run_str("simulate --posts 5 --nodes 15 --field 150 --policy tour --chargers 0")
                .unwrap_err()
                .to_string()
                .contains("chargers")
        );
    }

    #[test]
    fn simulate_fault_injection_is_deterministic() {
        let cmd = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
                   --rounds 200 --bits 1000 --battery 0.01 --fault-seed 7 \
                   --kill 50:0 --outage 1:10:20 --charger-skip 0.2 --json";
        let a = run_str(cmd).unwrap();
        let b = run_str(cmd).unwrap();
        assert_eq!(a, b, "same fault seed must replay identically");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert!(v["first_fault_round"].as_u64().unwrap() <= 10);
        assert!(v["reports_lost"].as_u64().unwrap() > 0);
        assert!(v["delivery_ratio"].as_f64().unwrap() < 1.0);
        assert!(v["rounds_after_first_fault"].as_u64().unwrap() > 0);
    }

    #[test]
    fn simulate_fault_human_output_has_degradation_line() {
        let out = run_str(
            "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
             --rounds 100 --charger-skip 0.5",
        )
        .unwrap();
        assert!(out.contains("delivery ratio"), "{out}");
    }

    #[test]
    fn simulate_rejects_malformed_fault_flags() {
        let base = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb --rounds 50";
        assert!(run_str(&format!("{base} --kill abc"))
            .unwrap_err()
            .to_string()
            .contains("--kill"));
        assert!(run_str(&format!("{base} --kill 1:999"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
        assert!(run_str(&format!("{base} --outage 0:9:9"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
        assert!(run_str(&format!("{base} --charger-skip 1.5"))
            .unwrap_err()
            .to_string()
            .contains("--charger-skip 1.5 out of range [0, 1]"));
        assert!(run_str(&format!("{base} --link-loss 2.0"))
            .unwrap_err()
            .to_string()
            .contains("--link-loss 2 out of range [0, 1]"));
        assert!(run_str(&format!("{base} --battery-fade -0.1"))
            .unwrap_err()
            .to_string()
            .contains("--battery-fade"));
        assert!(run_str(&format!("{base} --fade-floor 1.5"))
            .unwrap_err()
            .to_string()
            .contains("--fade-floor"));
        assert!(run_str(&format!("{base} --charger-down 10"))
            .unwrap_err()
            .to_string()
            .contains("--charger-down"));
        assert!(run_str(&format!("{base} --charger-down 9:9"))
            .unwrap_err()
            .to_string()
            .contains("fault plan"));
    }

    #[test]
    fn simulate_degradation_flags_replay_byte_identically() {
        let cmd = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb \
                   --rounds 300 --battery 0.001 --fault-seed 9 --battery-fade 0.1 \
                   --charger-down 20:80 --json";
        let a = run_str(cmd).unwrap();
        let b = run_str(cmd).unwrap();
        assert_eq!(a, b, "degradation runs must replay byte-identically");
        let v: serde_json::Value = serde_json::from_str(&a).unwrap();
        assert_eq!(v["charger_downtime_rounds"], 60);
        assert!(v["capacity_floor_hits"].as_u64().is_some());
        assert!(v["breakdown_deaths"].as_u64().is_some());
    }

    #[test]
    fn simulate_link_loss_degrades_delivery() {
        let base = "simulate --posts 5 --nodes 15 --field 150 --seed 4 --algo idb --rounds 50";
        let out = run_str(&format!("{base} --link-loss 1.0 --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["delivery_ratio"], 0.0);
        assert_eq!(v["reports_delivered"], 0);
        assert!(v["link_losses"].as_u64().unwrap() > 0);
        // Without faults the field is present and zero.
        let out = run_str(&format!("{base} --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["link_losses"], 0);
        assert_eq!(v["delivery_ratio"], 1.0);
    }

    /// One random simulate spec on a small instance, drawn from `picks`
    /// and rendered both as `wrsn simulate --json` argv and as a
    /// `/v1/simulate` body. In one case of four, one setting is out of
    /// range.
    fn random_simulate_spec(picks: &[u64]) -> (Vec<String>, serde::Value) {
        let mut picks = picks.iter().copied();
        let mut pick = |n: u64| picks.next().expect("enough picks") % n;
        let posts = 4 + pick(5);
        let rounds = 20 + pick(281);
        let broken = pick(4 * 14);
        let mut argv: Vec<String> = format!(
            "simulate --posts {posts} --nodes {} --field 200 --rounds {rounds} --json",
            posts * 3
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let instance = InstanceParams {
            posts: posts as usize,
            nodes: posts as u32 * 3,
            field: 200.0,
            ..InstanceParams::default()
        };
        let mut body = vec![
            ("instance".to_string(), instance.to_value()),
            ("rounds".to_string(), rounds.to_value()),
        ];
        let mut set = |flag: &str, key: &str, arg: String, json: serde::Value| {
            argv.extend([format!("--{flag}"), arg]);
            body.push((key.to_string(), json));
        };
        let solver = ["idb", "rfh", "irfh", "sched-tour", "sched-place"][pick(5) as usize];
        set("algo", "solver", solver.into(), solver.to_value());
        let seed = pick(4);
        set("seed", "seed", seed.to_string(), seed.to_value());
        let policy = match (broken, pick(4)) {
            (0, _) => "teleport",
            (_, 0) => "threshold",
            (_, 1) => "none",
            _ => "tour",
        };
        set("policy", "policy", policy.into(), policy.to_value());
        // An optional setting is present half the time, and always when
        // it is the broken one.
        let mut f64_setting = |index, flag: &str, key: &str, valid: &[f64], bad: f64| {
            let v = match (broken == index, pick(2)) {
                (true, _) => bad,
                (false, 0) => valid[pick(valid.len() as u64) as usize],
                _ => return,
            };
            set(flag, key, v.to_string(), v.to_value());
        };
        f64_setting(1, "battery", "battery_j", &[0.001, 0.002, 0.01, 0.1], 0.0);
        f64_setting(2, "speed", "speed_mps", &[3.0, 8.0, 25.0, 60.0], 5000.0);
        f64_setting(3, "power", "power_w", &[0.5, 2.0, 10.0], -1.0);
        f64_setting(4, "charger-skip", "charger_skip", &[0.0, 0.2, 0.6], 1.5);
        f64_setting(5, "charger-delay", "charger_delay", &[0.0, 0.5, 1.0], 2.0);
        f64_setting(6, "delay-s", "delay_s", &[1.0, 12.0, 40.0], -3.0);
        f64_setting(7, "link-loss", "link_loss", &[0.0, 0.05, 0.3], 1.2);
        f64_setting(8, "battery-fade", "battery_fade", &[0.0, 0.05, 0.3], -0.1);
        f64_setting(9, "fade-floor", "fade_floor", &[0.1, 0.6, 0.95], 1.1);
        let mut u64_setting = |index, flag: &str, key: &str, valid: &[u64], bad: u64| {
            let v = match (broken == index, pick(2)) {
                (true, _) => bad,
                (false, 0) => valid[pick(valid.len() as u64) as usize],
                _ => return,
            };
            set(flag, key, v.to_string(), v.to_value());
        };
        u64_setting(10, "chargers", "chargers", &[1, 2, 3], 0);
        u64_setting(15, "bits", "bits_per_report", &[500, 1000, 8000], 0);
        u64_setting(15, "timeline", "timeline", &[10, 25, 60], 0);
        u64_setting(15, "fault-seed", "fault_seed", &[0, 3, 11], 0);
        // ROUND:POST, POST:FROM:UNTIL and FROM:UNTIL lists. A broken one
        // names the post one past the last, or an empty window.
        for (index, flag, key) in [
            (11, "kill", "kill"),
            (12, "outage", "outage"),
            (13, "charger-down", "charger_down"),
        ] {
            if broken != index && pick(2) == 0 {
                continue;
            }
            let entries: Vec<Vec<u64>> = (0..1 + pick(2))
                .map(|_| {
                    let post = if broken == index { posts } else { pick(posts) };
                    let from = pick(rounds);
                    let until = if broken == index {
                        from
                    } else {
                        from + 1 + pick(40)
                    };
                    match flag {
                        "kill" => vec![from, post],
                        "outage" => vec![post, from, until],
                        _ => vec![from, until],
                    }
                })
                .collect();
            let arg: Vec<String> = entries
                .iter()
                .map(|e| e.iter().map(u64::to_string).collect::<Vec<_>>().join(":"))
                .collect();
            set(flag, key, arg.join(","), entries.to_value());
        }
        if pick(4) == 0 {
            argv.push("--sched-tour".to_string());
            body.push(("sched_tour".to_string(), true.to_value()));
        }
        (argv, serde::Value::Object(body))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// `wrsn simulate --json` and `/v1/simulate` give equal documents
        /// for one spec, or both reject it naming the same setting.
        #[test]
        fn cli_and_http_simulate_agree(
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 64)
        ) {
            let (argv, body) = random_simulate_spec(&picks);
            let req = SimulateRequest::from_value(&body).unwrap();
            let reparse = |text: &str| serde_json::from_str::<serde_json::Value>(text).unwrap();
            match (run(&argv), ApiContext::new().simulate(&req)) {
                (Ok(cli), Ok(http)) => {
                    let http = serde_json::to_string(&http.body).unwrap();
                    proptest::prop_assert_eq!(reparse(&cli), reparse(&http), "{:?}", argv);
                }
                (Err(cli), Err(http)) => {
                    // The HTTP message names the key, the CLI's the flag.
                    let key = http.message.split(' ').next().unwrap_or_default();
                    let named = body.get(key).map(|_| {
                        http.message.replacen(key, &flag_of(key), 1)
                    });
                    proptest::prop_assert_eq!(
                        cli.to_string(),
                        named.unwrap_or(http.message),
                        "{:?}",
                        argv
                    );
                }
                (cli, http) => panic!("{argv:?}: CLI {cli:?} but HTTP {http:?}"),
            }
        }
    }
}
