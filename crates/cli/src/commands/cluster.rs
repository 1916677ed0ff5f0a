//! `wrsn cluster`: inspect a serve-cluster fleet.

use super::CliError;
use crate::args::Args;
use serde::{Serialize as _, Value};
use std::fmt::Write as _;
use wrsn_engine::Table;
use wrsn_serve::client;

pub(super) const HELP: &str = "\
wrsn cluster — inspect a serve-cluster fleet

SUBCOMMANDS:
    status          fetch /statusz from every node and show the fleet:
                    per-node key share, forwarded hits/misses, gossip
                    progress, cache entries, and the keys digest (equal
                    digests mean converged caches)

OPTIONS (status):
    --addrs A,B,... comma-separated node addresses           [required]
    --json          machine-readable output";

pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = rest.split_first() else {
        return Ok(HELP.to_string());
    };
    match sub.as_str() {
        "status" => cluster_status(Args::parse(rest.to_vec())?),
        other => Err(CliError(format!(
            "unknown cluster subcommand {other:?}\n\n{HELP}"
        ))),
    }
}

/// One node's entry in `wrsn cluster status --json`: `"status": "up"`
/// with its `/statusz` cluster section, cache entries and anti-entropy
/// keys digest, or `"status": "down"` with why it could not be fetched.
fn node_status(addr: &str) -> Value {
    let field = |key: &str, value: Value| (key.to_string(), value);
    let down = |why: String| {
        let status = field("status", Value::String("down".to_string()));
        Value::Object(vec![status, field("error", Value::String(why))])
    };
    let status = match client::request(addr, "GET", "/statusz", None) {
        Ok(resp) if resp.status == 200 => resp,
        Ok(resp) => return down(format!("/statusz answered {}", resp.status)),
        Err(e) => return down(e.to_string()),
    };
    let Ok(doc) = serde_json::from_str::<Value>(&status.body) else {
        return down("unparseable /statusz".to_string());
    };
    let Some(cluster) = doc.get("cluster").cloned() else {
        return down("not in cluster mode (no cluster section)".to_string());
    };
    let mut fields = vec![
        field("status", Value::String("up".to_string())),
        field("cluster", cluster),
    ];
    let entries = doc.get("cache").and_then(|c| c.get("entries"));
    if let Some(entries) = entries.and_then(Value::as_u64) {
        fields.push(field("entries", entries.to_value()));
    }
    let keys_digest = client::request(addr, "GET", "/v1/cluster/segments", None)
        .ok()
        .filter(|resp| resp.status == 200)
        .and_then(|resp| serde_json::from_str::<Value>(&resp.body).ok())
        .and_then(|m| {
            m.get("keys_digest")
                .filter(|d| d.as_str().is_some())
                .cloned()
        });
    if let Some(digest) = keys_digest {
        fields.push(field("keys_digest", digest));
    }
    Value::Object(fields)
}

fn cluster_status(mut args: Args) -> Result<String, CliError> {
    let addrs: String = args.require("addrs", "a comma-separated address list")?;
    let json = args.flag("json");
    args.finish()?;
    let nodes: Vec<&str> = addrs
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if nodes.is_empty() {
        return Err(CliError("--addrs needs at least one address".into()));
    }
    let statuses: Vec<(String, Value)> = nodes
        .iter()
        .map(|addr| ((*addr).to_string(), node_status(addr)))
        .collect();
    let digests: Vec<&str> = statuses
        .iter()
        .filter_map(|(_, s)| s.get("keys_digest").and_then(Value::as_str))
        .collect();
    let converged = !digests.is_empty() && digests.iter().all(|d| *d == digests[0]);
    if json {
        let doc = Value::Object(vec![
            ("nodes".to_string(), Value::Object(statuses)),
            ("converged".to_string(), Value::Bool(converged)),
        ]);
        return Ok(serde_json::to_string_pretty(&doc).expect("serializable"));
    }
    let mut table = Table::new(
        &format!("cluster status ({} node(s))", statuses.len()),
        &[
            "node", "id", "share", "fwd hit", "fwd miss", "ticks", "pulled", "pushed", "entries",
            "digest",
        ],
    );
    for (addr, status) in &statuses {
        let Some(cluster) = status.get("cluster") else {
            let why = status
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let mut row = vec![addr.clone(), "DOWN".to_string()];
            row.extend(["-"; 7].map(str::to_string));
            row.push(why.to_string());
            table.row(&row);
            continue;
        };
        let str_of = |v: Option<&Value>| {
            v.map_or_else(
                || "?".to_string(),
                |v| match v {
                    Value::String(s) => s.clone(),
                    other => serde_json::to_string(other).unwrap_or_default(),
                },
            )
        };
        let forwarded = cluster.get("forwarded");
        let gossip = cluster.get("gossip");
        let share = cluster
            .get("owned_share")
            .and_then(Value::as_f64)
            .map_or_else(|| "?".to_string(), |s| format!("{s:.3}"));
        let entries = status.get("entries").and_then(Value::as_u64);
        // The digest prefix is plenty to eyeball equality; the full
        // value is in --json.
        let digest = status.get("keys_digest").and_then(Value::as_str);
        let digest = digest.map_or("?", |d| &d[..d.len().min(16)]);
        table.row(&[
            addr.clone(),
            str_of(cluster.get("node_id")),
            share,
            str_of(forwarded.and_then(|f| f.get("hits"))),
            str_of(forwarded.and_then(|f| f.get("misses"))),
            str_of(gossip.and_then(|g| g.get("ticks"))),
            str_of(gossip.and_then(|g| g.get("segments_pulled"))),
            str_of(gossip.and_then(|g| g.get("segments_pushed"))),
            entries.map_or_else(|| "?".to_string(), |e| e.to_string()),
            digest.to_string(),
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "\ncaches {}",
        if converged {
            "converged (all reachable digests equal)"
        } else {
            "NOT converged (digests differ or no node reachable)"
        }
    );
    Ok(out)
}
