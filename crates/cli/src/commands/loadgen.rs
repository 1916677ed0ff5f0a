//! `wrsn loadgen`: drive a running server and report throughput and
//! latency.

use super::CliError;
use crate::args::Args;
use serde::Serialize;
use std::time::Duration;
use wrsn_engine::Table;
use wrsn_serve::client;

pub(super) const HELP: &str = "\
wrsn loadgen — drive a running `wrsn serve` and measure it

MODES (the first of these flags given picks the mode; a flag the mode
does not read is refused by name):
    --job           one async job; reads --addr, --body, --tenant, --json
    --addrs         one lane per node; reads --concurrency, --retries,
                    --tenant
    --tenants-file  one lane per keyed tenant; reads --addr,
                    --concurrency, --retries
    --connections   a keep-alive fleet; reads --addr, --pipeline, --tenant
    (none of them)  a closed loop, one connection per request; reads
                    --addr, --concurrency, --retries, --tenant
    Every mode but --job also reads --requests, --path, --method,
    --body, --bench-json and --json.

OPTIONS:
    --addr A:P      server address                  [default: 127.0.0.1:7421]
    --concurrency C client threads                  [default: 4]
    --requests N    total requests to send          [default: 200]
    --path P        endpoint to hit                 [default: /v1/solve]
    --method M      HTTP method                     [default: POST]
    --body JSON     request body                    [default: {}]
    --retries N     retry budget per request, with exponential backoff
                    and a circuit breaker (0 disables)  [default: 0]
    --connections C open C persistent keep-alive connections up front
                    and drive them concurrently (requires
                    `serve --keep-alive`)
    --pipeline P    requests written per batch on each keep-alive
                    connection                      [default: 1]
    --job           submit one async job (POST /v1/jobs) with --body as
                    the sweep spec, stream its events, and report the
                    round trip instead of load-testing
    --addrs A,B,... round-robin the workload across several cluster
                    nodes (each gets requests/N) and report one row per
                    node next to the aggregate
    --tenant KEY    authenticate every request with
                    Authorization: Bearer KEY
    --tenants-file FILE  adversarial mode: drive every keyed tenant in
                    the JSONL config concurrently (each gets the full
                    --concurrency/--requests workload under its own
                    key) and report one row per tenant
    --bench-json F  also write the machine-readable report to file F
    --json          machine-readable output";

#[derive(Serialize)]
struct LoadgenRow {
    requests: u64,
    connections: usize,
    ok: u64,
    non_ok: u64,
    errors: u64,
    retries: u64,
    retryable_status: u64,
    rate_limited: u64,
    retries_by_status: serde::Value,
    transport_resets: u64,
    breaker_opens: u64,
    elapsed_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

/// One report row: `requests` sent and what `report` measured.
fn loadgen_row(requests: u64, report: &client::LoadgenReport) -> serde::Value {
    use serde::Serialize as _;
    let ms = |q: f64| report.quantile(q).as_secs_f64() * 1e3;
    LoadgenRow {
        requests,
        connections: report.connections,
        ok: report.ok,
        non_ok: report.non_ok,
        errors: report.errors,
        retries: report.retries,
        retryable_status: report.retryable_status,
        rate_limited: report.rate_limited,
        // The per-status retry totals as a `{"429": 31, "503": 4}` object.
        retries_by_status: serde::Value::Object(
            report
                .retries_by_status
                .iter()
                .map(|&(status, count)| (status.to_string(), count.to_value()))
                .collect(),
        ),
        transport_resets: report.transport_resets,
        breaker_opens: report.breaker_opens,
        elapsed_s: report.elapsed.as_secs_f64(),
        throughput_rps: report.throughput_rps(),
        p50_ms: ms(0.50),
        p95_ms: ms(0.95),
        p99_ms: ms(0.99),
    }
    .to_value()
}

/// `wrsn loadgen`: one lane for `--addr`, one per `--addrs` node (its
/// round-robin share of the requests) or one per keyed tenant of
/// `--tenants-file` (the whole workload each), all run at once; or,
/// with `--job`, one async sweep job.
pub(super) fn run(rest: &[String]) -> Result<String, CliError> {
    let mut args = Args::parse(rest.to_vec())?;
    let given = args.given();
    let addr: String = args.get_or("addr", "an address:port", "127.0.0.1:7421".to_string())?;
    let concurrency: usize = args.get_or("concurrency", "a thread count", 4)?;
    let requests: u64 = args.get_or("requests", "a request count", 200)?;
    let path: String = args.get_or("path", "an endpoint path", "/v1/solve".to_string())?;
    let method: String = args.get_or("method", "an HTTP method", "POST".to_string())?;
    let body: String = args.get_or("body", "a JSON body", "{}".to_string())?;
    let retries: u32 = args.get_or("retries", "a retry budget", 0)?;
    let connections: Option<usize> = args.opt("connections", "a connection count")?;
    let pipeline: usize = args.get_or("pipeline", "a batch depth", 1)?;
    let job = args.flag("job");
    let tenant_key: Option<String> = args.opt("tenant", "an API key")?;
    let tenants_file: Option<String> = args.opt("tenants-file", "a tenants file")?;
    let addrs: Option<String> = args.opt("addrs", "a comma-separated address list")?;
    let bench_json: Option<String> = args.opt("bench-json", "an output path")?;
    let json = args.flag("json");
    args.finish()?;
    // The first of these flags given picks the mode. Every load mode
    // reads `LOAD`; a flag the mode does not read is refused by name.
    const LOAD: [&str; 6] = ["requests", "path", "method", "body", "bench-json", "json"];
    let (mode, reads): (&str, &[&str]) = if job {
        ("loadgen --job", &["job", "addr", "body", "tenant", "json"])
    } else if addrs.is_some() {
        (
            "loadgen --addrs",
            &["addrs", "concurrency", "retries", "tenant"],
        )
    } else if tenants_file.is_some() {
        (
            "loadgen --tenants-file",
            &["tenants-file", "addr", "concurrency", "retries"],
        )
    } else if connections.is_some() {
        (
            "loadgen --connections",
            &["connections", "pipeline", "addr", "tenant"],
        )
    } else {
        (
            "closed-loop loadgen (without --connections)",
            &["addr", "concurrency", "retries", "tenant"],
        )
    };
    let unread: Vec<String> = given
        .iter()
        .filter(|f| !reads.contains(&f.as_str()) && (job || !LOAD.contains(&f.as_str())))
        .map(|f| format!("--{f}"))
        .collect();
    if !unread.is_empty() {
        return Err(CliError(format!(
            "{mode} does not read {}",
            unread.join(", ")
        )));
    }
    let (doc, text) = if job {
        loadgen_job(&addr, &body, tenant_key.as_deref())?
    } else {
        if concurrency == 0 || requests == 0 {
            return Err(CliError(
                "--concurrency and --requests must be at least 1".into(),
            ));
        }
        if connections == Some(0) || pipeline == 0 {
            return Err(CliError(
                "--connections and --pipeline must be at least 1".into(),
            ));
        }
        let base = client::RequestSpec {
            addr: &addr,
            method: &method,
            path: &path,
            body: (method != "GET").then_some(body.as_str()),
            key: tenant_key.as_deref(),
        };
        let retry = (retries > 0).then(|| client::RetryPolicy {
            max_retries: retries,
            ..client::RetryPolicy::default()
        });
        let per_request = |threads| client::Drive::PerRequest {
            threads,
            retry: retry.clone(),
        };
        let tenants = tenants_file.as_deref().map(keyed_tenants).transpose()?;
        // One lane per --addrs node (its round-robin share), per keyed
        // tenant (the whole workload each), or for --addr; `kind` names
        // the lanes in errors and picks the report's shape.
        let (kind, lanes) = if let Some(list) = &addrs {
            let nodes: Vec<&str> = list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .collect();
            let n = nodes.len() as u64;
            if n == 0 {
                return Err(CliError("--addrs needs at least one address".into()));
            }
            if requests < n {
                return Err(CliError(format!(
                    "--requests {requests} is fewer than the {n} node(s) in --addrs"
                )));
            }
            let lanes = nodes.iter().enumerate().map(|(i, node)| {
                // Round-robin split: the first (requests % n) nodes
                // carry one extra request.
                let share = requests / n + u64::from((i as u64) < requests % n);
                let threads = concurrency.min(usize::try_from(share).unwrap_or(usize::MAX));
                let work = client::Workload {
                    request: client::RequestSpec { addr: node, ..base },
                    requests: share,
                    drive: per_request(threads),
                };
                ((*node).to_string(), work)
            });
            ("node", lanes.collect())
        } else if let Some(tenants) = &tenants {
            let lanes = tenants.iter().map(|tenant| {
                let work = client::Workload {
                    request: client::RequestSpec {
                        key: tenant.key.as_deref(),
                        ..base
                    },
                    requests,
                    drive: per_request(concurrency),
                };
                (tenant.name.clone(), work)
            });
            ("tenant", lanes.collect())
        } else {
            let drive = match connections {
                Some(connections) => client::Drive::KeepAlive {
                    connections,
                    pipeline,
                },
                None => per_request(concurrency),
            };
            let work = client::Workload {
                request: base,
                requests,
                drive,
            };
            ("", vec![(addr.clone(), work)])
        };
        let (mut rows, total) = run_lanes(kind, &lanes)?;
        let how = match (kind, connections) {
            ("node", _) => format!("round-robin over {} node(s)", lanes.len()),
            ("tenant", _) => format!("x {} tenant(s), {concurrency} thread(s) each", lanes.len()),
            (_, Some(c)) => format!("{c} keep-alive connection(s), pipeline {pipeline}"),
            (_, None) => format!("{concurrency} thread(s)"),
        };
        let title = format!("loadgen {method} {path} ({requests} requests, {how})");
        let doc = match kind {
            "node" => {
                let aggregate = loadgen_row(requests, &total);
                let doc = serde::Value::Object(vec![
                    ("nodes".to_string(), serde::Value::Object(rows.clone())),
                    ("aggregate".to_string(), aggregate.clone()),
                ]);
                rows.push(("(aggregate)".to_string(), aggregate));
                doc
            }
            "tenant" => serde::Value::Object(rows.clone()),
            _ => {
                // When the server exposes an io section (a store is
                // attached), the durability counters ride along in the
                // bench artifact so a perf row records the fsync cost it
                // was measured under.
                let mut doc = rows[0].1.clone();
                let server_io = client::request(&addr, "GET", "/statusz", None)
                    .ok()
                    .filter(|resp| resp.status == 200)
                    .and_then(|resp| serde_json::from_str::<serde::Value>(&resp.body).ok())
                    .and_then(|status| status.get("io").cloned());
                if let (serde::Value::Object(pairs), Some(io)) = (&mut doc, server_io) {
                    pairs.push(("server_io".to_string(), io));
                }
                doc
            }
        };
        (doc, loadgen_table(&title, &rows))
    };
    if let Some(path) = &bench_json {
        let text = serde_json::to_string_pretty(&doc).expect("serializable");
        std::fs::write(path, text.as_bytes())
            .map_err(|e| CliError(format!("writing {path}: {e}")))?;
    }
    if json {
        return Ok(serde_json::to_string_pretty(&doc).expect("serializable"));
    }
    Ok(text)
}

/// Runs every lane at once, one `client::loadgen` each, and returns a
/// labelled report row per lane and the lanes merged. A lane that
/// fails fails the run, named by `kind` and its label.
fn run_lanes(
    kind: &str,
    lanes: &[(String, client::Workload<'_>)],
) -> Result<(Vec<(String, serde::Value)>, client::LoadgenReport), CliError> {
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|(_, work)| scope.spawn(move || client::loadgen(work)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen lane panicked"))
            .collect()
    });
    let mut rows = Vec::with_capacity(lanes.len());
    let mut total = client::LoadgenReport::default();
    for ((label, work), report) in lanes.iter().zip(reports) {
        let report = report.map_err(|e| match kind {
            "" => CliError(e.to_string()),
            kind => CliError(format!("{kind} {label}: {e}")),
        })?;
        rows.push((label.clone(), loadgen_row(work.requests, &report)));
        total.merge(report);
    }
    Ok((rows, total))
}

/// The keyed tenants of a tenants file, the lanes of `loadgen
/// --tenants-file`.
fn keyed_tenants(file: &str) -> Result<Vec<wrsn_serve::TenantSpec>, CliError> {
    let text =
        std::fs::read_to_string(file).map_err(|e| CliError(format!("reading {file}: {e}")))?;
    let tenants = wrsn_serve::tenant::parse_tenants(&text)
        .map_err(|why| CliError(format!("{file}: {why}")))?;
    let keyed: Vec<_> = tenants.into_iter().filter(|t| t.key.is_some()).collect();
    if keyed.is_empty() {
        return Err(CliError(format!("{file}: no keyed tenants to drive")));
    }
    Ok(keyed)
}

/// A loadgen text table: one column per lane, one line per field of
/// its JSON row.
fn loadgen_table(title: &str, rows: &[(String, serde::Value)]) -> String {
    let mut headers = vec!["metric"];
    headers.extend(rows.iter().map(|(label, _)| label.as_str()));
    let mut table = Table::new(title, &headers);
    if let Some((_, serde::Value::Object(fields))) = rows.first() {
        for (field, _) in fields {
            let mut cells = vec![field.clone()];
            cells.extend(rows.iter().map(|(_, row)| match row.get(field) {
                Some(serde::Value::Number(serde::Number::Float(x))) => format!("{x:.3}"),
                Some(value) => serde_json::to_string(value).expect("serializable"),
                None => String::new(),
            }));
            table.row(&cells);
        }
    }
    table.render()
}

/// `loadgen --job`: submit one async sweep job, stream its events, and
/// report the round trip.
fn loadgen_job(
    addr: &str,
    body: &str,
    key: Option<&str>,
) -> Result<(serde::Value, String), CliError> {
    let spec = (!body.trim().is_empty() && body != "{}").then_some(body);
    let outcome = client::run_job(
        addr,
        key,
        spec,
        Duration::from_millis(50),
        Duration::from_secs(120),
    )
    .map_err(|e| CliError(e.to_string()))?;
    let text = format!(
        "job {} finished in state {:?} after {} event(s)\n{}\n",
        outcome.id,
        outcome.state,
        outcome.events.len(),
        outcome.final_body
    );
    let report = serde_json::from_str(&outcome.final_body);
    let doc = serde::Value::Object(vec![
        ("id".to_string(), outcome.id.to_value()),
        ("state".to_string(), serde::Value::String(outcome.state)),
        (
            "events".to_string(),
            (outcome.events.len() as u64).to_value(),
        ),
        (
            "final".to_string(),
            report.unwrap_or(serde::Value::String(outcome.final_body)),
        ),
    ]);
    Ok((doc, text))
}

#[cfg(test)]
mod tests {
    use crate::commands::tests::run_str;
    use std::sync::Arc;
    use wrsn_engine::ResultStore;
    use wrsn_serve::api::ApiContext;
    use wrsn_serve::{Server, ServerConfig};

    #[test]
    fn serve_loadgen_round_trip_with_cache() {
        let dir = std::env::temp_dir().join("wrsn-cli-serve-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let mut api = ApiContext::new();
        api.store = Some(Arc::new(ResultStore::open(&dir).unwrap()));
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, api).unwrap();
        let addr = handle.addr().to_string();
        let body = "{\"instance\":{\"posts\":5,\"nodes\":10,\"field\":150.0},\"solver\":\"idb\"}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --concurrency 2 --requests 10 --body {} --json",
            body.replace(' ', "")
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 10);
        assert_eq!(v["errors"], 0);
        assert!(v["throughput_rps"].as_f64().unwrap() > 0.0);
        handle.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn loadgen_retries_through_a_chaotic_server() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            chaos: Some(wrsn_serve::ChaosPolicy::seeded(11).faults(0.3)),
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let body = "{\"instance\":{\"posts\":5,\"nodes\":10,\"field\":150.0},\"solver\":\"idb\"}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --concurrency 2 --requests 12 --retries 8 --body {} --json",
            body.replace(' ', "")
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 12, "retries absorb every injected fault: {out}");
        assert_eq!(v["non_ok"], 0);
        assert_eq!(v["errors"], 0);
        assert!(v["retries"].as_u64().unwrap() > 0, "{out}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn loadgen_keep_alive_mode_reports_the_fleet_and_writes_bench_json() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let bench = std::env::temp_dir().join("wrsn-cli-bench-serve.json");
        let _ = std::fs::remove_file(&bench);
        let out = run_str(&format!(
            "loadgen --addr {addr} --connections 3 --pipeline 2 --requests 12 \
             --method GET --path /healthz --bench-json {} --json",
            bench.display()
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["ok"], 12, "{out}");
        assert_eq!(v["errors"], 0);
        assert_eq!(v["connections"], 3);
        // --bench-json mirrors the same report to a file.
        let filed = std::fs::read_to_string(&bench).unwrap();
        assert_eq!(filed, out);
        handle.shutdown().unwrap();
        let _ = std::fs::remove_file(bench);
    }

    #[test]
    fn loadgen_job_mode_round_trips_an_async_sweep() {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let spec = "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0},\"seeds\":2}";
        let out = run_str(&format!("loadgen --addr {addr} --job --body {spec} --json")).unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["state"], "done", "{out}");
        assert_eq!(v["events"], 2);
        assert!(v["final"]["report"].as_object().is_some(), "{out}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn loadgen_job_sends_the_tenant_key_to_a_keyed_server() {
        let tenants =
            wrsn_serve::tenant::parse_tenants(r#"{"name": "solo", "key": "solo-key"}"#).unwrap();
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 16,
            keep_alive: true,
            tenants: Some(tenants),
            ..ServerConfig::default()
        };
        let handle = Server::start(&config, ApiContext::new()).unwrap();
        let addr = handle.addr().to_string();
        let spec = "{\"instance\":{\"posts\":5,\"nodes\":12,\"field\":150.0},\"seeds\":2}";
        let out = run_str(&format!(
            "loadgen --addr {addr} --job --tenant solo-key --body {spec} --json"
        ))
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["state"], "done", "{out}");
        assert_eq!(v["events"], 2);
        // Without the key the submit is refused.
        let err = run_str(&format!("loadgen --addr {addr} --job --body {spec}")).unwrap_err();
        assert!(err.to_string().contains("401"), "{err}");
        handle.shutdown().unwrap();
    }

    #[test]
    fn loadgen_refuses_a_flag_its_mode_does_not_read() {
        for (cmd, flag) in [
            (
                "loadgen --tenants-file t.jsonl --connections 3 --pipeline 4",
                "--connections",
            ),
            (
                "loadgen --connections 2 --retries 3 --concurrency 9",
                "--concurrency, --retries",
            ),
            (
                "loadgen --addrs 127.0.0.1:9,127.0.0.1:10 --pipeline 8",
                "--pipeline",
            ),
            ("loadgen --addrs 127.0.0.1:9 --job", "--addrs"),
            ("loadgen --job --requests 5", "--requests"),
            ("loadgen --pipeline 2", "--pipeline"),
            ("loadgen --addrs 127.0.0.1:9 --addr 127.0.0.1:9", "--addr"),
            ("loadgen --tenants-file t.jsonl --tenant k", "--tenant"),
        ] {
            let err = run_str(cmd).unwrap_err().to_string();
            assert!(
                err.contains(&format!("does not read {flag}")),
                "{cmd}: {err}"
            );
        }
    }
}
