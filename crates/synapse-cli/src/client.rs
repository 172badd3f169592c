//! The HTTP-client subcommands: `campaign submit|watch|status|cancel|
//! aggregates` against a running `serve`, `cluster add-worker|status`
//! against a coordinator. Everything they print leaves through
//! [`emit_json`], [`stream_lines`] or the aggregates table.

use std::io::Write;

use serde_json::Value;
use synapse_server::{Client, ServerError};

use crate::{args, CliError, Invocation, DEFAULT_SERVER_ADDR};

/// Parse `<family> <action> [positional] [flags]` for the client
/// actions of the `campaign` and `cluster` families. `--server` is
/// common; every other flag belongs to exactly one action.
pub(crate) fn parse(family: &str, action: &str, argv: &[String]) -> Result<Invocation, String> {
    let mut server = DEFAULT_SERVER_ADDR.to_string();
    let (mut watch, mut cluster, mut record) = (false, false, false);
    let (mut aggregates, mut json) = (false, false);
    let (mut axis, mut metric) = (None, None);
    let positional = args::walk(argv, Some(""), |flag, args| {
        match (action, flag) {
            (_, "--server") => server = args.value()?,
            ("submit", "--watch") => watch = true,
            ("submit", "--cluster") => cluster = true,
            ("submit", "--record") => record = true,
            ("watch", "--aggregates") => aggregates = true,
            ("aggregates", "--axis") => axis = Some(args.value()?),
            ("aggregates", "--metric") => metric = Some(args.value()?),
            ("aggregates", "--json") => json = true,
            _ => return Err(format!("unknown {family} {action} flag {flag}")),
        }
        Ok(())
    })?;
    let need = |what: &str| {
        let given = positional.clone();
        given.ok_or_else(|| format!("{family} {action} requires a {what}"))
    };
    Ok(match (family, action) {
        ("cluster", "add-worker") => Invocation::ClusterAddWorker {
            worker: need("worker address")?,
            server,
        },
        ("cluster", _) if positional.is_some() => {
            return Err("cluster status takes no positional argument".into())
        }
        ("cluster", _) => Invocation::ClusterStatus { server },
        (_, "submit") => Invocation::CampaignSubmit {
            spec: need("spec file")?.into(),
            server,
            watch,
            cluster,
            record,
        },
        (_, "watch") => Invocation::CampaignWatch {
            id: need("job id")?,
            server,
            aggregates,
        },
        (_, "aggregates") => Invocation::CampaignAggregates {
            id: need("job id")?,
            server,
            axis,
            metric,
            json,
        },
        (_, "status") => Invocation::CampaignStatus {
            id: positional,
            server,
        },
        (_, "cancel") => Invocation::CampaignCancel {
            id: need("job id")?,
            server,
        },
        _ => return Err(format!("unknown {family} client action {action}")),
    })
}

/// The one place a JSON document is serialized to stdout (one line).
fn emit_json(out: &mut impl Write, doc: &Value) -> Result<(), CliError> {
    Ok(writeln!(out, "{}", serde_json::to_string(doc)?)?)
}

/// Stream a job's NDJSON lines to `out` as `drive` delivers them, then
/// settle the outcome: `what` failed ⇒ `Err` (nonzero exit).
fn stream_lines(
    out: &mut impl Write,
    what: &str,
    drive: impl FnOnce(&mut dyn FnMut(&str) -> bool) -> Result<Value, ServerError>,
) -> Result<(), CliError> {
    let mut write_err: Option<std::io::Error> = None;
    let last = drive(&mut |line| {
        // Flush per line: watchers are typically piped into
        // `jq`/logs and want events as they land. A dead pipe
        // (`... | head`) aborts the watch instead of silently
        // draining the rest of the sweep.
        if let Err(e) = writeln!(out, "{line}").and_then(|()| out.flush()) {
            write_err = Some(e);
        }
        write_err.is_none()
    });
    // Check the pipe BEFORE the protocol outcome: a dead stdout aborts
    // the stream client-side, which can surface as a protocol error
    // from `drive` — but truncating a watch (`... | head`) is routine,
    // not an error; other write failures still exit nonzero.
    match write_err {
        Some(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Ok(()),
        Some(e) => return Err(e.into()),
        None => {}
    }
    let last = last?;
    match (last["event"].as_str(), last["error"].as_str()) {
        (Some("failed"), Some(m)) => Err(format!("{what} failed: {m}").into()),
        (Some("failed"), None) => Err(format!("{what} failed").into()),
        _ => Ok(()),
    }
}

/// `campaign watch`: follow job `id`'s event (or aggregate) stream.
fn watch_job(
    client: &Client,
    id: &str,
    aggregates: bool,
    out: &mut impl Write,
) -> Result<(), CliError> {
    stream_lines(out, &format!("campaign {id}"), |deliver| {
        if aggregates {
            client.watch_aggregates(id, deliver)
        } else {
            client.watch(id, deliver)
        }
    })
}

/// Execute a client invocation against `client`'s server.
pub(crate) fn run(
    client: &Client,
    invocation: Invocation,
    out: &mut impl Write,
) -> Result<(), CliError> {
    let doc = match invocation {
        Invocation::ClusterAddWorker { worker, .. } => client.register_worker(&worker)?,
        Invocation::ClusterStatus { .. } => client.cluster_status()?,
        Invocation::CampaignStatus { id: Some(id), .. } => client.status(&id)?,
        Invocation::CampaignStatus { id: None, .. } => client.list()?,
        Invocation::CampaignCancel { id, .. } => client.cancel(&id)?,
        Invocation::CampaignWatch { id, aggregates, .. } => {
            return watch_job(client, &id, aggregates, out)
        }
        Invocation::CampaignAggregates {
            id,
            axis,
            metric,
            json,
            ..
        } => {
            let doc = client.aggregates(&id, axis.as_deref(), metric.as_deref())?;
            if !json {
                return Ok(write!(out, "{}", render_aggregates_table(&doc))?);
            }
            doc
        }
        Invocation::CampaignSubmit {
            spec,
            watch,
            cluster,
            record,
            ..
        } => {
            let text = std::fs::read_to_string(&spec)?;
            match (record, watch, cluster) {
                // Recorded submits ack first (the ack carries the
                // trace id); `--watch` then follows the stream on a
                // second connection. Fetch the sealed trace afterwards
                // with `GET /campaigns/<id>/trace`.
                (true, true, _) => {
                    let ack = client.submit_recorded(&text, cluster)?;
                    emit_json(out, &ack)?;
                    let id = ack["id"].as_str().ok_or("submit ack carries no job id")?;
                    return watch_job(client, id, false, out);
                }
                (true, false, _) => client.submit_recorded(&text, cluster)?,
                // Submit and stream on ONE connection (`?watch=1`):
                // the ack is the stream's first line, events follow.
                (false, true, _) => {
                    return stream_lines(out, "campaign", |deliver| {
                        let watched = if cluster {
                            client.submit_watch_distributed(&text, deliver)
                        } else {
                            client.submit_watch(&text, deliver)
                        };
                        watched.map(|(_ack, summary)| summary)
                    })
                }
                (false, false, true) => client.submit_distributed(&text)?,
                (false, false, false) => client.submit(&text)?,
            }
        }
        other => unreachable!("not a client invocation: {other:?}"),
    };
    emit_json(out, &doc)
}

/// Render a `GET /campaigns/<id>/aggregates` document as the human
/// table `campaign aggregates` prints: a header line with job identity
/// and sweep progress, then one row per (axis, value, metric) slice —
/// overall first — with count, mean, the exact quantiles and the
/// extrema.
fn render_aggregates_table(doc: &Value) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{} {:?} {} — {}/{} points aggregated ({} observed)",
        doc["id"].as_str().unwrap_or("?"),
        doc["name"].as_str().unwrap_or("?"),
        doc["status"].as_str().unwrap_or("?"),
        doc["done"].as_u64().unwrap_or(0),
        doc["total"].as_u64().unwrap_or(0),
        doc["points"].as_u64().unwrap_or(0),
    );
    let _ = writeln!(
        text,
        "{:<13} {:<14} {:<10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "AXIS", "VALUE", "METRIC", "N", "MEAN", "P50", "P95", "P99", "MIN", "MAX",
    );
    let mut row = |axis: &str, value: &str, metrics: &Value| {
        let Some(metrics) = metrics.as_object() else {
            return;
        };
        for (metric, stats) in metrics {
            if stats["n"].as_u64() == Some(0) {
                continue;
            }
            let _ = write!(
                text,
                "{:<13} {:<14} {:<10} {:>7}",
                axis,
                value,
                metric,
                stats["n"].as_u64().unwrap_or(0),
            );
            for key in ["mean", "p50", "p95", "p99", "min", "max"] {
                let _ = write!(text, " {:>10.4}", stats[key].as_f64().unwrap_or(f64::NAN));
            }
            text.push('\n');
        }
    };
    row("(overall)", "-", &doc["overall"]["metrics"]);
    if let Some(slices) = doc["slices"].as_array() {
        for slice in slices {
            row(
                slice["axis"].as_str().unwrap_or("?"),
                slice["value"].as_str().unwrap_or("?"),
                &slice["metrics"],
            );
        }
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{argv, output, output_json, output_text, sweep_fixture, Booted};
    use crate::{default_campaign_cache, parse_args};
    use std::path::PathBuf;

    #[test]
    fn parses_campaign_client_commands() {
        assert_eq!(
            parse_args(&argv(&["campaign", "submit", "s.toml", "--watch"])).unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: false,
                record: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--record"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: false,
                cluster: true,
                record: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "watch",
                "j3",
                "--server",
                "127.0.0.1:17",
            ]))
            .unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: "127.0.0.1:17".into(),
                aggregates: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "watch", "j3", "--aggregates"])).unwrap(),
            Invocation::CampaignWatch {
                id: "j3".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                aggregates: true,
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "status"])).unwrap(),
            Invocation::CampaignStatus {
                id: None,
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "cancel", "j1"])).unwrap(),
            Invocation::CampaignCancel {
                id: "j1".into(),
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "aggregates",
                "j7",
                "--axis",
                "machine",
                "--metric",
                "error_pct",
                "--json",
            ]))
            .unwrap(),
            Invocation::CampaignAggregates {
                id: "j7".into(),
                server: DEFAULT_SERVER_ADDR.into(),
                axis: Some("machine".into()),
                metric: Some("error_pct".into()),
                json: true,
            }
        );
        assert!(parse_args(&argv(&["campaign", "submit"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cancel"])).is_err());
        assert!(parse_args(&argv(&["campaign", "aggregates"])).is_err());
        // --watch is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--watch"])).is_err());
        // --aggregates is a watch-only flag; --axis belongs to aggregates.
        assert!(parse_args(&argv(&["campaign", "status", "--aggregates"])).is_err());
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--axis", "machine"])).is_err());
    }

    #[test]
    fn aggregates_table_renders_overall_and_slices() {
        let doc = serde_json::json!({
            "id": "j1", "name": "sweep", "status": "running",
            "done": 3, "total": 8, "points": 3, "v": 1,
            "overall": {"metrics": {"error_pct": {
                "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0, "p99": 6.0,
                "min": 3.0, "max": 6.0,
            }, "tx": {"n": 0}}},
            "slices": [{"axis": "machine", "value": "stampede",
                "metrics": {"error_pct": {
                    "n": 3, "mean": 4.5, "p50": 4.0, "p95": 6.0,
                    "p99": 6.0, "min": 3.0, "max": 6.0,
                }}}],
        });
        let table = render_aggregates_table(&doc);
        assert!(table.contains("j1 \"sweep\" running — 3/8 points aggregated"));
        assert!(table.contains("(overall)"));
        assert!(table.contains("machine"));
        assert!(table.contains("stampede"));
        assert!(table.contains("error_pct"));
        // Empty metrics (n=0) render no row.
        assert!(!table.contains(" tx "));
    }

    #[test]
    fn parses_cluster_commands() {
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "start",
                "--worker",
                "127.0.0.1:9001",
                "--worker",
                "127.0.0.1:9002",
                "--max-connections",
                "128",
            ]))
            .unwrap(),
            Invocation::Serve {
                addr: DEFAULT_SERVER_ADDR.into(),
                cache: default_campaign_cache(),
                queue_workers: 2,
                workers: 0,
                max_connections: 128,
                reactor_threads: 0,
                coordinator: Some(vec!["127.0.0.1:9001".into(), "127.0.0.1:9002".into()]),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "cluster",
                "add-worker",
                "127.0.0.1:9001",
                "--server",
                "127.0.0.1:8000",
            ]))
            .unwrap(),
            Invocation::ClusterAddWorker {
                worker: "127.0.0.1:9001".into(),
                server: "127.0.0.1:8000".into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&["cluster", "status"])).unwrap(),
            Invocation::ClusterStatus {
                server: DEFAULT_SERVER_ADDR.into(),
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "submit",
                "s.toml",
                "--cluster",
                "--watch"
            ]))
            .unwrap(),
            Invocation::CampaignSubmit {
                spec: PathBuf::from("s.toml"),
                server: DEFAULT_SERVER_ADDR.into(),
                watch: true,
                cluster: true,
                record: false,
            }
        );
        assert!(parse_args(&argv(&["cluster"])).is_err());
        assert!(parse_args(&argv(&["cluster", "frob"])).is_err());
        assert!(parse_args(&argv(&["cluster", "add-worker"])).is_err());
        assert!(parse_args(&argv(&["cluster", "status", "extra"])).is_err());
        // --worker is a cluster-start-only flag.
        assert!(parse_args(&argv(&["serve", "--worker", "x"])).is_err());
        // --cluster is a submit-only flag.
        assert!(parse_args(&argv(&["campaign", "watch", "j1", "--cluster"])).is_err());
    }

    #[test]
    fn cluster_client_commands_through_cli_layer() {
        // One in-process worker + one in-process coordinator, driven
        // purely through CLI invocations (what the CI cluster smoke
        // does with real processes).
        let (dir, spec_path) = sweep_fixture("cli-cluster", 17, "[10000, 50000]");
        let worker = Booted::start(None, false);
        let coord = Booted::start(None, true);
        let coord_addr = coord.addr.clone();

        // add-worker registers over HTTP.
        let doc = output_json(Invocation::ClusterAddWorker {
            worker: worker.addr.clone(),
            server: coord_addr.clone(),
        });
        assert_eq!(doc["alive"].as_bool(), Some(true));

        // status shows one live worker.
        let status = output_json(Invocation::ClusterStatus {
            server: coord_addr.clone(),
        });
        assert_eq!(status["live"].as_u64(), Some(1));

        // submit --cluster --watch: distributed, streamed, completed.
        let text = output_text(Invocation::CampaignSubmit {
            spec: spec_path,
            server: coord_addr,
            watch: true,
            cluster: true,
            record: false,
        });
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["distributed"].as_bool(), Some(true));
        assert_eq!(first["points"].as_u64(), Some(8));
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        assert_eq!(last["points"].as_u64(), Some(8));

        coord.stop();
        worker.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_watch_status_cancel_through_cli_layer() {
        // Boot a real server, then drive it exclusively through CLI
        // invocations, as the CI smoke step does.
        let (dir, spec_path) = sweep_fixture("cli-serve", 13, "[10000]");
        let server = Booted::start(Some(dir.join("cache")), false);
        let addr = server.addr.clone();

        // submit --watch: one submit reply line + the NDJSON stream.
        let text = output_text(Invocation::CampaignSubmit {
            spec: spec_path.clone(),
            server: addr.clone(),
            watch: true,
            cluster: false,
            record: false,
        });
        let lines: Vec<&str> = text.lines().collect();
        let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["points"].as_u64(), Some(4));
        let id = first["id"].as_str().unwrap().to_string();
        let last: serde_json::Value = serde_json::from_str(lines.last().unwrap()).unwrap();
        assert_eq!(last["event"].as_str(), Some("completed"));
        let point_lines = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"point\""))
            .count();
        assert_eq!(point_lines, 4, "{text}");

        // status of that job.
        let status = output_json(Invocation::CampaignStatus {
            id: Some(id.clone()),
            server: addr.clone(),
        });
        assert_eq!(status["status"].as_str(), Some("completed"));
        assert_eq!(status["done"].as_u64(), Some(4));

        // watch replays a finished job's stream.
        let buf = output(Invocation::CampaignWatch {
            id: id.clone(),
            server: addr.clone(),
            aggregates: false,
        });
        assert!(String::from_utf8(buf)
            .unwrap()
            .contains("\"event\":\"completed\""));

        // watch --aggregates replays the lifecycle + snapshot ring:
        // terminal snapshot and completed event, but no per-point lines.
        let stream = output_text(Invocation::CampaignWatch {
            id: id.clone(),
            server: addr.clone(),
            aggregates: true,
        });
        assert!(stream.contains("\"event\":\"snapshot\""));
        assert!(stream.contains("\"event\":\"completed\""));
        assert!(!stream.contains("\"event\":\"point\""));

        // aggregates prints the live per-(axis, value) stats table.
        let table = output_text(Invocation::CampaignAggregates {
            id: id.clone(),
            server: addr.clone(),
            axis: Some("machine".into()),
            metric: Some("error_pct".into()),
            json: false,
        });
        assert!(table.contains("(overall)"), "{table}");
        assert!(table.contains("error_pct"), "{table}");

        // cancel on a finished job is a no-op status echo.
        let echoed = output_json(Invocation::CampaignCancel {
            id,
            server: addr.clone(),
        });
        assert_eq!(echoed["status"].as_str(), Some("completed"));

        server.stop();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
