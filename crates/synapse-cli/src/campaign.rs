//! The in-process `campaign` actions: `run` / `plan` over a spec,
//! `replay` / `trace-summary` over a recorded trace, and `cache
//! stats|compact` over a result cache.

use std::io::Write;
use std::path::PathBuf;

use serde_json::json;
use synapse_campaign::{CampaignSpec, ResultCache};
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

use crate::{args, default_campaign_cache, CliError, Invocation, CAMPAIGN_ACTIONS};

/// Parse `campaign run|plan <spec> [flags]`. Both share one flag set;
/// the action name is only checked once the flags have parsed.
pub(crate) fn parse_run(action: &str, argv: &[String]) -> Result<Invocation, String> {
    let mut cache = default_campaign_cache();
    let mut workers = 0usize;
    let (mut json_out, mut csv_out, mut summary_json, mut record) = (None, None, None, None);
    let mut timings = false;
    let spec = args::walk(argv, Some(""), |flag, args| {
        match flag {
            "--cache" => cache = args.value()?.into(),
            "--workers" => workers = args.parse()?,
            "--json" => json_out = Some(args.value()?.into()),
            "--csv" => csv_out = Some(args.value()?.into()),
            "--summary-json" => summary_json = Some(args.value()?.into()),
            "--timings" => timings = true,
            "--record" => record = Some(args.value()?.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
        Ok(())
    })?;
    let spec = PathBuf::from(spec.ok_or("campaign requires a spec file argument")?);
    match action {
        "run" => Ok(Invocation::CampaignRun {
            spec,
            cache,
            workers,
            json_out,
            csv_out,
            summary_json,
            timings,
            record,
        }),
        "plan" => Ok(Invocation::CampaignPlan { spec }),
        other => Err(format!(
            "unknown campaign action {other} ({CAMPAIGN_ACTIONS})"
        )),
    }
}

/// Parse the `campaign replay|trace-summary <trace.jsonl>` forms.
pub(crate) fn parse_trace(action: &str, argv: &[String]) -> Result<Invocation, String> {
    let mut lenient = false;
    let mut report = None;
    let trace = args::walk(argv, Some(""), |flag, args| {
        match (action, flag) {
            ("replay", "--strict") => lenient = false,
            ("replay", "--lenient") => lenient = true,
            ("replay", "--report") => report = Some(args.value()?.into()),
            _ => return Err(format!("unknown campaign {action} flag {flag}")),
        }
        Ok(())
    })?;
    let trace = trace.ok_or_else(|| format!("campaign {action} requires a trace file"))?;
    let trace = PathBuf::from(trace);
    Ok(match action {
        "replay" => Invocation::CampaignReplay {
            trace,
            lenient,
            report,
        },
        _ => Invocation::CampaignTraceSummary { trace },
    })
}

/// Parse the `campaign cache <action> [--cache DIR]` form.
pub(crate) fn parse_cache(argv: &[String]) -> Result<Invocation, String> {
    let (action, rest) = argv
        .split_first()
        .ok_or("campaign cache requires an action (stats | compact)")?;
    let mut cache = default_campaign_cache();
    args::walk(rest, None, |arg, args| {
        if arg != "--cache" {
            return Err(format!("unexpected campaign cache argument {arg:?}"));
        }
        cache = args.value()?.into();
        Ok(())
    })?;
    match action.as_str() {
        "stats" => Ok(Invocation::CampaignCacheStats { cache }),
        "compact" => Ok(Invocation::CampaignCacheCompact { cache }),
        other => Err(format!(
            "unknown campaign cache action {other} (stats | compact)"
        )),
    }
}

/// Execute one of this family's invocations.
pub(crate) fn run(invocation: Invocation, out: &mut impl Write) -> Result<(), CliError> {
    match invocation {
        Invocation::CampaignPlan { spec } => {
            let spec = CampaignSpec::from_path(&spec)?;
            let points = synapse_campaign::expand(&spec);
            writeln!(
                out,
                "campaign {:?}: {} points ({} workload-steps × {} machines × {} kernels × {} modes × {} widths × {} io blocks × {} rates × {} filesystems × {} atom sets × {} sample orders)",
                spec.name,
                points.len(),
                spec.workloads.iter().map(|w| w.steps.len()).sum::<usize>(),
                spec.machines.len(),
                spec.kernels.len(),
                spec.modes.len(),
                spec.threads.len(),
                spec.io_blocks.len(),
                spec.sample_rates.len(),
                spec.filesystems.len(),
                spec.atoms.len(),
                spec.sample_order.len(),
            )?;
            for p in points.iter().take(10) {
                writeln!(out, "  [{:>4}] {}", p.index, p.label())?;
            }
            if points.len() > 10 {
                writeln!(out, "  ... {} more", points.len() - 10)?;
            }
        }
        Invocation::CampaignCacheStats { cache } => {
            let stats = ResultCache::open_with_workers(&cache, 0)?.stats();
            writeln!(
                out,
                "cache {}: {} results, {} shard files ({}/{} shards occupied, {} dirty), {} bytes on disk, engine {:?}",
                cache.display(),
                stats.docs,
                stats.data_files,
                stats.occupied_shards,
                synapse_store::SHARD_COUNT,
                stats.dirty_shards,
                stats.bytes_on_disk,
                stats.engine,
            )?;
        }
        Invocation::CampaignCacheCompact { cache } => {
            let pass = ResultCache::open_with_workers(&cache, 0)?.compact()?;
            writeln!(
                out,
                "compacted {}: {} -> {} shard files ({} results){}",
                cache.display(),
                pass.files_before,
                pass.files_after,
                pass.docs,
                if pass.changed {
                    ""
                } else {
                    " — already compact"
                },
            )?;
        }
        Invocation::CampaignRun {
            spec,
            cache,
            workers,
            json_out,
            csv_out,
            summary_json,
            timings,
            record,
        } => {
            let spec = CampaignSpec::from_path(&spec)?;
            let config = synapse_campaign::RunConfig { workers };
            let result_cache = ResultCache::open_with_workers(&cache, config.workers)?;
            // Flight-record the run (`--record`): the recorder sits on
            // the same observer seam the server streams from, then the
            // post-run stage timings are stamped in before sealing.
            let recorder = record.map(|path| (path, TraceRecorder::new(&spec)));
            let outcome = synapse_campaign::run_campaign_on(
                &spec,
                &config,
                &result_cache,
                &|event| {
                    if let Some((_, recorder)) = &recorder {
                        recorder.observe(&event);
                    }
                },
                &synapse_campaign::CancelToken::new(),
            )?;
            let stats = outcome.stats;
            if let Some((path, recorder)) = &recorder {
                recorder.record_stats(&stats);
                recorder.write_to(path)?;
            }
            write!(out, "{}", outcome.report.render_summary())?;
            writeln!(
                out,
                "  {} points in {:.3}s ({:.0} points/s): {} simulated, {} from cache ({:.0}% hit rate)",
                stats.points,
                stats.wall_secs,
                stats.points_per_sec(),
                stats.simulated,
                stats.cache_hits,
                stats.hit_rate() * 100.0,
            )?;
            if timings {
                writeln!(
                    out,
                    "  stages: expansion {:.3}s, sweep {:.3}s, aggregation {:.3}s",
                    stats.expand_secs, stats.sweep_secs, stats.aggregate_secs,
                )?;
                // Per-point latency distributions are the engine's own
                // histograms, the series `/metrics` exposes.
                for (label, hist) in synapse_campaign::point_latency() {
                    if hist.count() == 0 {
                        writeln!(out, "  {label}: no observations")?;
                        continue;
                    }
                    writeln!(
                        out,
                        "  {label}: p50 {:.3}ms p90 {:.3}ms p99 {:.3}ms ({} observations)",
                        hist.quantile(0.5) * 1e3,
                        hist.quantile(0.9) * 1e3,
                        hist.quantile(0.99) * 1e3,
                        hist.count(),
                    )?;
                }
            }
            if let Some(path) = json_out {
                std::fs::write(&path, outcome.report.to_json_pretty()?)?;
                writeln!(out, "  report written to {}", path.display())?;
            }
            if let Some(path) = csv_out {
                std::fs::write(&path, outcome.report.to_csv())?;
                writeln!(out, "  csv written to {}", path.display())?;
            }
            if let Some((path, recorder)) = &recorder {
                let id = recorder.trace_id();
                writeln!(out, "  trace {id} recorded to {}", path.display())?;
            }
            if let Some(path) = summary_json {
                let mut summary = stats.summary_json();
                summary.insert("name".into(), json!(outcome.report.name));
                summary.insert(
                    "engine_version".into(),
                    json!(synapse_campaign::ENGINE_VERSION),
                );
                summary.insert("points_per_sec".into(), json!(stats.points_per_sec()));
                if let Some((trace_path, recorder)) = &recorder {
                    summary.insert(
                        "trace".into(),
                        json!({
                            "path": trace_path.display().to_string(),
                            "trace_id": recorder.trace_id(),
                        }),
                    );
                }
                let summary = serde_json::Value::Object(summary);
                std::fs::write(&path, serde_json::to_string_pretty(&summary)?)?;
                writeln!(out, "  summary written to {}", path.display())?;
            }
        }
        Invocation::CampaignReplay {
            trace,
            lenient,
            report,
        } => {
            let loaded = Trace::load(&trace)?;
            let mode = if lenient {
                ReplayMode::Lenient
            } else {
                ReplayMode::Strict
            };
            let summary = loaded.verify(mode)?;
            writeln!(
                out,
                "replayed trace {}: {}/{} points, {} annotations ({})",
                loaded.header.trace_id,
                summary.points,
                summary.total,
                summary.annotations,
                if summary.is_clean() {
                    "clean".to_string()
                } else {
                    format!("{} divergences", summary.divergences.len())
                },
            )?;
            for divergence in &summary.divergences {
                writeln!(out, "  divergence: {divergence}")?;
            }
            if let Some(path) = report {
                // Reconstructed purely from the record — the simulator
                // is never invoked, so this is byte-identical to the
                // live run's report or an error.
                let report = loaded.reconstruct_report()?;
                let rendered = if path.extension().is_some_and(|e| e == "csv") {
                    report.to_csv()
                } else {
                    report.to_json_pretty()?
                };
                std::fs::write(&path, rendered)?;
                writeln!(out, "  report reconstructed to {}", path.display())?;
            }
        }
        Invocation::CampaignTraceSummary { trace } => {
            write!(out, "{}", Trace::load(&trace)?.summary())?;
        }
        other => unreachable!("not an in-process campaign invocation: {other:?}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_args;
    use crate::tests::{argv, output, output_text, sweep_fixture};

    #[test]
    fn parses_campaign_run_and_plan() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--cache",
            "/tmp/cc",
            "--workers",
            "4",
            "--json",
            "out.json",
            "--csv",
            "out.csv",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun {
                spec,
                cache,
                workers,
                json_out,
                csv_out,
                summary_json,
                timings,
                record,
            } => {
                assert_eq!(spec, PathBuf::from("sweep.toml"));
                assert_eq!(cache, PathBuf::from("/tmp/cc"));
                assert_eq!(workers, 4);
                assert_eq!(json_out, Some(PathBuf::from("out.json")));
                assert_eq!(csv_out, Some(PathBuf::from("out.csv")));
                assert_eq!(summary_json, None);
                assert!(!timings);
                assert_eq!(record, None);
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        let plan = parse_args(&argv(&["campaign", "plan", "sweep.toml"])).unwrap();
        assert_eq!(
            plan,
            Invocation::CampaignPlan {
                spec: PathBuf::from("sweep.toml")
            }
        );
        assert!(parse_args(&argv(&["campaign"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run"])).is_err());
        assert!(parse_args(&argv(&["campaign", "frob", "x.toml"])).is_err());
        assert!(parse_args(&argv(&["campaign", "run", "x.toml", "--bogus"])).is_err());
    }

    #[test]
    fn parses_campaign_run_timings_flag() {
        let inv = parse_args(&argv(&["campaign", "run", "sweep.toml", "--timings"])).unwrap();
        match inv {
            Invocation::CampaignRun { timings, .. } => assert!(timings),
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_run_summary_json_flag() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--summary-json",
            "summary.json",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { summary_json, .. } => {
                assert_eq!(summary_json, Some(PathBuf::from("summary.json")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
    }

    #[test]
    fn parses_campaign_record_and_replay_forms() {
        let inv = parse_args(&argv(&[
            "campaign",
            "run",
            "sweep.toml",
            "--record",
            "run.trace.jsonl",
        ]))
        .unwrap();
        match inv {
            Invocation::CampaignRun { record, .. } => {
                assert_eq!(record, Some(PathBuf::from("run.trace.jsonl")));
            }
            other => panic!("wrong invocation: {other:?}"),
        }
        assert!(parse_args(&argv(&["campaign", "run", "s.toml", "--record"])).is_err());

        assert_eq!(
            parse_args(&argv(&["campaign", "replay", "run.trace.jsonl"])).unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: false,
                report: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign",
                "replay",
                "run.trace.jsonl",
                "--lenient",
                "--report",
                "out.csv",
            ]))
            .unwrap(),
            Invocation::CampaignReplay {
                trace: PathBuf::from("run.trace.jsonl"),
                lenient: true,
                report: Some(PathBuf::from("out.csv")),
            }
        );
        assert_eq!(
            parse_args(&argv(&["campaign", "trace-summary", "t.jsonl"])).unwrap(),
            Invocation::CampaignTraceSummary {
                trace: PathBuf::from("t.jsonl"),
            }
        );
        assert!(parse_args(&argv(&["campaign", "replay"])).is_err());
        assert!(parse_args(&argv(&["campaign", "replay", "a", "b"])).is_err());
        assert!(parse_args(&argv(&["campaign", "trace-summary", "t", "--lenient"])).is_err());
    }

    #[test]
    fn parses_campaign_cache_actions() {
        assert_eq!(
            parse_args(&argv(&["campaign", "cache", "stats", "--cache", "/tmp/c"])).unwrap(),
            Invocation::CampaignCacheStats {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "campaign", "cache", "compact", "--cache", "/tmp/c"
            ]))
            .unwrap(),
            Invocation::CampaignCacheCompact {
                cache: PathBuf::from("/tmp/c")
            }
        );
        assert!(parse_args(&argv(&["campaign", "cache"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "frob"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "extra"])).is_err());
        assert!(parse_args(&argv(&["campaign", "cache", "stats", "--cache"])).is_err());
    }

    #[test]
    fn campaign_plan_and_run_through_cli_layer() {
        let (dir, spec_path) = sweep_fixture("cli-sweep", 1, "[10000]");

        let plan_text = output_text(Invocation::CampaignPlan {
            spec: spec_path.clone(),
        });
        assert!(plan_text.contains("4 points"), "{plan_text}");

        let cache = dir.join("cache");
        let json_path = dir.join("report.json");
        let summary_path = dir.join("summary.json");
        let trace_path = dir.join("run.trace.jsonl");
        let invocation = || Invocation::CampaignRun {
            spec: spec_path.clone(),
            cache: cache.clone(),
            workers: 2,
            json_out: Some(json_path.clone()),
            csv_out: Some(dir.join("report.csv")),
            summary_json: Some(summary_path.clone()),
            timings: true,
            record: Some(trace_path.clone()),
        };
        let text1 = output_text(invocation());
        assert!(text1.contains("4 simulated, 0 from cache"), "{text1}");
        assert!(json_path.exists());
        assert!(dir.join("report.csv").exists());

        // Second run is served from the persisted cache, and the
        // machine-readable summary says so exactly (what CI asserts).
        let text2 = output_text(invocation());
        assert!(
            text2.contains("0 simulated, 4 from cache (100% hit rate)"),
            "{text2}"
        );
        let summary: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary["cache_hit_rate"].as_f64(), Some(1.0));
        assert_eq!(summary["simulated"].as_u64(), Some(0));
        assert_eq!(summary["cache_hits"].as_u64(), Some(4));
        assert!(summary["points_per_sec"].as_f64().unwrap() > 0.0);
        // `--timings` prints the stage breakdown, and the summary
        // carries the same shape machine-readably.
        assert!(text2.contains("stages: expansion"), "{text2}");
        assert!(text2.contains("cache lookup: p50"), "{text2}");
        assert!(summary["timings"]["wall_secs"].as_f64().unwrap() > 0.0);
        assert!(summary["timings"]["sweep_secs"].as_f64().unwrap() > 0.0);
        // The summary names the engine version and the recorded trace
        // so downstream tooling can gate on compatibility directly.
        assert_eq!(
            summary["engine_version"].as_u64(),
            Some(synapse_campaign::ENGINE_VERSION as u64)
        );
        assert_eq!(
            summary["trace"]["path"].as_str(),
            Some(trace_path.display().to_string().as_str())
        );
        assert!(summary["trace"]["trace_id"].as_str().is_some());

        // Strict replay of the recorded trace reconstructs the report
        // byte-identically without invoking the simulator.
        let reconstructed = dir.join("replayed.json");
        let replay_text = output_text(Invocation::CampaignReplay {
            trace: trace_path.clone(),
            lenient: false,
            report: Some(reconstructed.clone()),
        });
        assert!(replay_text.contains("clean"), "{replay_text}");
        assert_eq!(
            std::fs::read(&json_path).unwrap(),
            std::fs::read(&reconstructed).unwrap(),
            "replayed report must be byte-identical to the live run's"
        );
        let ts_text = output_text(Invocation::CampaignTraceSummary {
            trace: trace_path.clone(),
        });
        assert!(ts_text.contains("campaign \"cli-sweep\""), "{ts_text}");
        assert!(ts_text.contains("stages:"), "{ts_text}");

        // The cache subcommands see the sharded store the runs built.
        let stats_text = output_text(Invocation::CampaignCacheStats {
            cache: cache.clone(),
        });
        assert!(stats_text.contains("4 results"), "{stats_text}");
        let buf4 = output(Invocation::CampaignCacheCompact { cache });
        assert!(
            String::from_utf8(buf4).unwrap().contains("compacted"),
            "compact output"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
