//! What each replay costs the engine. Report reconstruction and
//! lenient verify never enter it, not even for the pilot stage; strict
//! verify re-derives the trace with exactly one sweep. One test, its
//! own process: the telemetry registry is process-global, so the only
//! sweeps it ever sees here are the recording and that re-derivation.

use std::sync::atomic::{AtomicU64, Ordering};

use synapse_campaign::{
    run_campaign_on, CampaignSpec, CancelToken, PointEvent, ResultCache, RunConfig,
};
use synapse_trace::{ReplayMode, Trace, TraceRecorder};

/// One unlabelled sample off the process registry's scrape.
fn scraped(series: &str) -> u64 {
    synapse_telemetry::global()
        .render()
        .lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{series} not in the scrape"))
}

#[test]
fn report_reconstruction_never_simulates_and_strict_verify_sweeps_once() {
    let spec = CampaignSpec::from_toml(
        r#"
        name = "replay-no-resim"
        seed = 7
        machines = ["thinkie", "comet"]
        kernels = ["asm", "c"]

        [[workloads]]
        app = "gromacs"
        steps = [10000, 50000]

        [pilot]
        policy = "backfill"
        "#,
    )
    .unwrap();
    let recorder = TraceRecorder::new(&spec);
    let samples = AtomicU64::new(0);
    let outcome = run_campaign_on(
        &spec,
        &RunConfig::default(),
        &ResultCache::in_memory(),
        &|event| {
            if let PointEvent::PointDone { result, .. } = &event {
                samples.fetch_add(result.samples as u64, Ordering::Relaxed);
            }
            recorder.observe(&event)
        },
        &CancelToken::new(),
    )
    .unwrap();
    recorder.record_stats(&outcome.stats);
    let text = recorder.render();

    let engine = || {
        (
            scraped("synapse_engine_simulate_seconds_count"),
            scraped("synapse_engine_points_total"),
            scraped("synapse_engine_samples_replayed_total"),
        )
    };
    let recorded = engine();
    let samples = samples.into_inner();
    assert!(samples > 8, "every point replays at least one sample");
    assert_eq!(
        recorded,
        (8, 8, samples),
        "the cold recording sweep simulated, and counted what it replayed"
    );

    let trace = Trace::parse(&text).unwrap();
    assert!(trace.verify(ReplayMode::Lenient).unwrap().is_clean());
    assert!(
        !outcome.report.pilot.is_empty(),
        "the pilot block is covered"
    );
    let report = trace.reconstruct_report().unwrap();
    assert_eq!(report.to_json().unwrap(), outcome.report.to_json().unwrap());
    assert_eq!(engine(), recorded, "replay re-entered the engine");

    let summary = trace.verify(ReplayMode::Strict).unwrap();
    assert!(summary.is_clean());
    assert_eq!(summary.points, 8);
    assert_eq!(
        engine(),
        (16, 16, 2 * samples),
        "strict verify re-derives with one sweep, never more"
    );
}
