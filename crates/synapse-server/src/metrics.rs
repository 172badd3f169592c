//! The serve daemon's handles into the process-wide telemetry
//! registry (`synapse_server_<name>` series; catalog in the README).
//!
//! Everything here is registered once through a `OnceLock`, so the hot
//! paths (reactor passes, stream pumps, request handling) touch only
//! the atomic handles — never the registry lock. Gauges that mirror
//! operational state (`connections_active`, queue depths) are
//! refreshed at scrape time from the *same* sources `/healthz`
//! reports, so the JSON and Prometheus views cannot disagree.

use std::sync::{Arc, OnceLock};

use synapse_telemetry::{global, Counter, Gauge, Histogram, DURATION_BUCKETS, SIZE_BUCKETS};

use crate::routes::{OTHER, ROUTES};

/// Reactor, connection-lifecycle and streaming instrumentation.
pub(crate) struct ServerMetrics {
    /// Connections currently registered with the reactor (scrape-time
    /// mirror of the `active_connections` gauge `/healthz` reports).
    pub connections_active: Arc<Gauge>,
    /// Connections accepted and registered with the poller.
    pub connections_accepted: Arc<Counter>,
    /// Connections accepted past the cap and flagged to answer `503`.
    pub connections_shed: Arc<Counter>,
    /// Connections dropped cold (past twice the cap).
    pub connections_dropped: Arc<Counter>,
    /// Connections the timer scan reclaimed (request timeouts and
    /// stalled writers).
    pub connections_reclaimed: Arc<Counter>,
    /// Reactor work per wake: from `epoll_wait` returning events to
    /// the end of that pass (quiet ticks are not recorded).
    pub poll_seconds: Arc<Histogram>,
    /// Readiness events delivered per non-empty `epoll_wait`.
    pub wake_batch: Arc<Histogram>,
    /// Event-stream payload bytes pumped from job rings into
    /// connection buffers (chunk framing and heartbeats excluded).
    pub stream_bytes: Arc<Counter>,
    /// NDJSON lines dropped from bounded job rings (each shows up in
    /// a stream's `truncated` marker).
    pub ring_truncated_lines: Arc<Counter>,
    /// Jobs sitting in the queue at the last scrape.
    pub jobs_queued: Arc<Gauge>,
    /// Jobs sweeping at the last scrape.
    pub jobs_running: Arc<Gauge>,
    /// Seconds since the server bound, at the last scrape.
    pub uptime_seconds: Arc<Gauge>,
    /// Per-endpoint request latency (dispatch-queue wait + handler
    /// time), keyed by route label.
    requests: Vec<(&'static str, Arc<Histogram>)>,
}

impl ServerMetrics {
    /// The process-wide handles (registering the series on first use).
    pub fn get() -> &'static ServerMetrics {
        static METRICS: OnceLock<ServerMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = global();
            ServerMetrics {
                connections_active: r.gauge(
                    "synapse_server_connections_active",
                    "Connections currently held by the reactor.",
                ),
                connections_accepted: r.counter(
                    "synapse_server_connections_accepted_total",
                    "Connections accepted and registered with the poller.",
                ),
                connections_shed: r.counter(
                    "synapse_server_connections_shed_total",
                    "Connections over the cap, flagged to answer 503.",
                ),
                connections_dropped: r.counter(
                    "synapse_server_connections_dropped_total",
                    "Connections dropped cold past twice the cap.",
                ),
                connections_reclaimed: r.counter(
                    "synapse_server_connections_reclaimed_total",
                    "Connections reclaimed for request timeout or write stall.",
                ),
                poll_seconds: r.histogram(
                    "synapse_server_poll_iteration_seconds",
                    "Reactor work per non-empty epoll wake.",
                    DURATION_BUCKETS,
                ),
                wake_batch: r.histogram(
                    "synapse_server_wake_batch_size",
                    "Readiness events delivered per non-empty epoll_wait.",
                    SIZE_BUCKETS,
                ),
                stream_bytes: r.counter(
                    "synapse_server_stream_bytes_total",
                    "Event-stream payload bytes pumped from job rings.",
                ),
                ring_truncated_lines: r.counter(
                    "synapse_server_ring_truncated_lines_total",
                    "Event lines dropped from bounded job rings.",
                ),
                jobs_queued: r.gauge(
                    "synapse_server_jobs_queued",
                    "Jobs waiting in the queue (refreshed at scrape).",
                ),
                jobs_running: r.gauge(
                    "synapse_server_jobs_running",
                    "Jobs currently sweeping (refreshed at scrape).",
                ),
                uptime_seconds: r.gauge(
                    "synapse_server_uptime_seconds",
                    "Seconds since the server bound (refreshed at scrape).",
                ),
                // One series per label in the route table plus the
                // catch-all; rows sharing a label get-or-create the
                // same series.
                requests: ROUTES
                    .iter()
                    .map(|&(_, _, _, label, _, _)| label)
                    .chain([OTHER])
                    .map(|endpoint| {
                        (
                            endpoint,
                            r.histogram_with(
                                "synapse_server_request_seconds",
                                "Request latency from dispatch to reply, by route shape.",
                                DURATION_BUCKETS,
                                &[("endpoint", endpoint)],
                            ),
                        )
                    })
                    .collect(),
            }
        })
    }

    /// The latency histogram for one route label — a lock-free scan
    /// over the series registered from the route table.
    pub fn request_seconds(&self, endpoint: &'static str) -> &Arc<Histogram> {
        self.requests
            .iter()
            .find(|(e, _)| *e == endpoint)
            .map(|(_, h)| h)
            .expect("every label in ROUTES, and OTHER, is registered")
    }
}
