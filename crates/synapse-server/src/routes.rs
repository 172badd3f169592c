//! The served route set, spelled once: [`ROUTES`] is the table that
//! dispatch, `404`/`405` + `Allow` replies, the `endpoint` label of
//! `synapse_server_request_seconds` and of trace `span` annotations,
//! and the `docs/PROTOCOL.md` §1 endpoint table ([`endpoint_table`]
//! renders it; a test fails while the doc block differs) all read.
//! The handlers live here too; they run on the handler pool and return
//! bytes or a stream handle for the reactor to drive — never touching
//! a socket.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::atomic::Ordering;
use std::sync::Arc;

use serde::Serialize;
use serde_json::json;
use synapse_campaign::{AggregateMetrics, CampaignSpec, Overall, Slice, View};
use synapse_trace::TraceRecorder;

use crate::http::{self, Request};
use crate::job::{EventRing, Job, JobKind, JobState, LeaseRequest};
use crate::metrics::ServerMetrics;
use crate::server::{ndjson, ServerState};

/// Handle one matched request; the `&str` is the shape's `:id`
/// segment (`""` for shapes without one).
type Handler = fn(&Request, &ServerState, &str) -> Reply;

/// One served route: method; path shape (literal segments, `:id`
/// matching any one segment); role — `both` | `worker` |
/// `coordinator`, the last answering `404` on a server without a
/// cluster backend; `endpoint` label on the request histogram and
/// trace spans; handler; purpose, the row's `docs/PROTOCOL.md` §1 text
/// (which names the row's query variants).
pub(crate) type Route = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    Handler,
    &'static str,
);

/// Label of every request no row's shape matches.
pub(crate) const OTHER: &str = "other";

/// Every route the server answers.
#[rustfmt::skip]
pub(crate) const ROUTES: &[Route] = &[
    ("GET",    "/healthz",                       "both",        "/healthz",                  healthz,
        r#"Liveness probe. `200 {"status":"ok", ...}`."#),
    ("GET",    "/metrics",                       "both",        "/metrics",                  metrics,
        "Prometheus text exposition of the process registry."),
    ("GET",    "/store/stats",                   "both",        "/store/stats",              store_stats,
        "Shape and counters of the shared result cache."),
    ("POST",   "/campaigns",                     "both",        "/campaigns",                submit_campaign,
        r#"Submit a spec (TOML or JSON body). `202 {"id","points",...}`. `?watch=1` streams the job's events on the same connection. `?cluster=1` (coordinator only) fans the grid out over the registered workers. `?record=1` arms the flight recorder: the ack carries the `"trace"` causality id ([TRACE.md](TRACE.md)); it composes with `cluster=1`."#),
    ("GET",    "/campaigns",                     "both",        "/campaigns",                list_campaigns,
        "Status of every retained job."),
    ("GET",    "/campaigns/:id",                 "both",        "/campaigns/:id",            campaign_status,
        "One job's status document."),
    ("DELETE", "/campaigns/:id",                 "both",        "/campaigns/:id",            cancel_campaign,
        "Cooperative cancellation."),
    ("GET",    "/campaigns/:id/events",          "both",        "/campaigns/:id/events",     campaign_events,
        "The job's NDJSON event stream (chunked). `?aggregates=1` is the aggregate-mode stream: lifecycle + `snapshot` deltas, no per-point lines (§5.2)."),
    ("GET",    "/campaigns/:id/aggregates",      "both",        "/campaigns/:id/aggregates", campaign_aggregates,
        "Live per-(axis, value) aggregate view, answerable mid-sweep (§5.1). `?axis=` / `?metric=` narrow it; unknown names are `400` listing the valid ones."),
    ("GET",    "/campaigns/:id/report",          "both",        "/campaigns/:id/report",     campaign_report,
        "Deterministic report; `409` for lease jobs (merging is the coordinator's)."),
    ("GET",    "/campaigns/:id/trace",           "both",        "/campaigns/:id/trace",      campaign_trace,
        "The sealed `.jsonl` trace of a recorded job ([TRACE.md](TRACE.md)); `409` while the job runs, `409` with a hint if it was not recorded."),
    ("POST",   "/leases",                        "worker",      "/leases",                   submit_lease,
        r#"Offer the worker a lease (§2). `202 {"id","status","points","lease","grid_points"}`."#),
    ("POST",   "/cluster/workers",               "coordinator", "/cluster",                  register_worker,
        r#"Register a worker: body `{"addr":"host:port"}`; probed before admission."#),
    ("DELETE", "/cluster/workers/:id",           "coordinator", "/cluster",                  deregister_worker,
        "Deregister."),
    ("POST",   "/cluster/workers/:id/heartbeat", "coordinator", "/cluster",                  worker_heartbeat,
        "Record worker liveness (push side)."),
    ("GET",    "/cluster/status",                "coordinator", "/cluster",                  cluster_status,
        "Registry document: per-worker liveness, lease credits."),
    ("POST",   "/shutdown",                      "both",        "/shutdown",                 shutdown,
        "Drain and stop."),
];

/// The `docs/PROTOCOL.md` §1 endpoint table: one Markdown row per
/// `ROUTES` row, in table order — method and path (`:id` shown as
/// `<id>`), role, purpose.
pub fn endpoint_table() -> String {
    let mut out = String::from("| Method & path | Role | Purpose |\n|---|---|---|\n");
    for &(method, shape, role, _, _, purpose) in ROUTES {
        let path = shape.replace(":id", "<id>");
        out.push_str(&format!("| `{method} {path}` | {role} | {purpose} |\n"));
    }
    out
}

/// Whether `segments` fit `shape`; yields the `:id`.
fn shape_matches<'a>(shape: &str, segments: &[&'a str]) -> Option<&'a str> {
    let mut id = "";
    let mut want = shape.split('/').skip(1);
    for &segment in segments {
        match want.next()? {
            ":id" => id = segment,
            literal if literal == segment => {}
            _ => return None,
        }
    }
    want.next().is_none().then_some(id)
}

/// What the table says about one request.
pub(crate) struct Resolved<'a> {
    /// Handler of the row matching both method and shape.
    handler: Option<Handler>,
    /// Methods of every row matching the shape, in table order.
    allow: Vec<&'static str>,
    /// Role of the rows matching the shape (`""` if none does).
    role: &'static str,
    /// Label of the rows matching the shape, or [`OTHER`].
    pub(crate) label: &'static str,
    /// The shape's `:id` segment, or `""`.
    pub(crate) id: &'a str,
}

/// Look `method` + `path` (query already stripped) up in [`ROUTES`] —
/// the one split into segments a request gets.
pub(crate) fn resolve<'a>(method: &str, path: &'a str) -> Resolved<'a> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let mut resolved = Resolved {
        handler: None,
        allow: Vec::new(),
        role: "",
        label: OTHER,
        id: "",
    };
    for &(row_method, shape, role, label, handler, _) in ROUTES {
        let Some(id) = shape_matches(shape, &segments) else {
            continue;
        };
        resolved.allow.push(row_method);
        (resolved.role, resolved.label, resolved.id) = (role, label, id);
        if row_method == method {
            resolved.handler = Some(handler);
        }
    }
    resolved
}

/// Answer one parsed request: the matched row's handler, `405` +
/// `Allow` when the shape is served under other methods only, `404`
/// when no row matches the shape.
pub(crate) fn dispatch(request: &Request, state: &ServerState, resolved: &Resolved) -> Reply {
    if let Some(handler) = resolved.handler {
        return handler(request, state, resolved.id);
    }
    let path = request.path().trim_end_matches('/');
    if resolved.allow.is_empty() {
        return error_reply(404, "Not Found", format!("no such endpoint {path:?}"));
    }
    // Coordinator handlers answer this themselves; a wrong method on
    // their shapes must not read as `405` either.
    if resolved.role == "coordinator" && state.cluster.is_none() {
        return not_a_coordinator();
    }
    let error = json!({"error": format!("{} not allowed on {path}", request.method)});
    Reply::Full(http::response_bytes_with(
        405,
        "Method Not Allowed",
        &[("Allow", &resolved.allow.join(", "))],
        "application/json",
        ndjson(&error).as_bytes(),
    ))
}

/// What a routed request turns into.
pub(crate) enum Reply {
    /// A complete response: write, close.
    Full(Vec<u8>),
    /// Switch the connection to a live NDJSON event stream, after an
    /// optional preamble line (the `?watch=1` submit ack). `ring`
    /// picks which of the job's event rings feeds the stream: raw
    /// (everything) or aggregates-only (`?aggregates=1`).
    Stream {
        job: Arc<Job>,
        preamble: Option<String>,
        ring: EventRing,
    },
    /// Write the response, then initiate server shutdown.
    Shutdown(Vec<u8>),
}

fn json_reply(status: u16, reason: &str, value: &impl Serialize) -> Reply {
    Reply::Full(http::json_bytes(status, reason, value))
}

/// `{"error": message}` under `status`.
fn error_reply(status: u16, reason: &str, message: impl std::fmt::Display) -> Reply {
    json_reply(status, reason, &json!({"error": message.to_string()}))
}

const NOT_A_COORDINATOR: &str =
    "this server is not a cluster coordinator (start it with `synapse cluster start`)";

/// The one reply coordinator rows get on a server without a backend.
fn not_a_coordinator() -> Reply {
    error_reply(404, "Not Found", NOT_A_COORDINATOR)
}

/// Run `found` on the job `id` names, or answer `404`.
fn with_job(state: &ServerState, id: &str, found: impl FnOnce(Arc<Job>) -> Reply) -> Reply {
    match state.job(id) {
        Some(job) => found(job),
        None => error_reply(404, "Not Found", format!("no such campaign {id:?}")),
    }
}

/// Answer with the worker document `doc`, or `404` for an unknown id.
fn worker_reply(id: &str, doc: Option<serde_json::Value>) -> Reply {
    match doc {
        Some(doc) => json_reply(200, "OK", &doc),
        None => error_reply(404, "Not Found", format!("no such worker {id:?}")),
    }
}

/// Queue-depth snapshot under the jobs lock: (total, queued, running).
/// Shared by `/healthz` and the `/metrics` scrape-time gauges so both
/// views count from the same table at the same instant.
fn job_counts(state: &ServerState) -> (usize, usize, usize) {
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let count = |state| jobs.iter().filter(|j| j.state() == state).count();
    (
        jobs.len(),
        count(JobState::Queued),
        count(JobState::Running),
    )
}

/// This process's live thread count (Linux `/proc`), surfaced through
/// `/healthz` so operators — and the CI smoke — can verify the front
/// holds watchers without spawning a thread per connection.
fn process_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("Threads:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Current status document of one job.
fn status_json(job: &Job) -> serde_json::Value {
    job.with_progress(|p| {
        let hit_rate = if p.done > 0 {
            p.cache_hits as f64 / p.done as f64
        } else {
            0.0
        };
        let mut doc = json!({
            "id": job.public_id(),
            "name": job.spec.name,
            "status": p.state.name(),
            "total": job.total,
            "done": p.done,
            "cache_hits": p.cache_hits,
            "cache_hit_rate": hit_rate,
        });
        if let serde_json::Value::Object(obj) = &mut doc {
            if let Some(stats) = &p.stats {
                obj.insert("simulated".into(), json!(stats.simulated));
                obj.insert("wall_secs".into(), json!(stats.wall_secs));
                obj.insert("points_per_sec".into(), json!(stats.points_per_sec()));
            }
            if let Some(error) = &p.error {
                obj.insert("error".into(), json!(error));
            }
        }
        doc
    })
}

fn healthz(_: &Request, state: &ServerState, _: &str) -> Reply {
    let (jobs, queued, running) = job_counts(state);
    json_reply(
        200,
        "OK",
        &json!({
            "status": "ok",
            "uptime_secs": state.started.elapsed().as_secs_f64(),
            "jobs": jobs,
            "queued": queued,
            "running": running,
            "active_connections": state.active_connections.load(Ordering::Acquire),
            "max_connections": state.max_connections,
            "threads": process_threads(),
            "coordinator": state.cluster.is_some(),
        }),
    )
}

fn store_stats(_: &Request, state: &ServerState, _: &str) -> Reply {
    let stats = state.cache.stats();
    json_reply(
        200,
        "OK",
        &json!({
            "results": stats.docs,
            "data_files": stats.data_files,
            "occupied_shards": stats.occupied_shards,
            "shard_count": synapse_store::SHARD_COUNT,
            "dirty_shards": stats.dirty_shards,
            "bytes_on_disk": stats.bytes_on_disk,
            "engine": stats.engine,
            // Cross-process cache-sharing observability: how
            // often this process's saves collided with another
            // process on the shared directory, and how many of
            // their results were merged back in.
            "lock_acquisitions": stats.lock_acquisitions,
            "lock_contention": stats.lock_contention,
            "reconciled_docs": stats.reconciled_docs,
            "active_connections": state.active_connections.load(Ordering::Acquire),
        }),
    )
}

fn metrics(_: &Request, state: &ServerState, _: &str) -> Reply {
    // Refresh the scrape-time gauges from the very sources the
    // JSON endpoints report — same job table, same connection
    // counter — so `/healthz` and `/metrics` cannot drift.
    let metrics = ServerMetrics::get();
    let (_, queued, running) = job_counts(state);
    metrics.jobs_queued.set(queued as f64);
    metrics.jobs_running.set(running as f64);
    metrics
        .uptime_seconds
        .set(state.started.elapsed().as_secs_f64());
    metrics
        .connections_active
        .set(state.active_connections.load(Ordering::Acquire) as f64);
    Reply::Full(http::response_bytes(
        200,
        "OK",
        "text/plain; version=0.0.4",
        synapse_telemetry::global().render().as_bytes(),
    ))
}

fn list_campaigns(_: &Request, state: &ServerState, _: &str) -> Reply {
    let listing: Vec<serde_json::Value> = state
        .jobs
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|j| status_json(j))
        .collect();
    json_reply(200, "OK", &json!({"campaigns": listing}))
}

fn campaign_status(_: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| json_reply(200, "OK", &status_json(&job)))
}

fn campaign_report(_: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| match job.report_json() {
        Some(body) => Reply::Full(http::response_bytes(
            200,
            "OK",
            "application/json",
            body.as_bytes(),
        )),
        None => error_reply(
            409,
            "Conflict",
            format!(
                "campaign {id} is {}, report not available",
                job.state().name()
            ),
        ),
    })
}

fn campaign_trace(_: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| match job.trace_doc() {
        Some(doc) => Reply::Full(http::response_bytes(
            200,
            "OK",
            "application/x-ndjson",
            doc.as_bytes(),
        )),
        None if job.recorder().is_some() => error_reply(
            409,
            "Conflict",
            format!(
                "campaign {id} is {}, trace not sealed yet",
                job.state().name()
            ),
        ),
        None => error_reply(
            409,
            "Conflict",
            format!("campaign {id} was not recorded (submit with ?record=1)"),
        ),
    })
}

fn campaign_events(request: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| Reply::Stream {
        job,
        preamble: None,
        ring: stream_ring(request),
    })
}

fn cancel_campaign(_: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| {
        // A queued job never reaches a worker's cancelled
        // check promptly; settle it here so DELETE is
        // immediate for work that never started. (The queue
        // worker re-checks and skips settled jobs; a running
        // job just gets its token cancelled.)
        if job.settle_if_queued() {
            state.finalize_trace(&job);
        }
        json_reply(200, "OK", &status_json(&job))
    })
}

fn shutdown(_: &Request, _: &ServerState, _: &str) -> Reply {
    Reply::Shutdown(http::json_bytes(
        200,
        "OK",
        &json!({"status": "shutting down"}),
    ))
}

/// Which job ring a stream request asked for: `?aggregates=1` selects
/// the lifecycle+snapshot-only ring, anything else the raw ring.
fn stream_ring(request: &Request) -> EventRing {
    if request.query_flag("aggregates") {
        EventRing::Aggregates
    } else {
        EventRing::Raw
    }
}

/// `GET /campaigns/<id>/aggregates[?axis=...&metric=...]`: the live
/// per-(axis, value) aggregate table — answerable mid-sweep (whatever
/// has landed so far) and after completion (the full campaign).
/// Unknown axis or metric names are a 400, not an empty result, so a
/// typo cannot read as "no data".
fn campaign_aggregates(request: &Request, state: &ServerState, id: &str) -> Reply {
    with_job(state, id, |job| aggregates_reply(request, &job))
}

pub(crate) fn aggregates_reply(request: &Request, job: &Job) -> Reply {
    let axis = request.query_value("axis");
    if let Some(axis) = axis {
        if !synapse_campaign::aggregate::AXES
            .iter()
            .any(|(name, _)| *name == axis)
        {
            let known: Vec<&str> = synapse_campaign::aggregate::AXES
                .iter()
                .map(|(name, _)| *name)
                .collect();
            return error_reply(
                400,
                "Bad Request",
                format!("unknown axis {axis:?} (one of {})", known.join(", ")),
            );
        }
    }
    let metric = request.query_value("metric");
    if let Some(metric) = metric {
        if !synapse_campaign::live::METRICS.contains(&metric) {
            let known = synapse_campaign::live::METRICS.join(", ");
            return error_reply(
                400,
                "Bad Request",
                format!("unknown metric {metric:?} (one of {known})"),
            );
        }
    }
    AggregateMetrics::get().queries.inc();
    // State, then view, then `done`: the sweep sets `done` before it
    // folds the point into the view, so a `done` read last is never
    // below the view's point count, and a state read first that says
    // `completed` still vouches for a complete view.
    let status = job.with_progress(|p| p.state.name());
    let View {
        overall,
        points,
        slices,
        v,
    } = job.live().view(axis, metric);
    let done = job.with_progress(|p| p.done);
    let doc = AggregatesDoc {
        done,
        id: job.public_id(),
        name: job.spec.name.clone(),
        overall,
        points,
        slices,
        status,
        total: job.total,
        v,
    };
    json_reply(200, "OK", &doc)
}

/// The `/aggregates` document: the job's keys around its view's.
#[derive(Serialize)]
struct AggregatesDoc {
    done: usize,
    id: String,
    name: String,
    overall: Overall,
    points: usize,
    slices: Vec<Slice>,
    status: &'static str,
    total: usize,
    v: u64,
}

/// `POST /campaigns[?cluster=1]`: parse a TOML or JSON spec, enqueue a
/// job — locally swept, or distributed across the cluster when the
/// flag is set (coordinator servers only).
fn submit_campaign(request: &Request, state: &ServerState, _: &str) -> Reply {
    if state.shutting_down() {
        return error_reply(503, "Service Unavailable", "server is shutting down");
    }
    let distributed = request.query_flag("cluster");
    if distributed && state.cluster.is_none() {
        return error_reply(400, "Bad Request", NOT_A_COORDINATOR);
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_reply(400, "Bad Request", "spec body is not UTF-8");
    };
    // Dispatch on declared content type, falling back to sniffing:
    // JSON specs start with '{'.
    let content_type = request.header("content-type").unwrap_or("");
    let parsed = if content_type.contains("json") || text.trim_start().starts_with('{') {
        CampaignSpec::from_json(text)
    } else {
        CampaignSpec::from_toml(text)
    };
    match parsed {
        Ok(spec) => {
            let kind = if distributed {
                JobKind::Distributed
            } else {
                JobKind::Sweep
            };
            let total = spec.point_count();
            // `?record=1` attaches a flight recorder before the job is
            // queued: the trace id is minted deterministically from the
            // spec, so a cluster coordinator and a local run of the
            // same campaign agree on it without coordination.
            let recorder = request
                .query_flag("record")
                .then(|| Arc::new(TraceRecorder::new(&spec)));
            let job = state.submit(spec, total, kind, recorder, None);
            let mut ack = json!({
                "id": job.public_id(),
                "name": job.spec.name,
                "status": job.state().name(),
                "points": job.total,
                "distributed": distributed,
            });
            if let (Some(recorder), serde_json::Value::Object(obj)) = (job.recorder(), &mut ack) {
                obj.insert("trace".into(), json!(recorder.trace_id()));
            }
            // `?watch=1` folds submit + watch into ONE round trip: the
            // ack becomes the stream's first NDJSON line and the
            // job's events follow on the same connection — half the
            // connection churn for the most common client flow.
            if request.query_flag("watch") {
                Reply::Stream {
                    job,
                    preamble: Some(ndjson(&ack)),
                    ring: stream_ring(request),
                }
            } else {
                json_reply(202, "Accepted", &ack)
            }
        }
        Err(e) => error_reply(400, "Bad Request", format!("invalid campaign spec: {e}")),
    }
}

/// `POST /leases`: accept a lease (full spec + grid index range) from
/// a cluster coordinator and enqueue it like any other job. Events
/// stream through the usual `GET /campaigns/<id>/events`.
fn submit_lease(request: &Request, state: &ServerState, _: &str) -> Reply {
    if state.shutting_down() {
        return error_reply(503, "Service Unavailable", "server is shutting down");
    }
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return error_reply(400, "Bad Request", "lease body is not UTF-8");
    };
    let lease: LeaseRequest = match serde_json::from_str(text) {
        Ok(lease) => lease,
        Err(e) => return error_reply(400, "Bad Request", format!("invalid lease request: {e}")),
    };
    // Re-validate after the hop; the range must fit the grid.
    let spec = match lease.spec.validated() {
        Ok(spec) => spec,
        Err(e) => return error_reply(400, "Bad Request", format!("invalid campaign spec: {e}")),
    };
    let total = spec.point_count();
    if lease.start >= lease.end || lease.end > total {
        return error_reply(
            400,
            "Bad Request",
            format!(
                "lease range {}..{} does not fit the {total}-point grid",
                lease.start, lease.end
            ),
        );
    }
    // A coordinator propagates its campaign's causality id with the
    // lease; the worker echoes it in every event and batch frame.
    let lease_trace = request.header("x-synapse-trace").map(str::to_string);
    let job = state.submit(
        spec,
        lease.end - lease.start,
        JobKind::Lease {
            start: lease.start,
            end: lease.end,
        },
        None,
        lease_trace,
    );
    let mut ack = json!({
        "id": job.public_id(),
        "name": job.spec.name,
        "status": job.state().name(),
        "points": job.total,
        "lease": {"start": lease.start, "end": lease.end},
        "grid_points": total,
    });
    if let (Some(id), serde_json::Value::Object(obj)) = (job.lease_trace(), &mut ack) {
        obj.insert("trace".into(), json!(id));
    }
    json_reply(202, "Accepted", &ack)
}

fn cluster_status(_: &Request, state: &ServerState, _: &str) -> Reply {
    let Some(backend) = &state.cluster else {
        return not_a_coordinator();
    };
    json_reply(200, "OK", &backend.status())
}

fn register_worker(request: &Request, state: &ServerState, _: &str) -> Reply {
    let Some(backend) = &state.cluster else {
        return not_a_coordinator();
    };
    // Accept `{"addr": "host:port"}` or a bare address body.
    let text = std::str::from_utf8(&request.body).unwrap_or("").trim();
    let addr = serde_json::from_str::<serde_json::Value>(text)
        .ok()
        .and_then(|v| {
            v.get("addr")
                .and_then(serde_json::Value::as_str)
                .map(str::to_string)
        })
        .or_else(|| (!text.is_empty() && !text.starts_with('{')).then(|| text.to_string()));
    match addr {
        Some(addr) => json_reply(201, "Created", &backend.register_worker(&addr)),
        None => error_reply(
            400,
            "Bad Request",
            "worker registration needs {\"addr\": \"host:port\"}",
        ),
    }
}

fn deregister_worker(_: &Request, state: &ServerState, id: &str) -> Reply {
    let Some(backend) = &state.cluster else {
        return not_a_coordinator();
    };
    worker_reply(id, backend.deregister_worker(id))
}

fn worker_heartbeat(_: &Request, state: &ServerState, id: &str) -> Reply {
    let Some(backend) = &state.cluster else {
        return not_a_coordinator();
    };
    worker_reply(id, backend.heartbeat(id))
}

#[cfg(test)]
mod damage_props;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_resolves_labels_and_rejects_other_methods() {
        let metrics = ServerMetrics::get();
        for &(method, shape, role, label, _, _) in ROUTES {
            assert!(["both", "worker", "coordinator"].contains(&role));
            let path = shape.replace(":id", "j42");
            let hit = resolve(method, &path);
            assert!(hit.handler.is_some(), "{method} {shape}");
            assert_eq!((hit.role, hit.label), (role, label));
            assert_eq!(hit.id, if path == shape { "" } else { "j42" });
            metrics.request_seconds(label).observe(0.001);

            // A method no row serves this shape under: 405, same label,
            // `Allow` = the shape's methods in table order.
            let miss = resolve("PATCH", &path);
            assert!(miss.handler.is_none());
            assert_eq!((miss.role, miss.label), (role, label));
            let allow: Vec<&str> = ROUTES
                .iter()
                .filter(|r| r.1 == shape)
                .map(|r| r.0)
                .collect();
            assert_eq!(miss.allow, allow, "{path}");
        }
        assert_eq!(resolve("PUT", "/campaigns").allow, ["POST", "GET"]);
        assert_eq!(resolve("PUT", "/campaigns/j1").allow, ["GET", "DELETE"]);
    }

    #[test]
    fn trailing_slash_and_query_are_ignored_and_unknown_shapes_are_other() {
        let request = |target: &str| Request {
            method: "GET".into(),
            target: target.into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        for (target, label, id) in [
            ("/campaigns/j42/", "/campaigns/:id", "j42"),
            (
                "/campaigns/j42/aggregates?axis=machine",
                "/campaigns/:id/aggregates",
                "j42",
            ),
            ("/campaigns/?watch=1", "/campaigns", ""),
            ("/cluster/workers/w1/heartbeat", "/cluster", "w1"),
        ] {
            let request = request(target);
            let resolved = resolve(&request.method, request.path());
            assert_eq!((resolved.label, resolved.id), (label, id), "{target}");
        }
        for target in [
            "/totally/unknown",
            "/cluster/junk",
            "/campaigns/j1/bogus",
            "/",
        ] {
            let request = request(target);
            let resolved = resolve(&request.method, request.path());
            assert!(resolved.handler.is_none() && resolved.allow.is_empty());
            assert_eq!((resolved.role, resolved.label), ("", OTHER), "{target}");
            ServerMetrics::get().request_seconds(resolved.label);
        }
    }
}
