//! A small blocking client for the `synapse serve` protocol — the
//! other half of the hand-rolled HTTP layer, used by the `synapse
//! campaign submit|watch|status|cancel` CLI subcommands, the e2e tests
//! and the serve-throughput benchmark.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use serde_json::Value;

use crate::ServerError;

/// Connection timeout for every request.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Socket read/write timeout for plain request/response round trips.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(60);

/// Default silence threshold on an *established* event stream before
/// the server is presumed dead: the server pulses a heartbeat every
/// [`crate::HEARTBEAT_EVERY`] (10 s) even on a quiet stream, so more
/// than two missed heartbeats (plus a second of slack) means the
/// worker died or the network partitioned — not that the job is slow.
/// Far tighter than the old flat 60 s socket timeout, which let
/// `campaign watch` and coordinator lease watches hang almost a
/// minute on a dead worker.
pub const STREAM_SILENCE_TIMEOUT: Duration =
    Duration::from_secs(2 * crate::server::HEARTBEAT_EVERY.as_secs() + 1);

/// What a line callback tells [`Client::drain_chunked`] about the line
/// it was handed.
#[derive(Clone, Copy)]
struct Seen {
    /// Keep reading (`false` hangs up).
    proceed: bool,
    /// The line is a job event, so it may turn out to be the stream's
    /// last word — which a heartbeat or a submit ack may not.
    event: bool,
}

/// A client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Read timeout on established event streams (dead-server
    /// detection); [`STREAM_SILENCE_TIMEOUT`] unless overridden.
    stream_silence: Duration,
    /// Read/write timeout on plain request/response round trips.
    socket_timeout: Duration,
    /// Causality id sent as `X-Synapse-Trace` on every request — how a
    /// cluster coordinator stamps the lease traffic of a recorded
    /// campaign so workers echo it and the recorder can attribute
    /// per-endpoint spans.
    trace: Option<String>,
}

/// A parsed response: status code plus body text (chunked bodies are
/// de-framed transparently).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body as text.
    pub body: String,
}

impl Response {
    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Value, ServerError> {
        serde_json::from_str(&self.body)
            .map_err(|e| ServerError::Protocol(format!("non-JSON body: {e}")))
    }

    /// Error out unless the status is 2xx.
    fn ok(self) -> Result<Response, ServerError> {
        if (200..300).contains(&self.status) {
            Ok(self)
        } else {
            let detail = self
                .json()
                .ok()
                .and_then(|v| v["error"].as_str().map(str::to_string))
                .unwrap_or_else(|| self.body.trim().to_string());
            Err(ServerError::Status(self.status, detail))
        }
    }
}

impl Client {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            stream_silence: STREAM_SILENCE_TIMEOUT,
            socket_timeout: SOCKET_TIMEOUT,
            trace: None,
        }
    }

    /// Attach a causality id: every subsequent request carries it as
    /// the `X-Synapse-Trace` header.
    pub fn with_trace(mut self, trace_id: impl Into<String>) -> Client {
        self.trace = Some(trace_id.into());
        self
    }

    /// Override the plain request/response socket timeout. A cluster
    /// coordinator probing a possibly-frozen worker must not wait the
    /// generous default on a connection the peer's kernel accepted
    /// but the stopped process will never answer.
    pub fn with_socket_timeout(mut self, timeout: Duration) -> Client {
        self.socket_timeout = timeout;
        self
    }

    /// Override the event-stream silence threshold (dead-server
    /// detection). Must exceed the server's heartbeat interval or
    /// healthy quiet streams read as dead; tests use tiny values
    /// against deliberately-mute servers.
    pub fn with_stream_silence(mut self, threshold: Duration) -> Client {
        self.stream_silence = threshold;
        self
    }

    fn connect(&self) -> Result<TcpStream, ServerError> {
        // Resolve like TcpStream::connect does, so `localhost:8787`
        // and real hostnames work, not just literal IP:port.
        use std::net::ToSocketAddrs;
        let addrs: Vec<_> = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ServerError::Protocol(format!("bad server address {:?}: {e}", self.addr)))?
            .collect();
        let mut last_err = None;
        for addr in &addrs {
            match TcpStream::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(self.socket_timeout))?;
                    stream.set_write_timeout(Some(self.socket_timeout))?;
                    let _ = stream.set_nodelay(true);
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(match last_err {
            Some(e) => ServerError::Io(e),
            None => ServerError::Protocol(format!(
                "server address {:?} resolved to nothing",
                self.addr
            )),
        })
    }

    fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<BufReader<TcpStream>, ServerError> {
        use std::fmt::Write as _;
        let mut stream = self.connect()?;
        let body = body.unwrap_or("");
        // The whole request goes out in one write: with TCP_NODELAY,
        // each piece of a `write!` straight to the socket would be a
        // segment of its own.
        let mut request = String::with_capacity(128 + path.len() + body.len());
        let _ = write!(
            request,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len(),
        );
        if let Some(id) = &self.trace {
            let _ = write!(request, "X-Synapse-Trace: {id}\r\n");
        }
        request.push_str("Connection: close\r\n\r\n");
        request.push_str(body);
        stream.write_all(request.as_bytes())?;
        Ok(BufReader::new(stream))
    }

    /// Read the status line + headers; returns (status, chunked).
    fn read_head(reader: &mut BufReader<TcpStream>) -> Result<(u16, bool), ServerError> {
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ServerError::Protocol(format!("bad status line {status_line:?}")))?;
        let mut chunked = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if line.to_ascii_lowercase().starts_with("transfer-encoding:")
                && line.to_ascii_lowercase().contains("chunked")
            {
                chunked = true;
            }
        }
        Ok((status, chunked))
    }

    /// One full request/response round trip.
    fn request(
        &self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ServerError> {
        let mut reader = self.send(method, path, body)?;
        let (status, chunked) = Self::read_head(&mut reader)?;
        let mut body = String::new();
        if chunked {
            let mut on_line = |line: &str| {
                body.push_str(line);
                body.push('\n');
                Seen {
                    proceed: true,
                    event: false,
                }
            };
            Self::drain_chunked(&mut reader, &mut String::new(), &mut on_line)?;
        } else {
            reader.read_to_string(&mut body)?;
        }
        Ok(Response { status, body })
    }

    /// De-frame a chunked body, invoking `on_line` per complete line
    /// and leaving in `last` the final line it called an event.
    /// `on_line` answering `proceed: false` aborts the drain (the
    /// connection is simply dropped — chunked streams need no clean
    /// goodbye).
    ///
    /// Lines are handed out as slices of one reused buffer: a chunk is
    /// appended behind whatever partial line the previous one left,
    /// walked once, and the consumed front dropped once — per chunk,
    /// not per line — which is also how often `last` is copied.
    fn drain_chunked(
        reader: &mut BufReader<TcpStream>,
        last: &mut String,
        on_line: &mut dyn FnMut(&str) -> Seen,
    ) -> Result<(), ServerError> {
        let non_utf8 = |_| ServerError::Protocol("non-UTF-8 chunk".into());
        let mut buf: Vec<u8> = Vec::new();
        let mut size_line = String::new();
        loop {
            size_line.clear();
            if reader.read_line(&mut size_line)? == 0 {
                break; // abrupt close: surface what arrived
            }
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| ServerError::Protocol(format!("bad chunk size {size_line:?}")))?;
            if size == 0 {
                let _ = reader.read_line(&mut size_line); // trailing CRLF
                break;
            }
            let held = buf.len();
            // Grows as bytes arrive, never on the size line's say-so.
            if reader.by_ref().take(size as u64).read_to_end(&mut buf)? != size {
                return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
            }
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            // Everything up to the chunk's last newline is whole lines.
            let Some(complete) = buf[held..].iter().rposition(|&b| b == b'\n') else {
                continue;
            };
            let complete = held + complete + 1;
            let text = std::str::from_utf8(&buf[..complete]).map_err(non_utf8)?;
            let mut final_event = None;
            let mut proceed = true;
            for line in text.split('\n').map(str::trim_end) {
                if line.is_empty() {
                    continue;
                }
                let seen = on_line(line);
                if seen.event {
                    final_event = Some(line);
                }
                if !seen.proceed {
                    proceed = false;
                    break;
                }
            }
            if let Some(line) = final_event {
                last.clear();
                last.push_str(line);
            }
            if !proceed {
                return Ok(());
            }
            buf.drain(..complete);
        }
        let rest = std::str::from_utf8(&buf).map_err(non_utf8)?.trim_end();
        if !rest.is_empty() && on_line(rest).event {
            last.clear();
            last.push_str(rest);
        }
        Ok(())
    }

    /// `GET /healthz`.
    pub fn healthz(&self) -> Result<Value, ServerError> {
        self.request("GET", "/healthz", None)?.ok()?.json()
    }

    /// `GET /store/stats` — shape of the shared result cache.
    pub fn store_stats(&self) -> Result<Value, ServerError> {
        self.request("GET", "/store/stats", None)?.ok()?.json()
    }

    /// `GET /metrics` — the process-wide telemetry registry in
    /// Prometheus text exposition format (not JSON).
    pub fn metrics(&self) -> Result<String, ServerError> {
        Ok(self.request("GET", "/metrics", None)?.ok()?.body)
    }

    /// `POST /campaigns` with a TOML or JSON spec body. Returns the
    /// submit reply (`{"id": "j1", "points": N, ...}`).
    pub fn submit(&self, spec_text: &str) -> Result<Value, ServerError> {
        self.request("POST", "/campaigns", Some(spec_text))?
            .ok()?
            .json()
    }

    /// `POST /campaigns?watch=1`: submit AND stream on one connection.
    /// The server's first NDJSON line is the submit ack (returned
    /// alongside the terminal event); the job's event stream follows,
    /// delivered to `on_event` exactly like [`watch`](Client::watch).
    /// One round trip instead of two — the path `campaign submit
    /// --watch` and the serve benchmarks ride.
    pub fn submit_watch(
        &self,
        spec_text: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<(Value, Value), ServerError> {
        self.submit_watch_on("/campaigns?watch=1", spec_text, on_event)
    }

    /// [`submit_watch`](Client::submit_watch) with cluster fan-out
    /// (`POST /campaigns?cluster=1&watch=1`) — the single-connection
    /// form of [`submit_distributed`](Client::submit_distributed).
    pub fn submit_watch_distributed(
        &self,
        spec_text: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<(Value, Value), ServerError> {
        self.submit_watch_on("/campaigns?cluster=1&watch=1", spec_text, on_event)
    }

    fn submit_watch_on(
        &self,
        path: &str,
        spec_text: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<(Value, Value), ServerError> {
        let mut reader = self.send("POST", path, Some(spec_text))?;
        let (status, chunked) = Self::read_head(&mut reader)?;
        if status != 200 {
            let mut body = String::new();
            reader.read_to_string(&mut body)?;
            let detail = serde_json::from_str::<Value>(&body)
                .ok()
                .and_then(|v| v["error"].as_str().map(str::to_string))
                .unwrap_or(body);
            return Err(ServerError::Status(status, detail));
        }
        if !chunked {
            return Err(ServerError::Protocol("event stream is not chunked".into()));
        }
        let mut ack: Option<Value> = None;
        let summary = self.drain_event_stream(
            &mut reader,
            "submit stream",
            false,
            Some(&mut ack),
            on_event,
        )?;
        let ack =
            ack.ok_or_else(|| ServerError::Protocol("stream carried no submit ack".into()))?;
        Ok((ack, summary))
    }

    /// `POST /campaigns?cluster=1` — submit for distributed fan-out
    /// across the coordinator's registered workers.
    pub fn submit_distributed(&self, spec_text: &str) -> Result<Value, ServerError> {
        self.request("POST", "/campaigns?cluster=1", Some(spec_text))?
            .ok()?
            .json()
    }

    /// `POST /campaigns?record=1` (plus `cluster=1` when `distributed`)
    /// — submit with a flight recorder attached; the ack carries the
    /// minted `trace` id.
    pub fn submit_recorded(
        &self,
        spec_text: &str,
        distributed: bool,
    ) -> Result<Value, ServerError> {
        let path = if distributed {
            "/campaigns?cluster=1&record=1"
        } else {
            "/campaigns?record=1"
        };
        self.request("POST", path, Some(spec_text))?.ok()?.json()
    }

    /// `GET /campaigns/<id>/trace` — the sealed flight-recorder trace
    /// of a finished recorded job, as raw NDJSON text.
    pub fn trace(&self, id: &str) -> Result<String, ServerError> {
        Ok(self
            .request("GET", &format!("/campaigns/{id}/trace"), None)?
            .ok()?
            .body)
    }

    /// `POST /leases` — offer this worker a lease (JSON
    /// [`crate::LeaseRequest`] body: full spec + grid index range).
    pub fn submit_lease(&self, lease_json: &str) -> Result<Value, ServerError> {
        self.request("POST", "/leases", Some(lease_json))?
            .ok()?
            .json()
    }

    /// `POST /cluster/workers` — register (or revive) a worker with a
    /// coordinator.
    pub fn register_worker(&self, worker_addr: &str) -> Result<Value, ServerError> {
        let body = serde_json::to_string(&serde_json::json!({"addr": worker_addr}))
            .expect("registration body serializes");
        self.request("POST", "/cluster/workers", Some(&body))?
            .ok()?
            .json()
    }

    /// `DELETE /cluster/workers/<id>` — remove a worker.
    pub fn deregister_worker(&self, id: &str) -> Result<Value, ServerError> {
        self.request("DELETE", &format!("/cluster/workers/{id}"), None)?
            .ok()?
            .json()
    }

    /// `POST /cluster/workers/<id>/heartbeat` — record liveness.
    pub fn heartbeat_worker(&self, id: &str) -> Result<Value, ServerError> {
        self.request("POST", &format!("/cluster/workers/{id}/heartbeat"), None)?
            .ok()?
            .json()
    }

    /// `GET /cluster/status` — the coordinator's registry document.
    pub fn cluster_status(&self) -> Result<Value, ServerError> {
        self.request("GET", "/cluster/status", None)?.ok()?.json()
    }

    /// `GET /campaigns` — status of every job.
    pub fn list(&self) -> Result<Value, ServerError> {
        self.request("GET", "/campaigns", None)?.ok()?.json()
    }

    /// `GET /campaigns/<id>` — one job's status document.
    pub fn status(&self, id: &str) -> Result<Value, ServerError> {
        self.request("GET", &format!("/campaigns/{id}"), None)?
            .ok()?
            .json()
    }

    /// `GET /campaigns/<id>/report` — the deterministic report of a
    /// completed job.
    pub fn report(&self, id: &str) -> Result<Value, ServerError> {
        self.request("GET", &format!("/campaigns/{id}/report"), None)?
            .ok()?
            .json()
    }

    /// `GET /campaigns/<id>/aggregates` — the job's live per-(axis,
    /// value) aggregate view, answerable mid-sweep. `axis` / `metric`
    /// narrow the slice list server-side (unknown names are a 400
    /// listing the valid ones).
    pub fn aggregates(
        &self,
        id: &str,
        axis: Option<&str>,
        metric: Option<&str>,
    ) -> Result<Value, ServerError> {
        let mut path = format!("/campaigns/{id}/aggregates");
        let mut sep = '?';
        if let Some(axis) = axis {
            path.push(sep);
            path.push_str("axis=");
            path.push_str(axis);
            sep = '&';
        }
        if let Some(metric) = metric {
            path.push(sep);
            path.push_str("metric=");
            path.push_str(metric);
        }
        self.request("GET", &path, None)?.ok()?.json()
    }

    /// `DELETE /campaigns/<id>` — request cooperative cancellation.
    pub fn cancel(&self, id: &str) -> Result<Value, ServerError> {
        self.request("DELETE", &format!("/campaigns/{id}"), None)?
            .ok()?
            .json()
    }

    /// `POST /shutdown` — ask the server to exit.
    pub fn shutdown(&self) -> Result<Value, ServerError> {
        self.request("POST", "/shutdown", None)?.ok()?.json()
    }

    /// Drain an established chunked NDJSON event stream — THE single
    /// implementation of the stream-consumption rules, shared by
    /// `watch` and `submit_watch`: heartbeat filtering (optionally
    /// forwarded as keepalives), last-line tracking (parsed once at
    /// the end — per-line parsing was the biggest client-side cost on
    /// warm sweeps), and mapping read-timeout silence to the
    /// retriable dead-server disconnect. When `ack` is given, the
    /// stream's first line is parsed into it (the `?watch=1` submit
    /// ack) and still forwarded to `on_event`, but never becomes the
    /// terminal event.
    fn drain_event_stream(
        &self,
        reader: &mut BufReader<TcpStream>,
        what: &str,
        keepalive_to_callback: bool,
        mut ack: Option<&mut Option<Value>>,
        mut on_event: impl FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        // The stream is established: from here on, silence longer
        // than the heartbeat cadence allows means the server died —
        // switch from the generous request timeout to the dead-server
        // threshold so watchers (and the cluster coordinator's
        // reassignment path) notice promptly.
        reader
            .get_ref()
            .set_read_timeout(Some(self.stream_silence))?;
        let mut last = String::new();
        let mut on_line = |line: &str| {
            if let Some(slot) = &mut ack {
                if slot.is_none() {
                    let proceed = match serde_json::from_str(line) {
                        Ok(value) => {
                            **slot = Some(value);
                            on_event(line)
                        }
                        Err(_) => false,
                    };
                    return Seen {
                        proceed,
                        event: false,
                    };
                }
            }
            // Heartbeats are transport keepalive, not job events:
            // they never become the stream's outcome, and by default
            // they never reach callers either.
            if line == "{\"event\":\"heartbeat\"}" {
                return Seen {
                    proceed: !keepalive_to_callback || on_event(line),
                    event: false,
                };
            }
            Seen {
                proceed: on_event(line),
                event: true,
            }
        };
        match Self::drain_chunked(reader, &mut last, &mut on_line) {
            Ok(()) => {}
            // A read timeout here is not a transport hiccup: the
            // server heartbeats every HEARTBEAT_EVERY, so this much
            // silence means it is dead or unreachable. Surface it as
            // the retriable disconnect it is.
            Err(ServerError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(ServerError::Disconnected(format!(
                    "{what} silent for {:.0?} (> 2× the {:.0?} heartbeat \
                     interval): server presumed dead",
                    self.stream_silence,
                    crate::server::HEARTBEAT_EVERY,
                )));
            }
            Err(e) => return Err(e),
        }
        if last.is_empty() {
            return Err(ServerError::Protocol(
                "event stream ended without events".into(),
            ));
        }
        serde_json::from_str(&last)
            .map_err(|e| ServerError::Protocol(format!("non-JSON terminal event: {e}")))
    }

    /// `GET /campaigns/<id>/events`: stream the job's NDJSON events,
    /// invoking `on_event` per line as it arrives, until the job
    /// reaches a terminal state — or until `on_event` returns `false`,
    /// which hangs up immediately (a watcher whose output died must
    /// not stay attached for the rest of a large sweep). Returns the
    /// last event received. Heartbeat keepalives never reach
    /// `on_event`.
    pub fn watch(
        &self,
        id: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        self.watch_opts(id, false, false, on_event)
    }

    /// [`watch`](Client::watch) on the aggregate ring (`GET
    /// /campaigns/<id>/events?aggregates=1`): lifecycle events plus
    /// `snapshot` aggregate deltas, no per-point lines — the stream a
    /// dashboard over a 100k-point sweep wants, sized O(slices ·
    /// snapshots) instead of O(points).
    pub fn watch_aggregates(
        &self,
        id: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        self.watch_opts(id, false, true, on_event)
    }

    /// [`watch`](Client::watch), but heartbeat keepalives are *also*
    /// delivered to `on_event` (they never become the returned last
    /// event). A caller that must react promptly even on a quiet
    /// stream — the cluster coordinator checking its cancel token —
    /// needs the callback to fire at least every heartbeat interval,
    /// not only when the job produces real events.
    pub fn watch_with_keepalive(
        &self,
        id: &str,
        on_event: impl FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        self.watch_opts(id, true, false, on_event)
    }

    fn watch_opts(
        &self,
        id: &str,
        keepalive_to_callback: bool,
        aggregates: bool,
        mut on_event: impl FnMut(&str) -> bool,
    ) -> Result<Value, ServerError> {
        let query = if aggregates { "?aggregates=1" } else { "" };
        let mut reader = self.send("GET", &format!("/campaigns/{id}/events{query}"), None)?;
        let (status, chunked) = Self::read_head(&mut reader)?;
        if status != 200 {
            let mut body = String::new();
            reader.read_to_string(&mut body)?;
            let detail = serde_json::from_str::<Value>(&body)
                .ok()
                .and_then(|v| v["error"].as_str().map(str::to_string))
                .unwrap_or(body);
            return Err(ServerError::Status(status, detail));
        }
        if !chunked {
            return Err(ServerError::Protocol("event stream is not chunked".into()));
        }
        self.drain_event_stream(
            &mut reader,
            &format!("event stream for {id}"),
            keepalive_to_callback,
            None,
            &mut on_event,
        )
    }
}
