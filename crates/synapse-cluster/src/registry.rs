//! The coordinator's worker registry: who is in the cluster, who is
//! alive, and how much work each worker has carried.
//!
//! Registration is idempotent by address (re-registering a dead worker
//! revives it — how `synapse cluster add-worker` brings a restarted
//! process back). Liveness is failure-driven: drivers mark a worker
//! dead when its transport breaks and a health probe fails; explicit
//! heartbeats (`POST /cluster/workers/<id>/heartbeat`) and status
//! probes refresh `last_seen`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::{json, Value};

#[derive(Debug)]
struct WorkerEntry {
    id: u64,
    addr: String,
    alive: bool,
    leases_completed: u64,
    failures: u64,
    /// Points per second of the last lease this worker completed; 0
    /// until one is measured.
    rate: f64,
    last_seen: Instant,
    registered: Instant,
}

impl WorkerEntry {
    fn public_id(&self) -> String {
        format!("w{}", self.id)
    }

    fn doc(&self) -> Value {
        json!({
            "id": self.public_id(),
            "addr": self.addr,
            "alive": self.alive,
            "leases_completed": self.leases_completed,
            "failures": self.failures,
            "last_seen_secs": self.last_seen.elapsed().as_secs_f64(),
            "registered_secs": self.registered.elapsed().as_secs_f64(),
        })
    }
}

/// Thread-safe registry of the coordinator's workers.
#[derive(Debug, Default)]
pub struct WorkerRegistry {
    workers: Mutex<Vec<WorkerEntry>>,
    next_id: AtomicU64,
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> WorkerRegistry {
        WorkerRegistry {
            workers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// Register a worker by address, or revive an existing entry with
    /// the same address. Returns the worker document.
    pub fn register(&self, addr: &str) -> Value {
        let mut workers = self.workers.lock().expect("registry lock");
        if let Some(entry) = workers.iter_mut().find(|w| w.addr == addr) {
            entry.alive = true;
            entry.last_seen = Instant::now();
            return entry.doc();
        }
        let entry = WorkerEntry {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            addr: addr.to_string(),
            alive: true,
            leases_completed: 0,
            failures: 0,
            rate: 0.0,
            last_seen: Instant::now(),
            registered: Instant::now(),
        };
        let doc = entry.doc();
        workers.push(entry);
        doc
    }

    /// Remove a worker by public id, returning its final document.
    pub fn deregister(&self, public_id: &str) -> Option<Value> {
        let mut workers = self.workers.lock().expect("registry lock");
        let idx = workers.iter().position(|w| w.public_id() == public_id)?;
        Some(workers.remove(idx).doc())
    }

    /// Record an explicit liveness heartbeat.
    pub fn heartbeat(&self, public_id: &str) -> Option<Value> {
        let mut workers = self.workers.lock().expect("registry lock");
        let entry = workers.iter_mut().find(|w| w.public_id() == public_id)?;
        entry.alive = true;
        entry.last_seen = Instant::now();
        Some(entry.doc())
    }

    /// `(public_id, addr)` of every worker currently believed alive.
    pub fn live(&self) -> Vec<(String, String)> {
        self.workers
            .lock()
            .expect("registry lock")
            .iter()
            .filter(|w| w.alive)
            .map(|w| (w.public_id(), w.addr.clone()))
            .collect()
    }

    /// Mark a worker dead (transport broke and a probe failed).
    pub fn mark_dead(&self, public_id: &str) {
        if let Some(entry) = self
            .workers
            .lock()
            .expect("registry lock")
            .iter_mut()
            .find(|w| w.public_id() == public_id)
        {
            entry.alive = false;
        }
    }

    /// Credit one completed lease to a worker, remembering the rate it
    /// was measured at, if any.
    pub fn credit_lease(&self, public_id: &str, points_per_sec: Option<f64>) {
        if let Some(entry) = self
            .workers
            .lock()
            .expect("registry lock")
            .iter_mut()
            .find(|w| w.public_id() == public_id)
        {
            entry.leases_completed += 1;
            entry.last_seen = Instant::now();
            if let Some(rate) = points_per_sec {
                entry.rate = rate;
            }
        }
    }

    /// Points per second of the last lease `public_id` completed; 0
    /// for a worker never measured (or not registered). The weights
    /// of this coordinator's next lease plan.
    pub fn rate(&self, public_id: &str) -> f64 {
        self.workers
            .lock()
            .expect("registry lock")
            .iter()
            .find(|w| w.public_id() == public_id)
            .map_or(0.0, |w| w.rate)
    }

    /// Record one failed lease attempt against a worker.
    pub fn record_failure(&self, public_id: &str) {
        if let Some(entry) = self
            .workers
            .lock()
            .expect("registry lock")
            .iter_mut()
            .find(|w| w.public_id() == public_id)
        {
            entry.failures += 1;
        }
    }

    /// Number of registered workers (any state).
    pub fn len(&self) -> usize {
        self.workers.lock().expect("registry lock").len()
    }

    /// Whether no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registry status document, refreshing each worker's `alive`
    /// flag through `probe` (`true` ⇒ reachable) first.
    ///
    /// Probes are network calls with multi-second timeouts, so they
    /// run on a snapshot *outside* the registry lock — a status poll
    /// against a blackholed worker must not stall the driver threads
    /// (credit/failure/mark-dead) of an active sweep.
    pub fn status_json(&self, probe: impl Fn(&str) -> bool) -> Value {
        let snapshot: Vec<(String, String)> = self
            .workers
            .lock()
            .expect("registry lock")
            .iter()
            .map(|w| (w.public_id(), w.addr.clone()))
            .collect();
        let probed: Vec<(String, bool)> = snapshot
            .into_iter()
            .map(|(id, addr)| (id, probe(&addr)))
            .collect();
        let mut workers = self.workers.lock().expect("registry lock");
        for (id, reachable) in probed {
            // Entries may have been (de)registered during the probe;
            // apply by id and skip the gone.
            if let Some(entry) = workers.iter_mut().find(|w| w.public_id() == id) {
                if reachable {
                    entry.last_seen = Instant::now();
                }
                entry.alive = reachable;
            }
        }
        let live = workers.iter().filter(|w| w.alive).count();
        json!({
            "workers": workers.iter().map(WorkerEntry::doc).collect::<Vec<_>>(),
            "registered": workers.len(),
            "live": live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_by_address_and_revives() {
        let registry = WorkerRegistry::new();
        let a = registry.register("127.0.0.1:1001");
        let b = registry.register("127.0.0.1:1002");
        assert_ne!(a["id"], b["id"]);
        assert_eq!(registry.len(), 2);
        let id = a["id"].as_str().unwrap().to_string();

        registry.mark_dead(&id);
        assert_eq!(registry.live().len(), 1);
        // Same address ⇒ same entry, revived.
        let again = registry.register("127.0.0.1:1001");
        assert_eq!(again["id"].as_str(), Some(id.as_str()));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.live().len(), 2);
    }

    #[test]
    fn heartbeat_deregister_and_counters() {
        let registry = WorkerRegistry::new();
        let doc = registry.register("127.0.0.1:2001");
        let id = doc["id"].as_str().unwrap().to_string();
        assert!(registry.heartbeat(&id).is_some());
        assert!(registry.heartbeat("w999").is_none());

        registry.credit_lease(&id, Some(40.0));
        registry.credit_lease(&id, None);
        assert_eq!(
            registry.rate(&id),
            40.0,
            "an unmeasured lease keeps the last rate"
        );
        assert_eq!(registry.rate("w999"), 0.0);
        registry.record_failure(&id);
        let status = registry.status_json(|_| true);
        assert_eq!(status["live"].as_u64(), Some(1));
        assert_eq!(status["workers"][0]["leases_completed"].as_u64(), Some(2));
        assert_eq!(status["workers"][0]["failures"].as_u64(), Some(1));

        let gone = registry.deregister(&id).unwrap();
        assert_eq!(gone["id"].as_str(), Some(id.as_str()));
        assert!(registry.is_empty());
        assert!(registry.deregister(&id).is_none());
    }

    #[test]
    fn status_probe_refreshes_liveness_both_ways() {
        let registry = WorkerRegistry::new();
        registry.register("up:1");
        registry.register("down:2");
        let status = registry.status_json(|addr| addr.starts_with("up"));
        assert_eq!(status["live"].as_u64(), Some(1));
        // A dead-marked worker that answers a probe comes back.
        let status = registry.status_json(|_| true);
        assert_eq!(status["live"].as_u64(), Some(2));
    }
}
