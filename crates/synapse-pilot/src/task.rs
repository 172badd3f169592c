//! Proxy tasks: units of work the pilot agent schedules.

/// A Synapse proxy task: a duration requesting a number of cores on
/// the pilot's node. The caller prices the task (typically an
/// emulation's simulated Tx on the pilot's machine); the agent only
/// packs durations onto cores.
#[derive(Debug, Clone)]
pub struct ProxyTask {
    /// Task identifier (unique within a workload).
    pub id: String,
    /// Cores the task occupies while running.
    pub cores: u32,
    /// Execution time in virtual seconds.
    pub duration: f64,
}

impl ProxyTask {
    /// Create a task; a request for zero cores occupies one.
    pub fn new(id: impl Into<String>, cores: u32, duration: f64) -> Self {
        ProxyTask {
            id: id.into(),
            cores: cores.max(1),
            duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_request_clamps_to_one() {
        let t = ProxyTask::new("z", 0, 1.0);
        assert_eq!(t.cores, 1);
    }
}
