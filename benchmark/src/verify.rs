//! Output verification: every job's point stream and terminal event
//! are checked, and a mismatch counts the job as failed.

/// Where a job's points must have come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Every point simulated (cold workloads).
    Simulated,
    /// Every point a cache hit (warm workloads).
    Cached,
}

/// The counters of a job's terminal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminal {
    /// Whether the terminal event was `completed`.
    pub completed: bool,
    /// `points` of the terminal event.
    pub points: usize,
    /// `simulated` of the terminal event.
    pub simulated: usize,
    /// `cache_hits` of the terminal event.
    pub cache_hits: usize,
}

impl Terminal {
    /// Read the counters off a stream's terminal NDJSON event.
    pub fn from_event(event: &serde_json::Value) -> Terminal {
        let count = |key: &str| event[key].as_u64().unwrap_or(0) as usize;
        Terminal {
            completed: event["event"].as_str() == Some("completed"),
            points: count("points"),
            simulated: count("simulated"),
            cache_hits: count("cache_hits"),
        }
    }
}

/// Collects the grid indices of one job's point events.
pub struct StreamCheck {
    seen: Vec<bool>,
    fresh: usize,
    duplicates: usize,
    out_of_range: usize,
}

impl StreamCheck {
    /// A check for a grid of `total` points.
    pub fn new(total: usize) -> StreamCheck {
        StreamCheck {
            seen: vec![false; total],
            fresh: 0,
            duplicates: 0,
            out_of_range: 0,
        }
    }

    /// Record one point event by grid index.
    pub fn point(&mut self, index: usize) {
        match self.seen.get_mut(index) {
            Some(slot) if !*slot => {
                *slot = true;
                self.fresh += 1;
            }
            Some(_) => self.duplicates += 1,
            None => self.out_of_range += 1,
        }
    }

    /// Record one NDJSON stream line; returns whether it was a point
    /// event. The index is cut out of the line instead of parsing the
    /// whole object, so the check costs the client next to nothing.
    pub fn line(&mut self, line: &str) -> bool {
        if !line.contains("\"event\":\"point\"") {
            return false;
        }
        match field_usize(line, "\"index\":") {
            Some(index) => self.point(index),
            None => self.out_of_range += 1,
        }
        true
    }

    /// Exactly the indices `0..total`, each once, and a `completed`
    /// terminal event whose counters match the grid and the source.
    pub fn finish(&self, terminal: Terminal, source: Source) -> Result<(), String> {
        let total = self.seen.len();
        if self.duplicates > 0 || self.out_of_range > 0 {
            return Err(format!(
                "{} duplicate and {} out-of-range point events",
                self.duplicates, self.out_of_range
            ));
        }
        if self.fresh != total {
            let missing = self.seen.iter().position(|s| !*s).unwrap_or(total);
            return Err(format!(
                "{} of {total} points arrived (first missing index {missing})",
                self.fresh
            ));
        }
        if !terminal.completed || terminal.points != total {
            return Err(format!(
                "terminal event is not completed/{total}: {terminal:?}"
            ));
        }
        let (got, what) = match source {
            Source::Simulated => (terminal.simulated, "simulated"),
            Source::Cached => (terminal.cache_hits, "cache_hits"),
        };
        if got != total {
            return Err(format!("{what} is {got}, expected {total}"));
        }
        Ok(())
    }
}

/// The unsigned integer following `key` in a JSON line.
fn field_usize(line: &str, key: &str) -> Option<usize> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terminal(points: usize, simulated: usize, cache_hits: usize) -> Terminal {
        Terminal {
            completed: true,
            points,
            simulated,
            cache_hits,
        }
    }

    fn point_line(index: usize) -> String {
        format!("{{\"cached\":false,\"done\":1,\"event\":\"point\",\"index\":{index},\"total\":3}}")
    }

    #[test]
    fn accepts_a_complete_stream_in_any_order() {
        let mut check = StreamCheck::new(3);
        for index in [2, 0, 1] {
            assert!(check.line(&point_line(index)));
        }
        assert!(!check.line("{\"event\":\"snapshot\",\"done\":3}"));
        assert_eq!(check.finish(terminal(3, 3, 0), Source::Simulated), Ok(()));
        assert_eq!(check.finish(terminal(3, 0, 3), Source::Cached), Ok(()));
    }

    #[test]
    fn rejects_a_missing_index() {
        let mut check = StreamCheck::new(3);
        check.line(&point_line(0));
        check.line(&point_line(2));
        let err = check
            .finish(terminal(3, 3, 0), Source::Simulated)
            .unwrap_err();
        assert!(err.contains("first missing index 1"), "{err}");
    }

    #[test]
    fn rejects_a_duplicate_or_out_of_range_index() {
        let mut check = StreamCheck::new(2);
        for index in [0, 1, 1] {
            check.line(&point_line(index));
        }
        assert!(check.finish(terminal(2, 2, 0), Source::Simulated).is_err());
        let mut check = StreamCheck::new(2);
        for index in [0, 1, 2] {
            check.line(&point_line(index));
        }
        assert!(check.finish(terminal(2, 2, 0), Source::Simulated).is_err());
    }

    #[test]
    fn rejects_wrong_counters_and_non_completed_terminals() {
        let mut check = StreamCheck::new(2);
        check.point(0);
        check.point(1);
        assert!(check.finish(terminal(2, 1, 1), Source::Simulated).is_err());
        assert!(check.finish(terminal(2, 1, 1), Source::Cached).is_err());
        assert!(check.finish(terminal(3, 3, 0), Source::Simulated).is_err());
        let cancelled = Terminal {
            completed: false,
            ..terminal(2, 2, 0)
        };
        assert!(check.finish(cancelled, Source::Simulated).is_err());
    }
}
