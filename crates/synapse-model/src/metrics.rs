//! Metric registry mirroring Table 1 of the paper.
//!
//! Table 1 ("List of Synapse metrics and their usage") enumerates every
//! metric Synapse knows about, grouped by resource class, together with
//! four usage columns:
//!
//! * **Tot.** — integrated total over the whole runtime,
//! * **Sampl.** — sampled over time (time series),
//! * **Der.** — derived from other metrics,
//! * **Emul.** — used to drive emulation,
//!
//! where `+` means supported, `-` unsupported, `(+)` partially
//! supported and `(-)` planned. The registry below is the programmatic
//! source of truth; [`render_table1`] renders it in the paper's layout
//! (`synapse table1`, and the `table1_metrics` row of `cargo run -p
//! bench`) and the profiler/emulator consult it to decide which
//! quantities to collect and replay.

use serde::Serialize;

/// Resource class a metric belongs to (first column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ResourceClass {
    /// Host-level information (cores, frequency, load, runtime).
    System,
    /// CPU activity (cycles, instructions, efficiency, threads).
    Compute,
    /// Disk I/O.
    Storage,
    /// Memory allocation and residency.
    Memory,
    /// Network traffic (largely planned in the paper).
    Network,
}

impl ResourceClass {
    /// All classes in the order Table 1 lists them.
    pub const ALL: [ResourceClass; 5] = [
        ResourceClass::System,
        ResourceClass::Compute,
        ResourceClass::Storage,
        ResourceClass::Memory,
        ResourceClass::Network,
    ];

    /// Display name used in the rendered table.
    pub fn name(self) -> &'static str {
        match self {
            ResourceClass::System => "System",
            ResourceClass::Compute => "Compute",
            ResourceClass::Storage => "Storage",
            ResourceClass::Memory => "Memory",
            ResourceClass::Network => "Network",
        }
    }
}

/// Support level for one usage column of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Support {
    /// `+` — fully supported.
    Yes,
    /// `-` — not supported and not planned.
    No,
    /// `(+)` — partially supported.
    Partial,
    /// `(-)` — planned future work.
    Planned,
}

impl Support {
    /// The notation used in the paper's table.
    pub fn symbol(self) -> &'static str {
        match self {
            Support::Yes => "+",
            Support::No => "-",
            Support::Partial => "(+)",
            Support::Planned => "(-)",
        }
    }

    /// Whether the metric is available in this column at all
    /// (fully or partially).
    pub fn available(self) -> bool {
        matches!(self, Support::Yes | Support::Partial)
    }
}

/// Usage flags for a single metric: the four columns of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MetricUsage {
    /// Integrated total over runtime.
    pub total: Support,
    /// Sampled over time.
    pub sampled: Support,
    /// Derived from other metrics.
    pub derived: Support,
    /// Used in emulation.
    pub emulated: Support,
}

const fn usage(
    total: Support,
    sampled: Support,
    derived: Support,
    emulated: Support,
) -> MetricUsage {
    MetricUsage {
        total,
        sampled,
        derived,
        emulated,
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Metric {
    /// Resource class (table grouping).
    pub class: ResourceClass,
    /// Metric name as printed in the paper.
    pub name: &'static str,
    /// Usage columns.
    pub usage: MetricUsage,
}

use Support::{No, Partial, Planned, Yes};

/// The full Table 1 registry, in the paper's row order.
pub const METRIC_REGISTRY: &[Metric] = &[
    // System
    Metric {
        class: ResourceClass::System,
        name: "number of cores",
        usage: usage(Yes, No, No, No),
    },
    Metric {
        class: ResourceClass::System,
        name: "max CPU frequency",
        usage: usage(Yes, No, No, No),
    },
    Metric {
        class: ResourceClass::System,
        name: "total memory",
        usage: usage(Yes, No, No, No),
    },
    Metric {
        class: ResourceClass::System,
        name: "runtime",
        usage: usage(Yes, Yes, No, No),
    },
    Metric {
        class: ResourceClass::System,
        name: "system load (CPU)",
        usage: usage(Yes, No, No, Yes),
    },
    Metric {
        class: ResourceClass::System,
        name: "system load (disk)",
        usage: usage(No, No, No, Yes),
    },
    Metric {
        class: ResourceClass::System,
        name: "system load (memory)",
        usage: usage(No, No, No, Yes),
    },
    // Compute
    Metric {
        class: ResourceClass::Compute,
        name: "CPU instructions",
        usage: usage(Yes, Yes, No, Yes),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "cycles used",
        usage: usage(Yes, Yes, No, Yes),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "cycles stalled backend",
        usage: usage(Yes, Yes, No, No),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "cycles stalled frontend",
        usage: usage(Yes, Yes, No, No),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "efficiency",
        usage: usage(Yes, Yes, Yes, Partial),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "utilization",
        usage: usage(Yes, Yes, Yes, No),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "FLOPs",
        usage: usage(Yes, Yes, Yes, Yes),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "FLOP/s",
        usage: usage(Yes, Yes, Yes, No),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "number of threads",
        usage: usage(Yes, No, No, Partial),
    },
    Metric {
        class: ResourceClass::Compute,
        name: "OpenMP",
        usage: usage(Partial, No, No, Yes),
    },
    // Storage
    Metric {
        class: ResourceClass::Storage,
        name: "bytes read",
        usage: usage(Yes, Yes, No, Yes),
    },
    Metric {
        class: ResourceClass::Storage,
        name: "bytes written",
        usage: usage(Yes, Yes, No, Yes),
    },
    Metric {
        class: ResourceClass::Storage,
        name: "block size read",
        usage: usage(No, Partial, No, Yes),
    },
    Metric {
        class: ResourceClass::Storage,
        name: "block size write",
        usage: usage(No, Partial, No, Yes),
    },
    Metric {
        class: ResourceClass::Storage,
        name: "used file system",
        usage: usage(Yes, No, No, Yes),
    },
    // Memory
    Metric {
        class: ResourceClass::Memory,
        name: "bytes peak",
        usage: usage(Yes, Yes, No, No),
    },
    Metric {
        class: ResourceClass::Memory,
        name: "bytes resident size",
        usage: usage(Yes, Yes, No, No),
    },
    Metric {
        class: ResourceClass::Memory,
        name: "bytes allocated",
        usage: usage(Yes, Yes, Yes, Yes),
    },
    Metric {
        class: ResourceClass::Memory,
        name: "bytes freed",
        usage: usage(Yes, Yes, Yes, Yes),
    },
    Metric {
        class: ResourceClass::Memory,
        name: "block size alloc",
        usage: usage(No, Planned, No, Planned),
    },
    Metric {
        class: ResourceClass::Memory,
        name: "block size free",
        usage: usage(No, Planned, No, Planned),
    },
    // Network
    Metric {
        class: ResourceClass::Network,
        name: "connection endpoint",
        usage: usage(Planned, Planned, No, Partial),
    },
    Metric {
        class: ResourceClass::Network,
        name: "bytes read",
        usage: usage(Planned, Planned, No, Partial),
    },
    Metric {
        class: ResourceClass::Network,
        name: "bytes written",
        usage: usage(Planned, Planned, No, Partial),
    },
    Metric {
        class: ResourceClass::Network,
        name: "block size read",
        usage: usage(No, Planned, No, Planned),
    },
    Metric {
        class: ResourceClass::Network,
        name: "block size write",
        usage: usage(No, Planned, No, Planned),
    },
];

/// Iterate the registry rows belonging to one resource class.
pub fn metrics_for(class: ResourceClass) -> impl Iterator<Item = &'static Metric> {
    METRIC_REGISTRY.iter().filter(move |m| m.class == class)
}

/// Look a metric up by class and name.
pub fn find_metric(class: ResourceClass, name: &str) -> Option<&'static Metric> {
    METRIC_REGISTRY
        .iter()
        .find(|m| m.class == class && m.name == name)
}

/// Render the registry in the paper's Table 1 layout.
///
/// Produces a fixed-width text table with one row per metric and the
/// four usage columns, suitable for terminal output and for comparison
/// against the published table.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<26} {:>6} {:>6} {:>6} {:>6}\n",
        "Resource", "Metric", "Tot.", "Samp.", "Der.", "Emul."
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    let mut last_class = None;
    for m in METRIC_REGISTRY {
        let class = if last_class == Some(m.class) {
            ""
        } else {
            last_class = Some(m.class);
            m.class.name()
        };
        out.push_str(&format!(
            "{:<10} {:<26} {:>6} {:>6} {:>6} {:>6}\n",
            class,
            m.name,
            m.usage.total.symbol(),
            m.usage.sampled.symbol(),
            m.usage.derived.symbol(),
            m.usage.emulated.symbol(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_paper_row_count() {
        // Table 1 has 7 system + 10 compute + 5 storage + 6 memory +
        // 5 network rows.
        assert_eq!(METRIC_REGISTRY.len(), 33);
        assert_eq!(metrics_for(ResourceClass::System).count(), 7);
        assert_eq!(metrics_for(ResourceClass::Compute).count(), 10);
        assert_eq!(metrics_for(ResourceClass::Storage).count(), 5);
        assert_eq!(metrics_for(ResourceClass::Memory).count(), 6);
        assert_eq!(metrics_for(ResourceClass::Network).count(), 5);
    }

    #[test]
    fn registry_rows_are_grouped_by_class() {
        // Rows must appear grouped (System block, then Compute, ...) so
        // the rendered table matches the paper's layout.
        let mut seen = Vec::new();
        for m in METRIC_REGISTRY {
            if seen.last() != Some(&m.class) {
                assert!(
                    !seen.contains(&m.class),
                    "class {:?} appears in two blocks",
                    m.class
                );
                seen.push(m.class);
            }
        }
        assert_eq!(seen, ResourceClass::ALL.to_vec());
    }

    #[test]
    fn key_rows_match_paper() {
        let flops = find_metric(ResourceClass::Compute, "FLOPs").unwrap();
        assert_eq!(flops.usage, super::usage(Yes, Yes, Yes, Yes));
        let eff = find_metric(ResourceClass::Compute, "efficiency").unwrap();
        assert_eq!(eff.usage.emulated, Support::Partial);
        let peak = find_metric(ResourceClass::Memory, "bytes peak").unwrap();
        assert_eq!(peak.usage.emulated, Support::No);
        let net = find_metric(ResourceClass::Network, "bytes read").unwrap();
        assert_eq!(net.usage.total, Support::Planned);
        assert_eq!(net.usage.emulated, Support::Partial);
    }

    #[test]
    fn support_symbols_match_notation() {
        assert_eq!(Support::Yes.symbol(), "+");
        assert_eq!(Support::No.symbol(), "-");
        assert_eq!(Support::Partial.symbol(), "(+)");
        assert_eq!(Support::Planned.symbol(), "(-)");
        assert!(Support::Yes.available());
        assert!(Support::Partial.available());
        assert!(!Support::No.available());
        assert!(!Support::Planned.available());
    }

    #[test]
    fn rendered_table_contains_all_rows() {
        let table = render_table1();
        for m in METRIC_REGISTRY {
            assert!(table.contains(m.name), "missing row {}", m.name);
        }
        // Header and the five class labels appear.
        for c in ResourceClass::ALL {
            assert!(table.contains(c.name()));
        }
        assert!(table.contains("Emul."));
        // The paper's partial/planned notation appears in the table.
        assert!(table.contains("(+)"));
        assert!(table.contains("(-)"));
    }

    #[test]
    fn find_metric_misses_gracefully() {
        assert!(find_metric(ResourceClass::System, "no such metric").is_none());
        // Same name exists in Storage and Network; class disambiguates.
        let s = find_metric(ResourceClass::Storage, "bytes read").unwrap();
        let n = find_metric(ResourceClass::Network, "bytes read").unwrap();
        assert_ne!(s.usage.total, n.usage.total);
    }
}
