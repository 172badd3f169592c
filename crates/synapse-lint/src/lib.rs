#![forbid(unsafe_code)]
//! `synapse-lint` — the workspace invariant checker.
//!
//! Synapse's core claim is *predictability*: emulation must
//! deterministically reproduce application behaviour. The doc tables
//! that restate code (PROTOCOL.md's endpoints and pinned constants,
//! TRACE.md's version, the README metric catalog) are rendered from
//! that code and held by tests. What no test can render lives in
//! prose and review culture: `docs/TRACE.md` bans wall-clock from
//! traces, `unsafe` needs a SAFETY argument, hot paths must not
//! panic, libraries must not print. This crate turns those
//! conventions into machine-checked gates: an offline, std-only
//! static analysis pass with a comment/string/raw-string-aware lexer,
//! run in CI as `cargo run -p synapse-lint -- check`.
//!
//! Per-site suppressions are spelled
//! `// lint:allow(<rule>, reason = "…")` on the offending line or the
//! comment block directly above it; the reason is mandatory, and an
//! unused or malformed directive is itself a finding. The rule catalog
//! is documented in `docs/LINTS.md`.

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod workspace;

use std::path::Path;

pub use diag::Diagnostic;
use workspace::Workspace;

/// Options for one lint pass.
#[derive(Default)]
pub struct CheckOptions {
    /// Run only the rule with this id.
    pub rule: Option<String>,
}

/// Load the workspace at `root` and run the (optionally filtered)
/// rule set, returning surviving diagnostics sorted by location.
pub fn run_check(root: &Path, opts: &CheckOptions) -> std::io::Result<Vec<Diagnostic>> {
    let ws = Workspace::load(root)?;
    if let Some(rule) = &opts.rule {
        if !rules::known_ids().contains(&rule.as_str()) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "unknown rule `{rule}`; known rules: {}",
                    rules::known_ids().join(", ")
                ),
            ));
        }
    }
    let mut raw = Vec::new();
    for rule in rules::all() {
        if let Some(only) = &opts.rule {
            if rule.id() != only {
                continue;
            }
        }
        rule.check(&ws, &mut raw);
    }
    // Route each file's diagnostics through its suppression pass.
    let mut out = Vec::new();
    for file in &ws.files {
        let for_file: Vec<Diagnostic> =
            raw.iter().filter(|d| d.file == file.rel).cloned().collect();
        out.extend(diag::apply_allows(file, for_file, opts.rule.as_deref()));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out.dedup();
    Ok(out)
}

/// Render diagnostics as a JSON array (stable key order, no deps).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\":{},\"line\":{},\"message\":{},\"rule\":{}}}",
            json_str(&d.file),
            d.line,
            json_str(&d.message),
            json_str(d.rule),
        ));
    }
    out.push_str(if diags.is_empty() { "]" } else { "\n]" });
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
