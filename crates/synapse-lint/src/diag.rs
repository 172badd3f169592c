//! Diagnostics and the `lint:allow` suppression pass.

use crate::workspace::SourceFile;

/// One finding: a machine-checkable invariant violated at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path (`crates/x/src/lib.rs`).
    pub file: String,
    /// 1-based line; 0 when the finding is about a whole file.
    pub line: usize,
    /// Rule id (`no-panic-hot-path`, …).
    pub rule: &'static str,
    /// Human-readable statement of the violation.
    pub message: String,
}

impl Diagnostic {
    pub fn new(file: &str, line: usize, rule: &'static str, message: String) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            message,
        }
    }

    /// `file:line: [rule] message` (line omitted when 0).
    pub fn render(&self) -> String {
        if self.line == 0 {
            format!("{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            format!(
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// Apply per-site suppressions to `diags` for one file: a
/// `// lint:allow(<rule>, reason = "…")` on the flagged line, or on a
/// contiguous run of comment-only lines directly above it, suppresses
/// that rule there. Returns the surviving diagnostics plus one
/// `lint-allow` diagnostic per malformed or unused directive.
///
/// When a `--rule` filter is active (`rule_filter`), directives for
/// other rules are left alone — they are neither used nor reportable
/// as unused on a partial run.
pub fn apply_allows(
    file: &SourceFile,
    diags: Vec<Diagnostic>,
    rule_filter: Option<&str>,
) -> Vec<Diagnostic> {
    let code_lines: Vec<&str> = file.lexed.code.lines().collect();
    let mut used = vec![false; file.allows.len()];
    let mut out = Vec::new();
    for d in diags {
        let mut suppressed = false;
        for (i, allow) in file.allows.iter().enumerate() {
            if allow.malformed.is_some() || allow.rule != d.rule {
                continue;
            }
            if allow_covers(allow.line, d.line, &code_lines) {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (i, allow) in file.allows.iter().enumerate() {
        if let Some(filter) = rule_filter {
            // Malformed directives have no reliable rule name; report
            // them only on full runs. Foreign rules' allows are out of
            // scope on a filtered run.
            if allow.malformed.is_some() || allow.rule != filter {
                continue;
            }
        }
        if let Some(problem) = &allow.malformed {
            out.push(Diagnostic::new(
                &file.rel,
                allow.line,
                "lint-allow",
                format!("malformed suppression: {problem}"),
            ));
        } else if !crate::rules::known_ids().contains(&allow.rule.as_str()) {
            out.push(Diagnostic::new(
                &file.rel,
                allow.line,
                "lint-allow",
                format!(
                    "suppression names unknown rule `{}`; known rules: {}",
                    allow.rule,
                    crate::rules::known_ids().join(", ")
                ),
            ));
        } else if !used[i] {
            out.push(Diagnostic::new(
                &file.rel,
                allow.line,
                "lint-allow",
                format!(
                    "unused suppression for `{}` — nothing to allow here; remove it",
                    allow.rule
                ),
            ));
        }
    }
    out
}

/// Does an allow on `allow_line` cover a diagnostic on `diag_line`?
/// Same line always; a line above only through comment-only lines.
fn allow_covers(allow_line: usize, diag_line: usize, code_lines: &[&str]) -> bool {
    if allow_line == diag_line {
        return true;
    }
    if allow_line > diag_line {
        return false;
    }
    // Every line strictly between the allow and the finding — and the
    // allow's own line — must hold no code.
    (allow_line..diag_line).all(|l| {
        code_lines
            .get(l - 1)
            .map(|c| c.trim().is_empty())
            .unwrap_or(false)
    })
}
