//! The rule registry. Every rule is a pure function of the loaded
//! [`Workspace`] snapshot; diagnostics it emits are then filtered
//! through the per-site `lint:allow` suppressions (see
//! [`crate::diag::apply_allows`]).

use crate::diag::Diagnostic;
use crate::workspace::{SourceFile, Workspace};

mod monotonic_time;
mod no_panic;
mod observer_purity;
mod unsafe_audit;

/// One invariant checker.
pub trait Rule {
    /// Stable id used in diagnostics and `lint:allow(<id>, …)`.
    fn id(&self) -> &'static str;
    /// One-line description for `list-rules` and docs.
    fn describe(&self) -> &'static str;
    /// Emit every violation found in `ws`.
    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>);
}

/// All shipped rules, in catalog order.
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(monotonic_time::MonotonicTime),
        Box::new(unsafe_audit::UnsafeAudit),
        Box::new(no_panic::NoPanicHotPath),
        Box::new(observer_purity::ObserverPurity),
    ]
}

/// Every diagnostic-producing rule id, including the meta rule emitted
/// by the suppression pass itself.
pub fn known_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all().iter().map(|r| r.id()).collect();
    ids.push("lint-allow");
    ids
}

/// Find word-bounded occurrences of `needle` in `line` (an
/// already-blanked code view line): the match must not be glued to an
/// identifier character on either side.
pub(crate) fn token_positions(line: &str, needle: &str) -> Vec<usize> {
    let lb = line.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !crate::lexer::is_ident_byte(lb[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= lb.len() || !crate::lexer::is_ident_byte(lb[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Emit one diagnostic per word-bounded occurrence of `needle` on the
/// runtime lines of `file`'s code view.
pub(crate) fn flag_token(
    file: &SourceFile,
    needle: &str,
    rule: &'static str,
    message: &str,
    out: &mut Vec<Diagnostic>,
) {
    for (idx, line) in file.lexed.code.lines().enumerate() {
        let lineno = idx + 1;
        if !file.is_runtime_line(lineno) {
            continue;
        }
        if !token_positions(line, needle).is_empty() {
            out.push(Diagnostic::new(
                &file.rel,
                lineno,
                rule,
                message.to_string(),
            ));
        }
    }
}
