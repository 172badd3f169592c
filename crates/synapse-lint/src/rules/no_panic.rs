//! `no-panic-hot-path`: the reactor loop, the server's connection
//! state machines and request handlers, and the cluster lease drivers are the paths where a
//! panic takes down every connection (or strands a lease) instead of
//! failing one request. Runtime code there must not call
//! `unwrap`/`expect`/`panic!`-family macros or use panicking
//! index/slice expressions; each historically-audited site carries a
//! `lint:allow` stating the invariant that makes it safe.

use crate::diag::Diagnostic;
use crate::rules::{token_positions, Rule};
use crate::workspace::Workspace;

pub struct NoPanicHotPath;

/// The audited hot-path files.
const HOT_PATHS: &[&str] = &[
    "crates/synapse-server/src/reactor.rs",
    "crates/synapse-server/src/routes.rs",
    "crates/synapse-server/src/server.rs",
    "crates/synapse-cluster/src/coordinator.rs",
];

/// Method-shaped panics.
const BANNED_CALLS: &[&str] = &["unwrap", "expect"];

/// Macro-shaped panics.
const BANNED_MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];

impl Rule for NoPanicHotPath {
    fn id(&self) -> &'static str {
        "no-panic-hot-path"
    }

    fn describe(&self) -> &'static str {
        "no unwrap/expect/panic!/indexing in reactor.rs, routes.rs, server.rs, and the cluster \
         lease drivers (non-test code); each allowed site documents its invariant"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        for rel in HOT_PATHS {
            let Some(file) = ws.file(rel) else { continue };
            for (idx, line) in file.lexed.code.lines().enumerate() {
                let lineno = idx + 1;
                if !file.is_runtime_line(lineno) {
                    continue;
                }
                for call in BANNED_CALLS {
                    for at in token_positions(line, call) {
                        if line[at + call.len()..].trim_start().starts_with('(')
                            && at > 0
                            && line.as_bytes()[at - 1] == b'.'
                        {
                            out.push(Diagnostic::new(
                                rel,
                                lineno,
                                self.id(),
                                format!(
                                    "`.{call}()` on a hot path — handle the error or document \
                                     the invariant with a lint:allow"
                                ),
                            ));
                        }
                    }
                }
                for mac in BANNED_MACROS {
                    if line.contains(mac) {
                        out.push(Diagnostic::new(
                            rel,
                            lineno,
                            self.id(),
                            format!("`{mac}` on a hot path — return an error instead"),
                        ));
                    }
                }
                for at in index_positions(line) {
                    out.push(Diagnostic::new(
                        rel,
                        lineno,
                        self.id(),
                        format!(
                            "panicking index/slice expression at column {} — use `.get(…)` or \
                             document the bound invariant with a lint:allow",
                            at + 1
                        ),
                    ));
                }
            }
        }
    }
}

/// Positions of `[` that open an index expression (preceded by an
/// identifier character, `)`, or `]`) rather than an array literal,
/// slice pattern, or attribute.
fn index_positions(line: &str) -> Vec<usize> {
    let b = line.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' || i == 0 {
            continue;
        }
        let prev = b[i - 1];
        if crate::lexer::is_ident_byte(prev) || prev == b')' || prev == b']' {
            out.push(i);
        }
    }
    out
}
