//! `protocol-drift`: docs/PROTOCOL.md is the normative wire spec. Its
//! §1 endpoint table must equal, as a set of (method, shape, role)
//! triples, the `const ROUTES` table in `synapse-server/src/routes.rs`
//! that the server dispatches from, and its pinned-constants table
//! must agree with the named constants in code (versions, heartbeat /
//! silence / snapshot cadence, probe and split bounds, lease retry
//! policy). docs/TRACE.md's headline format version is checked against
//! `TRACE_VERSION` the same way.

use crate::diag::Diagnostic;
use crate::lexer::Class;
use crate::rules::{backtick_spans, line_of_offset, token_positions, Rule};
use crate::workspace::{SourceFile, Workspace};

pub struct ProtocolDrift;

const PROTOCOL: &str = "docs/PROTOCOL.md";
const ROUTES_RS: &str = "crates/synapse-server/src/routes.rs";

impl Rule for ProtocolDrift {
    fn id(&self) -> &'static str {
        "protocol-drift"
    }

    fn describe(&self) -> &'static str {
        "docs/PROTOCOL.md endpoint table equals the server's ROUTES table on (method, shape, \
         role) and its pinned constants (versions, heartbeat/silence/backoff, snapshot cadence) \
         match the code; docs/TRACE.md version matches TRACE_VERSION"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(protocol) = &ws.protocol else {
            out.push(Diagnostic::new(
                PROTOCOL,
                0,
                self.id(),
                "docs/PROTOCOL.md not found — the wire protocol must stay a written spec"
                    .to_string(),
            ));
            return;
        };
        self.check_constants(ws, protocol, out);
        self.check_routes(ws, protocol, out);
        self.check_trace_version(ws, out);
    }
}

/// One row of the pinned-constants table.
struct PinnedRow {
    name: String,
    value: String,
    path: String,
    line: usize,
}

impl ProtocolDrift {
    fn check_constants(&self, ws: &Workspace, protocol: &str, out: &mut Vec<Diagnostic>) {
        let rows = parse_pinned_table(protocol);
        if rows.is_empty() {
            out.push(Diagnostic::new(
                PROTOCOL,
                0,
                self.id(),
                "no pinned-constants table found (section \"Pinned constants\" with \
                 | `NAME` | `value` | `path` | rows)"
                    .to_string(),
            ));
            return;
        }
        for row in rows {
            let Some(file) = ws.file(&row.path) else {
                out.push(Diagnostic::new(
                    PROTOCOL,
                    row.line,
                    self.id(),
                    format!(
                        "pinned constant `{}` points at `{}`, which is not in the workspace",
                        row.name, row.path
                    ),
                ));
                continue;
            };
            let check = if row.value.contains("min(") {
                check_backoff_formula(file, &row)
            } else if row.name.chars().all(|c| c.is_lowercase() || c == '_') {
                check_field_default(file, &row)
            } else {
                check_named_const(ws, file, &row)
            };
            if let Err(msg) = check {
                out.push(Diagnostic::new(PROTOCOL, row.line, self.id(), msg));
            }
        }
    }

    /// Two-way set diff of the spec's §1 rows against `const ROUTES`.
    fn check_routes(&self, ws: &Workspace, protocol: &str, out: &mut Vec<Diagnostic>) {
        let spec = parse_route_table(protocol);
        let served = ws
            .file(ROUTES_RS)
            .and_then(parse_routes_const)
            .unwrap_or_default();
        for (rows, file, what) in [
            (&spec, PROTOCOL, "§1 endpoint table"),
            (
                &served,
                ROUTES_RS,
                "`const ROUTES` table (method, shape, role, label per row)",
            ),
        ] {
            if rows.is_empty() {
                out.push(Diagnostic::new(
                    file,
                    0,
                    self.id(),
                    format!("no {what} found"),
                ));
                return;
            }
        }
        // A `?query` spec row documents a variant of its base row and
        // may narrow the role: it needs the method and shape served,
        // and documents no row by itself.
        let same = |a: &RouteRow, b: &RouteRow| {
            (&a.method, &a.shape) == (&b.method, &b.shape) && (a.variant || a.role == b.role)
        };
        for row in spec
            .iter()
            .filter(|row| !served.iter().any(|r| same(row, r)))
        {
            let msg = format!(
                "spec row `{} {}` ({}) has no such row in ROUTES ({ROUTES_RS})",
                row.method, row.shape, row.role
            );
            out.push(Diagnostic::new(PROTOCOL, row.line, self.id(), msg));
        }
        let documented = |row: &RouteRow| spec.iter().any(|r| !r.variant && same(r, row));
        for row in served.iter().filter(|row| !documented(row)) {
            let msg = format!(
                "route `{} {}` ({}) is served but absent from the docs/PROTOCOL.md §1 endpoint table",
                row.method, row.shape, row.role
            );
            out.push(Diagnostic::new(ROUTES_RS, row.line, self.id(), msg));
        }
    }

    fn check_trace_version(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(trace_md) = &ws.trace_md else {
            return; // PROTOCOL.md pins TRACE_VERSION; TRACE.md headline is extra.
        };
        let Some((spec_v, line)) = parse_trace_headline(trace_md) else {
            out.push(Diagnostic::new(
                "docs/TRACE.md",
                0,
                self.id(),
                "no `**Trace format version: N**` headline found".to_string(),
            ));
            return;
        };
        let code_v = ws
            .file("crates/synapse-trace/src/lib.rs")
            .and_then(|f| const_int_value(f, "TRACE_VERSION"));
        if code_v != Some(spec_v) {
            out.push(Diagnostic::new(
                "docs/TRACE.md",
                line,
                self.id(),
                format!(
                    "TRACE.md says trace format version {spec_v}, but TRACE_VERSION in \
                     crates/synapse-trace/src/lib.rs is {}",
                    code_v.map(|v| v.to_string()).unwrap_or("missing".into())
                ),
            ));
        }
    }
}

/// `**Trace format version: N**` → (N, line).
fn parse_trace_headline(md: &str) -> Option<(u64, usize)> {
    for (idx, line) in md.lines().enumerate() {
        if let Some(tail) = line.strip_prefix("**Trace format version: ") {
            let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
            if let Ok(v) = digits.parse() {
                return Some((v, idx + 1));
            }
        }
    }
    None
}

/// Rows of the pinned-constants table: `| `NAME` | `value` | `path` | …`
/// under a heading containing "Pinned constants".
fn parse_pinned_table(protocol: &str) -> Vec<PinnedRow> {
    let mut rows = Vec::new();
    let mut in_section = false;
    for (idx, line) in protocol.lines().enumerate() {
        if line.starts_with("#") {
            in_section = line.contains("Pinned constants");
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim().trim_matches('|').split('|').collect();
        if cells.len() < 3 {
            continue;
        }
        let name = backtick_spans(cells[0]).first().map(|s| s.to_string());
        let value = backtick_spans(cells[1]).first().map(|s| s.to_string());
        let path = backtick_spans(cells[2]).first().map(|s| s.to_string());
        if let (Some(name), Some(value), Some(path)) = (name, value, path) {
            rows.push(PinnedRow {
                name,
                value,
                path,
                line: idx + 1,
            });
        }
    }
    rows
}

/// One (method, shape, role) triple, from the spec or from the code.
struct RouteRow {
    method: String,
    /// `/campaigns/:id/report` — `<…>` spec segments read as `:id`.
    shape: String,
    role: String,
    /// Spec rows only: the path carried a `?query`.
    variant: bool,
    line: usize,
}

/// §1 endpoint-table rows: `| `METHOD /path` | role | … |`.
fn parse_route_table(protocol: &str) -> Vec<RouteRow> {
    let row = |(idx, line): (usize, &str)| {
        let mut cells = line.trim().strip_prefix('|')?.split('|');
        // Only the first span of the first cell names the route.
        let span = backtick_spans(cells.next()?).into_iter().next()?;
        let role = cells.next()?.trim();
        let (method, target) = span.split_once(' ')?;
        if !matches!(method, "GET" | "POST" | "DELETE" | "PUT") || !target.starts_with('/') {
            return None;
        }
        let segments = target.split('?').next()?.split('/').skip(1);
        let shape = segments
            .map(|s| {
                if s.starts_with('<') {
                    "/:id".to_string()
                } else {
                    format!("/{s}")
                }
            })
            .collect();
        Some(RouteRow {
            method: method.to_string(),
            shape,
            role: role.to_string(),
            variant: target.contains('?'),
            line: idx + 1,
        })
    };
    protocol.lines().enumerate().filter_map(row).collect()
}

/// The rows of `const ROUTES: … = &[ … ];`: its string literals, four
/// to a row — method, shape, role, label. `None` when the table does
/// not read that way.
fn parse_routes_const(file: &SourceFile) -> Option<Vec<RouteRow>> {
    let lexed = &file.lexed;
    // String contents are blanked in the code view, so the first `]`
    // after the `=` closes the array (the type's `&[Route]` sits
    // before it and no literal can hide one).
    let at = lexed.code.find("const ROUTES")?;
    let eq = at + lexed.code[at..].find('=')?;
    let end = eq + lexed.code[eq..].find(']')?;
    let is_str = |i: &usize| lexed.classes[*i] == Class::Str;
    let mut literals: Vec<(&str, usize)> = Vec::new();
    let mut at = eq;
    while let Some(open) = (at..end).find(is_str) {
        at = (open..end).find(|i| !is_str(i)).unwrap_or(end);
        literals.push((lexed.text[open..at].trim_matches('"'), open));
    }
    let rows = literals.chunks_exact(4);
    if !rows.remainder().is_empty() {
        return None;
    }
    let row = |row: &[(&str, usize)]| RouteRow {
        method: row[0].0.to_string(),
        shape: row[1].0.to_string(),
        role: row[2].0.to_string(),
        variant: false,
        line: line_of_offset(&lexed.text, row[0].1),
    };
    Some(rows.map(row).collect())
}

/// Value of `const NAME: … = <int>;` in `file`'s runtime code.
fn const_int_value(file: &SourceFile, name: &str) -> Option<u64> {
    let init = const_initializer(file, name)?;
    eval_expr(&init, &|_| None).map(|v| v.0)
}

/// The initializer text of `const NAME … = INIT ;`.
fn const_initializer(file: &SourceFile, name: &str) -> Option<String> {
    let code = &file.lexed.code;
    for (idx, _) in code.match_indices("const ") {
        let after = &code[idx + "const ".len()..];
        let glued = after.as_bytes().get(name.len()).copied();
        if !after.starts_with(name) || glued.map(crate::lexer::is_ident_byte).unwrap_or(false) {
            continue;
        }
        let eq = after.find('=')?;
        let semi = after[eq..].find(';')? + eq;
        return Some(after[eq + 1..semi].trim().to_string());
    }
    None
}

/// Evaluate a constant initializer to `(value, unit)` where unit is
/// `""` (unitless), `"s"`, or `"ms"`. Supports integer literals
/// (with `_`), `+`, `*`, `Duration::from_secs(…)`,
/// `Duration::from_millis(…)`, `as_secs()` / `as_millis()` on
/// referenced constants resolved through `resolve`.
fn eval_expr(
    expr: &str,
    resolve: &dyn Fn(&str) -> Option<(u64, &'static str)>,
) -> Option<(u64, &'static str)> {
    let expr = expr.trim();
    for (ctor, unit) in [
        ("Duration::from_secs(", "s"),
        ("Duration::from_millis(", "ms"),
    ] {
        if let Some(inner) = expr.strip_prefix(ctor) {
            let inner = inner.strip_suffix(')')?;
            let (v, _) = eval_sum(inner, resolve)?;
            return Some((v, unit));
        }
    }
    eval_sum(expr, resolve)
}

fn eval_sum(
    expr: &str,
    resolve: &dyn Fn(&str) -> Option<(u64, &'static str)>,
) -> Option<(u64, &'static str)> {
    let mut total = 0u64;
    for part in expr.split('+') {
        let (v, _) = eval_product(part, resolve)?;
        total += v;
    }
    Some((total, ""))
}

fn eval_product(
    expr: &str,
    resolve: &dyn Fn(&str) -> Option<(u64, &'static str)>,
) -> Option<(u64, &'static str)> {
    let mut total = 1u64;
    for part in expr.split('*') {
        let (v, _) = eval_atom(part.trim(), resolve)?;
        total *= v;
    }
    Some((total, ""))
}

fn eval_atom(
    atom: &str,
    resolve: &dyn Fn(&str) -> Option<(u64, &'static str)>,
) -> Option<(u64, &'static str)> {
    let atom = atom.trim();
    let cleaned: String = atom.chars().filter(|c| *c != '_').collect();
    if let Ok(v) = cleaned.parse::<u64>() {
        return Some((v, ""));
    }
    // `path::to::CONST.as_secs()` or bare `path::CONST`.
    let (ident, method) = match atom.find('.') {
        Some(dot) => (&atom[..dot], &atom[dot + 1..]),
        None => (atom, ""),
    };
    let name = ident.rsplit("::").next()?.trim();
    let (value, unit) = resolve(name)?;
    match method.trim() {
        "" => Some((value, unit)),
        "as_secs()" => Some((if unit == "ms" { value / 1000 } else { value }, "")),
        "as_millis()" => Some((if unit == "s" { value * 1000 } else { value }, "")),
        _ => None,
    }
}

/// Check a SCREAMING_CASE pinned row against the constant in `file`.
fn check_named_const(ws: &Workspace, file: &SourceFile, row: &PinnedRow) -> Result<(), String> {
    let (want, want_unit) = parse_spec_value(&row.value).ok_or_else(|| {
        format!(
            "unparseable pinned value `{}` for `{}`",
            row.value, row.name
        )
    })?;
    let init = const_initializer(file, &row.name).ok_or_else(|| {
        format!(
            "pinned constant `{}` not found as a `const` in `{}`",
            row.name, row.path
        )
    })?;
    let resolve = |name: &str| -> Option<(u64, &'static str)> {
        // Cross-file references resolve against every workspace file.
        for f in &ws.files {
            if let Some(init) = const_initializer(f, name) {
                return eval_expr(&init, &|_| None);
            }
        }
        None
    };
    let (got, got_unit) = eval_expr(&init, &resolve).ok_or_else(|| {
        format!(
            "could not evaluate initializer `{init}` of `{}` in `{}`",
            row.name, row.path
        )
    })?;
    let to_ms = |v: u64, u: &str| match u {
        "s" => v * 1000,
        _ => v,
    };
    let matches = if want_unit.is_empty() && got_unit.is_empty() {
        want == got
    } else {
        to_ms(want, want_unit) == to_ms(got, got_unit)
    };
    if !matches {
        return Err(format!(
            "`{}` drifted: spec pins `{}`, code in `{}` evaluates to {} {}",
            row.name, row.value, row.path, got, got_unit
        ));
    }
    Ok(())
}

/// `6`, `10 s`, `250 ms` → (value, unit).
fn parse_spec_value(value: &str) -> Option<(u64, &'static str)> {
    let mut words = value.split_whitespace();
    let v: u64 = words.next()?.parse().ok()?;
    match words.next() {
        None => Some((v, "")),
        Some("s") => Some((v, "s")),
        Some("ms") => Some((v, "ms")),
        _ => None,
    }
}

/// A lowercase row pins a struct-field default: `name: <int>` must
/// appear in the file's runtime code with the pinned integer.
fn check_field_default(file: &SourceFile, row: &PinnedRow) -> Result<(), String> {
    let want: u64 = row
        .value
        .split_whitespace()
        .next()
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("unparseable pinned default `{}`", row.value))?;
    for line in file.lexed.code.lines() {
        if let Some(pos) = token_positions(line, &row.name).first() {
            let after = line[pos + row.name.len()..].trim_start();
            if let Some(rest) = after.strip_prefix(':') {
                let digits: String = rest
                    .trim_start()
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                if let Ok(got) = digits.parse::<u64>() {
                    if got == want {
                        return Ok(());
                    }
                    return Err(format!(
                        "default `{}` drifted: spec pins {}, code in `{}` says {}",
                        row.name, want, row.path, got
                    ));
                }
            }
        }
    }
    Err(format!(
        "no `{}: <int>` default found in `{}` to match the pinned {}",
        row.name, row.path, want
    ))
}

/// A formula row (`200 ms × min(attempts, 5)`) pins the lease retry
/// backoff: the file must compute `from_millis(<base> * …min(<cap>)…)`.
fn check_backoff_formula(file: &SourceFile, row: &PinnedRow) -> Result<(), String> {
    let nums: Vec<u64> = row
        .value
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let (base, cap) = match nums.as_slice() {
        [base, cap, ..] => (*base, *cap),
        _ => return Err(format!("unparseable backoff formula `{}`", row.value)),
    };
    let want_base = format!("from_millis({base}");
    let want_cap = format!(".min({cap})");
    for (idx, line) in file.lexed.code.lines().enumerate() {
        if file.is_runtime_line(idx + 1) && line.contains(&want_base) && line.contains(&want_cap) {
            return Ok(());
        }
    }
    Err(format!(
        "backoff drifted: `{}` pins `{}`, but `{}` has no `{want_base} … {want_cap}` expression",
        row.name, row.value, row.path
    ))
}
