//! A small TOML-subset reader producing `serde_json::Value`.
//!
//! Campaign specs are declarative tables of scalars and arrays, so the
//! supported subset is deliberately small:
//!
//! * top-level and `[table]` / `[table.sub]` sections,
//! * `[[array-of-tables]]` entries (used for `[[workloads]]`),
//! * `key = value` with strings, integers, floats, booleans and
//!   (possibly multi-line) arrays of those,
//! * `#` comments and blank lines.
//!
//! Inline tables, dotted keys, dates and multi-line strings are not
//! supported — the parser reports them as errors rather than guessing.
//! So is nesting deeper than [`MAX_NESTING`] (arrays in a value, or
//! tables in a header): a spec is untrusted input, and the reader must
//! not recurse or build trees without bound.

use serde_json::{Map, Value};

use crate::error::CampaignError;

/// The deepest arrays may nest in one value, and tables in one header.
pub const MAX_NESTING: usize = 128;

/// Parse TOML text into a JSON object value.
pub fn toml_to_value(text: &str) -> Result<Value, CampaignError> {
    let mut root: Map<String, Value> = Map::new();
    // Path of the table currently receiving `key = value` lines; the
    // final element of an array-of-tables path addresses the *last*
    // array entry.
    let mut current_path: Vec<String> = Vec::new();

    let mut lines = text.lines().enumerate().peekable();
    while let Some((lineno, raw)) = lines.next() {
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| CampaignError::Spec(format!("line {}: {msg}", lineno + 1));

        if let Some(header) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            let path = parse_path(header).map_err(err)?;
            push_array_table(&mut root, &path).map_err(err)?;
            current_path = path;
        } else if let Some(header) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let path = parse_path(header).map_err(err)?;
            ensure_table(&mut root, &path).map_err(err)?;
            current_path = path;
        } else if let Some((key, value_text)) = line.split_once('=') {
            let key = parse_key(key.trim()).map_err(err)?;
            let mut value_text = value_text.trim().to_string();
            // Multi-line arrays: keep consuming lines until brackets
            // balance (strings in specs never contain brackets — the
            // subset documents this).
            while value_text.starts_with('[') && bracket_depths(&value_text).0 != 0 {
                let Some((_, next)) = lines.next() else {
                    return Err(err("unterminated array".into()));
                };
                value_text.push(' ');
                value_text.push_str(strip_comment(next).trim());
            }
            if bracket_depths(&value_text).1 > MAX_NESTING as i64 {
                return Err(err(format!("arrays nested deeper than {MAX_NESTING}")));
            }
            let value = parse_value(value_text.trim()).map_err(err)?;
            let table = navigate(&mut root, &current_path).map_err(err)?;
            if table.insert(key.clone(), value).is_some() {
                return Err(err(format!("duplicate key {key:?}")));
            }
        } else {
            return Err(err(format!("cannot parse {line:?}")));
        }
    }
    Ok(Value::Object(root))
}

fn strip_comment(line: &str) -> &str {
    // A `#` inside a quoted string does not start a comment.
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// The bracket depth at the end of `s`, and the deepest it reached
/// (brackets inside strings not counted).
fn bracket_depths(s: &str) -> (i64, i64) {
    let (mut depth, mut deepest) = (0i64, 0i64);
    let mut in_string = false;
    for c in s.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
        deepest = deepest.max(depth);
    }
    (depth, deepest)
}

fn parse_path(header: &str) -> Result<Vec<String>, String> {
    let parts: Vec<String> = header
        .split('.')
        .map(|p| parse_key(p.trim()))
        .collect::<Result<_, _>>()?;
    if parts.is_empty() {
        return Err("empty table header".into());
    }
    if parts.len() > MAX_NESTING {
        return Err(format!("tables nested deeper than {MAX_NESTING}"));
    }
    Ok(parts)
}

fn parse_key(key: &str) -> Result<String, String> {
    if key.is_empty() {
        return Err("empty key".into());
    }
    if let Some(stripped) = key.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
        return Ok(stripped.to_string());
    }
    if key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(key.to_string())
    } else {
        Err(format!(
            "invalid key {key:?} (dotted/inline keys unsupported)"
        ))
    }
}

/// Walk to the table a path addresses, descending into the last entry
/// of any array-of-tables on the way.
fn navigate<'a>(
    root: &'a mut Map<String, Value>,
    path: &[String],
) -> Result<&'a mut Map<String, Value>, String> {
    let mut cur = root;
    for seg in path {
        let entry = cur
            .entry(seg.clone())
            .or_insert_with(|| Value::Object(Map::new()));
        cur = match entry {
            Value::Object(m) => m,
            Value::Array(items) => match items.last_mut() {
                Some(Value::Object(m)) => m,
                _ => return Err(format!("{seg:?} is not a table")),
            },
            _ => return Err(format!("{seg:?} is not a table")),
        };
    }
    Ok(cur)
}

fn ensure_table(root: &mut Map<String, Value>, path: &[String]) -> Result<(), String> {
    navigate(root, path).map(|_| ())
}

fn push_array_table(root: &mut Map<String, Value>, path: &[String]) -> Result<(), String> {
    let (last, parents) = path.split_last().expect("path is non-empty");
    let parent = navigate(root, parents)?;
    let entry = parent
        .entry(last.clone())
        .or_insert_with(|| Value::Array(Vec::new()));
    match entry {
        Value::Array(items) => {
            items.push(Value::Object(Map::new()));
            Ok(())
        }
        _ => Err(format!("{last:?} is not an array of tables")),
    }
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text.is_empty() {
        return Err("missing value".into());
    }
    if let Some(stripped) = text.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(format!("unterminated string {text:?}"));
        };
        if inner.contains('"') {
            return Err(format!("embedded quotes unsupported in {text:?}"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    if text == "true" {
        return Ok(Value::Bool(true));
    }
    if text == "false" {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('[') {
        let inner = text
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| format!("unterminated array {text:?}"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner) {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_value(part)?);
            }
        }
        return Ok(Value::Array(items));
    }
    // Numbers: TOML allows `_` separators.
    let cleaned: String = text.chars().filter(|&c| c != '_').collect();
    if let Ok(n) = cleaned.parse::<i64>() {
        return Ok(Value::I64(n));
    }
    if let Ok(n) = cleaned.parse::<u64>() {
        return Ok(Value::U64(n));
    }
    if let Ok(f) = cleaned.parse::<f64>() {
        return Ok(Value::F64(f));
    }
    Err(format!("cannot parse value {text:?}"))
}

/// Split array items on top-level commas (nested arrays and strings
/// respected).
fn split_array_items(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i64;
    let mut in_string = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                cur.push(c);
            }
            '[' if !in_string => {
                depth += 1;
                cur.push(c);
            }
            ']' if !in_string => {
                depth -= 1;
                cur.push(c);
            }
            ',' if !in_string && depth == 0 => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_tables_and_arrays() {
        let v = toml_to_value(
            r#"
            # campaign
            name = "sweep"   # trailing comment
            seed = 42
            rate = 2.5
            flag = true
            machines = ["thinkie", "comet"]

            [limits]
            points = 1_000
            "#,
        )
        .unwrap();
        assert_eq!(v["name"], "sweep");
        assert_eq!(v["seed"], 42);
        assert_eq!(v["rate"], 2.5);
        assert_eq!(v["flag"], true);
        assert_eq!(v["machines"][1], "comet");
        assert_eq!(v["limits"]["points"], 1000);
    }

    #[test]
    fn array_of_tables() {
        let v = toml_to_value(
            r#"
            [[workloads]]
            app = "gromacs"
            steps = [10000, 100000]

            [[workloads]]
            app = "amber"
            steps = [50000]
            "#,
        )
        .unwrap();
        let w = v["workloads"].as_array().unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0]["app"], "gromacs");
        assert_eq!(w[0]["steps"][1], 100_000);
        assert_eq!(w[1]["app"], "amber");
    }

    #[test]
    fn multiline_arrays() {
        let v =
            toml_to_value("steps = [\n  1000, # small\n  2000,\n  3000\n]\nnext = 1\n").unwrap();
        assert_eq!(v["steps"].as_array().unwrap().len(), 3);
        assert_eq!(v["next"], 1);
    }

    #[test]
    fn nested_tables() {
        let v = toml_to_value("[a.b]\nx = 1\n[a.c]\ny = 2\n").unwrap();
        assert_eq!(v["a"]["b"]["x"], 1);
        assert_eq!(v["a"]["c"]["y"], 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = toml_to_value("ok = 1\nbroken line\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");
        let e2 = toml_to_value("x = @nope\n").unwrap_err();
        assert!(e2.to_string().contains("line 1"), "{e2}");
        let e3 = toml_to_value("x = 1\nx = 2\n").unwrap_err();
        assert!(e3.to_string().contains("duplicate"), "{e3}");
    }

    #[test]
    fn nesting_stops_at_the_limit() {
        let array = |n| format!("x = {}1{}\n", "[".repeat(n), "]".repeat(n));
        let header = |n| format!("[{}]\n", vec!["a"; n].join("."));
        assert!(toml_to_value(&array(MAX_NESTING)).is_ok());
        assert!(toml_to_value(&header(MAX_NESTING)).is_ok());
        assert!(toml_to_value(&array(MAX_NESTING + 1)).is_err());
        assert!(toml_to_value(&header(MAX_NESTING + 1)).is_err());
    }

    #[test]
    fn hash_inside_string_is_not_comment() {
        let v = toml_to_value("name = \"a#b\"\n").unwrap();
        assert_eq!(v["name"], "a#b");
    }
}
