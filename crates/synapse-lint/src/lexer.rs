//! A small Rust lexer that is exactly smart enough for linting: it
//! classifies every byte of a source file as code, comment, string
//! (including raw strings and byte strings), or char literal, so the
//! rules can search *code* without tripping over a banned token that
//! only appears inside a doc comment or a string, and can search
//! *comments* for `SAFETY:` and `lint:allow` directives.
//!
//! The lexer is byte-oriented and line-preserving: both derived views
//! ([`Lexed::code`] and [`Lexed::comments`]) have the same length and
//! the same newline positions as the original text, with out-of-class
//! bytes blanked to spaces. `file:line` positions therefore transfer
//! between views for free.

/// Byte classes produced by [`lex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Executable source: identifiers, punctuation, literals' delimiters
    /// are all "code" except the classes below.
    Code,
    /// Line (`//`, `///`, `//!`) or block (`/* */`, nested) comments,
    /// delimiters included.
    Comment,
    /// String literal content and delimiters: `"…"`, `r"…"`, `r#"…"#`,
    /// `b"…"`, `br#"…"#`.
    Str,
    /// Char or byte-char literal: `'x'`, `'\n'`, `b'x'`.
    Char,
}

/// A source file run through the lexer.
pub struct Lexed {
    /// Same length as `text`: non-code bytes blanked to `' '`
    /// (newlines preserved).
    pub code: String,
    /// Same length as `text`: non-comment bytes blanked to `' '`
    /// (newlines preserved).
    pub comments: String,
}

/// Classify every byte of `text`.
pub fn classify(text: &str) -> Vec<Class> {
    let b = text.as_bytes();
    let n = b.len();
    let mut class = vec![Class::Code; n];
    let mut i = 0;
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    class[i] = Class::Comment;
                    i += 1;
                }
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 0usize;
                while i < n {
                    if b[i] == b'/' && i + 1 < n && b[i + 1] == b'*' {
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                        depth += 1;
                    } else if b[i] == b'*' && i + 1 < n && b[i + 1] == b'/' {
                        class[i] = Class::Comment;
                        class[i + 1] = Class::Comment;
                        i += 2;
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        class[i] = Class::Comment;
                        i += 1;
                    }
                }
            }
            b'"' => i = lex_string(b, i, i, &mut class),
            b'r' | b'b' if is_raw_or_byte_string_start(b, i) => {
                let (start, hashes) = raw_prefix(b, i);
                class[i..start].fill(Class::Str);
                if b.get(start) == Some(&b'"') && is_raw_at(b, i) {
                    i = lex_raw_string(b, start, hashes, &mut class, i);
                } else {
                    // b"…": a plain (escaped) string with a byte prefix.
                    i = lex_string(b, start, i, &mut class);
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(b, i) {
                    class[i..end].fill(Class::Char);
                    i = end;
                } else {
                    // A lifetime (`'a`) or a stray quote: code.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    class
}

/// `r"`, `r#"`, `br"`, `b"` … starting at `i`? (Only when `i` does not
/// sit inside an identifier such as `for r in …` or `var_b"`.)
fn is_raw_or_byte_string_start(b: &[u8], i: usize) -> bool {
    if i > 0 && is_ident_byte(b[i - 1]) {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    j > i && j < b.len() && b[j] == b'"' && (b[i] == b'r' || b[i] == b'b')
}

/// Does the token starting at `i` carry an `r` (raw) marker?
fn is_raw_at(b: &[u8], i: usize) -> bool {
    b[i] == b'r' || (b[i] == b'b' && b.get(i + 1) == Some(&b'r'))
}

/// Position of the opening quote and the number of `#`s for a raw or
/// byte string whose prefix starts at `i`.
fn raw_prefix(b: &[u8], i: usize) -> (usize, usize) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
    }
    let mut hashes = 0;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    (j, hashes)
}

/// Lex a plain `"…"` string whose opening quote is at `quote`; bytes
/// from `lo` (where any `b` prefix began) are classified as string.
fn lex_string(b: &[u8], quote: usize, lo: usize, class: &mut [Class]) -> usize {
    let mut i = quote + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    let end = i.min(b.len());
    class[lo..end].fill(Class::Str);
    end
}

/// Lex a raw string whose opening quote is at `quote` with `hashes`
/// `#`s; `prefix_start` is where the `r`/`br` prefix began.
fn lex_raw_string(
    b: &[u8],
    quote: usize,
    hashes: usize,
    class: &mut [Class],
    prefix_start: usize,
) -> usize {
    let mut i = quote + 1;
    while i < b.len() {
        if b[i] == b'"' {
            let mut k = 0;
            while k < hashes && i + 1 + k < b.len() && b[i + 1 + k] == b'#' {
                k += 1;
            }
            if k == hashes {
                i += 1 + hashes;
                break;
            }
        }
        i += 1;
    }
    let end = i.min(b.len());
    class[prefix_start..end].fill(Class::Str);
    end
}

/// If a char (or byte-char) literal starts at `i` (which holds `'`),
/// return the byte just past its closing quote; `None` for lifetimes.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escape: skip the backslash and the escape head, then scan to
        // the closing quote (covers \n, \', \u{…}, \x7f).
        j += 2;
        while j < b.len() && b[j] != b'\'' && b[j] != b'\n' {
            j += 1;
        }
        if j < b.len() && b[j] == b'\'' {
            return Some(j + 1);
        }
        return None;
    }
    // Unescaped: exactly one char (possibly multi-byte) then `'`;
    // anything else is a lifetime.
    let mut k = j + 1;
    while k < b.len() && (b[k] & 0xC0) == 0x80 {
        k += 1; // continuation bytes of one UTF-8 scalar
    }
    if k < b.len() && b[k] == b'\'' && b[j] != b'\'' {
        return Some(k + 1);
    }
    None
}

pub(crate) fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Lex `text` into the two blanked views.
pub fn lex(text: &str) -> Lexed {
    let class = classify(text);
    let b = text.as_bytes();
    let mut code = Vec::with_capacity(b.len());
    let mut comments = Vec::with_capacity(b.len());
    for (i, &c) in b.iter().enumerate() {
        let keep_nl = c == b'\n';
        code.push(if class[i] == Class::Code || keep_nl {
            c
        } else {
            b' '
        });
        comments.push(if class[i] == Class::Comment || keep_nl {
            c
        } else {
            b' '
        });
    }
    Lexed {
        code: sanitize_utf8(code),
        comments: sanitize_utf8(comments),
    }
}

/// Blank every non-ASCII byte so the derived views are valid UTF-8 of
/// the same byte length as the original (multi-byte chars only occur
/// in comments and strings, which the views blank anyway; identifiers
/// the rules search for are ASCII).
fn sanitize_utf8(mut v: Vec<u8>) -> String {
    for b in v.iter_mut() {
        if *b >= 0x80 {
            *b = b' ';
        }
    }
    String::from_utf8(v).expect("all bytes are ASCII after sanitizing")
}

/// A parsed `// lint:allow(<rule>, reason = "…")` directive.
#[derive(Debug, Clone)]
pub struct AllowDirective {
    /// 1-based line the directive sits on.
    pub line: usize,
    /// The rule id inside the parens.
    pub rule: String,
    /// The quoted reason, if present and non-empty.
    pub reason: Option<String>,
    /// Raw problem text when the directive could not be parsed.
    pub malformed: Option<String>,
}

/// Extract every `lint:allow` directive from the comment view.
pub fn parse_allows(comments: &str) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    for (idx, line) in comments.lines().enumerate() {
        let mut rest = line;
        let mut col = 0;
        while let Some(pos) = rest.find("lint:allow") {
            let at = col + pos;
            let after = &line[at + "lint:allow".len()..];
            out.extend(parse_one_allow(idx + 1, after));
            col = at + "lint:allow".len();
            rest = &line[col..];
        }
    }
    out
}

fn parse_one_allow(line: usize, after: &str) -> Option<AllowDirective> {
    // Prose in docs or this file that merely *mentions* the directive
    // keyword is not a directive: a directive must open a paren and
    // name a plausibly-shaped rule (`[a-z][a-z0-9-]*`). Typos inside
    // that shape are caught downstream against the known-rule list.
    let open = after.trim_start().strip_prefix('(')?;
    let rule_end = open.find([',', ')'])?;
    let rule = open[..rule_end].trim();
    let plausible = rule
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        && rule.starts_with(|c: char| c.is_ascii_lowercase());
    if !plausible {
        return None;
    }
    // The reason is a quoted string (no embedded quotes) followed by
    // the directive's closing paren — the reason text itself may
    // contain parentheses.
    let tail = match open.as_bytes()[rule_end] {
        b',' => open[rule_end + 1..].trim_start(),
        _ => "",
    };
    let reason = tail
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('='))
        .map(str::trim_start)
        .and_then(|t| t.strip_prefix('"'))
        .and_then(|t| {
            let q = t.find('"')?;
            t[q + 1..]
                .trim_start()
                .starts_with(')')
                .then(|| t[..q].to_string())
        });
    Some(match reason {
        Some(r) if !r.trim().is_empty() => AllowDirective {
            line,
            rule: rule.to_string(),
            reason: Some(r),
            malformed: None,
        },
        _ => AllowDirective {
            line,
            rule: rule.to_string(),
            reason: None,
            malformed: Some(format!(
                "`lint:allow({rule})` needs a non-empty `reason = \"…\"`"
            )),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code_of(src: &str) -> String {
        lex(src).code
    }

    #[test]
    fn line_comments_are_blanked_from_code() {
        let c = code_of("let x = 1; // SystemTime here\nlet y = 2;\n");
        assert!(c.contains("let x = 1;"));
        assert!(!c.contains("SystemTime"));
        assert!(c.contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments_end_at_matching_depth() {
        let c = code_of("a /* one /* two */ still */ b");
        assert!(c.contains('a'));
        assert!(c.contains('b'));
        assert!(!c.contains("still"));
    }

    #[test]
    fn strings_and_raw_strings_are_not_code() {
        let c = code_of(r####"let s = "panic!"; let r = r#"unwrap() " quote"# ; done"####);
        assert!(!c.contains("panic!"));
        assert!(!c.contains("unwrap"));
        assert!(c.contains("done"));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let c = code_of(r#"let s = "a\"b; panic!()"; after"#);
        assert!(!c.contains("panic!"));
        assert!(c.contains("after"));
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let c = code_of("fn f<'a>(x: &'a str) { let q = '\"'; let n = '\\n'; code }");
        // The lifetime must stay code, the quote char must not open a string.
        assert!(c.contains("'a"));
        assert!(c.contains("code"));
        let c2 = code_of("let q = '\"'; \"stringed\" tail");
        assert!(!c2.contains("stringed"));
        assert!(c2.contains("tail"));
    }

    #[test]
    fn byte_strings_are_strings() {
        let c = code_of(r#"let b = b"unwrap()"; let br = br"expect("; tail"#);
        assert!(!c.contains("unwrap"));
        assert!(!c.contains("expect"));
        assert!(c.contains("tail"));
    }

    #[test]
    fn identifier_ending_in_r_is_not_a_raw_string() {
        let c = code_of("for r in 0..3 { var\"x\" }");
        assert!(c.contains("for r in 0..3"));
    }

    #[test]
    fn comment_view_keeps_comments_only() {
        let l = lex("let a = 1; // SAFETY: fine\n\"// not a comment\"\n");
        assert!(l.comments.contains("SAFETY: fine"));
        assert!(!l.comments.contains("let a"));
        assert!(!l.comments.contains("not a comment"));
    }

    #[test]
    fn allow_directive_roundtrip() {
        let l = lex("x(); // lint:allow(no-panic-hot-path, reason = \"invariant: y\")\n");
        let allows = parse_allows(&l.comments);
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "no-panic-hot-path");
        assert_eq!(allows[0].reason.as_deref(), Some("invariant: y"));
        assert!(allows[0].malformed.is_none());
        assert_eq!(allows[0].line, 1);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        for src in [
            "// lint:allow(unsafe-audit)\n",
            "// lint:allow(unsafe-audit, reason = \"\")\n",
            "// lint:allow(unsafe-audit, because = \"x\")\n",
        ] {
            let allows = parse_allows(&lex(src).comments);
            assert_eq!(allows.len(), 1, "{src}");
            assert!(allows[0].malformed.is_some(), "{src}");
        }
    }

    #[test]
    fn prose_mention_of_allow_is_not_a_directive() {
        // Docs talk about the syntax without triggering it: no paren,
        // or a placeholder that is not a plausible rule name.
        for src in [
            "// suppress with lint:allow where justified\n",
            "// spelled lint:allow(<rule>, reason = \"…\")\n",
        ] {
            assert!(parse_allows(&lex(src).comments).is_empty(), "{src}");
        }
    }

    #[test]
    fn allow_in_string_is_not_a_directive() {
        let allows =
            parse_allows(&lex("let s = \"lint:allow(x, reason = \\\"y\\\")\";\n").comments);
        assert!(allows.is_empty());
    }

    #[test]
    fn multibyte_chars_blank_cleanly() {
        let c = code_of("// héllo × comment\nlet x = 1;\n");
        assert!(c.contains("let x = 1;"));
    }
}
