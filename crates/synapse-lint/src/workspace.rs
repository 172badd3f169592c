//! Loads the workspace once — every non-vendored Rust source file,
//! lexed — so each rule is a pure function of this snapshot.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, AllowDirective, Lexed};

/// One Rust source file, lexed and tagged.
pub struct SourceFile {
    /// Path relative to the workspace root (`crates/x/src/lib.rs`).
    pub rel: String,
    /// Lexed views of the content.
    pub lexed: Lexed,
    /// Parsed `lint:allow` directives.
    pub allows: Vec<AllowDirective>,
    /// Under a `tests/` directory (integration tests).
    pub in_tests_dir: bool,
    /// 1-based line of the first `#[cfg(test)]` in the code view, if
    /// any: rules about runtime discipline stop there (this workspace
    /// keeps unit-test modules at the tail of each file).
    pub cfg_test_line: Option<usize>,
}

impl SourceFile {
    /// The crate directory this file belongs to (`crates/synapse-foo`),
    /// or `.` for the umbrella crate's `src/` and `tests/`.
    pub fn crate_dir(&self) -> &str {
        let mut parts = self.rel.split('/');
        match parts.next() {
            Some("crates") => {
                let name = parts.next().unwrap_or("");
                &self.rel[..("crates/".len() + name.len())]
            }
            _ => ".",
        }
    }

    /// Is `line` (1-based) runtime code, i.e. before any `#[cfg(test)]`
    /// module and not in an integration-test file?
    pub fn is_runtime_line(&self, line: usize) -> bool {
        !self.in_tests_dir && self.cfg_test_line.map(|t| line < t).unwrap_or(true)
    }
}

/// The loaded workspace snapshot.
pub struct Workspace {
    /// Every `.rs` file under `crates/`, `src/`, `tests/` (vendor/ and
    /// target/ excluded), sorted by path.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load everything the rules look at from `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for top in ["crates", "src", "tests"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk_rs(&dir, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let lexed = lexer::lex(&text);
            let allows = lexer::parse_allows(&lexed.comments);
            let cfg_test_line = find_on_code_lines(&lexed.code, "#[cfg(test)]");
            let in_tests_dir = rel.split('/').any(|seg| seg == "tests");
            files.push(SourceFile {
                rel,
                lexed,
                allows,
                in_tests_dir,
                cfg_test_line,
            });
        }
        Ok(Workspace { files })
    }

    /// The file at `rel`, if loaded.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }

    /// Crate directories (`crates/<name>` plus `.` for the umbrella
    /// crate) that have at least one source file, sorted.
    pub fn crate_dirs(&self) -> Vec<&str> {
        let mut dirs: Vec<&str> = self.files.iter().map(|f| f.crate_dir()).collect();
        dirs.sort_unstable();
        dirs.dedup();
        dirs
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// 1-based line of the first line whose code view contains `needle`.
pub fn find_on_code_lines(code: &str, needle: &str) -> Option<usize> {
    code.lines()
        .enumerate()
        .find(|(_, l)| l.contains(needle))
        .map(|(i, _)| i + 1)
}
