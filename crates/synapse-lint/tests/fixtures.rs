//! End-to-end fixture tests: each rule gets a positive fixture (a
//! synthetic workspace carrying exactly one violation, which the rule
//! must find) and a negative fixture (the repaired tree, which must
//! come back clean). Fixtures are built under a per-test temp
//! directory and removed on drop.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use synapse_lint::{run_check, CheckOptions, Diagnostic};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// A throwaway workspace rooted in the system temp directory.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "synapse-lint-fixture-{}-{id}-{name}",
            std::process::id()
        ));
        if root.exists() {
            std::fs::remove_dir_all(&root).unwrap();
        }
        std::fs::create_dir_all(&root).unwrap();
        Fixture { root }
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, content).unwrap();
        self
    }

    /// Run one rule against the fixture tree.
    fn check_rule(&self, rule: &str) -> Vec<Diagnostic> {
        let opts = CheckOptions {
            rule: Some(rule.to_string()),
        };
        run_check(&self.root, &opts).unwrap()
    }

    /// Run the full rule set.
    fn check_all(&self) -> Vec<Diagnostic> {
        run_check(&self.root, &CheckOptions::default()).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn rules_of(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- monotonic-time

#[test]
fn monotonic_time_flags_wall_clock_in_trace_crate() {
    let fx = Fixture::new("mono-pos");
    fx.write(
        "crates/synapse-trace/src/lib.rs",
        "pub fn stamp() -> std::time::SystemTime {\n    std::time::SystemTime::now()\n}\n",
    );
    let diags = fx.check_rule("monotonic-time");
    assert_eq!(rules_of(&diags), ["monotonic-time", "monotonic-time"]);
    assert_eq!(diags[0].file, "crates/synapse-trace/src/lib.rs");
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[1].line, 2);
}

#[test]
fn monotonic_time_flags_recorder_call_sites_outside_the_crate() {
    let fx = Fixture::new("mono-driver");
    fx.write(
        "crates/synapse-server/src/annotate.rs",
        "pub fn annotate(rec: &TraceRecorder) {\n    let _ = std::time::UNIX_EPOCH;\n}\n",
    );
    let diags = fx.check_rule("monotonic-time");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("drives a TraceRecorder"));
}

#[test]
fn monotonic_time_ignores_instant_comments_and_strings() {
    let fx = Fixture::new("mono-neg");
    fx.write(
        "crates/synapse-trace/src/lib.rs",
        "// SystemTime is banned here; Instant is the way.\n\
         pub fn off() -> std::time::Instant {\n\
             let _doc = \"SystemTime\";\n\
             std::time::Instant::now()\n\
         }\n",
    );
    assert!(fx.check_rule("monotonic-time").is_empty());
}

// ---------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_audit_flags_missing_safety_comment_and_forbid() {
    let fx = Fixture::new("unsafe-pos");
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "pub fn read(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
    );
    fx.write("crates/synapse-bar/src/lib.rs", "pub fn safe() {}\n");
    let diags = fx.check_rule("unsafe-audit");
    assert_eq!(diags.len(), 2);
    assert!(diags
        .iter()
        .any(|d| d.file.contains("foo") && d.line == 2 && d.message.contains("SAFETY")));
    assert!(diags
        .iter()
        .any(|d| d.file.contains("bar") && d.message.contains("forbid(unsafe_code)")));
}

#[test]
fn unsafe_audit_accepts_commented_unsafe_and_forbidding_crates() {
    let fx = Fixture::new("unsafe-neg");
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "pub fn read(p: *const u8) -> u8 {\n\
             // SAFETY: caller guarantees p is valid for reads.\n\
             unsafe { *p }\n\
         }\n",
    );
    fx.write(
        "crates/synapse-bar/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn safe() {}\n",
    );
    assert!(fx.check_rule("unsafe-audit").is_empty());
}

// ---------------------------------------------------------------- no-panic-hot-path

#[test]
fn no_panic_flags_unwrap_macro_and_indexing_on_hot_paths() {
    let fx = Fixture::new("panic-pos");
    fx.write(
        "crates/synapse-server/src/server.rs",
        "pub fn serve(xs: &[u8]) -> u8 {\n\
             let first = xs.first().unwrap();\n\
             if *first == 0 { panic!(\"zero\") }\n\
             xs[1]\n\
         }\n",
    );
    let diags = fx.check_rule("no-panic-hot-path");
    assert_eq!(diags.len(), 3);
    assert!(diags[0].message.contains(".unwrap()"));
    assert!(diags[1].message.contains("panic!"));
    assert!(diags[2].message.contains("index/slice"));
}

#[test]
fn no_panic_ignores_test_modules_and_non_hot_files() {
    let fx = Fixture::new("panic-neg");
    fx.write(
        "crates/synapse-server/src/server.rs",
        "pub fn serve(xs: &[u8]) -> Option<u8> {\n\
             xs.first().copied()\n\
         }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { assert_eq!(super::serve(&[7]).unwrap(), 7); }\n\
         }\n",
    );
    fx.write(
        "crates/synapse-model/src/lib.rs",
        "pub fn free(xs: &[u8]) -> u8 { xs[0] }\n",
    );
    assert!(fx.check_rule("no-panic-hot-path").is_empty());
}

#[test]
fn no_panic_site_is_suppressible_with_a_reason() {
    let fx = Fixture::new("panic-allow");
    fx.write(
        "crates/synapse-server/src/server.rs",
        "pub fn tail(xs: &[u8], n: usize) -> &[u8] {\n\
             // lint:allow(no-panic-hot-path, reason = \"n <= xs.len() is checked by caller()\")\n\
             &xs[n..]\n\
         }\n",
    );
    assert!(fx.check_rule("no-panic-hot-path").is_empty());
}

// ---------------------------------------------------------------- observer-seam-purity

#[test]
fn observer_purity_flags_println_in_library_code() {
    let fx = Fixture::new("observer-pos");
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "pub fn report(x: u64) {\n    println!(\"x = {x}\");\n}\n",
    );
    let diags = fx.check_rule("observer-seam-purity");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].message.contains("println!"));
}

#[test]
fn observer_purity_permits_cli_bin_and_main() {
    let fx = Fixture::new("observer-neg");
    fx.write(
        "crates/synapse-cli/src/lib.rs",
        "pub fn banner() { println!(\"synapse\"); }\n",
    );
    fx.write(
        "crates/synapse-foo/src/bin/tool.rs",
        "fn main() { println!(\"tool\"); }\n",
    );
    fx.write(
        "crates/synapse-foo/src/main.rs",
        "fn main() { eprintln!(\"oops\"); }\n",
    );
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "// println! lives in binaries only.\npub fn quiet() {}\n",
    );
    assert!(fx.check_rule("observer-seam-purity").is_empty());
}

/// Write the minimal source set that satisfies every rule, so
/// `check_all` fixtures start from a clean tree.
fn write_clean_base(fx: &Fixture) {
    fx.write(
        "crates/synapse-server/src/server.rs",
        "#![forbid(unsafe_code)]\npub const FRAME_VERSION: u64 = 3;\n",
    );
    fx.write("crates/synapse-foo/src/lib.rs", "#![forbid(unsafe_code)]\n");
}

// ---------------------------------------------------------------- lint-allow meta rule

#[test]
fn unused_suppression_is_a_finding() {
    let fx = Fixture::new("allow-unused");
    write_clean_base(&fx);
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // lint:allow(observer-seam-purity, reason = \"nothing here prints\")\n\
         pub fn quiet() {}\n",
    );
    let diags = fx.check_all();
    assert_eq!(rules_of(&diags), ["lint-allow"]);
    assert!(diags[0].message.contains("unused suppression"));
}

#[test]
fn suppression_naming_an_unknown_rule_is_a_finding() {
    let fx = Fixture::new("allow-unknown");
    write_clean_base(&fx);
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // lint:allow(no-panic-hotpath, reason = \"typo in the rule name\")\n\
         pub fn quiet() {}\n",
    );
    let diags = fx.check_all();
    assert_eq!(rules_of(&diags), ["lint-allow"]);
    assert!(diags[0].message.contains("unknown rule `no-panic-hotpath`"));
}

#[test]
fn suppression_without_a_reason_is_a_finding() {
    let fx = Fixture::new("allow-bare");
    write_clean_base(&fx);
    fx.write(
        "crates/synapse-foo/src/lib.rs",
        "#![forbid(unsafe_code)]\n\
         // lint:allow(observer-seam-purity)\n\
         pub fn quiet() {}\n",
    );
    let diags = fx.check_all();
    assert_eq!(rules_of(&diags), ["lint-allow"]);
    assert!(diags[0].message.contains("malformed suppression"));
}

#[test]
fn suppression_only_covers_adjacent_lines() {
    let fx = Fixture::new("allow-distance");
    fx.write(
        "crates/synapse-server/src/server.rs",
        "// lint:allow(no-panic-hot-path, reason = \"does not reach the unwrap below\")\n\
         pub fn serve(xs: &[u8]) -> u8 {\n\
             *xs.first().unwrap()\n\
         }\n",
    );
    let diags = fx.check_rule("no-panic-hot-path");
    // The directive is separated from the unwrap by a code line, so
    // the finding survives and the directive is reported unused.
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().any(|d| d.rule == "no-panic-hot-path"));
    assert!(diags.iter().any(|d| d.rule == "lint-allow"));
}

// ---------------------------------------------------------------- CLI plumbing

#[test]
fn unknown_rule_filter_is_an_error() {
    let fx = Fixture::new("bad-filter");
    fx.write("crates/synapse-foo/src/lib.rs", "pub fn f() {}\n");
    let opts = CheckOptions {
        rule: Some("no-such-rule".to_string()),
    };
    let err = run_check(&fx.root, &opts).unwrap_err();
    assert!(err.to_string().contains("unknown rule"));
}

#[test]
fn clean_composite_fixture_passes_every_rule() {
    let fx = Fixture::new("all-clean");
    write_clean_base(&fx);
    let diags = fx.check_all();
    assert!(diags.is_empty(), "{:?}", diags);
}
