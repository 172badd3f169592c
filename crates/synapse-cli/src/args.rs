//! The one cursor over `argv`: every subcommand parser hands [`walk`]
//! a flag callback and reads flag values through [`Args`], so the
//! "missing value", "`--flag: <err>`" and "unexpected positional"
//! rules are each spelled once.

use std::fmt::Display;
use std::str::FromStr;

/// The cursor a flag callback reads the current flag's value from.
pub(crate) struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    flag: &'a str,
}

impl Args<'_> {
    /// The argument following the current flag.
    pub(crate) fn value(&mut self) -> Result<String, String> {
        let next = self.rest.next().cloned();
        next.ok_or_else(|| format!("missing value after {}", self.flag))
    }

    /// The current flag's value parsed as `T`; a failure names the flag.
    pub(crate) fn parse<T: FromStr<Err: Display>>(&mut self) -> Result<T, String> {
        let flag = self.flag;
        self.value()?.parse().map_err(|e| format!("{flag}: {e}"))
    }
}

/// Walk `argv` once. Every `--flag` goes to `on_arg`, which consumes
/// the flag's value (if it takes one) through the cursor, or fails
/// with its family's "unknown …" message. With `positional =
/// Some(hint)` the single bare argument is returned and a second one
/// is rejected (`hint` is appended to that message); with `None` a
/// bare argument goes to `on_arg` like a flag nobody knows.
pub(crate) fn walk<'a>(
    argv: &'a [String],
    positional: Option<&str>,
    mut on_arg: impl FnMut(&str, &mut Args<'a>) -> Result<(), String>,
) -> Result<Option<String>, String> {
    let mut args = Args {
        rest: argv.iter(),
        flag: "",
    };
    let mut bare = None;
    while let Some(arg) = args.rest.next() {
        args.flag = arg;
        match positional {
            Some(hint) if !arg.starts_with("--") => {
                if bare.replace(arg.clone()).is_some() {
                    return Err(format!("unexpected positional argument {arg:?}{hint}"));
                }
            }
            _ => on_arg(arg, &mut args)?,
        }
    }
    Ok(bare)
}

#[cfg(test)]
mod tests {
    use crate::parse_args;
    use crate::tests::usage_forms;

    fn error_of(argv: &[String], extra: &[&str]) -> String {
        let mut line = argv.to_vec();
        line.extend(extra.iter().map(|s| s.to_string()));
        match parse_args(&line) {
            Ok(invocation) => panic!("{line:?} parsed as {invocation:?}"),
            Err(message) => message,
        }
    }

    #[test]
    fn every_value_flag_in_usage_reports_a_missing_value() {
        for form in usage_forms() {
            for (flag, _) in form.flags.iter().filter(|(_, value)| value.is_some()) {
                assert_eq!(
                    error_of(&form.argv, &[flag]),
                    format!("missing value after {flag}"),
                    "{:?}",
                    form.argv
                );
            }
        }
    }

    #[test]
    fn every_numeric_flag_in_usage_names_itself_on_a_bad_number() {
        let mut checked = 0;
        for form in usage_forms() {
            for (flag, sample) in &form.flags {
                if *sample == Some("1") {
                    let message = error_of(&form.argv, &[flag, "lots"]);
                    assert!(message.starts_with(&format!("{flag}: ")), "{message}");
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 12, "numeric flags listed in USAGE");
    }

    #[test]
    fn every_subcommand_rejects_a_second_positional() {
        for form in usage_forms() {
            // `table1`/`machines` share `profile`'s parser and ignore
            // one operand; two extras are one too many for every form.
            error_of(&form.argv, &["extra", "extra"]);
            if form.positional {
                let message = error_of(&form.argv, &["extra"]);
                let expected = "unexpected positional argument \"extra\"";
                assert!(message.starts_with(expected), "{:?}: {message}", form.argv);
            }
        }
    }
}
