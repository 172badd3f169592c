//! `synapse` — command-line wrapper around the profile/emulate API.

#![expect(
    clippy::print_stderr,
    reason = "the binary reports a failed command on stderr"
)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match synapse_cli::parse_args(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", synapse_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let mut out = std::io::stdout();
    match synapse_cli::run(invocation, &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
