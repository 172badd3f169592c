//! Regenerates the paper's tables and figures from the
//! [`bench::all_experiments`] table: no argument runs every experiment
//! in paper order (README, "Paper experiments"), one argument runs the
//! experiment of that name.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a command-line tool: it prints the tables and figures"
)]

fn main() {
    let experiments = bench::all_experiments();
    let Some(wanted) = std::env::args().nth(1) else {
        for (name, runner) in experiments {
            println!("================================================================");
            println!("== {name}");
            println!("================================================================");
            println!("{}", runner());
        }
        return;
    };
    match experiments.iter().find(|(name, _)| *name == wanted) {
        Some((_, runner)) => print!("{}", runner()),
        None => {
            eprintln!("unknown experiment '{wanted}'; one of:");
            for (name, _) in experiments {
                eprintln!("  {name}");
            }
            std::process::exit(2);
        }
    }
}
