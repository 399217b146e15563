//! `polca-cli` entry point — see the crate docs in `lib.rs`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inv = match polca_cli::parse_args(args.iter().cloned()) {
        Ok(inv) => inv,
        Err(err) => {
            // A bad flag shows its own subcommand's flags; a bad or
            // missing subcommand shows them all.
            eprintln!("error: {err}");
            eprint!("{}", polca_cli::help(args.first().map(String::as_str)));
            return ExitCode::FAILURE;
        }
    };
    match polca_cli::run(&inv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
