//! `wrsn` — command-line entry point.

use std::io::{ErrorKind, Write as _};
use std::process::ExitCode;

mod args;
mod commands;
mod render;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(output) => {
            // A reader that stops early (`wrsn ... | head`) closes the
            // pipe; that ends the run quietly, not with a panic.
            let mut stdout = std::io::stdout().lock();
            match writeln!(stdout, "{output}").and_then(|()| stdout.flush()) {
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("error: writing stdout: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
