//! Thin shell around [`pombm_cli::dispatch`].

use std::io::{ErrorKind, Write};

fn main() {
    let args = match pombm_cli::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match pombm_cli::dispatch(&args) {
        Ok(out) => {
            let newline: &[u8] = if out.ends_with('\n') { b"" } else { b"\n" };
            let mut stdout = std::io::stdout().lock();
            let written = stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.write_all(newline))
                .and_then(|()| stdout.flush());
            match written {
                // A reader that closed early (`pombm ... | head`) wants no
                // more output; that is success, as in other filters.
                Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
                Err(e) => {
                    eprintln!("error: writing the output: {e}");
                    std::process::exit(1);
                }
                Ok(()) => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
