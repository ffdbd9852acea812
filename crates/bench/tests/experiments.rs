//! Flag misuse through the real `experiments` binary: each ends in one
//! `error:` line and exit code 2, never a panic. `--reps 0` is rejected
//! before any figure runs; without the check every figure averaged over
//! zero repetitions and panicked. A reader that closes stdout early ends
//! the run quietly.

use std::process::{Command, Output};

fn experiments(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args.split_whitespace())
        .output()
        .expect("the experiments binary runs")
}

/// Runs `command` and checks it exits 2 with `error: {error}` as the only
/// error line on stderr and no panic.
fn assert_error(command: &str, error: &str) -> Output {
    let output = experiments(command);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{command}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{command}: {stderr}");
    assert!(
        errors[0].starts_with(&format!("error: {error}")),
        "{command}: {stderr}"
    );
    output
}

#[test]
fn zero_repetitions_are_rejected_before_any_figure_runs() {
    for command in [
        "ratio",
        "fig6",
        "fig7eps",
        "fig8syn",
        "gridsweep",
        "ablatemech",
        "epochs",
        "dynamic",
        "ablatetree",
        "all",
    ] {
        let command = format!("{command} --quick --reps 0");
        let output = assert_error(&command, "--reps must be at least 1");
        assert_eq!(output.stderr.iter().filter(|&&b| b == b'\n').count(), 1);
        assert!(output.stdout.is_empty(), "{command}");
    }
}

#[test]
fn unknown_commands_and_unwritable_outputs_are_one_line_errors() {
    let output = assert_error("distortion bogus --quick", "unknown command bogus");
    assert!(output.stdout.is_empty(), "no figure runs before the error");
    assert_error(
        "distortion --quick --out /dev/null/x",
        "writing the report to /dev/null/x",
    );
}

/// `experiments table1 fig6 --quick | head -1`: the reader is gone before
/// Table I is printed, so the run ends there with exit 0 and no error. A
/// failing stdout of any other kind is one `error:` line.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let out = std::env::temp_dir().join("pombm-experiments-closed-stdout");
    let command = format!("table1 fig6 --quick --out {}", out.display());
    // The read end is closed before the child starts, so its first write
    // fails. Closed after `spawn`, it raced that write: a child that got
    // Table I into the pipe buffer first went on to run fig6.
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(command.split_whitespace())
        .stdout(writer)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{command}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    assert!(!stderr.contains("error:"), "{command}: {stderr}");
    assert!(!stderr.contains("running fig6"), "{command}: {stderr}");

    // Every write to /dev/full fails with "no space left on device".
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let command = format!("distortion --quick --out {}", out.display());
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(command.split_whitespace())
        .stdout(full)
        .output()
        .expect("the experiments binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{command}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{stderr}");
    assert!(
        errors[0].starts_with("error: writing to stdout: "),
        "{stderr}"
    );
}
