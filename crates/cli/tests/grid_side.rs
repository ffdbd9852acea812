//! Out-of-range inputs through the real `pombm` binary: `--grid-side 0`,
//! a privacy budget that is not positive and finite, and the other
//! degenerate knobs each answer with a one-line typed error, never a
//! panic.

use std::process::{Command, Output};

const TYPED: &str = "invalid config `grid_side`: the predefined grid needs at least one cell";

fn pombm(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pombm"))
        .args(args.split_whitespace())
        .output()
        .expect("the pombm binary runs")
}

#[test]
fn zero_grid_side_is_a_typed_error_in_every_command() {
    let out = std::env::temp_dir().join("pombm-grid-side-zero.hst");
    let _ = std::fs::remove_file(&out);
    let publish = format!("publish --grid-side 0 --out {}", out.display());
    for command in [
        publish.as_str(),
        "obfuscate --x 1 --y 1 --grid-side 0",
        "run --scenario uniform --size 8 --algo tbf --grid-side 0",
        "serve --load --tasks 10 --workers 10 --grid-side 0",
        "dynamic --mechanism laplace --matcher kd-rebuild --tasks 10 --workers 10 --grid-side 0",
    ] {
        let output = pombm(command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert_eq!(stderr, format!("error: {TYPED}\n"), "{command}");
        assert!(output.stdout.is_empty(), "{command}");
    }
    assert!(!out.exists(), "publish must fail before writing");

    // A sweep records the error in each cell, like any other cell error.
    let command = "sweep --mechanisms hst,laplace --matchers hst-greedy,greedy --sizes 8 \
                   --grid-side 0";
    let output = pombm(command);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{command}: {stderr}");
    assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.matches(TYPED).count(), 4, "{stdout}");
}

#[test]
fn bad_budgets_and_degenerate_knobs_are_one_line_errors() {
    let out = std::env::temp_dir().join("pombm-side-zero.hst");
    let _ = std::fs::remove_file(&out);
    let publish = format!("publish --side 0 --out {}", out.display());
    for (command, error) in [
        (
            "run --scenario uniform --algo tbf --epsilon 0",
            "invalid config `epsilon`",
        ),
        ("dynamic --epsilon 0", "invalid config `epsilon`"),
        (
            "serve --load --epsilon nan --tasks 20 --workers 10",
            "invalid config `epsilon`",
        ),
        (
            "sweep --mechanisms hst --matchers hst-greedy --sizes 8 --epsilons 0",
            "invalid config `epsilons`",
        ),
        (
            "obfuscate --x 1 --y 1 --epsilon 0",
            "invalid config `epsilon`",
        ),
        ("epochs --epochs 0", "invalid config `num_epochs`"),
        ("epochs --lifetime 0.1", "invalid config `lifetime_epsilon`"),
        (publish.as_str(), "--side must be a positive, finite number"),
        (
            "obfuscate --x 1 --y 1 --side -5",
            "--side must be a positive, finite number",
        ),
    ] {
        let output = pombm(command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{command}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{command}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {error}")),
            "{command}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{command}");
    }
    assert!(!out.exists(), "publish must fail before writing");
}
