//! Out-of-range inputs through the real `pombm` binary: a zero or
//! oversized `--grid-side`, an instance region no grid of that side can
//! cover, a grid the tree cannot resolve, a tree whose leaf codes overflow
//! `u64`, a region whose squared diagonal overflows `f64`, a privacy
//! budget that is not positive and finite, `gen` parameters no workload
//! can be drawn from, a flag that takes a value given without one, JSON
//! nested past the parser's depth cap, and the other degenerate knobs each
//! answer with a one-line typed error, never a panic, a stack overflow, an
//! allocator abort, a hang or a silently dropped flag. A reader that
//! closes stdout early ends the command quietly.

use std::process::{Command, Output, Stdio};

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

/// Runs `command` and checks it fails with exit 1, nothing on stdout and
/// one stderr line starting `error: {error}`.
fn assert_one_line_error(command: &str, error: &str) {
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

#[test]
fn oversized_grid_side_is_a_typed_error_before_any_allocation() {
    let out = std::env::temp_dir().join("pombm-grid-side-huge.hst");
    let _ = std::fs::remove_file(&out);
    let publish = format!("publish --grid-side 100000 --out {}", out.display());
    for command in [
        publish.as_str(),
        "obfuscate --x 1 --y 1 --grid-side 257",
        "run --scenario uniform --size 8 --algo tbf --grid-side 257",
        "serve --load --tasks 10 --workers 10 --grid-side 100000",
        "dynamic --tasks 10 --workers 10 --grid-side 100000",
    ] {
        assert_one_line_error(
            command,
            "invalid config `grid_side`: the predefined grid holds at most 65536 points",
        );
    }
    assert!(!out.exists(), "publish must fail before writing");
}

#[test]
fn degenerate_instance_region_fits_only_a_one_cell_grid() {
    let path = std::env::temp_dir().join("pombm-flat-region.json");
    std::fs::write(
        &path,
        r#"{"region":{"min_x":0.0,"min_y":5.0,"max_x":10.0,"max_y":5.0},
            "tasks":[{"x":1.0,"y":5.0}],
            "workers":[{"x":2.0,"y":5.0},{"x":9.0,"y":5.0}],"radii":null}"#,
    )
    .expect("temp dir is writable");
    let run = format!("run --input {}", path.display());
    assert_one_line_error(&format!("{run} --algo tbf"), "invalid config `region`");

    // A one-cell grid covers the flat region, and a spec that builds no
    // server never looks at the grid.
    for tail in ["--algo tbf --grid-side 1", "--algo lap-gr"] {
        let command = format!("{run} {tail}");
        let output = pombm(&command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{command}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("matching size:   1"), "{command}: {stdout}");
    }
}

/// Once the grid pitch reaches 1 the FRT depth grows with the region's
/// diameter, so over a 10000 × 10000 region (the Chengdu-like city in
/// meters) a 64-side grid needs more than 2^64 leaf codes. A region whose
/// `width² + height²` is not a finite `f64` would make every distance
/// infinite.
#[test]
fn oversized_trees_and_regions_are_one_line_errors() {
    let dir = std::env::temp_dir();
    let region = |side: f64, worker: f64| {
        format!(
            r#"{{"region":{{"min_x":0.0,"min_y":0.0,"max_x":{side:?},"max_y":{side:?}}},
                "tasks":[{{"x":1.0,"y":1.0}}],
                "workers":[{{"x":{worker:?},"y":{worker:?}}}],"radii":null}}"#
        )
    };
    let city = dir.join("pombm-overflow-city.json");
    std::fs::write(&city, region(10000.0, 2.0)).expect("temp dir is writable");
    let wide = dir.join("pombm-overflow-wide.json");
    std::fs::write(&wide, region(1e155, 2.0)).expect("temp dir is writable");
    let widest = dir.join("pombm-overflow-widest.json");
    std::fs::write(&widest, region(1e308, 1e307)).expect("temp dir is writable");
    let hst = dir.join("pombm-overflow.hst");
    let _ = std::fs::remove_file(&hst);
    let tree = "invalid config `grid_side`: the HST over this grid and region needs more \
                than 2^64 leaf codes";
    for (command, error) in [
        (format!("run --input {} --algo tbf", city.display()), tree),
        (
            format!(
                "publish --grid-side 64 --side 10000 --out {}",
                hst.display()
            ),
            tree,
        ),
        (
            "obfuscate --x 1 --y 1 --side 10000 --grid-side 64".to_string(),
            tree,
        ),
        (
            format!("run --input {} --algo tbf", wide.display()),
            "region 1e155 x 1e155 too large",
        ),
        (
            format!("run --input {} --algo opt", widest.display()),
            "region 1e308 x 1e308 too large",
        ),
    ] {
        assert_one_line_error(&command, error);
    }
    assert!(!hst.exists(), "publish must fail before writing");
}

/// A Chengdu-like day is written in 50 m units, the synthetic space's
/// scale, so it runs at the default grid side.
#[test]
fn a_real_trace_runs_at_the_default_grid_side() {
    let real = std::env::temp_dir().join("pombm-real-trace.json");
    let output = pombm(&format!(
        "gen --real --workers 200 --out {}",
        real.display()
    ));
    assert!(output.status.success(), "gen --real");
    let output = pombm(&format!("run --input {} --algo tbf --json", real.display()));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "run --input: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("\"matching_size\": 200"), "{stdout}");
}

/// A grid the HST cannot resolve: squared distances between adjacent grid
/// points that underflow to zero or into the subnormal range, grid points
/// far from the origin that round onto each other, or a squared diagonal
/// that overflows. Each one panicked inside the build or exhausted the
/// allocator. A spec that builds no server still runs on the same
/// instance.
#[test]
fn unresolvable_grids_are_one_line_region_errors() {
    let dir = std::env::temp_dir();
    let hst = dir.join("pombm-unresolvable.hst");
    let _ = std::fs::remove_file(&hst);
    // An instance in [1e15, 1e15 + 1]², where f64 spacing is 1/8: a
    // 64-side grid's points round onto each other.
    let far = dir.join("pombm-far-region.json");
    std::fs::write(
        &far,
        r#"{"region":{"min_x":1e15,"min_y":1e15,"max_x":1000000000000001.0,"max_y":1000000000000001.0},
            "tasks":[{"x":1000000000000000.25,"y":1000000000000000.5},
                     {"x":1000000000000000.75,"y":1000000000000000.125}],
            "workers":[{"x":1000000000000000.5,"y":1000000000000000.5},
                       {"x":1000000000000000.875,"y":1000000000000000.0},
                       {"x":1000000000000000.0,"y":1000000000000001.0}],"radii":null}"#,
    )
    .expect("temp dir is writable");
    let out = hst.display();
    for command in [
        format!("publish --grid-side 64 --side 1e-160 --out {out}"),
        format!("publish --grid-side 4 --side 3e-162 --out {out}"),
        format!("publish --grid-side 64 --side 1e-159 --out {out}"),
        format!("publish --grid-side 2 --side 1e300 --out {out}"),
        "obfuscate --side 1e-160 --grid-side 64 --x 0 --y 0".to_string(),
        format!("run --input {} --algo tbf --grid-side 64", far.display()),
    ] {
        assert_one_line_error(
            &command,
            "invalid config `region`: the HST cannot resolve the grid over this region",
        );
    }
    assert!(!hst.exists(), "publish must fail before writing");

    for command in [
        format!("run --input {} --algo lap-gr --grid-side 64", far.display()),
        format!("run --input {} --algo tbf --grid-side 4", far.display()),
    ] {
        let output = pombm(&command);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{command}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains("matching size:   2"), "{command}: {stdout}");
    }
}

#[test]
fn gen_rejects_parameters_no_workload_can_be_drawn_from() {
    let out = std::env::temp_dir().join("pombm-gen-bad.json");
    let _ = std::fs::remove_file(&out);
    for (flags, error) in [
        ("--sigma -1", "invalid sigma -1.0"),
        ("--sigma 0", "invalid sigma 0.0"),
        ("--sigma inf", "invalid sigma inf"),
        ("--mu nan", "invalid mu NaN"),
        ("--mu -inf", "invalid mu -inf"),
        (
            "--mu 1e308",
            "N(mu = 1e308, sigma = 20.0) put none of 1048576 draws",
        ),
        (
            "--real --day 30",
            "invalid day 30: the Chengdu-like trace has days 0-29",
        ),
    ] {
        let command = format!("gen --tasks 5 --workers 5 {flags} --out {}", out.display());
        assert_one_line_error(&command, error);
    }
    assert!(!out.exists(), "gen must fail before writing");
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
            "serve --load --qps 1e-300 --tasks 20 --workers 10",
            "invalid config `qps`",
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
        assert_one_line_error(command, error);
    }
    assert!(!out.exists(), "publish must fail before writing");
}

/// An optional flag given without its value is an error, not an absent
/// flag: without the check, each serve command below printed the same
/// report as without its last flag, and `run` ran the scenario.
#[test]
fn optional_flags_without_values_are_one_line_errors() {
    let serve = "serve --load --tasks 20 --workers 10";
    for flag in [
        "requests",
        "fault-rate",
        "queue-cap",
        "fault-plan",
        "scenario",
        "shed-policy",
    ] {
        assert_one_line_error(
            &format!("{serve} --{flag}"),
            &format!("flag --{flag} needs a value"),
        );
    }
    for (command, flag) in [
        ("run --input --scenario uniform --algo tbf", "input"),
        ("run --scenario --input x.json --algo tbf", "scenario"),
        ("run --scenario uniform --algo", "algo"),
        (
            "run --scenario uniform --mechanism --matcher greedy",
            "mechanism",
        ),
        (
            "run --scenario uniform --mechanism laplace --matcher",
            "matcher",
        ),
        (
            "sweep --mechanisms hst --matchers hst-greedy --sizes 8 --max-cells",
            "max-cells",
        ),
    ] {
        assert_one_line_error(command, &format!("flag --{flag} needs a value"));
    }
    assert_one_line_error(
        &format!("{serve} --queue-cap two"),
        "flag --queue-cap: cannot parse `two`",
    );
}

/// `pombm sweep --json | head -1`: the reader closes the pipe while the
/// command still has far more than a pipe buffer (64 KiB) to write. The
/// command stops quietly with exit 0, never a broken-pipe panic. Any other
/// write error is a one-line error with exit 1.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let command = "sweep --mechanisms identity --matchers greedy --sizes 8 --reps 4000 --json";
    let mut child = Command::new(env!("CARGO_BIN_EXE_pombm"))
        .args(command.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the pombm binary runs");
    // Close the read end before the child writes its ~120 KB report.
    drop(child.stdout.take());
    let output = child.wait_with_output().expect("the child exits");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{command}: {stderr}");
    assert_eq!(output.status.code(), Some(0), "{command}: {stderr}");
    assert!(stderr.is_empty(), "{command}: {stderr}");

    // Every write to /dev/full fails with "no space left on device".
    let Ok(full) = std::fs::File::create("/dev/full") else {
        return;
    };
    let output = Command::new(env!("CARGO_BIN_EXE_pombm"))
        .arg("list")
        .stdout(full)
        .output()
        .expect("the pombm binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "list > /dev/full: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("error: writing the output"), "{stderr}");
}

/// JSON nested deeper than 128 arrays or objects is one parse error in
/// every command that reads JSON, never a stack overflow: an instance, a
/// partial report handed to `merge`, and a checkpoint log line, which is
/// skipped and recomputed like a torn one.
#[test]
fn deeply_nested_json_is_a_one_line_error() {
    let dir = std::env::temp_dir();
    let arrays = dir.join("pombm-deep-arrays.json");
    std::fs::write(&arrays, "[".repeat(200_000)).expect("temp dir is writable");
    let objects = dir.join("pombm-deep-objects.json");
    std::fs::write(&objects, r#"{"a":"#.repeat(50_000)).expect("temp dir is writable");
    for (command, file, offset) in [
        (
            format!("run --input {} --algo tbf", arrays.display()),
            &arrays,
            128,
        ),
        (format!("merge {}", objects.display()), &objects, 640),
    ] {
        let error = format!(
            "parse {}: nesting deeper than 128 at offset {offset}",
            file.display()
        );
        assert_one_line_error(&command, &error);
    }

    let checkpoint = dir.join("pombm-deep-checkpoint");
    let _ = std::fs::remove_dir_all(&checkpoint);
    let sweep = format!(
        "sweep --mechanisms identity --matchers greedy --sizes 8 --epsilons 0.6,0.9 \
         --reps 1 --grid-side 16 --json --checkpoint {}",
        checkpoint.display()
    );
    let fresh = pombm(&sweep);
    assert_eq!(fresh.status.code(), Some(0), "{sweep}");
    let log = std::fs::read_dir(&checkpoint)
        .expect("the sweep made its checkpoint directory")
        .next()
        .expect("one checkpoint log")
        .expect("a readable entry")
        .path();
    let text = std::fs::read_to_string(&log).expect("the log is readable");
    let (first, _) = text.split_once('\n').expect("two logged cells");
    std::fs::write(&log, format!("{first}\n{}\n", "[".repeat(100_000))).expect("log writable");
    let resumed = pombm(&sweep);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "{sweep}: {stderr}");
    assert!(
        stderr.contains("1 cells resumed (skipped recomputation), 1 computed"),
        "{stderr}"
    );
    assert_eq!(resumed.stdout, fresh.stdout, "{sweep}");
    let _ = std::fs::remove_dir_all(&checkpoint);
}
