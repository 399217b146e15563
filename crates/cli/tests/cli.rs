//! End-to-end checks of the `polca-cli` binary: exit code and stderr on
//! bad input, and `--power-scale` on the site replay shape.

use std::process::{Command, Output};

const SAMPLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/sample_trace.csv"
);

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_polca-cli"))
        .args(args)
        .output()
        .expect("the polca-cli binary runs")
}

#[test]
fn bad_input_exits_1_with_the_error_and_that_subcommands_help() {
    for (argv, error) in [
        (
            "evaluate --polcy nocap",
            "unknown flag `--polcy` for `evaluate`",
        ),
        ("evaluate --days -1", "invalid value `-1` for `days`"),
        ("characterize --batch 0", "invalid value `0` for `batch`"),
    ] {
        let args: Vec<&str> = argv.split_whitespace().collect();
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with(&format!("error: {error}\n")), "{stderr}");
        assert!(stderr.contains(&format!("\n  {} ", args[0])), "{stderr}");
        assert!(!stderr.contains("\n  plan "), "{stderr}");
    }
}

#[test]
fn power_scale_reaches_the_site_replay() {
    let run = |scale: &str| {
        let out = cli(&[
            "evaluate",
            "--trace-csv",
            SAMPLE,
            "--rows",
            "2",
            "--servers",
            "10",
            "--time-scale",
            "0.05",
            "--power-scale",
            scale,
        ]);
        assert!(out.status.success(), "--power-scale {scale}");
        out.stdout
    };
    assert_ne!(run("1"), run("1.3"));
}
