//! The experiments binary rejects a bad command line with exit status 2
//! and prints nothing to stdout, instead of running nothing (an unknown
//! target) or panicking deep inside the data generator (a bad scale).

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn bad_command_lines_exit_2_before_printing() {
    for args in [
        &["table9"][..],
        &["--scal", "0.02"],
        &["--scale", "0.02", "tabel2"],
        &["--scale", "0"],
        &["--scale", "1.5"],
        &["--scale", "-0.1"],
        &["--scale", "NaN"],
        &["--scale", "inf"],
        &["--scale", "x"],
        &["--scale"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: experiments"), "{args:?}: {err}");
    }
}

#[test]
fn help_exits_0() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}
