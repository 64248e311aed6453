//! `hyvec --help`, `hyvec -h` and `hyvec help` print the usage to
//! stdout and exit 0; an unknown command still exits 1.

use std::process::Command;

fn hyvec(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hyvec"))
        .arg(arg)
        .output()
        .expect("hyvec starts")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for arg in ["--help", "-h", "help"] {
        let out = hyvec(arg);
        assert!(out.status.success(), "{arg}: {:?}", out.status);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: hyvec"), "{arg}: {stdout}");
        assert!(out.stderr.is_empty(), "{arg} wrote to stderr");
    }
}

#[test]
fn unknown_command_still_fails() {
    let out = hyvec("--wat");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command --wat"));
}
