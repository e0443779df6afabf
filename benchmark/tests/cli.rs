//! The command line, from outside the process.

use std::process::Command;

fn elbench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_elbench"))
        .args(args)
        .output()
        .expect("elbench runs")
}

#[test]
fn unknown_workload_exits_2_with_the_list_of_names() {
    let out = elbench(&["--workload", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line on a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown workload `nope`"), "{err}");
    for name in ["steady", "churn", "backlog", "search", "recover", "tenants"] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn missing_workload_exits_2() {
    assert_eq!(elbench(&[]).status.code(), Some(2));
    assert_eq!(elbench(&["--seed", "1"]).status.code(), Some(2));
}
