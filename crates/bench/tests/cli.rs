//! The `tg` CLI turns a bad `--dataset` into a message and exit status 2,
//! the same contract as a bad `--strategy`, instead of a panic.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail the test by panicking"
)]

use std::process::{Command, Output};

fn tg(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tg"))
        .args(args)
        .env("TG_SCALE", "small")
        .env_remove("TG_ARTIFACT_DIR")
        .output()
        .expect("run the tg binary")
}

#[test]
fn bad_datasets_exit_2_with_a_message() {
    let cases = [
        ("nope", "unknown dataset `nope`"),
        (
            "imagenet-1k",
            "dataset `imagenet-1k` is a source, not a target",
        ),
    ];
    for (dataset, message) in cases {
        for command in [
            vec!["rank", "--dataset", dataset],
            vec!["explain", "--dataset", dataset],
            vec!["budget", "--dataset", dataset, "--hours", "1"],
        ] {
            let out = tg(&command);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command:?}: {stderr}");
            assert!(stderr.contains(message), "{command:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{command:?}: {stderr}");
        }
    }
}

#[test]
fn bad_strategy_still_exits_2() {
    let out = tg(&["rank", "--dataset", "stanfordcars", "--strategy", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy `bogus`"));
}
