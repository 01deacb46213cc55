//! The `tg` CLI turns a bad `--dataset` or `--strategy` into a message and
//! exit status 2 instead of a panic.

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
fn bad_strategies_exit_2_with_a_message() {
    let mut cases = vec![(
        vec!["rank", "--dataset", "stanfordcars", "--strategy", "bogus"],
        "unknown strategy `bogus`".to_string(),
    )];
    // Only learned strategies have feature blocks to permute.
    for strategy in ["logme", "nn", "random"] {
        cases.push((
            vec![
                "explain",
                "--dataset",
                "stanfordcars",
                "--strategy",
                strategy,
            ],
            format!("strategy `{strategy}` has no feature blocks to explain"),
        ));
    }
    for (command, message) in cases {
        let out = tg(&command);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command:?}: {stderr}");
        assert!(stderr.contains(&message), "{command:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{command:?}: {stderr}");
    }
}
