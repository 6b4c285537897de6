//! Integration tests for the `fedrlnas` command-line front end.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fedrlnas"))
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().expect("spawn fedrlnas");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn info_prints_config() {
    let out = bin()
        .args(["info", "--scale", "tiny"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SearchConfig"), "{text}");
    assert!(text.contains("num_participants: 4"), "{text}");
}

#[test]
fn bad_flag_values_are_rejected() {
    for args in [
        vec!["search", "--scale", "huge"],
        vec!["search", "--staleness", "extreme"],
        vec!["search", "--strategy", "yolo"],
        vec!["search", "--rpc", "--rpc-engine", "reactor"], // removed flag
        vec!["search", "--topology", "shards:2"],           // removed flag
        vec!["search", "--scale", "tiny", "--particpants", "3"], // typo
        vec!["search", "--scale", "tiny", "--rpc-transport", "tcp"], // needs --rpc
        vec!["retrain"],                                    // missing --genotype
        vec!["retrain", "--genotype", "not-a-genotype"],
        vec!["retrain", "--genotype", "x", "--checkpoint", "y"], // search-only flag
        vec!["info", "--seed", "1"],
        vec!["serve", "--store", "unused", "--scale", "tiny"],
        vec!["info", "--scale"], // value-taking flag given last
        vec!["search", "--scale", "tiny", "--seed"], // likewise
        vec!["search", "--environments", "car"], // a job spec's flag only
        vec!["info", "foo", "--scale", "tiny"], // a stray word
        vec!["search", "--scale", "tiny", "extra"], // likewise, last
        vec!["info", "--scale", "tiny", "--scale", "paper"], // a flag given twice
        vec!["search", "--non-iid", "--scale", "tiny", "--non-iid"], // a switch, twice
    ] {
        let out = bin().args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?}: {err}");
    }
}

#[test]
fn search_then_retrain_round_trip() {
    // tiny end-to-end: search emits a compact genotype, retrain consumes it
    let out = bin()
        .args(["search", "--scale", "tiny", "--seed", "3"])
        .output()
        .expect("spawn search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let compact = text
        .lines()
        .find_map(|l| l.strip_prefix("genotype (compact): "))
        .expect("search prints a compact genotype")
        .trim()
        .to_string();
    let out = bin()
        .args([
            "retrain",
            "--genotype",
            &compact,
            "--scale",
            "tiny",
            "--steps",
            "5",
        ])
        .output()
        .expect("spawn retrain");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("test error"), "{text}");
}

#[test]
fn more_participants_than_training_samples_is_an_error_not_a_panic() {
    // the tiny dataset holds 1000 training samples: one more participant
    // would leave a shard empty
    let out = bin()
        .args(["search", "--scale", "tiny", "--participants", "1001"])
        .output()
        .expect("spawn");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("error: 1001 participants need a training sample each"),
        "{err}"
    );
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}

#[test]
fn unknown_flags_are_named_before_any_work_starts() {
    let out = bin()
        .args(["search", "--particpants", "3"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error: unknown flag --particpants"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run before the check");
}

#[test]
fn bare_checkpoint_name_is_written_and_resumed() {
    // a path with no directory component has the empty path as its parent;
    // the snapshot's directory fsync used to fail on it
    let dir = std::env::temp_dir().join(format!("fedrlnas-cli-bare-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp cwd");
    let run = || {
        bin()
            .current_dir(&dir)
            .args([
                "search",
                "--scale",
                "tiny",
                "--checkpoint-path",
                "bare.ckpt",
            ])
            .args(["--checkpoint-every", "2"])
            .output()
            .expect("spawn search")
    };
    let first = run();
    let err = String::from_utf8_lossy(&first.stderr);
    assert!(first.status.success(), "{err}");
    assert!(dir.join("bare.ckpt").is_file());
    let second = run();
    assert!(second.status.success());
    let text = String::from_utf8_lossy(&second.stdout);
    assert!(text.contains("resumed from checkpoint bare.ckpt"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
