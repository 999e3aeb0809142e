//! The `bench` binary's command line, driven as a process.

use std::process::Command;

use acto_bench::studies::STUDIES;

#[test]
fn an_unknown_study_exits_2_listing_every_study_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("acto-bench-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--quick", "resume", "bench_all"])
        .current_dir(&dir)
        .output()
        .expect("bench runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown study `bench_all`"), "{stderr}");
    for study in &STUDIES {
        assert!(stderr.contains(study.name), "{stderr}");
    }
    let written = std::fs::read_dir(&dir).expect("scratch dir").count();
    assert_eq!(written, 0, "the named known study ran before the refusal");
    let _ = std::fs::remove_dir_all(&dir);
}
