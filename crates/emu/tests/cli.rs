//! Experiment-binary CLI robustness: an unwritable output is reported
//! and exits non-zero, never a panic.

use std::process::Command;

#[test]
fn unwritable_results_dir_exits_1_without_panic() -> std::io::Result<()> {
    let dir = std::env::temp_dir().join(format!("sc-emu-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    // A regular file where the binary expects its `results/` directory.
    std::fs::write(dir.join("results"), b"")?;

    let out = Command::new(env!("CARGO_BIN_EXE_table3"))
        .current_dir(&dir)
        .env_remove("SC_OBS")
        .output();
    std::fs::remove_dir_all(&dir)?;
    let out = out?;

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("table3: cannot write results/table3.json: "),
        "stderr: {stderr}"
    );
    Ok(())
}
