//! End-to-end checks of the `figures` and `trace` binaries' flag handling.

use std::path::Path;
use std::process::Command;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("skybyte-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn mix_refuses_a_shift_stride_past_the_address_space() {
    let dir = scratch("shift");
    let input =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/traces/ycsb-one-thread.sbt");
    // 2 x 2^63 wraps to 0, so the third input would land on the first's
    // addresses; u64::MAX - 1 leaves no room for the second's footprint.
    for (stride, inputs) in [("9223372036854775808", 3), ("18446744073709551614", 2)] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["mix", "--mode", "stack", "--shift-stride", stride, "--out"])
            .arg(dir.join("mixed.sbt"))
            .args(std::iter::repeat_n(&input, inputs))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--shift-stride {stride}: {err}");
        assert!(err.starts_with("error: --shift-stride"), "{err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_without_a_path_leaves_a_following_short_flag_alone() {
    let dir = scratch("perf");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--table", "1", "--perf", "-j", "2"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("perf.json").is_file());
    assert!(!dir.join("-j").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn figures_19_and_20_are_one_table_printed_and_written_once() {
    let dir = scratch("fig19-20");
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--fig", "19", "--fig", "20", "--scale", "tiny", "--out"])
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("== figure-19-20").count(), 1, "{stdout}");
    assert!(stderr.contains("wrote 1 CSV file(s)"), "{stderr}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    // At tiny scale the smallest log sizes all clamp to the 16 KiB floor;
    // each size heads one column, not one per clamped fraction.
    let csv = std::fs::read_to_string(dir.join("figure-19-20.csv")).unwrap();
    let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    let mut unique = header.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), header.len(), "repeated column in {header:?}");
    std::fs::remove_dir_all(&dir).ok();
}
