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

/// Asserts that `out` exited 1 with exactly one line on stderr, an
/// `error:` line that contains `names`.
fn assert_one_error_line(out: &std::process::Output, names: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains(names), "{err}");
}

#[test]
fn mix_refuses_a_weight_its_credits_cannot_hold() {
    let dir = scratch("weight");
    let input =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/traces/ycsb-one-thread.sbt");
    // As an i64 credit u64::MAX is -1, which makes the live weight sum to 0
    // and ends every thread at once; 2^32 is the first weight past the
    // bound, and an input of weight 0 would never be picked.
    for weight in ["18446744073709551615", "4294967296", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["mix", "--out"])
            .arg(dir.join("mixed.sbt"))
            .arg(format!("{}:{weight}", input.display()))
            .arg(format!("{}:1", input.display()))
            .output()
            .unwrap();
        let names = format!(
            "the weight of '{}' must be between 1 and 4294967295, got '{weight}'",
            input.display()
        );
        assert_one_error_line(&out, &names);
        assert!(!dir.join("mixed.sbt").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mix_refuses_a_weight_outside_mix_mode() {
    // Concat and stack take every record of every input once, so a weight
    // there would be dropped without a word.
    let dir = scratch("weightless");
    let input =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/traces/ycsb-one-thread.sbt");
    let weighted = format!("{}:2", input.display());
    for mode in ["concat", "stack"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["mix", "--mode", mode, "--out"])
            .arg(dir.join("mixed.sbt"))
            .arg(&input)
            .arg(&weighted)
            .output()
            .unwrap();
        let names = format!(
            "input '{weighted}' has a weight, which only --mode mix reads, not --mode {mode}"
        );
        assert_one_error_line(&out, &names);
        assert!(!dir.join("mixed.sbt").exists());
    }
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["mix", "--mode", "mix", "--out"])
        .arg(dir.join("mixed.sbt"))
        .arg(&input)
        .arg(&weighted)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_refuses_an_access_budget_that_would_wrap() {
    let dir = scratch("accesses");
    // 2^61 accesses times 8 cores wraps the per-thread budget to 0, which
    // clamps to 1 record per thread, as 0 itself would.
    for accesses in [
        "2305843009213693952",
        "18446744073709551615",
        "4294967296",
        "0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["record", "--workload", "ycsb", "--scale", "tiny"])
            .args(["--accesses", accesses, "--out"])
            .arg(dir.join("recorded.sbt"))
            .output()
            .unwrap();
        assert_one_error_line(
            &out,
            &format!("--accesses must be between 1 and 4294967295, got '{accesses}'"),
        );
        assert!(!dir.join("recorded.sbt").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn record_refuses_a_thread_count_the_format_cannot_hold() {
    let dir = scratch("threads");
    // No header holds more than `MAX_THREADS` streams, so such a count is
    // refused before any generator is built or any file created.
    for threads in ["65537", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(["record", "--workload", "ycsb", "--scale", "tiny"])
            .args(["--threads", threads, "--out"])
            .arg(dir.join("recorded.sbt"))
            .output()
            .unwrap();
        assert_one_error_line(
            &out,
            &format!("--threads must be between 1 and 65536, got '{threads}'"),
        );
        assert!(!dir.join("recorded.sbt").exists());
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

/// Asserts that `out` is an orderly failure: a non-zero exit status rather
/// than death by a signal (such as the abort of a failed allocation), with
/// `problem` named on stderr.
fn assert_fails_naming(out: &std::process::Output, problem: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code();
    assert!(
        code.is_some_and(|c| c != 0),
        "status {:?}: {err}",
        out.status
    );
    assert!(err.contains(problem), "{err}");
}

#[test]
fn a_header_declaring_u32_max_threads_is_rejected_before_allocating() {
    use skybyte_trace::{FORMAT_VERSION, MAGIC};
    fn varint(mut v: u64, out: &mut Vec<u8>) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    let dir = scratch("threads");
    let path = dir.join("threads.sbt");
    let mut bytes = MAGIC.to_vec();
    for field in [FORMAT_VERSION as u64, u32::MAX as u64, 1 << 20, 0, 0] {
        // version, threads, footprint, seed, empty source identity
        varint(field, &mut bytes);
    }
    std::fs::write(&path, bytes).unwrap();
    for args in [
        &["stat", "--trace"][..],
        &["replay", "--scale", "tiny", "--workload", "ycsb", "--trace"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace"))
            .args(args)
            .arg(&path)
            .output()
            .unwrap();
        assert_fails_naming(&out, "thread count out of range");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_rejects_a_record_far_past_the_footprint() {
    use skybyte_trace::{TraceHeader, TraceRecord, TraceWriter};
    let dir = scratch("far-record");
    let path = dir.join("far.sbt");
    let header = TraceHeader {
        threads: 1,
        footprint_bytes: 1 << 20,
        seed: 0,
        source: "crafted".into(),
        tenant_of_thread: None,
    };
    let mut writer = TraceWriter::create(&path, &header).unwrap();
    for record in [
        TraceRecord::read(10, 0),
        TraceRecord::write(10, 4096),
        TraceRecord::write(10, 1 << 62),
        TraceRecord::read(10, 64),
    ] {
        writer.push(0, &record).unwrap();
    }
    writer.finish().unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["replay", "--scale", "tiny", "--workload", "ycsb", "--trace"])
        .arg(&path)
        .output()
        .unwrap();
    assert_fails_naming(&out, "record address lies past the header's footprint");
    // An orderly error, not a panic in the middle of the run.
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_wide_trace_replays_through_one_file_handle() {
    use skybyte_trace::{TraceHeader, TraceWriter};
    // Replay once opened one file handle per declared stream. Under a
    // descriptor limit of 256, a 4,096-stream header shows whether it
    // still does, on any host.
    let dir = scratch("wide");
    let path = dir.join("wide.sbt");
    let header = TraceHeader {
        threads: 4096,
        footprint_bytes: 1 << 20,
        seed: 0,
        source: "crafted".into(),
        tenant_of_thread: None,
    };
    TraceWriter::create(&path, &header)
        .unwrap()
        .finish()
        .unwrap();
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 256 && exec \"$0\" replay --scale tiny --workload ycsb --trace \"$1\"")
        .arg(env!("CARGO_BIN_EXE_trace"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_run_names_its_cause_under_any_job_count() {
    let dir = scratch("no-traces");
    for jobs in ["1", "2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([
                "--fig",
                "14",
                "--scale",
                "tiny",
                "--jobs",
                jobs,
                "--replay-dir",
            ])
            .arg(dir.join("absent"))
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--jobs {jobs}: {err}");
        assert!(
            err.starts_with("error: trace drive failed: trace I/O error:"),
            "--jobs {jobs}: {err}"
        );
        assert_eq!(err.trim_end().lines().count(), 1, "--jobs {jobs}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_figure_and_table_names_list_the_valid_ones() {
    for (flag, name, valid) in [
        ("--fig", "7", "(valid: 2, 3, 4, 5, 6, 9, 10, 14,"),
        ("--fig", "bogus", "mt, policy, fleet)"),
        ("--table", "9", "(valid: 1, 2, 3, 4)"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args([flag, name, "--scale", "tiny"])
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {name}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "{flag} {name}: {err}");
        assert!(err.contains(valid), "{flag} {name}: {err}");
        // Rejected while parsing, before any simulation prints a table.
        assert!(out.stdout.is_empty(), "{flag} {name}");
    }
}

#[test]
fn a_shifted_stack_of_a_corpus_trace_still_replays() {
    // The compositor raises the footprint to cover every shifted input, so
    // its own output passes replay's footprint bound.
    let dir = scratch("stack");
    let input = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/traces/hot-page.sbt");
    let mixed = dir.join("stacked.sbt");
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["mix", "--mode", "stack", "--shift-stride", "4096", "--out"])
        .arg(&mixed)
        .args([&input, &input])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_trace"))
        .args(["replay", "--scale", "tiny", "--workload", "ycsb", "--trace"])
        .arg(&mixed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
