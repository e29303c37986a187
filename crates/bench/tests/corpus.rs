//! Integration tests of the golden-trace regression corpus.

use skybyte_bench::corpus::{entries, pin, pin_entries, verify, CORPUS_VARIANTS};
use skybyte_sim::audit::audit_with_telemetry;
use skybyte_types::{Nanos, TelemetryConfig};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skybyte-corpus-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The checked-in corpus at the repository root.
fn repo_corpus() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("corpus")
}

#[test]
fn checked_in_corpus_verifies_clean() {
    let report = verify(&repo_corpus(), 2).expect("verify must run");
    assert_eq!(
        report.pairs,
        entries().len() * CORPUS_VARIANTS.len(),
        "every trace x variant pair must be covered"
    );
    assert!(
        report.is_clean(),
        "checked-in corpus diverged:\n{}",
        report.render_failures()
    );
}

#[test]
fn corpus_replays_bit_identically_with_telemetry_enabled() {
    // Telemetry is observe-only: replaying every corpus pair with the
    // sampler and timeline enabled must still reproduce the pinned goldens
    // field by field, and each run's final cumulative sample must tie to its
    // layer counters (the `telemetry-final-agreement` invariant).
    let corpus = repo_corpus();
    let telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: Nanos::from_micros(10),
        timeline: true,
    };
    for entry in entries() {
        for variant in CORPUS_VARIANTS {
            let (result, output) = entry
                .replay(&corpus, variant, telemetry)
                .expect("corpus replay with telemetry");
            let output = output.expect("telemetry was enabled");
            let golden_json = std::fs::read_to_string(entry.golden_path(&corpus, variant)).unwrap();
            let diff = result.diff_against_json(&golden_json).unwrap();
            assert!(
                diff.is_empty(),
                "{} under {variant}: telemetry perturbed the replay:\n{}",
                entry.name,
                diff.join("\n")
            );
            audit_with_telemetry(&result, Some(&output.final_sample))
                .assert_clean(&format!("{} under {variant} with telemetry", entry.name));
        }
    }
}

#[test]
fn filtered_pin_writes_only_the_named_entries() {
    let full = scratch("pin-full");
    pin(&full, 2).unwrap();
    let filtered = scratch("pin-one");
    pin_entries(&filtered, 2, Some(&["hot-page".to_string()])).unwrap();
    // Only hot-page's trace and goldens exist in the filtered pin…
    let names: Vec<String> = std::fs::read_dir(filtered.join("traces"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, vec!["hot-page.sbt"]);
    let goldens = std::fs::read_dir(filtered.join("golden")).unwrap().count();
    assert_eq!(goldens, CORPUS_VARIANTS.len());
    // …and they are byte-identical to a full pin's (the filter changes
    // which files are written, never their contents).
    for sub in ["traces", "golden"] {
        for f in std::fs::read_dir(filtered.join(sub)).unwrap() {
            let name = f.unwrap().file_name();
            assert_eq!(
                std::fs::read(filtered.join(sub).join(&name)).unwrap(),
                std::fs::read(full.join(sub).join(&name)).unwrap(),
                "{sub}/{name:?}"
            );
        }
    }
    std::fs::remove_dir_all(&full).ok();
    std::fs::remove_dir_all(&filtered).ok();
}

#[test]
fn pinning_is_byte_identical_across_job_counts() {
    let a = scratch("pin-j1");
    let b = scratch("pin-j4");
    pin(&a, 1).unwrap();
    pin(&b, 4).unwrap();
    let names_in = |dir: PathBuf| {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        names
    };
    for sub in ["traces", "golden"] {
        let names = names_in(a.join(sub));
        assert!(!names.is_empty());
        // The fresh pin also reproduces the checked-in corpus, so a drift
        // in the recording path cannot hide behind stored traces.
        assert_eq!(names, names_in(repo_corpus().join(sub)), "{sub}/ file set");
        for name in names {
            let x = std::fs::read(a.join(sub).join(&name)).unwrap();
            let y = std::fs::read(b.join(sub).join(&name)).unwrap();
            assert_eq!(x, y, "{sub}/{name:?} differs between --jobs 1 and 4");
            let checked_in = std::fs::read(repo_corpus().join(sub).join(&name)).unwrap();
            assert_eq!(
                x, checked_in,
                "{sub}/{name:?} differs from the checked-in corpus"
            );
        }
    }
    // And a freshly pinned corpus trivially verifies.
    let report = verify(&a, 4).unwrap();
    assert!(report.is_clean(), "{}", report.render_failures());
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn verification_reports_the_divergent_fields() {
    let dir = scratch("tamper");
    pin(&dir, 2).unwrap();
    // Tamper with one golden's exec_time: the diff must name the field and
    // only that pair may fail.
    let victim = entries()[0].golden_path(&dir, CORPUS_VARIANTS[0]);
    let json = std::fs::read_to_string(&victim).unwrap();
    let tampered = json.replacen("\"exec_time\": ", "\"exec_time\": 1", 1);
    assert_ne!(json, tampered, "tampering must change the golden");
    std::fs::write(&victim, tampered).unwrap();
    let report = verify(&dir, 2).unwrap();
    assert_eq!(report.failures.len(), 1, "{}", report.render_failures());
    let failure = &report.failures[0];
    assert!(
        failure.contains("exec_time:"),
        "diff must name the field: {failure}"
    );
    assert!(
        failure.contains(entries()[0].name),
        "diff must name the pair: {failure}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_and_missing_golden_keys_fail_with_their_path() {
    // Copy the checked-in corpus, then give one golden a key the result
    // schema does not have and take a key away from another. Each pair must
    // fail and name the path, not be masked by parsing the golden into a
    // `SimResult` first.
    let dir = scratch("stale-keys");
    for sub in ["traces", "golden"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
        for f in std::fs::read_dir(repo_corpus().join(sub)).unwrap() {
            let f = f.unwrap();
            std::fs::copy(f.path(), dir.join(sub).join(f.file_name())).unwrap();
        }
    }
    let tamper = |entry: usize, variant: usize, from: &str, to: &str| {
        let path = entries()[entry].golden_path(&dir, CORPUS_VARIANTS[variant]);
        let json = std::fs::read_to_string(&path).unwrap();
        let tampered = json.replacen(from, to, 1);
        assert_ne!(json, tampered, "tampering must change the golden");
        std::fs::write(&path, tampered).unwrap();
    };
    tamper(
        0,
        1,
        "\"migration\": {",
        "\"migration\": {\"stale_counter\": 7, ",
    );
    tamper(1, 2, "\"tlb_shootdowns\": ", "\"retired_name\": ");
    let report = verify(&dir, 2).unwrap();
    assert_eq!(report.failures.len(), 2, "{}", report.render_failures());
    let stale = &report.failures[0];
    assert!(
        stale.contains("layers.migration.stale_counter: expected 7, got absent"),
        "{stale}"
    );
    let missing = &report.failures[1];
    assert!(
        missing.contains("layers.migration.tlb_shootdowns: expected absent, got "),
        "{missing}"
    );
    assert!(
        missing.contains("layers.migration.retired_name: expected "),
        "{missing}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_goldens_point_at_pin() {
    let dir = scratch("missing");
    pin(&dir, 2).unwrap();
    std::fs::remove_file(entries()[1].golden_path(&dir, CORPUS_VARIANTS[1])).unwrap();
    let report = verify(&dir, 2).unwrap();
    assert_eq!(report.failures.len(), 1);
    assert!(
        report.failures[0].contains("--pin"),
        "{}",
        report.failures[0]
    );
    std::fs::remove_dir_all(&dir).ok();
}
