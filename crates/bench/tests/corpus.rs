//! Integration tests of the golden-trace regression corpus.

use serde::Value;
use skybyte_bench::corpus::{entries, pin_entries, verify, CORPUS_VARIANTS};
use skybyte_sim::audit::audit_with_telemetry;
use skybyte_types::{Nanos, TelemetryConfig};
use std::collections::BTreeMap;
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
            let lines: Vec<String> = diff.iter().map(ToString::to_string).collect();
            assert!(
                diff.is_empty(),
                "{} under {variant}: telemetry perturbed the replay:\n{}",
                entry.name,
                lines.join("\n")
            );
            audit_with_telemetry(&result, Some(&output.final_sample))
                .assert_clean(&format!("{} under {variant} with telemetry", entry.name));
        }
    }
}

#[test]
fn filtered_pin_writes_only_the_named_entries() {
    let full = scratch("pin-full");
    pin_entries(&full, 2, None).unwrap();
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
    pin_entries(&a, 1, None).unwrap();
    pin_entries(&b, 4, None).unwrap();
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
    pin_entries(&dir, 2, None).unwrap();
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
    pin_entries(&dir, 2, None).unwrap();
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

#[test]
fn verification_sums_up_what_moved_per_path() {
    let dir = scratch("summary");
    pin_entries(&dir, 2, None).unwrap();
    // Take one key out of a golden, as if the schema had just gained it,
    // and double one of its numbers, as if the engine had halved it.
    let victim = entries()[1].golden_path(&dir, CORPUS_VARIANTS[2]);
    let mut golden: Value =
        serde_json::from_str(&std::fs::read_to_string(&victim).unwrap()).unwrap();
    let Value::Map(fields) = &mut golden else {
        panic!("a golden is a JSON object");
    };
    let before = fields.len();
    fields.retain(|(k, _)| k != "context_switches");
    assert_eq!(fields.len(), before - 1, "the golden must have the key");
    let exec_time = &mut fields.iter_mut().find(|(k, _)| k == "exec_time").unwrap().1;
    let Value::UInt(ns) = *exec_time else {
        panic!("exec_time is an unsigned integer: {exec_time:?}");
    };
    *exec_time = Value::UInt(ns * 2);
    std::fs::write(&victim, serde_json::to_string_pretty(&golden).unwrap()).unwrap();
    let report = verify(&dir, 2).unwrap();
    assert_eq!(
        report.summary,
        vec![
            "context_switches: 1 pair(s), added",
            "exec_time: 1 pair(s), largest relative change 5.000e-1",
        ],
        "{}",
        report.render_failures()
    );
    assert!(report.render_summary().contains("2 path(s) diverged"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Numeric and boolean leaves that are zero or false in every golden, with
/// array indices collapsed to `[]`, in path order, each group under the
/// reason it stays so. A path a golden starts to exercise must leave this
/// list; a new always-zero path must join it with its reason.
const ZERO_IN_EVERY_GOLDEN: [&str; 5] = [
    // Only log-back-pressure under Base-CSSD runs GC, and every block its
    // campaigns pick holds no live page, so nothing is relocated.
    "layers.ftl.gc_pages_read",
    "layers.ftl.gc_pages_relocated",
    // No golden exhausts the host-DRAM promotion budget.
    "layers.migration.demotions",
    // Every golden is single-tenant: its one tenant is id 0.
    "per_tenant[].tenant",
    // No golden hits the engine step limit.
    "truncated",
];

/// Records, for every numeric or boolean leaf under `path`, whether any
/// value seen so far is nonzero or true.
fn exercised_leaves(path: &str, value: &Value, out: &mut BTreeMap<String, bool>) {
    let join = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    let exercised = match value {
        Value::Map(fields) => {
            for (key, v) in fields {
                exercised_leaves(&join(key), v, out);
            }
            return;
        }
        Value::Seq(items) => {
            for v in items {
                exercised_leaves(&format!("{path}[]"), v, out);
            }
            return;
        }
        Value::Bool(b) => *b,
        Value::Int(n) => *n != 0,
        Value::UInt(n) => *n != 0,
        Value::Float(x) => *x != 0.0,
        Value::Null | Value::Str(_) => return,
    };
    *out.entry(path.to_string()).or_default() |= exercised;
}

#[test]
fn goldens_leave_only_the_listed_paths_at_zero() {
    let mut leaves = BTreeMap::new();
    let mut goldens = 0;
    for f in std::fs::read_dir(repo_corpus().join("golden")).unwrap() {
        let path = f.unwrap().path();
        if path.extension().is_some_and(|x| x == "json") {
            let golden: Value =
                serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
            exercised_leaves("", &golden, &mut leaves);
            goldens += 1;
        }
    }
    assert_eq!(goldens, entries().len() * CORPUS_VARIANTS.len());
    let zero: Vec<&str> = leaves
        .iter()
        .filter(|(_, &exercised)| !exercised)
        .map(|(path, _)| path.as_str())
        .collect();
    assert_eq!(
        zero, ZERO_IN_EVERY_GOLDEN,
        "the paths zero or false in every golden changed: a path a golden now \
         exercises leaves ZERO_IN_EVERY_GOLDEN; a new always-zero path joins it \
         with its reason"
    );
}
