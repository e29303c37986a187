//! Knob coverage: every numeric and boolean leaf of `SimConfig` moves the
//! result of at least one run of a small fixed matrix, or is listed in
//! [`INERT_KNOBS`] with the reason it moves nothing.
//!
//! Each leaf of the config's serde tree is perturbed in every case's own
//! config: integers to `2n + 1` and `max(n / 2, 1)`, floats by ×0.5 and
//! ×1.5, booleans negated. The perturbed config is rebuilt through
//! `SimConfig::deserialize` and run, and its whole `SimResult` compared with
//! the unperturbed run's. A perturbation that fails `validate()` is not
//! run, and a leaf none of whose perturbations validates fails the check.
//! A perturbed run that panics fails it too.
//!
//! With one perturbation per leaf, or at 200 accesses per thread, live
//! leaves such as `cpu.tlb.entries`, the promotion budget, the flash
//! geometry's blocks and pages and the TPP promotion quota look inert. The
//! string leaves (the variant, the scheduler and the policy names) stay
//! outside the check: `tests/policy_zoo.rs` pins every value they take.

use serde::{Deserialize, Serialize, Value};
use skybyte_sim::{ExperimentScale, SimResult, Simulation};
use skybyte_types::{SimConfig, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::collections::BTreeSet;

/// The numeric and boolean leaves of `SimConfig` that move no result of the
/// matrix, in the order `SimConfig` serialises them, each group under the
/// reason it stays so. The list may only shrink: a leaf that starts to move
/// a result leaves it, and an inert knob is deleted rather than listed.
/// The one exception is a new leaf that is inert by design, as telemetry is.
const INERT_KNOBS: [&str; 9] = [
    // They set capacity only: the flash array has one queue per channel and
    // the FTL stripes writes over channels, never over chips, dies or planes.
    "ssd.geometry.chips_per_channel",
    "ssd.geometry.dies_per_chip",
    "ssd.geometry.planes_per_die",
    // Garbage collection never runs: no scale fills the device to the GC
    // threshold.
    "ssd.flash.erase_latency",
    "ssd.gc_blocks_per_campaign",
    "ssd.overprovisioning",
    // Telemetry is observe-only by design.
    "telemetry.enabled",
    "telemetry.sample_interval",
    "telemetry.timeline",
];

/// One run of the matrix, with its unperturbed config tree and result.
struct Case {
    variant: VariantKind,
    workload: WorkloadKind,
    scale: ExperimentScale,
    tree: Value,
    result: SimResult,
}

impl Case {
    fn new(variant: VariantKind, workload: WorkloadKind, scale: ExperimentScale) -> Self {
        let cfg = scale.apply(SimConfig::default().with_variant(variant));
        let tree = cfg.serialize();
        let result = Simulation::with_config(cfg, workload, &scale).run();
        Case {
            variant,
            workload,
            scale,
            tree,
            result,
        }
    }
}

/// The matrix: one run per family of mechanisms, at tiny scale and 400
/// accesses per thread.
fn matrix() -> Vec<Case> {
    let scale = ExperimentScale::tiny().with_accesses_per_thread(400);
    vec![
        Case::new(VariantKind::SkyByteFull, WorkloadKind::Ycsb, scale),
        Case::new(VariantKind::SkyByteWCT, WorkloadKind::Tpcc, scale),
        Case::new(VariantKind::BaseCssd, WorkloadKind::Radix, scale),
        Case::new(VariantKind::AstriFlashCxl, WorkloadKind::Dlrm, scale),
        // The one case whose host-DRAM promotion budget binds.
        Case::new(
            VariantKind::SkyByteP,
            WorkloadKind::Ycsb,
            scale.with_host_dram(64 << 10),
        ),
    ]
}

/// The dotted paths of every numeric and boolean leaf under `value`.
fn leaves(path: &str, value: &Value, out: &mut Vec<String>) {
    match value {
        Value::Map(fields) => {
            for (key, v) in fields {
                let child = match path {
                    "" => key.clone(),
                    _ => format!("{path}.{key}"),
                };
                leaves(&child, v, out);
            }
        }
        Value::Bool(_) | Value::Int(_) | Value::UInt(_) | Value::Float(_) => {
            out.push(path.to_string())
        }
        Value::Null | Value::Str(_) | Value::Seq(_) => {}
    }
}

/// The leaf at the dotted `path` of a config tree.
fn leaf_mut<'a>(tree: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('.').fold(tree, |node, key| match node {
        Value::Map(fields) => {
            let field = fields.iter_mut().find(|(k, _)| k == key);
            &mut field.unwrap_or_else(|| panic!("{path}: no field {key}")).1
        }
        other => panic!("{path}: {key} is not a field of {other:?}"),
    })
}

/// The perturbed values of a leaf, leaving out any equal to the leaf itself
/// (`max(1 / 2, 1)`, or a float at zero).
fn perturbations(value: &Value) -> Vec<Value> {
    let candidates = match *value {
        Value::UInt(n) => vec![Value::UInt(2 * n + 1), Value::UInt((n / 2).max(1))],
        Value::Int(n) => vec![Value::Int(2 * n + 1), Value::Int((n / 2).max(1))],
        Value::Float(x) => vec![Value::Float(x * 0.5), Value::Float(x * 1.5)],
        Value::Bool(b) => vec![Value::Bool(!b)],
        ref other => panic!("not a numeric or boolean leaf: {other:?}"),
    };
    candidates.into_iter().filter(|c| c != value).collect()
}

/// What perturbing one leaf did to the matrix.
enum Coverage {
    /// The first perturbation and case that moved a result.
    Moves(String),
    /// Some perturbation validated, and none moved a result.
    Inert,
    /// No perturbation passed `validate()`, so nothing could be run.
    NeverValid,
}

fn coverage(path: &str, matrix: &[Case]) -> Coverage {
    let mut validated = false;
    for case in matrix {
        let mut tree = case.tree.clone();
        for value in perturbations(leaf_mut(&mut tree, path)) {
            *leaf_mut(&mut tree, path) = value.clone();
            let cfg = SimConfig::deserialize(&tree)
                .unwrap_or_else(|e| panic!("{path} = {value:?} does not deserialise: {e}"));
            if cfg.validate().is_err() {
                continue;
            }
            validated = true;
            if Simulation::with_config(cfg, case.workload, &case.scale).run() != case.result {
                return Coverage::Moves(format!(
                    "{path} = {value:?} moves the {} run on {}",
                    case.variant,
                    case.workload.name()
                ));
            }
        }
    }
    if validated {
        Coverage::Inert
    } else {
        Coverage::NeverValid
    }
}

#[test]
fn every_knob_moves_a_result_or_is_listed_inert() {
    let matrix = matrix();
    let mut paths = Vec::new();
    leaves("", &SimConfig::default().serialize(), &mut paths);
    let listed: BTreeSet<&str> = INERT_KNOBS.into_iter().collect();
    assert_eq!(
        listed.len(),
        INERT_KNOBS.len(),
        "INERT_KNOBS lists a leaf twice"
    );

    let mut inert = Vec::new();
    let mut changed = Vec::new();
    for path in &paths {
        let is_listed = listed.contains(path.as_str());
        match coverage(path, &matrix) {
            Coverage::Moves(how) if is_listed => {
                changed.push(format!("{path} is listed inert, but {how}"))
            }
            Coverage::Moves(_) => {}
            Coverage::Inert => {
                if !is_listed {
                    changed.push(format!("{path} moves no result and is not listed"));
                }
                inert.push(path.as_str());
            }
            Coverage::NeverValid => changed.push(format!(
                "{path}: no perturbation passes validate(), so nothing tells \
                 whether it moves a result"
            )),
        }
    }
    for path in &listed {
        if !paths.iter().any(|p| p == path) {
            changed.push(format!("{path} is listed but is no longer a leaf"));
        }
    }
    assert!(
        changed.is_empty(),
        "the knobs that move no result changed; a leaf that now moves a result \
         leaves INERT_KNOBS, and an inert one is deleted or listed with its \
         reason:\n  {}",
        changed.join("\n  ")
    );
    assert_eq!(inert, INERT_KNOBS, "INERT_KNOBS is out of order");
}
