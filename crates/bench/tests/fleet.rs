//! Integration tests of the fleet layer: the multi-device placement sweep
//! as the `figures` CLI drives it (`--fig fleet`), plus the cross-runner
//! memoization and policy-registry seams the unit tests cannot cover from
//! inside `skybyte-sim`.

use skybyte_sim::fleet::{fleet_population, FLEET_PLACEMENTS};
use skybyte_sim::report::{find, Kind, EXPERIMENTS};
use skybyte_sim::{audit_fleet, run_fleet, FleetConfig};
use skybyte_sim::{ExperimentScale, Runner};
use skybyte_types::{PlacementPolicyKind, PolicyOverride, SchedPolicy, SimConfig, VariantKind};

/// The whole figure, exactly as `figures --fig fleet --audit` resolves it,
/// must render byte-identically for any worker count: placement, rebalance
/// and the percentile reductions are all deterministic, and the runner's
/// memo table only changes *when* a simulation executes, never its result.
#[test]
fn fleet_figure_is_byte_identical_across_job_counts() {
    let scale = ExperimentScale::tiny();
    let fleet = &EXPERIMENTS[find(Kind::Figure, "fleet").expect("'fleet' is a registered figure")];
    let csvs: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|jobs| (fleet.build)(&Runner::new(jobs).with_audit(true), &scale).to_csv())
        .collect();
    assert_eq!(csvs[0], csvs[1], "--jobs must not change the table");
    let header = csvs[0].lines().next().unwrap();
    for column in ["p99_slowdown", "p999_slowdown", "jain_fairness"] {
        assert!(header.contains(column), "missing column {column}: {header}");
    }
}

/// Placements that compose the same tenant sets onto devices (regardless of
/// which device index hosts them) share memoized simulations: running the
/// same fleet twice — and under a second placement that produces the same
/// per-device compositions — executes zero new simulations.
#[test]
fn equal_compositions_share_the_memo_table_across_fleet_runs() {
    let scale = ExperimentScale::tiny();
    let runner = Runner::new(2).with_audit(true);
    let mut cfg = FleetConfig::new(2, VariantKind::SkyByteFull, scale);
    // A homogeneous population: every placement yields identical devices.
    cfg.tenants = fleet_population(&cfg.scale, 2, 8)
        .into_iter()
        .map(|mut t| {
            t.workload = skybyte_workloads::WorkloadKind::Ycsb;
            t
        })
        .collect();
    let first = run_fleet(&runner, &cfg);
    audit_fleet(&first).assert_clean("fleet first-fit");
    let executed_after_first = runner.runs_executed();
    assert!(executed_after_first > 0);
    // Round-robin re-distributes the same homogeneous tenants, so every
    // per-device simulation is already memoized. (Interference-aware
    // placement is excluded here: its probe co-runs are extra simulations
    // by design.)
    cfg.placement = PlacementPolicyKind::RoundRobin;
    let again = run_fleet(&runner, &cfg);
    audit_fleet(&again).assert_clean("fleet re-placement");
    assert_eq!(again.slowdowns.len(), first.slowdowns.len());
    assert_eq!(
        runner.runs_executed(),
        executed_after_first,
        "re-placing a homogeneous population must be pure memo hits"
    );
    assert!(runner.memo_hits() > 0);
}

/// Every placement policy produces a clean, conserving fleet at tiny scale,
/// and the per-tenant slowdown vector is strictly positive with a sane
/// fairness index.
#[test]
fn every_placement_policy_runs_a_clean_fleet() {
    let scale = ExperimentScale::tiny();
    let runner = Runner::new(2).with_audit(true);
    for placement in FLEET_PLACEMENTS {
        let mut cfg = FleetConfig::new(2, VariantKind::SkyByteFull, scale);
        cfg.tenants = fleet_population(&cfg.scale, 2, 8);
        cfg.placement = placement;
        let result = run_fleet(&runner, &cfg);
        audit_fleet(&result).assert_clean(&format!("fleet {placement}"));
        assert_eq!(result.tenant_count(), 8);
        assert!(result.slowdowns.iter().all(|&s| s > 0.0), "{placement}");
        let jain = result.jain_fairness();
        assert!(jain > 0.0 && jain <= 1.0 + 1e-12, "{placement}: {jain}");
        assert!(result.slowdown_percentile(0.99) >= result.slowdown_percentile(0.50));
    }
}

/// The fleet dimensions are `FleetConfig` knobs, never device policies:
/// `--policy` refuses their names, which is what keeps single-device goldens
/// (and the memo table) unaware of placement.
#[test]
fn fleet_policy_names_resolve_and_leave_device_configs_untouched() {
    assert_eq!(PlacementPolicyKind::RoundRobin.to_string(), "round-robin");
    for name in ["round-robin", "swap-worst"] {
        assert!(
            name.parse::<PolicyOverride>().is_err(),
            "'{name}' must not resolve as a device policy"
        );
    }

    // "rr" still names the per-device OS scheduling policy, and touches
    // nothing else of the device config.
    let base = SimConfig::default();
    let mut cfg = base.clone();
    "rr".parse::<PolicyOverride>().unwrap().apply(&mut cfg);
    assert_eq!(cfg.sched_policy, SchedPolicy::RoundRobin);
    cfg.sched_policy = base.sched_policy;
    assert_eq!(
        format!("{base:?}"),
        format!("{cfg:?}"),
        "'rr' must change only the OS scheduling policy"
    );
}
