//! The pluggable policy layer, exercised end to end:
//!
//! 1. the default `PolicyConfig` must reproduce the pre-redesign simulator
//!    bit for bit (the golden corpus pins the same equivalence against
//!    recorded traces; this pins it against the live generators);
//! 2. every contender in the zoo — eviction × hotness, the fair-share
//!    tenant scheduler, every migration trigger — must keep the cross-layer
//!    conservation audit clean;
//! 3. policy choices must partition the runner's memo table: off-default
//!    overrides change the request fingerprint, defaults do not;
//! 4. the controller must expose the hotness tracker's footprint
//!    (`tracked_pages`), and the bounded trackers must actually bound it;
//! 5. a proptest sweep keeps random policy points conserving off the grid
//!    of the named experiments;
//! 6. every non-default contender reproduces a pinned result, since the
//!    golden corpus runs default policies only.

use skybyte::sim::runner::RunRequest;
use skybyte::sim::{ExperimentScale, SimResult, Simulation};
use skybyte::types::{
    apply_policy_name, EvictionPolicyKind, HotnessPolicyKind, MigrationPolicyKind, PolicyConfig,
    PolicyOverride, SimConfig, TenantSchedKind, VariantKind,
};
use skybyte::workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(200)
}

/// Runs `SkyByte-Full` on `workload` at tiny scale with `policy`.
fn run_with_policy(policy: PolicyConfig, workload: WorkloadKind) -> SimResult {
    let scale = tiny();
    let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
    cfg.policy = policy;
    Simulation::with_config(cfg, workload, &scale).run()
}

#[test]
fn explicit_defaults_match_an_untouched_config_bit_for_bit() {
    // Spelling out the default policy in full must be indistinguishable from
    // never mentioning policies at all — for every design variant, since the
    // seams sit at different depths of the stack.
    let scale = tiny();
    for variant in VariantKind::ALL {
        let cfg = scale.apply(SimConfig::default().with_variant(variant));
        let mut explicit_cfg = cfg.clone();
        explicit_cfg.policy = PolicyConfig {
            eviction: EvictionPolicyKind::PseudoLru,
            hotness: HotnessPolicyKind::Threshold,
            tenant_sched: TenantSchedKind::Passthrough,
        };
        let untouched = Simulation::with_config(cfg, WorkloadKind::Ycsb, &scale).run();
        let explicit = Simulation::with_config(explicit_cfg, WorkloadKind::Ycsb, &scale).run();
        assert_eq!(
            untouched, explicit,
            "{variant}: default policy must be inert"
        );
        assert!(untouched.policy.is_default());
    }
}

#[test]
fn every_eviction_and_hotness_contender_keeps_the_audit_clean() {
    for eviction in EvictionPolicyKind::ALL {
        for hotness in HotnessPolicyKind::ALL {
            let policy = PolicyConfig {
                eviction,
                hotness,
                ..PolicyConfig::default()
            };
            let scale = tiny();
            let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
            cfg.policy = policy;
            let (result, report) = Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).audit();
            report.assert_clean(&format!("{eviction}/{hotness}"));
            assert!(!result.truncated);
            // The chosen policy must be visible in the result so audits and
            // memoization stay attributable per contender.
            assert_eq!(result.policy.eviction, eviction);
            assert_eq!(result.policy.hotness, hotness);
        }
    }
}

#[test]
fn every_migration_trigger_keeps_the_audit_clean() {
    let scale = tiny();
    for policy in MigrationPolicyKind::ALL {
        let mut cfg = scale.apply(SimConfig::default().with_variant(VariantKind::SkyByteFull));
        cfg.migration.policy = policy;
        let (result, report) = Simulation::with_config(cfg, WorkloadKind::Tpcc, &scale).audit();
        report.assert_clean(&format!("migration {policy}"));
        assert!(!result.truncated);
        if policy == MigrationPolicyKind::Disabled {
            assert_eq!(result.layers.migration.promotions, 0);
        }
    }
}

#[test]
fn fair_share_tenant_scheduling_conserves_and_serves_every_tenant() {
    let scale = tiny();
    let mut sim = Simulation::build_multi(
        VariantKind::SkyByteFull,
        &[(WorkloadKind::Ycsb, 2), (WorkloadKind::Tpcc, 2)],
        &scale,
    );
    sim.config_mut().policy.tenant_sched = TenantSchedKind::FairShare;
    let (result, report) = sim.audit();
    report.assert_clean("fair-share on ycsb+tpcc");
    assert_eq!(result.policy.tenant_sched, TenantSchedKind::FairShare);
    assert_eq!(result.per_tenant.len(), 2);
    // Work conserving: throttling preference must never starve a tenant.
    for t in &result.per_tenant {
        assert!(
            t.accesses() > 0,
            "tenant {} starved under fair-share",
            t.tenant
        );
    }
}

#[test]
fn off_default_policies_partition_the_memo_table() {
    let scale = tiny();
    let base = RunRequest::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
    for name in PolicyOverride::all_names() {
        let mut sim = base.simulation().clone();
        apply_policy_name(sim.config_mut(), &name).unwrap();
        let changed = sim.config() != base.simulation().config();
        let req = RunRequest::from_simulation(sim);
        assert_eq!(
            req.fingerprint() != base.fingerprint(),
            changed,
            "policy '{name}': fingerprint must change iff the config does"
        );
    }
}

#[test]
fn hotness_trackers_expose_a_bounded_footprint() {
    for hotness in HotnessPolicyKind::ALL {
        let policy = PolicyConfig {
            hotness,
            ..PolicyConfig::default()
        };
        let result = run_with_policy(policy, WorkloadKind::Tpcc);
        let tracked = result.layers.ssd.tracked_pages;
        // Every tracker's state must stay bounded by the pages it ever saw;
        // the windowed tracker additionally bounds itself by its window.
        assert!(
            tracked <= result.ssd_accesses,
            "{hotness}: {tracked} tracked pages from {} accesses",
            result.ssd_accesses
        );
        if hotness == HotnessPolicyKind::TopK {
            assert!(tracked <= 1024, "topk must stay within its window");
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every non-default contender of the `--policy` registry, run as
/// SkyByte-Full on the ycsb + tpcc (2 + 2 threads) co-location at tiny
/// scale: `(name, exec_time in ns, FNV-1a of the serialised SimResult)`.
const CONTENDER_PINS: [(&str, u64, u64); 12] = [
    ("clock", 4895687, 0xe23b0b4dd8a050db),
    ("2q", 4898870, 0xe2e464392ac36f16),
    ("fifo", 5150138, 0xa73d1058415b1f4c),
    ("decay", 4952789, 0x4fd93504cb1a9c5b),
    ("topk", 4839494, 0xdcf39c17a1754c57),
    ("fair-share", 4979285, 0xed31990b164f0743),
    ("qos", 4979425, 0x83bff53b3ab64b46),
    ("tpp", 5096143, 0xe754a48861070b2f),
    ("astriflash", 5304454, 0xb4cedad3c3dff366),
    ("disabled", 5304454, 0xa72d3c8de914e6ee),
    ("RR", 4920549, 0x5dc7c6e631a85c02),
    ("Random", 4907801, 0xa0b1487d5b7cc34d),
];

#[test]
fn non_default_contenders_reproduce_their_pinned_results() {
    let scale = ExperimentScale::tiny();
    let drifted: Vec<String> = CONTENDER_PINS
        .iter()
        .filter_map(|&(name, exec_ns, digest)| {
            let mut sim = Simulation::build_multi(
                VariantKind::SkyByteFull,
                &[(WorkloadKind::Ycsb, 2), (WorkloadKind::Tpcc, 2)],
                &scale,
            );
            apply_policy_name(sim.config_mut(), name).unwrap();
            let result = sim.run();
            let json = serde_json::to_string(&result).expect("a SimResult serialises");
            let got = (result.exec_time.as_nanos(), fnv1a64(json.as_bytes()));
            (got != (exec_ns, digest)).then(|| {
                format!(
                    "{name}: exec_time {} ns, digest {:#018x} (pinned {exec_ns} ns, {digest:#018x})",
                    got.0, got.1
                )
            })
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "contenders drifted:\n{}",
        drifted.join("\n")
    );
}

mod proptest_sweep {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Random policy points conserve: any eviction × hotness ×
        /// tenant-scheduler × migration combination (folded into one
        /// mixed-radix index), across variants, workloads and thread counts.
        #[test]
        fn random_policy_points_conserve(
            combo in 0usize..(EvictionPolicyKind::ALL.len()
                * HotnessPolicyKind::ALL.len()
                * TenantSchedKind::ALL.len()
                * MigrationPolicyKind::ALL.len()),
            variant_idx in 0usize..VariantKind::ALL.len(),
            workload_idx in 0usize..WorkloadKind::ALL.len(),
            threads in 1u32..10,
            seed in 0u64..1_000,
        ) {
            let mut scale = tiny();
            scale.seed = seed;
            let variant = VariantKind::ALL[variant_idx];
            let workload = WorkloadKind::ALL[workload_idx];
            let mut cfg = scale
                .apply(SimConfig::default().with_variant(variant))
                .with_threads(threads);
            let mut rest = combo;
            let mut digit = |radix: usize| {
                let d = rest % radix;
                rest /= radix;
                d
            };
            cfg.policy = PolicyConfig {
                eviction: EvictionPolicyKind::ALL[digit(EvictionPolicyKind::ALL.len())],
                hotness: HotnessPolicyKind::ALL[digit(HotnessPolicyKind::ALL.len())],
                tenant_sched: TenantSchedKind::ALL[digit(TenantSchedKind::ALL.len())],
            };
            cfg.migration.policy = MigrationPolicyKind::ALL[digit(MigrationPolicyKind::ALL.len())];
            let policy = cfg.policy;
            let sim = Simulation::with_config(cfg, workload, &scale);
            let (result, report) = sim.audit();
            prop_assert!(
                report.is_clean(),
                "{variant} on {workload:?} with {policy:?} (threads {threads}, seed {seed}):\n{report}"
            );
            prop_assert_eq!(result.policy, policy);
        }
    }
}
