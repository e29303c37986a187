//! Integration tests of the parallel, memoizing experiment runner.
//!
//! The runner must reproduce the sequential experiment tables bit-for-bit
//! (same rows, same values) regardless of its worker-pool size, memoization
//! must eliminate duplicate simulations — in particular the Base-CSSD
//! baselines shared between figures — and no tiny-scale experiment may hit
//! the engine's step-limit safety valve.

use skybyte_sim::experiments;
use skybyte_sim::runner::{RunRequest, Runner};
use skybyte_sim::{ExperimentScale, Simulation};
use skybyte_types::VariantKind;
use skybyte_workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale::tiny().with_accesses_per_thread(300)
}

#[test]
fn parallel_runner_reproduces_sequential_tables_exactly() {
    let scale = tiny();
    let sequential = Runner::new(1);
    let parallel = Runner::new(4);

    let fig14_seq = experiments::fig14_main_ablation(&sequential, &scale);
    let fig14_par = experiments::fig14_main_ablation(&parallel, &scale);
    assert_eq!(
        fig14_seq, fig14_par,
        "figure 14 must be value-identical across --jobs 1 and --jobs 4"
    );

    // Both runners already memoized the ablation, so the figure-18 subset
    // below reuses those results; only the table assembly differs.
    let fig18_seq = experiments::fig18_write_traffic(&sequential, &scale);
    let fig18_par = experiments::fig18_write_traffic(&parallel, &scale);
    assert_eq!(
        fig18_seq, fig18_par,
        "figure 18 must be value-identical across --jobs 1 and --jobs 4"
    );
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    let scale = tiny();
    let a = experiments::fig18_write_traffic(&Runner::new(4), &scale);
    let b = experiments::fig18_write_traffic(&Runner::new(4), &scale);
    assert_eq!(a, b, "two parallel regenerations must agree exactly");
}

#[test]
fn memoization_eliminates_duplicate_baseline_runs() {
    let scale = tiny();
    let runner = Runner::new(2);

    let _ = experiments::fig14_main_ablation(&runner, &scale);
    let unique = (experiments::ALL_WORKLOADS.len() * VariantKind::MAIN_ABLATION.len()) as u64;
    assert_eq!(
        runner.runs_executed(),
        unique,
        "each (workload, variant) pair must be simulated exactly once"
    );

    // Regenerating the same figure touches the memo table only.
    let _ = experiments::fig14_main_ablation(&runner, &scale);
    assert_eq!(runner.runs_executed(), unique);

    // Figure 18's variants are a subset of the main ablation's, so on a
    // shared runner the Base-CSSD baselines (and everything else) come from
    // the memo table: zero additional simulations.
    let _ = experiments::fig18_write_traffic(&runner, &scale);
    assert_eq!(
        runner.runs_executed(),
        unique,
        "figure 18 must not re-run any simulation figure 14 already did"
    );
}

#[test]
fn runner_results_match_direct_simulation() {
    let scale = tiny();
    let runner = Runner::new(3);
    let req = RunRequest::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale);
    let via_runner = runner.run_all(&[req]).remove(0);
    let direct = Simulation::build(VariantKind::SkyByteFull, WorkloadKind::Ycsb, &scale).run();
    assert_eq!(via_runner.exec_time, direct.exec_time);
    assert_eq!(via_runner.requests, direct.requests);
    assert_eq!(via_runner.layers.flash, direct.layers.flash);
    assert_eq!(via_runner.context_switches, direct.context_switches);
}

#[test]
fn no_tiny_scale_experiment_truncates() {
    let scale = tiny();
    let runner = Runner::new(4);
    let runs: Vec<RunRequest> = [
        VariantKind::BaseCssd,
        VariantKind::SkyByteC,
        VariantKind::SkyByteP,
        VariantKind::SkyByteW,
        VariantKind::SkyByteCP,
        VariantKind::SkyByteWP,
        VariantKind::SkyByteFull,
        VariantKind::DramOnly,
        VariantKind::SkyByteCT,
        VariantKind::SkyByteWCT,
        VariantKind::AstriFlashCxl,
    ]
    .iter()
    .flat_map(|&v| {
        [WorkloadKind::Ycsb, WorkloadKind::Tpcc]
            .into_iter()
            .map(move |w| RunRequest::build(v, w, &scale))
    })
    .collect();
    for (req, result) in runs.iter().zip(runner.run_all(&runs)) {
        assert!(
            !result.truncated,
            "{} on {:?} hit the step limit at tiny scale",
            req.simulation().config().variant,
            req.simulation().workload()
        );
    }
}
