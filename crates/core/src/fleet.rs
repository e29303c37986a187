//! The fleet layer: many devices, pluggable tenant placement.
//!
//! SkyByte's deployment setting is pooled CXL-SSD capacity, so above the
//! single-device [`Simulation`](crate::Simulation) sits a *fleet*: a rack
//! of `N` identical devices and a population of tenant demands that the
//! fleet's [`PlacementPolicyKind`] assigns to devices. Each placed device
//! then compiles down to an ordinary multi-tenant
//! [`RunRequest`](crate::RunRequest) (via
//! [`Simulation::build_multi`](crate::Simulation::build_multi)), which
//! makes the fleet embarrassingly parallel under the existing memoizing
//! [`Runner`]:
//!
//! * devices run concurrently on the runner's worker pool,
//! * two devices (or two whole placements) that agree on a tenant
//!   composition share one simulation through the memo table — placement is
//!   deliberately invisible to a device's fingerprint,
//! * every tenant also runs its uncontended solo twin (the `--fig mt`
//!   machinery), so [`FleetResult::slowdowns`] measures interference alone,
//!   and the twins of equal-composition devices are memoized too.
//!
//! The fleet's [`RebalancePolicyKind`] closes the loop: between rounds it
//! may migrate tenants using the measured per-tenant slowdowns, and only the
//! devices whose composition actually changed are re-simulated (the rest
//! hit the memo table). Both kinds are matched here, in [`run_fleet`]'s
//! placement and rebalance steps.
//!
//! [`audit_fleet`] checks the per-device results against the placement with
//! four `fleet-*` invariants, mirroring the per-device audit.

use crate::experiments::{colocation_requests, ExperimentTable};
use crate::metrics::SimResult;
use crate::runner::Runner;
use crate::scale::ExperimentScale;
use skybyte_types::{AuditReport, PlacementPolicyKind, RebalancePolicyKind, VariantKind};
use skybyte_workloads::WorkloadKind;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// One tenant's demand on the fleet: what it runs and how much device
/// capacity it claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantDemand {
    /// The workload the tenant runs.
    pub workload: WorkloadKind,
    /// Threads the tenant brings to whichever device it lands on.
    pub threads: u32,
    /// Footprint the tenant claims for placement purposes. Placement packs
    /// these against [`FleetConfig::device_capacity`]; the device simulation
    /// itself divides its scaled footprint evenly among the tenants placed
    /// on it, exactly like every other multi-tenant run.
    pub footprint_bytes: u64,
}

/// A rack of identical devices plus the tenant population to place on it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of identical devices in the fleet.
    pub devices: usize,
    /// The design variant every device runs.
    pub variant: VariantKind,
    /// The per-device scale (sizes, budgets, seed) — every device is
    /// identical, so one scale describes the whole rack.
    pub scale: ExperimentScale,
    /// The tenant population, in arrival order (placement tie-breaks are
    /// index-based, so this order is part of the fleet's identity).
    pub tenants: Vec<TenantDemand>,
    /// How tenants are assigned to devices.
    pub placement: PlacementPolicyKind,
    /// How tenants migrate between rounds.
    pub rebalance: RebalancePolicyKind,
    /// Number of measure-then-rebalance rounds (at least 1; with
    /// [`RebalancePolicyKind::Pin`] extra rounds are pure memo hits).
    pub rounds: u32,
}

impl FleetConfig {
    /// A fleet of `devices` identical devices running `variant` at `scale`,
    /// with first-fit placement, pinned tenants and a single round.
    pub fn new(devices: usize, variant: VariantKind, scale: ExperimentScale) -> Self {
        FleetConfig {
            devices,
            variant,
            scale,
            tenants: Vec::new(),
            placement: PlacementPolicyKind::FirstFit,
            rebalance: RebalancePolicyKind::Pin,
            rounds: 1,
        }
    }

    /// Footprint capacity of one device: the scaled workload footprint,
    /// i.e. the demand a device can serve at the scale's intended
    /// footprint : DRAM pressure ratio.
    pub fn device_capacity(&self) -> u64 {
        self.scale.footprint_bytes
    }

    /// Checks the fleet is well-formed: at least one device and one tenant,
    /// every tenant has threads and fits on *some* device, and the total
    /// demand fits in the rack.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet needs at least one device".into());
        }
        if self.tenants.is_empty() {
            return Err("fleet needs at least one tenant".into());
        }
        if self.rounds == 0 {
            return Err("fleet needs at least one round".into());
        }
        let cap = self.device_capacity();
        for (i, t) in self.tenants.iter().enumerate() {
            if t.threads == 0 {
                return Err(format!("tenant {i} has zero threads"));
            }
            if t.footprint_bytes > cap {
                return Err(format!(
                    "tenant {i} demands {} bytes but a device holds {cap}",
                    t.footprint_bytes
                ));
            }
        }
        let total: u64 = self.tenants.iter().map(|t| t.footprint_bytes).sum();
        let rack = cap * self.devices as u64;
        if total > rack {
            return Err(format!(
                "total demand {total} exceeds rack capacity {rack} ({} devices x {cap})",
                self.devices
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Placement and rebalancing
// ---------------------------------------------------------------------------

/// Orders two scores, treating incomparable (NaN) pairs as equal.
fn cmp_f64(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal)
}

/// Assigns each tenant a device in `0..devices` under `kind`: one device
/// index per tenant, in `tenants` order. `scores` carries one interference
/// score per tenant (higher = more interference-prone); only the
/// interference-aware policy reads it.
///
/// Every policy is deterministic — ties broken by index — because the
/// assignment feeds device fingerprints and the fleet's byte-stable output.
///
/// * first-fit packs tenants in index order, each onto the first device
///   with enough remaining capacity (falling back to the device with the
///   most remaining capacity when none fits — the fleet audit then reports
///   the overflow);
/// * round-robin puts tenant `i` onto device `i mod devices`, ignoring
///   footprints;
/// * interference-aware takes tenants in decreasing score order, each onto
///   the device with the least accumulated score that still has capacity,
///   so the most interference-prone tenants are spread rather than stacked.
fn place(
    kind: PlacementPolicyKind,
    tenants: &[TenantDemand],
    devices: usize,
    capacity: u64,
    scores: &[f64],
) -> Vec<usize> {
    match kind {
        PlacementPolicyKind::FirstFit => {
            let mut used = vec![0u64; devices];
            tenants
                .iter()
                .map(|t| {
                    let d = (0..devices)
                        .find(|&d| used[d] + t.footprint_bytes <= capacity)
                        .unwrap_or_else(|| {
                            (0..devices).min_by_key(|&d| used[d]).expect("devices > 0")
                        });
                    used[d] += t.footprint_bytes;
                    d
                })
                .collect()
        }
        PlacementPolicyKind::RoundRobin => (0..tenants.len()).map(|i| i % devices).collect(),
        PlacementPolicyKind::InterferenceAware => {
            let mut order: Vec<usize> = (0..tenants.len()).collect();
            // Sort by score descending, index ascending: total order, so the
            // placement is deterministic for any score vector.
            order.sort_by(|&a, &b| cmp_f64(scores[b], scores[a]).then(a.cmp(&b)));
            let mut used = vec![0u64; devices];
            let mut load = vec![0f64; devices];
            let mut assignment = vec![0usize; tenants.len()];
            for i in order {
                let fits = |d: &usize| used[*d] + tenants[i].footprint_bytes <= capacity;
                let candidates: Vec<usize> = (0..devices).filter(|d| fits(d)).collect();
                let pool = if candidates.is_empty() {
                    (0..devices).collect()
                } else {
                    candidates
                };
                let d = pool
                    .into_iter()
                    .min_by(|&a, &b| cmp_f64(load[a], load[b]).then(a.cmp(&b)))
                    .expect("devices > 0");
                used[d] += tenants[i].footprint_bytes;
                load[d] += scores[i];
                assignment[i] = d;
            }
            assignment
        }
    }
}

/// The next round's assignment under `kind`, given the measured
/// per-tenant slowdowns of this round. Deterministic with index-based
/// tie-breaks, like placement.
///
/// * pin never moves a tenant after initial placement;
/// * swap-worst moves the tenant with the worst slowdown to the device with
///   the lowest mean slowdown that can hold it (empty devices count as mean
///   0, so spare devices absorb the victim first). If no other device has
///   room, the assignment is unchanged.
fn rebalance(
    kind: RebalancePolicyKind,
    assignment: &[usize],
    tenants: &[TenantDemand],
    devices: usize,
    capacity: u64,
    slowdowns: &[f64],
) -> Vec<usize> {
    let mut next = assignment.to_vec();
    match kind {
        RebalancePolicyKind::Pin => {}
        RebalancePolicyKind::SwapWorst => {
            // The victim: worst slowdown, ties by lowest tenant index.
            let Some(victim) = (0..tenants.len())
                .max_by(|&a, &b| cmp_f64(slowdowns[a], slowdowns[b]).then(b.cmp(&a)))
            else {
                return next;
            };
            let mut used = vec![0u64; devices];
            let mut sum = vec![0f64; devices];
            let mut count = vec![0usize; devices];
            for (t, &d) in assignment.iter().enumerate() {
                used[d] += tenants[t].footprint_bytes;
                sum[d] += slowdowns[t];
                count[d] += 1;
            }
            let from = assignment[victim];
            let mean = |d: usize| {
                if count[d] == 0 {
                    0.0
                } else {
                    sum[d] / count[d] as f64
                }
            };
            let target = (0..devices)
                .filter(|&d| d != from && used[d] + tenants[victim].footprint_bytes <= capacity)
                .min_by(|&a, &b| cmp_f64(mean(a), mean(b)).then(a.cmp(&b)));
            if let Some(d) = target {
                if mean(d) < mean(from) {
                    next[victim] = d;
                }
            }
        }
    }
    next
}

// ---------------------------------------------------------------------------
// Running a fleet
// ---------------------------------------------------------------------------

/// One device's share of a fleet round.
#[derive(Debug, Clone)]
pub struct DeviceOutcome {
    /// Global tenant indices placed on this device, ascending.
    pub tenants: Vec<usize>,
    /// The device's simulation result (`None` for an empty device — nothing
    /// to simulate).
    pub result: Option<Arc<SimResult>>,
}

/// The aggregated outcome of a fleet's final round.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// The final tenant → device assignment.
    pub assignment: Vec<usize>,
    /// Per-device outcomes, indexed by device.
    pub devices: Vec<DeviceOutcome>,
    /// Per-tenant slowdown vs the tenant's memoized solo twin (> 1 means
    /// co-location cost the tenant time), indexed like
    /// [`FleetConfig::tenants`].
    pub slowdowns: Vec<f64>,
    /// Per-tenant placement demands (bytes), for capacity auditing.
    pub demands: Vec<u64>,
    /// Per-device footprint capacity (bytes).
    pub capacity: u64,
}

impl FleetResult {
    /// Number of tenants in the fleet.
    pub fn tenant_count(&self) -> usize {
        self.assignment.len()
    }

    /// The slowdown at quantile `q` in `[0, 1]` (exact order statistic over
    /// the per-tenant slowdowns, upper index on non-integer ranks).
    pub fn slowdown_percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.slowdowns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.slowdowns.clone();
        sorted.sort_by(|a, b| cmp_f64(*a, *b));
        let idx = ((sorted.len() - 1) as f64 * q).ceil() as usize;
        sorted[idx]
    }

    /// Jain's fairness index over the per-tenant slowdowns:
    /// `(Σx)² / (n · Σx²)`, 1.0 when every tenant suffers equally, → `1/n`
    /// as one tenant absorbs all the interference.
    pub fn jain_fairness(&self) -> f64 {
        let n = self.slowdowns.len();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = self.slowdowns.iter().sum();
        let sq: f64 = self.slowdowns.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (n as f64 * sq)
    }
}

/// The per-device tenant compositions implied by an assignment: for each
/// device, the global tenant indices placed on it, ascending.
fn device_groups(assignment: &[usize], devices: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); devices];
    for (t, &d) in assignment.iter().enumerate() {
        groups[d].push(t);
    }
    groups
}

/// Measures each tenant's interference-proneness with the `--fig mt` probe:
/// the tenant's workload co-located 1:1 against the write-heavy tpcc
/// antagonist, divided by its uncontended solo twin. One probe pair runs per
/// *distinct* workload (memoized across tenants and across fleets on the
/// same runner).
fn interference_scores(runner: &Runner, cfg: &FleetConfig) -> Vec<f64> {
    let mut uniq: Vec<WorkloadKind> = Vec::new();
    for t in &cfg.tenants {
        if !uniq.contains(&t.workload) {
            uniq.push(t.workload);
        }
    }
    let mut runs = Vec::new();
    for &w in &uniq {
        // The co-located pair and the probed tenant's twin; the
        // antagonist's twin is not needed.
        let pair = [(w, 1), (WorkloadKind::Tpcc, 1)];
        runs.extend(
            colocation_requests(cfg.variant, &pair, &cfg.scale)
                .into_iter()
                .take(2),
        );
    }
    let results = runner.run_all(&runs);
    let score_of = |w: WorkloadKind| {
        let i = uniq.iter().position(|&u| u == w).expect("probed workload");
        let co = &results[2 * i];
        let solo = &results[2 * i + 1];
        co.per_tenant[0].slowdown_over(&solo.per_tenant[0])
    };
    cfg.tenants.iter().map(|t| score_of(t.workload)).collect()
}

/// Runs one round: compiles each non-empty device down to a multi-tenant
/// run request plus one solo twin per placed tenant, executes the whole
/// batch through the runner (parallel, memoized), and reads back per-tenant
/// slowdowns.
fn run_round(runner: &Runner, cfg: &FleetConfig, assignment: &[usize]) -> FleetResult {
    let groups = device_groups(assignment, cfg.devices);
    // Enumerate every run up front in a fixed order (device-major, co-located
    // run first, then that device's solo twins) so results map back
    // positionally and output is byte-identical at any parallelism.
    let mut runs = Vec::new();
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let composition: Vec<(WorkloadKind, u32)> = group
            .iter()
            .map(|&t| (cfg.tenants[t].workload, cfg.tenants[t].threads))
            .collect();
        runs.extend(colocation_requests(cfg.variant, &composition, &cfg.scale));
    }
    let results = runner.run_all(&runs);
    let mut results = results.iter();

    let mut devices = Vec::with_capacity(cfg.devices);
    let mut slowdowns = vec![0.0; cfg.tenants.len()];
    for group in &groups {
        if group.is_empty() {
            devices.push(DeviceOutcome {
                tenants: Vec::new(),
                result: None,
            });
            continue;
        }
        let co = results.next().expect("one co-located result per device");
        for (slot, &tenant) in group.iter().enumerate() {
            let solo = results.next().expect("one solo result per placed tenant");
            slowdowns[tenant] = co.per_tenant[slot].slowdown_over(&solo.per_tenant[0]);
        }
        devices.push(DeviceOutcome {
            tenants: group.clone(),
            result: Some(Arc::clone(co)),
        });
    }
    FleetResult {
        assignment: assignment.to_vec(),
        devices,
        slowdowns,
        demands: cfg.tenants.iter().map(|t| t.footprint_bytes).collect(),
        capacity: cfg.device_capacity(),
    }
}

/// Runs a fleet to completion: place, then `rounds` × (measure, rebalance),
/// returning the final round's [`FleetResult`].
///
/// All simulation goes through `runner`, so devices run in parallel,
/// identical compositions are memoized (within a round, across rounds, and
/// across fleets sharing the runner), and the result is bit-identical at any
/// `jobs` setting.
///
/// # Panics
///
/// Panics if `cfg` fails [`FleetConfig::validate`].
pub fn run_fleet(runner: &Runner, cfg: &FleetConfig) -> FleetResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid FleetConfig: {e}");
    }
    let scores = if cfg.placement == PlacementPolicyKind::InterferenceAware {
        interference_scores(runner, cfg)
    } else {
        vec![0.0; cfg.tenants.len()]
    };
    let mut assignment = place(
        cfg.placement,
        &cfg.tenants,
        cfg.devices,
        cfg.device_capacity(),
        &scores,
    );
    let mut outcome = run_round(runner, cfg, &assignment);
    for _ in 1..cfg.rounds {
        assignment = rebalance(
            cfg.rebalance,
            &assignment,
            &cfg.tenants,
            cfg.devices,
            cfg.device_capacity(),
            &outcome.slowdowns,
        );
        outcome = run_round(runner, cfg, &assignment);
    }
    outcome
}

// ---------------------------------------------------------------------------
// Fleet audit
// ---------------------------------------------------------------------------

/// Audits a [`FleetResult`] against the four `fleet-*` invariants that tie
/// per-device results to the placement:
///
/// 1. `fleet-placement-conservation` — the device tenant lists partition the
///    tenant population: every tenant appears on exactly the device the
///    assignment names, and on no other.
/// 2. `fleet-capacity` — each device's placed demand fits its capacity.
/// 3. `fleet-tenant-attribution` — each simulated device carries exactly one
///    per-tenant entry per placed tenant, and their thread counts sum to the
///    device's thread count.
/// 4. `fleet-slowdown-positive` — one finite, positive slowdown per tenant.
pub fn audit_fleet(r: &FleetResult) -> AuditReport {
    let mut a = AuditReport::new();
    let n = r.tenant_count();

    let mut seen = vec![0usize; n];
    let mut consistent = true;
    for (d, dev) in r.devices.iter().enumerate() {
        for &t in &dev.tenants {
            if t < n {
                seen[t] += 1;
            }
            consistent &= t < n && r.assignment[t] == d;
        }
    }
    a.check(
        "fleet-placement-conservation",
        consistent && seen.iter().all(|&c| c == 1),
        || {
            format!(
                "tenant placement counts {seen:?} (want all 1) or device lists disagree \
                 with assignment {:?}",
                r.assignment
            )
        },
    );

    for (d, dev) in r.devices.iter().enumerate() {
        let placed: u64 = dev.tenants.iter().map(|&t| r.demands[t]).sum();
        a.check("fleet-capacity", placed <= r.capacity, || {
            format!(
                "device {d} holds {placed} bytes of demand but its capacity is {}",
                r.capacity
            )
        });
    }

    for (d, dev) in r.devices.iter().enumerate() {
        let Some(res) = dev.result.as_deref() else {
            continue;
        };
        let threads: u32 = res.per_tenant.iter().map(|t| t.threads).sum();
        a.check(
            "fleet-tenant-attribution",
            res.per_tenant.len() == dev.tenants.len() && threads == res.threads,
            || {
                format!(
                    "device {d}: {} per-tenant entries for {} placed tenants, \
                     tenant threads {threads} vs device threads {}",
                    res.per_tenant.len(),
                    dev.tenants.len(),
                    res.threads
                )
            },
        );
    }

    a.check(
        "fleet-slowdown-positive",
        r.slowdowns.len() == n && r.slowdowns.iter().all(|s| s.is_finite() && *s > 0.0),
        || {
            format!(
                "slowdowns {:?} (want {n} finite positive values)",
                r.slowdowns
            )
        },
    );

    a
}

// ---------------------------------------------------------------------------
// The fleet figure
// ---------------------------------------------------------------------------

/// The placement policies `figures --fig fleet` sweeps.
pub const FLEET_PLACEMENTS: [PlacementPolicyKind; 3] = PlacementPolicyKind::ALL;

/// The (devices, tenants) grid points of the fleet sweep.
pub const FLEET_GRID: [(usize, usize); 2] = [(4, 64), (16, 256)];

/// The tenant population of a fleet sweep point: `tenants` single-threaded
/// tenants cycling through ycsb / tpcc / bc / srad, each demanding an equal
/// share of the rack (`capacity × devices / tenants` bytes), so a perfect
/// packing fills every device exactly.
pub fn fleet_population(
    scale: &ExperimentScale,
    devices: usize,
    tenants: usize,
) -> Vec<TenantDemand> {
    const MIX: [WorkloadKind; 4] = [
        WorkloadKind::Ycsb,
        WorkloadKind::Tpcc,
        WorkloadKind::Bc,
        WorkloadKind::Srad,
    ];
    let demand = scale.footprint_bytes * devices as u64 / tenants as u64;
    (0..tenants)
        .map(|i| TenantDemand {
            workload: MIX[i % MIX.len()],
            threads: 1,
            footprint_bytes: demand,
        })
        .collect()
}

/// Figure "fleet" (beyond the paper): tail slowdown and fairness across a
/// rack, sweeping placement policy × fleet size.
///
/// Every placement policy runs the same tenant population on the same grid —
/// up to 16 devices × 256 tenants — plus one first-fit + swap-worst row on a
/// deliberately loose 4-device rack (48 tenants leave one device empty, so
/// the rebalance round has somewhere to move the worst tenant). Per row:
///
/// * `p50/p99/p999_slowdown` — order statistics of the per-tenant slowdown
///   vs each tenant's memoized solo twin,
/// * `jain_fairness` — Jain's index over those slowdowns (1 = perfectly
///   even interference),
/// * `worst_dev_p99_ns` / `worst_dev_p999_ns` — the worst per-device access
///   tail latency in the rack.
///
/// Placement is invisible to device fingerprints, so policies that agree on
/// a device's composition share its simulation through the runner's memo
/// table; with `--audit`, every fleet is checked against the `fleet-*`
/// invariants.
pub(crate) fn fig_fleet(runner: &Runner, scale: &ExperimentScale) -> ExperimentTable {
    let mut t = ExperimentTable::new(
        "figure-fleet",
        "Fleet sweep: per-tenant tail slowdown and fairness by placement policy",
        [
            "devices",
            "tenants",
            "p50_slowdown",
            "p99_slowdown",
            "p999_slowdown",
            "jain_fairness",
            "worst_dev_p99_ns",
            "worst_dev_p999_ns",
        ],
    );
    let mut points: Vec<(String, FleetConfig)> = Vec::new();
    for &placement in &FLEET_PLACEMENTS {
        for &(devices, tenants) in &FLEET_GRID {
            let mut cfg = FleetConfig::new(devices, VariantKind::SkyByteFull, *scale);
            cfg.tenants = fleet_population(scale, devices, tenants);
            cfg.placement = placement;
            points.push((format!("{placement}/{devices}d-{tenants}t"), cfg));
        }
    }
    // The rebalance row: 48 equal tenants first-fit onto a 4-device rack
    // fill three devices and leave the fourth empty; round two moves the
    // worst-slowdown tenant there.
    let mut cfg = FleetConfig::new(4, VariantKind::SkyByteFull, *scale);
    cfg.tenants = fleet_population(scale, 3, 48);
    cfg.rebalance = RebalancePolicyKind::SwapWorst;
    cfg.rounds = 2;
    points.push(("first-fit+swap-worst/4d-48t".to_string(), cfg));

    for (label, cfg) in points {
        let fr = run_fleet(runner, &cfg);
        if runner.audits() {
            audit_fleet(&fr).assert_clean(&format!("fleet {label}"));
        }
        let worst_p99 = fr
            .devices
            .iter()
            .filter_map(|d| d.result.as_deref())
            .map(|r| r.latency_hist.p99().as_nanos())
            .max()
            .unwrap_or(0);
        let worst_p999 = fr
            .devices
            .iter()
            .filter_map(|d| d.result.as_deref())
            .map(|r| r.latency_hist.p999().as_nanos())
            .max()
            .unwrap_or(0);
        t.push(
            label,
            vec![
                cfg.devices as f64,
                fr.tenant_count() as f64,
                fr.slowdown_percentile(0.5),
                fr.slowdown_percentile(0.99),
                fr.slowdown_percentile(0.999),
                fr.jain_fairness(),
                worst_p99 as f64,
                worst_p999 as f64,
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demand(workload: WorkloadKind, footprint_bytes: u64) -> TenantDemand {
        TenantDemand {
            workload,
            threads: 1,
            footprint_bytes,
        }
    }

    fn tiny_fleet(devices: usize, tenants: usize) -> FleetConfig {
        let scale = ExperimentScale::tiny();
        let mut cfg = FleetConfig::new(devices, VariantKind::SkyByteFull, scale);
        cfg.tenants = fleet_population(&scale, devices, tenants);
        cfg
    }

    #[test]
    fn first_fit_packs_in_index_order() {
        let tenants = vec![
            demand(WorkloadKind::Ycsb, 60),
            demand(WorkloadKind::Tpcc, 50),
            demand(WorkloadKind::Bc, 50),
            demand(WorkloadKind::Srad, 40),
        ];
        let got = place(PlacementPolicyKind::FirstFit, &tenants, 3, 100, &[0.0; 4]);
        // 60 -> dev 0; 50 -> dev 1 (0 is too full); 50 -> dev 1; 40 -> dev 0.
        assert_eq!(got, vec![0, 1, 1, 0]);
        // When nothing fits, overflow lands on the emptiest device instead
        // of panicking (the fleet-capacity audit reports it).
        let big = vec![
            demand(WorkloadKind::Ycsb, 90),
            demand(WorkloadKind::Tpcc, 90),
        ];
        assert_eq!(
            place(PlacementPolicyKind::FirstFit, &big, 1, 100, &[0.0; 2]),
            vec![0, 0]
        );
    }

    #[test]
    fn round_robin_strides_devices() {
        let tenants = vec![demand(WorkloadKind::Ycsb, 1); 5];
        assert_eq!(
            place(PlacementPolicyKind::RoundRobin, &tenants, 3, 100, &[0.0; 5]),
            vec![0, 1, 2, 0, 1]
        );
    }

    #[test]
    fn interference_aware_spreads_hot_tenants() {
        let tenants = vec![demand(WorkloadKind::Ycsb, 10); 4];
        // Two hot tenants (indices 2, 3) must land on different devices.
        let scores = [1.0, 1.0, 5.0, 5.0];
        let got = place(
            PlacementPolicyKind::InterferenceAware,
            &tenants,
            2,
            100,
            &scores,
        );
        assert_ne!(got[2], got[3], "hot tenants stacked: {got:?}");
        assert_ne!(got[0], got[1], "cold tenants stacked: {got:?}");
    }

    #[test]
    fn swap_worst_moves_the_victim_to_the_calmest_device_with_room() {
        let tenants = vec![
            demand(WorkloadKind::Ycsb, 40),
            demand(WorkloadKind::Tpcc, 40),
            demand(WorkloadKind::Bc, 40),
        ];
        // Device 0 holds tenants 0+1 (suffering), device 1 holds tenant 2,
        // device 2 is empty: the worst tenant (1) moves to the empty device.
        let slowdowns = [2.0, 3.0, 1.1];
        let next = rebalance(
            RebalancePolicyKind::SwapWorst,
            &[0, 0, 1],
            &tenants,
            3,
            100,
            &slowdowns,
        );
        assert_eq!(next, vec![0, 2, 1]);
        // Pin never moves anyone.
        let pinned = rebalance(
            RebalancePolicyKind::Pin,
            &[0, 0, 1],
            &tenants,
            3,
            100,
            &slowdowns,
        );
        assert_eq!(pinned, vec![0, 0, 1]);
    }

    #[test]
    fn validate_rejects_malformed_fleets() {
        let scale = ExperimentScale::tiny();
        let mut cfg = FleetConfig::new(0, VariantKind::SkyByteFull, scale);
        assert!(cfg.validate().is_err(), "zero devices");
        cfg.devices = 1;
        assert!(cfg.validate().is_err(), "no tenants");
        cfg.tenants = vec![demand(WorkloadKind::Ycsb, scale.footprint_bytes + 1)];
        assert!(cfg.validate().is_err(), "tenant bigger than a device");
        cfg.tenants = vec![
            demand(WorkloadKind::Ycsb, scale.footprint_bytes),
            demand(WorkloadKind::Tpcc, scale.footprint_bytes),
        ];
        assert!(cfg.validate().is_err(), "rack overcommitted");
        cfg.devices = 2;
        assert!(cfg.validate().is_ok());
        cfg.tenants[0].threads = 0;
        assert!(cfg.validate().is_err(), "zero threads");
    }

    #[test]
    fn run_fleet_places_everyone_and_audits_clean() {
        let runner = Runner::new(2);
        let cfg = tiny_fleet(2, 4);
        let fr = run_fleet(&runner, &cfg);
        assert_eq!(fr.tenant_count(), 4);
        let report = audit_fleet(&fr);
        assert!(report.is_clean(), "{report}");
        // The serialised report lists every law it evaluated.
        #[derive(serde::Deserialize)]
        struct Checked {
            checked: Vec<String>,
        }
        let json = serde_json::to_string(&report).unwrap();
        let mut names = serde_json::from_str::<Checked>(&json).unwrap().checked;
        names.dedup();
        assert_eq!(
            names,
            [
                "fleet-placement-conservation",
                "fleet-capacity",
                "fleet-tenant-attribution",
                "fleet-slowdown-positive"
            ]
        );
        assert!(fr.slowdowns.iter().all(|s| *s > 0.0));
        assert!(fr.jain_fairness() > 0.0 && fr.jain_fairness() <= 1.0 + 1e-12);
    }

    #[test]
    fn agreeing_placements_hit_the_memo_table() {
        let runner = Runner::new(2);
        // A homogeneous population: first-fit and round-robin disagree on
        // *which* tenants share a device but agree on every device's
        // (workload, threads) composition, so the second fleet re-simulates
        // nothing.
        let scale = ExperimentScale::tiny();
        let mut cfg = FleetConfig::new(2, VariantKind::SkyByteFull, scale);
        cfg.tenants = vec![demand(WorkloadKind::Ycsb, scale.footprint_bytes / 2); 4];
        run_fleet(&runner, &cfg);
        let executed = runner.runs_executed();
        assert!(executed > 0);
        cfg.placement = PlacementPolicyKind::RoundRobin;
        run_fleet(&runner, &cfg);
        assert_eq!(
            runner.runs_executed(),
            executed,
            "equal compositions must be served from the memo table"
        );
        assert!(runner.memo_hits() > 0);
    }

    #[test]
    fn fleet_result_is_identical_across_jobs() {
        let cfg = tiny_fleet(2, 6);
        let a = run_fleet(&Runner::new(1), &cfg);
        let b = run_fleet(&Runner::new(4), &cfg);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.slowdowns, b.slowdowns);
        let results =
            |r: &FleetResult| -> Vec<_> { r.devices.iter().map(|d| d.result.clone()).collect() };
        assert_eq!(results(&a), results(&b));
    }

    /// Whether the rendered report lists `invariant` as violated.
    fn violated(r: &AuditReport, invariant: &str) -> bool {
        r.to_string().contains(&format!("  [{invariant}] "))
    }

    fn corrupted(f: impl FnOnce(&mut FleetResult)) -> AuditReport {
        let runner = Runner::new(2);
        let mut fr = run_fleet(&runner, &tiny_fleet(2, 4));
        f(&mut fr);
        audit_fleet(&fr)
    }

    #[test]
    fn audit_catches_placement_corruption() {
        let r = corrupted(|fr| fr.devices[0].tenants.push(1));
        assert!(violated(&r, "fleet-placement-conservation"), "{r}");
    }

    #[test]
    fn audit_catches_capacity_corruption() {
        let r = corrupted(|fr| fr.capacity = 1);
        assert!(violated(&r, "fleet-capacity"), "{r}");
    }

    #[test]
    fn audit_catches_attribution_corruption() {
        let r = corrupted(|fr| {
            fr.devices[0].tenants.pop();
        });
        // Dropping a placed tenant breaks both the partition and the
        // device's per-tenant attribution.
        assert!(violated(&r, "fleet-tenant-attribution"), "{r}");
        assert!(violated(&r, "fleet-placement-conservation"), "{r}");
    }

    #[test]
    fn audit_catches_slowdown_corruption() {
        let r = corrupted(|fr| fr.slowdowns[0] = f64::NAN);
        assert!(violated(&r, "fleet-slowdown-positive"), "{r}");
    }
}
