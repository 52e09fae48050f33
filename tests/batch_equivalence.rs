//! Bit-identity of the mass-batch variant engine: every variant a
//! batch sweep executes must equal running that variant individually
//! through `simulate_campaign_kernel`, bitwise, at any worker count —
//! the hard invariant of `oa_sim::batch`. Checkpoint resume, drain
//! prefix adoption and the quiet replay fast path are pure wall-clock
//! optimizations; if any of them moves a single output bit, these
//! properties fail.
//!
//! Case counts scale with the build profile: the release-mode CI
//! differential job runs 256 cases, a debug `cargo test` keeps the
//! quick count (the vendored proptest is deterministic, so the release
//! run strictly extends the debug one).

use ocean_atmosphere::par::Pool;
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::service::daemon::{run_script, Service, ServiceConfig};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 256 };

/// Worker counts under test: the serial short-circuit, a typical small
/// pool, and an oversubscribed one.
const JOBS: [usize; 3] = [1, 2, 8];

const POLICIES: [ScenarioPolicy; 3] = [
    ScenarioPolicy::LeastAdvanced,
    ScenarioPolicy::RoundRobin,
    ScenarioPolicy::MostAdvanced,
];

/// Integral-second timing tables, so shapes are kernel-eligible and
/// the batch head path actually engages (fractional tables fall back
/// to per-variant runs, covered by `spec.fault_resolution` below).
fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..2000,
        1u32..300,
        proptest::collection::vec(0u32..300, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let mut main = [0.0f64; 8];
            let mut acc = f64::from(t11);
            for i in (0..8).rev() {
                main[i] = acc;
                acc += f64::from(bumps[i]);
            }
            TimingTable::new(main, f64::from(tp)).expect("non-increasing by construction")
        })
}

/// Small random sweep specs: one or two `R` values, a policy, fused
/// and/or unfused granularity, multi-fault Monte Carlo plans, and an
/// occasional fractional fault lattice (which exercises the non-`u64`
/// fault-time path).
fn arb_spec() -> impl Strategy<Value = BatchSpec> {
    (
        // (table, ns, nm, r, two R values?)
        (
            arb_integral_table(),
            2u32..=5,
            6u32..=40,
            12u32..=40,
            0u32..2,
        ),
        // (policy, granularity mask [1 fused, 2 unfused, 3 both],
        //  max faults, fractional fault lattice?, variants per shape)
        (
            0usize..POLICIES.len(),
            1u32..=3,
            1u32..=3,
            0u32..2,
            4u32..=16,
        ),
        0u32..u32::MAX, // seed material
    )
        .prop_map(
            |((table, ns, nm, r, two_rs), (pol, mask, max_faults, frac, variants), seed)| {
                let seed = u64::from(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut spec = BatchSpec::reference_mc(u64::from(variants), seed);
                spec.table = table;
                spec.nss = vec![ns];
                spec.nms = vec![nm];
                spec.rs = if two_rs == 1 { vec![r, r + 1] } else { vec![r] };
                spec.policies = vec![POLICIES[pol]];
                spec.granularities = match mask {
                    1 => vec![Granularity::Fused],
                    2 => vec![Granularity::Unfused],
                    _ => vec![Granularity::Fused, Granularity::Unfused],
                };
                spec.max_faults = max_faults;
                spec.fault_resolution = if frac == 1 { 0.5 } else { 1.0 };
                spec
            },
        )
}

/// Runs every variant of `spec` individually through the engine —
/// the ground truth the batch engine must reproduce bitwise.
fn individual_rows(spec: &BatchSpec) -> Vec<VariantOut> {
    let mut memo = PlanMemo::new();
    let shapes = expand_shapes(spec, &mut memo).expect("arb specs are feasible");
    let mut rows = Vec::new();
    let mut faults = Vec::new();
    for shape in &shapes {
        for v in 0..spec.variants_per_shape {
            faults_for(spec, shape, v, &mut faults);
            let plan = FaultPlan {
                failures: faults.clone(),
            };
            let (outcome, _) = simulate_campaign_kernel(
                shape.inst,
                &spec.table,
                &shape.grouping,
                &shape.config,
                &plan,
                KernelOpts::default(),
                &mut NullTracer,
            )
            .expect("expand_shapes validated the grouping");
            rows.push(VariantOut::of(&outcome, shape.inst));
        }
    }
    rows
}

/// The `sweep_knapsack` benchmark request: the paper's knapsack
/// groupings at R ∈ {25, 53, 99}, fused and unfused, up to two faults
/// per variant.
fn knapsack_sweep_spec() -> BatchSpec {
    let mut spec = BatchSpec::reference_mc(20, 7);
    spec.heuristic = Heuristic::Knapsack;
    spec.rs = vec![25, 53, 99];
    spec.granularities = vec![Granularity::Fused, Granularity::Unfused];
    spec.max_faults = 2;
    spec.fault_resolution = 1.0;
    spec
}

/// Golden checksums of the knapsack sweep and of its unfused half on a
/// fractional fault lattice. The knapsack groupings give every
/// processor to a main-task group, so the unfused shapes drain all
/// their post steps after the main phase: these pin the unfused
/// drain's pop order across changes to its queues.
#[test]
fn knapsack_sweep_checksums_are_pinned() {
    let pool = Pool::new(2);
    let spec = knapsack_sweep_spec();
    let naive = run_naive(&spec, &pool).expect("feasible");
    assert_eq!(naive.summary().checksum, "2c6524d301fd2c11");
    let mut unfused = spec;
    unfused.granularities = vec![Granularity::Unfused];
    unfused.fault_resolution = 0.25;
    let naive = run_naive(&unfused, &pool).expect("feasible");
    assert_eq!(naive.summary().checksum, "c533cfa2e33d8a42");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The hard invariant: batch == naive == one-at-a-time engine
    /// runs, row for row, at every worker count.
    #[test]
    fn batch_rows_equal_individual_runs_at_any_jobs(spec in arb_spec()) {
        let truth = individual_rows(&spec);
        let serial = Pool::serial();
        let reference = run_batch(&spec, &serial).expect("feasible");
        prop_assert_eq!(reference.outs.len(), truth.len());
        for (i, want) in truth.iter().enumerate() {
            prop_assert_eq!(reference.outs.at(i), *want, "batch row {} diverged", i);
        }
        let naive = run_naive(&spec, &serial).expect("feasible");
        prop_assert_eq!(
            naive.summary().checksum,
            reference.summary().checksum,
            "naive loop diverged from batch"
        );
        for jobs in JOBS {
            let pool = Pool::new(jobs);
            for share in [true, false] {
                let report = if share {
                    run_batch(&spec, &pool)
                } else {
                    run_naive(&spec, &pool)
                }
                .expect("feasible");
                prop_assert_eq!(
                    report.summary().checksum,
                    reference.summary().checksum,
                    "jobs = {}, share = {} moved the checksum", jobs, share
                );
            }
        }
    }

    /// Unfused shapes never qualify for a shared head; they must fall
    /// back to per-variant execution and still agree.
    #[test]
    fn unfused_shapes_share_nothing_and_agree(spec in arb_spec()) {
        let mut spec = spec;
        spec.granularities = vec![Granularity::Unfused];
        let pool = Pool::serial();
        let batch = run_batch(&spec, &pool).expect("feasible");
        prop_assert_eq!(batch.heads, 0, "unfused shapes must not capture heads");
        let naive = run_naive(&spec, &pool).expect("feasible");
        prop_assert_eq!(batch.summary().checksum, naive.summary().checksum);
    }

    /// `VariantSweep` over the service wire: scripted transcripts are
    /// byte-identical at every worker count (the daemon's determinism
    /// contract extends to the batch engine).
    #[test]
    fn service_sweep_transcripts_are_jobs_invariant(
        (ns, nm, r) in (2u32..=4, 6u32..=24, 12u32..=30),
        (variants, max_faults, seed) in (4u32..=12, 1u32..=2, 0u32..u32::MAX),
    ) {
        let script = format!(
            "{{\"Hello\": {{\"version\": 1}}}}\n\
             {{\"VariantSweep\": {{\"spec\": {{\"r\": {r}, \"ns\": {ns}, \"nm\": {nm}, \
              \"variants\": {variants}, \"max_faults\": {max_faults}, \"seed\": {seed}}}}}}}\n"
        );
        let mut logs = Vec::new();
        for jobs in JOBS {
            let mut service = Service::new(ServiceConfig::default(), jobs);
            logs.push(run_script(&mut service, &script));
        }
        prop_assert!(logs[0].contains("\"SweepReport\""), "log:\n{}", logs[0]);
        prop_assert_eq!(&logs[0], &logs[1], "jobs 1 vs 2 transcripts differ");
        prop_assert_eq!(&logs[0], &logs[2], "jobs 1 vs 8 transcripts differ");
    }
}
