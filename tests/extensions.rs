//! Integration tests for the beyond-the-paper extensions: the generic
//! heuristic, the baselines, fusion and staging — exercised through
//! the facade crate as a user would.

use ocean_atmosphere::baselines::{cpr, cpr_batched, one_dag_at_a_time};
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::generic::{
    balanced_generic, estimate_generic, knapsack_generic, Workload,
};

/// The generic path specializes exactly to the Ocean-Atmosphere path:
/// same grouping, same makespan bits (both estimators run one loop).
#[test]
fn generic_specializes_to_oa() {
    let table = reference_cluster(77).timing;
    for (ns, nm, r) in [(10u32, 36u32, 53u32), (4, 60, 77), (7, 12, 30)] {
        let w = Workload::ocean_atmosphere(ns, nm, &table);
        let inst = Instance::new(ns, nm, r);
        let oa = Heuristic::Knapsack
            .grouping(inst, &table)
            .expect("feasible");
        let gen = knapsack_generic(&w, r).expect("feasible");
        assert_eq!(oa.groups(), gen.sizes());
        let oa_ms = estimate(inst, &table, &oa).expect("valid").makespan;
        let gen_ms = estimate_generic(&w, r, &gen).expect("valid").makespan;
        assert_eq!(oa_ms.to_bits(), gen_ms.to_bits(), "{oa_ms} vs {gen_ms}");
    }
}

/// The balanced refinement never loses to the paper's knapsack on the
/// paper's own workload (it includes it in the candidate pool).
#[test]
fn balanced_never_loses_on_oa_workloads() {
    let table = reference_cluster(120).timing;
    for r in (11..=120).step_by(7) {
        let w = Workload::ocean_atmosphere(10, 48, &table);
        let inst = Instance::new(10, 48, r);
        let knap = Heuristic::Knapsack
            .makespan(inst, &table)
            .expect("feasible");
        let (_, bal) = balanced_generic(&w, r).expect("feasible");
        assert!(
            bal.makespan <= knap + 1e-6,
            "R={r}: balanced {} vs knapsack {knap}",
            bal.makespan
        );
    }
}

/// Section 3 of the paper, end to end: the paper's heuristics dominate
/// the implemented related work on the paper's workload.
#[test]
fn paper_heuristics_dominate_related_work() {
    let table = reference_cluster(60).timing;
    let inst = Instance::new(10, 24, 60);
    let knap = Heuristic::Knapsack
        .makespan(inst, &table)
        .expect("feasible");
    let naive = one_dag_at_a_time(inst, &table).expect("feasible").makespan;
    let stuck = cpr(inst, &table).expect("feasible");
    let batched = cpr_batched(inst, &table).expect("feasible");
    assert!(knap < naive, "knapsack {knap} vs one-by-one {naive}");
    assert_eq!(stuck.accepted_steps, 0, "faithful CPR should plateau");
    assert!(knap <= batched.schedule.makespan + 1e-6);
}

/// Fusion safety at campaign scale, through the facade.
#[test]
fn fusion_is_safe_at_scale() {
    let table = reference_cluster(53).timing;
    let inst = Instance::new(10, 300, 53);
    let g = Heuristic::Knapsack
        .grouping(inst, &table)
        .expect("feasible");
    let fused = estimate(inst, &table, &g).expect("valid").makespan;
    let config = CampaignConfig::unfused(ScenarioPolicy::LeastAdvanced);
    let unfused = simulate_campaign(
        inst,
        &table,
        &g,
        &config,
        &FaultPlan::none(),
        &mut NullTracer,
    )
    .expect("valid")
    .makespan()
    .expect("fault-free runs complete");
    assert!((fused - unfused).abs() / fused < 0.005);
}

/// Staged grid runs stay ordered and close to unstaged ones.
#[test]
fn staging_preserves_placement_and_ordering() {
    let grid = benchmark_grid(28);
    let links = vec![Link::gigabit(); grid.len()];
    let plain = run_grid(&grid, Heuristic::Knapsack, 10, 24, ExecConfig::default()).expect("ok");
    let staged = run_grid_with_staging(
        &grid,
        Heuristic::Knapsack,
        10,
        24,
        ExecConfig::default(),
        &links,
        &StagingModel::default(),
    )
    .expect("ok");
    assert_eq!(plain.repartition, staged.repartition);
    assert!(staged.makespan >= plain.makespan);
    assert!(staged.makespan <= plain.makespan + 120.0);
}

/// Benchmark-file import round trip through the facade.
#[test]
fn import_round_trip() {
    let grid = benchmark_grid(40);
    let text = render_grid(&grid);
    let back = parse_grid(&text).expect("rendered grids parse");
    assert_eq!(back.len(), 5);
    // Scheduling on the re-imported grid gives identical results.
    let a = run_grid(&grid, Heuristic::Knapsack, 6, 12, ExecConfig::default()).expect("ok");
    let b = run_grid(&back, Heuristic::Knapsack, 6, 12, ExecConfig::default()).expect("ok");
    assert!((a.makespan - b.makespan).abs() < 1e-9);
}
