//! Failure drill: what one crashed group costs a campaign, and what the
//! application's monthly checkpoints buy back.
//!
//! Run: `cargo run --release --example failure_drill`

use ocean_atmosphere::prelude::*;

/// The paper's fused campaign under `plan`, resuming crashed scenarios
/// as `recovery` says.
fn run(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    plan: &FaultPlan,
    recovery: Recovery,
) -> CampaignOutcome {
    let config = CampaignConfig {
        recovery,
        ..CampaignConfig::default()
    };
    simulate_campaign(inst, table, grouping, &config, plan, &mut NullTracer)
        .expect("valid grouping")
}

fn main() {
    let (ns, nm, r) = (10u32, 240u32, 53u32);
    let table = reference_cluster(r).timing;
    let inst = Instance::new(ns, nm, r);
    let grouping = Heuristic::Knapsack
        .grouping(inst, &table)
        .expect("feasible");
    let clean = execute_default(inst, &table, &grouping)
        .expect("valid")
        .makespan;
    println!("campaign: NS = {ns}, NM = {nm}, R = {r}, grouping {grouping}");
    println!("failure-free makespan: {:.1} h\n", clean / 3600.0);

    for frac in [0.25f64, 0.5, 0.75] {
        let plan = FaultPlan::none().kill(0, clean * frac);
        for (label, recovery) in [
            ("monthly checkpoint", Recovery::MonthlyCheckpoint),
            ("no checkpoints    ", Recovery::RestartScenario),
        ] {
            match run(inst, &table, &grouping, &plan, recovery) {
                CampaignOutcome::Completed(done) => println!(
                    "crash at {:>3.0}% · {label}: makespan {:.1} h (+{:.1}%), {} month(s) lost in flight, {:.0} proc·s destroyed",
                    frac * 100.0,
                    done.makespan / 3600.0,
                    (done.makespan - clean) / clean * 100.0,
                    done.months_lost,
                    done.lost_proc_secs,
                ),
                CampaignOutcome::Stranded { completed_months } => println!(
                    "crash at {:>3.0}% · {label}: STRANDED after {completed_months} months",
                    frac * 100.0
                ),
            }
        }
        println!();
    }

    // Total blackout: every group dies.
    let mut blackout = FaultPlan::none();
    for g in 0..grouping.group_count() {
        blackout = blackout.kill(g, clean * 0.4);
    }
    match run(
        inst,
        &table,
        &grouping,
        &blackout,
        Recovery::MonthlyCheckpoint,
    ) {
        CampaignOutcome::Stranded { completed_months } => println!(
            "full blackout at 40%: stranded with {completed_months}/{} months completed",
            inst.nbtasks()
        ),
        other => println!("unexpected: {other:?}"),
    }
}
