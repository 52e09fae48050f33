//! Ablation of the paper's Section 4.1 task fusion: does scheduling
//! the fused two-task months lose anything against the original
//! seven-task DAG of Figure 1?
//!
//! Run: `cargo run --release -p oa-bench --bin fusion_ablation [--fast] [--jobs N]`

use oa_bench::{fast_mode, pool, row, stats, write_json, SweepRecorder};
use oa_platform::prelude::*;
use oa_sched::prelude::*;
use oa_sim::prelude::*;
use oa_trace::NullTracer;

fn main() {
    let nm = if fast_mode() { 60 } else { 600 };
    let ns = 10u32;
    let table = reference_cluster(120).timing;

    println!("== Fusion ablation (NS = {ns}, NM = {nm}) ==");
    println!("relative makespan difference, unfused 7-task DAG vs fused model\n");
    let widths = [5usize, 14, 14, 12];
    println!(
        "{}",
        row(
            &[
                "R".into(),
                "fused(h)".into(),
                "unfused(h)".into(),
                "delta(%)".into()
            ],
            &widths
        )
    );

    #[derive(serde::Serialize)]
    struct Point {
        r: u32,
        fused_secs: f64,
        unfused_secs: f64,
        delta_pct: f64,
    }
    let rs: Vec<u32> = (11..=120).step_by(3).collect();
    let pool = pool();
    let mut rec = SweepRecorder::start("fusion_ablation");
    let series: Vec<Point> = rec.phase("fusion_sweep", rs.len(), || {
        pool.par_map(&rs, |&r| {
            let inst = Instance::new(ns, nm, r);
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
            Point {
                r,
                fused_secs: fused,
                unfused_secs: unfused,
                delta_pct: (unfused - fused) / fused * 100.0,
            }
        })
    });
    for p in &series {
        println!(
            "{}",
            row(
                &[
                    p.r.to_string(),
                    format!("{:.2}", p.fused_secs / 3600.0),
                    format!("{:.2}", p.unfused_secs / 3600.0),
                    format!("{:+.4}", p.delta_pct),
                ],
                &widths
            )
        );
    }

    let deltas: Vec<f64> = series.iter().map(|p| p.delta_pct.abs()).collect();
    let s = stats(&deltas);
    println!(
        "\n|delta|: mean {:.4}%  max {:.4}% — the fusion decision of Section 4.1 is safe",
        s.mean, s.max
    );
    write_json("fusion_ablation", &series);
    rec.finish();
}
