//! # oa-sim — discrete-event execution of Ocean-Atmosphere campaigns
//!
//! The validated simulation backend of the reproduction:
//!
//! * [`schedule`] — complete schedules (every task pinned to processors
//!   and times) with structural validation: multiplicities, DAG
//!   dependences, processor exclusivity, moldable group sizes;
//! * [`engine`] — the one generic discrete-event campaign loop, driven
//!   by an `oa_sched::policy::CampaignConfig` (scenario policy × task
//!   granularity × recovery model) plus a fault plan and a tracer.
//!   Unfused (Figure 1) and faulty campaigns are configurations of it,
//!   read straight from its `CampaignOutcome`. The loop carries a
//!   two-part simulation kernel (steady-state fast-forward + the
//!   integer-time [`calendar`] queue), bitwise identical to
//!   event-by-event execution and controlled via
//!   `engine::KernelOpts`;
//! * [`calendar`] — the O(1) integer-tick bucket queue backing the
//!   kernel's busy set;
//! * [`batch`] — the mass-batch variant engine: 10⁵–10⁶ Monte Carlo /
//!   grid variants per run with cross-variant sharing (planning memo,
//!   checkpoint-resume kernel heads, SoA result streaming), bitwise
//!   identical to running each variant individually;
//! * [`driver`] — session-resumable wrapper over the engine: one
//!   simulation pinned to a virtual start instant, with any later
//!   instant resolvable to a session state (the per-session backend
//!   of the `oa-service` daemon);
//! * [`executor`] — fused fault-free execution under the paper's
//!   least-advanced-first policy (plus round-robin and most-advanced
//!   ablations), producing full schedules — the engine's one
//!   single-cluster wrapper;
//! * [`gantt`] — ASCII Gantt rendering (the paper's Figures 3–6);
//! * [`metrics`] — utilization, fairness, phase-split accounting;
//! * [`tracing`] — bridges to the `oa-trace` observability layer:
//!   schedule → event-stream conversion and the cluster-tagging
//!   adapter for grid timelines;
//! * [`grid_exec`] — multi-cluster execution of an Algorithm 1
//!   repartition (the simulation behind Figure 10): one engine run per
//!   cluster, each with its own configuration and fault plan, with
//!   optional wide-area staging;
//! * [`grid_failures`] — whole-cluster loss at grid level, stranding
//!   or re-planning the victim's scenarios;
//! * [`transfer`] — wide-area staging and migration costs;
//! * [`persist`] — schedule persistence (JSON) and comparison;
//! * [`profile`] — processor-occupancy profiles of a schedule, split by
//!   phase;
//! * [`ir_exec`] — execution of the generalized workflow IR: a ready-
//!   set list scheduler driven purely by IR precedence for arbitrary
//!   DAGs, and a router that sends recognized ocean-atmosphere preset
//!   meshes through the legacy [`engine`] unchanged (byte-identical
//!   outputs, integer-time kernel gate preserved).
//!
//! The makespans produced here agree bit for bit with the fast
//! aggregate estimator `oa_sched::estimate`, an independent
//! implementation of the same policy that returns only aggregates
//! (property-tested in this crate), so heuristics can plan with the
//! estimator and the simulator remains the single source of truth for
//! *schedules*.
//!
//! # Examples
//!
//! ```
//! use oa_platform::prelude::*;
//! use oa_sched::prelude::*;
//! use oa_sim::prelude::*;
//!
//! let table = PcrModel::reference().table(1.0).unwrap();
//! let inst = Instance::new(4, 6, 30);
//! let grouping = Heuristic::Knapsack.grouping(inst, &table).unwrap();
//! let schedule = execute_default(inst, &table, &grouping).unwrap();
//! schedule.validate().unwrap();
//! println!("{}", render_default(&schedule));
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod calendar;
pub mod driver;
pub mod engine;
pub mod executor;
pub(crate) mod ffwd;
pub mod gantt;
pub mod grid_exec;
pub mod grid_failures;
pub mod ir_exec;
pub mod metrics;
pub mod persist;
pub mod profile;
pub mod schedule;
pub mod tracing;
pub mod transfer;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use crate::batch::{
        expand_shapes, faults_for, run_batch, run_naive, BatchError, BatchReport, BatchSoA,
        BatchSpec, ShapePlan, SweepSummary, VariantOut,
    };
    pub use crate::driver::{SessionDriver, SessionState};
    pub use crate::engine::{
        kernel_eligibility, simulate_campaign, simulate_campaign_kernel, CampaignOutcome,
        CampaignRun, KernelOpts, KernelReport,
    };
    pub use crate::executor::{
        execute, execute_default, execute_traced, ExecConfig, ScenarioPolicy,
    };
    pub use crate::gantt::{render, render_default, GanttOptions};
    pub use crate::grid_exec::{
        execute_grid, execute_repartition, execute_repartition_traced, run_grid, run_grid_traced,
        run_grid_with_staging, ClusterCampaign, ClusterOutcome, GridOutcome,
    };
    pub use crate::grid_failures::{
        run_grid_with_cluster_failure, ClusterFailurePolicy, ClusterFailureSpec, GridFailureOutcome,
    };
    pub use crate::ir_exec::{
        execute_ir, simulate_ir, IrExecError, IrOutcome, IrRecord, IrSchedule, IrSimError,
    };
    pub use crate::metrics::{metrics, metrics_from_events, Metrics};
    pub use crate::persist::{compare, load, save, PersistError, ScheduleDiff};
    pub use crate::profile::{profile, Profile, Step};
    pub use crate::schedule::{ProcRange, Schedule, ScheduleError, TaskRecord};
    pub use crate::tracing::{events_of, ClusterTag};
    pub use crate::transfer::{migration_secs, staging_delays, Link, StagingModel};
    pub use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery};
}

#[cfg(test)]
mod proptests {
    use crate::executor::{execute, ExecConfig, ScenarioPolicy};
    use oa_platform::timing::TimingTable;
    use oa_sched::estimate::estimate;
    use oa_sched::heuristics::Heuristic;
    use oa_sched::params::Instance;
    use proptest::prelude::*;

    fn arb_table() -> impl Strategy<Value = TimingTable> {
        (
            50.0f64..3000.0,
            1.0f64..400.0,
            proptest::collection::vec(0.0f64..400.0, 8),
        )
            .prop_map(|(t11, tp, bumps)| {
                let mut main = [0.0f64; 8];
                let mut acc = t11;
                for i in (0..8).rev() {
                    main[i] = acc;
                    acc += bumps[i];
                }
                TimingTable::new(main, tp).expect("non-increasing by construction")
            })
    }

    fn arb_instance() -> impl Strategy<Value = Instance> {
        (1u32..=10, 1u32..=25, 4u32..=130).prop_map(|(ns, nm, r)| Instance::new(ns, nm, r))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn schedules_validate_and_match_estimator((inst, table) in (arb_instance(), arb_table())) {
            for h in Heuristic::PAPER {
                let Ok(grouping) = h.grouping(inst, &table) else { continue };
                let sched = execute(inst, &table, &grouping, ExecConfig::default()).unwrap();
                prop_assert!(sched.validate().is_ok(), "{h:?}: invalid schedule");
                let est = estimate(inst, &table, &grouping).unwrap();
                prop_assert_eq!(sched.makespan.to_bits(), est.makespan.to_bits(),
                    "{h:?}: sim {} vs estimate {}", sched.makespan, est.makespan);
            }
        }

        #[test]
        fn random_fault_plans_behave(
            (inst, table) in (arb_instance(), arb_table()),
            kills in proptest::collection::vec((0usize..4, 0.0f64..1.5), 0..4),
        ) {
            use crate::engine::{simulate_campaign, CampaignOutcome};
            use oa_sched::policy::{CampaignConfig, FaultPlan};
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            let clean = estimate(inst, &table, &grouping).unwrap().makespan;
            let plan = FaultPlan {
                failures: kills
                    .iter()
                    .map(|&(g, f)| (g % grouping.group_count().max(1), f * clean))
                    .collect(),
            };
            let config = CampaignConfig::default(); // fused, monthly checkpoints
            let out = simulate_campaign(inst, &table, &grouping, &config, &plan, &mut oa_trace::NullTracer)
                .unwrap();
            match out {
                CampaignOutcome::Completed(run) => {
                    let (makespan, lost_proc_secs, months_lost) =
                        (run.makespan, run.lost_proc_secs, run.months_lost);
                    // NOTE: failures can legitimately *shorten* the
                    // campaign when groups are heterogeneous — killing a
                    // slow group re-homes its month onto a faster one,
                    // which the non-preemptive policy would never do on
                    // its own. So the bound is the critical path, not
                    // the failure-free makespan.
                    let lb = inst.nm as f64 * table.main_secs(11);
                    prop_assert!(makespan + 1e-6 >= lb,
                        "faulty {makespan} beats the critical path {lb}");
                    if grouping.groups().iter().all(|&g| g == grouping.groups()[0]) {
                        // Uniform groups: no re-homing speedup exists.
                        prop_assert!(makespan + 1e-6 >= clean,
                            "faulty {makespan} < clean {clean} with uniform groups");
                    }
                    let bound = plan.failures.len() as f64 * 11.0 * table.main_secs(4);
                    prop_assert!(lost_proc_secs <= bound + 1e-6);
                    prop_assert!(months_lost as usize <= plan.failures.len());
                }
                CampaignOutcome::Stranded { completed_months } => {
                    prop_assert!(completed_months < inst.nbtasks());
                }
            }
        }

        #[test]
        fn traced_registry_agrees_with_post_hoc_metrics((inst, table) in (arb_instance(), arb_table())) {
            // The live metrics fold (a `Metered` sink observing the
            // executor's event stream) and the post-hoc `metrics()`
            // aggregation must agree exactly — same fold, same order,
            // same bits.
            use oa_trace::metrics::keys;
            use oa_trace::Metered;
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            let mut sink = Metered::null();
            let sched = crate::executor::execute_traced(
                inst, &table, &grouping, ExecConfig::default(), &mut sink).unwrap();
            let m = crate::metrics::metrics(&sched);
            let snap = sink.registry.snapshot();
            prop_assert_eq!(snap.gauge(keys::PROC_SECS_MAIN), Some(m.main_proc_secs));
            prop_assert_eq!(snap.gauge(keys::PROC_SECS_POST), Some(m.post_proc_secs));
            prop_assert_eq!(snap.gauge(keys::MAKESPAN), Some(sched.makespan));
            prop_assert_eq!(snap.counter(keys::TASKS_MAIN), Some(inst.nbtasks()));
            prop_assert_eq!(snap.counter(keys::TASKS_POST), Some(inst.nbtasks()));
        }

        #[test]
        fn ir_execution_matches_the_list_scheduler((inst, table) in (arb_instance(), arb_table())) {
            // The generic IR executor, fed the lowered fused mesh, must
            // make exactly the decisions of the independently-written
            // moldable list scheduler with uniform max allocations —
            // bitwise times, identical record order.
            use crate::ir_exec::execute_ir;
            use oa_baselines::list_sched::{list_schedule, Allocations};
            use oa_workflow::ir::lower_fused;
            let ir = lower_fused(inst.shape());
            let got = execute_ir(&ir, &table, inst.r).unwrap();
            let want =
                list_schedule(inst, &table, &Allocations::uniform(inst.ns, 11.min(inst.r))).unwrap();
            prop_assert_eq!(got.makespan, want.makespan);
            prop_assert_eq!(got.records.len(), want.records.len());
            for (a, b) in got.records.iter().zip(&want.records) {
                let origin = ir.dag.node(a.node).origin.unwrap();
                prop_assert_eq!(origin.scenario, b.scenario);
                prop_assert_eq!(origin.month, b.month);
                prop_assert_eq!((a.procs, a.start, a.end), (b.procs, b.start, b.end));
            }
        }

        #[test]
        fn all_policies_produce_valid_schedules((inst, table) in (arb_instance(), arb_table())) {
            let Ok(grouping) = Heuristic::Knapsack.grouping(inst, &table) else { return Ok(()) };
            for policy in [ScenarioPolicy::LeastAdvanced, ScenarioPolicy::RoundRobin, ScenarioPolicy::MostAdvanced] {
                let sched = execute(inst, &table, &grouping, ExecConfig { policy }).unwrap();
                prop_assert!(sched.validate().is_ok(), "{policy:?}: invalid schedule");
                prop_assert_eq!(sched.records.len() as u64, inst.nbtasks() * 2);
            }
        }
    }
}
