//! Grid-level execution: run a scenario repartition across clusters.
//!
//! This is the simulation backend of Section 6: given the repartition
//! computed by Algorithm 1, each cluster independently schedules its
//! subset of scenarios with a grouping heuristic (step 6 of Figure 9);
//! the grid makespan is the slowest cluster's makespan. Scenarios never
//! migrate — "once a scenario has been scheduled on a cluster, it can
//! not change location" (Section 5).
//!
//! Every entry point runs the one per-cluster loop of [`execute_grid`]:
//! the cluster's scenarios → the heuristic's grouping → a `Decision`
//! event → [`simulate_campaign`] through a [`ClusterTag`], optionally
//! bracketed by wide-area stage-in and repatriation. Each cluster runs
//! its own [`ClusterCampaign`] (the full [`CampaignConfig`] plus a
//! fault plan); the [`ExecConfig`] entry points give every cluster the
//! paper's fused, fault-free campaign under one scenario policy.

use serde::{Deserialize, Serialize};

use oa_platform::cluster::ClusterId;
use oa_platform::grid::Grid;
use oa_sched::hetero::{grid_performance, repartition, Repartition};
use oa_sched::heuristics::{Heuristic, HeuristicError};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_trace::{EventKind, NullTracer, TraceEvent, Tracer, TransferKind};

use crate::engine::{simulate_campaign, CampaignOutcome};
use crate::executor::ExecConfig;
use crate::schedule::Schedule;
use crate::tracing::ClusterTag;
use crate::transfer::{staging_delays, Link, StagingModel};

/// One cluster's part of a grid execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterOutcome {
    /// Which cluster.
    pub cluster: ClusterId,
    /// Global scenario ids this cluster ran (local id = index here).
    pub scenarios: Vec<u32>,
    /// The cluster's campaign (scenario ids are *local*), if any
    /// scenarios were assigned.
    pub outcome: Option<CampaignOutcome>,
}

impl ClusterOutcome {
    /// Local makespan (0 when the cluster ran nothing or was stranded).
    pub fn makespan(&self) -> f64 {
        self.outcome
            .as_ref()
            .and_then(CampaignOutcome::makespan)
            .unwrap_or(0.0)
    }

    /// The local schedule, recorded when the cluster ran a fused
    /// campaign with an empty fault plan.
    pub fn schedule(&self) -> Option<&Schedule> {
        self.outcome.as_ref()?.completed()?.schedule.as_ref()
    }
}

/// Outcome of a full grid execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridOutcome {
    /// The repartition that was executed.
    pub repartition: Repartition,
    /// Per-cluster outcomes, in cluster-id order.
    pub clusters: Vec<ClusterOutcome>,
    /// Grid makespan: the slowest completed cluster, staging included.
    pub makespan: f64,
    /// Whether every used cluster completed its campaign (no cluster
    /// was stranded by its fault plan).
    pub complete: bool,
}

/// One cluster's campaign knobs: the full [`CampaignConfig`] (scenario
/// policy × task granularity × recovery model) plus a [`FaultPlan`]
/// whose group ids are local to the cluster's grouping.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterCampaign {
    /// The cluster's event-loop configuration.
    pub config: CampaignConfig,
    /// Group failures to inject on this cluster.
    pub faults: FaultPlan,
}

/// The paper's campaign under `config` on every cluster of `grid`.
fn uniform(grid: &Grid, config: ExecConfig) -> Vec<ClusterCampaign> {
    let campaign = ClusterCampaign {
        config: CampaignConfig::fused(config.policy),
        faults: FaultPlan::none(),
    };
    vec![campaign; grid.len()]
}

/// Plans (via Algorithm 1 on `heuristic`'s performance vectors) and
/// executes `ns` scenarios of `nm` months on `grid`.
pub fn run_grid(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    config: ExecConfig,
) -> Result<GridOutcome, HeuristicError> {
    run_grid_traced(grid, heuristic, ns, nm, config, &mut NullTracer)
}

/// Like [`run_grid`], but streams every cluster's execution into
/// `tracer` (see [`execute_grid`]).
pub fn run_grid_traced<T: Tracer>(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    config: ExecConfig,
    tracer: &mut T,
) -> Result<GridOutcome, HeuristicError> {
    let plan = repartition(&grid_performance(grid, heuristic, ns, nm));
    execute_repartition_traced(grid, &plan, heuristic, nm, config, tracer)
}

/// Executes an existing repartition on `grid`.
pub fn execute_repartition(
    grid: &Grid,
    plan: &Repartition,
    heuristic: Heuristic,
    nm: u32,
    config: ExecConfig,
) -> Result<GridOutcome, HeuristicError> {
    execute_repartition_traced(grid, plan, heuristic, nm, config, &mut NullTracer)
}

/// Traced variant of [`execute_repartition`]; see [`execute_grid`].
pub fn execute_repartition_traced<T: Tracer>(
    grid: &Grid,
    plan: &Repartition,
    heuristic: Heuristic,
    nm: u32,
    config: ExecConfig,
    tracer: &mut T,
) -> Result<GridOutcome, HeuristicError> {
    let campaigns = uniform(grid, config);
    execute_grid(grid, plan, heuristic, nm, &campaigns, None, tracer)
}

/// Like [`run_grid`], but charges wide-area staging costs per cluster
/// (stage-in before the first month, final repatriation after the last
/// one) using one [`Link`] per cluster.
pub fn run_grid_with_staging(
    grid: &Grid,
    heuristic: Heuristic,
    ns: u32,
    nm: u32,
    config: ExecConfig,
    links: &[Link],
    staging: &StagingModel,
) -> Result<GridOutcome, HeuristicError> {
    let plan = repartition(&grid_performance(grid, heuristic, ns, nm));
    let campaigns = uniform(grid, config);
    let staging = Some((links, staging));
    execute_grid(
        grid,
        &plan,
        heuristic,
        nm,
        &campaigns,
        staging,
        &mut NullTracer,
    )
}

/// Executes `plan` on `grid`, cluster `i` running `campaigns[i]` on the
/// grouping `heuristic` picks for its scenarios. Every cluster's events
/// reach `tracer` stamped with its cluster id (see [`ClusterTag`]).
///
/// Without `staging`, each used cluster's stream opens with a
/// `Decision` event naming the grouping. With `staging` (one link per
/// cluster), the cluster's events are shifted onto the grid timeline by
/// its stage-in delay and bracketed by `TransferStart`/`TransferFinish`
/// pairs for the stage-in and the final repatriation instead, and the
/// cluster's contribution to the grid makespan includes both.
///
/// Panics if `campaigns` or the links do not have one entry per
/// cluster.
pub fn execute_grid<T: Tracer>(
    grid: &Grid,
    plan: &Repartition,
    heuristic: Heuristic,
    nm: u32,
    campaigns: &[ClusterCampaign],
    staging: Option<(&[Link], &StagingModel)>,
    tracer: &mut T,
) -> Result<GridOutcome, HeuristicError> {
    assert_eq!(campaigns.len(), grid.len(), "one campaign per cluster");
    if let Some((links, _)) = staging {
        assert_eq!(links.len(), grid.len(), "one link per cluster");
    }
    let mut clusters = Vec::with_capacity(grid.len());
    let mut makespan = 0.0f64;
    let mut complete = true;
    for ((id, cluster), campaign) in grid.iter().zip(campaigns) {
        let scenarios = plan.scenarios_of(id);
        let outcome = if scenarios.is_empty() {
            None
        } else {
            let n = scenarios.len() as u32;
            let inst = Instance::new(n, nm, cluster.resources);
            let grouping = heuristic.grouping(inst, &cluster.timing)?;
            let delays =
                staging.map(|(links, model)| staging_delays(model, &links[id.index()], n, nm));
            let (pre, post) = delays.unwrap_or((0.0, 0.0));
            // Compute events start after stage-in completes.
            let mut tag = ClusterTag::new(tracer, id.0, pre);
            if tag.enabled() {
                if delays.is_some() {
                    // From absolute t = 0, before the tag's offset.
                    record_transfer(&mut tag, TransferKind::StageIn, n, -pre, pre);
                } else {
                    tag.record(TraceEvent::at(
                        0.0,
                        EventKind::Decision {
                            heuristic: heuristic.label().to_string(),
                            groups: grouping.groups().to_vec(),
                            post_procs: grouping.post_procs,
                        },
                    ));
                }
            }
            let out = simulate_campaign(
                inst,
                &cluster.timing,
                &grouping,
                &campaign.config,
                &campaign.faults,
                &mut tag,
            )
            .expect("heuristics build valid groupings");
            match &out {
                CampaignOutcome::Completed(run) => {
                    if delays.is_some() && tag.enabled() {
                        record_transfer(&mut tag, TransferKind::Repatriate, n, run.makespan, post);
                    }
                    makespan = makespan.max(pre + run.makespan + post);
                }
                CampaignOutcome::Stranded { .. } => complete = false,
            }
            Some(out)
        };
        clusters.push(ClusterOutcome {
            cluster: id,
            scenarios,
            outcome,
        });
    }
    Ok(GridOutcome {
        repartition: plan.clone(),
        clusters,
        makespan,
        complete,
    })
}

/// Records a wide-area transfer of `scenarios` scenarios' data that
/// starts at `start` (cluster time) and takes `secs`.
fn record_transfer<T: Tracer>(
    tag: &mut ClusterTag<'_, T>,
    kind: TransferKind,
    scenarios: u32,
    start: f64,
    secs: f64,
) {
    tag.record(TraceEvent::at(
        start,
        EventKind::TransferStart {
            kind,
            scenarios,
            secs,
        },
    ));
    tag.record(TraceEvent::at(
        start + secs,
        EventKind::TransferFinish { kind, scenarios },
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use oa_platform::presets::benchmark_grid;

    #[test]
    fn grid_run_covers_all_scenarios() {
        let grid = benchmark_grid(30);
        let out = run_grid(&grid, Heuristic::Knapsack, 10, 12, ExecConfig::default()).unwrap();
        let total: usize = out.clusters.iter().map(|c| c.scenarios.len()).sum();
        assert_eq!(total, 10);
        for c in &out.clusters {
            if let Some(s) = c.schedule() {
                s.validate().unwrap();
                assert_eq!(s.instance.ns as usize, c.scenarios.len());
            }
        }
    }

    #[test]
    fn grid_makespan_is_max_cluster_makespan() {
        let grid = benchmark_grid(25);
        let out = run_grid(&grid, Heuristic::Basic, 8, 10, ExecConfig::default()).unwrap();
        let max = out
            .clusters
            .iter()
            .map(super::ClusterOutcome::makespan)
            .fold(0.0, f64::max);
        assert_eq!(out.makespan, max);
        assert!(out.makespan > 0.0);
    }

    #[test]
    fn simulated_makespan_close_to_predicted() {
        // The performance vectors *are* simulated makespans, so the
        // executed grid must match the planner's prediction exactly.
        let grid = benchmark_grid(40);
        let vectors = grid_performance(&grid, Heuristic::Knapsack, 10, 12);
        let plan = repartition(&vectors);
        let predicted = plan.predicted_makespan(&vectors);
        let out = execute_repartition(&grid, &plan, Heuristic::Knapsack, 12, ExecConfig::default())
            .unwrap();
        assert!(
            (out.makespan - predicted).abs() < 1e-6,
            "executed {} vs predicted {predicted}",
            out.makespan
        );
    }

    #[test]
    fn more_clusters_never_slow_the_grid() {
        let grid = benchmark_grid(20);
        let mut prev = f64::INFINITY;
        for n in 1..=5 {
            let sub = grid.take(n);
            let out = run_grid(&sub, Heuristic::Knapsack, 10, 12, ExecConfig::default()).unwrap();
            assert!(
                out.makespan <= prev + 1e-6,
                "grid of {n} clusters slower than {}: {} > {prev}",
                n - 1,
                out.makespan
            );
            prev = out.makespan;
        }
    }

    #[test]
    fn staging_adds_a_small_constant() {
        let grid = benchmark_grid(25);
        let links = vec![Link::gigabit(); grid.len()];
        let plain = run_grid(&grid, Heuristic::Knapsack, 10, 12, ExecConfig::default()).unwrap();
        let staged = run_grid_with_staging(
            &grid,
            Heuristic::Knapsack,
            10,
            12,
            ExecConfig::default(),
            &links,
            &StagingModel::default(),
        )
        .unwrap();
        assert!(staged.makespan > plain.makespan);
        // Staging is seconds against hours of computation.
        assert!(staged.makespan < plain.makespan + 60.0);
    }

    #[test]
    #[should_panic(expected = "one link per cluster")]
    fn staging_requires_matching_links() {
        let grid = benchmark_grid(25);
        let _ = run_grid_with_staging(
            &grid,
            Heuristic::Basic,
            2,
            2,
            ExecConfig::default(),
            &[Link::gigabit()],
            &StagingModel::default(),
        );
    }

    #[test]
    fn traced_grid_stamps_every_event_with_its_cluster() {
        use oa_trace::prelude::*;
        let grid = benchmark_grid(30);
        let mut sink = VecTracer::new();
        let out = run_grid_traced(
            &grid,
            Heuristic::Knapsack,
            10,
            12,
            ExecConfig::default(),
            &mut sink,
        )
        .unwrap();
        let events = sink.into_events();
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.cluster.is_some()));
        // Each used cluster announces its grouping decision.
        let decisions = events
            .iter()
            .filter(|e| {
                matches!(&e.kind, EventKind::Decision { heuristic, .. }
                    if heuristic == Heuristic::Knapsack.label())
            })
            .count();
        let used = out
            .clusters
            .iter()
            .filter(|c| c.schedule().is_some())
            .count();
        assert_eq!(decisions, used);
        // The slowest cluster's campaign end is the grid makespan.
        let max_end = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::CampaignEnd { makespan } => Some(makespan),
                _ => None,
            })
            .fold(0.0, f64::max);
        assert!((max_end - out.makespan).abs() < 1e-9);
    }

    #[test]
    fn traced_staging_brackets_the_computation() {
        use oa_trace::prelude::*;
        let grid = benchmark_grid(25);
        let links = vec![Link::gigabit(); grid.len()];
        let mut sink = VecTracer::new();
        let plan = repartition(&grid_performance(&grid, Heuristic::Knapsack, 10, 12));
        let out = execute_grid(
            &grid,
            &plan,
            Heuristic::Knapsack,
            12,
            &uniform(&grid, ExecConfig::default()),
            Some((&links, &StagingModel::default())),
            &mut sink,
        )
        .unwrap();
        let untraced = run_grid_with_staging(
            &grid,
            Heuristic::Knapsack,
            10,
            12,
            ExecConfig::default(),
            &links,
            &StagingModel::default(),
        )
        .unwrap();
        assert_eq!(out, untraced);
        let events = sink.into_events();
        // Stage-ins start at the grid origin…
        assert!(events.iter().any(|e| {
            matches!(
                e.kind,
                EventKind::TransferStart {
                    kind: TransferKind::StageIn,
                    ..
                }
            ) && e.t == 0.0
        }));
        // …and the last repatriation lands exactly at the grid makespan.
        let last_repatriation = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::TransferFinish {
                        kind: TransferKind::Repatriate,
                        ..
                    }
                )
            })
            .map(|e| e.t)
            .fold(0.0, f64::max);
        assert!(
            (last_repatriation - out.makespan).abs() < 1e-9,
            "{last_repatriation} vs {}",
            out.makespan
        );
    }

    /// Plans `ns × nm` with Knapsack and runs `campaigns` on it.
    fn run_configured(grid: &Grid, ns: u32, nm: u32, campaigns: &[ClusterCampaign]) -> GridOutcome {
        let plan = repartition(&grid_performance(grid, Heuristic::Knapsack, ns, nm));
        execute_grid(
            grid,
            &plan,
            Heuristic::Knapsack,
            nm,
            campaigns,
            None,
            &mut NullTracer,
        )
        .unwrap()
    }

    #[test]
    fn configured_grid_with_defaults_matches_the_plain_run() {
        let grid = benchmark_grid(30);
        let plain = run_grid(&grid, Heuristic::Knapsack, 10, 12, ExecConfig::default()).unwrap();
        let campaigns = vec![ClusterCampaign::default(); grid.len()];
        let configured = run_configured(&grid, 10, 12, &campaigns);
        assert!(configured.complete);
        assert_eq!(configured.makespan.to_bits(), plain.makespan.to_bits());
        assert_eq!(configured.repartition, plain.repartition);
        for (c, p) in configured.clusters.iter().zip(&plain.clusters) {
            assert_eq!(c.scenarios, p.scenarios);
            assert_eq!(c.makespan().to_bits(), p.makespan().to_bits());
        }
    }

    #[test]
    fn per_cluster_knobs_are_independent() {
        use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, ScenarioPolicy};
        let grid = benchmark_grid(30);
        // Cluster 0 runs unfused + round-robin; cluster 1 takes a
        // mid-campaign group failure; the rest keep the paper defaults.
        let mut campaigns = vec![ClusterCampaign::default(); grid.len()];
        campaigns[0].config = CampaignConfig::unfused(ScenarioPolicy::RoundRobin);
        campaigns[1].faults = FaultPlan::none().kill(0, 2000.0);
        let out = run_configured(&grid, 10, 12, &campaigns);
        assert!(out.complete, "one group failure cannot strand a cluster");
        let defaults = vec![ClusterCampaign::default(); grid.len()];
        let base = run_configured(&grid, 10, 12, &defaults);
        // Untouched clusters are bitwise unchanged…
        for i in 2..grid.len() {
            assert_eq!(
                out.clusters[i].makespan().to_bits(),
                base.clusters[i].makespan().to_bits()
            );
        }
        // …and the failure made cluster 1 strictly slower.
        assert!(out.clusters[1].makespan() > base.clusters[1].makespan());
        let run = out.clusters[1]
            .outcome
            .as_ref()
            .unwrap()
            .completed()
            .unwrap();
        assert_eq!(run.months_lost, 1);
        // The unfused cluster still completed with a plausible makespan.
        assert!(out.clusters[0].makespan() > 0.0);
        assert_eq!(
            campaigns[0].config.granularity,
            Granularity::Unfused,
            "knob survived the round trip"
        );
    }

    #[test]
    fn killing_every_group_of_a_cluster_strands_the_grid() {
        use oa_sched::policy::FaultPlan;
        let grid = benchmark_grid(30);
        let defaults = vec![ClusterCampaign::default(); grid.len()];
        let base = run_configured(&grid, 10, 12, &defaults);
        let groups_used = {
            // Recover the grouping sizes cluster 0 used from its trace.
            use oa_trace::prelude::*;
            let mut sink = VecTracer::new();
            let vectors = grid_performance(&grid, Heuristic::Knapsack, 10, 12);
            let plan = repartition(&vectors);
            execute_grid(
                &grid,
                &plan,
                Heuristic::Knapsack,
                12,
                &defaults,
                None,
                &mut sink,
            )
            .unwrap();
            sink.into_events()
                .iter()
                .find_map(|e| match (&e.kind, e.cluster) {
                    (EventKind::Decision { groups, .. }, Some(0)) => Some(groups.len()),
                    _ => None,
                })
                .expect("cluster 0 announces its grouping")
        };
        let mut campaigns = defaults;
        campaigns[0].faults = FaultPlan {
            failures: (0..groups_used).map(|g| (g, 10.0)).collect(),
        };
        let out = run_configured(&grid, 10, 12, &campaigns);
        assert!(!out.complete, "an all-dead cluster strands the grid");
        assert!(matches!(
            out.clusters[0].outcome,
            Some(CampaignOutcome::Stranded { .. })
        ));
        // Survivors still finish their own assignments.
        for i in 1..grid.len() {
            assert_eq!(
                out.clusters[i].makespan().to_bits(),
                base.clusters[i].makespan().to_bits()
            );
        }
    }

    #[test]
    fn empty_cluster_has_no_schedule() {
        // One overwhelming cluster: the others should stay empty when a
        // single fast cluster minimizes every greedy step… with 1
        // scenario only the best cluster is used.
        let grid = benchmark_grid(30);
        let out = run_grid(&grid, Heuristic::Knapsack, 1, 6, ExecConfig::default()).unwrap();
        let used = out
            .clusters
            .iter()
            .filter(|c| c.schedule().is_some())
            .count();
        assert_eq!(used, 1);
        assert!(
            out.clusters[0].schedule().is_some(),
            "fastest (first) cluster should win"
        );
    }
}
