//! Generic grouping heuristics over arbitrary moldable ranges.
//!
//! The knapsack formulation carries over verbatim: items are the legal
//! allocations of the workload's range, an item's value is
//! `1 / unit_secs(g)`, the constraints are `Σ g·n_g ≤ R` and
//! `Σ n_g ≤ chains`. The basic heuristic generalizes by sweeping the
//! range with the generic estimator (the closed form of Equations 1–5
//! would need re-derivation per workload; the estimator subsumes it).

use oa_knapsack::{solve_dp, Item, Problem};

use super::estimate::{estimate_generic, GenericEstimate, Groups};
use super::workload::Workload;
use crate::heuristics::{knapsack_groups, knapsack_items};

/// Errors from generic heuristic construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenericError {
    /// Not even the smallest allocation fits on the machine.
    MachineTooSmall {
        /// Processors available.
        resources: u32,
        /// Smallest legal allocation.
        min_alloc: u32,
    },
}

impl std::fmt::Display for GenericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenericError::MachineTooSmall {
                resources,
                min_alloc,
            } => write!(
                f,
                "{resources} processors cannot fit the smallest allocation ({min_alloc})"
            ),
        }
    }
}

impl std::error::Error for GenericError {}

/// The generic basic heuristic: for every allocation `g` in range,
/// form `min(chains, ⌊R/g⌋)` uniform groups, dedicate the remainder to
/// the trailing pool, score with the estimator, keep the best.
pub fn basic_generic(w: &Workload, r: u32) -> Result<Groups, GenericError> {
    let range = w.alloc_range();
    let mut best: Option<(f64, Groups)> = None;
    for g in range.allocations() {
        let count = (r / g).min(w.chains);
        if count == 0 {
            continue;
        }
        let pool = r - count * g;
        let cand = Groups::new(vec![g; count as usize], pool);
        let ms = estimate_generic(w, r, &cand)
            .expect("candidate is valid")
            .makespan;
        if best.as_ref().is_none_or(|(b, _)| ms < *b) {
            best = Some((ms, cand));
        }
    }
    best.map(|(_, g)| g).ok_or(GenericError::MachineTooSmall {
        resources: r,
        min_alloc: range.min_procs,
    })
}

/// The generic knapsack heuristic (the paper's Improvement 3 for any
/// chain-of-moldable-DAGs workload).
pub fn knapsack_generic(w: &Workload, r: u32) -> Result<Groups, GenericError> {
    let problem = Problem::new(workload_items(w), r, w.chains);
    let sol = solve_dp(&problem);
    knapsack_groups(&problem.items, &sol, r)
        .map(|(sizes, pool)| Groups::new(sizes, pool))
        .ok_or(GenericError::MachineTooSmall {
            resources: r,
            min_alloc: w.alloc_range().min_procs,
        })
}

/// The knapsack items of `w`: its allocation range priced by
/// `unit_secs`, at most one copy per chain.
fn workload_items(w: &Workload) -> Vec<Item> {
    knapsack_items(w.alloc_range().allocations(), |g| w.unit_secs(g), w.chains)
}

/// The balanced generic heuristic — our refinement of the knapsack
/// formulation for wide allocation ranges.
///
/// Raw throughput maximization has a blind spot the Ocean-Atmosphere
/// range (4..=11, a 2.75× spread) hides but wide ranges expose: when
/// the number of groups approaches the number of chains, each chain is
/// effectively pinned to one group, and a slow small group — added
/// because it still increases `Σ 1/T` — becomes the critical path
/// (`makespan ≥ units × unit_secs(smallest group)`). The fix: solve
/// the knapsack once per allowed group count `k ∈ 1..=chains`
/// (cardinality bound `k` instead of `chains`), include the uniform
/// groupings of the basic sweep, score every candidate with the event
/// estimator and keep the winner.
pub fn balanced_generic(w: &Workload, r: u32) -> Result<(Groups, GenericEstimate), GenericError> {
    let range = w.alloc_range();
    let items = workload_items(w);

    let mut best: Option<(GenericEstimate, Groups)> = None;
    let consider = |cand: Groups, best: &mut Option<(GenericEstimate, Groups)>| {
        if cand.validate(w, r).is_err() {
            return;
        }
        let e = estimate_generic(w, r, &cand).expect("validated");
        if best.as_ref().is_none_or(|(b, _)| e.makespan < b.makespan) {
            *best = Some((e, cand));
        }
    };

    // Per-count knapsack candidates.
    for k in 1..=w.chains {
        let sol = solve_dp(&Problem::new(items.clone(), r, k));
        if let Some((sizes, pool)) = knapsack_groups(&items, &sol, r) {
            consider(Groups::new(sizes, pool), &mut best);
        }
    }
    // Uniform candidates (the basic sweep).
    for g in range.allocations() {
        let count = (r / g).min(w.chains);
        if count > 0 {
            consider(
                Groups::new(vec![g; count as usize], r - count * g),
                &mut best,
            );
        }
    }

    best.map(|(e, g)| (g, e))
        .ok_or(GenericError::MachineTooSmall {
            resources: r,
            min_alloc: range.min_procs,
        })
}

/// Convenience: the best of every generic heuristic.
pub fn solve(w: &Workload, r: u32) -> Result<(Groups, GenericEstimate), GenericError> {
    balanced_generic(w, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::workload::{Phase, PhaseTime};
    use oa_workflow::moldable::MoldableSpec;

    /// A molecular-dynamics-like workload: wide allocation range
    /// (2..=16) with near-linear scaling then saturation.
    fn md_workload(chains: u32, units: u32) -> Workload {
        let range = MoldableSpec {
            min_procs: 2,
            max_procs: 16,
        };
        let table: Vec<f64> = range
            .allocations()
            .map(|p| 40.0 + 4000.0 / p as f64 + 3.0 * p as f64)
            .collect();
        Workload::new(
            chains,
            units,
            vec![
                Phase {
                    name: "md".into(),
                    time: PhaseTime::Moldable { range, table },
                    blocking: true,
                },
                Phase {
                    name: "traj".into(),
                    time: PhaseTime::Sequential(25.0),
                    blocking: false,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn raw_knapsack_has_a_per_chain_bottleneck_pitfall() {
        // Documented pitfall: on wide ranges the raw throughput
        // knapsack pins chains to slow small groups. At R = 16 it
        // chooses [3,3,3,3,2,2] (higher Σ1/T) over [4,4,4,4], yet the
        // size-2 groups run their chains ~2× slower — the makespan is
        // far worse. This is invisible in the paper's 4..=11 range but
        // fundamental to the generic extension.
        let w = md_workload(6, 200);
        let b = basic_generic(&w, 16).unwrap();
        let k = knapsack_generic(&w, 16).unwrap();
        let bm = estimate_generic(&w, 16, &b).unwrap().makespan;
        let km = estimate_generic(&w, 16, &k).unwrap().makespan;
        assert!(
            k.sizes().len() > b.sizes().len(),
            "knapsack should over-split here"
        );
        assert!(km > bm * 1.2, "pitfall vanished: basic {bm}, knapsack {km}");
    }

    #[test]
    fn balanced_beats_or_ties_both_everywhere_and_wins_somewhere() {
        let w = md_workload(6, 200);
        let mut strict_wins = 0;
        for r in (4..=120).step_by(3) {
            let Ok(b) = basic_generic(&w, r) else {
                continue;
            };
            let k = knapsack_generic(&w, r).expect("feasible");
            let bm = estimate_generic(&w, r, &b).unwrap().makespan;
            let km = estimate_generic(&w, r, &k).unwrap().makespan;
            let (_, e) = balanced_generic(&w, r).expect("feasible");
            assert!(
                e.makespan <= bm + 1e-9,
                "R={r}: balanced {} > basic {bm}",
                e.makespan
            );
            assert!(
                e.makespan <= km + 1e-9,
                "R={r}: balanced {} > knapsack {km}",
                e.makespan
            );
            if e.makespan < bm.min(km) - 1e-9 {
                strict_wins += 1;
            }
        }
        assert!(strict_wins > 0, "balanced never strictly improved on both");
    }

    #[test]
    fn generic_heuristics_match_oa_heuristics_on_oa_workloads() {
        use crate::heuristics::Heuristic;
        use crate::params::Instance;
        use oa_platform::speedup::PcrModel;

        let table = PcrModel::reference().table(1.0).unwrap();
        for r in [23u32, 53, 87] {
            let w = Workload::ocean_atmosphere(10, 48, &table);
            let inst = Instance::new(10, 48, r);
            let oa = Heuristic::Knapsack.grouping(inst, &table).unwrap();
            let gen = knapsack_generic(&w, r).unwrap();
            assert_eq!(oa.groups(), gen.sizes(), "R = {r}");
            assert_eq!(oa.post_procs, gen.pool, "R = {r}");
        }
    }

    #[test]
    fn machine_too_small() {
        let w = md_workload(2, 2);
        assert_eq!(
            basic_generic(&w, 1),
            Err(GenericError::MachineTooSmall {
                resources: 1,
                min_alloc: 2
            })
        );
        assert_eq!(
            knapsack_generic(&w, 1),
            Err(GenericError::MachineTooSmall {
                resources: 1,
                min_alloc: 2
            })
        );
    }

    #[test]
    fn solve_picks_the_best_candidate() {
        let w = md_workload(5, 12);
        for r in [10u32, 33, 64] {
            let (g, e) = solve(&w, r).unwrap();
            let b = estimate_generic(&w, r, &basic_generic(&w, r).unwrap()).unwrap();
            let k = estimate_generic(&w, r, &knapsack_generic(&w, r).unwrap()).unwrap();
            assert!(e.makespan <= b.makespan + 1e-9);
            assert!(e.makespan <= k.makespan + 1e-9);
            g.validate(&w, r).unwrap();
        }
    }

    #[test]
    fn sequential_only_workload_degenerates_to_pool_scheduling() {
        let w = Workload::new(
            4,
            6,
            vec![Phase {
                name: "s".into(),
                time: PhaseTime::Sequential(10.0),
                blocking: true,
            }],
        )
        .unwrap();
        let g = knapsack_generic(&w, 4).unwrap();
        // Four chains, four single-processor "groups".
        assert_eq!(g.sizes(), &[1, 1, 1, 1]);
        let e = estimate_generic(&w, 4, &g).unwrap();
        assert_eq!(e.makespan, 60.0);
    }
}
