//! Fast makespan evaluation of arbitrary groupings.
//!
//! The paper evaluates groupings by simulation: "The execution of
//! multiprocessor tasks is done by sorting the ready time of each group
//! of processors and when a group becomes ready, the month of the less
//! advanced simulation waiting is scheduled on this group"
//! (Section 4.3). This module implements that policy as a tight
//! event-driven list scheduler that returns the makespan (and a few
//! aggregates) without materializing a trace — heuristics call it in
//! inner loops, and the generic chain-of-units estimator
//! (`crate::generic`) runs the same loop on its own durations. The
//! full-featured simulator in `oa-sim` implements the same policy with
//! traces and validation and is property-tested to agree with this
//! estimator bit for bit.
//!
//! Policy details beyond the quoted sentence (all derivable from the
//! schedule figures and Equations 3–5):
//!
//! * a freed group takes the *waiting* (not running, not finished)
//!   scenario with the fewest completed months;
//! * when several groups are idle, the largest (fastest) group is
//!   served first;
//! * a group disbands — its processors join the post-processing pool —
//!   as soon as the number of live groups exceeds the number of
//!   unfinished scenarios (the surplus group could never receive work:
//!   each completion re-readies at most its own scenario);
//! * post tasks are FIFO on the pool of dedicated post processors plus
//!   disbanded group processors; with identical durations FIFO is
//!   optimal, and assigning each post to the earliest-available
//!   processor minimizes its start time.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;
use oa_workflow::task::MIN_PROCS;

use crate::grouping::{Grouping, GroupingError};
use crate::params::Instance;
use crate::time::{time_key, Time, TimeKey};

/// Reusable event-loop state. Heuristic searches call [`estimate`]
/// thousands of times per sweep point; keeping the heaps and arenas in
/// a thread-local and clearing them (which preserves capacity) makes
/// the inner loop allocation-free after warm-up. Each worker thread of
/// an `oa-par` pool gets its own scratch, so the parallel sweep path
/// shares nothing.
#[derive(Default)]
struct Scratch {
    /// Per-group main duration, `T[sizes[i]]`, filled by [`simulate`].
    durs: Vec<f64>,
    /// Busy groups: (finish time, group). Min-heap on the shared key.
    busy: BinaryHeap<TimeKey<usize>>,
    /// Which scenario each busy group is running.
    running: Vec<Option<u32>>,
    /// Waiting scenarios: least months first. Min-heap via `Reverse`.
    waiting: BinaryHeap<Reverse<(u32, u32)>>,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, sorted ascending by (size, index).
    idle: Vec<usize>,
    /// Main-task finish times, in completion order.
    post_ready: Vec<f64>,
    /// Post-processor availability times.
    post_pool: BinaryHeap<Reverse<Time>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Aggregates returned by [`estimate`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Completion time of the last main task.
    pub main_finish: f64,
    /// Completion time of the last post task.
    pub post_finish: f64,
    /// Aggregate processor-seconds spent inside main tasks.
    pub main_busy_proc_secs: f64,
    /// Aggregate processor-seconds spent inside post tasks.
    pub post_busy_proc_secs: f64,
}

impl Estimate {
    /// Mean processor utilization over the makespan.
    pub fn utilization(&self, inst: Instance) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        (self.main_busy_proc_secs + self.post_busy_proc_secs) / (self.makespan * inst.r as f64)
    }
}

/// Simulates the campaign of `inst` under `grouping` on a cluster with
/// timing `table`, returning makespan aggregates.
///
/// ```
/// use oa_platform::speedup::PcrModel;
/// use oa_sched::{estimate::estimate, grouping::Grouping, params::Instance};
///
/// let table = PcrModel::reference().table(1.0).unwrap();
/// let inst = Instance::new(10, 1800, 53);
/// // The paper's Improvement 1 grouping for R = 53.
/// let grouping = Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1);
/// let e = estimate(inst, &table, &grouping).unwrap();
/// assert!(e.makespan > 0.0 && e.utilization(inst) > 0.9);
/// ```
pub fn estimate(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<Estimate, GroupingError> {
    grouping.validate(inst)?;
    // The `T[G]` row, indexed by `G - 4` — one array load per group
    // instead of a spec lookup per `main_secs` call.
    let trow = table.main_array();
    let sizes = grouping.groups();
    Ok(simulate(
        inst,
        sizes,
        grouping.post_procs,
        table.post_secs(),
        sizes.iter().map(|&g| trow[(g - MIN_PROCS) as usize]),
    ))
}

/// The event loop on explicit inputs: `inst.ns` scenarios of `inst.nm`
/// months on groups of `sizes` processors whose main tasks take `durs`
/// seconds, `post_procs` dedicated post processors and `tp` seconds per
/// post. Validation is the caller's; [`estimate`] and
/// `generic::estimate_generic` are its two callers.
pub(crate) fn simulate(
    inst: Instance,
    sizes: &[u32],
    post_procs: u32,
    tp: f64,
    durs: impl IntoIterator<Item = f64>,
) -> Estimate {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.durs.clear();
        scratch.durs.extend(durs);
        run(inst, sizes, post_procs, tp, scratch)
    })
}

/// A lower bound on the makespan of any execution of `inst` on groups
/// of `sizes` processors whose main tasks take `durs` seconds
/// (`durs[i]` for group `i`), with `post_work` seconds of post
/// processing per month and `procs` processors in all (groups plus the
/// dedicated post pool).
///
/// The bound is the largest of three, each sound for every policy and
/// every fault plan (faults only destroy work). Write `N = NS·NM`,
/// `w` for the post work and `rate = Σ 1/d_i`:
///
/// * **chain**: each scenario runs its `NM` months one after another,
///   none faster than `d_min`, and the last post trails →
///   `NM·d_min + w`;
/// * **throughput**: group `i` finishes at most `T/d_i` months by time
///   `T`, so the `N` months need `T ≥ N/rate`, and the last post
///   trails → `N/rate + w`;
/// * **area**: the work is at least `N·min_i(g_i·d_i) + N·w`
///   processor-seconds, done on at most `procs` processors (disbanded
///   groups only move processors into the post pool).
///
/// The three hold in exact arithmetic; the simulated clock is a long
/// float sum, so a caller comparing against a simulated makespan grants
/// a relative `1e-9` slack. The static certifier (`oa-analyze`) and
/// the candidate pruning of the grouping heuristics share this one
/// function.
#[must_use]
pub fn lower_bound(inst: Instance, sizes: &[u32], durs: &[f64], post_work: f64, procs: u64) -> f64 {
    let n = inst.nbtasks() as f64;
    let nm = f64::from(inst.nm);
    let p = procs as f64;
    let w = post_work;
    let d_min = durs.iter().copied().fold(f64::INFINITY, f64::min);
    let rate: f64 = durs.iter().map(|&d| 1.0 / d).sum();
    let min_area = sizes
        .iter()
        .zip(durs)
        .map(|(&g, &d)| f64::from(g) * d)
        .fold(f64::INFINITY, f64::min);
    (nm * d_min + w)
        .max(n / rate + w)
        .max((n * min_area + n * w) / p)
}

/// The event loop proper, on pre-validated input and reusable state
/// whose `durs` already holds the per-group main durations.
fn run(inst: Instance, sizes: &[u32], post_procs: u32, tp: f64, scratch: &mut Scratch) -> Estimate {
    let nm = inst.nm;

    let Scratch {
        durs,
        busy,
        running,
        waiting,
        months_done,
        idle,
        post_ready,
        post_pool,
    } = scratch;
    let durs: &[f64] = durs;
    busy.clear();
    busy.reserve(sizes.len());
    running.clear();
    running.resize(sizes.len(), None);
    waiting.clear();
    waiting.reserve(inst.ns as usize);
    for s in 0..inst.ns {
        waiting.push(Reverse((0, s)));
    }
    months_done.clear();
    months_done.resize(inst.ns as usize, 0);
    let mut unfinished = inst.ns as usize;
    // Idle groups, kept sorted ascending by (size, index) — the largest
    // is at the back for O(1) pop, the smallest at the front to disband.
    idle.clear();
    idle.extend(0..sizes.len());
    idle.sort_unstable_by_key(|&g| (sizes[g], g));
    let mut alive = sizes.len();

    // Post bookkeeping.
    post_ready.clear();
    post_ready.reserve(inst.nbtasks() as usize);
    // Processor pool for posts: avail times (dedicated start at 0).
    post_pool.clear();
    post_pool.reserve(inst.r as usize);
    for _ in 0..post_procs {
        post_pool.push(Reverse(Time(0.0)));
    }

    let mut main_finish = 0.0f64;
    let mut main_busy = 0.0f64;

    // Assignment + disband pass at time `now`.
    let assign = |now: f64,
                  idle: &mut Vec<usize>,
                  waiting: &mut BinaryHeap<Reverse<(u32, u32)>>,
                  busy: &mut BinaryHeap<TimeKey<usize>>,
                  running: &mut Vec<Option<u32>>,
                  alive: &mut usize,
                  unfinished: usize,
                  post_pool: &mut BinaryHeap<Reverse<Time>>| {
        while !idle.is_empty() {
            if let Some(&Reverse((_, s))) = waiting.peek() {
                let g = idle.pop().expect("checked non-empty"); // largest idle group
                waiting.pop();
                running[g] = Some(s);
                busy.push(time_key(now + durs[g], g));
            } else {
                break;
            }
        }
        // Disband surplus: a group beyond the number of unfinished
        // scenarios can never receive another main task.
        while !idle.is_empty() && *alive > unfinished {
            let g = idle.remove(0); // smallest idle group
            *alive -= 1;
            for _ in 0..sizes[g] {
                post_pool.push(Reverse(Time(now)));
            }
        }
    };

    assign(
        0.0,
        &mut *idle,
        &mut *waiting,
        &mut *busy,
        &mut *running,
        &mut alive,
        unfinished,
        &mut *post_pool,
    );

    while let Some(Reverse((Time(t), g))) = busy.pop() {
        let s = running[g].take().expect("busy group has a scenario");
        months_done[s as usize] += 1;
        main_finish = t;
        main_busy += durs[g] * sizes[g] as f64;
        post_ready.push(t);
        if months_done[s as usize] == nm {
            unfinished -= 1;
        } else {
            waiting.push(Reverse((months_done[s as usize], s)));
        }
        // Re-insert g as idle, keeping the (size, index) order.
        let pos = idle
            .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
            .unwrap_err();
        idle.insert(pos, g);
        assign(
            t,
            &mut *idle,
            &mut *waiting,
            &mut *busy,
            &mut *running,
            &mut alive,
            unfinished,
            &mut *post_pool,
        );
    }
    debug_assert_eq!(unfinished, 0);
    debug_assert_eq!(post_ready.len(), inst.nbtasks() as usize);
    debug_assert!(post_ready.windows(2).all(|w| w[0] <= w[1]));

    // Post phase: FIFO on the pool (dedicated + disbanded processors).
    debug_assert!(!post_pool.is_empty(), "groups always disband eventually");
    let mut post_finish = 0.0f64;
    let mut post_busy = 0.0f64;
    for &ready in post_ready.iter() {
        let Reverse(Time(avail)) = post_pool.pop().expect("pool is non-empty");
        let start = if avail > ready { avail } else { ready };
        let fin = start + tp;
        post_busy += tp;
        if fin > post_finish {
            post_finish = fin;
        }
        post_pool.push(Reverse(Time(fin)));
    }

    Estimate {
        makespan: main_finish.max(post_finish),
        main_finish,
        post_finish,
        main_busy_proc_secs: main_busy,
        post_busy_proc_secs: post_busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;
    use oa_platform::speedup::PcrModel;
    use oa_platform::timing::TimingTable;

    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    #[test]
    fn single_scenario_single_group_is_a_chain() {
        let inst = Instance::new(1, 5, 11);
        let g = Grouping::uniform(11, 1, 0);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &g).unwrap();
        // 5 mains back to back; the 5th post starts at 500.
        assert_eq!(e.main_finish, 500.0);
        assert_eq!(e.makespan, 510.0);
        // Posts of months 0..3 complete during the run on the disbanded…
        // no: the group never idles until the end, and no dedicated
        // posts exist, so posts 0..4 all run at the end on 11 procs.
        assert_eq!(e.post_finish, 510.0);
    }

    #[test]
    fn dedicated_post_procs_absorb_posts_during_run() {
        let inst = Instance::new(1, 5, 12);
        let g = Grouping::uniform(11, 1, 1);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &g).unwrap();
        // Post of month m starts right at 100(m+1); last at 510.
        assert_eq!(e.makespan, 510.0);
        assert_eq!(
            e.utilization(inst),
            (5.0 * 1100.0 + 5.0 * 10.0) / (510.0 * 12.0)
        );
    }

    #[test]
    fn matches_equation_2_exactly() {
        // R2 = 0, nbused = 0: analytic is exact.
        let inst = Instance::new(5, 4, 20);
        let t = flat(100.0, 10.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 0)).unwrap();
        assert_eq!(e.makespan, b.makespan);
    }

    #[test]
    fn matches_equation_4_when_posts_keep_up() {
        let inst = Instance::new(5, 4, 22);
        let t = flat(100.0, 10.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 2)).unwrap();
        assert_eq!(e.makespan, b.makespan);
    }

    #[test]
    fn estimator_beats_or_matches_analytic_on_overpass() {
        // The analytic model batches trailing posts into ⌈…/R⌉ waves;
        // the event simulation is at least as tight.
        let inst = Instance::new(5, 4, 22);
        let t = flat(100.0, 60.0);
        let b = analytic::makespan(inst, &t, 4).unwrap();
        let e = estimate(inst, &t, &Grouping::uniform(4, 5, 2)).unwrap();
        assert!(
            e.makespan <= b.makespan + 1e-9,
            "sim {} analytic {}",
            e.makespan,
            b.makespan
        );
        assert!(e.makespan >= b.ms_multi);
    }

    #[test]
    fn fairness_least_advanced_first() {
        // 3 scenarios, 2 groups, 2 months each: after the first two
        // completions the waiting scenario 2 (0 months) must run before
        // scenario 0/1's second month… all finish by 3·T with fairness,
        // 4·T without it would not happen here either, so check precise
        // makespan: 6 months on 2 groups in lockstep = 3 waves.
        let inst = Instance::new(3, 2, 8);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &Grouping::uniform(4, 2, 0)).unwrap();
        assert_eq!(e.main_finish, 300.0);
    }

    #[test]
    fn heterogeneous_groups_lets_fast_group_do_more() {
        // One group of 11 (faster) and one of 4: the big group should
        // complete more months.
        let inst = Instance::new(2, 10, 15);
        let t = reference();
        let g = Grouping::new(vec![11, 4], 0);
        let e = estimate(inst, &t, &g).unwrap();
        // Strictly better than two groups of 4 — more capacity helps.
        let worse = estimate(inst.with_resources(15), &t, &Grouping::new(vec![4, 4], 0)).unwrap();
        assert!(e.makespan < worse.makespan);
    }

    #[test]
    fn disbanded_groups_finish_trailing_posts() {
        // R2 = 0: every post must still complete (on disbanded procs).
        let inst = Instance::new(4, 3, 16);
        let t = flat(100.0, 10.0);
        let e = estimate(inst, &t, &Grouping::uniform(4, 4, 0)).unwrap();
        assert!(e.post_finish > e.main_finish);
        assert_eq!(e.post_busy_proc_secs, 12.0 * 10.0);
    }

    #[test]
    fn invalid_grouping_is_rejected() {
        let inst = Instance::new(2, 2, 12);
        let err = estimate(inst, &flat(10.0, 1.0), &Grouping::uniform(4, 3, 0)).unwrap_err();
        assert!(matches!(err, GroupingError::TooManyGroups { .. }));
    }

    #[test]
    fn paper_example_gain_improvement_1() {
        // R = 53, NS = 10: basic = 7×7 + 4 post; improvement 1 =
        // 3×8 + 4×7 + 1 post. The paper reports a ≈4.5 % gain.
        let inst = Instance::new(10, 1800, 53);
        let t = reference();
        let basic = estimate(inst, &t, &Grouping::uniform(7, 7, 4)).unwrap();
        let imp1 = estimate(inst, &t, &Grouping::new(vec![8, 8, 8, 7, 7, 7, 7], 1)).unwrap();
        let gain = (basic.makespan - imp1.makespan) / basic.makespan * 100.0;
        assert!(gain > 2.0 && gain < 8.0, "gain was {gain:.2}%");
    }

    #[test]
    fn utilization_is_in_unit_interval() {
        let inst = Instance::new(10, 50, 53);
        let e = estimate(inst, &reference(), &Grouping::uniform(7, 7, 4)).unwrap();
        let u = e.utilization(inst);
        assert!(u > 0.5 && u <= 1.0, "utilization {u}");
    }
}
