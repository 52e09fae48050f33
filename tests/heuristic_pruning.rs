//! Bound-pruned candidate scoring in the grouping heuristics.
//!
//! Improvement 2 and Balanced pick among candidate groupings by
//! estimating them best-bound-first and skipping candidates whose lower
//! bound rules them out. Two properties make that safe:
//!
//! * the bound is sound against the estimator:
//!   `lower_bound × (1 − 1e-9) ≤ estimate(..).makespan` for any table,
//!   grouping and instance;
//! * the pruned choice is the exhaustive choice: same grouping and same
//!   makespan bits as estimating every candidate and keeping the first
//!   strict minimizer (the test-local oracle below).
//!
//! Release builds run 256 cases (CI's differential job), debug builds
//! fewer.

use ocean_atmosphere::knapsack::{solve_dp, Item, Problem};
use ocean_atmosphere::prelude::*;
use ocean_atmosphere::sched::estimate::lower_bound;
use ocean_atmosphere::workflow::moldable::MoldableSpec;
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 256 };

/// The relative slack the heuristics grant the bound.
const SLACK: f64 = 1e-9;

const ALL_HEURISTICS: [Heuristic; 6] = [
    Heuristic::Basic,
    Heuristic::RedistributeIdle,
    Heuristic::NoPostReservation,
    Heuristic::Knapsack,
    Heuristic::KnapsackGreedy,
    Heuristic::Balanced,
];

/// A non-increasing `T[4..=11]` row built from `T[11]` and per-step
/// bumps, plus the post duration.
fn table_from(t11: f64, tp: f64, bumps: &[f64]) -> TimingTable {
    let mut main = [0.0f64; 8];
    let mut acc = t11;
    for i in (0..8).rev() {
        main[i] = acc;
        acc += bumps[i];
    }
    TimingTable::new(main, tp).expect("non-increasing by construction")
}

fn arb_integral_table() -> impl Strategy<Value = TimingTable> {
    (
        50u32..3000,
        1u32..400,
        proptest::collection::vec(0u32..400, 8),
    )
        .prop_map(|(t11, tp, bumps)| {
            let bumps: Vec<f64> = bumps.into_iter().map(f64::from).collect();
            table_from(f64::from(t11), f64::from(tp), &bumps)
        })
}

fn arb_fractional_table() -> impl Strategy<Value = TimingTable> {
    (
        50.0f64..3000.0,
        1.0f64..400.0,
        proptest::collection::vec(0.0f64..400.0, 8),
    )
        .prop_map(|(t11, tp, bumps)| table_from(t11, tp, &bumps))
}

/// A grouping and an instance it is valid for: 1–10 groups of 4–11,
/// no post processors in a third of the cases, and `groups == NS` in a
/// quarter of them.
fn arb_grouped_instance() -> impl Strategy<Value = (Instance, Grouping)> {
    (
        proptest::collection::vec(4u32..=11, 1..=10),
        0u32..=3,
        0u32..=8,
        0u32..=6,
        1u32..=60,
    )
        .prop_map(|(sizes, extra_ns, post, idle, nm)| {
            let post = if post % 3 == 0 { 0 } else { post };
            let grouping = Grouping::new(sizes, post);
            let ns = grouping.group_count() as u32 + extra_ns;
            let r = grouping.total_procs() as u32 + idle;
            (Instance::new(ns, nm, r), grouping)
        })
}

/// The bound the heuristics prune with, on the estimator's fused view.
fn bound(inst: Instance, table: &TimingTable, grouping: &Grouping) -> f64 {
    let durs: Vec<f64> = grouping
        .groups()
        .iter()
        .map(|&g| table.main_secs(g))
        .collect();
    lower_bound(
        inst,
        grouping.groups(),
        &durs,
        table.post_secs(),
        grouping.total_procs(),
    )
}

fn assert_sound(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
) -> Result<(), TestCaseError> {
    let lb = bound(inst, table, grouping);
    let ms = estimate(inst, table, grouping)
        .expect("valid by construction")
        .makespan;
    prop_assert!(lb > 0.0, "bound {} is not positive", lb);
    prop_assert!(
        lb * (1.0 - SLACK) <= ms,
        "bound {} above estimate {} for {} on {:?}",
        lb,
        ms,
        grouping,
        inst
    );
    Ok(())
}

/// Improvement 2's candidates, in generation order: for each `G`,
/// `nbmax` groups grown round-robin (capped at 11) by the leftover
/// processors; capped-out processors go to the post pool.
fn no_post_candidates(inst: Instance) -> Vec<Grouping> {
    let mut cands = Vec::new();
    for g in MoldableSpec::pcr().allocations() {
        let nbmax = inst.nbmax(g);
        if nbmax == 0 {
            continue;
        }
        let mut groups = vec![g; nbmax as usize];
        let mut spare = inst.r - nbmax * g;
        while spare > 0 && groups.iter().any(|&s| s < 11) {
            for size in &mut groups {
                if spare > 0 && *size < 11 {
                    *size += 1;
                    spare -= 1;
                }
            }
        }
        cands.push(Grouping::new(groups, spare));
    }
    cands
}

/// Balanced's candidates, in generation order: the exact knapsack for
/// every group count `1..=NS`, then the uniform groupings of the basic
/// sweep, keeping the valid ones.
fn balanced_candidates(inst: Instance, table: &TimingTable) -> Vec<Grouping> {
    let spec = MoldableSpec::pcr();
    let items: Vec<Item> = spec
        .allocations()
        .map(|g| Item::new(g, 1.0 / table.main_secs(g), inst.ns))
        .collect();
    let mut cands = Vec::new();
    for k in 1..=inst.ns {
        let sol = solve_dp(&Problem::new(items.clone(), inst.r, k));
        let mut groups = Vec::new();
        for (i, &n) in sol.counts.iter().enumerate() {
            let g = spec.allocation_at(i).expect("items follow the spec");
            groups.extend(std::iter::repeat_n(g, n as usize));
        }
        if !groups.is_empty() {
            cands.push(Grouping::new(groups, inst.r - sol.cost));
        }
    }
    for g in spec.allocations() {
        let nbmax = inst.nbmax(g);
        if nbmax > 0 {
            cands.push(Grouping::uniform(g, nbmax, inst.r - nbmax * g));
        }
    }
    cands.retain(|c| c.validate(inst).is_ok());
    cands
}

/// The exhaustive oracle: estimate every candidate, keep the first
/// strict minimizer.
fn exhaustive(
    inst: Instance,
    table: &TimingTable,
    cands: Vec<Grouping>,
) -> Option<(Grouping, f64)> {
    let mut best: Option<(Grouping, f64)> = None;
    for cand in cands {
        let ms = estimate(inst, table, &cand)
            .expect("candidates are valid")
            .makespan;
        if best.as_ref().is_none_or(|(_, b)| ms < *b) {
            best = Some((cand, ms));
        }
    }
    best
}

/// Paper-sized campaigns in a quarter of the cases, short ones (where
/// makespan ties are common) in the rest.
fn arb_nm() -> impl Strategy<Value = u32> {
    (1u32..=64).prop_map(|x| if x > 48 { 1800 } else { x })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn lower_bound_is_sound_on_integral_tables(
        (inst, grouping) in arb_grouped_instance(),
        table in arb_integral_table(),
    ) {
        assert_sound(inst, &table, &grouping)?;
    }

    #[test]
    fn lower_bound_is_sound_on_fractional_tables(
        (inst, grouping) in arb_grouped_instance(),
        table in arb_fractional_table(),
    ) {
        assert_sound(inst, &table, &grouping)?;
    }

    #[test]
    fn pruned_choice_is_the_exhaustive_choice_bitwise(
        preset in 0usize..5,
        r in 11u32..=120,
        ns in 1u32..=10,
        nm in arb_nm(),
    ) {
        let table = preset_cluster(PRESET_CLUSTERS[preset].0, r).timing;
        let inst = Instance::new(ns, nm, r);
        let cases = [
            (Heuristic::NoPostReservation, no_post_candidates(inst)),
            (Heuristic::Balanced, balanced_candidates(inst, &table)),
        ];
        for (h, cands) in cases {
            let (want, want_ms) = exhaustive(inst, &table, cands).expect("R ≥ 11");
            let got = h.grouping(inst, &table).expect("R ≥ 11");
            let got_ms = h.makespan(inst, &table).expect("R ≥ 11");
            prop_assert_eq!(&got, &want, "{:?} grouping at {:?}", h, inst);
            prop_assert_eq!(got_ms.to_bits(), want_ms.to_bits(), "{:?} makespan at {:?}", h, inst);
        }
        for h in ALL_HEURISTICS {
            let grouping = h.grouping(inst, &table).expect("R ≥ 11");
            let direct = estimate(inst, &table, &grouping).expect("valid").makespan;
            let ms = h.makespan(inst, &table).expect("R ≥ 11");
            prop_assert_eq!(ms.to_bits(), direct.to_bits(), "{:?} makespan at {:?}", h, inst);
        }
    }
}
