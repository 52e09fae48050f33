//! `ClusterJoin` pricing benchmarks: the cost of building one
//! cluster's performance vector cold versus answering it from the
//! daemon's planning memo.
//!
//! A join prices `capacity` scenario counts through the planning
//! heuristic, so large capacities make cold joins expensive — the
//! motivating case for the memo is a churny grid where clusters of
//! the same timing rectangle join repeatedly. `capacity = 1536` is
//! the stress point (6× the default 256); the memoized join must be
//! orders of magnitude cheaper and stays bitwise-equal to the cold
//! path (pinned by the `oa-sched` memo proptests).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use oa_par::Pool;
use oa_platform::cluster::ClusterId;
use oa_platform::presets::reference_cluster;
use oa_sched::hetero::performance_vector;
use oa_sched::heuristics::Heuristic;
use oa_sched::memo::PlanMemo;

const R: u32 = 53;
const PLANNING_NM: u32 = 60;

fn bench_cluster_join(c: &mut Criterion) {
    let table = reference_cluster(R).timing;
    let pool = Pool::serial();
    let mut group = c.benchmark_group("cluster_join");
    for capacity in [384u32, 1536] {
        group.bench_with_input(BenchmarkId::new("cold", capacity), &capacity, |b, &cap| {
            b.iter(|| {
                black_box(performance_vector(
                    ClusterId(0),
                    R,
                    &table,
                    Heuristic::Knapsack,
                    cap,
                    PLANNING_NM,
                ));
            });
        });
        group.bench_with_input(BenchmarkId::new("memo", capacity), &capacity, |b, &cap| {
            let mut memo = PlanMemo::new();
            // Warm: the first join of this timing rectangle pays the
            // DP build; every later identical join replays it.
            let _ = memo.performance_vector(
                ClusterId(0),
                R,
                &table,
                Heuristic::Knapsack,
                cap,
                PLANNING_NM,
                &pool,
            );
            b.iter(|| {
                black_box(memo.performance_vector(
                    ClusterId(0),
                    R,
                    &table,
                    Heuristic::Knapsack,
                    cap,
                    PLANNING_NM,
                    &pool,
                ));
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_cluster_join
}
criterion_main!(benches);
