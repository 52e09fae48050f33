//! `sweep_uniform` and `sweep_knapsack`: mass-batch fault sweeps.
//!
//! Each operation is one `oa_sim::batch::run_batch` call — a sweep
//! request of fixed size whose batch seed comes from the workload seed
//! — on a serial pool. `sweep_uniform` is `BatchSpec::reference_mc`
//! (basic 7×7, R=53, fused, one fault), where the fast-forward kernel
//! and checkpoint heads engage. `sweep_knapsack` is the paper's
//! knapsack grouping at R ∈ {25, 53, 99}, fused and unfused, up to two
//! faults, where the kernel is bypassed.

use std::time::Instant;

use oa_par::Pool;
use oa_sched::heuristics::Heuristic;
use oa_sched::memo::PlanMemo;
use oa_sched::policy::{FaultPlan, Granularity};
use oa_sim::batch::{expand_shapes, faults_for, run_batch, BatchSpec, VariantOut};
use oa_sim::engine::simulate_campaign;
use oa_trace::NullTracer;

use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::{median, tail, TAIL_BEYOND};
use crate::{kernel_probe, timed_setup, write_spans, Args, KernelTally, Report, Rng};

/// The span recorded around each `run_batch` request.
const RUN: &str = "sim.batch.run";
/// Every span this workload records.
pub const SPANS: [&str; 1] = [RUN];

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `BatchSpec::reference_mc`.
    Uniform,
    /// Knapsack groupings off and on the integer lattice.
    Knapsack,
}

/// Variants per shape of every request. Large enough that simulating
/// variants, not the fixed per-request work (shape expansion,
/// fault-free heads), is most of a request: on the six knapsack shapes
/// that fixed work is about 35 ms on the reference machine, about 4% of
/// a 20-variant-per-shape request. One size per sweep, so that the
/// median and tail compare like with like: when `sweep_uniform` mixed
/// eight sizes, its median fell between two size classes and moved
/// more between runs than its throughput did. About 80 ms per request
/// on the uniform shape, 0.9 s on the knapsack shapes.
fn size(kind: Kind) -> u64 {
    match kind {
        Kind::Uniform => 1000,
        Kind::Knapsack => 20,
    }
}

/// The seeded request stream: one batch seed per request.
fn requests(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(seed, 0x0073_7765_6570);
    std::iter::repeat_with(move || rng.next_u64())
}

fn spec(kind: Kind, seed: u64) -> BatchSpec {
    let mut spec = BatchSpec::reference_mc(size(kind), seed);
    if kind == Kind::Knapsack {
        spec.heuristic = Heuristic::Knapsack;
        spec.rs = vec![25, 53, 99];
        spec.granularities = vec![Granularity::Fused, Granularity::Unfused];
        spec.max_faults = 2;
        spec.fault_resolution = 1.0;
    }
    spec
}

/// `reference_mc(1000, 42)` checksum recorded in `results/BENCH_engine.json`.
const CANARY: &str = "34f11720151e3b0c";

fn same_bits(a: &VariantOut, b: &VariantOut) -> bool {
    a.completed == b.completed
        && a.makespan.to_bits() == b.makespan.to_bits()
        && a.main_finish.to_bits() == b.main_finish.to_bits()
        && a.post_finish.to_bits() == b.post_finish.to_bits()
        && a.lost_proc_secs.to_bits() == b.lost_proc_secs.to_bits()
        && a.months_lost == b.months_lost
        && a.completed_months == b.completed_months
}

/// Per-request counters from the public `BatchReport`.
#[derive(Debug, Default)]
struct Counters {
    shapes: u64,
    heads: u64,
    stranded: u64,
    hits: u64,
    misses: u64,
    dp_builds: u64,
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report, kind: Kind) -> Result<(), String> {
    let pool = Pool::serial();
    if kind == Kind::Uniform {
        let got = run_batch(&BatchSpec::reference_mc(1000, 42), &pool)
            .map_err(|e| e.to_string())?
            .summary()
            .checksum;
        report.check(got == CANARY, || {
            format!("canary checksum {got}, want {CANARY}")
        });
    }
    let (warm, setup) = timed_setup(report, || run_batch(&spec(kind, 0), &pool));
    warm.map_err(|e| e.to_string())?;

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Start (seconds into the loop) and wall time of each request.
    let mut ats = Vec::new();
    let mut secs = Vec::new();
    // One seeded variant per request, re-run one at a time afterwards.
    let mut samples: Vec<(u64, u64, VariantOut)> = Vec::new();
    let mut pick = Rng::new(args.seed, 0x7069_636b);
    let mut campaigns = 0u64;
    // Runs do not stop before a tail can be named, however slow the
    // machine.
    let t0 = Instant::now();
    let mut speed = Speed::new(t0);
    for (i, seed) in requests(args.seed).enumerate() {
        if i > TAIL_BEYOND && t0.elapsed().as_secs_f64() >= budget {
            break;
        }
        let spec = spec(kind, seed);
        let t = Instant::now();
        let out = run_batch(&spec, &pool);
        secs.push(t.elapsed().as_secs_f64());
        ats.push(t.duration_since(t0).as_secs_f64());
        speed.probe();
        let out = out.map_err(|e| e.to_string())?;
        let want = spec.variant_count();
        report.check(out.outs.len() as u64 == want, || {
            format!("request returned {} of {want} variants", out.outs.len())
        });
        campaigns += want;
        let idx = pick.below(want);
        samples.push((seed, idx, out.outs.at(idx as usize)));
    }
    speed.finish(report);

    let shapes = expand_shapes(&spec(kind, 0), &mut PlanMemo::new()).map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    for &(seed, idx, got) in &samples {
        let spec = spec(kind, seed);
        let shape = &shapes[(idx / spec.variants_per_shape) as usize];
        faults_for(&spec, shape, idx % spec.variants_per_shape, &mut buf);
        let plan = FaultPlan {
            failures: buf.clone(),
        };
        let alone = simulate_campaign(
            shape.inst,
            &spec.table,
            &shape.grouping,
            &shape.config,
            &plan,
            &mut NullTracer,
        )
        .map_err(|e| e.to_string())?;
        let want = VariantOut::of(&alone, shape.inst);
        report.check(same_bits(&got, &want), || {
            format!("seed {seed} variant {idx}: batch {got:?} vs alone {want:?}")
        });
    }

    let n = secs.len();
    let at_reference = speed.at_reference(&ats, &secs);
    let t = tail(&at_reference).ok_or("too few sweep requests for a tail")?;
    report.notes.push(format!(
        "{n} requests, {campaigns} variants; {} variants re-run alone, bitwise",
        samples.len()
    ));
    report.notes.push(format!(
        "request_ms_tail is p{:.2} of {} requests ({} beyond)",
        t.pct, t.n, t.beyond
    ));
    let per_s = |secs: &[f64]| campaigns as f64 / secs.iter().sum::<f64>();
    report.notes.push(format!(
        "measured: ops_per_s {:.3}, op_ms_p50 {:.3}",
        per_s(&secs),
        median(&secs) * 1e3
    ));
    if !args.trace {
        report.e2e("setup_s", "s", setup);
        report.e2e("ops_per_s", "1/s", per_s(&at_reference));
        report.e2e("op_ms_p50", "ms", median(&at_reference) * 1e3);
        report.e2e("op_ms_tail", "ms", t.value * 1e3);
        return Ok(());
    }

    // Traced pass over the same requests.
    let mut spans = Spans::new(true);
    let mut counters = Counters::default();
    let mut traced_at = Vec::new();
    let mut traced = Vec::new();
    let mut expand = 0.0;
    let t1 = Instant::now();
    let mut traced_speed = Speed::new(t1);
    for (i, seed) in requests(args.seed).take(n).enumerate() {
        let spec = spec(kind, seed);
        let t = Instant::now();
        spans.begin_request("sweep.request", i as u64);
        let out = spans.time(RUN, || run_batch(&spec, &pool));
        spans.end();
        traced.push(t.elapsed().as_secs_f64());
        traced_at.push(t.duration_since(t1).as_secs_f64());
        traced_speed.probe();
        let out = out.map_err(|e| e.to_string())?;
        // The shape expansion inside `run_batch`, timed on its own.
        let t = Instant::now();
        expand_shapes(&spec, &mut PlanMemo::new()).map_err(|e| e.to_string())?;
        expand += t.elapsed().as_secs_f64();
        counters.shapes += out.shapes as u64;
        counters.heads += out.heads as u64;
        counters.stranded += out.summary().stranded;
        counters.hits += out.memo.hits;
        counters.misses += out.memo.misses;
        counters.dp_builds += out.memo.dp_builds;
    }
    let sum = |x: &[f64]| x.iter().sum::<f64>();
    let overhead = sum(&traced_speed.at_reference(&traced_at, &traced)) / sum(&at_reference) - 1.0;
    report.span_metrics(&spans, &SPANS, overhead);
    report.layer("sim.batch.expand_shapes.busy_s", "s", expand);
    let per = |x: u64| x as f64 / n as f64;
    report.layer("sim.batch.shapes", "count/op", per(counters.shapes));
    report.layer("sim.batch.heads", "count/op", per(counters.heads));
    report.layer("sim.batch.stranded", "count/op", per(counters.stranded));
    report.layer("sched.memo.hits", "count/op", per(counters.hits));
    report.layer("sched.memo.misses", "count/op", per(counters.misses));
    report.layer("sched.memo.dp_builds", "count/op", per(counters.dp_builds));
    let mut kernel = KernelTally::default();
    let template = spec(kind, 0);
    for shape in &shapes {
        kernel.add(kernel_probe(
            &shape.inst,
            &template.table,
            &shape.grouping,
            &shape.config,
        ));
    }
    kernel.report(report);
    write_spans(args, &spans)
}
