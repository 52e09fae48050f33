//! `grid_plan`: a closed loop of Algorithm-1 plan requests.
//!
//! Each request is a (clusters, R, heuristic) point at NS=10, NM=1800,
//! drawn from the Figure 8 point set (one preset cluster, R 11–120) or
//! the Figure 10 lattice (2–5 clusters, R 11–99 step 4). It runs what
//! `oa_sim::grid_exec::run_grid` composes — `grid_performance`,
//! `repartition`, `execute_repartition` — then checks every chosen
//! grouping with `oa_analyze::scheduling::check_grouping`. One request
//! in 25 also records the execution and exports it as a Chrome trace.
//!
//! Draws are stratified so that every run sees the same mix: each block
//! of eight requests holds every paper heuristic once per point set, the
//! Figure 10 cluster count and the Figure 8 preset cycle per block, and
//! each point set deals its R values from a shuffled deck of all of
//! them, so only the order is random. (R sets the size of the
//! estimator's tables, so with R drawn independently the mean cost of
//! a run's plans moved with the seed.)

use std::collections::BTreeSet;
use std::time::Instant;

use oa_analyze::scheduling::check_grouping;
use oa_platform::grid::Grid;
use oa_platform::presets::{benchmark_grid, DEFAULT_RESOURCES};
use oa_sched::hetero::{grid_performance, repartition};
use oa_sched::heuristics::{gain_pct, Heuristic};
use oa_sched::params::Instance;
use oa_sched::policy::CampaignConfig;
use oa_sim::executor::ExecConfig;
use oa_sim::grid_exec::{execute_repartition, execute_repartition_traced};
use oa_trace::chrome::chrome_trace_string;
use oa_trace::VecTracer;
use serde_json::Value;

use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::{median, tail};
use crate::{kernel_probe, timed_setup, write_spans, Args, KernelTally, Report, Rng};

const NS: u32 = 10;
const NM: u32 = 1800;
/// One request in this many records and exports a trace.
const TRACE_EVERY: u64 = 25;
/// Largest accepted relative gap between the estimator's predicted
/// makespan and the simulated one.
const GAP_LIMIT: f64 = 1e-6;

/// Layer spans, one per public call a request makes.
const GRID_PERFORMANCE: &str = "sched.grid_performance";
const REPARTITION: &str = "sched.repartition";
const GRID_EXEC: &str = "sim.grid_exec";
const GROUPING: &str = "sched.grouping";
const CHECK_GROUPING: &str = "analyze.check_grouping";
const CHROME_EXPORT: &str = "trace.chrome_export";
/// Every span this workload records, in per-layer metric order.
pub const SPANS: [&str; 6] = [
    GRID_PERFORMANCE,
    REPARTITION,
    GRID_EXEC,
    GROUPING,
    CHECK_GROUPING,
    CHROME_EXPORT,
];

/// Where a request's grid comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Set {
    /// One preset cluster (index into the benchmark grid).
    Fig8(usize),
    /// The first `n` preset clusters.
    Fig10(usize),
}

#[derive(Debug, Clone, Copy)]
struct Point {
    set: Set,
    r: u32,
    h: Heuristic,
    traced: bool,
}

/// The seeded, stratified request stream.
struct Points {
    rng: Rng,
    i: u64,
    block: Vec<(bool, Heuristic)>,
    trace_slot: u64,
    fig8_rs: Vec<u32>,
    fig10_rs: Vec<u32>,
}

impl Points {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 0x6772_6964),
            i: 0,
            block: Vec::new(),
            trace_slot: 0,
            fig8_rs: Vec::new(),
            fig10_rs: Vec::new(),
        }
    }
}

/// Deals the next value from `deck`, refilled with `all` in a shuffled
/// order when it runs out.
fn deal(rng: &mut Rng, deck: &mut Vec<u32>, all: impl Iterator<Item = u32>) -> u32 {
    if deck.is_empty() {
        deck.extend(all);
        rng.shuffle(deck);
    }
    deck.pop().expect("refilled above")
}

impl Iterator for Points {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        let i = self.i;
        self.i += 1;
        if i.is_multiple_of(8) {
            self.block = Heuristic::PAPER
                .iter()
                .flat_map(|&h| [(false, h), (true, h)])
                .collect();
            self.rng.shuffle(&mut self.block);
        }
        if i.is_multiple_of(TRACE_EVERY) {
            self.trace_slot = i + self.rng.below(TRACE_EVERY);
        }
        let b = (i / 8) as usize;
        let (fig10, h) = self.block[(i % 8) as usize];
        let (set, r) = if fig10 {
            let r = deal(&mut self.rng, &mut self.fig10_rs, (11..=99).step_by(4));
            (Set::Fig10(2 + b % 4), r)
        } else {
            (
                Set::Fig8(b % 5),
                deal(&mut self.rng, &mut self.fig8_rs, 11..=120),
            )
        };
        Some(Point {
            set,
            r,
            h,
            traced: i == self.trace_slot,
        })
    }
}

fn grid_of(base: &Grid, set: Set, r: u32) -> Grid {
    match set {
        Set::Fig8(c) => Grid::from_clusters(vec![base.clusters()[c].clone()]),
        Set::Fig10(n) => base.take(n),
    }
    .with_uniform_resources(r)
}

/// What one request produced, for the checks after it.
struct Planned {
    secs: f64,
    predicted: f64,
    simulated: f64,
    grouping_errors: usize,
    trace: Option<(usize, usize)>,
    /// (instance, cluster index, grouping) per cluster that ran work.
    groupings: Vec<(Instance, usize, oa_sched::grouping::Grouping)>,
}

/// One plan request, timed; spans go to `spans` when it records.
fn plan(grid: &Grid, p: &Point, req: u64, spans: &mut Spans) -> Result<Planned, String> {
    let t = Instant::now();
    let root = if p.traced {
        "grid_plan.traced_request"
    } else {
        "grid_plan.request"
    };
    spans.begin_request(root, req);
    let h = p.h;
    let vectors = spans.time(GRID_PERFORMANCE, || grid_performance(grid, h, NS, NM));
    let plan = spans.time(REPARTITION, || repartition(&vectors));
    let cfg = ExecConfig::default();
    let (outcome, trace) = if p.traced {
        let mut sink = VecTracer::new();
        let outcome = spans.time(GRID_EXEC, || {
            execute_repartition_traced(grid, &plan, h, NM, cfg, &mut sink)
        });
        let events = sink.into_events();
        let json = spans.time(CHROME_EXPORT, || chrome_trace_string(&events));
        (outcome, Some((events.len(), json.len())))
    } else {
        let outcome = spans.time(GRID_EXEC, || execute_repartition(grid, &plan, h, NM, cfg));
        (outcome, None)
    };
    let outcome = outcome.map_err(|e| format!("plan {p:?}: {e}"))?;
    let mut grouping_errors = 0;
    let mut groupings = Vec::new();
    for (id, cluster) in grid.iter() {
        let k = plan.scenarios_of(id).len() as u32;
        if k == 0 {
            continue;
        }
        let inst = Instance::new(k, NM, cluster.resources);
        let grouping = spans
            .time(GROUPING, || h.grouping(inst, &cluster.timing))
            .map_err(|e| format!("grouping {p:?}: {e}"))?;
        let diags = spans.time(CHECK_GROUPING, || {
            check_grouping(inst, &cluster.timing, &grouping)
        });
        if oa_analyze::Report::from_diagnostics(diags).has_errors() {
            grouping_errors += 1;
        }
        groupings.push((inst, id.0 as usize, grouping));
    }
    spans.end();
    Ok(Planned {
        secs: t.elapsed().as_secs_f64(),
        predicted: plan.predicted_makespan(&vectors),
        simulated: outcome.makespan,
        grouping_errors,
        trace,
        groupings,
    })
}

/// Figure 10 reference values keyed `(clusters, R)`:
/// `[basic_makespan, gain1, gain2, gain3]`.
type Fig10 = std::collections::BTreeMap<(usize, u32), [f64; 4]>;

fn load_fig10() -> Result<Fig10, String> {
    let path = "results/fig10_grid.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let Value::Array(points) = doc else {
        return Err(format!("{path}: not an array"));
    };
    let num = |p: &Value, k: &str| match p.get(k) {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::U64(n)) => Some(*n as f64),
        _ => None,
    };
    let mut out = Fig10::new();
    for p in &points {
        let field = |k: &str| num(p, k).ok_or_else(|| format!("{path}: point lacks {k}"));
        let key = (field("clusters")? as usize, field("resources")? as u32);
        let vals = [
            field("basic_makespan")?,
            field("gain1")?,
            field("gain2")?,
            field("gain3")?,
        ];
        out.insert(key, vals);
    }
    Ok(out)
}

/// Checks one request against the references; `None` when it passes.
fn verify(p: &Point, got: &Planned, fig10: &Fig10, gap: f64) -> Option<String> {
    if got.grouping_errors > 0 {
        return Some(format!(
            "{p:?}: {} groupings with errors",
            got.grouping_errors
        ));
    }
    if gap > GAP_LIMIT || gap.is_nan() {
        return Some(format!("{p:?}: predicted/simulated gap {gap:e}"));
    }
    let Set::Fig10(n) = p.set else {
        return None;
    };
    let Some(reference) = fig10.get(&(n, p.r)) else {
        return Some(format!("{p:?}: no fig10 reference point"));
    };
    let basic = reference[0];
    let (want, got) = match p.h {
        Heuristic::Basic => (basic, got.simulated),
        Heuristic::RedistributeIdle => (reference[1], gain_pct(basic, got.simulated)),
        Heuristic::NoPostReservation => (reference[2], gain_pct(basic, got.simulated)),
        _ => (reference[3], gain_pct(basic, got.simulated)),
    };
    (want.to_bits() != got.to_bits())
        .then(|| format!("{p:?}: fig10 value {got:?}, reference {want:?}"))
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let fig10 = load_fig10()?;
    // Set-up builds the preset grid and plans one point per heuristic,
    // so lazy initialisation is paid before the first timed request.
    let (base, setup) = timed_setup(report, || {
        let base = benchmark_grid(DEFAULT_RESOURCES);
        for h in Heuristic::PAPER {
            let warm = Point {
                set: Set::Fig10(2),
                r: 51,
                h,
                traced: false,
            };
            plan(
                &grid_of(&base, warm.set, warm.r),
                &warm,
                0,
                &mut Spans::new(false),
            )?;
        }
        Ok::<_, String>(base)
    });
    let base = base?;

    // Untraced pass: the end-to-end numbers (and, in the traced run,
    // the baseline for the tracing overhead).
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Spans::new(false);
    let mut plan_secs = Vec::new();
    let mut trace_secs = Vec::new();
    let mut all_secs = Vec::new();
    let mut gap_max = 0.0f64;
    let mut seen = BTreeSet::new();
    let mut repeats = 0u64;
    let mut events = 0usize;
    let mut bytes = 0usize;
    // Start of each plan, seconds into the loop.
    let mut all_at = Vec::new();
    let mut plan_at = Vec::new();
    let t0 = Instant::now();
    let mut speed = Speed::new(t0);
    for (i, p) in Points::new(args.seed).enumerate() {
        let at = t0.elapsed().as_secs_f64();
        if at >= budget {
            break;
        }
        let grid = grid_of(&base, p.set, p.r);
        let got = plan(&grid, &p, i as u64, &mut off)?;
        speed.probe();
        let gap = (got.predicted - got.simulated).abs() / got.simulated;
        gap_max = gap_max.max(gap);
        if !seen.insert((p.set, p.r, p.h as u8)) {
            repeats += 1;
        }
        all_secs.push(got.secs);
        all_at.push(at);
        match got.trace {
            Some((e, b)) => {
                trace_secs.push(got.secs);
                events += e;
                bytes += b;
            }
            None => {
                plan_secs.push(got.secs);
                plan_at.push(at);
            }
        }
        let failure = verify(&p, &got, &fig10, gap);
        report.check(failure.is_none(), || failure.unwrap_or_default());
    }
    speed.finish(report);
    let n = all_secs.len();
    let at_reference = speed.at_reference(&plan_at, &plan_secs);
    let plan_tail = tail(&at_reference).ok_or("too few plans for a tail; raise --seconds")?;
    report.notes.push(format!(
        "{n} plans ({} traced), fig10 reference checks on every Figure 10 point",
        trace_secs.len()
    ));
    report.notes.push(format!(
        "plan_ms_tail is p{:.2} of {} untraced plans ({} beyond)",
        plan_tail.pct, plan_tail.n, plan_tail.beyond
    ));
    let trace_p50 = if trace_secs.is_empty() {
        f64::NAN
    } else {
        median(&trace_secs) * 1e3
    };
    report.notes.push(format!(
        "trace_ms_p50 {trace_p50:.3} ms over {} traced plans",
        trace_secs.len()
    ));

    let per_s = |secs: &[f64]| secs.len() as f64 / secs.iter().sum::<f64>();
    report.notes.push(format!(
        "measured: ops_per_s {:.3}, op_ms_p50 {:.3}",
        per_s(&plan_secs),
        median(&plan_secs) * 1e3
    ));
    if !args.trace {
        report.e2e("setup_s", "s", setup);
        report.e2e("ops_per_s", "1/s", per_s(&at_reference));
        report.e2e("op_ms_p50", "ms", median(&at_reference) * 1e3);
        report.e2e("op_ms_tail", "ms", plan_tail.value * 1e3);
        return Ok(());
    }

    // Traced pass over the same requests.
    let mut spans = Spans::new(true);
    let mut kernel = KernelTally::default();
    let mut traced_at = Vec::new();
    let mut traced_secs = Vec::new();
    let t1 = Instant::now();
    let mut traced_speed = Speed::new(t1);
    for (i, p) in Points::new(args.seed).take(n).enumerate() {
        let grid = grid_of(&base, p.set, p.r);
        traced_at.push(t1.elapsed().as_secs_f64());
        let got = plan(&grid, &p, i as u64, &mut spans)?;
        traced_secs.push(got.secs);
        traced_speed.probe();
        for (inst, c, grouping) in &got.groupings {
            let table = &grid.clusters()[*c].timing;
            kernel.add(kernel_probe(
                inst,
                table,
                grouping,
                &CampaignConfig::default(),
            ));
        }
    }
    let sum = |x: Vec<f64>| x.iter().sum::<f64>();
    let overhead = sum(traced_speed.at_reference(&traced_at, &traced_secs))
        / sum(speed.at_reference(&all_at, &all_secs))
        - 1.0;
    report.span_metrics(&spans, &SPANS, overhead);
    // The estimator's share of untraced plan time (traced plans also
    // pay for the Chrome export).
    let plain = spans.totals_under("grid_plan.request");
    let busy = |name: &str| plain.get(name).map_or(0.0, |t| t.busy);
    report.layer(
        "sched.grid_performance.share",
        "ratio",
        busy("sched.grid_performance") / busy("grid_plan.request"),
    );
    let traced = trace_secs.len().max(1) as f64;
    report.layer("trace.events", "count", events as f64 / traced);
    report.layer("trace.chrome_bytes", "bytes", bytes as f64 / traced);
    report.layer(
        "trace.request_ms_p50",
        "ms",
        if trace_secs.is_empty() {
            0.0
        } else {
            trace_p50
        },
    );
    report.layer("plan.predict_gap_max", "ratio", gap_max);
    report.layer("plan.repeat_share", "ratio", repeats as f64 / n as f64);
    kernel.report(report);
    write_spans(args, &spans)
}
