//! `oabench`: the end-to-end and per-layer benchmark of the `oa`
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path oabench/Cargo.toml -- \
//!     --workload grid_plan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root: the reference checks read
//! `results/fig10_grid.json`, `tests/fixtures/service_transcript.jsonl`
//! and `tests/golden/service_session.log`. Every workload runs on one
//! thread, in process, and calls the workspace crates' public
//! functions. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer
//! metrics from spans recorded around each layer call (written to
//! `.bench_out/`). Workloads, metrics and the layer → end-to-end
//! mapping are listed in `oabench/README.md`.

mod grid_plan;
mod openloop;
mod service_mix;
mod spans;
mod speed;
mod stats;
mod sweep;

use std::time::Instant;

use oa_platform::timing::TimingTable;
use oa_sched::grouping::Grouping;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan};
use oa_sim::engine::{kernel_eligibility, simulate_campaign_kernel, KernelOpts};
use oa_trace::NullTracer;

use spans::Spans;

/// End-to-end metrics `(name, unit)`, in output order. Each workload
/// reports every one of them; `oabench/README.md` gives their meaning
/// per workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, in output order. A traced run
/// prints all of them; those that do not apply to its workload read 0.
/// Each span name gives a `.calls` and a `.busy_s` metric; each
/// `service_mix` request kind also gives a `.ms_tail`.
fn per_layer() -> Vec<(String, &'static str)> {
    let service = service_mix::span_names();
    let mut out = Vec::new();
    for name in grid_plan::SPANS.iter().chain(&sweep::SPANS).chain(&service) {
        out.push((format!("{name}.calls"), "count"));
        out.push((format!("{name}.busy_s"), "s"));
    }
    for name in &service {
        out.push((format!("{name}.ms_tail"), "ms"));
    }
    let fixed: [(&str, &str); 23] = [
        ("sched.grid_performance.share", "ratio"),
        ("plan.predict_gap_max", "ratio"),
        ("plan.repeat_share", "ratio"),
        ("trace.events", "count"),
        ("trace.chrome_bytes", "bytes"),
        ("trace.request_ms_p50", "ms"),
        ("sim.batch.expand_shapes.busy_s", "s"),
        ("sim.batch.shapes", "count/op"),
        ("sim.batch.heads", "count/op"),
        ("sim.batch.stranded", "count/op"),
        ("sched.memo.hits", "count/op"),
        ("sched.memo.misses", "count/op"),
        ("sched.memo.dp_builds", "count/op"),
        ("sim.kernel.integer_time_share", "ratio"),
        ("sim.kernel.ffwd_share", "ratio"),
        ("sim.kernel.cycles_skipped", "count"),
        ("service.admit_ratio", "ratio"),
        ("service.join_warm_share", "ratio"),
        ("loadgen.late_ms_max", "ms"),
        ("loadgen.backlog_max", "count"),
        ("bench.span_coverage", "ratio"),
        ("bench.trace_overhead", "ratio"),
        ("bench.host_speed", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    for code in service_mix::CODES {
        out.push((format!("service.rejected.{code}"), "count"));
    }
    out
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Deterministic input generator (splitmix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, reference checks included.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// End-to-end metrics `(name, unit, value)`.
    pub e2e: Vec<(String, &'static str, f64)>,
    /// Per-layer metrics `(name, unit, value)`.
    pub layer: Vec<(String, &'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The host speed over the timed operations and the probes it
    /// rests on, from [`speed::Speed::finish`].
    pub host_speed: Option<(f64, usize)>,
}

impl Report {
    /// Counts one checked outcome; `what` names a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                self.notes.push(format!("FAILED: {}", what()));
            }
        }
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.layer.push((name.into(), unit, value));
    }

    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push((name.to_string(), unit, value));
    }

    /// Adds the per-name span totals under their span names, plus the
    /// span coverage of timed operations and the tracing overhead
    /// (`traced_busy / untraced_busy − 1` over the same operations).
    pub fn span_metrics(&mut self, spans: &Spans, names: &[&'static str], overhead: f64) {
        let totals = spans.totals();
        for &name in names {
            let t = totals.get(name).copied().unwrap_or_default();
            self.layer(format!("{name}.calls"), "count", t.calls as f64);
            self.layer(format!("{name}.busy_s"), "s", t.busy);
        }
        self.layer("bench.span_coverage", "ratio", spans.coverage());
        self.layer("bench.trace_overhead", "ratio", overhead);
    }
}

/// Kernel engagement over fault-free campaign templates.
#[derive(Debug, Default)]
pub struct KernelTally {
    templates: u64,
    integer_time: u64,
    ffwd: u64,
    cycles_skipped: u64,
    disagreements: u64,
}

impl KernelTally {
    /// Adds one [`kernel_probe`] result.
    pub fn add(&mut self, (eligible, engine_integer, skipped): (bool, bool, u64)) {
        self.templates += 1;
        self.integer_time += u64::from(eligible);
        self.ffwd += u64::from(skipped > 0);
        self.cycles_skipped += skipped;
        self.disagreements += u64::from(eligible != engine_integer);
    }

    /// Emits the `sim.kernel.*` metrics and checks that the static gate
    /// agreed with the engine on every template.
    pub fn report(&self, report: &mut Report) {
        let n = self.templates.max(1) as f64;
        report.layer(
            "sim.kernel.integer_time_share",
            "ratio",
            self.integer_time as f64 / n,
        );
        report.layer("sim.kernel.ffwd_share", "ratio", self.ffwd as f64 / n);
        report.layer(
            "sim.kernel.cycles_skipped",
            "count",
            self.cycles_skipped as f64,
        );
        let bad = self.disagreements;
        report.check(bad == 0, || {
            format!("kernel_eligibility disagreed with the engine on {bad} templates")
        });
    }
}

/// Runs the fault-free template of a campaign through
/// `kernel_eligibility` and `simulate_campaign_kernel`: (static
/// integer-time verdict, the engine's verdict, cycles fast-forwarded).
pub fn kernel_probe(
    inst: &Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
) -> (bool, bool, u64) {
    let plan = FaultPlan::none();
    let eligible = kernel_eligibility(*inst, table, grouping, config, &plan);
    let (_, kernel) = simulate_campaign_kernel(
        *inst,
        table,
        grouping,
        config,
        &plan,
        KernelOpts::default(),
        &mut NullTracer,
    )
    .expect("templates use groupings the heuristics built");
    (
        eligible,
        kernel.integer_time,
        kernel.main_cycles_skipped + kernel.post_cycles_skipped,
    )
}

/// Writes the traced run's spans to `.bench_out/` under the checkout.
pub fn write_spans(args: &Args, spans: &Spans) -> Result<(), String> {
    let path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    spans
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Set-ups per run; `setup_s` reports their median.
pub const SETUPS: usize = 3;
/// Host-speed probes after each set-up.
const SETUP_PROBES: usize = 5;

/// Runs `setup` [`SETUPS`] times, returning the last result and the
/// median set-up time at reference speed (see [`speed`]), from probes
/// after each set-up. Notes the measured median.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut speed = speed::Speed::new(Instant::now());
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
        for _ in 0..SETUP_PROBES {
            speed.probe();
        }
    }
    let measured = stats::median(&secs);
    let host_speed = speed.host_speed();
    report.notes.push(format!(
        "setup_s measured {measured:.6} at host speed {host_speed:.4}"
    ));
    (last.expect("SETUPS > 0"), measured * host_speed)
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Lays `got` out in the order of `want`: metrics a workload does not
/// produce read 0, and a metric outside `want` (or with another unit)
/// is a bug in the benchmark.
fn ordered(
    want: &[(String, &'static str)],
    got: &[(String, &'static str, f64)],
) -> Result<Vec<(String, &'static str, f64)>, String> {
    for (name, unit, _) in got {
        if !want.iter().any(|(n, u)| n == name && u == unit) {
            return Err(format!("metric {name} ({unit}) is not declared"));
        }
    }
    Ok(want
        .iter()
        .map(|(name, unit)| {
            let v = got
                .iter()
                .find(|(n, ..)| n == name)
                .map_or(0.0, |&(_, _, v)| v);
            (name.clone(), *unit, v)
        })
        .collect())
}

/// Formats a number for the JSON result line, with all its digits.
fn num(x: f64) -> String {
    format!("{x:?}")
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut report = Report::default();
    match args.workload.as_str() {
        "grid_plan" => grid_plan::run(&args, &mut report)?,
        "sweep_uniform" => sweep::run(&args, &mut report, sweep::Kind::Uniform)?,
        "sweep_knapsack" => sweep::run(&args, &mut report, sweep::Kind::Knapsack)?,
        "service_mix" => service_mix::run(&args, &mut report)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let (speed, probes) = report
        .host_speed
        .ok_or("the workload took no host-speed probe")?;
    report.notes.push(format!(
        "host speed {speed:.4} of reference (median of {probes} probes)"
    ));
    if args.trace {
        report.layer("bench.host_speed", "ratio", speed);
    } else {
        report.e2e("peak_rss_mb", "MiB", peak_rss_mb());
    }
    let metrics = if args.trace {
        ordered(&per_layer(), &report.layer)?
    } else {
        let want: Vec<(String, &'static str)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        ordered(&want, &report.e2e)?
    };
    if let Some((name, _, v)) = metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite ({v})"));
    }

    println!("== oabench {} seed {} ==", args.workload, args.seed);
    for line in &report.notes {
        println!("  {line}");
    }
    for (name, unit, value) in &metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!(
        "  attempted {} failed {} fail_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        body.join(",")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("oabench: {e}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json lacks {key}");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                other => panic!("bad {key} entry {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&doc, "per_layer"), layers);
    }
}
