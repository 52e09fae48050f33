//! `service_mix`: an open loop of wire requests through
//! `oa_service::daemon::Service::handle_line`.
//!
//! Requests are offered at a fixed rate whether or not the daemon has
//! answered the previous ones, each is timed from when it was due, and
//! every response is rendered as `oa serve` renders it. Set-up starts a
//! capacity-256 service and joins the five preset clusters (each join
//! prices a cold performance vector).
//!
//! The mix comes in blocks of about 25 requests: fourteen `Submit`s
//! (NS 1–8, NM 12/120/1800, fused or unfused; see `Gen::block_shapes`),
//! one preset `SubmitWorkflow`, three `Status`, one `Metrics`, two
//! half-way `Advance`s, one `Advance` to the last predicted finish
//! followed by a `ClusterLeave`, one `ClusterJoin` and one malformed
//! line. Joins mostly reuse an already-priced (preset, resources) pair,
//! so the daemon's `PlanMemo` answers them warm; about once per 750
//! requests a join prices a new resource count cold and a churn
//! cluster fails.
//!
//! The shares are synthetic: there is no recorded daemon workload to
//! draw them from. Submissions are three in five requests because
//! admission is what this workload measures, and so that the median
//! falls inside the submission cluster. When cheap reads made up about
//! half the stream the median sat on the sparse edge between reads of
//! a few microseconds and submissions of a tenth of a millisecond, and
//! it moved by a factor of two between runs. `Status` is one per five
//! submissions, a client polling now and then; three `Advance`s per
//! block keep the virtual clock moving so that admission never meets
//! the capacity; one join and one leave per block keep the churn steady
//! and the cluster count bounded; one malformed line per block draws
//! every expected PROTO code many times per run without dominating it.
//! Cold joins and failures are rare because a cold join costs about
//! 200 ms, thousands of ordinary requests' worth, yet a run holds ten
//! of each, so the tail (ten samples beyond it) falls in the
//! queue behind a cold join.
//!
//! The virtual clock is sized so that every well-formed submission is
//! admitted: the client advances to the latest finish the daemon has
//! announced once per block, so the planned population stays far below
//! the capacity and every leaving cluster holds no planned work. The
//! `Advance` targets and failure instants are the only request fields
//! taken from earlier responses; the daemon is deterministic, so the
//! whole transcript is a function of the seed, and its hash is printed.

use std::collections::BTreeMap;

use oa_service::daemon::{run_script, Service, ServiceConfig};
use oa_service::wire::{render_response, Response};
use oa_workflow::chain::ExperimentShape;
use oa_workflow::ir::preset_value;

use crate::openloop::{max_sustained, OpenLoop};
use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::{median, tail};
use crate::{timed_setup, write_spans, Args, Report, Rng};

/// Offered load, requests per second. On the reference machine the
/// daemon is busy about a fifth of the time at this rate, while
/// `max_rps` reads 1400–2200/s: the rate sits well below the knee, so
/// `op_ms_p50` is mostly service time and `op_ms_tail` the queue behind
/// a cold join, not general congestion. Each run prints the
/// utilisation it saw.
const RATE: f64 = 300.0;
/// Tail-latency limit `max_rps` must meet, seconds: four times a cold
/// join, so the ladder measures capacity rather than one stall.
const TAIL_LIMIT: f64 = 1.0;
/// Service capacity (scenarios priced per join).
const CAPACITY: u32 = 256;
/// Processors of each set-up cluster.
const SETUP_RESOURCES: u32 = 64;
const PRESETS: [&str; 5] = [
    "sagittaire",
    "capricorne",
    "chinqchint",
    "grillon",
    "grelon",
];
/// Blocks per window; each window holds one cold join and one failure.
const WINDOW: u64 = 30;
/// `Submit`s per block.
const SUBMITS: usize = 14;
/// Processors of the first cold churn join; later ones add one each.
const COLD_RESOURCES: u32 = 96;
/// A host-speed probe may run before every this many requests...
const PROBE_EVERY: usize = 8;
/// ...when the request is due at least this many seconds later, four
/// times a probe at reference speed, so probes fill idle time and do
/// not delay requests.
const PROBE_SLACK_S: f64 = 4.0 * crate::speed::REFERENCE_PROBE_S;

/// Request kinds, named as their per-layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Submit,
    SubmitWorkflow,
    JoinWarm,
    JoinCold,
    Leave,
    Fail,
    Status,
    Advance,
    Metrics,
    Malformed,
}

const KINDS: [Kind; 10] = [
    Kind::Submit,
    Kind::SubmitWorkflow,
    Kind::JoinWarm,
    Kind::JoinCold,
    Kind::Leave,
    Kind::Fail,
    Kind::Status,
    Kind::Advance,
    Kind::Metrics,
    Kind::Malformed,
];

/// The span name of every request kind, in [`KINDS`] order.
pub fn span_names() -> [&'static str; KINDS.len()] {
    KINDS.map(Kind::span)
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Submit => "service.submit",
            Kind::SubmitWorkflow => "service.submit_workflow",
            Kind::JoinWarm => "service.join_warm",
            Kind::JoinCold => "service.join_cold",
            Kind::Leave => "service.leave",
            Kind::Fail => "service.fail",
            Kind::Status => "service.status",
            Kind::Advance => "service.advance",
            Kind::Metrics => "service.metrics",
            Kind::Malformed => "service.malformed",
        }
    }
}

/// The response a request must open with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Admitted,
    State,
    Metrics,
    Up,
    Gone,
    Failed,
    Advanced,
    Code(&'static str),
}

/// One request; `Advance` targets and failure instants are filled in
/// from the client's view of the clock when the request is sent.
#[derive(Debug)]
enum Op {
    Line(Kind, String, Expect),
    /// Advance to the latest announced finish.
    AdvanceFull,
    /// Advance half-way to the latest announced finish.
    AdvanceStep,
    /// Fail the named churn cluster at the current instant.
    Fail(String),
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Line(kind, ..) => *kind,
            Op::AdvanceFull | Op::AdvanceStep => Kind::Advance,
            Op::Fail(_) => Kind::Fail,
        }
    }

    fn expect(&self) -> Expect {
        match self {
            Op::Line(_, _, e) => *e,
            Op::AdvanceFull | Op::AdvanceStep => Expect::Advanced,
            Op::Fail(_) => Expect::Failed,
        }
    }
}

/// Deliberately malformed lines and the code each must draw.
const MALFORMED: [(&str, &str); 7] = [
    ("not valid json", "PROTO001"),
    (r#"{"Frobnicate":{}}"#, "PROTO002"),
    (r#"{"Advance":{}}"#, "PROTO003"),
    (r#"{"Hello":{"version":99}}"#, "PROTO004"),
    (r#"{"Status":{"session":"no-such-session"}}"#, "PROTO006"),
    (
        r#"{"SubmitWorkflow":{"session":"bad-workflow","workflow":{"nodes":[],"edges":[]},"heuristic":"knapsack","policy":"least-advanced","recovery":"checkpoint","kills":"","deadline":0.0}}"#,
        "PROTO009",
    ),
    (r#"{"VariantSweep":{"spec":{"variants":0}}}"#, "PROTO010"),
];

#[derive(Debug, Clone, Copy)]
enum Slot {
    Submit,
    Workflow,
    Status,
    Metrics,
    AdvanceStep,
    AdvanceLeave,
    Join,
    Malformed,
    Fail,
}

/// The seeded request generator.
struct Gen {
    rng: Rng,
    ops: Vec<Op>,
    sessions: Vec<String>,
    /// Churn clusters: name → currently joined.
    churn: Vec<(String, bool)>,
    /// (preset, resources) pairs the daemon has priced.
    priced: Vec<(&'static str, u32)>,
}

impl Gen {
    /// The (NS, NM, fused) shapes of block `b`'s submissions, the preset
    /// workflow's last: NM from the fixed multiset 10×12, 3×120, 1×1800
    /// with the workflow at NM=120, NS from two shuffled copies of 1..=8,
    /// fused and unfused alternating. The NM=1800 session holds most of
    /// the memory the daemon's retained sessions keep, so its NS and
    /// granularity cycle over the blocks instead of being drawn. Every
    /// block carries the same work, so runs differ in order and detail,
    /// not in load or memory.
    fn block_shapes(&mut self, b: u64) -> Vec<(u32, u32, bool)> {
        let mut ns: Vec<u32> = (1..=8).collect();
        self.rng.shuffle(&mut ns);
        let mut more: Vec<u32> = (1..=8).collect();
        self.rng.shuffle(&mut more);
        ns.extend(more);
        let mut nm = [12; SUBMITS + 1];
        nm[10..].copy_from_slice(&[120, 120, 120, 1800, 120]);
        self.rng.shuffle(&mut nm[..SUBMITS]);
        let fused_first = self.rng.below(2) == 0;
        (0..=SUBMITS)
            .map(|i| match nm[i] {
                1800 => (1 + (b % 8) as u32, 1800, (b / 8).is_multiple_of(2)),
                nm => (ns[i], nm, (i % 2 == 0) == fused_first),
            })
            .collect()
    }

    fn line(&mut self, kind: Kind, line: String, expect: Expect) {
        self.ops.push(Op::Line(kind, line, expect));
    }

    fn pick_churn(&mut self, up: bool) -> Option<usize> {
        let idx: Vec<usize> = (0..self.churn.len())
            .filter(|&i| self.churn[i].1 == up)
            .collect();
        (!idx.is_empty()).then(|| idx[self.rng.below(idx.len() as u64) as usize])
    }

    /// Joins a churn cluster that is down (a new one if none is) and
    /// returns its index.
    fn join(&mut self, cold: bool) -> usize {
        let i = self.pick_churn(false).unwrap_or_else(|| {
            self.churn
                .push((format!("churn{}", self.churn.len()), false));
            self.churn.len() - 1
        });
        let (preset, resources) = if cold {
            // Cold joins walk the presets at about 100 processors, new
            // counts all, so each run prices the same work cold.
            let k = self.priced.len() - PRESETS.len();
            let pair = (PRESETS[k % PRESETS.len()], COLD_RESOURCES + k as u32);
            self.priced.push(pair);
            pair
        } else {
            self.priced[self.rng.below(self.priced.len() as u64) as usize]
        };
        self.churn[i].1 = true;
        let name = self.churn[i].0.clone();
        let kind = if cold { Kind::JoinCold } else { Kind::JoinWarm };
        self.line(
            kind,
            format!(
                r#"{{"ClusterJoin":{{"name":"{name}","preset":"{preset}","resources":{resources}}}}}"#
            ),
            Expect::Up,
        );
        i
    }

    fn block(&mut self, b: u64, cold: bool, fail: bool) {
        let mut slots = Vec::with_capacity(24);
        slots.extend([Slot::Submit; SUBMITS]);
        slots.push(Slot::Workflow);
        slots.extend([Slot::Status; 3]);
        slots.push(Slot::Metrics);
        slots.extend([Slot::AdvanceStep; 2]);
        slots.push(Slot::AdvanceLeave);
        slots.push(Slot::Join);
        slots.push(Slot::Malformed);
        if fail {
            slots[SUBMITS + 1] = Slot::Fail;
        }
        self.rng.shuffle(&mut slots);
        let mut shapes = self.block_shapes(b);
        let workflow = shapes.pop().expect("a workflow shape per block");
        for slot in slots {
            match slot {
                Slot::Submit => {
                    let (ns, nm, fused) = shapes.pop().expect("a shape per submission");
                    let name = format!("s{}", self.sessions.len());
                    let granularity = if fused { "fused" } else { "unfused" };
                    self.line(
                        Kind::Submit,
                        format!(
                            r#"{{"Submit":{{"session":"{name}","ns":{ns},"nm":{nm},"heuristic":"knapsack","policy":"least-advanced","granularity":"{granularity}","recovery":"checkpoint","kills":"","deadline":0.0}}}}"#
                        ),
                        Expect::Admitted,
                    );
                    self.sessions.push(name);
                }
                Slot::Workflow => {
                    let (ns, nm, fused) = workflow;
                    let name = format!("w{}", self.sessions.len());
                    let workflow =
                        serde_json::to_string(&preset_value(ExperimentShape::new(ns, nm), fused))
                            .expect("preset workflows serialize");
                    self.line(
                        Kind::SubmitWorkflow,
                        format!(
                            r#"{{"SubmitWorkflow":{{"session":"{name}","workflow":{workflow},"heuristic":"knapsack","policy":"least-advanced","recovery":"checkpoint","kills":"","deadline":0.0}}}}"#
                        ),
                        Expect::Admitted,
                    );
                    self.sessions.push(name);
                }
                Slot::Status if !self.sessions.is_empty() => {
                    let s = &self.sessions[self.rng.below(self.sessions.len() as u64) as usize];
                    let line = format!(r#"{{"Status":{{"session":"{s}"}}}}"#);
                    self.line(Kind::Status, line, Expect::State);
                }
                Slot::Status | Slot::Metrics => {
                    self.line(Kind::Metrics, r#"{"Metrics":{}}"#.into(), Expect::Metrics);
                }
                Slot::AdvanceStep => self.ops.push(Op::AdvanceStep),
                Slot::AdvanceLeave => {
                    self.ops.push(Op::AdvanceFull);
                    if let Some(i) = self.pick_churn(true) {
                        self.churn[i].1 = false;
                        let name = &self.churn[i].0;
                        let line = format!(r#"{{"ClusterLeave":{{"name":"{name}"}}}}"#);
                        self.line(Kind::Leave, line, Expect::Gone);
                    }
                }
                Slot::Join => {
                    self.join(cold);
                }
                Slot::Malformed => {
                    let (line, code) = MALFORMED[self.rng.below(MALFORMED.len() as u64) as usize];
                    self.line(Kind::Malformed, line.into(), Expect::Code(code));
                }
                Slot::Fail => {
                    let i = match self.pick_churn(true) {
                        Some(i) => i,
                        None => self.join(false),
                    };
                    self.churn[i].1 = false;
                    self.ops.push(Op::Fail(self.churn[i].0.clone()));
                }
            }
        }
    }
}

/// The first `n` requests of the seed's stream.
fn generate(seed: u64, n: usize) -> Vec<Op> {
    let mut g = Gen {
        rng: Rng::new(seed, 0x7365_7276),
        ops: Vec::with_capacity(n + 32),
        sessions: Vec::new(),
        churn: Vec::new(),
        priced: PRESETS.iter().map(|&p| (p, SETUP_RESOURCES)).collect(),
    };
    let (mut cold_at, mut fail_at) = (0, 0);
    let mut b = 0u64;
    while g.ops.len() < n {
        if b.is_multiple_of(WINDOW) {
            // Cold joins keep to the middle half of their window, so two
            // never queue behind each other and the tail measures one.
            cold_at = b + WINDOW / 4 + g.rng.below(WINDOW / 2);
            fail_at = b + g.rng.below(WINDOW);
        }
        g.block(b, b == cold_at, b == fail_at);
        b += 1;
    }
    g.ops.truncate(n);
    g.ops
}

/// The client's view of the daemon's clock.
#[derive(Debug, Default)]
struct Clock {
    now: f64,
    horizon: f64,
}

impl Clock {
    fn line(&self, op: &Op) -> String {
        match op {
            Op::Line(_, line, _) => line.clone(),
            Op::AdvanceFull => {
                format!(r#"{{"Advance":{{"to":{:?}}}}}"#, self.horizon.max(self.now))
            }
            Op::AdvanceStep => {
                let to = self.now + (self.horizon - self.now).max(0.0) / 2.0;
                format!(r#"{{"Advance":{{"to":{to:?}}}}}"#)
            }
            Op::Fail(name) => format!(
                r#"{{"ClusterFail":{{"name":"{name}","at":{:?}}}}}"#,
                self.now
            ),
        }
    }

    fn observe(&mut self, resp: &Response) {
        match resp {
            Response::Admitted {
                predicted_finish: Some(f),
                ..
            } => self.horizon = self.horizon.max(*f),
            Response::Replanned { portions, .. } => {
                for f in portions.iter().filter_map(|p| p.finish) {
                    self.horizon = self.horizon.max(f);
                }
            }
            Response::Advanced { to, .. } => self.now = *to,
            Response::ClusterFailed { at, .. } => self.now = *at,
            _ => {}
        }
    }
}

/// Whether `resps` answer a request that expected `want`.
fn answered(want: Expect, resps: &[Response]) -> bool {
    if let Expect::Code(want) = want {
        return matches!(
            resps,
            [Response::Error { code, .. } | Response::Rejected { code, .. }] if code == want
        );
    }
    if resps
        .iter()
        .any(|r| matches!(r, Response::Error { .. } | Response::Rejected { .. }))
    {
        return false;
    }
    match want {
        Expect::Admitted => matches!(resps.first(), Some(Response::Admitted { .. })),
        Expect::State => matches!(resps.first(), Some(Response::State { .. })),
        Expect::Metrics => matches!(resps.first(), Some(Response::MetricsReport { .. })),
        Expect::Up => matches!(resps.first(), Some(Response::ClusterUp { .. })),
        Expect::Gone => matches!(resps.first(), Some(Response::ClusterGone { .. })),
        Expect::Failed => resps
            .iter()
            .any(|r| matches!(r, Response::ClusterFailed { .. })),
        Expect::Advanced => matches!(resps.last(), Some(Response::Advanced { .. })),
        Expect::Code(_) => unreachable!("handled above"),
    }
}

/// FNV-1a, folded over the transcript.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One pass of the open loop over `ops` against a fresh `service`.
struct Pass {
    loop_: OpenLoop,
    kinds: Vec<Kind>,
    hash: u64,
    codes: BTreeMap<String, u64>,
    submitted: u64,
    admitted: u64,
    failures: Vec<String>,
    speed: Speed,
}

fn pass(service: &mut Service, ops: &[Op], rate: f64, spans: &mut Spans) -> Pass {
    let loop_ = OpenLoop::start(rate);
    let mut p = Pass {
        speed: Speed::new(loop_.origin()),
        loop_,
        kinds: Vec::with_capacity(ops.len()),
        hash: 0xcbf2_9ce4_8422_2325,
        codes: BTreeMap::new(),
        submitted: 0,
        admitted: 0,
        failures: Vec::new(),
    };
    let mut clock = Clock::default();
    for (i, op) in ops.iter().enumerate() {
        let kind = op.kind();
        let line = clock.line(op);
        if i % PROBE_EVERY == 0 && p.loop_.slack(i) > PROBE_SLACK_S {
            p.speed.probe();
        }
        let (resps, log) = p.loop_.issue(i, || {
            spans.begin_request("service.request", i as u64);
            spans.begin(kind.span());
            let resps = service.handle_line(&line);
            let mut log = String::new();
            for r in &resps {
                log.push_str(&render_response(r));
                log.push('\n');
            }
            spans.end();
            spans.end();
            (resps, log)
        });
        fnv(&mut p.hash, line.as_bytes());
        fnv(&mut p.hash, b"\n");
        fnv(&mut p.hash, log.as_bytes());
        for r in &resps {
            clock.observe(r);
            if let Response::Error { code, .. } | Response::Rejected { code, .. } = r {
                *p.codes.entry(code.clone()).or_default() += 1;
            }
        }
        if matches!(kind, Kind::Submit | Kind::SubmitWorkflow) {
            p.submitted += 1;
            p.admitted += u64::from(matches!(resps.first(), Some(Response::Admitted { .. })));
        }
        if !answered(op.expect(), &resps) {
            p.failures
                .push(format!("request {i} {line} -> {}", log.trim_end()));
        }
        p.kinds.push(kind);
    }
    p
}

/// A capacity-256 service with the five presets joined.
fn setup() -> (Service, bool) {
    let cfg = ServiceConfig {
        capacity: CAPACITY,
        ..ServiceConfig::default()
    };
    let mut service = Service::new(cfg, 1);
    let mut ok = matches!(
        service.handle_line(r#"{"Hello":{"version":1}}"#).first(),
        Some(Response::Welcome { .. })
    );
    for p in PRESETS {
        let line = format!(
            r#"{{"ClusterJoin":{{"name":"{p}","preset":"{p}","resources":{SETUP_RESOURCES}}}}}"#
        );
        ok &= matches!(
            service.handle_line(&line).first(),
            Some(Response::ClusterUp { .. })
        );
    }
    (service, ok)
}

/// Every error and rejection code of the wire protocol.
pub const CODES: [&str; 16] = [
    "PROTO001", "PROTO002", "PROTO003", "PROTO004", "PROTO005", "PROTO006", "PROTO007", "PROTO008",
    "PROTO009", "PROTO010", "OA002", "OA004", "OA005", "OA016", "OA018", "CT001",
];

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let script = read("tests/fixtures/service_transcript.jsonl")?;
    let golden = read("tests/golden/service_session.log")?;
    let replay_cfg = ServiceConfig {
        capacity: 32,
        ..ServiceConfig::default()
    };
    let replayed = run_script(&mut Service::new(replay_cfg, 1), &script);
    report.check(replayed == golden, || {
        "golden transcript replay diverged".into()
    });

    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let n = (RATE * seconds).round() as usize;
    let ops = generate(args.seed, n);
    let ((mut service, ok), setup_s) = timed_setup(report, setup);
    report.check(ok, || "set-up joins were refused".into());

    let p = pass(&mut service, &ops, RATE, &mut Spans::new(false));
    p.speed.finish(report);
    for f in &p.failures {
        report.check(false, || f.clone());
    }
    report.attempted += (ops.len() - p.failures.len()) as u64;
    // Latency and service time at reference speed, each scaled by the
    // host speed around the request's due time.
    let due: Vec<f64> = (0..ops.len()).map(|i| p.loop_.due(i)).collect();
    let lat = p.speed.at_reference(&due, &p.loop_.latency);
    let service_times = p.speed.at_reference(&due, &p.loop_.service);
    let t = tail(&lat).ok_or("too few requests for a tail; raise --seconds")?;
    let max_rps = |service: &[f64]| max_sustained(service, TAIL_LIMIT);
    let warm = ops.iter().filter(|o| o.kind() == Kind::JoinWarm).count();
    let cold = ops.iter().filter(|o| o.kind() == Kind::JoinCold).count();
    let busy: f64 = p.loop_.service.iter().sum();
    report.notes.push(format!(
        "{} requests offered at {RATE}/s; utilisation {:.3}; transcript fnv1a {:016x}",
        ops.len(),
        busy * RATE / ops.len() as f64,
        p.hash
    ));
    report.notes.push(format!(
        "measured: ops_per_s {:.3}, op_ms_p50 {:.6}",
        max_rps(&p.loop_.service),
        median(&p.loop_.latency) * 1e3
    ));
    report.notes.push(format!(
        "req_ms_tail is p{:.2} of {} requests ({} beyond); {} of {} submissions admitted",
        t.pct, t.n, t.beyond, p.admitted, p.submitted
    ));
    report.notes.push(format!(
        "joins {warm} warm / {cold} cold; max_rps: highest rate of 1.001^k/s at which \
         these service times, replayed first-in first-out, keep the tail under {} ms",
        TAIL_LIMIT * 1e3
    ));
    if !args.trace {
        report.e2e("setup_s", "s", setup_s);
        report.e2e("ops_per_s", "1/s", max_rps(&service_times));
        report.e2e("op_ms_p50", "ms", median(&lat) * 1e3);
        report.e2e("op_ms_tail", "ms", t.value * 1e3);
        return Ok(());
    }

    // Traced pass over the same requests against a fresh service.
    let (mut service, _) = setup();
    let mut spans = Spans::new(true);
    let traced = pass(&mut service, &ops, RATE, &mut spans);
    for f in &traced.failures {
        report.check(false, || format!("traced pass: {f}"));
    }
    let sum = |x: &[f64]| x.iter().sum::<f64>();
    let traced_service = traced.speed.at_reference(&due, &traced.loop_.service);
    let overhead = sum(&traced_service) / sum(&service_times) - 1.0;
    report.span_metrics(&spans, &span_names(), overhead);
    for k in KINDS {
        let secs: Vec<f64> = traced
            .kinds
            .iter()
            .zip(&traced.loop_.service)
            .filter(|(kind, _)| **kind == k)
            .map(|(_, &s)| s)
            .collect();
        // Kinds too rare for the tail rule report their maximum.
        let ms_tail =
            tail(&secs).map_or_else(|| secs.iter().copied().fold(0.0, f64::max), |t| t.value) * 1e3;
        report.layer(format!("{}.ms_tail", k.span()), "ms", ms_tail);
    }
    report.layer(
        "service.admit_ratio",
        "ratio",
        traced.admitted as f64 / traced.submitted.max(1) as f64,
    );
    for code in CODES {
        let count = traced.codes.get(code).copied().unwrap_or(0);
        report.layer(format!("service.rejected.{code}"), "count", count as f64);
    }
    report.layer(
        "service.join_warm_share",
        "ratio",
        warm as f64 / (warm + cold).max(1) as f64,
    );
    report.layer("loadgen.late_ms_max", "ms", traced.loop_.late_max * 1e3);
    report.layer(
        "loadgen.backlog_max",
        "count",
        traced.loop_.backlog_max as f64,
    );
    write_spans(args, &spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generated_request_gets_its_expected_answer() {
        for seed in [1, 2, 3] {
            let ops = generate(seed, 3000);
            let cold = ops.iter().filter(|o| o.kind() == Kind::JoinCold).count();
            let fails = ops.iter().filter(|o| o.kind() == Kind::Fail).count();
            assert!(cold >= 2 && fails >= 2, "one of each per ~1000 requests");
            let (mut service, ok) = setup();
            assert!(ok);
            // Unpaced: only the answers matter here.
            let p = pass(&mut service, &ops, 1e12, &mut Spans::new(false));
            assert_eq!(p.failures, Vec::<String>::new(), "seed {seed}");
            assert_eq!(p.admitted, p.submitted, "seed {seed}");
            let again = pass(&mut setup().0, &ops, 1e12, &mut Spans::new(false));
            assert_eq!(
                again.hash, p.hash,
                "the transcript is a function of the seed"
            );
        }
    }
}
