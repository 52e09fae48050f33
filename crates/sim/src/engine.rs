//! The generic discrete-event campaign engine: one loop, every config.
//!
//! Historically `oa-sim` carried four hand-rolled event loops — the
//! recording executor, the unfused ablation, the failure replayer and
//! the per-cluster grid runner — each duplicating the same
//! least-advanced-first policy with its own waiting queue. This module
//! is the single loop that replaced them, generic over the orthogonal
//! knobs of [`CampaignConfig`]:
//!
//! * **policy** — a [`ScenarioQueue`] object (least-advanced,
//!   round-robin, most-advanced) consulted at every assignment;
//! * **granularity** — fused one-shot posts (Figure 2) or the unfused
//!   `cof → emf → cd` chain of Figure 1;
//! * **recovery** — what a scenario crashed by a [`FaultPlan`] resumes
//!   from (monthly checkpoint or full restart);
//!
//! plus a [`Tracer`] sink for the full event story and the thread-local
//! scratch arenas that keep repeat runs allocation-free. Callers pick a
//! configuration and read [`CampaignOutcome`] / [`CampaignRun`]
//! directly; `crate::executor` (fused, fault-free, schedule recorded)
//! and `crate::grid_exec` (one run per cluster) are the only wrappers.
//!
//! # Granularity: the fusion argument
//!
//! Section 4.1 fuses `caif + mp + pcr` into one main task and
//! `cof + emf + cd` into one post task before scheduling.
//! [`Granularity::Unfused`] executes the original seven-task DAG under
//! the same group policy:
//!
//! * a group picks a scenario and runs `caif`, `mp` and `pcr` of the
//!   month back-to-back (the pre tasks use one processor of the group;
//!   the group is held for the whole span, exactly as fusion assumes);
//! * `cof`, `emf`, `cd` are three distinct one-processor tasks chained
//!   through the post pool — unlike fusion, each hop re-enters the
//!   FIFO queue and may land on a different processor or wait behind
//!   other scenarios' diagnostics.
//!
//! The Figure 1 constants are rescaled by the table's post/180 ratio
//! (pre and post scale with the sequential speed of the machine). The
//! measurable difference against the fused run is therefore exactly
//! the cost (or benefit) of post-chain interleaving, which the
//! `fusion_ablation` bench quantifies. It is bounded by construction:
//! fused post occupancy equals the sum of the parts, so only queueing
//! order can differ.
//!
//! # Failures: the checkpoint/restart model
//!
//! The application is checkpointed by construction — "the results from
//! the nth monthly simulation are the starting point of the (n+1)th" —
//! so a crashed group costs at most one month of work per scenario: the
//! scenario resumes from its last completed month on another group. A
//! [`FaultPlan`] kills groups at given times and the loop replays the
//! paper's policy around the losses, under two recovery models:
//!
//! * [`Recovery::MonthlyCheckpoint`] — the real application: only the
//!   in-flight month is lost;
//! * [`Recovery::RestartScenario`] — a counterfactual without restart
//!   files: the victim scenario loses *all* completed months.
//!
//! With *heterogeneous* groups a failure can shorten the campaign:
//! killing a slow group re-homes its scenario onto a faster group, a
//! move the non-preemptive least-advanced policy would never make on
//! its own. Dead groups never return and their processors do not join
//! the post-processing pool (the hardware is gone). Failures addressed
//! to a group that already disbanded are ignored — the machines left
//! the group before dying, and post-pool shrinkage is a second-order
//! effect this model does not track. When every group dies with months
//! still unscheduled the run is [`CampaignOutcome::Stranded`].
//!
//! # The simulation kernel
//!
//! On top of the generic loop sits a two-part kernel optimisation,
//! controlled by [`KernelOpts`] and reported by [`KernelReport`]:
//!
//! 1. **Integer-time calendar queue.** When every task duration (and
//!    every failure instant) is an exact integral second
//!    ([`oa_sched::time::exact_ticks`]), every clock value in the run
//!    is an exactly-represented integer, and the busy set moves from a
//!    `BinaryHeap` of [`TimeKey`]s onto the O(1) bucket ring of
//!    [`crate::calendar::CalendarQueue`]. Pop order is identical by
//!    construction (ascending tick, then ascending group), so the swap
//!    cannot change one bit of output.
//! 2. **Steady-state fast-forward.** A fault-free campaign repeats the
//!    same event pattern every cycle once the pipeline fills. The
//!    detector in the private `ffwd` module spots the recurrence (same
//!    busy/running/idle/waiting shape modulo a constant time offset and
//!    a uniform month shift), and the engine then *replays* the cycle's
//!    journal arithmetically — records, chain entries and trace events
//!    stamped from the template with `t + j·D` — instead of
//!    re-simulating it. The fused post drain runs the same trick over
//!    the processor pool. Both fall back to event-by-event execution
//!    around faults, cluster transitions and the campaign head/tail,
//!    and both are sound only in integer-time mode, where the stamped
//!    additions are exact.
//!
//! # Equivalence guarantees
//!
//! The refactor that introduced this engine is pinned by byte-identity:
//! with an empty fault plan the engine replays *exactly* the decision
//! sequence of the legacy executor (same floats, same record order,
//! same event stream), and the unfused chain reproduces the legacy
//! seven-task executor bitwise (the tracked `fusion_ablation.json`).
//! The kernel keeps the same contract in both directions:
//! fast-forwarded runs are bitwise identical to event-by-event runs.
//! `tests/engine_equivalence.rs`, `tests/kernel_equivalence.rs` and
//! the tracked `results/*.json` enforce this.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use oa_platform::timing::TimingTable;
use oa_sched::grouping::{Grouping, GroupingError};
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity, Recovery, ScenarioQueue};
use oa_sched::time::{exact_ticks, is_tick_exact, time_key, Time, TimeKey, MAX_EXACT_SECS};
use oa_trace::{EventKind, TraceEvent, Tracer};
use oa_workflow::fusion::FusedTask;
use oa_workflow::task::{
    TaskKind, CD_SECS, COF_SECS, EMF_SECS, FUSED_POST_SECS, FUSED_PRE_SECS, MIN_PROCS,
};

use crate::calendar::CalendarQueue;
use crate::ffwd::{
    pool_match, pool_snapshot, Detector, LogEv, PoolSnap, PostPeriodic, SnapView, MAX_POOL_SNAPS,
};
use crate::schedule::{ProcRange, Schedule, TaskRecord};

pub use crate::ffwd::{KernelOpts, KernelReport};

/// Post-chain step kinds at unfused granularity, in chain order.
const STEP_KINDS: [TaskKind; 3] = [TaskKind::Cof, TaskKind::Emf, TaskKind::Cd];

/// The post model for one granularity: step durations, the pre rescale
/// folded into the group span, and the index of the last chain step.
/// Fused runs one `tp` step; unfused runs the Figure 1 chain with the
/// constants rescaled by the table's post/180 cluster-speed ratio.
fn post_model(granularity: Granularity, tp: f64) -> ([f64; 3], f64, u8) {
    match granularity {
        Granularity::Fused => ([tp, 0.0, 0.0], 0.0, 0),
        Granularity::Unfused => {
            let speed = tp / FUSED_POST_SECS;
            (
                [COF_SECS * speed, EMF_SECS * speed, CD_SECS * speed],
                FUSED_PRE_SECS * speed,
                2,
            )
        }
    }
}

/// Appends the per-group main durations for `sizes` onto `durs`,
/// exactly as the event loop will add them to its clock. `trow` is
/// `table.main_array()`. At unfused granularity the table's duration
/// includes the pre tasks already; the scaled pre is subtracted and
/// added back so the group span equals the fused duration *bitwise*.
fn push_durs(durs: &mut Vec<f64>, sizes: &[u32], trow: &[f64], granularity: Granularity, pre: f64) {
    match granularity {
        Granularity::Fused => durs.extend(sizes.iter().map(|&g| trow[(g - MIN_PROCS) as usize])),
        Granularity::Unfused => durs.extend(
            sizes
                .iter()
                .map(|&g| (trow[(g - MIN_PROCS) as usize] - pre) + pre),
        ),
    }
}

/// The integer-time gate: whether a run over `durs` and `failures`
/// wants the tick representation, and the largest duration in ticks
/// (the calendar ring's required span). Integer time is sound when
/// every clock value the run can produce is an exactly-represented
/// integer: integral task durations, integral failure instants, and a
/// total horizon with comfortable headroom below 2^53.
fn kernel_gate(
    durs: &[f64],
    failures: &[(usize, f64)],
    inst: Instance,
    steps_sum: f64,
    requested: bool,
) -> (bool, u64) {
    let mut max_dur_ticks = 0u64;
    let mut durs_ticky = true;
    for &d in durs {
        match exact_ticks(d) {
            Some(ticks) if ticks > 0 => max_dur_ticks = max_dur_ticks.max(ticks),
            _ => {
                durs_ticky = false;
                break;
            }
        }
    }
    let faults_ticky = failures.iter().all(|&(_, t)| is_tick_exact(t));
    let max_fault = failures.iter().fold(0.0f64, |a, &(_, t)| a.max(t));
    // Loose serial-work bound on the final clock value; restarts can
    // re-execute at most one campaign's worth of months per failure.
    let horizon = max_fault
        + (f64::from(inst.nm) + 1.0)
            * (f64::from(inst.ns) + failures.len() as f64 + 1.0)
            * (max_dur_ticks as f64 + steps_sum + 1.0);
    let want_ticks = requested && durs_ticky && faults_ticky && horizon < MAX_EXACT_SECS / 2.0;
    (want_ticks, max_dur_ticks)
}

/// Whether a campaign qualifies for the integer-time kernel — the
/// engine's gate, decided without running the event loop. This is the
/// value [`KernelReport::integer_time`] will report whenever `opts`
/// requests the kernel (calendar or fast-forward on); with neither
/// knob set the engine stays on the heap regardless of eligibility.
///
/// `oa-analyze`'s static certifier mirrors this decision independently
/// (it cannot depend on this crate); rule `CT002` cross-checks the two
/// against each other and against the report of a real run.
#[must_use]
pub fn kernel_eligibility(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
) -> bool {
    let (steps, pre, _) = post_model(config.granularity, table.post_secs());
    let mut durs = Vec::with_capacity(grouping.group_count());
    push_durs(
        &mut durs,
        grouping.groups(),
        table.main_array(),
        config.granularity,
        pre,
    );
    let (want_ticks, max_dur_ticks) =
        kernel_gate(&durs, &plan.failures, inst, steps.iter().sum(), true);
    want_ticks && CalendarQueue::<u32>::ring_fits(max_dur_ticks)
}

/// Aggregates of a completed campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignRun {
    /// The full schedule, recorded only for fused runs with an empty
    /// fault plan (the one case where every task runs exactly once and
    /// the record set is a valid [`Schedule`]).
    pub schedule: Option<Schedule>,
    /// Campaign makespan, seconds.
    pub makespan: f64,
    /// Last main-phase completion.
    pub main_finish: f64,
    /// Last post-chain completion.
    pub post_finish: f64,
    /// Processor-seconds of work destroyed by crashes.
    pub lost_proc_secs: f64,
    /// Months whose in-flight run was lost (re-executed later).
    pub months_lost: u32,
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CampaignOutcome {
    /// The campaign completed.
    Completed(CampaignRun),
    /// Every group died with months still unscheduled.
    Stranded {
        /// Months completed before the grid went dark.
        completed_months: u64,
    },
}

impl CampaignOutcome {
    /// The completed run, if any.
    pub fn completed(&self) -> Option<&CampaignRun> {
        match self {
            CampaignOutcome::Completed(run) => Some(run),
            CampaignOutcome::Stranded { .. } => None,
        }
    }

    /// Makespan of a completed run (`None` when stranded).
    pub fn makespan(&self) -> Option<f64> {
        self.completed().map(|r| r.makespan)
    }
}

/// What one processed failure actually destroyed — the damage
/// assessment the trace layer reports as a `FailureDetect` event.
struct FailureImpact {
    /// The scenario whose in-flight month died, with the month it will
    /// resume from (`None` when the group was idle).
    victim: Option<(u32, u32)>,
    /// Processor-seconds destroyed.
    lost_proc_secs: f64,
    /// Months of progress destroyed.
    months_lost: u32,
}

/// Emits the inject/detect/recover event triple for one processed
/// failure (inject always; detect and recover only if the kill landed).
fn emit_failure<T: Tracer>(tracer: &mut T, failure: (usize, f64), impact: Option<&FailureImpact>) {
    let (g, tf) = failure;
    tracer.record(TraceEvent::at(
        tf,
        EventKind::FailureInject { group: g as u32 },
    ));
    let Some(im) = impact else { return };
    tracer.record(TraceEvent::at(
        tf,
        EventKind::FailureDetect {
            group: g as u32,
            victim: im.victim.map(|(s, _)| s),
            lost_proc_secs: im.lost_proc_secs,
            months_lost: im.months_lost,
        },
    ));
    if let Some((s, m)) = im.victim {
        tracer.record(TraceEvent::at(
            tf,
            EventKind::Recover {
                scenario: s,
                resume_month: m,
            },
        ));
    }
}

/// One ready post-chain step at unfused granularity, min-heap keyed:
/// the ready instant, then `(step index within the month's chain,
/// insertion sequence, scenario, month)` as the deterministic
/// tie-break.
type ChainKey = TimeKey<(u8, u64, u32, u32)>;

/// The busy set — `(finish time, group)` in pop order — in either of
/// its two representations. The calendar queue is used whenever the
/// run qualifies for integer time; the pop sequence is identical
/// either way (unique group payloads, ascending tie-break).
enum Busy<'a> {
    /// `f64` binary heap: the always-correct fallback.
    Heap(&'a mut BinaryHeap<TimeKey<usize>>),
    /// Integer-tick bucket ring.
    Cal(&'a mut CalendarQueue<usize>),
}

impl Busy<'_> {
    fn push(&mut self, t: f64, g: usize) {
        match self {
            Busy::Heap(h) => h.push(time_key(t, g)),
            Busy::Cal(c) => {
                debug_assert!(t >= 0.0 && t.fract() == 0.0, "non-integral tick {t}");
                c.push(t as u64, g);
            }
        }
    }

    fn peek_time(&mut self) -> Option<f64> {
        match self {
            Busy::Heap(h) => h.peek().map(|Reverse((Time(t), _))| *t),
            Busy::Cal(c) => c.peek().map(|(t, _)| t as f64),
        }
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        match self {
            Busy::Heap(h) => h.pop().map(|Reverse((Time(t), g))| (t, g)),
            Busy::Cal(c) => c.pop().map(|(t, g)| (t as f64, g)),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Busy::Heap(h) => h.is_empty(),
            Busy::Cal(c) => c.is_empty(),
        }
    }

    /// Keeps the calendar's push window in step with simulated time
    /// when an event other than a pop advances the clock.
    fn advance_to(&mut self, now: f64) {
        if let Busy::Cal(c) = self {
            debug_assert!(now >= 0.0 && now.fract() == 0.0, "non-integral tick {now}");
            c.advance_to(now as u64);
        }
    }
}

/// The ready post work, in the representation its pop order allows.
/// Fused main completions are chronological and the legacy heap key
/// broke ties by insertion sequence, so the fused drain is exactly a
/// FIFO — a ring buffer replaces the heap bitwise-identically. The
/// unfused chain re-enters steps at out-of-order ready times and keeps
/// the heap.
enum Chain<'a> {
    /// Fused: `(finish time, scenario, month)` in push order.
    Fifo(&'a mut VecDeque<(f64, u32, u32)>),
    /// Unfused: ready steps keyed for earliest-ready-first.
    Heap(&'a mut BinaryHeap<ChainKey>),
}

impl Chain<'_> {
    fn len(&self) -> usize {
        match self {
            Chain::Fifo(f) => f.len(),
            Chain::Heap(h) => h.len(),
        }
    }
}

/// The fused drain's view of the completion chain: an optional
/// borrowed prefix (the shared head chain of a batch resume) followed
/// by this run's own completions. Indexing is chain-absolute, so the
/// fast-forward bookkeeping (`PostPeriodic::start_idx`, template
/// windows) is oblivious to where the prefix ends.
struct Entries<'a> {
    prefix: &'a [(f64, u32, u32)],
    tail: &'a [(f64, u32, u32)],
}

impl Entries<'_> {
    fn len(&self) -> usize {
        self.prefix.len() + self.tail.len()
    }

    #[inline]
    fn at(&self, i: usize) -> (f64, u32, u32) {
        if i < self.prefix.len() {
            self.prefix[i]
        } else {
            self.tail[i - self.prefix.len()]
        }
    }
}

/// One resumable engine state, captured at an `NS`-completion boundary
/// of a fault-free head run (index 0 is the post-first-assignment
/// state at `t = 0`). Every collection is stored in its canonical
/// (sorted / pop-order) form; pop order is a pure function of content
/// for each container involved, so pushing the content back rebuilds
/// an indistinguishable queue.
#[derive(Debug, Clone, Default)]
pub(crate) struct Checkpoint {
    /// Instant of the boundary (the `completions`-th main finish; 0 at
    /// index 0).
    t: f64,
    /// `main_finish` as of the boundary (equals `t` except at index 0).
    main_finish: f64,
    /// Main completions so far.
    completions: u64,
    /// Busy groups as absolute `(finish tick, group)`, ascending.
    busy: Vec<(u64, u32)>,
    /// Per-group `(scenario, start)` while running.
    running: Vec<Option<(u32, f64)>>,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, ascending by `(size, index)`.
    idle: Vec<u32>,
    /// Waiting scenario ids in the queue's canonical order.
    waiting: Vec<u32>,
    /// Post pool as `(availability, processor)`, ascending.
    pool: Vec<(f64, u32)>,
    /// Groups not yet disbanded or dead.
    alive: usize,
    /// Scenarios with months still to run.
    unfinished: usize,
}

/// Post-drain state at the same boundary as its [`Checkpoint`]: what
/// the head's drain looked like after consuming exactly the chain
/// prefix up to the boundary. A resumed variant may adopt this state —
/// skipping the prefix drain entirely — iff `valid` holds and every
/// variant-side pool entry below `post_base` (group disbands, which
/// differ after the fault) is strictly later than `maxpop`, so none of
/// them could have been popped inside the prefix.
#[derive(Debug, Clone, Default)]
pub(crate) struct DrainCk {
    /// No processor below `post_base` was popped within the prefix.
    valid: bool,
    /// Largest availability popped within the prefix.
    maxpop: f64,
    /// `post_finish` after the prefix.
    post_finish: f64,
    /// Pool entries at ids ≥ `post_base` after the prefix, ascending.
    pool: Vec<(f64, u32)>,
}

/// Everything a fault-free head run captures for later resumes: the
/// per-boundary checkpoints (main phase and drain), the full completion
/// chain, and the head's own outcome (reused verbatim for fault-free
/// variants).
#[derive(Debug, Default)]
pub(crate) struct BatchHead {
    checkpoints: Vec<Checkpoint>,
    drain_cks: Vec<DrainCk>,
    chain: Vec<(f64, u32, u32)>,
    /// The head's own result, filled by [`run_batch_head`].
    pub outcome: Option<(CampaignOutcome, KernelReport)>,
}

impl BatchHead {
    /// Index of the last checkpoint strictly before `t`, i.e. the
    /// furthest state a variant whose first fault hits at `t` can adopt
    /// unchanged. Strictness matters: a checkpoint taken *at* the
    /// fault instant already contains completions the faulted run
    /// handles after the fault. The `t = 0` checkpoint is the one
    /// exception — it precedes the event loop entirely, so a fault at
    /// `t = 0` resumes from it (the saturation below).
    pub fn checkpoint_before(&self, t: f64) -> usize {
        self.checkpoints
            .partition_point(|ck| ck.t < t)
            .saturating_sub(1)
    }
}

/// How one `run` call participates in cross-variant batching.
pub(crate) enum Batch<'a> {
    /// Plain single run.
    Off,
    /// Fault-free head run: capture checkpoints into the given head.
    /// Requires fused granularity, integer time and fast-forward off
    /// (every boundary must be visited to be captured).
    Capture(&'a mut BatchHead),
    /// Variant run: restore the `ck`-th checkpoint of `head` and
    /// simulate onward under `failures` (pre-sorted by time, ties in
    /// plan order — the order `run` itself would produce).
    Resume {
        /// The captured head to resume from.
        head: &'a BatchHead,
        /// Checkpoint index, from [`BatchHead::checkpoint_before`].
        ck: usize,
        /// The variant's fault plan, sorted.
        failures: &'a [(usize, f64)],
    },
}

/// Reusable event-loop state: the sweeps execute thousands of
/// campaigns back to back, and clearing these collections (capacity
/// preserved) makes each run allocation-free apart from the returned
/// record arena and the bounded buffers of the fast-forward detector.
/// Thread-local, so every `oa-par` worker owns its own.
struct Scratch {
    /// Per-group main duration.
    durs: Vec<f64>,
    /// First processor id of each group.
    bases: Vec<u32>,
    /// Busy groups, heap representation.
    busy_heap: BinaryHeap<TimeKey<usize>>,
    /// Busy groups, integer-tick representation.
    busy_cal: CalendarQueue<usize>,
    /// Per-group (scenario, start time) while running.
    running: Vec<Option<(u32, f64)>>,
    /// Waiting scenarios under the configured policy.
    waiting: ScenarioQueue,
    /// Months completed per scenario.
    months_done: Vec<u32>,
    /// Idle groups, sorted ascending by (size, index).
    idle: Vec<usize>,
    /// `dead[g]`: group `g` crashed and never returns.
    dead: Vec<bool>,
    /// Ready post work, unfused representation. The insertion counter
    /// `seq` makes heap order deterministic.
    chain_heap: BinaryHeap<ChainKey>,
    /// Ready post work, fused representation (push order == pop order).
    chain_fifo: VecDeque<(f64, u32, u32)>,
    /// Post-processor pool: (availability, processor id).
    post_pool: BinaryHeap<TimeKey<u32>>,
    /// Steady-state cycle detector (snapshots + event journal).
    det: Detector,
    /// Snapshot build buffer: busy as (tick offset, group).
    snap_busy: Vec<(u64, u32)>,
    /// Snapshot build buffer: running as (group, scenario, age ticks).
    snap_running: Vec<(u32, u32, u64)>,
    /// Snapshot build buffer: idle groups.
    snap_idle: Vec<u32>,
    /// Snapshot build buffer: waiting scenario ids, canonical order.
    snap_wait: Vec<u32>,
    /// Waiting-queue canonical content buffer.
    wait_buf: Vec<(u32, u32)>,
    /// Calendar drain/rebuild buffer (snapshots and cycle shifts).
    cal_buf: Vec<(u64, usize)>,
    /// Post-drain boundary snapshots of the pool shape.
    pool_snaps: Vec<PoolSnap>,
    /// Pool snapshot / rebuild sort buffer.
    pool_buf: Vec<(f64, u32)>,
    /// Post-drain replay template: (processor, start, end) per entry
    /// of the periodic chain region.
    tmpl: Vec<(u32, f64, f64)>,
    /// Failure sort buffer: the plan in time order, reused run to run.
    fail_buf: Vec<(usize, f64)>,
}

impl Default for Scratch {
    fn default() -> Self {
        Self {
            durs: Vec::new(),
            bases: Vec::new(),
            busy_heap: BinaryHeap::new(),
            busy_cal: CalendarQueue::new(),
            running: Vec::new(),
            waiting: ScenarioQueue::Least(BinaryHeap::new()),
            months_done: Vec::new(),
            idle: Vec::new(),
            dead: Vec::new(),
            chain_heap: BinaryHeap::new(),
            chain_fifo: VecDeque::new(),
            post_pool: BinaryHeap::new(),
            det: Detector::default(),
            snap_busy: Vec::new(),
            snap_running: Vec::new(),
            snap_idle: Vec::new(),
            snap_wait: Vec::new(),
            wait_buf: Vec::new(),
            cal_buf: Vec::new(),
            pool_snaps: Vec::new(),
            pool_buf: Vec::new(),
            tmpl: Vec::new(),
            fail_buf: Vec::new(),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs one campaign under `config`, injecting the failures of `plan`,
/// streaming the full event story into `tracer`.
///
/// This is the single event loop behind `execute_traced` and the grid
/// runners, and the entry point for every other combination — unfused
/// granularity, faults, policy ablations, tracing — reached by passing
/// the corresponding [`CampaignConfig`] and [`FaultPlan`].
///
/// Runs with the default [`KernelOpts`] (fast-forward and calendar
/// queue on — both bitwise-neutral); use
/// [`simulate_campaign_kernel`] to pick kernel options or observe what
/// the kernel did.
///
/// # Panics
///
/// Panics if the plan targets a group outside the grouping or gives a
/// non-finite/negative failure time (same contract as the legacy
/// failure executor).
pub fn simulate_campaign<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    tracer: &mut T,
) -> Result<CampaignOutcome, GroupingError> {
    simulate_campaign_kernel(
        inst,
        table,
        grouping,
        config,
        plan,
        KernelOpts::default(),
        tracer,
    )
    .map(|(outcome, _)| outcome)
}

/// [`simulate_campaign`] with explicit kernel options, returning what
/// the kernel did alongside the outcome. The outcome is bitwise
/// independent of `opts` — fast-forward and the calendar queue are
/// pure performance knobs, pinned by `tests/kernel_equivalence.rs`.
///
/// # Panics
///
/// Same contract as [`simulate_campaign`].
pub fn simulate_campaign_kernel<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    opts: KernelOpts,
    tracer: &mut T,
) -> Result<(CampaignOutcome, KernelReport), GroupingError> {
    grouping.validate(inst)?;
    for &(g, t) in &plan.failures {
        assert!(
            g < grouping.group_count(),
            "failure targets group {g}, grouping has {}",
            grouping.group_count()
        );
        assert!(
            t.is_finite() && t >= 0.0,
            "failure time must be a finite non-negative instant"
        );
    }
    SCRATCH.with(|cell| {
        Ok(run(
            inst,
            table,
            grouping,
            config,
            plan,
            opts,
            tracer,
            &mut cell.borrow_mut(),
            Batch::Off,
        ))
    })
}

/// Runs the fault-free head of a batch: fused granularity, calendar on,
/// fast-forward off (every `NS`-completion boundary must be visited to
/// be captured). Returns `None` when the shape does not qualify for
/// integer time — callers fall back to plain per-variant runs.
///
/// The head records (`record == true`), so fault-free variants reuse
/// its outcome — schedule included — verbatim.
pub(crate) fn run_batch_head(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
) -> Result<Option<Box<BatchHead>>, GroupingError> {
    grouping.validate(inst)?;
    let plan = FaultPlan::none();
    if config.granularity != Granularity::Fused
        || !kernel_eligibility(inst, table, grouping, config, &plan)
    {
        return Ok(None);
    }
    let opts = KernelOpts {
        fast_forward: false,
        calendar: true,
    };
    let mut head = Box::new(BatchHead::default());
    let mut tracer = oa_trace::NullTracer;
    let (outcome, report) = SCRATCH.with(|cell| {
        run(
            inst,
            table,
            grouping,
            config,
            &plan,
            opts,
            &mut tracer,
            &mut cell.borrow_mut(),
            Batch::Capture(&mut head),
        )
    });
    if !matches!(outcome, CampaignOutcome::Completed(_)) {
        // A fault-free run can strand only on degenerate groupings
        // (no post processors); nothing to resume from.
        return Ok(None);
    }
    head.outcome = Some((outcome, report));
    Ok(Some(head))
}

/// Runs one variant by resuming `head` at the last checkpoint strictly
/// before the variant's first fault. `failures` must be non-empty,
/// sorted by time with ties in plan order, and valid for `grouping`
/// (the caller generated them). The outcome is bitwise what
/// [`simulate_campaign_kernel`] returns for the same plan.
pub(crate) fn run_batch_variant(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    opts: KernelOpts,
    head: &BatchHead,
    failures: &[(usize, f64)],
) -> (CampaignOutcome, KernelReport) {
    debug_assert!(!failures.is_empty(), "fault-free variants reuse the head");
    debug_assert!(failures.windows(2).all(|w| w[0].1 <= w[1].1));
    let ck = head.checkpoint_before(failures[0].1);
    let plan = FaultPlan::none();
    let mut tracer = oa_trace::NullTracer;
    SCRATCH.with(|cell| {
        run(
            inst,
            table,
            grouping,
            config,
            &plan,
            opts,
            &mut tracer,
            &mut cell.borrow_mut(),
            Batch::Resume { head, ck, failures },
        )
    })
}

/// The event loop proper, on pre-validated input and reusable state.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn run<T: Tracer>(
    inst: Instance,
    table: &TimingTable,
    grouping: &Grouping,
    config: &CampaignConfig,
    plan: &FaultPlan,
    opts: KernelOpts,
    tracer: &mut T,
    scratch: &mut Scratch,
    batch: Batch<'_>,
) -> (CampaignOutcome, KernelReport) {
    let (capture, head_prefix, resume_ck, resume_failures) = match batch {
        Batch::Off => (None, &[][..], None, None),
        Batch::Capture(h) => (Some(h), &[][..], None, None),
        Batch::Resume { head, ck, failures } => (
            None,
            &head.chain[..head.checkpoints[ck].completions as usize],
            Some((&head.checkpoints[ck], &head.drain_cks[ck])),
            Some(failures),
        ),
    };
    let mut capture = capture;
    let sizes: &[u32] = grouping.groups();
    // The `T[G]` row, indexed by `G - 4` — one array load per group
    // instead of a spec lookup per `main_secs` call.
    let trow = table.main_array();
    let tp = table.post_secs();
    let nm = inst.nm;

    let (steps, pre, last_step) = post_model(config.granularity, tp);

    let Scratch {
        durs,
        bases,
        busy_heap,
        busy_cal,
        running,
        waiting,
        months_done,
        idle,
        dead,
        chain_heap,
        chain_fifo,
        post_pool,
        det,
        snap_busy,
        snap_running,
        snap_idle,
        snap_wait,
        wait_buf,
        cal_buf,
        pool_snaps,
        pool_buf,
        tmpl,
        fail_buf,
    } = scratch;
    durs.clear();
    push_durs(durs, sizes, trow, config.granularity, pre);
    let durs: &[f64] = durs;

    // Processor layout: groups first (descending sizes, canonical),
    // then the dedicated post pool; any remainder stays idle forever.
    bases.clear();
    let mut acc = 0u32;
    for &g in sizes {
        bases.push(acc);
        acc += g;
    }
    let bases: &[u32] = bases;
    let post_base = acc;

    // Failures in time order; ties keep plan order (stable sort). A
    // batch resume brings its own pre-sorted slice.
    let failures: &[(usize, f64)] = match resume_failures {
        Some(f) => f,
        None => {
            fail_buf.clear();
            fail_buf.extend_from_slice(&plan.failures);
            fail_buf.sort_by(|a, b| a.1.total_cmp(&b.1));
            fail_buf
        }
    };
    let mut next_failure = 0usize;

    // Kernel mode selection — see [`kernel_gate`] / [`kernel_eligibility`].
    let mut report = KernelReport::default();
    let (want_ticks, max_dur_ticks) = kernel_gate(
        durs,
        failures,
        inst,
        steps.iter().sum(),
        opts.calendar || opts.fast_forward,
    );
    let use_cal = want_ticks && busy_cal.configure(max_dur_ticks);
    report.integer_time = use_cal;
    let ff_on = opts.fast_forward && use_cal;
    det.reset_run();
    debug_assert!(capture.is_none() || use_cal, "capture implies integer time");

    if tracer.enabled() {
        tracer.record(TraceEvent::at(
            0.0,
            EventKind::CampaignBegin {
                ns: inst.ns,
                nm: inst.nm,
                r: inst.r,
                groups: sizes.to_vec(),
                post_procs: grouping.post_procs,
            },
        ));
    }

    // Records become a `Schedule` only when every task provably runs
    // exactly once: fused granularity, nothing to inject. The arena is
    // then the one allocation of the run, pre-sized to its exact final
    // length.
    let record =
        config.granularity == Granularity::Fused && failures.is_empty() && resume_ck.is_none();
    let mut records: Vec<TaskRecord> = if record {
        Vec::with_capacity(inst.nbtasks() as usize * 2)
    } else {
        Vec::new()
    };

    let mut busy = if use_cal {
        Busy::Cal(busy_cal)
    } else {
        busy_heap.clear();
        busy_heap.reserve(sizes.len());
        Busy::Heap(busy_heap)
    };
    running.clear();
    running.resize(sizes.len(), None); // (scenario, start)
    waiting.reset(config.policy, inst.ns);
    months_done.clear();
    months_done.resize(inst.ns as usize, 0);
    let mut unfinished = inst.ns as usize;
    idle.clear();
    idle.extend(0..sizes.len());
    idle.sort_unstable_by_key(|&g| (sizes[g], g));
    let mut alive = sizes.len();
    dead.clear();
    dead.resize(sizes.len(), false);

    let mut seq: u64 = 0;
    let mut chain = match config.granularity {
        Granularity::Fused => {
            chain_fifo.clear();
            chain_fifo.reserve(inst.nbtasks() as usize);
            Chain::Fifo(chain_fifo)
        }
        Granularity::Unfused => {
            chain_heap.clear();
            chain_heap.reserve(inst.nbtasks() as usize);
            Chain::Heap(chain_heap)
        }
    };
    post_pool.clear();
    post_pool.reserve(inst.r as usize);
    for p in 0..grouping.post_procs {
        post_pool.push(time_key(0.0, post_base + p));
    }

    let mut lost_proc_secs = 0.0f64;
    let mut months_lost = 0u32;
    let mut completions: u64 = 0;
    let mut post_periodic: Option<PostPeriodic> = None;
    let mut main_finish = 0.0f64;

    // A batch resume re-enters the loop mid-run: install the chosen
    // checkpoint's canonical state over the t=0 layout. The checkpoint
    // precedes the variant's first fault, so the history up to here is
    // bitwise the fault-free head's — losses stay zero and the skipped
    // prefix of the completion chain is `head_prefix`.
    if let Some((ck, _)) = resume_ck {
        busy.advance_to(ck.t);
        for &(tick, bg) in &ck.busy {
            busy.push(tick as f64, bg as usize);
        }
        running.clear();
        running.extend_from_slice(&ck.running);
        months_done.clear();
        months_done.extend_from_slice(&ck.months_done);
        unfinished = ck.unfinished;
        idle.clear();
        idle.extend(ck.idle.iter().map(|&g| g as usize));
        alive = ck.alive;
        waiting.reset(config.policy, 0);
        for &ws in &ck.waiting {
            waiting.push(months_done[ws as usize], ws);
        }
        post_pool.clear();
        for &(a, pp) in &ck.pool {
            post_pool.push(time_key(a, pp));
        }
        completions = ck.completions;
        main_finish = ck.main_finish;
    }

    // One assignment + disband pass; mirrors `oa_sched::estimate`.
    macro_rules! assign {
        ($now:expr) => {{
            let now: f64 = $now;
            while !idle.is_empty() && !waiting.is_empty() {
                let g = idle.pop().expect("non-empty"); // largest idle group
                let s = waiting.pop().expect("non-empty");
                running[g] = Some((s, now));
                busy.push(now + durs[g], g);
                if ff_on && det.armed() && tracer.enabled() {
                    det.log.push(LogEv::Dispatch {
                        t: now,
                        g: g as u32,
                        s,
                        month: months_done[s as usize],
                        queue_depth: waiting.len() as u32,
                    });
                }
                if tracer.enabled() {
                    let task = FusedTask::main(s, months_done[s as usize]);
                    tracer.record(TraceEvent::at(
                        now,
                        EventKind::TaskDispatch {
                            task,
                            group: Some(g as u32),
                            queue_depth: waiting.len() as u32,
                        },
                    ));
                    tracer.record(TraceEvent::at(
                        now,
                        EventKind::TaskStart {
                            task,
                            first_proc: bases[g],
                            procs: sizes[g],
                            group: Some(g as u32),
                        },
                    ));
                }
            }
            while !idle.is_empty() && alive > unfinished {
                let g = idle.remove(0); // smallest idle group disbands
                alive -= 1;
                for p in 0..sizes[g] {
                    post_pool.push(time_key(now, bases[g] + p));
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        now,
                        EventKind::GroupDisband {
                            group: g as u32,
                            procs: sizes[g],
                        },
                    ));
                }
            }
        }};
    }

    // Records the loop state in canonical form for later batch resumes.
    // Only reached in capture runs (fused, calendar on, fault-free), at
    // instants where `completions` is a multiple of `NS` — the offsets
    // batch variants look up by their first fault time. Every container
    // is stored in an order that makes its pop sequence a pure function
    // of content, so a rebuilt queue replays bitwise.
    macro_rules! capture_ck {
        ($now:expr) => {{
            if let Some(head) = capture.as_deref_mut() {
                let now: f64 = $now;
                let Busy::Cal(cal) = &busy else {
                    unreachable!("capture implies integer time")
                };
                cal_buf.clear();
                cal.sorted_content(cal_buf);
                waiting.canonical_content_into(wait_buf);
                pool_buf.clear();
                pool_buf.extend(post_pool.iter().map(|&Reverse((Time(a), pp))| (a, pp)));
                pool_buf.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                head.checkpoints.push(Checkpoint {
                    t: now,
                    main_finish,
                    completions,
                    busy: cal_buf
                        .iter()
                        .map(|&(tick, bg)| (tick, bg as u32))
                        .collect(),
                    running: running.clone(),
                    months_done: months_done.clone(),
                    idle: idle.iter().map(|&g| g as u32).collect(),
                    waiting: wait_buf.iter().map(|&(_, ws)| ws).collect(),
                    pool: pool_buf.clone(),
                    alive,
                    unfinished,
                });
            }
        }};
    }

    // Applies one `(group, time)` failure under the configured
    // recovery, charging destroyed work to the loss accumulators.
    // Double kills and failures of already-disbanded groups are no-ops
    // (`None`); a kill that lands returns its damage assessment.
    macro_rules! process_failure {
        ($g:expr, $tf:expr) => {{
            let (g, tf): (usize, f64) = ($g, $tf);
            if dead[g] {
                None // double kill: no-op
            } else if let Some((s, started)) = running[g].take() {
                // In-flight month lost.
                let lost = (tf - started).max(0.0) * sizes[g] as f64;
                lost_proc_secs += lost;
                months_lost += 1;
                if config.recovery == Recovery::RestartScenario {
                    months_done[s as usize] = 0;
                }
                waiting.push(months_done[s as usize], s);
                dead[g] = true;
                alive -= 1;
                Some(FailureImpact {
                    victim: Some((s, months_done[s as usize])),
                    lost_proc_secs: lost,
                    months_lost: 1,
                })
            } else {
                // A group that already disbanded is not in `idle` nor
                // `running`; its processors belong to the post pool now
                // — ignore (documented in `failures`).
                let key = (sizes[g], g);
                let pos = match idle.binary_search_by_key(&key, |&x| (sizes[x], x)) {
                    Ok(p) | Err(p) => p,
                };
                if pos < idle.len() && idle[pos] == g {
                    idle.remove(pos);
                    dead[g] = true;
                    alive -= 1;
                    Some(FailureImpact {
                        victim: None,
                        lost_proc_secs: 0.0,
                        months_lost: 0,
                    })
                } else {
                    None
                }
            }
        }};
    }

    macro_rules! stranded {
        () => {{
            let completed: u64 = months_done.iter().map(|&m| u64::from(m)).sum();
            return (
                CampaignOutcome::Stranded {
                    completed_months: completed,
                },
                report,
            );
        }};
    }

    if resume_ck.is_none() {
        assign!(0.0);
        capture_ck!(0.0);
    }

    loop {
        // Choose the next event: completion or failure.
        let completion_time = busy.peek_time();
        let failure_time = failures.get(next_failure).map(|&(_, t)| t);
        match (completion_time, failure_time) {
            (None, None) => break,
            (Some(tc), Some(tf)) if tf <= tc => {
                busy.advance_to(tf);
                let failure = failures[next_failure];
                let impact = process_failure!(failure.0, failure.1);
                if tracer.enabled() {
                    emit_failure(tracer, failure, impact.as_ref());
                }
                next_failure += 1;
                det.disturb();
                assign!(tf);
            }
            (None, Some(tf)) => {
                busy.advance_to(tf);
                let failure = failures[next_failure];
                let impact = process_failure!(failure.0, failure.1);
                if tracer.enabled() {
                    emit_failure(tracer, failure, impact.as_ref());
                }
                next_failure += 1;
                det.disturb();
                if alive == 0 && unfinished > 0 {
                    // Nothing can run the remaining months.
                    stranded!();
                }
                assign!(tf);
            }
            (Some(_), _) => {
                let (t, g) = busy.pop().expect("peeked");
                if dead[g] {
                    continue; // stale completion of a crashed group
                }
                let (s, started) = running[g].take().expect("busy group has a scenario");
                let month = months_done[s as usize];
                months_done[s as usize] += 1;
                main_finish = t;
                completions += 1;
                if record {
                    records.push(TaskRecord {
                        task: FusedTask::main(s, month),
                        procs: ProcRange {
                            first: bases[g],
                            count: sizes[g],
                        },
                        start: started,
                        end: t,
                        group: Some(g as u32),
                    });
                }
                match &mut chain {
                    Chain::Fifo(f) => f.push_back((t, s, month)),
                    Chain::Heap(h) => {
                        h.push(time_key(t, (0, seq, s, month)));
                        seq += 1;
                    }
                }
                if ff_on && det.armed() {
                    det.log.push(LogEv::Finish {
                        t,
                        g: g as u32,
                        s,
                        month,
                    });
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        t,
                        EventKind::TaskFinish {
                            task: FusedTask::main(s, month),
                            first_proc: bases[g],
                            procs: sizes[g],
                            group: Some(g as u32),
                            secs: t - started,
                        },
                    ));
                }
                if months_done[s as usize] == nm {
                    unfinished -= 1;
                } else {
                    waiting.push(months_done[s as usize], s);
                }
                let pos = idle
                    .binary_search_by_key(&(sizes[g], g), |&x| (sizes[x], x))
                    .unwrap_err();
                idle.insert(pos, g);
                assign!(t);
                if completions.is_multiple_of(u64::from(inst.ns)) {
                    capture_ck!(t);
                }

                // Steady-state detection: offer a snapshot every NS
                // completions once the fault plan is exhausted. A
                // cycle always spans NS·dm completions, so this
                // cadence cannot miss the period.
                if ff_on
                    && det.active()
                    && next_failure == failures.len()
                    && completions.is_multiple_of(u64::from(inst.ns))
                {
                    let Busy::Cal(cal) = &busy else {
                        unreachable!("fast-forward implies integer time")
                    };
                    cal_buf.clear();
                    cal.sorted_content(cal_buf);
                    let t_tick = t as u64;
                    snap_busy.clear();
                    snap_busy.extend(cal_buf.iter().map(|&(tick, bg)| (tick - t_tick, bg as u32)));
                    snap_running.clear();
                    for (rg, slot) in running.iter().enumerate() {
                        if let Some((rs, start)) = slot {
                            snap_running.push((rg as u32, *rs, (t - start) as u64));
                        }
                    }
                    snap_idle.clear();
                    snap_idle.extend(idle.iter().map(|&ig| ig as u32));
                    waiting.canonical_content_into(wait_buf);
                    snap_wait.clear();
                    snap_wait.extend(wait_buf.iter().map(|&(_, ws)| ws));
                    let view = SnapView {
                        t,
                        completions,
                        chain_len: head_prefix.len() + chain.len(),
                        months: months_done,
                        busy: snap_busy,
                        running: snap_running,
                        idle: snap_idle,
                        waiting: snap_wait,
                    };
                    if let Some(m) = det.observe(&view, nm) {
                        // Replay the matched cycle k times from the
                        // journal: all sums below are integer-exact,
                        // so every stamped value is bitwise what
                        // event-by-event simulation would compute.
                        for j in 1..=m.k {
                            let shift = (j as f64) * m.d;
                            let dmj = u32::try_from(j).expect("k < NM") * m.dm;
                            for ev in &det.log[m.log_start..m.log_end] {
                                match *ev {
                                    LogEv::Finish {
                                        t: te,
                                        g: eg,
                                        s: es,
                                        month: em,
                                    } => {
                                        let eg = eg as usize;
                                        let t2 = te + shift;
                                        let m2 = em + dmj;
                                        main_finish = t2;
                                        if record {
                                            records.push(TaskRecord {
                                                task: FusedTask::main(es, m2),
                                                procs: ProcRange {
                                                    first: bases[eg],
                                                    count: sizes[eg],
                                                },
                                                start: t2 - durs[eg],
                                                end: t2,
                                                group: Some(eg as u32),
                                            });
                                        }
                                        match &mut chain {
                                            Chain::Fifo(f) => f.push_back((t2, es, m2)),
                                            Chain::Heap(h) => {
                                                h.push(time_key(t2, (0, seq, es, m2)));
                                                seq += 1;
                                            }
                                        }
                                        if tracer.enabled() {
                                            tracer.record(TraceEvent::at(
                                                t2,
                                                EventKind::TaskFinish {
                                                    task: FusedTask::main(es, m2),
                                                    first_proc: bases[eg],
                                                    procs: sizes[eg],
                                                    group: Some(eg as u32),
                                                    secs: durs[eg],
                                                },
                                            ));
                                        }
                                    }
                                    LogEv::Dispatch {
                                        t: te,
                                        g: eg,
                                        s: es,
                                        month: em,
                                        queue_depth,
                                    } => {
                                        // Journaled only when tracing.
                                        let t2 = te + shift;
                                        let task = FusedTask::main(es, em + dmj);
                                        tracer.record(TraceEvent::at(
                                            t2,
                                            EventKind::TaskDispatch {
                                                task,
                                                group: Some(eg),
                                                queue_depth,
                                            },
                                        ));
                                        tracer.record(TraceEvent::at(
                                            t2,
                                            EventKind::TaskStart {
                                                task,
                                                first_proc: bases[eg as usize],
                                                procs: sizes[eg as usize],
                                                group: Some(eg),
                                            },
                                        ));
                                    }
                                }
                            }
                        }
                        // Shift the live state k cycles forward.
                        let total = (m.k as f64) * m.d;
                        let total_ticks = total as u64;
                        let Busy::Cal(cal) = &mut busy else {
                            unreachable!("fast-forward implies integer time")
                        };
                        cal_buf.clear();
                        while let Some(entry) = cal.pop() {
                            cal_buf.push(entry);
                        }
                        for &(tick, bg) in cal_buf.iter() {
                            cal.push(tick + total_ticks, bg);
                        }
                        for slot in running.iter_mut().flatten() {
                            slot.1 += total;
                        }
                        let dm_total = u32::try_from(m.k).expect("k < NM") * m.dm;
                        for md in months_done.iter_mut() {
                            *md += dm_total;
                        }
                        waiting.canonical_content_into(wait_buf);
                        waiting.reset(config.policy, 0);
                        for &(_, ws) in wait_buf.iter() {
                            waiting.push(months_done[ws as usize], ws);
                        }
                        completions += m.k * m.cycle_completions;
                        report.main_cycles_skipped = m.k;
                        if config.granularity == Granularity::Fused {
                            post_periodic = Some(PostPeriodic {
                                start_idx: m.chain_start,
                                cycles: m.k + 1,
                                len: m.cycle_completions as usize,
                                d: m.d,
                            });
                        }
                    }
                }
            }
        }
        if unfinished > 0 && alive == 0 && busy.is_empty() {
            stranded!();
        }
    }

    if unfinished > 0 {
        stranded!();
    }

    // Posts: the ready chain drains through the pool, earliest-ready
    // first (FIFO for fused — completions are chronological), each
    // taking the earliest-available processor. If the pool is empty
    // every group died without disbanding: no post capacity exists.
    if post_pool.is_empty() {
        stranded!();
    }
    let mut post_finish = 0.0f64;
    match chain {
        Chain::Fifo(fifo) => {
            // Fused drain, with its own steady-state fast-forward: the
            // main-phase replay hands over the periodic chain region,
            // and once the pool shape recurs at a cycle boundary
            // (relative to the boundary instant, bitwise), the drain
            // stamps whole cycles from the template. Sound only when
            // the post duration is integral too.
            let tail: &[(f64, u32, u32)] = fifo.make_contiguous();
            if let Some(head) = capture.as_deref_mut() {
                head.chain.clear();
                head.chain.extend_from_slice(tail);
            }
            let entries = Entries {
                prefix: head_prefix,
                tail,
            };
            let mut pd =
                post_periodic.filter(|p| is_tick_exact(steps[0]) && p.len > 0 && p.cycles >= 2);
            let mut n_pool_snaps = 0usize;
            tmpl.clear();
            let mut i = 0usize;
            // A resumed variant re-drains the head's chain prefix. When
            // the head's own drain of that prefix never popped a
            // disbanded-group processor, and none of the variant's
            // disbanded entries can preempt a pop the head made (every
            // one strictly later than the latest availability the head
            // popped), the pool evolution over the prefix is bitwise
            // the head's: adopt its recorded result and start at the
            // tail. Otherwise fall back to the full event-by-event
            // drain, which is always correct.
            if let Some((_, dck)) = resume_ck {
                let min_disband = post_pool
                    .iter()
                    .filter(|&&Reverse((_, pp))| pp < post_base)
                    .map(|&Reverse((Time(a), _))| a)
                    .fold(f64::INFINITY, f64::min);
                if dck.valid && !head_prefix.is_empty() && min_disband > dck.maxpop {
                    pool_buf.clear();
                    pool_buf.extend(
                        post_pool
                            .iter()
                            .filter(|&&Reverse((_, pp))| pp < post_base)
                            .map(|&Reverse((Time(a), pp))| (a, pp)),
                    );
                    post_pool.clear();
                    for &(a, pp) in pool_buf.iter() {
                        post_pool.push(time_key(a, pp));
                    }
                    for &(a, pp) in &dck.pool {
                        post_pool.push(time_key(a, pp));
                    }
                    post_finish = dck.post_finish;
                    i = head_prefix.len();
                }
            }
            // Capture-side drain bookkeeping: one `DrainCk` per main
            // checkpoint, recorded when the drain reaches that
            // checkpoint's chain offset.
            let mut next_dck = 0usize;
            let mut dck_maxpop = 0.0f64;
            let mut dck_valid = true;
            macro_rules! capture_dck {
                () => {{
                    if let Some(head) = capture.as_deref_mut() {
                        while next_dck < head.checkpoints.len()
                            && head.checkpoints[next_dck].completions as usize == i
                        {
                            pool_buf.clear();
                            pool_buf.extend(
                                post_pool
                                    .iter()
                                    .filter(|&&Reverse((_, pp))| pp >= post_base)
                                    .map(|&Reverse((Time(a), pp))| (a, pp)),
                            );
                            pool_buf
                                .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                            head.drain_cks.push(DrainCk {
                                valid: dck_valid,
                                maxpop: dck_maxpop,
                                post_finish,
                                pool: pool_buf.clone(),
                            });
                            next_dck += 1;
                        }
                    }
                }};
            }
            while i < entries.len() {
                capture_dck!();
                if let Some(p) = pd {
                    if i >= p.start_idx && (i - p.start_idx).is_multiple_of(p.len) {
                        let c = ((i - p.start_idx) / p.len) as u64;
                        if c >= p.cycles {
                            pd = None; // past the periodic region
                        } else {
                            let t_b = entries.at(i).0;
                            if n_pool_snaps == pool_snaps.len() {
                                pool_snaps.push(PoolSnap::default());
                            }
                            let (prev, slot) = pool_snaps.split_at_mut(n_pool_snaps);
                            let snap = &mut slot[0];
                            pool_snapshot(
                                snap,
                                c,
                                t_b,
                                post_pool.iter().map(|&Reverse((Time(a), pp))| (a, pp)),
                            );
                            let hit = prev[..n_pool_snaps]
                                .iter()
                                .rev()
                                .find_map(|ps| pool_match(ps, snap).map(|sh| (ps, sh)));
                            if let Some((ps, sh)) = hit {
                                let q = c - ps.cycle;
                                // The handed-over region spaces boundaries
                                // exactly `d` apart; anything else means the
                                // chain is not actually periodic here.
                                debug_assert_eq!(sh.delta, (q as f64) * p.d);
                                let mut n = if sh.delta == (q as f64) * p.d {
                                    (p.cycles - c) / q
                                } else {
                                    0
                                };
                                if let Some(min_stable) = sh.min_stable {
                                    // A replayed window may only pop shifted
                                    // (cycling) processors: cap n so the
                                    // largest shifted availability, advancing
                                    // `delta` per window, stays strictly
                                    // below every parked one.
                                    let room = min_stable - sh.max_shifted - 1.0;
                                    let cap = if room < 0.0 {
                                        0.0
                                    } else {
                                        (room / sh.delta).floor()
                                    };
                                    n = n.min(cap as u64);
                                }
                                if n >= 1 {
                                    let w0 =
                                        usize::try_from(ps.cycle).expect("cycle index") * p.len;
                                    let w1 = usize::try_from(c).expect("cycle index") * p.len;
                                    if !record && !tracer.enabled() {
                                        // Nothing observes the replayed
                                        // tasks: only the final clock
                                        // matters, and shifted ends are
                                        // monotone in both the window
                                        // entry and the replay index —
                                        // the max is the window max
                                        // shifted the full n·q cycles,
                                        // the same f64 the loop below
                                        // would keep.
                                        let mut en_max = f64::NEG_INFINITY;
                                        for &(_, _, en) in &tmpl[w0..w1] {
                                            if en > en_max {
                                                en_max = en;
                                            }
                                        }
                                        let end = en_max + ((n * q) as f64) * p.d;
                                        if end > post_finish {
                                            post_finish = end;
                                        }
                                    } else {
                                        for r in 1..=n {
                                            let shift_secs = ((r * q) as f64) * p.d;
                                            let stride = usize::try_from(r * q)
                                                .expect("cycle stride")
                                                * p.len;
                                            for (off, &(proc, st, en)) in
                                                tmpl[w0..w1].iter().enumerate()
                                            {
                                                let ci = p.start_idx + w0 + stride + off;
                                                let (er, es, em) = entries.at(ci);
                                                debug_assert_eq!(
                                                    er,
                                                    entries.at(p.start_idx + w0 + off).0
                                                        + shift_secs,
                                                    "replayed chain entry off the periodic lattice"
                                                );
                                                let start = st + shift_secs;
                                                let end = en + shift_secs;
                                                let task = FusedTask::post(es, em);
                                                if record {
                                                    records.push(TaskRecord {
                                                        task,
                                                        procs: ProcRange::single(proc),
                                                        start,
                                                        end,
                                                        group: None,
                                                    });
                                                }
                                                if tracer.enabled() {
                                                    tracer.record(TraceEvent::at(
                                                        start,
                                                        EventKind::TaskStart {
                                                            task,
                                                            first_proc: proc,
                                                            procs: 1,
                                                            group: None,
                                                        },
                                                    ));
                                                    tracer.record(TraceEvent::at(
                                                        end,
                                                        EventKind::TaskFinish {
                                                            task,
                                                            first_proc: proc,
                                                            procs: 1,
                                                            group: None,
                                                            secs: end - start,
                                                        },
                                                    ));
                                                }
                                                if end > post_finish {
                                                    post_finish = end;
                                                }
                                            }
                                        }
                                    }
                                    // Advance the cycling processors n·q
                                    // cycles; the parked ones kept their
                                    // absolute availabilities throughout.
                                    let total = ((n * q) as f64) * p.d;
                                    let cutoff = sh.min_stable.unwrap_or(f64::INFINITY);
                                    pool_buf.clear();
                                    pool_buf.extend(
                                        post_pool.iter().map(|&Reverse((Time(a), pp))| (a, pp)),
                                    );
                                    post_pool.clear();
                                    for &(a, pp) in pool_buf.iter() {
                                        let a2 = if a < cutoff { a + total } else { a };
                                        post_pool.push(time_key(a2, pp));
                                    }
                                    report.post_cycles_skipped = n * q;
                                    i += usize::try_from(n * q).expect("cycle stride") * p.len;
                                    pd = None;
                                    continue;
                                }
                                pd = None; // matched too late to skip
                            } else {
                                n_pool_snaps += 1;
                                if n_pool_snaps == MAX_POOL_SNAPS {
                                    pd = None; // pool never settled
                                }
                            }
                        }
                    }
                }
                let (ready, s, month) = entries.at(i);
                let Reverse((Time(avail), proc)) = post_pool.pop().expect("pool non-empty");
                if capture.is_some() {
                    if avail > dck_maxpop {
                        dck_maxpop = avail;
                    }
                    if proc < post_base {
                        dck_valid = false;
                    }
                }
                let start = if avail > ready { avail } else { ready };
                let end = start + steps[0];
                post_pool.push(time_key(end, proc));
                if let Some(p) = pd {
                    if i >= p.start_idx {
                        tmpl.push((proc, start, end));
                    }
                }
                let task = FusedTask::post(s, month);
                if record {
                    records.push(TaskRecord {
                        task,
                        procs: ProcRange::single(proc),
                        start,
                        end,
                        group: None,
                    });
                }
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        start,
                        EventKind::TaskStart {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                        },
                    ));
                    tracer.record(TraceEvent::at(
                        end,
                        EventKind::TaskFinish {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                            secs: end - start,
                        },
                    ));
                }
                if end > post_finish {
                    post_finish = end;
                }
                i += 1;
            }
            // The final checkpoint sits at the end of the chain.
            capture_dck!();
        }
        Chain::Heap(heap) => {
            // Unfused drain: steps re-enter the chain at out-of-order
            // ready times, so the heap (and event-by-event processing)
            // stays.
            while let Some(Reverse((Time(ready), (step, _, s, month)))) = heap.pop() {
                let Reverse((Time(avail), proc)) = post_pool.pop().expect("pool non-empty");
                let start = if avail > ready { avail } else { ready };
                let end = start + steps[step as usize];
                post_pool.push(time_key(end, proc));
                let task = FusedTask {
                    scenario: s,
                    month,
                    kind: STEP_KINDS[step as usize],
                };
                if tracer.enabled() {
                    tracer.record(TraceEvent::at(
                        start,
                        EventKind::TaskStart {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                        },
                    ));
                    tracer.record(TraceEvent::at(
                        end,
                        EventKind::TaskFinish {
                            task,
                            first_proc: proc,
                            procs: 1,
                            group: None,
                            secs: end - start,
                        },
                    ));
                }
                if step < last_step {
                    heap.push(time_key(end, (step + 1, seq, s, month)));
                    seq += 1;
                } else {
                    post_finish = post_finish.max(end);
                }
            }
        }
    }

    let makespan = main_finish.max(post_finish);
    if tracer.enabled() {
        tracer.record(TraceEvent::at(
            makespan,
            EventKind::CampaignEnd { makespan },
        ));
    }

    let schedule = if record {
        let schedule = Schedule {
            instance: inst,
            records,
            makespan,
        };
        // In debug builds, run the full schedule-layer rule set (OA008–
        // OA015) over every schedule the engine produces: a cheap,
        // always-on oracle that any future change to the event loop
        // still respects multiplicity, dependences and processor
        // exclusivity.
        #[cfg(debug_assertions)]
        {
            let report = schedule.analyze();
            debug_assert!(
                !report.has_errors(),
                "engine produced an invalid schedule:\n{}",
                report.render_text()
            );
        }
        Some(schedule)
    } else {
        None
    };

    (
        CampaignOutcome::Completed(CampaignRun {
            schedule,
            makespan,
            main_finish,
            post_finish,
            lost_proc_secs,
            months_lost,
        }),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::execute_default;
    use oa_platform::presets::reference_cluster;
    use oa_platform::speedup::PcrModel;
    use oa_sched::estimate::estimate;
    use oa_sched::heuristics::Heuristic;
    use oa_sched::policy::ScenarioPolicy;
    use oa_trace::NullTracer;

    fn reference() -> TimingTable {
        PcrModel::reference().table(1.0).unwrap()
    }

    fn flat(tg: f64, tp: f64) -> TimingTable {
        TimingTable::new([tg; 8], tp).unwrap()
    }

    /// A fault-free unfused run under `policy`.
    fn unfused_with<T: Tracer>(
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        policy: ScenarioPolicy,
        tracer: &mut T,
    ) -> CampaignRun {
        let config = CampaignConfig::unfused(policy);
        let out = simulate_campaign(inst, table, grouping, &config, &FaultPlan::none(), tracer);
        match out.unwrap() {
            CampaignOutcome::Completed(run) => run,
            CampaignOutcome::Stranded { .. } => unreachable!("fault-free runs never strand"),
        }
    }

    /// The fusion ablation's run: unfused, fault-free, least-advanced.
    fn unfused(inst: Instance, table: &TimingTable, grouping: &Grouping) -> CampaignRun {
        unfused_with(
            inst,
            table,
            grouping,
            ScenarioPolicy::LeastAdvanced,
            &mut NullTracer,
        )
    }

    /// A fused least-advanced run under `plan` and `recovery`.
    fn faulty_with<T: Tracer>(
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        plan: &FaultPlan,
        recovery: Recovery,
        tracer: &mut T,
    ) -> CampaignOutcome {
        let config = CampaignConfig {
            recovery,
            ..CampaignConfig::default()
        };
        simulate_campaign(inst, table, grouping, &config, plan, tracer).unwrap()
    }

    fn faulty(
        inst: Instance,
        table: &TimingTable,
        grouping: &Grouping,
        plan: &FaultPlan,
        recovery: Recovery,
    ) -> CampaignOutcome {
        faulty_with(inst, table, grouping, plan, recovery, &mut NullTracer)
    }

    // ---- Granularity: the fusion argument ---------------------------

    #[test]
    fn single_chain_matches_fused_exactly() {
        // With one dedicated post processor there is no interleaving:
        // the chain cof→emf→cd behaves like one 180 s task.
        let inst = Instance::new(1, 5, 12);
        let t = reference();
        let g = Grouping::uniform(11, 1, 1);
        let fused = estimate(inst, &t, &g).unwrap();
        let unfused = unfused(inst, &t, &g);
        assert!((fused.makespan - unfused.makespan).abs() < 1e-9);
    }

    #[test]
    fn fusion_error_is_small_across_the_sweep() {
        // The paper's fusion decision is safe: across resource counts
        // and heuristics, scheduling at the 7-task granularity moves
        // the makespan by well under 1%.
        let t = reference();
        for r in [13u32, 23, 53, 87, 110] {
            let inst = Instance::new(10, 60, r);
            for h in [Heuristic::Basic, Heuristic::Knapsack] {
                let g = h.grouping(inst, &t).unwrap();
                let fused = estimate(inst, &t, &g).unwrap().makespan;
                let unfused = unfused(inst, &t, &g).makespan;
                let rel = (fused - unfused).abs() / fused;
                assert!(
                    rel < 0.01,
                    "{h:?} R={r}: fused {fused} vs unfused {unfused}"
                );
            }
        }
    }

    #[test]
    fn main_phase_is_identical_to_fused() {
        let inst = Instance::new(6, 20, 40);
        let t = reference();
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let fused = estimate(inst, &t, &g).unwrap();
        let unfused = unfused(inst, &t, &g);
        assert!((fused.main_finish - unfused.main_finish).abs() < 1e-9);
    }

    #[test]
    fn post_steps_scale_with_cluster_speed() {
        let inst = Instance::new(2, 4, 12);
        let slow = PcrModel::reference().table(2.0).unwrap();
        let g = Grouping::uniform(4, 2, 2);
        let fast = unfused(inst, &reference(), &g);
        let slow_e = unfused(inst, &slow, &g);
        assert!(slow_e.makespan > fast.makespan * 1.9);
    }

    #[test]
    fn figure1_scaling_is_pinned_to_the_grid5000_presets() {
        // The unfused model rescales the Figure 1 constants by the
        // table's post/180 cluster-speed ratio. Pin that scaling
        // against every Grid'5000 preset so a change to either the
        // constants or the preset tables cannot drift silently: the
        // scaled post chain must sum to the table's fused post
        // duration exactly, and the scaled pre must keep the same
        // share of the fused span it has in Figure 1.
        use oa_platform::presets::benchmark_grid;
        use oa_workflow::task::{CAIF_SECS, MP_SECS};
        let grid = benchmark_grid(12);
        assert_eq!(grid.len(), 5, "the paper benchmarks five clusters");
        assert_eq!(COF_SECS + EMF_SECS + CD_SECS, FUSED_POST_SECS);
        for (_, cluster) in grid.iter() {
            let t = &cluster.timing;
            let speed = t.post_secs() / FUSED_POST_SECS;
            // Fusing the scaled chain reproduces the fused post bitwise
            // (the multiplication distributes exactly here: every
            // preset's post is 180 × a power-of-two-free ratio, so we
            // allow one ulp of slack).
            let chain: f64 = COF_SECS * speed + EMF_SECS * speed + CD_SECS * speed;
            assert!(
                (chain - t.post_secs()).abs() <= t.post_secs() * 1e-15,
                "{}: chain {chain} vs post {}",
                cluster.name,
                t.post_secs()
            );
            // The pre share keeps Figure 1's 2 s : 180 s proportion.
            let pre = FUSED_PRE_SECS * speed;
            assert!(
                (pre / t.post_secs() - FUSED_PRE_SECS / FUSED_POST_SECS).abs() < 1e-15,
                "{}: pre {pre} breaks the Figure 1 proportion",
                cluster.name
            );
            assert_eq!(
                FUSED_PRE_SECS,
                CAIF_SECS + MP_SECS,
                "Figure 1 pre tasks sum"
            );
            // And the group span equals the fused duration for every
            // group size — fusion changes nothing about the main phase.
            for g in 4..=11u32 {
                let span = (t.main_secs(g) - pre) + pre;
                assert_eq!(
                    span.to_bits(),
                    t.main_secs(g).to_bits(),
                    "{}: G={g} span drifts from the fused duration",
                    cluster.name
                );
            }
        }
    }

    #[test]
    fn traced_unfused_tells_the_seven_task_story() {
        use oa_trace::VecTracer;
        let inst = Instance::new(2, 3, 12);
        let t = reference();
        let g = Grouping::uniform(4, 2, 2);
        let mut sink = VecTracer::new();
        let est = unfused_with(inst, &t, &g, ScenarioPolicy::LeastAdvanced, &mut sink);
        let untraced = unfused(inst, &t, &g);
        assert_eq!(est, untraced, "tracing must not change the estimate");
        let events = sink.into_events();
        // Each month finishes one main and the three chained posts.
        let finishes = |kind: TaskKind| {
            events
                .iter()
                .filter(
                    |e| matches!(&e.kind, EventKind::TaskFinish { task, .. } if task.kind == kind),
                )
                .count() as u64
        };
        assert_eq!(finishes(TaskKind::FusedMain), inst.nbtasks());
        assert_eq!(finishes(TaskKind::Cof), inst.nbtasks());
        assert_eq!(finishes(TaskKind::Emf), inst.nbtasks());
        assert_eq!(finishes(TaskKind::Cd), inst.nbtasks());
        // The campaign end carries the estimate's makespan.
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::CampaignEnd { makespan } if makespan == est.makespan
        )));
    }

    #[test]
    fn unfused_policy_ablation_is_ordered_like_the_fused_one() {
        // The adversarial most-advanced policy can only tie or lose
        // against the paper's least-advanced policy, at the seven-task
        // granularity too.
        let t = reference();
        let inst = Instance::new(6, 12, 30);
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let run = |policy| unfused_with(inst, &t, &g, policy, &mut NullTracer).makespan;
        let fair = run(ScenarioPolicy::LeastAdvanced);
        let rr = run(ScenarioPolicy::RoundRobin);
        let unfair = run(ScenarioPolicy::MostAdvanced);
        assert!(unfair + 1e-9 >= fair, "unfair {unfair} < fair {fair}");
        assert!(rr > 0.0 && rr.is_finite());
        // And the default policy is the least-advanced one.
        let default = CampaignConfig {
            granularity: Granularity::Unfused,
            ..CampaignConfig::default()
        };
        let out = simulate_campaign(inst, &t, &g, &default, &FaultPlan::none(), &mut NullTracer);
        assert_eq!(Some(fair), out.unwrap().makespan());
    }

    // ---- Failures: the checkpoint/restart model ---------------------

    #[test]
    fn no_failures_matches_the_plain_executor() {
        let inst = Instance::new(6, 10, 40);
        let t = reference_cluster(40).timing;
        let g = Heuristic::Knapsack.grouping(inst, &t).unwrap();
        let plain = execute_default(inst, &t, &g).unwrap().makespan;
        let faulty = faulty(
            inst,
            &t,
            &g,
            &FaultPlan::none(),
            Recovery::MonthlyCheckpoint,
        );
        match faulty {
            CampaignOutcome::Completed(run) => {
                assert!((run.makespan - plain).abs() < 1e-9);
                assert_eq!(run.lost_proc_secs, 0.0);
                assert_eq!(run.months_lost, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn one_crash_loses_at_most_one_month_with_checkpoints() {
        let inst = Instance::new(4, 6, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 4, 0);
        // Kill group 0 mid-month at t = 150.
        let plan = FaultPlan::none().kill(0, 150.0);
        let out = faulty(inst, &t, &g, &plan, Recovery::MonthlyCheckpoint);
        match out {
            CampaignOutcome::Completed(run) => {
                assert_eq!(run.months_lost, 1);
                assert!((run.lost_proc_secs - 50.0 * 4.0).abs() < 1e-9);
                // 24 months on 3 surviving groups, one month redone:
                // strictly worse than failure-free, still finite.
                let clean = execute_default(inst, &t, &g).unwrap().makespan;
                assert!(run.makespan > clean);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn checkpoints_beat_scenario_restarts() {
        let inst = Instance::new(4, 8, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 4, 0);
        // Crash late: the victim scenario has real progress to lose.
        let plan = FaultPlan::none().kill(0, 650.0);
        let ck = faulty(inst, &t, &g, &plan, Recovery::MonthlyCheckpoint);
        let rs = faulty(inst, &t, &g, &plan, Recovery::RestartScenario);
        let (Some(a), Some(b)) = (ck.makespan(), rs.makespan()) else {
            panic!("both should complete");
        };
        assert!(a < b, "checkpointed {a} should beat restart {b}");
    }

    #[test]
    fn all_groups_dead_strands_the_campaign() {
        let inst = Instance::new(3, 10, 12);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 3, 0);
        let plan = FaultPlan::none().kill(0, 50.0).kill(1, 50.0).kill(2, 150.0);
        let out = faulty(inst, &t, &g, &plan, Recovery::MonthlyCheckpoint);
        match out {
            CampaignOutcome::Stranded { completed_months } => {
                // One month completed (the survivor's first) at t = 100.
                assert_eq!(completed_months, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn double_kill_is_idempotent() {
        let inst = Instance::new(3, 4, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 3, 4);
        let once = FaultPlan::none().kill(1, 120.0);
        let twice = FaultPlan::none().kill(1, 120.0).kill(1, 200.0);
        let a = faulty(inst, &t, &g, &once, Recovery::MonthlyCheckpoint);
        let b = faulty(inst, &t, &g, &twice, Recovery::MonthlyCheckpoint);
        assert_eq!(a, b);
    }

    #[test]
    fn late_failure_of_disbanded_group_is_harmless() {
        let inst = Instance::new(2, 2, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 2, 0);
        // Campaign ends by t = 200 + posts; kill at t = 10000.
        let plan = FaultPlan::none().kill(0, 10_000.0);
        let out = faulty(inst, &t, &g, &plan, Recovery::MonthlyCheckpoint);
        let clean = execute_default(inst, &t, &g).unwrap().makespan;
        match out {
            CampaignOutcome::Completed(run) => {
                assert!((run.makespan - clean).abs() < 1e-9);
                assert_eq!(run.months_lost, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn traced_run_reports_the_damage() {
        use oa_trace::metrics::keys;
        use oa_trace::{Metered, VecTracer};
        let inst = Instance::new(4, 6, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 4, 0);
        let plan = FaultPlan::none().kill(0, 150.0);
        let mut sink = Metered::new(VecTracer::new());
        let out = faulty_with(inst, &t, &g, &plan, Recovery::MonthlyCheckpoint, &mut sink);
        let CampaignOutcome::Completed(run) = out else {
            panic!("should complete");
        };
        // The live registry observed the same damage the outcome reports.
        let snap = sink.registry.snapshot();
        assert_eq!(snap.counter(keys::FAILURES), Some(1));
        assert_eq!(snap.counter(keys::RETRIES), Some(1));
        assert_eq!(snap.gauge(keys::PROC_SECS_LOST), Some(run.lost_proc_secs));
        assert_eq!(snap.gauge(keys::MAKESPAN), Some(run.makespan));
        // And the stream tells the inject → detect → recover story.
        let events = sink.inner.into_events();
        let pos = |pred: fn(&EventKind) -> bool| events.iter().position(|e| pred(&e.kind));
        let inject = pos(|k| matches!(k, EventKind::FailureInject { .. })).unwrap();
        let detect = pos(|k| matches!(k, EventKind::FailureDetect { .. })).unwrap();
        let recover = pos(|k| matches!(k, EventKind::Recover { .. })).unwrap();
        assert!(inject < detect && detect < recover);
    }

    #[test]
    fn faults_compose_with_unfused_granularity() {
        let inst = Instance::new(4, 6, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 4, 0);
        let plan = FaultPlan::none().kill(0, 150.0);
        let config = CampaignConfig {
            granularity: Granularity::Unfused,
            ..CampaignConfig::default()
        };
        let out = simulate_campaign(inst, &t, &g, &config, &plan, &mut NullTracer).unwrap();
        let CampaignOutcome::Completed(run) = out else {
            panic!("should complete");
        };
        assert_eq!(run.months_lost, 1);
        assert!(run.lost_proc_secs > 0.0);
        // The clean unfused run is strictly faster.
        let clean = unfused(inst, &t, &g);
        assert!(run.makespan > clean.makespan);
    }

    #[test]
    #[should_panic(expected = "failure targets group")]
    fn out_of_range_group_panics() {
        let inst = Instance::new(2, 2, 16);
        let t = flat(100.0, 10.0);
        let g = Grouping::uniform(4, 2, 0);
        let _ = faulty(
            inst,
            &t,
            &g,
            &FaultPlan::none().kill(9, 1.0),
            Recovery::MonthlyCheckpoint,
        );
    }
}
