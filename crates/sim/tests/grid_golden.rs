//! Golden-file tests for traced grid runs: the Chrome export of a
//! plain and of a staged Knapsack grid campaign on the five-cluster
//! benchmark grid, and the staged run's raw JSONL event stream, are
//! pinned byte for byte. The per-cluster loop stamps every event with
//! its cluster, opens each plain cluster's stream with a `Decision`
//! event, and shifts staged clusters by their stage-in delay,
//! bracketing the computation with `TransferStart`/`TransferFinish`
//! events; any reordering of those events, or of the campaign events
//! between them, shows up here as a diff. Regenerate consciously with
//! `cargo test -p oa-sim --test grid_golden -- --ignored` and review it.

use oa_platform::presets::benchmark_grid;
use oa_sched::hetero::{grid_performance, repartition};
use oa_sched::heuristics::Heuristic;
use oa_sim::executor::ExecConfig;
use oa_sim::grid_exec::{execute_grid, run_grid_traced, ClusterCampaign};
use oa_sim::transfer::{Link, StagingModel};
use oa_trace::chrome::chrome_trace_string;
use oa_trace::{JsonlTracer, Tracer, VecTracer};

/// Eight scenarios of three months on `benchmark_grid(25)`: small
/// enough to review, large enough to use several clusters.
const NS: u32 = 8;
const NM: u32 = 3;
const RESOURCES: u32 = 25;

const PLAIN: &str = "/tests/golden/grid_plain_knapsack.json";
const STAGED: &str = "/tests/golden/grid_staged_knapsack.json";
/// The staged run's raw event stream: the Chrome export drops
/// `TransferFinish` events, so their placement is pinned here.
const STAGED_EVENTS: &str = "/tests/golden/grid_staged_knapsack.jsonl";

fn plain_trace() -> String {
    let grid = benchmark_grid(RESOURCES);
    let mut sink = VecTracer::new();
    run_grid_traced(
        &grid,
        Heuristic::Knapsack,
        NS,
        NM,
        ExecConfig::default(),
        &mut sink,
    )
    .expect("the benchmark grid fits the campaign");
    chrome_trace_string(&sink.into_events())
}

/// The staged run, streamed into `tracer`.
fn staged_run<T: Tracer>(tracer: &mut T) {
    let grid = benchmark_grid(RESOURCES);
    let links = vec![Link::gigabit(); grid.len()];
    let plan = repartition(&grid_performance(&grid, Heuristic::Knapsack, NS, NM));
    let campaigns = vec![ClusterCampaign::default(); grid.len()];
    execute_grid(
        &grid,
        &plan,
        Heuristic::Knapsack,
        NM,
        &campaigns,
        Some((&links, &StagingModel::default())),
        tracer,
    )
    .expect("the benchmark grid fits the campaign");
}

fn staged_trace() -> String {
    let mut sink = VecTracer::new();
    staged_run(&mut sink);
    chrome_trace_string(&sink.into_events())
}

fn staged_events() -> String {
    let mut sink = JsonlTracer::new(Vec::new());
    staged_run(&mut sink);
    String::from_utf8(sink.finish().expect("in-memory writes succeed")).expect("JSON is UTF-8")
}

fn golden(rel: &str) -> String {
    let path = format!("{}{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Rewrites the golden artifacts from the current grid runner.
#[test]
#[ignore = "regenerates the golden artifacts in-tree"]
fn regenerate_golden_files() {
    let dir = env!("CARGO_MANIFEST_DIR");
    std::fs::write(format!("{dir}{PLAIN}"), plain_trace() + "\n").expect("writable golden file");
    std::fs::write(format!("{dir}{STAGED}"), staged_trace() + "\n").expect("writable golden file");
    std::fs::write(format!("{dir}{STAGED_EVENTS}"), staged_events()).expect("writable golden file");
}

#[test]
fn plain_grid_trace_matches_the_golden_file() {
    assert_eq!(
        plain_trace(),
        golden(PLAIN).trim_end(),
        "traced grid run drifted from {PLAIN}"
    );
}

#[test]
fn staged_grid_trace_matches_the_golden_file() {
    assert_eq!(
        staged_trace(),
        golden(STAGED).trim_end(),
        "traced staged grid run drifted from {STAGED}"
    );
}

#[test]
fn staged_grid_events_match_the_golden_file() {
    assert_eq!(
        staged_events(),
        golden(STAGED_EVENTS),
        "staged grid event stream drifted from {STAGED_EVENTS}"
    );
}

#[test]
fn golden_traces_use_several_clusters() {
    // The pin is only worth having if the interleaving of clusters is
    // exercised: both artifacts must carry events of several clusters.
    for rel in [PLAIN, STAGED] {
        let doc: serde_json::Value = serde_json::from_str(golden(rel).trim_end()).expect("JSON");
        let serde_json::Value::Array(events) = doc.get("traceEvents").expect("traceEvents") else {
            panic!("traceEvents is not an array")
        };
        let mut pids: Vec<String> = events
            .iter()
            .filter_map(|e| e.get("pid").map(|p| format!("{p:?}")))
            .collect();
        pids.sort();
        pids.dedup();
        assert!(pids.len() >= 2, "{rel}: one cluster only ({pids:?})");
    }
}
