//! Golden-file test for the unfused post drain: the JSONL event stream
//! of two small traced unfused Knapsack campaigns with two faults each
//! is pinned byte for byte. Every `cof → emf → cd` step's `TaskStart` /
//! `TaskFinish` pair appears in drain pop order, so any change to the
//! order in which ready post steps meet the post-processor pool shows
//! up here as a diff. Regenerate consciously with
//! `cargo test -p oa-sim --test unfused_golden -- --ignored` and review
//! it.

use oa_platform::speedup::PcrModel;
use oa_sched::heuristics::Heuristic;
use oa_sched::params::Instance;
use oa_sched::policy::{CampaignConfig, FaultPlan, Granularity};
use oa_sim::engine::simulate_campaign;
use oa_trace::JsonlTracer;

/// Three scenarios of four months: small enough to review, long enough
/// that the two faults hit mid-campaign and the post chains of several
/// scenarios contend for the pool.
const NS: u32 = 3;
const NM: u32 = 4;
/// One grouping without a dedicated post pool (every post step waits
/// for the groups to disband) and one with twenty post processors.
const RESOURCES: [u32; 2] = [25, 53];
/// Group 0 dies at an integral instant, group 1 at a fractional one.
const FAULTS: [(usize, f64); 2] = [(0, 2000.0), (1, 3333.5)];

const EVENTS: &str = "/tests/golden/unfused_knapsack_faults.jsonl";

/// Both campaigns' event streams, one after the other.
fn events() -> String {
    let table = PcrModel::reference()
        .table(1.0)
        .expect("reference model is valid");
    let config = CampaignConfig {
        granularity: Granularity::Unfused,
        ..CampaignConfig::default()
    };
    let plan = FaultPlan {
        failures: FAULTS.to_vec(),
    };
    let mut sink = JsonlTracer::new(Vec::new());
    for r in RESOURCES {
        let inst = Instance::new(NS, NM, r);
        let grouping = Heuristic::Knapsack
            .grouping(inst, &table)
            .expect("the knapsack grouping is feasible");
        let outcome = simulate_campaign(inst, &table, &grouping, &config, &plan, &mut sink)
            .expect("valid grouping");
        assert!(outcome.completed().is_some(), "R = {r}: one group survives");
    }
    String::from_utf8(sink.finish().expect("in-memory writes succeed")).expect("JSON is UTF-8")
}

fn golden() -> String {
    let path = format!("{}{EVENTS}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Rewrites the golden stream from the current engine.
#[test]
#[ignore = "regenerates the golden artifact in-tree"]
fn regenerate_golden_file() {
    let path = format!("{}{EVENTS}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, events()).expect("writable golden file");
}

#[test]
fn unfused_fault_events_match_the_golden_file() {
    assert_eq!(
        events(),
        golden(),
        "unfused event stream drifted from {EVENTS}"
    );
}

#[test]
fn golden_stream_covers_faults_and_every_post_step() {
    // The pin is only worth having if it exercises what it claims:
    // both campaigns, both faults, and all three chain steps.
    let doc = golden();
    for needle in [
        "\"r\":25",
        "\"r\":53",
        "FailureInject",
        "\"Cof\"",
        "\"Emf\"",
        "\"Cd\"",
    ] {
        assert!(doc.contains(needle), "golden stream lacks {needle}");
    }
    assert_eq!(doc.matches("FailureInject").count(), 2 * RESOURCES.len());
}
