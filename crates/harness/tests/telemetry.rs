//! Integration tests for the telemetry hub on real benchmark runs: the
//! per-WG time-ledger identities, digest-trail transparency, the run-report
//! histograms, and the Perfetto export's well-formedness.

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{chrome_trace, expected_counts, Gpu};
use awg_harness::{
    run::{prepare_machine, run_instrumented, ExperimentConfig, Instrumentation},
    timeline, Scale, DIGEST_WINDOW,
};
use awg_sim::{json, Cycle, TelemetryConfig};
use awg_workloads::BenchmarkKind;

fn telemetry_on() -> TelemetryConfig {
    TelemetryConfig {
        snapshot_window: Some(DIGEST_WINDOW),
        profiling: true,
    }
}

/// Acceptance: each WG's one time ledger accounts for every cycle of the
/// run — swapped, fault-evicted and never-dispatched WGs included — under
/// every policy, clean and under a chaos plan. Its row sums (time in state)
/// and column sums (cycle attribution) both reach the cycle the hub closed
/// at, and the Fig 11 split derived from it covers the WG's lifetime.
#[test]
fn ledger_marginals_sum_to_elapsed_across_policies_and_chaos() {
    let scale = Scale::quick();
    for policy in awg_harness::conformance::policies() {
        for plan in [None, Some(awg_harness::chaos::plan_for(policy, &scale, 11))] {
            let chaotic = plan.is_some();
            let (_built, mut gpu) = prepare_machine(
                BenchmarkKind::SpinMutexGlobal,
                build_policy(policy),
                &scale,
                ExperimentConfig::NonOversubscribed,
                plan,
                Instrumentation::hotspot(),
                None,
            );
            // Baseline-family policies may legitimately hang under chaos;
            // the identities must still hold at the abort cycle.
            gpu.run();
            let now = gpu.now();
            // The hub closes at the retirement of the last instruction,
            // which may sit a few cycles past the final scheduled event.
            let end = gpu
                .telemetry()
                .and_then(|h| h.end_cycle())
                .expect("run finalizes the hub");
            assert!(end >= now, "{policy:?} chaos={chaotic}: {end} < {now}");
            assert!(!gpu.wgs().is_empty());
            for w in gpu.wgs() {
                let ctx = format!("{policy:?} chaos={chaotic} wg {}", w.id);
                let rows: Cycle = w.ledger.state_times(end).iter().sum();
                let cols: Cycle = w.ledger.cause_times(end).iter().sum();
                assert_eq!(rows, end, "{ctx}: state times must sum to {end}");
                assert_eq!(cols, end, "{ctx}: cause times must sum to {end}");
                let (running, waiting) = w.breakdown(now);
                assert_eq!(running + waiting, w.lifetime(now), "{ctx}: Fig 11");
            }
        }
    }
}

/// Telemetry is a pure observer: the per-window digest trail is
/// bit-identical with the hub off and on.
#[test]
fn telemetry_does_not_perturb_digest_trail() {
    let scale = Scale::quick();
    let digests_only = Instrumentation {
        oracle: false,
        digest_window: Some(DIGEST_WINDOW),
        telemetry: None,
        hot_profile: false,
    };
    let digests_and_telemetry = Instrumentation {
        oracle: false,
        digest_window: Some(DIGEST_WINDOW),
        telemetry: Some(telemetry_on()),
        hot_profile: true,
    };
    let run = |instr: Instrumentation| {
        run_instrumented(
            BenchmarkKind::SpinMutexGlobal,
            PolicyKind::Awg,
            build_policy(PolicyKind::Awg),
            &scale,
            ExperimentConfig::NonOversubscribed,
            None,
            instr,
        )
    };
    let plain = run(digests_only);
    let observed = run(digests_and_telemetry);
    assert!(plain.is_valid_completion());
    assert!(observed.is_valid_completion());
    assert!(!plain.digest_trail.is_empty());
    assert_eq!(
        plain.digest_trail, observed.digest_trail,
        "neither the hub nor the hot profile may feed back into the simulation"
    );
    assert!(plain.snapshots.is_empty());
    assert!(!observed.snapshots.is_empty());
    assert!(plain.hot.is_none());
    let hot = observed.hot.as_ref().expect("hot profile was enabled");
    assert!(hot.events_popped > 0);
    assert!(hot.heap_high_water > 0);
    // The ranked table is normalized: lane shares must sum to ~100%.
    let share: f64 = hot.lanes.iter().map(|l| l.fraction).sum();
    assert!((share - 1.0).abs() < 1e-9, "lane shares sum to {share}");
}

/// The wake-to-resume histogram lands in the run report's stats whenever a
/// sleeping policy actually wakes WGs.
#[test]
fn wake_to_resume_hist_reaches_run_report() {
    let scale = Scale::quick();
    let r = run_instrumented(
        BenchmarkKind::SpinMutexGlobal,
        PolicyKind::Awg,
        build_policy(PolicyKind::Awg),
        &scale,
        ExperimentConfig::NonOversubscribed,
        None,
        Instrumentation::observed(),
    );
    assert!(r.is_valid_completion());
    let stats = &r.outcome.summary().stats;
    let buckets = stats
        .hist_buckets_by_name("telemetry_wake_to_resume_cycles")
        .expect("hist registered by the hub");
    assert!(
        buckets.iter().map(|&(_, c)| c).sum::<u64>() > 0,
        "AWG wakes stalled WGs, so latencies must be observed"
    );
    // The rendered report (Stats::Display) includes the histogram too.
    let text = stats.to_string();
    assert!(
        text.contains("telemetry_wake_to_resume_cycles: count="),
        "{text}"
    );
    assert!(r.profile.is_some());
}

/// Golden export check on a contended-mutex run: the document parses, every
/// event is well-formed (known `ph`, numeric non-negative `ts`, numeric
/// `pid`/`tid`), and the phase counts account for the in-memory trace.
#[test]
fn perfetto_export_is_well_formed_and_complete() {
    let scale = Scale::quick();
    let policy_box = build_policy(PolicyKind::Awg);
    let built = BenchmarkKind::SpinMutexGlobal.build(&scale.params, policy_box.style());
    let mut gpu = Gpu::new(scale.gpu.clone(), built.kernel(), policy_box);
    gpu.enable_trace();
    gpu.enable_telemetry(telemetry_on());
    let outcome = gpu.run();
    assert!(outcome.is_completed(), "{outcome}");

    let records = gpu.trace_records();
    assert!(!records.is_empty());
    let doc = json::parse(&chrome_trace(&records, scale.gpu.num_cus)).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");

    let mut slices = 0u64;
    let mut counters = 0u64;
    let mut instants = 0u64;
    for e in events {
        let ph = e.get("ph").and_then(|p| p.as_str()).expect("ph present");
        assert!(
            matches!(ph, "X" | "C" | "i" | "M"),
            "unexpected phase {ph:?}"
        );
        let pid = e.get("pid").and_then(|p| p.as_f64()).expect("numeric pid");
        assert!(pid >= 0.0);
        let tid = e.get("tid").and_then(|t| t.as_f64()).expect("numeric tid");
        assert!(tid >= 0.0);
        if ph != "M" {
            let ts = e.get("ts").and_then(|t| t.as_f64()).expect("numeric ts");
            assert!(ts >= 0.0, "negative timestamp {ts}");
        }
        match ph {
            "X" => {
                slices += 1;
                let dur = e.get("dur").and_then(|d| d.as_f64()).expect("numeric dur");
                assert!(dur >= 0.0);
            }
            "C" => counters += 1,
            "i" => instants += 1,
            _ => {}
        }
    }
    let expected = expected_counts(&records);
    assert_eq!(slices, expected.slices);
    assert_eq!(counters, expected.counters);
    assert_eq!(instants, expected.instants);
}

/// Context switches (forced here by mid-run CU loss) record their
/// traffic/fixed/stall breakdown and land swap intervals in the per-WG
/// accounting.
#[test]
fn oversubscription_records_ctx_switch_breakdown() {
    let scale = Scale::quick();
    let r = run_instrumented(
        BenchmarkKind::SpinMutexGlobal,
        PolicyKind::Awg,
        build_policy(PolicyKind::Awg),
        &scale,
        ExperimentConfig::Oversubscribed,
        None,
        Instrumentation::observed(),
    );
    assert!(r.is_valid_completion(), "{:?}", r.outcome);
    assert!(r.outcome.summary().switches_out > 0, "CU loss forces swaps");
    let stats = &r.outcome.summary().stats;
    let out = stats
        .dist_summary_by_name("telemetry_ctx_out_traffic_cycles")
        .expect("swap-out breakdown recorded");
    assert_eq!(out.count, r.outcome.summary().switches_out);
    assert!(out.sum > 0, "context save is real DRAM traffic");
    assert!(stats
        .hist_buckets_by_name("telemetry_ctx_out_total_cycles")
        .is_some());
    let swapped = stats
        .dist_summary_by_name("telemetry_wg_cycles_swapped_out")
        .expect("per-WG state dists published");
    assert!(swapped.sum > 0, "some WG spent time swapped out");
}

/// The timeline workflow produces the same artifacts the CLI writes.
#[test]
fn timeline_workflow_runs_quick() {
    let t = timeline::run_timeline(
        BenchmarkKind::FaMutexGlobal,
        PolicyKind::MonNrOne,
        &Scale::quick(),
        None,
    );
    assert!(t.outcome.is_completed(), "{}", t.outcome);
    json::parse(&t.json).expect("valid JSON");
    for line in t.snapshots_jsonl.lines() {
        let snap = json::parse(line).expect("valid snapshot line");
        assert!(snap.get("cycle").is_some());
        assert!(snap.get("occupancy").is_some());
        assert!(snap.get("states").is_some());
    }
}
