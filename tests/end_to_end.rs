//! Cross-crate integration: every benchmark × representative policies runs
//! to completion on the timing simulator and passes its post-conditions.

use awg_core::policies::PolicyKind;
use awg_harness::{run_experiment, ExperimentConfig, Scale};
use awg_workloads::BenchmarkKind;

/// Policies covering each architecture class.
const POLICIES: [PolicyKind; 6] = [
    PolicyKind::Baseline,
    PolicyKind::Timeout,
    PolicyKind::MonRsAll,
    PolicyKind::MonNrAll,
    PolicyKind::MonNrOne,
    PolicyKind::Awg,
];

/// Sweep points the figure campaigns run beyond the matrix: Fig 7's
/// backoff caps, Fig 8's timeout intervals and Fig 9's MonR.
const SWEEP_CELLS: [(BenchmarkKind, PolicyKind); 5] = [
    (BenchmarkKind::SpinMutexGlobal, PolicyKind::SleepMax(16_000)),
    (BenchmarkKind::FaMutexGlobal, PolicyKind::SleepMax(1_000)),
    (
        BenchmarkKind::SpinMutexGlobal,
        PolicyKind::TimeoutInterval(10_000),
    ),
    (
        BenchmarkKind::SpinMutexGlobal,
        PolicyKind::TimeoutInterval(100_000),
    ),
    (BenchmarkKind::FaMutexGlobal, PolicyKind::MonRAll),
];

#[test]
fn full_matrix_completes_and_validates_quick() {
    let scale = Scale::quick();
    let matrix = BenchmarkKind::all()
        .into_iter()
        .flat_map(|kind| POLICIES.map(|policy| (kind, policy)));
    for (kind, policy) in matrix.chain(SWEEP_CELLS) {
        let r = run_experiment(kind, policy, &scale, ExperimentConfig::NonOversubscribed);
        assert!(
            r.outcome.is_completed(),
            "{kind} under {}: {:?}",
            policy.label(),
            r.outcome
        );
        r.validated
            .unwrap_or_else(|e| panic!("{kind} under {}: {e}", policy.label()));
    }
}

#[test]
fn sleep_policy_completes_non_oversubscribed() {
    let scale = Scale::quick();
    for kind in [
        BenchmarkKind::SpinMutexGlobal,
        BenchmarkKind::TreeBarrier,
        BenchmarkKind::HashTable,
    ] {
        let r = run_experiment(
            kind,
            PolicyKind::Sleep,
            &scale,
            ExperimentConfig::NonOversubscribed,
        );
        assert!(r.is_valid_completion(), "{kind}: {:?}", r.outcome);
    }
}

#[test]
fn min_resume_oracle_uses_fewest_atomics() {
    let scale = Scale::quick();
    for kind in [BenchmarkKind::SpinMutexGlobal, BenchmarkKind::FaMutexGlobal] {
        let oracle = run_experiment(
            kind,
            PolicyKind::MinResume,
            &scale,
            ExperimentConfig::NonOversubscribed,
        );
        assert!(oracle.is_valid_completion(), "{kind}");
        for policy in [PolicyKind::Baseline, PolicyKind::MonRsAll] {
            let other = run_experiment(kind, policy, &scale, ExperimentConfig::NonOversubscribed);
            assert!(
                other.atomics() >= oracle.atomics(),
                "{kind}: {} used {} < oracle {}",
                policy.label(),
                other.atomics(),
                oracle.atomics()
            );
        }
    }
}

#[test]
fn waiting_policies_issue_fewer_atomics_than_busy_waiting() {
    let scale = Scale::quick();
    for kind in [
        BenchmarkKind::SpinMutexGlobal,
        BenchmarkKind::FaMutexGlobal,
        BenchmarkKind::SleepMutexGlobal,
    ] {
        let busy = run_experiment(
            kind,
            PolicyKind::Baseline,
            &scale,
            ExperimentConfig::NonOversubscribed,
        );
        let awg = run_experiment(
            kind,
            PolicyKind::Awg,
            &scale,
            ExperimentConfig::NonOversubscribed,
        );
        assert!(
            awg.atomics() < busy.atomics(),
            "{kind}: AWG {} >= busy {}",
            awg.atomics(),
            busy.atomics()
        );
    }
}

#[test]
fn awg_ablations_still_correct() {
    use awg_core::policies::AwgPolicy;
    use awg_gpu::Gpu;

    let scale = Scale::quick();
    let ablations: Vec<(&str, Box<dyn awg_gpu::SchedPolicy>)> = vec![
        (
            "no-resume-pred",
            Box::new(AwgPolicy::new().without_resume_prediction()),
        ),
        (
            "no-stall-pred",
            Box::new(AwgPolicy::new().without_stall_prediction()),
        ),
    ];
    for (name, policy) in ablations {
        let built = BenchmarkKind::TreeBarrier.build(&scale.params, policy.style());
        let mut gpu = Gpu::new(scale.gpu.clone(), built.kernel(), policy);
        let outcome = gpu.run();
        assert!(outcome.is_completed(), "{name}: {outcome:?}");
        built
            .validate(gpu.backing())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
