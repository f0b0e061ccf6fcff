//! The campaign supervisor: durable, deadline-bounded, retrying job
//! execution on top of the job-cursor [`Pool`].
//!
//! Every campaign (fig05–fig15, the tables, ablations, fairness, sweep,
//! priority, chaos) submits its jobs through a [`Supervisor`] instead of
//! the raw pool, gaining four guarantees:
//!
//! 1. **Durability.** With a journal attached, each finished job is
//!    appended (and flushed) to a JSONL file keyed by the content digest of
//!    its full identity. `--resume` decodes completed jobs from the journal
//!    and re-merges them in enumeration order, so the resumed CSV is
//!    byte-identical to an uninterrupted run.
//! 2. **Deadlines.** Each attempt runs under a [`Watchdog`] (wall-clock
//!    deadline and/or simulated-cycle budget); a wedged simulation becomes
//!    a typed [`SimError::JobTimeout`] row instead of a hung campaign.
//! 3. **Retries.** Retryable failures (panics; timeouts, with an escalated
//!    cycle budget) are re-attempted a bounded number of times with
//!    deterministic exponential backoff; attempt counts are journaled.
//! 4. **Graceful degradation.** On SIGINT/SIGTERM the front end raises the
//!    global cancel flag: in-flight runs stop at the next event boundary,
//!    unstarted jobs return [`SimError::JobCancelled`] immediately, and the
//!    journal already holds everything that finished. Jobs that exhaust
//!    retries are counted so the front end can exit with the
//!    partial-completion code.
//! 5. **Checkpoint-resume.** With a [`CheckpointPolicy`] attached, each
//!    job's attempts write machine snapshots (keyed by the job digest) and
//!    a retry resumes from the last snapshot instead of starting over.
//!    A retry that made snapshot progress since the previous attempt does
//!    *not* consume a `--retries` slot: resuming saved work is continuing
//!    the same attempt, not a new gamble. Only attempts that fail without
//!    advancing the snapshot — a deterministically wedged job — burn
//!    through `max_attempts`, so the loop still terminates.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{
    global_cancelled, read_checkpoint, CancelCause, CheckpointSpec, FaultPlan, SimError, Watchdog,
};
use awg_sim::{Cycle, Fingerprint64};
use awg_workloads::BenchmarkKind;

use crate::checkpointing;
use crate::journal::{JobStatus, Journal, JournalRecord, ResumeState};
use crate::pool::{self, JobOutput, Pool};
use crate::run::{self, ExpResult, ExperimentConfig, Instrumentation};
use crate::{Artifact, Scale};

/// Per-job execution limits and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobLimits {
    /// Host wall-clock deadline per attempt (`None` = unbounded).
    pub deadline: Option<Duration>,
    /// Simulated-cycle budget per attempt (`None` = unbounded).
    pub cycle_budget: Option<u64>,
    /// Maximum attempts per job (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base × 2^(n−2)` (deterministic,
    /// so reruns behave identically).
    pub backoff_base: Duration,
    /// Each timeout retry multiplies the cycle budget by this factor, so a
    /// retry distinguishes "slow" from "wedged".
    pub budget_escalation: u32,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            deadline: None,
            cycle_budget: None,
            max_attempts: 2,
            backoff_base: Duration::from_millis(25),
            budget_escalation: 4,
        }
    }
}

/// Computes a job's content digest from its stable key, the scale (which
/// carries the full machine configuration and workload parameters), and any
/// extra identity strings (e.g. a serialized fault plan).
///
/// The digest is what the journal is keyed by: two jobs collide only if
/// they would simulate the same thing, which is exactly when reusing the
/// cached result is correct. The key itself participates so that two arms
/// of a determinism comparison (same computation, different keys) journal
/// separately.
pub fn job_digest(key: &str, scale: &Scale, extras: &[&str]) -> u64 {
    let mut f = Fingerprint64::new();
    f.push_bytes(key.as_bytes());
    f.push_bytes(format!("{scale:?}").as_bytes());
    for extra in extras {
        f.push_bytes(extra.as_bytes());
    }
    f.finish()
}

/// Where (and how often) supervised jobs snapshot their machines. Attached
/// to a [`Supervisor`] via [`Supervisor::with_checkpoints`]; each job's
/// snapshot lives in `dir` under a name derived from its content digest, so
/// concurrent jobs never collide and a restarted campaign finds exactly its
/// own snapshots.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the per-job snapshot files live in (must exist).
    pub dir: PathBuf,
    /// Snapshot interval in simulated cycles.
    pub every: u64,
}

impl CheckpointPolicy {
    /// The snapshot file for the job with the given content digest.
    pub fn snapshot_path(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("job-{digest:016x}.ckpt"))
    }

    /// The [`CheckpointSpec`] a job with this digest runs under: the
    /// digest doubles as the snapshot identity, so a snapshot can only be
    /// restored by the exact same job.
    pub fn spec_for(&self, digest: u64) -> CheckpointSpec {
        CheckpointSpec {
            path: self.snapshot_path(digest),
            every: self.every,
            identity: digest,
            kill_after: None,
        }
    }
}

/// A supervised task: re-runnable (for retries), handed a [`JobCtl`] to
/// thread the attempt's watchdog into its simulations.
pub type SimTask<'scope, T> = Box<dyn Fn(&JobCtl) -> T + Send + 'scope>;

/// One supervised unit of campaign work.
pub struct SimJob<'scope, T> {
    key: String,
    digest: u64,
    task: SimTask<'scope, T>,
}

/// Creates a supervised job. `digest` should come from [`job_digest`].
pub fn sim_job<'scope, T>(
    key: impl Into<String>,
    digest: u64,
    task: impl Fn(&JobCtl) -> T + Send + 'scope,
) -> SimJob<'scope, T> {
    SimJob {
        key: key.into(),
        digest,
        task: Box::new(task),
    }
}

/// Handle a supervised task receives: carries the current attempt's
/// watchdog and mirrors the `run` module's entry points with the watchdog
/// threaded through.
#[derive(Debug)]
pub struct JobCtl {
    watchdog: Watchdog,
    checkpoint: Option<CheckpointSpec>,
}

impl JobCtl {
    /// A control block with the given watchdog (tests; campaigns get theirs
    /// from the supervisor).
    pub fn with_watchdog(watchdog: Watchdog) -> Self {
        JobCtl {
            watchdog,
            checkpoint: None,
        }
    }

    /// A fresh clone of this attempt's watchdog, for driving a
    /// [`Gpu`](awg_gpu::Gpu) directly.
    pub fn watchdog(&self) -> Watchdog {
        self.watchdog.clone()
    }

    /// The snapshot spec this job runs under, when the supervisor has a
    /// [`CheckpointPolicy`] attached.
    pub fn checkpoint_spec(&self) -> Option<&CheckpointSpec> {
        self.checkpoint.as_ref()
    }

    /// [`run::run_experiment`] with this attempt's watchdog.
    pub fn run_experiment(
        &self,
        kind: BenchmarkKind,
        policy: PolicyKind,
        scale: &Scale,
        config: ExperimentConfig,
    ) -> ExpResult {
        self.run_instrumented(
            kind,
            policy,
            build_policy(policy),
            scale,
            config,
            None,
            Instrumentation::none(),
        )
    }

    /// [`run::run_with_policy`] with this attempt's watchdog.
    pub fn run_with_policy(
        &self,
        kind: BenchmarkKind,
        label: PolicyKind,
        policy_box: Box<dyn awg_gpu::SchedPolicy>,
        scale: &Scale,
        config: ExperimentConfig,
    ) -> ExpResult {
        self.run_instrumented(
            kind,
            label,
            policy_box,
            scale,
            config,
            None,
            Instrumentation::none(),
        )
    }

    /// [`run::run_instrumented`] with this attempt's watchdog.
    #[allow(clippy::too_many_arguments)]
    pub fn run_instrumented(
        &self,
        kind: BenchmarkKind,
        label: PolicyKind,
        policy_box: Box<dyn awg_gpu::SchedPolicy>,
        scale: &Scale,
        config: ExperimentConfig,
        plan: Option<FaultPlan>,
        instr: Instrumentation,
    ) -> ExpResult {
        run::run_watched(
            kind,
            label,
            policy_box,
            scale,
            config,
            plan,
            instr,
            Some(self.watchdog()),
        )
    }

    /// Like [`JobCtl::run_instrumented`], but crash-survivable: when the
    /// supervisor carries a [`CheckpointPolicy`], the run snapshots
    /// periodically and — on a retry after a kill, panic, or timeout —
    /// resumes from the last snapshot instead of starting over. Without a
    /// policy this is exactly `run_instrumented`.
    pub fn run_checkpointed(
        &self,
        kind: BenchmarkKind,
        policy: PolicyKind,
        scale: &Scale,
        config: ExperimentConfig,
        plan: Option<FaultPlan>,
        instr: Instrumentation,
    ) -> ExpResult {
        match &self.checkpoint {
            Some(spec) => {
                checkpointing::run_checkpointed(
                    kind,
                    policy,
                    scale,
                    config,
                    plan,
                    instr,
                    Some(self.watchdog()),
                    spec.clone(),
                )
                .result
            }
            None => self.run_instrumented(
                kind,
                policy,
                build_policy(policy),
                scale,
                config,
                plan,
                instr,
            ),
        }
    }
}

/// The resilience layer around the pool. See the module docs.
pub struct Supervisor {
    pool: Pool,
    limits: JobLimits,
    journal: Option<Mutex<Journal>>,
    resumed: HashMap<u64, JournalRecord>,
    resume_command: Option<String>,
    incomplete: AtomicUsize,
    resumed_hits: AtomicUsize,
    checkpoints: Option<CheckpointPolicy>,
    checkpoint_resumes: AtomicUsize,
}

impl Supervisor {
    /// A supervisor with no journal and default limits: behaves like the
    /// bare pool plus panic retries.
    pub fn bare(pool: Pool) -> Self {
        Supervisor::new(pool, JobLimits::default())
    }

    /// A supervisor with no journal and the given limits.
    pub fn new(pool: Pool, limits: JobLimits) -> Self {
        Supervisor {
            pool,
            limits,
            journal: None,
            resumed: HashMap::new(),
            resume_command: None,
            incomplete: AtomicUsize::new(0),
            resumed_hits: AtomicUsize::new(0),
            checkpoints: None,
            checkpoint_resumes: AtomicUsize::new(0),
        }
    }

    /// Attaches a snapshot policy: jobs run through
    /// [`JobCtl::run_checkpointed`] become crash-survivable, and a retry
    /// that advanced its snapshot does not consume a retry slot.
    pub fn with_checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoints = Some(policy);
        self
    }

    /// The attached snapshot policy, if any.
    pub fn checkpoints(&self) -> Option<&CheckpointPolicy> {
        self.checkpoints.as_ref()
    }

    /// Number of retries that resumed from an advanced snapshot (and were
    /// therefore not charged against `max_attempts`).
    pub fn checkpoint_resumes(&self) -> usize {
        self.checkpoint_resumes.load(Ordering::Relaxed)
    }

    /// A supervisor journaling to `path`. With `resume` set, an existing
    /// journal is loaded first: its completed jobs are served from the
    /// journal instead of re-running, and new results are appended to the
    /// same file. Without `resume`, the file is created fresh (truncated).
    ///
    /// `command` is recorded in the header so an interrupted campaign can
    /// print the exact resume command.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O and corruption errors.
    pub fn with_journal(
        pool: Pool,
        limits: JobLimits,
        path: &Path,
        resume: bool,
        command: &str,
    ) -> std::io::Result<Self> {
        let mut sup = Supervisor::new(pool, limits);
        if resume && path.exists() {
            let (journal, state) = Journal::open_resume(path)?;
            let ResumeState {
                command: recorded, ..
            } = &state;
            sup.resume_command = recorded.clone();
            for record in state.records {
                // Only completed jobs short-circuit; failed jobs get a
                // fresh chance on resume.
                if record.status == JobStatus::Ok {
                    sup.resumed.insert(record.digest, record);
                }
            }
            sup.journal = Some(Mutex::new(journal));
        } else {
            sup.journal = Some(Mutex::new(Journal::create(path, command)?));
        }
        Ok(sup)
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// The configured per-job limits.
    pub fn limits(&self) -> &JobLimits {
        &self.limits
    }

    /// Number of jobs that exhausted their retries (timeout or panic) so
    /// far. Non-zero means the campaign's report is partial and the front
    /// end should exit with the partial-completion code.
    pub fn incomplete(&self) -> usize {
        self.incomplete.load(Ordering::Relaxed)
    }

    /// Number of jobs served from the resume journal instead of re-run.
    pub fn resumed_jobs(&self) -> usize {
        self.resumed_hits.load(Ordering::Relaxed)
    }

    /// Number of completed records loaded from the resume journal (an
    /// upper bound on [`Supervisor::resumed_jobs`]: a loaded record only
    /// counts as a hit when a matching job is actually enumerated).
    pub fn resumed_records(&self) -> usize {
        self.resumed.len()
    }

    /// Runs every job under supervision and returns outputs in job order
    /// (same merge contract as [`Pool::run`]).
    pub fn run<'scope, T>(&'scope self, jobs: Vec<SimJob<'scope, T>>) -> Vec<JobOutput<T>>
    where
        T: Artifact + Send,
    {
        let pool_jobs = jobs
            .into_iter()
            .map(|job| {
                let key = job.key.clone();
                pool::job(key, move || self.run_one(job))
            })
            .collect();
        self.pool
            .run(pool_jobs)
            .into_iter()
            .map(|out| match out.result {
                // run_one returns the per-job verdict; flatten it into the
                // pool's output slot. The outer Err only fires if the
                // supervisor itself panicked.
                Ok(inner) => JobOutput {
                    key: out.key,
                    wall: inner.wall,
                    result: inner.result,
                },
                Err(e) => JobOutput {
                    key: out.key,
                    wall: out.wall,
                    result: Err(e),
                },
            })
            .collect()
    }

    fn run_one<T: Artifact>(&self, job: SimJob<'_, T>) -> Verdict<T> {
        // Resume cache: a journaled ok record for this digest short-circuits
        // the attempt loop entirely (and is not re-journaled).
        if let Some(record) = self.resumed.get(&job.digest) {
            let stored = record.value.as_ref().expect("ok records carry a value");
            match T::from_json(stored) {
                Ok(value) => {
                    self.resumed_hits.fetch_add(1, Ordering::Relaxed);
                    return Verdict {
                        wall: Duration::from_nanos(record.wall_ns),
                        result: Ok(value),
                    };
                }
                Err(e) => {
                    eprintln!(
                        "warning: journaled result for '{}' is undecodable ({e}); re-running",
                        job.key
                    );
                }
            }
        }

        let ckpt = self
            .checkpoints
            .as_ref()
            .map(|policy| policy.spec_for(job.digest));
        let ckpt_path = ckpt.as_ref().map(|spec| spec.path.display().to_string());
        // The newest snapshot cycle seen so far: seeded from any snapshot a
        // killed earlier process left behind, advanced after each failed
        // attempt. A retry only counts against `max_attempts` when this did
        // NOT move — strict progress is what guarantees termination.
        let mut snapshot_cycle = ckpt.as_ref().and_then(|spec| peek_cycle(&spec.path));

        let started = Instant::now();
        let mut budget = self.limits.cycle_budget;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if global_cancelled() {
                // Not journaled: an interrupted job is neither done nor
                // failed; it simply runs on resume.
                return Verdict {
                    wall: started.elapsed(),
                    result: Err(SimError::JobCancelled {
                        job: job.key.clone(),
                    }),
                };
            }
            let ctl = JobCtl {
                watchdog: Watchdog::new(self.limits.deadline, budget),
                checkpoint: ckpt.clone(),
            };
            match catch_unwind(AssertUnwindSafe(|| (job.task)(&ctl))) {
                Ok(value) => match value.cancelled() {
                    None => {
                        let wall = started.elapsed();
                        self.journal_append(
                            &job,
                            attempt,
                            wall,
                            JobStatus::Ok,
                            &value,
                            None,
                            ckpt_path.clone(),
                        );
                        // The snapshot has served its purpose; a stale one
                        // must not shadow a future same-digest campaign.
                        if let Some(spec) = &ckpt {
                            std::fs::remove_file(&spec.path).ok();
                        }
                        return Verdict {
                            wall,
                            result: Ok(value),
                        };
                    }
                    Some((_, CancelCause::Interrupt)) => {
                        // Snapshot intentionally left on disk: the resumed
                        // campaign continues this job from it.
                        return Verdict {
                            wall: started.elapsed(),
                            result: Err(SimError::JobCancelled {
                                job: job.key.clone(),
                            }),
                        };
                    }
                    Some((at, cause)) => {
                        if self.snapshot_advanced(&ckpt, &mut snapshot_cycle) {
                            // The attempt timed out but banked new work; the
                            // retry resumes from the snapshot and continues
                            // the *same* attempt.
                            attempt -= 1;
                            self.checkpoint_resumes.fetch_add(1, Ordering::Relaxed);
                        } else if attempt >= self.limits.max_attempts {
                            let err = SimError::JobTimeout {
                                job: job.key.clone(),
                                at,
                                cause,
                            };
                            let wall = started.elapsed();
                            self.journal_error(
                                &job,
                                attempt,
                                wall,
                                JobStatus::Timeout,
                                &err,
                                ckpt_path.clone(),
                            );
                            self.incomplete.fetch_add(1, Ordering::Relaxed);
                            return Verdict {
                                wall,
                                result: Err(err),
                            };
                        }
                        // A timeout retry escalates the cycle budget: a
                        // merely slow job completes, a wedged one times
                        // out again.
                        budget = budget
                            .map(|b| b.saturating_mul(u64::from(self.limits.budget_escalation)));
                        self.backoff(attempt.max(1));
                    }
                },
                Err(payload) => {
                    if self.snapshot_advanced(&ckpt, &mut snapshot_cycle) {
                        attempt -= 1;
                        self.checkpoint_resumes.fetch_add(1, Ordering::Relaxed);
                    } else if attempt >= self.limits.max_attempts {
                        let message = if let Some(s) = payload.downcast_ref::<&str>() {
                            (*s).to_owned()
                        } else if let Some(s) = payload.downcast_ref::<String>() {
                            s.clone()
                        } else {
                            "non-string panic payload".to_owned()
                        };
                        let err = SimError::JobPanic {
                            job: job.key.clone(),
                            message,
                        };
                        let wall = started.elapsed();
                        self.journal_error(
                            &job,
                            attempt,
                            wall,
                            JobStatus::Panic,
                            &err,
                            ckpt_path.clone(),
                        );
                        self.incomplete.fetch_add(1, Ordering::Relaxed);
                        return Verdict {
                            wall,
                            result: Err(err),
                        };
                    }
                    self.backoff(attempt.max(1));
                }
            }
        }
    }

    /// Whether the job's snapshot advanced past the newest cycle seen so
    /// far (strictly — an unreadable or unmoved snapshot is *not*
    /// progress, so a deterministically wedged job still burns attempts).
    fn snapshot_advanced(&self, spec: &Option<CheckpointSpec>, newest: &mut Option<Cycle>) -> bool {
        let Some(spec) = spec else { return false };
        let Some(cycle) = peek_cycle(&spec.path) else {
            return false;
        };
        let advanced = newest.is_none_or(|seen| cycle > seen);
        if advanced {
            *newest = Some(cycle);
        }
        advanced
    }

    /// Deterministic exponential backoff before retry `attempt + 1`,
    /// shortened when an interrupt is pending.
    fn backoff(&self, attempt: u32) {
        if global_cancelled() {
            return;
        }
        let factor = 1u32 << (attempt.saturating_sub(1)).min(10);
        std::thread::sleep(self.limits.backoff_base * factor);
    }

    #[allow(clippy::too_many_arguments)]
    fn journal_append<T: Artifact>(
        &self,
        job: &SimJob<'_, T>,
        attempts: u32,
        wall: Duration,
        status: JobStatus,
        value: &T,
        error: Option<String>,
        checkpoint: Option<String>,
    ) {
        let Some(journal) = &self.journal else { return };
        let record = JournalRecord {
            key: job.key.clone(),
            digest: job.digest,
            attempts,
            wall_ns: wall.as_nanos() as u64,
            status,
            value: (status == JobStatus::Ok).then(|| value.to_json()),
            error,
            checkpoint,
        };
        let mut journal = journal.lock().expect("journal lock poisoned");
        if let Err(e) = journal.append(&record) {
            eprintln!(
                "warning: failed to journal job '{}' to {}: {e}",
                job.key,
                journal.path().display()
            );
        }
    }

    fn journal_error<T: Artifact>(
        &self,
        job: &SimJob<'_, T>,
        attempts: u32,
        wall: Duration,
        status: JobStatus,
        err: &SimError,
        checkpoint: Option<String>,
    ) {
        let Some(journal) = &self.journal else { return };
        let record = JournalRecord {
            key: job.key.clone(),
            digest: job.digest,
            attempts,
            wall_ns: wall.as_nanos() as u64,
            status,
            value: None,
            error: Some(err.to_string()),
            checkpoint,
        };
        let mut journal = journal.lock().expect("journal lock poisoned");
        if let Err(e) = journal.append(&record) {
            eprintln!(
                "warning: failed to journal job '{}' to {}: {e}",
                job.key,
                journal.path().display()
            );
        }
    }
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("pool", &self.pool)
            .field("limits", &self.limits)
            .field("journaled", &self.journal.is_some())
            .field("resumed", &self.resumed.len())
            .finish()
    }
}

/// The machine cycle a snapshot file holds, if the file parses. Cheap
/// relative to an attempt (one read + CRC), and run only on the failure
/// path.
fn peek_cycle(path: &Path) -> Option<Cycle> {
    read_checkpoint(path).ok().map(|image| image.cycle)
}

/// One job's flattened outcome inside the pool task.
struct Verdict<T> {
    wall: Duration,
    result: Result<T, SimError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    use awg_sim::json::Value;

    use crate::report::Cell;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("awg-supervisor-{tag}-{}.jsonl", std::process::id()))
    }

    fn fast_limits() -> JobLimits {
        JobLimits {
            backoff_base: Duration::from_millis(1),
            ..JobLimits::default()
        }
    }

    /// A tiny artifact whose cancellation status is scripted, for driving
    /// the retry machinery without real simulations.
    #[derive(Debug, Clone, PartialEq)]
    struct Probe {
        n: u64,
        cancelled_at: Option<u64>,
    }

    impl Artifact for Probe {
        fn to_json(&self) -> Value {
            Value::Num(self.n as f64)
        }
        fn from_json(value: &Value) -> Result<Self, String> {
            value
                .as_f64()
                .map(|n| Probe {
                    n: n as u64,
                    cancelled_at: None,
                })
                .ok_or_else(|| "not a probe".to_owned())
        }
        fn cancelled(&self) -> Option<(u64, CancelCause)> {
            self.cancelled_at
                .map(|at| (at, CancelCause::CycleBudget(at)))
        }
    }

    #[test]
    fn digest_separates_key_scale_and_extras() {
        let quick = Scale::quick();
        let paper = Scale::paper();
        let d = |key, scale, extras| job_digest(key, scale, extras);
        assert_eq!(d("a", &quick, &[]), d("a", &quick, &[]));
        assert_ne!(d("a", &quick, &[]), d("b", &quick, &[]));
        assert_ne!(d("a", &quick, &[]), d("a", &paper, &[]));
        assert_ne!(d("a", &quick, &["plan1"]), d("a", &quick, &["plan2"]));
    }

    #[test]
    fn panicking_job_retries_then_succeeds() {
        awg_gpu::reset_global_cancel();
        let sup = Supervisor::new(Pool::serial(), fast_limits());
        let calls = AtomicU32::new(0);
        let outputs = sup.run(vec![sim_job("flaky", 1, |_ctl| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            Probe {
                n: 7,
                cancelled_at: None,
            }
        })]);
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].result.as_ref().unwrap().n, 7);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one retry");
        assert_eq!(sup.incomplete(), 0);
    }

    #[test]
    fn exhausted_panics_become_typed_rows_and_count_incomplete() {
        awg_gpu::reset_global_cancel();
        let sup = Supervisor::new(Pool::serial(), fast_limits());
        let calls = AtomicU32::new(0);
        let outputs = sup.run(vec![sim_job("doomed", 2, |_ctl| -> Probe {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("permanent failure");
        })]);
        match &outputs[0].result {
            Err(SimError::JobPanic { job, message }) => {
                assert_eq!(job, "doomed");
                assert!(message.contains("permanent"), "{message}");
            }
            other => panic!("expected JobPanic, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2, "max_attempts respected");
        assert_eq!(sup.incomplete(), 1);
    }

    #[test]
    fn timeout_retry_escalates_the_budget_then_reports_job_timeout() {
        awg_gpu::reset_global_cancel();
        let limits = JobLimits {
            cycle_budget: Some(100),
            max_attempts: 2,
            budget_escalation: 4,
            ..fast_limits()
        };
        let sup = Supervisor::new(Pool::serial(), limits);
        let budgets = Mutex::new(Vec::new());
        let outputs = sup.run(vec![sim_job("wedged", 3, |ctl: &JobCtl| {
            let budget = ctl.watchdog().cycle_budget().unwrap();
            budgets.lock().unwrap().push(budget);
            // Simulate a run that always exceeds its budget.
            Probe {
                n: 0,
                cancelled_at: Some(budget),
            }
        })]);
        assert_eq!(*budgets.lock().unwrap(), vec![100, 400], "budget escalates");
        match &outputs[0].result {
            Err(SimError::JobTimeout { job, at, cause }) => {
                assert_eq!(job, "wedged");
                assert_eq!(*at, 400);
                assert_eq!(*cause, CancelCause::CycleBudget(400));
            }
            other => panic!("expected JobTimeout, got {other:?}"),
        }
        assert_eq!(sup.incomplete(), 1);
    }

    #[test]
    fn journal_records_attempt_counts() {
        awg_gpu::reset_global_cancel();
        let path = temp_path("attempts");
        {
            let sup =
                Supervisor::with_journal(Pool::serial(), fast_limits(), &path, false, "test-cmd")
                    .unwrap();
            let calls = AtomicU32::new(0);
            sup.run(vec![
                sim_job("steady", 10, |_ctl| Probe {
                    n: 1,
                    cancelled_at: None,
                }),
                sim_job("flaky", 11, |_ctl| {
                    if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                        panic!("transient");
                    }
                    Probe {
                        n: 2,
                        cancelled_at: None,
                    }
                }),
                sim_job("doomed", 12, |_ctl| -> Probe { panic!("permanent") }),
            ]);
        }
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.command.as_deref(), Some("test-cmd"));
        assert_eq!(state.records.len(), 3);
        let by_key: HashMap<&str, &JournalRecord> =
            state.records.iter().map(|r| (r.key.as_str(), r)).collect();
        assert_eq!(by_key["steady"].attempts, 1);
        assert_eq!(by_key["steady"].status, JobStatus::Ok);
        assert_eq!(by_key["flaky"].attempts, 2);
        assert_eq!(by_key["flaky"].status, JobStatus::Ok);
        assert_eq!(by_key["doomed"].attempts, 2);
        assert_eq!(by_key["doomed"].status, JobStatus::Panic);
        assert!(by_key["doomed"].error.as_deref().unwrap().contains("panic"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_serves_ok_records_without_rerunning() {
        awg_gpu::reset_global_cancel();
        let path = temp_path("resume");
        {
            let sup =
                Supervisor::with_journal(Pool::serial(), fast_limits(), &path, false, "test-cmd")
                    .unwrap();
            sup.run(vec![sim_job("done", 42, |_ctl| {
                vec![Cell::Num(8.0), Cell::Text("x".into())]
            })]);
        }
        let sup = Supervisor::with_journal(Pool::serial(), fast_limits(), &path, true, "test-cmd")
            .unwrap();
        let ran = AtomicU32::new(0);
        let outputs = sup.run(vec![
            sim_job("done", 42, |_ctl| {
                ran.fetch_add(1, Ordering::Relaxed);
                vec![Cell::Num(8.0), Cell::Text("x".into())]
            }),
            sim_job("new", 43, |_ctl| vec![Cell::Deadlock]),
        ]);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "cached job must not re-run");
        assert_eq!(sup.resumed_jobs(), 1);
        assert_eq!(
            outputs[0].result.as_ref().unwrap(),
            &vec![Cell::Num(8.0), Cell::Text("x".into())]
        );
        assert_eq!(outputs[1].result.as_ref().unwrap(), &vec![Cell::Deadlock]);
        // The journal now also holds the new job.
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert_eq!(state.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_records_rerun_on_resume() {
        awg_gpu::reset_global_cancel();
        let path = temp_path("failed-rerun");
        {
            let sup =
                Supervisor::with_journal(Pool::serial(), fast_limits(), &path, false, "test-cmd")
                    .unwrap();
            sup.run(vec![sim_job("crashy", 5, |_ctl| -> Probe {
                panic!("always, at first")
            })]);
            assert_eq!(sup.incomplete(), 1);
        }
        let sup = Supervisor::with_journal(Pool::serial(), fast_limits(), &path, true, "test-cmd")
            .unwrap();
        let outputs = sup.run(vec![sim_job("crashy", 5, |_ctl| Probe {
            n: 9,
            cancelled_at: None,
        })]);
        assert_eq!(outputs[0].result.as_ref().unwrap().n, 9, "got a fresh run");
        assert_eq!(sup.resumed_jobs(), 0);
        assert_eq!(sup.incomplete(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupt_cancels_pending_jobs_without_journaling() {
        let path = temp_path("interrupt");
        {
            let sup =
                Supervisor::with_journal(Pool::serial(), fast_limits(), &path, false, "test-cmd")
                    .unwrap();
            awg_gpu::request_global_cancel();
            let outputs = sup.run(vec![sim_job("never-ran", 77, |_ctl| Probe {
                n: 1,
                cancelled_at: None,
            })]);
            awg_gpu::reset_global_cancel();
            match &outputs[0].result {
                Err(SimError::JobCancelled { job }) => assert_eq!(job, "never-ran"),
                other => panic!("expected JobCancelled, got {other:?}"),
            }
        }
        let (_j, state) = Journal::open_resume(&path).unwrap();
        assert!(
            state.records.is_empty(),
            "cancelled jobs must not be journaled as done"
        );
        std::fs::remove_file(&path).ok();
    }
}
