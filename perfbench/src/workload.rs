//! The four workloads: which cells a pass runs, how each simulation is
//! driven through the crates' public entry points, and what each cell is
//! expected to do.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use awg_conformance::{
    adversary_plan, anchor_specs, check_obligations, generate_batch, CellOutcome, LitmusSpec,
    ProgressModel, ALL_MODELS,
};
use awg_core::policies::{build_policy, PolicyKind};
use awg_gpu::{FaultPlan, Gpu, HotReport, Kernel, RunOutcome, TraceFilter, WgResources};
use awg_harness::conformance::{self as campaign, CellRun, ConformanceConfig};
use awg_harness::pool::{self, Pool};
use awg_harness::supervisor::{job_digest, sim_job, JobCtl, Supervisor};
use awg_harness::{chaos, fig14, ExperimentConfig, Scale, DIGEST_WINDOW};
use awg_sim::{Fingerprint64, SplitMix64, TelemetryConfig};
use awg_workloads::litmus::{self, Litmus, LitmusBuilder};
use awg_workloads::BenchmarkKind;

use crate::cputime;
use crate::trace::Tracer;

/// The committed conformance matrix: the expectation for conformance
/// cells, and the exact answer at the default generator seed.
const GOLDEN_MATRIX: &str = include_str!("../../results/conformance_expected.csv");

/// Generated litmuses per conformance pass (about 3 s on two workers).
/// Fewer let the seed's draw move a pass's work by more than host noise.
const CONFORMANCE_COUNT: usize = 1500;

/// The `Stats` counters the per-layer metrics read, by name suffix.
pub const COUNTERS: [&str; 11] = [
    "l2_atomics",
    "l2_reads",
    "l2_writes",
    "l2_hits",
    "l2_misses",
    "dram_accesses",
    "dram_queued_cycles",
    "_wakes_issued",
    "syncmon_max_conditions",
    "syncmon_spills",
    "timeout_fires",
];

/// A named set of cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 14 cells, paper scale, bare, serial.
    Fig14Bare,
    /// The same cells oversubscribed (Fig 15), bare, serial.
    Fig15Bare,
    /// The chaos matrix under the invariant oracle and digests, serial.
    ChaosChecked,
    /// The conformance lab on the supervised pool.
    ConformancePool,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig14Bare,
        Workload::Fig15Bare,
        Workload::ChaosChecked,
        Workload::ConformancePool,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig14Bare => "fig14-bare",
            Workload::Fig15Bare => "fig15-bare",
            Workload::ChaosChecked => "chaos-checked",
            Workload::ConformancePool => "conformance-pool",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that fixes what a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which cells.
    pub workload: Workload,
    /// The workload seed: `WorkloadParams::seed`, the chaos fault-plan
    /// seeds and the conformance `gen_seed` all derive from it.
    pub seed: u64,
    /// Quick-scale machine and a handful of cells, for the smoke tests.
    pub tiny: bool,
    /// Swap each cell's expected ending (completion for deadlock and back),
    /// so a correct program fails its cells. Only tests set this.
    pub invert_expectations: bool,
}

impl Config {
    fn scale(&self) -> Scale {
        let mut scale = if self.tiny {
            Scale::quick()
        } else {
            Scale::paper()
        };
        scale.params.seed = self.seed;
        scale
    }
}

/// The event-loop lanes reported per layer. `resource-loss` and
/// `resource-restore` fire at most once per run and are left out.
pub const LANES: [&str; 10] = [
    "response",
    "continue",
    "wake-deliver",
    "wait-timeout",
    "swap-out-done",
    "swap-in-done",
    "dispatch-done",
    "cp-tick",
    "progress-check",
    "fault",
];

/// What one machine's life measured (the CPU time of each public call,
/// the run's simulated statistics, and in a traced pass the machine's hot
/// profile and self-profile), or the sum of such records over a pass.
#[derive(Debug, Clone, Default)]
pub struct SimRecord {
    /// Policy construction, workload build and `kernel()`.
    pub build: Duration,
    /// `Gpu::new` plus the scenario and instrumentation set-up.
    pub new: Duration,
    /// `Gpu::run`.
    pub run: Duration,
    /// Post-condition validation.
    pub validate: Duration,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub insts: u64,
    /// Dynamic atomics.
    pub atomics: u64,
    /// Context switches out.
    pub switches_out: u64,
    /// Context switches in.
    pub switches_in: u64,
    /// Wakes delivered.
    pub resumes: u64,
    /// Wakes whose next check failed again.
    pub unnecessary_resumes: u64,
    /// Digest of every `Stats` counter, in name order (one machine only).
    pub stats_digest: u64,
    /// The [`COUNTERS`] this run's `Stats` hold, each summed over the
    /// counter names that end with it.
    pub counters: [u64; COUNTERS.len()],
    /// Handler wall time (the program's own timing) and event count of
    /// each of the [`LANES`].
    pub lanes: [(Duration, u64); LANES.len()],
    /// Events popped from the calendar.
    pub events_popped: u64,
    /// Events pushed into the calendar.
    pub events_pushed: u64,
    /// Calendar length high-water mark.
    pub calendar_high_water: u64,
    /// Wake-scan passes.
    pub wake_scans: u64,
    /// Wakes those passes carried.
    pub wakes_applied: u64,
    /// Dispatch-scan passes.
    pub dispatch_scans: u64,
    /// Admissions those passes produced.
    pub dispatch_admissions: u64,
    /// The self-profile's `check` subsystem (the oracle sweep).
    pub check: Duration,
}

impl SimRecord {
    /// The value of `COUNTERS` entry `suffix`.
    ///
    /// # Panics
    ///
    /// If `suffix` is not in [`COUNTERS`].
    pub fn counter(&self, suffix: &str) -> u64 {
        let i = COUNTERS.iter().position(|c| *c == suffix);
        self.counters[i.expect("only listed counters are kept")]
    }

    /// Folds `o` into these sums; the two high-water marks keep the larger.
    fn add(&mut self, o: &SimRecord) {
        for (a, b) in [
            (&mut self.build, o.build),
            (&mut self.new, o.new),
            (&mut self.run, o.run),
            (&mut self.validate, o.validate),
            (&mut self.check, o.check),
        ] {
            *a += b;
        }
        for (a, b) in [
            (&mut self.cycles, o.cycles),
            (&mut self.insts, o.insts),
            (&mut self.atomics, o.atomics),
            (&mut self.switches_out, o.switches_out),
            (&mut self.switches_in, o.switches_in),
            (&mut self.resumes, o.resumes),
            (&mut self.unnecessary_resumes, o.unnecessary_resumes),
            (&mut self.events_popped, o.events_popped),
            (&mut self.events_pushed, o.events_pushed),
            (&mut self.wake_scans, o.wake_scans),
            (&mut self.wakes_applied, o.wakes_applied),
            (&mut self.dispatch_scans, o.dispatch_scans),
            (&mut self.dispatch_admissions, o.dispatch_admissions),
        ] {
            *a += b;
        }
        self.calendar_high_water = self.calendar_high_water.max(o.calendar_high_water);
        for ((a, b), name) in self.counters.iter_mut().zip(o.counters).zip(COUNTERS) {
            *a = if name == "syncmon_max_conditions" {
                (*a).max(b)
            } else {
                *a + b
            };
        }
        for (a, b) in self.lanes.iter_mut().zip(o.lanes) {
            *a = (a.0 + b.0, a.1 + b.1);
        }
    }

    /// Digest of this machine's simulated statistics and `ending`.
    fn digest(&self, ending: &[u64]) -> u64 {
        let mut f = Fingerprint64::new();
        for word in [
            self.cycles,
            self.insts,
            self.atomics,
            self.switches_out,
            self.switches_in,
            self.resumes,
            self.unnecessary_resumes,
            self.stats_digest,
        ] {
            f.push(word);
        }
        f.push_seq(ending.iter().copied());
        f.finish()
    }
}

/// One pass over a workload. Its durations are CPU time unless named
/// wall.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// CPU time of the whole pass, summed over every thread of the process.
    pub cpu: Duration,
    /// Litmus generation (conformance only).
    pub generate: Duration,
    /// Every machine's record, summed.
    pub totals: SimRecord,
    /// Each machine's digest of its simulated statistics and ending, in
    /// cell order.
    pub machine_digests: Vec<u64>,
    /// Cells checked against their expectation.
    pub cells: u64,
    /// Why each failing cell failed.
    pub failures: Vec<String>,
    /// Satisfied conformance cells.
    pub sat_cells: u64,
    /// Jobs the pool ran.
    pub jobs: u64,
    /// Sum of the jobs' wall times, as the pool reports them.
    pub job_busy: Duration,
    /// Wall time of the pool (or supervisor) run.
    pub pool_wall: Duration,
    /// Pool workers.
    pub workers: usize,
}

impl Pass {
    /// Digest of every machine's simulated statistics and ending.
    pub fn digest(&self) -> u64 {
        let mut f = Fingerprint64::new();
        f.push_seq(self.machine_digests.iter().copied());
        f.finish()
    }

    /// Folds one machine's record into the totals and the digest.
    fn push(&mut self, rec: &SimRecord, ending: &Ending) {
        self.machine_digests.push(rec.digest(&ending.words()));
        self.totals.add(rec);
    }

    /// Time in workload build and `Gpu::new`, plus litmus generation.
    pub fn setup(&self) -> Duration {
        self.generate + self.totals.build + self.totals.new
    }
}

/// How a simulation ended, as far as expectations care.
#[derive(Debug, Clone)]
struct Ending {
    completed: bool,
    deadlocked: bool,
    validated: Result<(), String>,
    violations: usize,
}

impl Ending {
    fn words(&self) -> [u64; 4] {
        [
            u64::from(self.completed),
            u64::from(self.deadlocked),
            u64::from(self.validated.is_ok()),
            self.violations as u64,
        ]
    }
}

/// The outcome a cell must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Complete with every post-condition (and obligation) holding.
    Complete,
    /// End in declared deadlock.
    Deadlock,
    /// Either deadlock, or complete with a correct final memory.
    Either,
}

impl Expect {
    fn apply(self, cfg: &Config) -> Self {
        match (cfg.invert_expectations, self) {
            (true, Expect::Complete) => Expect::Deadlock,
            (true, Expect::Deadlock) => Expect::Complete,
            (_, e) => e,
        }
    }
}

/// Why `ending` misses `expect`, if it does. The oracle must be silent in
/// every case.
fn miss(expect: Expect, e: &Ending) -> Option<String> {
    if e.violations > 0 {
        return Some(format!("{} invariant violation(s)", e.violations));
    }
    let ok = match expect {
        Expect::Complete => e.completed && e.validated.is_ok(),
        Expect::Deadlock => e.deadlocked,
        Expect::Either => e.deadlocked || (e.completed && e.validated.is_ok()),
    };
    (!ok).then(|| {
        format!(
            "expected {expect:?}, got completed={} deadlocked={} validated={:?}",
            e.completed, e.deadlocked, e.validated
        )
    })
}

/// Runs one pass of `cfg`'s workload. A `traced` pass also turns on each
/// machine's hot profile and self-profile.
pub fn run_pass(cfg: &Config, traced: bool, tr: &Tracer) -> Pass {
    let start = Instant::now();
    let cpu_start = cputime::process();
    let (mut pass, _) = tr.span("pass", None, None, |pass_span| match cfg.workload {
        Workload::Fig14Bare => fig_pass(
            cfg,
            ExperimentConfig::NonOversubscribed,
            traced,
            tr,
            pass_span,
        ),
        Workload::Fig15Bare => {
            fig_pass(cfg, ExperimentConfig::Oversubscribed, traced, tr, pass_span)
        }
        Workload::ChaosChecked => chaos_pass(cfg, traced, tr, pass_span),
        Workload::ConformancePool => conformance_pass(cfg, traced, tr, pass_span),
    });
    pass.cpu = cputime::process() - cpu_start;
    pass.wall = start.elapsed();
    pass
}

/// One machine built from a Table 2 benchmark, as `run::prepare_machine`
/// builds it, with each public call timed.
#[allow(clippy::too_many_arguments)]
fn simulate_benchmark(
    kind: BenchmarkKind,
    policy: PolicyKind,
    scale: &Scale,
    config: ExperimentConfig,
    plan: Option<FaultPlan>,
    checked: bool,
    traced: bool,
    tr: &Tracer,
    parent: u64,
    cell: u64,
) -> (SimRecord, Ending) {
    let (cell_span, cell) = (Some(parent), Some(cell));
    let ((built, kernel, policy_box), build) =
        tr.span("workloads.BenchmarkKind::build", cell_span, cell, |_| {
            let policy_box = build_policy(policy);
            let mut params = scale.params;
            params.iterations = params.iterations.saturating_mul(kind.episode_weight());
            let built = kind.build(&params, policy_box.style());
            let kernel = built.kernel();
            (built, kernel, policy_box)
        });
    let (mut gpu, new) = tr.span("gpu.Gpu::new", cell_span, cell, |_| {
        let mut gpu = Gpu::new(scale.gpu.clone(), kernel, policy_box);
        if config == ExperimentConfig::Oversubscribed {
            gpu.schedule_resource_loss(scale.lost_cu, scale.resource_loss_at);
        }
        if let Some(plan) = plan {
            gpu.install_fault_plan(plan);
        }
        if checked {
            gpu.enable_invariant_oracle();
            gpu.enable_digest_trail(DIGEST_WINDOW);
        }
        instrument(&mut gpu, traced);
        gpu
    });
    let (outcome, run) = tr.span("gpu.Gpu::run", cell_span, cell, |_| gpu.run());
    let (validated, validate) =
        tr.span("workloads.BuiltWorkload::validate", cell_span, cell, |_| {
            built.validate(gpu.backing())
        });
    let ending = Ending {
        completed: outcome.is_completed(),
        deadlocked: outcome.is_deadlocked(),
        validated,
        violations: gpu.violations().len(),
    };
    (record(&outcome, &gpu, build, new, run, validate), ending)
}

fn instrument(gpu: &mut Gpu, traced: bool) {
    if traced {
        gpu.enable_hot_profile();
        gpu.enable_telemetry(TelemetryConfig {
            snapshot_window: None,
            profiling: true,
        });
    }
}

fn record(
    outcome: &RunOutcome,
    gpu: &Gpu,
    build: Duration,
    new: Duration,
    run: Duration,
    validate: Duration,
) -> SimRecord {
    let s = outcome.summary();
    let mut named: Vec<(&str, u64)> = s.stats.counters().collect();
    named.sort_unstable();
    let mut stats_digest = Fingerprint64::new();
    let mut counters = [0; COUNTERS.len()];
    for (name, value) in named {
        stats_digest.push_bytes(name.as_bytes());
        stats_digest.push(value);
        for (sum, suffix) in counters.iter_mut().zip(COUNTERS) {
            if name.ends_with(suffix) {
                *sum += value;
            }
        }
    }
    SimRecord {
        build,
        new,
        run,
        validate,
        cycles: s.cycles,
        insts: s.insts,
        atomics: s.atomics,
        switches_out: s.switches_out,
        switches_in: s.switches_in,
        resumes: s.resumes,
        unnecessary_resumes: s.unnecessary_resumes,
        stats_digest: stats_digest.finish(),
        counters,
        check: gpu
            .profile_report()
            .and_then(|p| p.per_subsystem.into_iter().find(|(n, _, _)| *n == "check"))
            .map_or(Duration::ZERO, |(_, wall, _)| wall),
        ..hot_figures(gpu.hot_report())
    }
}

/// The [`SimRecord`] fields a machine's hot profile fills (zero when it
/// was off).
fn hot_figures(hot: Option<HotReport>) -> SimRecord {
    let Some(h) = hot else {
        return SimRecord::default();
    };
    let lane = |name: &str| {
        h.lanes
            .iter()
            .find(|l| l.name == name)
            .map_or((Duration::ZERO, 0), |l| (l.wall, l.count))
    };
    SimRecord {
        lanes: LANES.map(lane),
        events_popped: h.events_popped,
        events_pushed: h.events_pushed,
        calendar_high_water: h.heap_high_water as u64,
        wake_scans: h.wake_scans,
        wakes_applied: h.wakes_applied,
        dispatch_scans: h.dispatch_scans,
        dispatch_admissions: h.dispatch_admissions,
        ..SimRecord::default()
    }
}

/// The Fig 14 kernels plus the two seeded applications.
fn fig_kernels(tiny: bool) -> Vec<BenchmarkKind> {
    if tiny {
        return vec![BenchmarkKind::SpinMutexGlobal, BenchmarkKind::HashTable];
    }
    let mut kinds = BenchmarkKind::heterosync_suite().to_vec();
    kinds.extend([BenchmarkKind::HashTable, BenchmarkKind::BankAccount]);
    kinds
}

/// Runs serial jobs on the pool, recording the pool-level figures.
fn run_serial<'a, T: Send>(
    pass: &mut Pass,
    tr: &Tracer,
    parent: u64,
    jobs: Vec<pool::Job<'a, T>>,
) -> Vec<pool::JobOutput<T>> {
    let pool = Pool::serial();
    let start = Instant::now();
    let (outputs, _) = tr.span("harness.Pool::run", Some(parent), None, |_| pool.run(jobs));
    note_pool(pass, pool.jobs(), start.elapsed(), &outputs);
    outputs
}

fn note_pool<T>(pass: &mut Pass, workers: usize, wall: Duration, outputs: &[pool::JobOutput<T>]) {
    pass.workers = workers;
    pass.pool_wall = wall;
    pass.jobs = outputs.len() as u64;
    pass.job_busy = outputs.iter().map(|o| o.wall).sum();
}

fn fig_pass(
    cfg: &Config,
    config: ExperimentConfig,
    traced: bool,
    tr: &Tracer,
    pass_span: u64,
) -> Pass {
    let scale = cfg.scale();
    let cells: Vec<(BenchmarkKind, PolicyKind)> = fig_kernels(cfg.tiny)
        .into_iter()
        .flat_map(|k| fig14::POLICIES.map(|p| (k, p)))
        .collect();
    let mut pass = Pass::default();
    let jobs = cells
        .iter()
        .enumerate()
        .map(|(i, &(kind, policy))| {
            let scale = &scale;
            pool::job(format!("{kind}/{}", policy.label()), move || {
                let cell = i as u64;
                tr.span("cell", Some(pass_span), Some(cell), |span| {
                    simulate_benchmark(
                        kind, policy, scale, config, None, false, traced, tr, span, cell,
                    )
                })
                .0
            })
        })
        .collect();
    let outputs = run_serial(&mut pass, tr, pass_span, jobs);
    for (&(kind, policy), out) in cells.iter().zip(outputs) {
        pass.cells += 1;
        let label = format!("{kind}/{}", policy.label());
        let (rec, ending) = match out.result {
            Ok(r) => r,
            Err(e) => {
                pass.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let stranded = config == ExperimentConfig::Oversubscribed
            && matches!(policy, PolicyKind::Baseline | PolicyKind::Sleep);
        let expect = if stranded {
            Expect::Deadlock
        } else {
            Expect::Complete
        };
        if let Some(why) = miss(expect.apply(cfg), &ending) {
            pass.failures.push(format!("{label}: {why}"));
        }
        pass.push(&rec, &ending);
    }
    pass
}

fn chaos_pass(cfg: &Config, traced: bool, tr: &Tracer, pass_span: u64) -> Pass {
    let scale = cfg.scale();
    let fault_seed = SplitMix64::new(cfg.seed).next_u64();
    let pairs: Vec<(BenchmarkKind, PolicyKind)> = chaos::benchmarks()
        .into_iter()
        .flat_map(|k| chaos::policies().map(|p| (k, p)))
        .take(if cfg.tiny { 2 } else { usize::MAX })
        .collect();
    // Per pair: the clean run, then the faulted run.
    let runs: Vec<(BenchmarkKind, PolicyKind, Option<FaultPlan>)> = pairs
        .iter()
        .flat_map(|&(kind, policy)| {
            let plan = chaos::plan_for(policy, &scale, fault_seed);
            [(kind, policy, None), (kind, policy, Some(plan))]
        })
        .collect();
    let mut pass = Pass::default();
    let jobs = runs
        .iter()
        .enumerate()
        .map(|(i, (kind, policy, plan))| {
            let (scale, kind, policy) = (&scale, *kind, *policy);
            let cell = (i / 2) as u64;
            pool::job(format!("chaos/{kind}/{}", policy.label()), move || {
                tr.span("cell", Some(pass_span), Some(cell), |span| {
                    simulate_benchmark(
                        kind,
                        policy,
                        scale,
                        ExperimentConfig::NonOversubscribed,
                        plan.clone(),
                        true,
                        traced,
                        tr,
                        span,
                        cell,
                    )
                })
                .0
            })
        })
        .collect();
    let mut outputs = run_serial(&mut pass, tr, pass_span, jobs).into_iter();
    for &(kind, policy) in &pairs {
        // A cell is one pair: its clean and its faulted run must both
        // complete validated with a silent oracle.
        pass.cells += 1;
        let mut why = None;
        for arm in ["clean", "faulted"] {
            let missed = match outputs.next().expect("one output per run").result {
                Ok((rec, ending)) => {
                    pass.push(&rec, &ending);
                    miss(Expect::Complete.apply(cfg), &ending)
                }
                Err(e) => Some(e.to_string()),
            };
            why = why.or(missed.map(|m| format!("{arm}: {m}")));
        }
        if let Some(why) = why {
            pass.failures.push(format!(
                "chaos/{kind}/{}/seed {fault_seed:#x}: {why}",
                policy.label()
            ));
        }
    }
    pass
}

/// One litmus in a model's test set, as the conformance campaign
/// enumerates them.
#[derive(Clone, Copy)]
enum Case {
    Generated(LitmusSpec),
    Hand(&'static str, LitmusBuilder),
}

impl Case {
    fn name(&self) -> String {
        match self {
            Case::Generated(spec) => spec.name(),
            Case::Hand(name, _) => (*name).to_owned(),
        }
    }

    fn identity(&self) -> String {
        match self {
            Case::Generated(spec) => spec.to_json(),
            Case::Hand(name, _) => format!("hand:{name}"),
        }
    }

    fn adversary_seed(&self) -> u64 {
        match self {
            Case::Generated(spec) => spec.seed,
            Case::Hand(name, _) => {
                let mut f = Fingerprint64::new();
                f.push_bytes(name.as_bytes());
                f.finish()
            }
        }
    }

    fn build(&self, policy: PolicyKind) -> (Litmus, u64) {
        let style = build_policy(policy).style();
        match self {
            Case::Generated(spec) => (spec.build(style), spec.num_wgs),
            Case::Hand(_, builder) => (builder(style), litmus::NUM_WGS),
        }
    }
}

/// The test set of `model`: the hand-written kernels (Fair only), then
/// the anchors and generated specs whose demand is `model`.
fn cases_for(model: ProgressModel, generated: &[LitmusSpec]) -> Vec<Case> {
    let mut cases = Vec::new();
    if model == ProgressModel::Fair {
        cases.extend(litmus::all().map(|(name, builder)| Case::Hand(name, builder)));
    }
    for spec in anchor_specs().into_iter().chain(generated.iter().copied()) {
        if spec.demand() == model {
            cases.push(Case::Generated(spec));
        }
    }
    cases
}

/// Policies the committed matrix classifies Fair: they must satisfy
/// every cell. The others must deadlock or finish with a correct final
/// memory (MonRS-All's lost-wake deadlock is an open defect, so it is
/// among them).
fn fair_policies() -> Vec<String> {
    GOLDEN_MATRIX
        .lines()
        .skip(1)
        .filter_map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            (cols.last() == Some(&"Fair")).then(|| cols[0].to_owned())
        })
        .collect()
}

/// Pool workers for the conformance workload: one per host core.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One conformance cell, as `awg_conformance::run_cell` runs it, with each
/// public call timed.
#[allow(clippy::too_many_arguments)]
fn simulate_litmus(
    policy: PolicyKind,
    model: ProgressModel,
    case: &Case,
    plan: FaultPlan,
    ctl: &JobCtl,
    traced: bool,
    tr: &Tracer,
    parent: u64,
    cell: u64,
) -> (SimRecord, CellOutcome) {
    let (cell_span, cell) = (Some(parent), Some(cell));
    let ((lit, num_wgs), build) = tr.span("conformance.LitmusSpec::build", cell_span, cell, |_| {
        case.build(policy)
    });
    let (mut gpu, new) = tr.span("gpu.Gpu::new", cell_span, cell, |_| {
        let kernel = Kernel::new(lit.program.clone(), num_wgs, WgResources::default());
        let mut gpu = Gpu::new(litmus::lab_gpu_config(), kernel, build_policy(policy));
        gpu.enable_invariant_oracle();
        gpu.enable_trace();
        gpu.set_trace_filter(TraceFilter::Schedule);
        gpu.install_fault_plan(plan);
        gpu.set_watchdog(ctl.watchdog());
        instrument(&mut gpu, traced);
        gpu
    });
    let (outcome, run) = tr.span("gpu.Gpu::run", cell_span, cell, |_| gpu.run());
    let completed = outcome.is_completed();
    let ((post_failures, obligation_ok, notes), validate) =
        tr.span("conformance.check_obligations", cell_span, cell, |_| {
            let mut notes = Vec::new();
            let mut post_failures = 0;
            if completed {
                for &(addr, want) in &lit.finals {
                    let got = gpu.backing().load(addr);
                    if got != want {
                        post_failures += 1;
                        notes.push(format!("post-state {addr:#x}: expected {want}, got {got}"));
                    }
                }
            }
            let report = check_obligations(model, &gpu.trace_records(), num_wgs);
            notes.extend(report.violations.iter().cloned());
            (post_failures, !completed || report.ok(), notes)
        });
    let outcome_summary = CellOutcome {
        completed,
        deadlocked: outcome.is_deadlocked(),
        cancelled: outcome.cancelled(),
        cycles: outcome.summary().cycles,
        switches_out: outcome.summary().switches_out,
        oracle_violations: gpu.violations().len() as u64,
        post_failures,
        obligation_ok,
        notes,
    };
    (
        record(&outcome, &gpu, build, new, run, validate),
        outcome_summary,
    )
}

fn conformance_pass(cfg: &Config, traced: bool, tr: &Tracer, pass_span: u64) -> Pass {
    let scale = cfg.scale();
    let count = if cfg.tiny { 2 } else { CONFORMANCE_COUNT };
    let mut pass = Pass::default();
    let (generated, generate) =
        tr.span("conformance.generate_batch", Some(pass_span), None, |_| {
            generate_batch(cfg.seed, count)
        });
    pass.generate = generate;
    let policies = if cfg.tiny {
        vec![PolicyKind::Baseline, PolicyKind::Awg]
    } else {
        campaign::policies().to_vec()
    };
    let mut cells = Vec::new();
    for &policy in &policies {
        for model in ALL_MODELS {
            for case in cases_for(model, &generated) {
                cells.push((policy, model, case));
            }
        }
    }
    // Jobs fold their records into the totals as they finish, so a pass
    // holds one record, not one per cell, at the program's peak memory.
    let totals = Mutex::new(SimRecord::default());
    let digests: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(0)).collect();
    let sup = Supervisor::bare(Pool::new(workers()));
    let start = Instant::now();
    let (outputs, _) = tr.span("harness.Supervisor::run", Some(pass_span), None, |_| {
        let jobs = cells
            .iter()
            .enumerate()
            .map(|(i, &(policy, model, case))| {
                let key = format!(
                    "conformance/{}/{}/{}",
                    policy.label(),
                    model.label(),
                    case.name()
                );
                let plan = adversary_plan(model, case.adversary_seed());
                let digest = job_digest(&key, &scale, &[&case.identity(), &plan.to_json()]);
                let (totals, digest_slot) = (&totals, &digests[i]);
                sim_job(key, digest, move |ctl: &JobCtl| {
                    let cell = i as u64;
                    let ((rec, outcome), _) =
                        tr.span("cell", Some(pass_span), Some(cell), |span| {
                            simulate_litmus(
                                policy,
                                model,
                                &case,
                                plan.clone(),
                                ctl,
                                traced,
                                tr,
                                span,
                                cell,
                            )
                        });
                    let o = &outcome;
                    let ending = [
                        u64::from(o.completed),
                        u64::from(o.deadlocked),
                        o.post_failures,
                        u64::from(o.obligation_ok),
                        o.oracle_violations,
                    ];
                    // Relaxed: the pool joins its workers before the slot
                    // is read.
                    digest_slot.store(rec.digest(&ending), Ordering::Relaxed);
                    totals
                        .lock()
                        .expect("a job panicked while adding its record")
                        .add(&rec);
                    CellRun { outcome }
                })
            })
            .collect();
        sup.run(jobs)
    });
    note_pool(&mut pass, sup.pool().jobs(), start.elapsed(), &outputs);

    let strict = fair_policies();
    pass.totals = totals
        .into_inner()
        .expect("a job panicked while adding its record");
    for ((&(policy, model, case), out), digest) in cells.iter().zip(outputs).zip(digests) {
        pass.cells += 1;
        let label = format!("{}/{}/{}", policy.label(), model.label(), case.name());
        let o = match out.result {
            Ok(run) => run.outcome,
            Err(e) => {
                pass.failures.push(format!("{label}: {e}"));
                continue;
            }
        };
        let expect = if strict.contains(&policy.label()) {
            Expect::Complete
        } else {
            Expect::Either
        };
        let ending = Ending {
            completed: o.completed,
            deadlocked: o.deadlocked,
            validated: if expect == Expect::Complete && !o.obligation_ok {
                Err("schedule obligation violated".into())
            } else if o.post_failures > 0 {
                Err(format!("{} post-condition failure(s)", o.post_failures))
            } else {
                Ok(())
            },
            violations: o.oracle_violations as usize,
        };
        if let Some(why) = miss(expect.apply(cfg), &ending) {
            pass.failures.push(format!("{label}: {why}"));
        }
        pass.sat_cells += u64::from(o.sat());
        pass.machine_digests.push(digest.into_inner());
    }
    pass
}

/// The program's own conformance campaign at the default generator seed
/// and count, compared with the committed matrix. Returns the
/// differences (empty when they agree).
pub fn golden_conformance(tr: &Tracer) -> Vec<String> {
    let (out, _) = tr.span("harness.conformance::run_supervised", None, None, |_| {
        campaign::run_supervised(
            &Scale::paper(),
            &ConformanceConfig::default(),
            &Supervisor::bare(Pool::new(workers())),
        )
    });
    let mut diffs = out.matrix.diff_against(GOLDEN_MATRIX);
    if out.failures > 0 {
        diffs.push(format!("{} campaign failure(s)", out.failures));
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fig14"), None);
    }

    #[test]
    fn golden_matrix_names_the_fair_policies() {
        let fair = fair_policies();
        assert!(fair.contains(&"AWG".to_owned()), "{fair:?}");
        assert!(!fair.contains(&"MonRS-All".to_owned()), "{fair:?}");
        assert!(!fair.contains(&"Baseline".to_owned()), "{fair:?}");
    }
}
