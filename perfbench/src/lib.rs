//! The AWG simulator's benchmark: end-to-end metrics from untraced
//! passes, per-layer metrics from traced ones, every call into the
//! simulator's crates timed from outside in CPU time. End-to-end times
//! are scaled to a reference host speed by a probe run around each pass. See `README.md` beside this
//! crate for the workloads and what each metric should move.

pub mod calib;
pub mod cputime;
pub mod stats;
pub mod trace;
pub mod workload;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::trace::{Span, Tracer};
use crate::workload::{Config, Pass, Workload, LANES};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Units of the metrics that count simulated work; they must read the
/// same in every traced pass.
const EXACT_UNITS: [&str; 2] = ["count", "cycles"];

/// What a whole run reports.
#[derive(Debug)]
pub struct Outcome {
    /// No cell missed its expectation and every digest repeated.
    pub correct: bool,
    /// Cells checked, over every pass.
    pub attempted: u64,
    /// Cells that missed their expectation, over every pass.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable lines: passes, the digest, the failures.
    pub notes: Vec<String>,
    /// The spans of the first traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object the benchmark prints as its last line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Cells checked and failed over a run, with the first failures named.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    examples: Vec<String>,
}

impl Tally {
    fn add(&mut self, cells: u64, failures: &[String]) {
        self.attempted += cells;
        self.failed += failures.len() as u64;
        // A failing cell fails in every pass; name the first few once.
        if self.examples.is_empty() {
            self.examples.extend(failures.iter().take(5).cloned());
        }
    }
}

/// The figures kept from one pass once its records are dropped.
#[derive(Debug)]
struct Figures {
    wall: Duration,
    cpu: Duration,
    /// Reference-host seconds per host CPU second around an untraced pass.
    scale: f64,
    digest: u64,
    /// End-to-end metrics of an untraced pass, per-layer ones of a traced.
    metrics: Vec<Metric>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of one pass, its host times multiplied by
/// `scale` (see [`calib`]), but for the process-wide `peak_rss_mb`.
fn end_to_end(pass: &Pass, scale: f64) -> Vec<Metric> {
    let t = &pass.totals;
    let mcycles_per_s = ratio(t.cycles as f64, secs(t.run) * scale) / 1e6;
    vec![
        metric("cpu_s", secs(pass.cpu) * scale, "s"),
        metric("sim_mcycles_per_s", mcycles_per_s, "Mcycles/s"),
        metric("setup_s", secs(pass.setup()) * scale, "s"),
    ]
}

/// Each metric's median over `figures`.
fn medians(figures: &[Figures]) -> Vec<Metric> {
    figures[0]
        .metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = figures.iter().map(|f| f.metrics[i].value).collect();
            metric(
                m.name.clone(),
                stats::median(&values).unwrap_or(0.0),
                m.unit,
            )
        })
        .collect()
}

/// The per-layer metrics of one traced pass, named after the crates.
fn layers(workload: Workload, pass: &Pass) -> Vec<Metric> {
    let t = &pass.totals;
    let count = |n: u64| n as f64;
    let per = |d: Duration, n: u64| ratio(d.as_nanos() as f64, n as f64);
    let mut m = vec![
        metric("workloads.build_ms", ms(t.build), "ms"),
        metric("workloads.validate_ms", ms(t.validate), "ms"),
        metric("gpu.new_ms", ms(t.new), "ms"),
        metric("gpu.run_ms", ms(t.run), "ms"),
    ];
    for (lane, (wall, n)) in LANES.iter().zip(t.lanes) {
        m.push(metric(format!("gpu.lane.{lane}_ms"), ms(wall), "ms"));
        m.push(metric(format!("gpu.lane.{lane}_n"), count(n), "count"));
    }
    let (hits, misses) = (t.counter("l2_hits"), t.counter("l2_misses"));
    let admissions_per_scan = ratio(count(t.dispatch_admissions), count(t.dispatch_scans));
    let wasted = ratio(count(t.unnecessary_resumes), count(t.resumes));
    m.extend([
        metric("gpu.dispatch_scans", count(t.dispatch_scans), "count"),
        metric(
            "gpu.dispatch_admissions",
            count(t.dispatch_admissions),
            "count",
        ),
        metric("gpu.dispatch_yield", admissions_per_scan, "ratio"),
        metric("gpu.wake_scans", count(t.wake_scans), "count"),
        metric("gpu.wakes_applied", count(t.wakes_applied), "count"),
        metric("gpu.switches_out", count(t.switches_out), "count"),
        metric("gpu.switches_in", count(t.switches_in), "count"),
        metric("gpu.check_ms", ms(t.check), "ms"),
        metric("sim.events_popped", count(t.events_popped), "count"),
        metric("sim.events_pushed", count(t.events_pushed), "count"),
        metric(
            "sim.calendar_high_water",
            count(t.calendar_high_water),
            "count",
        ),
        metric("sim.sim_cycles", count(t.cycles), "cycles"),
        metric("sim.ns_per_event", per(t.run, t.events_popped), "ns"),
        metric("isa.insts", count(t.insts), "count"),
        metric("isa.atomics", count(t.atomics), "count"),
        metric("isa.ns_per_inst", per(t.run, t.insts), "ns"),
        metric("mem.l2_atomics", count(t.counter("l2_atomics")), "count"),
        metric("mem.l2_reads", count(t.counter("l2_reads")), "count"),
        metric("mem.l2_writes", count(t.counter("l2_writes")), "count"),
        metric(
            "mem.l2_hit_ratio",
            ratio(count(hits), count(hits + misses)),
            "ratio",
        ),
        metric(
            "mem.dram_accesses",
            count(t.counter("dram_accesses")),
            "count",
        ),
        metric(
            "mem.dram_queued_cycles",
            count(t.counter("dram_queued_cycles")),
            "cycles",
        ),
        metric("core.resumes", count(t.resumes), "count"),
        metric("core.useful_resume_ratio", 1.0 - wasted, "ratio"),
        metric(
            "core.wakes_issued",
            count(t.counter("_wakes_issued")),
            "count",
        ),
        metric(
            "core.syncmon_max_conditions",
            count(t.counter("syncmon_max_conditions")),
            "count",
        ),
        metric(
            "core.syncmon_spills",
            count(t.counter("syncmon_spills")),
            "count",
        ),
        metric(
            "core.timeout_fires",
            count(t.counter("timeout_fires")),
            "count",
        ),
        metric("conformance.generate_ms", ms(pass.generate), "ms"),
        metric(
            "conformance.cells",
            if workload == Workload::ConformancePool {
                count(pass.cells)
            } else {
                0.0
            },
            "count",
        ),
        metric("conformance.sat_cells", count(pass.sat_cells), "count"),
        metric("harness.jobs", count(pass.jobs), "count"),
        metric("harness.job_busy_ms", ms(pass.job_busy), "ms"),
        metric("harness.pool_wall_ms", ms(pass.pool_wall), "ms"),
        metric(
            "harness.pool_efficiency",
            ratio(
                secs(pass.job_busy),
                secs(pass.pool_wall) * pass.workers as f64,
            ),
            "ratio",
        ),
    ]);
    m
}

/// Runs `cfg` for about `seconds`: a warm-up pass, then untraced passes
/// (and, when `traced`, a traced pass after each) until the time is up.
pub fn run(cfg: &Config, seconds: f64, traced: bool) -> Outcome {
    let silent = Tracer::new(false);
    let recorder = Tracer::new(true);
    let mut tally = Tally::default();
    let warm = workload::run_pass(cfg, false, &silent);
    tally.add(warm.cells, &warm.failures);
    let reference = warm.digest();
    drop(warm);
    // The memory one pass needs. Read before the timed passes: over
    // repeated passes on two workers the allocator's footprint keeps
    // creeping up, so a later reading would depend on the run's length.
    let peak_rss = peak_rss_mb();
    if cfg.workload == Workload::ConformancePool {
        let diffs = workload::golden_conformance(if traced { &recorder } else { &silent });
        let failures: Vec<String> = (!diffs.is_empty())
            .then(|| format!("golden matrix: {}", diffs.join("; ")))
            .into_iter()
            .collect();
        tally.add(1, &failures);
    }

    let mut bare = Vec::new();
    let mut probed: Vec<Figures> = Vec::new();
    let start = Instant::now();
    loop {
        let passes: &[(bool, &Tracer)] = if traced {
            &[(false, &silent), (true, &recorder)]
        } else {
            &[(false, &silent)]
        };
        for &(traced_pass, tr) in passes {
            // Spans of later traced passes repeat the first's; record them
            // the same way, then drop them.
            let discard = Tracer::new(true);
            let tr = if traced_pass && !probed.is_empty() {
                &discard
            } else {
                tr
            };
            let before = (!traced_pass).then(calib::probe);
            let pass = workload::run_pass(cfg, traced_pass, tr);
            let scale = before.map_or(1.0, |b| calib::scale(b, calib::probe()));
            tally.add(pass.cells, &pass.failures);
            let figures = Figures {
                wall: pass.wall,
                cpu: pass.cpu,
                scale,
                digest: pass.digest(),
                metrics: if traced_pass {
                    layers(cfg.workload, &pass)
                } else {
                    end_to_end(&pass, scale)
                },
            };
            if traced_pass {
                probed.push(figures);
            } else {
                bare.push(figures);
            }
        }
        if secs(start.elapsed()) >= seconds {
            break;
        }
    }

    let mut problems = Vec::new();
    if let Some(f) = bare.iter().find(|f| f.digest != reference) {
        problems.push(format!(
            "digest {:#018x} of an untraced pass differs from the warm-up's {reference:#018x}",
            f.digest
        ));
    }
    if let Some(first) = probed.first() {
        if let Some(f) = probed.iter().find(|f| f.digest != first.digest) {
            problems.push(format!(
                "digest {:#018x} of a traced pass differs from the first traced pass's {:#018x}",
                f.digest, first.digest
            ));
        }
        for (i, m) in first.metrics.iter().enumerate() {
            if EXACT_UNITS.contains(&m.unit) && probed.iter().any(|f| f.metrics[i].value != m.value)
            {
                problems.push(format!("{} differs between traced passes", m.name));
            }
        }
    }
    if peak_rss.is_none() {
        problems.push("cannot read VmHWM from /proc/self/status".to_owned());
    }
    let mut notes: Vec<String> = tally
        .examples
        .iter()
        .map(|f| format!("cell failed: {f}"))
        .collect();
    notes.push(format!(
        "{} seed {}: {} untraced and {} traced pass(es), digest {reference:#018x}",
        cfg.workload.name(),
        cfg.seed,
        bare.len(),
        probed.len()
    ));
    notes.extend(problems.iter().map(|p| format!("problem: {p}")));
    for (label, figs) in [("untraced", &bare), ("traced", &probed)] {
        let walls: Vec<f64> = figs.iter().map(|f| secs(f.wall)).collect();
        let cpus: Vec<f64> = figs.iter().map(|f| secs(f.cpu)).collect();
        for (clock, times) in [("wall", walls), ("cpu", cpus)] {
            if let Some([q1, q2, q3]) = stats::quartiles(&times) {
                let (lo, hi) = times
                    .iter()
                    .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
                notes.push(format!(
                    "{label} pass {clock} (s): min {lo:.4} q1 {q1:.4} median {q2:.4} q3 {q3:.4} max {hi:.4}"
                ));
            }
        }
    }
    if let Some(end) = peak_rss_mb() {
        notes.push(format!("peak RSS at the end of the run: {end:.2} MB"));
    }
    let scales: Vec<f64> = bare.iter().map(|f| f.scale).collect();
    if let Some([q1, q2, q3]) = stats::quartiles(&scales) {
        notes.push(format!(
            "host speed against the reference (probe): q1 {q1:.4} median {q2:.4} q3 {q3:.4}"
        ));
    }

    let metrics = if traced {
        let cpu = |figs: &[Figures]| {
            let times: Vec<f64> = figs.iter().map(|f| secs(f.cpu)).collect();
            stats::median(&times).unwrap_or(0.0)
        };
        let mut metrics = medians(&probed);
        let overhead = ratio(cpu(&probed), cpu(&bare));
        metrics.push(metric("trace.overhead_x", overhead, "x"));
        metrics
    } else {
        let mut metrics = medians(&bare);
        metrics.push(metric("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"));
        metrics
    };
    Outcome {
        correct: tally.failed == 0 && problems.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
        spans: recorder.into_spans(),
    }
}

/// The process's resident-memory high-water mark, from `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where a traced run of `workload` writes its spans.
pub fn spans_path(workload: Workload) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.json", workload.name()))
}
