//! Tiny-size runs of every workload through the real binary, checked
//! against the metric names and units `BENCHMARK.json` declares, plus the
//! checks that must make a run fail.

use std::process::Command;

use awg_perfbench::trace::Tracer;
use awg_perfbench::workload::{run_pass, Config, Workload};
use awg_sim::json::{self, Value};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let Some(Value::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no array `{section}`")
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn tiny_run(workload: Workload, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_awg-perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "1",
            "--seconds",
            "0",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload:?} exited {:?}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    (stdout, result)
}

fn check_run(workload: Workload, trace: bool, section: &str) {
    let (stdout, result) = tiny_run(workload, trace);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{stdout}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "{stdout}"
    );
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        panic!("no metrics object: {stdout}")
    };
    let want = declared(section);
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload:?} prints exactly the declared metrics"
    );
    for (name, unit) in want {
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(&name))
            .unwrap_or_else(|| panic!("{workload:?} lacks {name}:\n{stdout}"));
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        assert!(
            m.get("value").and_then(Value::as_f64).is_some(),
            "{name} has no value"
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
            "{name} is not printed with its unit:\n{stdout}"
        );
    }
    assert!(stdout.contains("fail_frac 0 ratio"), "{stdout}");
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in Workload::ALL {
        check_run(w, false, "end_to_end");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in Workload::ALL {
        check_run(w, true, "per_layer");
    }
}

#[test]
fn inverted_expectations_drive_fail_frac_above_zero() {
    for workload in Workload::ALL {
        let cfg = Config {
            workload,
            seed: 1,
            tiny: true,
            invert_expectations: true,
        };
        let outcome = awg_perfbench::run(&cfg, 0.0, false);
        assert!(!outcome.correct, "{workload:?}");
        assert!(
            outcome.fail_frac() > 0.0,
            "{workload:?}: {:?}",
            outcome.notes
        );
    }
}

#[test]
fn the_seed_reaches_the_seeded_applications_and_not_the_heterosync_kernels() {
    let pass = |workload, seed| {
        let cfg = Config {
            workload,
            seed,
            tiny: true,
            invert_expectations: false,
        };
        run_pass(&cfg, false, &Tracer::new(false))
    };
    // Tiny fig14 runs SPM_G then HT, six policies each.
    let (a, b) = (pass(Workload::Fig14Bare, 1), pass(Workload::Fig14Bare, 2));
    let (da, db) = (&a.machine_digests, &b.machine_digests);
    assert_eq!(da.len(), 12);
    assert_eq!(da[..6], db[..6], "SPM_G does not depend on the seed");
    assert_ne!(da[6..], db[6..], "HT's keys follow the seed");
    assert_ne!(a.digest(), b.digest());
    assert_eq!(a.digest(), pass(Workload::Fig14Bare, 1).digest());
    for w in [Workload::ChaosChecked, Workload::ConformancePool] {
        assert_ne!(pass(w, 1).digest(), pass(w, 2).digest(), "{w:?}");
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "fig14-bare"][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fig14-bare",
            "--seed",
            "-1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "fig14-bare",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_awg-perfbench"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
