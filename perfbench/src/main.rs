//! Runs one workload of the benchmark and prints its result.
//!
//! ```text
//! awg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! The last line of standard output is the result object:
//! `{"correct", "attempted", "failed", "metrics"}`. A traced run also
//! writes its spans to `out/spans-<workload>.json` beside this crate.

use std::process::ExitCode;

use awg_perfbench::workload::{Config, Workload};

const USAGE: &str =
    "usage: awg-perfbench --workload <fig14-bare|fig15-bare|chaos-checked|conformance-pool> \
--seed <n> --seconds <s> --trace <0|1> [--tiny]";

struct Args {
    cfg: Config,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("expected 0 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing {name}");
    Ok(Args {
        cfg: Config {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            tiny,
            invert_expectations: false,
        },
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = awg_perfbench::run(&args.cfg, args.seconds, args.trace);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "fail_frac {} ratio ({} of {} cells)",
        outcome.fail_frac(),
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        let path = awg_perfbench::spans_path(args.cfg.workload);
        if let Err(e) = awg_perfbench::trace::write_json(&outcome.spans, &path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "{} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
