//! Command line of the benchmark. Two ways in:
//!
//! * no `--workload`: the full ledger — every workload, round by round,
//!   printed by name with units, `result.json` and traces written;
//! * `--workload W --seed N --seconds S --trace 0|1`: one workload for a
//!   fixed time, the result as one JSON object on the last stdout line.

use benchmark::ledger::{self, OutDir, FULL_ROUNDS, QUICK_ROUNDS};
use benchmark::product::exitcode;
use benchmark::report;
use benchmark::workloads::{Kind, Sizes};
use std::path::PathBuf;

const USAGE: &str = "\
usage: benchmark [--seed N] [--quick] [--selfcheck] [--record GIT_REV] [--out DIR]
       benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]

  --seed N         derive every scenario, population, fault and campaign seed from N (default 1)
  --quick          3 rounds at a quarter of the sizes
  --selfcheck      run two complete sets and fail if an end-to-end metric differs by more than its bound
  --record REV     append one line (REV, seed, nproc, every end-to-end value) to benchmark/history.jsonl
  --out DIR        where result.json, traces and scratch files go (default benchmark/out)
  --workload NAME  measure one workload: campaign_grid many_flows small_pkt_bulk lossy_mix observed_mix paper_figures
  --seconds S      how long to measure it
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes";

struct Args {
    seed: u64,
    quick: bool,
    selfcheck: bool,
    record: Option<String>,
    out: PathBuf,
    workload: Option<Kind>,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        quick: false,
        selfcheck: false,
        record: None,
        out: PathBuf::from("benchmark/out"),
        workload: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--record" => args.record = Some(value()?.to_string()),
            "--out" => args.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let out = OutDir(args.out.clone());
    if let Some(kind) = args.workload {
        let outcome = ledger::run_driver(kind, args.seed, args.seconds, args.trace, &sizes, &out)?;
        for check in &outcome.failed_checks {
            eprintln!("CHECK FAILED: {} — {}", check.name, check.detail);
        }
        println!(
            "{}",
            report::driver_line(outcome.attempted, outcome.failed, &outcome.metrics)
        );
        return Ok(outcome.failed == 0);
    }

    let rounds = if args.quick {
        QUICK_ROUNDS
    } else {
        FULL_ROUNDS
    };
    let result = ledger::run_set(args.seed, &sizes, rounds, &out)?;
    print!("{}", result.render());
    result.save(&out.0.join("result.json"))?;
    let mut ok = result.ok;
    if args.selfcheck {
        let second = ledger::run_set(args.seed, &sizes, rounds, &out)?;
        second.save(&out.0.join("result_second_set.json"))?;
        ok &= second.ok;
        println!("\nselfcheck: second set against the first");
        for d in ledger::compare_sets(&result, &second) {
            let verdict = if d.diff <= d.bound {
                "ok"
            } else {
                "EXCEEDS BOUND"
            };
            println!(
                "  {:<16} {:<12} differs {:>6.2}%  bound {:>3.0}%  {verdict}",
                d.workload,
                d.metric,
                d.diff * 100.0,
                d.bound * 100.0
            );
            ok &= d.diff <= d.bound;
        }
    }
    if let Some(rev) = &args.record {
        let path = std::path::Path::new("benchmark/history.jsonl");
        report::append_history(path, &result.history_row(rev))?;
    }
    Ok(ok)
}

/// The process exit status for a finished run: a failed check or
/// operation is as fatal as a crash of the benchmark itself.
fn exit_code(outcome: &Result<bool, String>) -> i32 {
    match outcome {
        Ok(true) => exitcode::OK,
        Ok(false) | Err(_) => exitcode::FAILURE,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(exitcode::USAGE);
        }
    };
    let outcome = run(&args);
    if let Err(e) = &outcome {
        eprintln!("benchmark failed: {e}");
    }
    std::process::exit(exit_code(&outcome));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_exits_non_zero() {
        assert_eq!(exit_code(&Ok(true)), 0);
        assert_ne!(exit_code(&Ok(false)), 0);
        assert_ne!(exit_code(&Err("boom".to_string())), 0);
    }

    #[test]
    fn driver_arguments_parse_and_bad_ones_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let args = parse(&argv(
            "--workload lossy_mix --seed 9 --seconds 2.5 --trace 1",
        ))
        .expect("the driver's invocation parses");
        assert_eq!(args.workload, Some(Kind::LossyMix));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        for bad in [
            "--workload nope",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }
}
