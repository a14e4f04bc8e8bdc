//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <live-oltp|stream-shared|replay-dss> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the stamp, notes and every metric by name and unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use std::process::ExitCode;

use perfbench::inputs::{BenchResult, Kind, Sizes, PARALLELISM};
use perfbench::report::{stamp, Outcome};
use perfbench::{timed, traced};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> BenchResult<Args> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}").into()),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}").into()),
        }
    }
    let seconds = seconds.unwrap_or(25.0);
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600").into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> BenchResult<Outcome> {
    if args.trace {
        traced::run(args.kind, args.seed, args.seconds, Sizes::FULL, PARALLELISM)
    } else {
        timed::run(args.kind, args.seed, args.seconds, Sizes::FULL)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(args.kind, args.seed, PARALLELISM, args.trace));
    match run(&args) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("{note}");
            }
            println!("error_rate: {}", outcome.error_rate());
            for m in &outcome.metrics {
                println!("{}: {} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.kind.name());
            ExitCode::FAILURE
        }
    }
}
