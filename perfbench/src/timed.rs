//! The end-to-end run: set up, compute the serial reference off the
//! clock, then repeat the workload's product path for the requested time
//! and report medians.

use std::time::{Duration, Instant};

use memories::SdramModel;

use crate::calibrate::Calibrator;
use crate::gate::Fingerprint;
use crate::inputs::{BenchResult, Input, Kind, Sizes, Traffic, PARALLELISM};
use crate::report::{median, peak_rss_mb, Metric, Outcome};

/// Set-ups per run at least; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Cheap set-ups repeat until this much time has gone into them (at most
/// [`SETUP_MAX`] times), so a set-up of milliseconds still yields a
/// steady median.
pub const SETUP_SECONDS: f64 = 1.0;
/// Upper limit on set-ups per run.
pub const SETUP_MAX: usize = 100;
/// Timed product-path runs at least, however short `--seconds` is.
pub const MIN_RUNS: usize = 3;

/// Builds the input and its session repeatedly, returning the last input
/// and the median set-up time in reference seconds (the host slowdown is
/// calibrated before and after the whole batch).
///
/// # Errors
///
/// Input or session construction failures.
pub fn setup(
    kind: Kind,
    seed: u64,
    sizes: Sizes,
    cal: &mut Calibrator,
) -> BenchResult<(Input, f64)> {
    let before = cal.slowdown();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < SETUP_MAX)
    {
        let start = Instant::now();
        let input = Input::build(kind, seed, sizes)?;
        drop(input.session(PARALLELISM, kind.samples())?);
        times.push(start.elapsed().as_secs_f64());
        last = Some(input);
    }
    let slowdown = (before + cal.slowdown()) / 2.0;
    let input = last.expect("at least one set-up runs");
    Ok((input, median(&times) / slowdown))
}

/// Runs `kind` for `seed`: one untimed warm-up run, then product-path
/// runs until `seconds` have passed (and at least [`MIN_RUNS`]). Every
/// run is gated against the serial reference; a run that errs or
/// mismatches counts as failed, never as a slow run.
///
/// # Errors
///
/// Set-up or reference failures, a reference that misses its workload's
/// floors, or no run passing the gate.
pub fn run(kind: Kind, seed: u64, seconds: f64, sizes: Sizes) -> BenchResult<Outcome> {
    let mut cal = Calibrator::new();
    let (input, setup_s) = setup(kind, seed, sizes, &mut cal)?;
    let reference = input.serial()?.board;
    Traffic::of(&reference).check_floors(kind)?;
    let reference = Fingerprint::of(&reference);

    let sdram = SdramModel::table3_default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rates = Vec::new();
    let mut realtime = Vec::new();
    let mut raw_rates = Vec::new();
    let mut slowdowns = Vec::new();
    let mut units = 0;
    let mut peak_rss = None;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        if Instant::now() >= deadline
            && (rates.len() >= MIN_RUNS || attempted > 2 * MIN_RUNS as u64)
        {
            break;
        }
        attempted += 1;
        let before = cal.slowdown();
        let result = input.run(PARALLELISM, kind.samples());
        let slowdown = (before + cal.slowdown()) / 2.0;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                eprintln!("{}: run {attempted} failed: {e}", kind.name());
                failed += 1;
                continue;
            }
        };
        if let Some(why) = reference.mismatch(&Fingerprint::of(&run.board)) {
            eprintln!("{}: run {attempted} failed the gate: {why}", kind.name());
            failed += 1;
            continue;
        }
        // The peak resident set is read after the first passing run:
        // later repetitions only add to it as the allocator's per-thread
        // arenas retain freed memory, in an order that varies run to run.
        peak_rss.get_or_insert_with(peak_rss_mb);
        // The first run is gated but not timed: it warms the allocator
        // and page tables.
        if attempted > 1 {
            let reference_secs = run.secs / slowdown;
            units = run.units;
            rates.push(run.units as f64 / reference_secs);
            realtime.push(sdram.seconds_for(run.board.global().transactions()) / reference_secs);
            raw_rates.push(run.units as f64 / run.secs);
            slowdowns.push(slowdown);
        }
    }
    if rates.is_empty() {
        return Err(format!("{}: no timed run passed the correctness gate", kind.name()).into());
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("units_per_s", median(&rates), "1/s"),
            Metric::new("realtime_ratio", median(&realtime), "ratio"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("peak_rss_mb", peak_rss.unwrap_or_else(peak_rss_mb), "MB"),
        ],
        notes: vec![
            format!(
                "timed {} runs of {units} {} each; units_per_s min {:.0} median {:.0} max {:.0}",
                rates.len(),
                kind.unit_name(),
                rates.iter().copied().fold(f64::INFINITY, f64::min),
                median(&rates),
                rates.iter().copied().fold(0.0, f64::max),
            ),
            format!(
                "host slowdown against the reference: median {:.3} (min {:.3}, max {:.3}); uncalibrated units_per_s median {:.0}",
                median(&slowdowns),
                slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
                slowdowns.iter().copied().fold(0.0, f64::max),
                median(&raw_rates),
            ),
        ],
    })
}
