//! Benchmark of three `qfe` paths, each a named workload:
//!
//! - `net-mixed`: mixed AND/OR queries served over the TCP front door;
//! - `plan-job`: join-order planning through a cached, hot-swapped
//!   estimator;
//! - `retrain-drift`: the adaptation loop recovering from query drift.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload net-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs are generated from `--seed`. A run measures for `--seconds`,
//! checks the program's outputs, prints every metric as text and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! load untraced for the first half and traced for the second half and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod common;
mod net;
mod plan;
mod retrain;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use common::{Args, POOL_WIDTH};

const USAGE: &str = "usage: perfbench --workload <net-mixed|plan-job|retrain-drift> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["net-mixed", "plan-job", "retrain-drift"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Fix the width of the program's parallel pool before anything
    // builds it, so no figure depends on the machine's core count.
    std::env::set_var("QFE_THREADS", POOL_WIDTH.to_string());
    let width = qfe::core::parallel::global().threads();
    if width != POOL_WIDTH {
        eprintln!("perfbench: pool width is {width}, expected {POOL_WIDTH}");
        return ExitCode::from(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "workload {} | seed {} | {} s | trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "pool width {width} (QFE_THREADS, fixed by the benchmark) | available_parallelism {cores}"
    );
    let mut report = match args.workload.as_str() {
        "net-mixed" => net::run(&args, started),
        "plan-job" => plan::run(&args, started),
        _ => retrain::run(&args, started),
    };
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
