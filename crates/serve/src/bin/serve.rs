//! The batch-server binary.
//!
//! Usage:
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--job-threads N]
//!       [--cache-bytes N] [--cache-circuits N] [--job-history FILE]
//!       [--job-trace-dir DIR]
//!       [--trace FILE] [--metrics-json FILE] [--profile FILE]
//!       [--profile-hz N] [--history FILE] [--log LEVEL]
//! ```
//!
//! Binds (default `127.0.0.1:4715`), prints `listening on <addr>`, and
//! serves until a client sends a `Shutdown` frame (`atspeedctl
//! shutdown`). `--job-threads` sets the default `SimConfig` for jobs
//! that don't override it; `--job-history` appends one
//! run-history record per computed job; `--job-trace-dir` writes one
//! Chrome trace per computed job. The shared `--trace`/`--history`/…
//! telemetry flags cover the server process itself.

use std::path::PathBuf;
use std::process::ExitCode;

use atspeed_bench::telemetry::TelemetryArgs;
use atspeed_serve::{ServeConfig, Server};
use atspeed_sim::SimConfig;

struct Args {
    serve: ServeConfig,
    telemetry: TelemetryArgs,
}

/// A thread count given to `flag`: 1 to [`atspeed_sim::MAX_THREADS`].
fn thread_count(flag: &str, v: &str) -> Result<usize, String> {
    match SimConfig::parse_threads(flag, v)? {
        0 => Err(format!("bad {flag} `{v}` (expected at least 1)")),
        n => Ok(n),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        serve: ServeConfig {
            addr: "127.0.0.1:4715".to_owned(),
            ..ServeConfig::default()
        },
        telemetry: TelemetryArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.telemetry.consume(a.as_str(), &mut it)? {
            continue;
        }
        match a.as_str() {
            "--addr" => {
                args.serve.addr = it.next().ok_or("--addr needs host:port")?;
            }
            "--workers" => {
                let v = it.next().ok_or("--workers needs a count")?;
                args.serve.workers = thread_count("--workers", &v)?;
            }
            "--job-threads" => {
                let v = it.next().ok_or("--job-threads needs a count")?;
                args.serve.job_sim.threads = thread_count("--job-threads", &v)?;
            }
            "--cache-bytes" => {
                let v = it.next().ok_or("--cache-bytes needs a byte count")?;
                args.serve.budget.max_result_bytes =
                    v.parse().map_err(|_| format!("bad byte count `{v}`"))?;
            }
            "--cache-circuits" => {
                let v = it.next().ok_or("--cache-circuits needs a count")?;
                args.serve.budget.max_circuits =
                    v.parse().map_err(|_| format!("bad circuit count `{v}`"))?;
            }
            "--job-history" => {
                args.serve.history = Some(PathBuf::from(
                    it.next().ok_or("--job-history needs a path")?,
                ));
            }
            "--job-trace-dir" => {
                args.serve.trace_dir = Some(PathBuf::from(
                    it.next().ok_or("--job-trace-dir needs a directory")?,
                ));
            }
            "--help" | "-h" => {
                return Err(
                    "usage: serve [--addr HOST:PORT] [--workers N] [--job-threads N] \
                     [--cache-bytes N] [--cache-circuits N] \
                     [--job-history FILE] [--job-trace-dir DIR] [--trace FILE] \
                     [--metrics-json FILE] [--profile FILE] [--profile-hz N] \
                     [--history FILE] [--log LEVEL]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Honor SIM_THREADS as the baseline (with the strict parser: a typo
    // should stop the server at startup, not silently run every job
    // serially).
    match SimConfig::try_from_env() {
        Ok(env) => {
            if args.serve.job_sim == SimConfig::default() {
                args.serve.job_sim = env;
            }
        }
        Err(e) => {
            eprintln!("bad simulation environment: {e}");
            return ExitCode::FAILURE;
        }
    }
    args.telemetry.init();
    let job_threads = args.serve.job_sim.effective_threads(usize::MAX);
    let server = match Server::start(args.serve) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.addr());
    server.wait();
    let report = atspeed_sim::stats::report();
    if let Err(e) = args.telemetry.write_outputs(&report, Some(job_threads)) {
        eprintln!("failed to write telemetry output: {e}");
        return ExitCode::FAILURE;
    }
    println!("stopped");
    ExitCode::SUCCESS
}
