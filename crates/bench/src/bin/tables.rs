//! Regenerates the paper's Tables 1–5 over the benchmark catalog.
//!
//! Usage:
//!
//! ```text
//! tables [--table N] [--circuits a,b,c] [--quick] [--verify] [--no-parallel]
//!        [--sim-threads N] [--csv FILE]
//!        [--trace FILE] [--metrics-json FILE] [--profile FILE]
//!        [--profile-hz N] [--history FILE] [--log LEVEL]
//! ```
//!
//! Without `--table`, all five tables print. `--circuits` filters by name
//! (comma-separated); `--quick` uses reduced effort for smoke runs.
//! `--verify` runs the end-to-end coverage oracle inside every pipeline:
//! the final test sets are independently re-fault-simulated and the run
//! exits nonzero if any phase's coverage claim does not hold.
//!
//! Telemetry: `--trace FILE` records hierarchical spans for the whole run
//! and writes Chrome trace-event JSON (open at <https://ui.perfetto.dev>);
//! `--metrics-json FILE` dumps every counter/gauge/histogram plus derived
//! headline figures; `--profile FILE` samples the live span stacks
//! (`--profile-hz N`, default 250) and writes collapsed stacks loadable in
//! speedscope or inferno; `--log LEVEL` filters the structured JSONL run
//! log (default `info`). Any telemetry-enabled run appends one run-history
//! record to `target/bench-history.jsonl` (`--history FILE` overrides).
//! Feed the outputs to the `report` binary for a self-contained HTML view.
//!
//! A per-phase simulation-instrumentation report (gate evaluations,
//! fault-sim invocations, faults dropped, partition wall times) prints
//! after the tables; `--metrics-json` exports the same counters as
//! `phase/<label>/<field>`. Phase attribution is exact under
//! `--no-parallel`; with the parallel circuit runner, concurrently running
//! circuits share the phase labels, so per-phase rows are approximate while
//! totals remain exact. `--sim-threads N` (or the `SIM_THREADS` environment
//! variable when the flag is absent) sets the fault-simulation thread count
//! inside each pipeline, vector omission included (unset or
//! 1 = serial, 0 = all cores); results are identical at any thread count.

use std::process::ExitCode;
use std::time::Instant;

use atspeed_bench::runner::{try_run_circuit_opts, try_run_circuits_opts, Effort, RunOptions};
use atspeed_bench::tables::render_table;
use atspeed_bench::telemetry::TelemetryArgs;
use atspeed_circuit::catalog;
use atspeed_sim::SimConfig;

struct Args {
    table: Option<usize>,
    circuits: Option<Vec<String>>,
    quick: bool,
    parallel: bool,
    verify: bool,
    sim_threads: Option<usize>,
    csv: Option<String>,
    telemetry: TelemetryArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        table: None,
        circuits: None,
        quick: false,
        parallel: true,
        verify: false,
        sim_threads: None,
        csv: None,
        telemetry: TelemetryArgs::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        if args.telemetry.consume(a.as_str(), &mut it)? {
            continue;
        }
        match a.as_str() {
            "--table" => {
                let v = it.next().ok_or("--table needs a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad table `{v}`"))?;
                if !(1..=5).contains(&n) {
                    return Err(format!("table {n} out of range (paper has 1-5)"));
                }
                args.table = Some(n);
            }
            "--circuits" => {
                let v = it.next().ok_or("--circuits needs a list")?;
                args.circuits = Some(v.split(',').map(str::to_owned).collect());
            }
            "--quick" => args.quick = true,
            "--verify" => args.verify = true,
            "--csv" => {
                args.csv = Some(it.next().ok_or("--csv needs a path")?);
            }
            "--no-parallel" => args.parallel = false,
            "--sim-threads" => {
                let v = it.next().ok_or("--sim-threads needs a count")?;
                args.sim_threads = Some(SimConfig::parse_threads("--sim-threads", &v)?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: tables [--table N] [--circuits a,b,c] [--quick] [--verify] \
                     [--no-parallel] [--sim-threads N] [--csv FILE] \
                     [--trace FILE] [--metrics-json FILE] [--profile FILE] \
                     [--profile-hz N] [--history FILE] [--log LEVEL]"
                        .to_owned(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn sim_config(args: &Args) -> SimConfig {
    match args.sim_threads {
        Some(n) => SimConfig::with_threads(n),
        None => SimConfig::from_env(),
    }
}

fn main() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let infos: Vec<_> = match &args.circuits {
        Some(names) => {
            let mut selected = Vec::new();
            for n in names {
                match catalog::by_name(n) {
                    Ok(info) => selected.push(info),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            selected
        }
        None => catalog::all().to_vec(),
    };
    let effort = if args.quick {
        Effort::Quick
    } else {
        Effort::Full
    };

    args.telemetry.init();
    atspeed_sim::stats::reset();
    let sim = sim_config(&args);
    let start = Instant::now();
    atspeed_trace::info!("bench.tables", "starting experiments";
        circuits = infos.len(),
        effort = if args.quick { "quick" } else { "full" },
        mode = if args.parallel { "parallel" } else { "serial" },
        sim_threads = sim.threads,
        verify = args.verify,
    );
    let opts = RunOptions {
        effort,
        sim,
        verify: args.verify,
    };
    let run = if args.parallel {
        try_run_circuits_opts(&infos, &opts)
    } else {
        infos
            .iter()
            .map(|i| try_run_circuit_opts(i, &opts))
            .collect()
    };
    let exps = match run {
        Ok(exps) => exps,
        Err(e) => {
            eprintln!("{e}");
            atspeed_trace::error!("bench.tables", "experiments failed"; error = e.to_string());
            return ExitCode::FAILURE;
        }
    };
    atspeed_trace::info!("bench.tables", "experiments done";
        wall_ms = start.elapsed().as_millis(),
    );

    match args.table {
        Some(n) => println!("{}", render_table(n, &exps)),
        None => {
            for n in 1..=5 {
                println!("{}", render_table(n, &exps));
            }
        }
    }
    let report = atspeed_sim::stats::report();
    println!(
        "Simulation instrumentation (sim threads = {}):",
        sim.threads
    );
    println!("{report}");
    if let Some(path) = args.csv {
        let csv = atspeed_bench::csv::to_csv(&exps);
        if let Err(e) = std::fs::write(&path, csv) {
            atspeed_trace::error!("bench.tables", "failed to write csv";
                path = path, error = e);
            return ExitCode::FAILURE;
        }
        atspeed_trace::info!("bench.tables", "wrote csv"; path = path);
    }
    if let Err(e) = args
        .telemetry
        .write_outputs(&report, Some(sim.effective_threads(usize::MAX)))
    {
        atspeed_trace::error!("bench.tables", "failed to write telemetry output";
            error = e);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
