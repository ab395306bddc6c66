//! The repeatable benchmark of the C-SAW reproduction. See README.md.
//!
//! ```text
//! csaw-benchmark [--workload <name>] [--seed <n>] [--seconds <n>]
//!                [--trace [0|1]] [--quick]
//! ```
//!
//! Without `--workload` it runs every workload, each in a child process
//! so that set-up time and peak RSS stay per workload.

mod common;
mod offline;
mod refwalk;
mod replay;
mod serve;
mod stats;
mod trace;

use common::{out_dir, peak_rss_mb, Args, Report, END_TO_END, WORKLOADS};
use stats::{json_result, Metric};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

fn main() -> ExitCode {
    let started = Instant::now();
    // The executor's rayon shim on two threads swung a served workload
    // by 25% on the shared two-core box; pinned to one it swings 3.5%.
    // Set before any thread exists.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("csaw-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload.clone() {
        Some(workload) => run_one(&workload, &args, started),
        None => run_all(&argv),
    }
}

/// Runs every workload as a child process with the same flags.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        println!("== {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(argv)
            .status()
            .expect("start child");
        if !status.success() {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        println!("== all {} workloads verified", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("== FAILED: {failed:?}");
        ExitCode::FAILURE
    }
}

fn run_one(workload: &str, args: &Args, started: Instant) -> ExitCode {
    let mut tracer = Tracer::new(started);
    let report = match offline::SPECS.iter().find(|s| s.name == workload) {
        Some(spec) => offline::run(spec, args, &mut tracer),
        None => serve::run(args, &mut tracer),
    };
    print_report(workload, args, &report, &tracer);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints every metric by name with its unit, then the result line.
fn print_report(workload: &str, args: &Args, report: &Report, tracer: &Tracer) {
    println!(
        "workload {workload} seed {} seconds {} trace {} quick {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, ok) in &report.checks {
        println!("  check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    println!("  operations: {} attempted, {} failed", report.attempted, report.failed);

    let mut end_to_end = report.end_to_end.clone();
    end_to_end.push(Metric { name: "peak_rss_mb", unit: "MB", value: peak_rss_mb() });
    debug_assert!(end_to_end.iter().map(|m| (m.name, m.unit)).eq(END_TO_END));
    let layers = report.layers.as_ref().map(|l| l.metrics());

    if args.quick {
        // Tiny sizes: the numbers mean nothing and are not printed.
        println!("  quick: verification only, no numbers for the record");
    } else {
        for m in end_to_end.iter().chain(layers.iter().flatten()) {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    if let Some(layers) = report.layers.as_ref() {
        let path = out_dir().join(format!("trace_{workload}.json"));
        let json = tracer.to_json(workload, args.seed, &layers.exact_counts());
        std::fs::write(&path, json).expect("write span file");
        println!("  spans: {} ({} spans)", path.display(), tracer.spans().len());
    }

    let metrics = match (args.quick, layers) {
        (true, _) => Vec::new(),
        (false, Some(layers)) => layers,
        (false, None) => end_to_end,
    };
    println!("{}", json_result(report.correct(), report.attempted.max(1), report.failed, &metrics));
}
