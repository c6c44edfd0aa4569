//! The certus benchmark: one process runs one workload once.
//!
//! ```text
//! certus-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--smoke] [--out DIR]
//! certus-benchmark compare <baseline> <candidate>
//! ```
//!
//! An untraced run (`--trace 0`, the default) reports the end-to-end metrics;
//! a traced run (`--trace 1`) wraps each call into a layer in a span and
//! reports the per-layer metrics. Both print a table, write a result file
//! under `out/`, and end with one JSON object on the last line of stdout.

mod compare;
mod env;
mod json;
mod pace;
mod report;
mod samples;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::RunConfig;

/// Measured seconds of an untraced run (`run_seconds` in `BENCHMARK.json`)
/// and of a traced one, when `--seconds` does not say.
const SECONDS: u64 = 20;
const SECONDS_TRACED: u64 = 10;
const SECONDS_SMOKE: u64 = 2;

fn usage(why: &str) -> ExitCode {
    eprintln!(
        "{why}\nusage: certus-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--smoke] [--out DIR]\n       certus-benchmark compare <baseline.json|dir> \
         <candidate.json|dir>",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [baseline, candidate] => {
                ExitCode::from(compare::run(baseline.as_ref(), candidate.as_ref()) as u8)
            }
            _ => usage("compare takes two result files or directories"),
        };
    }

    let package_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 42u64, None, false);
    let (mut smoke, mut out) = (false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match arg.as_str() {
            "--workload" => workload = value().map(str::to_string),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value().and_then(|v| v.parse::<u64>().ok()).filter(|&s| s >= 1) {
                Some(v) => seconds = Some(v),
                None => return usage("--seconds takes a whole number of at least 1"),
            },
            "--trace" => match value() {
                Some("0") => traced = false,
                Some("1") => traced = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--smoke" => smoke = true,
            "--out" => out = value().map(PathBuf::from),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(workload) = workload else { return usage("--workload is required") };

    // Smoke results live apart, so they can never be mistaken for, or
    // overwrite, a baseline.
    let out_dir = match (out, smoke) {
        (Some(dir), _) => dir,
        (None, true) => package_dir.join("out/smoke"),
        (None, false) => package_dir.join("out"),
    };
    let cfg = RunConfig {
        seed,
        seconds: seconds.unwrap_or(match (smoke, traced) {
            (true, _) => SECONDS_SMOKE,
            (false, true) => SECONDS_TRACED,
            (false, false) => SECONDS,
        }),
        traced,
        c: env::nproc().min(4),
        package_dir,
        out_dir,
    };
    let Some(result) = workloads::run(&workload, &cfg) else {
        return usage(&format!("unknown workload `{workload}`"));
    };

    result.print_table();
    let file = cfg.out_dir.join(format!("{workload}{}.json", if traced { ".traced" } else { "" }));
    let written = std::fs::create_dir_all(&cfg.out_dir)
        .and_then(|()| std::fs::write(&file, result.to_json().render_pretty()));
    match written {
        Ok(()) => println!("result file: {}", file.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", file.display());
            return ExitCode::FAILURE;
        }
    }
    match result.driver_line() {
        Ok(line) => println!("{line}"),
        Err(why) => {
            eprintln!("{workload}: {why}");
            return ExitCode::FAILURE;
        }
    }
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
