//! `lifecycle --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any checked output was
//! wrong. See `bench/README.md` for the other flags.

use eppi_lifecycle_bench::run::{run, selfcheck, Options};
use eppi_lifecycle_bench::spec::{workload, workloads};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: lifecycle --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--trace-out <file>] [--quick] [--selfcheck] | --list";

fn parse() -> Result<Option<(Options, bool)>, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds) = (None, 1u64, 16.0f64);
    let (mut trace, mut quick, mut check, mut trace_out) = (false, false, false, None);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => name = Some(value("a name")?),
            "--seed" => {
                seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value("a file")?)),
            "--quick" => quick = true,
            "--selfcheck" => check = true,
            "--list" => {
                for w in workloads() {
                    println!("{}\t{}", w.name, w.why);
                }
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let w = workload(&name).ok_or(format!("unknown workload {name}"))?;
    let scratch = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".bench_scratch");
    Ok(Some((
        Options {
            workload: if quick { w.quick() } else { w },
            seed,
            seconds,
            trace,
            quick,
            trace_out,
            scratch,
        },
        check,
    )))
}

fn main() -> ExitCode {
    let (opts, check) = match parse() {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if check {
        return match selfcheck(&opts) {
            Ok((text, passed)) => {
                print!("{text}");
                if passed {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(message) => {
                eprintln!("lifecycle: {message}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&opts) {
        Ok(report) => {
            print!("{}", report.to_text());
            println!("{}", report.to_json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("lifecycle: {message}");
            ExitCode::FAILURE
        }
    }
}
