//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//! runs one workload and prints its metrics; the last line of standard
//! output is the JSON result.
//!
//! `perfbench record-expected` re-records the per-op output fingerprints
//! for the default seed into `perfbench/expected.txt`.

use perfbench::{report, trace, Ctx, Expected, Scale, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <fleet-campaign|redteam-campaign|dram-relaxed|serve-mixed> \
[--seed <u64>] [--seconds <n>] [--trace <0|1>]\n       perfbench record-expected";

/// Seconds of timed ops per workload when recording fingerprints: enough
/// ops to cover any run of the benchmark's own length.
const RECORD_SECONDS: f64 = 40.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("record-expected") {
        record_expected();
        return ExitCode::SUCCESS;
    }
    let (workload, seed, seconds, traced) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let expected = Expected::recorded();
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        trace: traced,
        scale: Scale::Full,
        expected: &expected,
    };
    let run = perfbench::run(&ctx);
    let report = report::build(&ctx, &run);
    for line in &report.lines {
        println!("{line}");
    }
    if traced {
        let path = trace_dir().join(format!("trace-{workload}-{seed}.json"));
        let written = std::fs::create_dir_all(trace_dir())
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&run.spans)));
        match written {
            Ok(()) => println!(
                "trace {} spans written to {}",
                run.spans.len(),
                path.display()
            ),
            Err(err) => eprintln!("could not write {}: {err}", path.display()),
        }
    }
    println!("{}", report::json_line(&report));
    ExitCode::SUCCESS
}

fn parse(args: &[String]) -> Result<(&'static str, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, seed, seconds, traced))
}

/// Where traces go: the build directory, inside the checkout.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(target).join("perfbench")
}

fn record_expected() {
    let none = Expected::default();
    let mut recorded = Expected::default();
    for workload in WORKLOADS {
        let ctx = Ctx {
            workload,
            seed: DEFAULT_SEED,
            seconds: RECORD_SECONDS,
            trace: false,
            scale: Scale::Full,
            expected: &none,
        };
        let run = perfbench::run(&ctx);
        eprintln!("{workload}: {} fingerprints", run.fingerprints.len());
        for (index, fp) in run.fingerprints {
            recorded.insert(workload, index, fp);
        }
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt");
    std::fs::write(path, recorded.render()).expect("expected.txt is writable");
    eprintln!("wrote {path}");
}
