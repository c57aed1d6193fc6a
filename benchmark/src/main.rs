//! `morpheus-benchmark`: four long workloads, eight end-to-end metrics and
//! a per-layer cost table, all measured from outside the program. See
//! `benchmark/README.md`.
//!
//! ```text
//! morpheus-benchmark --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
//! morpheus-benchmark --all           [--seed N] [--seconds S]
//! morpheus-benchmark --selfcheck [K] [--seed N] [--seconds S]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or under
//! `--trace` the per-layer ones). The exit code is 0 only if every output
//! was correct.

mod alloc;
mod binding;
mod json;
mod measure;
mod metrics;
mod probes;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use measure::{measure, Measurement};
use metrics::{Values, END_TO_END};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// The seed a perf claim is developed on. Seed 2 is the hold-out: a claim
/// must also hold there (see the README).
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_SELFCHECK_RUNS: usize = 5;
/// `--selfcheck` fails when a timed median falls under this: millisecond
/// timings wobble by whole percents.
const TIMED_FLOOR_S: f64 = 1.0;

enum Mode {
    One(&'static Workload),
    All,
    Selfcheck(usize),
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|workload| workload.name).collect();
    format!(
        "usage: morpheus-benchmark (--workload NAME | --all | --selfcheck [K]) \
         [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\nworkloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut trace, mut out) = (DEFAULT_SEED, DEFAULT_SECONDS, false, None);
    let mut at = 0;
    while at < args.len() {
        let flag = args[at].as_str();
        // The flag's value, when the next argument is one.
        let value = args.get(at + 1).filter(|next| !next.starts_with("--"));
        let number = || -> Result<u64, String> {
            value
                .and_then(|raw| raw.parse().ok())
                .ok_or_else(|| format!("{flag} takes a whole number"))
        };
        match flag {
            "--workload" => {
                let name = value.ok_or("--workload takes a name")?;
                let workload = workloads::by_name(name).ok_or(format!("no workload `{name}`"))?;
                mode = Some(Mode::One(workload));
            }
            "--all" if value.is_none() => mode = Some(Mode::All),
            "--selfcheck" => {
                let runs = match value {
                    Some(_) => number()? as usize,
                    None => DEFAULT_SELFCHECK_RUNS,
                };
                if runs < 2 {
                    return Err("--selfcheck needs at least 2 runs for quartiles".into());
                }
                mode = Some(Mode::Selfcheck(runs));
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => out = Some(PathBuf::from(value.ok_or("--out takes a path")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
        at += 1 + usize::from(value.is_some());
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --selfcheck is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// The commit the numbers belong to: `GITHUB_SHA`, else `git rev-parse
/// HEAD`, else `unknown` (the driver's checkout is not a repository).
fn commit_id() -> String {
    std::env::var("GITHUB_SHA")
        .ok()
        .or_else(|| {
            let output = std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .ok()?;
            output
                .status
                .success()
                .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        })
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(values: &Values) -> Json {
    Json::object(values.iter().map(|(def, value)| {
        (
            def.name,
            Json::object([("value", Json::from(value)), ("unit", Json::from(def.unit))]),
        )
    }))
}

/// Prints the metrics of a table that were measured (the probe-based
/// per-layer ones only are under `--trace`).
fn print_table(title: &str, values: &Values) {
    println!("{title}");
    for def in values.defs() {
        if let Some(value) = values.get(def.name) {
            println!(
                "  {:<40} {:>18.6} {:<9} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
    }
}

/// Measures one workload, prints every metric by name with its unit, and
/// returns the measurement.
fn measure_and_print(
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: &str,
) -> Measurement {
    let mut measurement = measure(workload, seed, seconds, trace);
    if trace {
        probes::run(&mut measurement);
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload={} seed={} commit={} nproc={} nodes={} messages_per_sender={} \
         repetitions={} trace={}",
        workload.name,
        seed,
        commit,
        nproc,
        measurement.nodes,
        measurement.messages,
        measurement.repetitions,
        u8::from(trace),
    );
    println!("# why: {}", workload.why);
    if !trace {
        print_table(
            "end-to-end (medians over the repetitions; times in reference seconds)",
            &measurement.end_to_end,
        );
    }
    print_table("per-layer", &measurement.per_layer);
    println!(
        "  (tick percentiles over {} send intervals; the upper one is p{:.1})",
        measurement.ticks.samples,
        measurement.ticks.upper_quantile * 100.0
    );
    println!(
        "attempted={} failed={} (expected (message, receiver) pairs, and those never delivered)",
        measurement.attempted, measurement.failed
    );
    for problem in &measurement.problems {
        println!("WRONG: {problem}");
    }
    measurement
}

fn result_line(measurement: &Measurement, traced: bool) -> Json {
    let metrics = if traced {
        &measurement.per_layer
    } else {
        &measurement.end_to_end
    };
    Json::object([
        ("correct", Json::from(measurement.problems.is_empty())),
        ("attempted", Json::from(measurement.attempted)),
        ("failed", Json::from(measurement.failed)),
        ("metrics", metrics_json(metrics)),
    ])
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path
        .parent()
        .filter(|parent| !parent.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)
            .map_err(|error| format!("{}: {error}", parent.display()))?;
    }
    std::fs::write(path, contents).map_err(|error| format!("{}: {error}", path.display()))
}

fn run_workload(workload: &'static Workload, args: &Args, commit: &str) -> Result<bool, String> {
    let mut measurement = measure_and_print(workload, args.seed, args.seconds, args.trace, commit);
    if let Some(trace) = measurement.trace.take() {
        println!("spans (count, total, self time = total minus children)");
        for (name, count, total, own) in trace.summary() {
            println!(
                "  {:<20} {:>7} {:>12.6} s {:>12.6} s",
                name,
                count,
                total.as_secs_f64(),
                own.as_secs_f64()
            );
        }
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}.json", workload.name));
        write_file(&path, &trace.to_json().render())?;
        println!("spans written to {}", path.display());
    }
    let line = result_line(&measurement, args.trace);
    if let Some(path) = &args.out {
        let report = Json::object([
            ("workload", Json::from(workload.name)),
            ("seed", Json::from(args.seed)),
            ("commit", Json::from(commit)),
            ("repetitions", Json::from(measurement.repetitions as u64)),
            ("result", line.clone()),
            (
                "problems",
                Json::Array(
                    measurement
                        .problems
                        .iter()
                        .map(|p| Json::from(p.as_str()))
                        .collect(),
                ),
            ),
        ]);
        write_file(path, &report.render())?;
    }
    println!("{}", line.render());
    Ok(measurement.problems.is_empty())
}

/// Runs every workload `runs` times on consecutive seeds — as the driver
/// does — and checks that the benchmark repeats within its own bounds.
fn selfcheck(runs: usize, args: &Args, commit: &str) -> bool {
    let mut ok = true;
    for workload in &WORKLOADS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..runs {
            let measurement = measure_and_print(
                workload,
                args.seed + run as u64,
                args.seconds,
                false,
                commit,
            );
            ok &= measurement.problems.is_empty();
            for (slot, (_, value)) in samples.iter_mut().zip(measurement.end_to_end.iter()) {
                slot.push(value);
            }
        }
        println!(
            "selfcheck {} over {} runs (seeds {} to {})",
            workload.name,
            runs,
            args.seed,
            args.seed + runs as u64 - 1
        );
        for (def, values) in END_TO_END.iter().zip(&samples) {
            let median = stats::median(values);
            let (q1, q3) = stats::quartiles(values);
            let spread = (q3 - q1) / median;
            let timed = def.unit == "s";
            let too_short = timed && median < TIMED_FLOOR_S;
            // `setup_s` is held to its bound on the medians of two sets, not
            // on its spread — as the driver does.
            let too_wide = spread > def.bound && def.name != "setup_s";
            ok &= !(too_short || too_wide);
            println!(
                "  {:<26} median {:>14.6} q1 {:>14.6} q3 {:>14.6} spread {:>7.4} bound {:<6} {}{}",
                def.name,
                median,
                q1,
                q3,
                spread,
                def.bound,
                if too_wide { "TOO WIDE " } else { "" },
                if too_short { "UNDER 1 s" } else { "" },
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let commit = commit_id();
    let outcome = match args.mode {
        Mode::One(workload) => run_workload(workload, &args, &commit),
        Mode::All => WORKLOADS.iter().try_fold(true, |ok, workload| {
            Ok(ok & run_workload(workload, &args, &commit)?)
        }),
        Mode::Selfcheck(runs) => Ok(selfcheck(runs, &args, &commit)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload fanin_lossy --seed 7 --seconds 10 --trace 0").expect("parses");
        assert!(matches!(args.mode, Mode::One(workload) if workload.name == "fanin_lossy"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, false));
        assert!(
            parse("--workload fig3_sweep --seed 1 --seconds 10 --trace 1")
                .expect("parses")
                .trace
        );
    }

    #[test]
    fn trace_and_selfcheck_values_are_optional() {
        assert!(
            parse("--workload fig3_sweep --trace")
                .expect("bare --trace")
                .trace
        );
        let args = parse("--workload fig3_sweep --trace --out x.json").expect("parses");
        assert!(args.trace && args.out.is_some());
        assert!(matches!(
            parse("--selfcheck").expect("parses").mode,
            Mode::Selfcheck(DEFAULT_SELFCHECK_RUNS)
        ));
        assert!(matches!(
            parse("--selfcheck 3 --seed 4").expect("parses").mode,
            Mode::Selfcheck(3)
        ));
        assert_eq!(parse("--all").expect("parses").seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fig3_sweep --seed x").is_err());
        assert!(parse("--workload fig3_sweep --trace 2").is_err());
        assert!(parse("--selfcheck 1").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
