//! The reference benchmark of the NetCo reproduction.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--out FILE]
//!     every workload, each in a child process of its own: an untraced
//!     run for the end-to-end metrics, then a traced one for the layers;
//!     writes the result file (default benchmark/out/result.json)
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line printed is the result
//! benchmark compare A.json B.json
//!     verdict per end-to-end metric and workload, exact diff of counts
//! ```
//!
//! See `benchmark/README.md` for workloads, metrics and bounds.

mod compare;
mod host;
mod json;
mod kernels;
mod run;
mod schema;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use json::{obj, Json};
use schema::{SCHEMA_VERSION, WORKLOADS};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 7;
/// Default `--seconds`: `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.to_string()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.to_string()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

fn record_file(workload: &str, trace: bool) -> String {
    let section = if trace { "per_layer" } else { "end_to_end" };
    format!("{workload}.{section}.json")
}

/// One workload in this process (what the driver runs).
fn run_one(name: &str, args: &Args) -> Result<ExitCode, String> {
    let (id, workload) = run::Id::parse(name)
        .zip(schema::workload(name))
        .ok_or_else(|| format!("unknown workload `{name}`"))?;
    println!("# {}: {}", workload.name, workload.why);
    let outcome = run::run(id, workload.name, args.seed, args.seconds, args.trace);
    for (metric, unit, s) in &outcome.metrics {
        let better = schema::better(metric).map_or("", |b| b.as_str());
        print!("{metric:<48} {:>16.6} {unit:<7} {better:<7}", s.median);
        if s.n > 1 {
            print!(" min {:.6} max {:.6} n {}", s.min, s.max, s.n);
        }
        println!();
    }
    run::write_out(
        &record_file(workload.name, args.trace),
        &run::record(&outcome).render_pretty(),
    );
    println!("{}", run::result_line(&outcome));
    Ok(if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Every workload, untraced then traced, each in a child process so that
/// `VmHWM` is per workload and no run inherits another's heap.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut failed = false;
    for w in &WORKLOADS {
        let mut checks = [0.0, 0.0];
        let mut repetitions = 0.0;
        let mut sections = Vec::new();
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .status()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            failed |= !status.success();
            let path = run::out_dir().join(record_file(w.name, trace));
            let record = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|text| Json::parse(&text))?;
            let number = |key: &str| record.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            checks[0] += number("attempted");
            checks[1] += number("failed");
            if !trace {
                repetitions = number("repetitions");
            }
            sections.push((
                section,
                record.get("metrics").cloned().unwrap_or(Json::Null),
            ));
        }
        let head = [
            ("why", Json::Str(w.why.into())),
            ("repetitions", Json::Num(repetitions)),
            ("attempted", Json::Num(checks[0])),
            ("failed", Json::Num(checks[1])),
        ];
        workloads.push((w.name, obj(head.into_iter().chain(sections))));
    }
    let mut file = vec![("schema".to_string(), Json::Num(SCHEMA_VERSION as f64))];
    file.extend(host::provenance().members().iter().cloned());
    file.push(("seed".into(), Json::Num(args.seed as f64)));
    file.push(("seconds".into(), Json::Num(args.seconds)));
    file.push(("workloads".into(), obj(workloads)));
    let out = match &args.out {
        Some(path) => std::path::PathBuf::from(path),
        None => run::out_dir().join("result.json"),
    };
    std::fs::write(&out, Json::Obj(file).render_pretty())
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# result file: {}", out.display());
    println!(
        "# traces: {}/trace_<workload>.json",
        run::out_dir().display()
    );
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    if let Err(e) = schema::validate_names() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => {
            return ExitCode::from(compare::main(a, b) as u8);
        }
        _ => parse_args(&args).and_then(|parsed| match &parsed.workload {
            Some(name) => run_one(name, &parsed),
            None => run_all(&parsed),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: benchmark [--seed N] [--seconds S] [--out FILE]");
        eprintln!("       benchmark --workload NAME --seed N --seconds S --trace 0|1");
        eprintln!("       benchmark compare A.json B.json");
        ExitCode::from(2)
    })
}
