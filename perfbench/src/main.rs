//! End-to-end benchmark of the P3 photo path.
//!
//! ```text
//! p3-perfbench --workload <upload|browse|mixed|passthrough> --seed N --seconds S --trace <0|1>
//! p3-perfbench compare A.json B.json
//! ```
//!
//! A run starts the whole topology in-process (PSP, three packed-log
//! storage nodes behind an R=2 router, trusted proxy), drives it over
//! HTTP, checks every response, and prints a report followed by one
//! JSON result line. `--trace 1` adds a replaying proxy that times every
//! layer call as a span and prints the per-layer metrics instead. Each run
//! also saves its stamped result (and, traced, its spans) under
//! `.perfbench-results/`; `compare` diffs two saved results and refuses
//! when their stamps differ.

mod client;
mod corpus;
mod exec;
mod json;
mod report;
mod run;
mod stats;
mod topology;
mod trace;
mod workload;

use run::{Inputs, Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: p3-perfbench --workload <upload|browse|mixed|passthrough> \
                     --seed N --seconds S --trace <0|1>\n       p3-perfbench compare A.json B.json";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts { workload: Workload::Browse, seed: 1, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                o.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    if !(o.seconds > 0.0 && o.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match report::compare(a, b) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&o) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run. The node data lives under `.perfbench-tmp/<pid>`, removed
/// on every exit path; results go to `.perfbench-results/`.
fn bench(o: &Opts) -> Result<bool, String> {
    let stamp = report::stamp(o);
    let inputs = Inputs::generate(o.workload, o.seed);
    let tmp = topology::TempDir::create(
        PathBuf::from(".perfbench-tmp").join(std::process::id().to_string()),
    )?;
    let results = PathBuf::from(".perfbench-results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let base = format!("{}-seed{}-trace{}", o.workload.name(), o.seed, u8::from(o.trace));
    let out = if o.trace {
        run::traced(o, &inputs, tmp.path(), &results.join(format!("{base}-spans.tsv")))?
    } else {
        run::untraced(o, &inputs, tmp.path())?
    };
    drop(tmp);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    let reported: Vec<&str> =
        if o.trace { &out.layers } else { &out.gated }.iter().map(|m| m.name).collect();
    assert_eq!(
        reported,
        run::metric_names(o.trace),
        "reported metrics drifted from the declared set"
    );
    report::print(&stamp, &out);
    let path = results.join(format!("{base}.json"));
    std::fs::write(&path, report::saved(&stamp, &out, o.trace))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report::result_line(&out, o.trace));
    Ok(out.correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names a run reports are exactly the ones
    /// `BENCHMARK.json` declares, in each mode.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let j = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            match j.get(key) {
                Some(json::Json::Arr(items)) => items
                    .iter()
                    .filter_map(|m| match m.get("name") {
                        Some(json::Json::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => panic!("BENCHMARK.json has no {key}"),
            }
        };
        assert_eq!(names("end_to_end"), run::metric_names(false));
        assert_eq!(names("per_layer"), run::metric_names(true));
        assert!(names("workloads").iter().all(|w| Workload::parse(w).is_some()));
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let a = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&a("--workload mixed --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((o.workload, o.seed, o.seconds, o.trace), (Workload::Mixed, 9, 3.0, true));
        assert!(parse(&a("--workload nope")).is_err());
        assert!(parse(&a("--seed 1")).is_err());
        assert!(parse(&a("--workload upload --trace 2")).is_err());
    }
}
