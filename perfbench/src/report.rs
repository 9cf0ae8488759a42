//! Run stamp, the printed report, saved results, and `compare`.

use crate::json::{quote, Json};
use crate::run::{Metric, Opts, Outcome};

/// What a result was measured on. Two results are comparable only if
/// every field but `commit` matches.
pub fn stamp(o: &Opts) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", o.workload.name().to_string()),
        ("seed", o.seed.to_string()),
        ("seconds", o.seconds.to_string()),
        ("trace", u8::from(o.trace).to_string()),
        ("nproc", nproc.to_string()),
        ("simd_level", p3_par::features::simd_level().as_str().to_string()),
        ("aes_ni", p3_par::features::aes_ni().to_string()),
        ("force_scalar", p3_par::features::force_scalar().to_string()),
        ("codec_threads", p3_par::pool::global().threads().to_string()),
        ("commit", git_commit()),
    ]
}

/// HEAD of the git repository rooted at the working directory, or
/// "unknown" when it is not the root of one.
fn git_commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cwd = std::env::current_dir().and_then(std::fs::canonicalize).ok();
    let top = git(&["rev-parse", "--show-toplevel"]).and_then(|t| std::fs::canonicalize(t).ok());
    match (cwd, top) {
        (Some(c), Some(t)) if c == t => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".into(),
    }
}

fn show(m: &Metric) -> String {
    let note = if m.note.is_empty() { String::new() } else { format!("  ({})", m.note) };
    match &m.value {
        Ok(v) => format!("  {:<32} {:>14.4} {}{}", m.name, v, m.unit, note),
        Err(why) => format!("  {:<32} {:>14} {}  ({}){}", m.name, "n/a", m.unit, why, note),
    }
}

/// Human-readable report (stdout, before the result line).
pub fn print(stamp: &[(&str, String)], out: &Outcome) {
    let line: Vec<String> = stamp.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("stamp: {}", line.join(" "));
    if !out.table.is_empty() {
        println!("end-to-end:");
        out.table.iter().for_each(|m| println!("{}", show(m)));
    }
    if !out.layers.is_empty() {
        println!("per-layer:");
        out.layers.iter().for_each(|m| println!("{}", show(m)));
        println!("stage shares of the primary request (replayed window):");
        for (stage, share) in &out.shares {
            println!("  {stage:<32} {:>6.1} %", share * 100.0);
        }
        let unattributed = 1.0 - out.shares.iter().map(|s| s.1).sum::<f64>();
        println!("  {:<32} {:>6.1} %", "(handler bookkeeping)", unattributed * 100.0);
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = m.value.as_ref().map_or("null".to_string(), |v| v.to_string());
            format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(m.name), quote(m.unit))
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The single result line the contract asks for: the gated metrics of
/// an untraced run, or the per-layer metrics of a traced one.
pub fn result_line(out: &Outcome, trace: bool) -> String {
    let ms = if trace { &out.layers } else { &out.gated };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics_json(ms)
    )
}

/// The saved result: stamp, result line, and the full end-to-end table.
pub fn saved(stamp: &[(&str, String)], out: &Outcome, trace: bool) -> String {
    let st: Vec<String> =
        stamp.iter().map(|(k, v)| format!("{}: {}", quote(k), quote(v))).collect();
    format!(
        "{{\"stamp\": {{{}}}, \"result\": {}, \"table\": {}}}\n",
        st.join(", "),
        result_line(out, trace),
        metrics_json(&out.table)
    )
}

/// Compare two saved results. Refused (an error) when their stamps
/// differ in anything but the commit.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let stamp_of = |j: &Json| -> Result<Vec<(String, Json)>, String> {
        match j.get("stamp") {
            Some(Json::Obj(f)) => Ok(f.clone()),
            _ => Err("result has no stamp".into()),
        }
    };
    let (sa, sb) = (stamp_of(&ja)?, stamp_of(&jb)?);
    let differ: Vec<String> = sa
        .iter()
        .filter(|(k, _)| k != "commit")
        .filter(|(k, v)| sb.iter().find(|(kb, _)| kb == k).map(|(_, vb)| vb) != Some(v))
        .map(|(k, v)| {
            format!("{k}: {v:?} vs {:?}", sb.iter().find(|(kb, _)| kb == k).map(|x| &x.1))
        })
        .collect();
    if !differ.is_empty() || sa.len() != sb.len() {
        return Err(format!("stamps differ, refusing to compare: {}", differ.join("; ")));
    }
    let metrics = |j: &Json| match j.get("result").and_then(|r| r.get("metrics")) {
        Some(Json::Obj(f)) => f.clone(),
        _ => Vec::new(),
    };
    let mb = metrics(&jb);
    let mut out = String::new();
    for (name, va) in metrics(&ja) {
        let x = va.get("value").and_then(Json::num);
        let y = mb
            .iter()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.get("value"))
            .and_then(Json::num);
        if let (Some(x), Some(y)) = (x, y) {
            let delta =
                if x != 0.0 { format!("{:+.1} %", (y - x) / x * 100.0) } else { "-".into() };
            out.push_str(&format!("{name:<32} {x:>14.4} {y:>14.4} {delta:>9}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &std::path::Path, name: &str, nproc: &str, commit: &str, p50: f64) -> String {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"stamp\": {{\"nproc\": \"{nproc}\", \"commit\": \"{commit}\"}}, \"result\": \
                 {{\"metrics\": {{\"p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}}}}}}}"
            ),
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn compare_refuses_results_with_different_stamps() {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = write(&dir, "a.json", "2", "x", 10.0);
        let b = write(&dir, "b.json", "2", "y", 12.0);
        let c = write(&dir, "c.json", "4", "x", 10.0);
        let table = compare(&a, &b).unwrap();
        assert!(table.contains("p50_ms") && table.contains("+20.0 %"), "{table}");
        assert!(compare(&a, &c).unwrap_err().contains("nproc"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
