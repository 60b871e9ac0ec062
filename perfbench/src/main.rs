//! parlap's benchmark: three workloads through the public API on a
//! 2-worker pool, every answer checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mesh_solve_many --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a
//! separate traced run. See `perfbench/README.md`.

mod common;
mod layers;
mod openloop;
mod stats;
mod trace;
mod workloads;

use common::{json_num, json_str, Report};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["mesh_solve_many", "dense_build_once", "serve_registry_churn"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: parlap-perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit the benchmark was built from, when the checkout is a
/// git work tree (read from `.git`, without running git).
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|c| c.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .ok_or(std::io::Error::other("ref not found"))
            })
            .unwrap_or_else(|_| format!("unknown ({r})")),
    }
}

fn print_provenance(args: &Args, report: &Report) {
    let mut fields = vec![
        ("host", parlap_bench::host::fingerprint().summary()),
        ("commit", git_commit()),
        ("workload_name", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("error_rate", json_num(1.0 - report.success_rate())),
    ];
    fields.extend(report.provenance.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!("{{\"provenance\":{{{}}}}}", body.join(","));
}

fn print_result(report: &Report) {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = common::refuse_parlap_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    let mut report = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds)
    } else {
        let mut r = match args.workload.as_str() {
            "mesh_solve_many" => workloads::mesh(args.seed, args.seconds),
            "dense_build_once" => workloads::dense(args.seed, args.seconds),
            _ => workloads::churn(args.seed, args.seconds),
        };
        let success = r.success_rate();
        r.metric("success_rate", success, "ratio");
        r.metric("peak_rss_mib", common::peak_rss_mib(), "MiB");
        r
    };
    if args.trace {
        report.note("peak_rss_mib", common::peak_rss_mib());
    }
    print_provenance(&args, &report);
    print_result(&report);
    if report.failed == 0 && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
