//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (see `README.md`), prints the environment and every
//! metric by name and unit, and ends with one JSON result line. Exits 1
//! when any operation failed or any check did not hold, 2 on bad usage.

use e2ebench::report;
use e2ebench::workload::{Scale, Spec, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let num = |name: &str| -> Result<Option<f64>, String> {
        get(name)
            .map(|v| v.parse::<f64>().map_err(|_| format!("bad {name}: {v}")))
            .transpose()
    };
    let workload = get("--workload").ok_or("missing --workload")?.to_string();
    let seed = get("--seed").map_or(Ok(1), |v| {
        v.parse::<u64>().map_err(|_| format!("bad --seed: {v}"))
    })?;
    let seconds = num("--seconds")?.unwrap_or(10.0);
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        v => return Err(format!("bad --trace: {v}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "e2ebench: {e}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2)
    });
    let Some(spec) = Spec::get(&args.workload, Scale::Full) else {
        eprintln!(
            "e2ebench: unknown workload {} (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        std::process::exit(2)
    };
    for line in report::environment(&spec, args.seed) {
        println!("# {line}");
    }
    let out = if args.trace {
        e2ebench::trace(&spec, args.seed, args.seconds)
    } else {
        e2ebench::measure(&spec, args.seed, args.seconds)
    };
    for n in &out.notes {
        println!("# {n}");
    }
    for x in &out.metrics {
        println!("{:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let (failed, attempted) = (out.failed, out.attempted.max(1));
    println!(
        "{:<32} {:>16.6} ratio ({failed} failed of {attempted} attempted)",
        "error_rate",
        failed as f64 / attempted as f64
    );
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    println!(
        "{}",
        report::json_line(failed == 0, attempted, failed, &out.metrics)
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
