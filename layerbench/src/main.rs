//! The benchmark command:
//!
//! ```sh
//! cargo run --release --offline --manifest-path layerbench/Cargo.toml -- \
//!     --workload kernel_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints the run's facts and its workload-named end-to-end metrics, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

use layerbench::{run, Params, Size, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

fn usage(msg: &str) -> ExitCode {
    eprintln!("layerbench: {msg}");
    eprintln!(
        "usage: layerbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else {
            return usage("every option takes a value");
        };
        match key.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown option {other}")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("missing or unknown --workload");
    };
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace) else {
        return usage("--seed, --seconds and --trace are required");
    };
    let p = Params {
        seed,
        budget: Duration::from_secs(seconds),
        trace,
        size: Size::Full,
    };
    let out = run(&workload, &p);
    for (key, value) in &out.facts {
        println!("# {key}: {value}");
    }
    for (name, value, unit, kind) in &out.named {
        println!("# metric {name} = {value} {unit} ({kind:?})");
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    println!("{}", out.json_line());
    if out.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
