//! Smoke tests: every workload at a tiny size passes its output checks and
//! prints every declared metric with its unit; the declarations match
//! `BENCHMARK.json`; and every simulated metric repeats exactly under the
//! same seed and moves under another.

use layerbench::{run, Def, Kind, Outcome, Params, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Duration;

fn tiny(workload: &str, seed: u64, trace: bool) -> Outcome {
    let p = Params {
        seed,
        budget: Duration::ZERO,
        trace,
        size: Size::Tiny,
    };
    let out = run(workload, &p);
    assert!(
        out.is_correct(),
        "{workload} failed its checks: {:?}",
        out.errors
    );
    out
}

/// The value of `"key": "value"` on a line of `BENCHMARK.json`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(&rest[..rest.find('"')?])
}

/// `BENCHMARK.json`'s metric declarations: (name, unit, better), one per
/// line, keyed by the list they sit in.
fn declared() -> BTreeMap<&'static str, Vec<(String, String, String)>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut lists = BTreeMap::new();
    let mut current = "";
    for line in text.lines() {
        if line.contains("\"end_to_end\"") {
            current = "end_to_end";
        } else if line.contains("\"per_layer\"") {
            current = "per_layer";
        }
        if let (Some(name), Some(unit), Some(better)) = (
            field(line, "name"),
            field(line, "unit"),
            field(line, "better"),
        ) {
            lists.entry(current).or_insert_with(Vec::new).push((
                name.to_string(),
                unit.to_string(),
                better.to_string(),
            ));
        }
    }
    lists
}

fn as_tuples(defs: &[Def]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.as_str().to_string(),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    let lists = declared();
    assert_eq!(lists["end_to_end"], as_tuples(END_TO_END));
    assert_eq!(lists["per_layer"], as_tuples(PER_LAYER));
}

/// Every declared metric appears on the result line with its unit and a
/// finite value.
fn assert_line_complete(out: &Outcome, defs: &[Def]) {
    let line = out.json_line();
    for d in defs {
        let key = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{} missing: {line}", d.name));
        let rest = &line[at + key.len()..];
        let value = &rest[..rest.find(',').expect("value ends")];
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{}: {value}",
            d.name
        );
        assert!(
            rest.starts_with(&format!("{value}, \"unit\": \"{}\"}}", d.unit)),
            "{} unit",
            d.name
        );
    }
}

/// The workload's own end-to-end metrics, printed before the result line.
fn named(out: &Outcome) -> Vec<(&str, &str)> {
    out.named
        .iter()
        .map(|(n, _, u, _)| (n.as_str(), *u))
        .collect()
}

#[test]
fn every_workload_prints_every_metric() {
    for w in WORKLOADS {
        let out = tiny(w, 1, false);
        assert_line_complete(&out, END_TO_END);
        for d in END_TO_END {
            assert!(
                out.metrics[d.name] > 0.0,
                "{w}: {} must never read 0",
                d.name
            );
        }
        let facts: Vec<&str> = out.facts.iter().map(|(k, _)| *k).collect();
        for key in ["nproc", "workers", "shards", "seed", "reps", "rustc"] {
            assert!(facts.contains(&key), "{w}: fact {key} missing");
        }
        let mut want = vec![("setup_s", "s"), ("failed_pm", "pm")];
        want.extend(match *w {
            "kernel_mix" => vec![("kernel_minstr_per_s", "Minstr/s")],
            "pos_check" => vec![("check_s", "s")],
            _ => vec![
                ("fleet_rounds_per_s", "1/s"),
                ("fleet_goodput_milli", "req/kround"),
                ("fleet_p50_rounds", "rounds"),
                ("fleet_p999_rounds", "rounds"),
            ],
        });
        assert_eq!(named(&out), want, "{w}: workload-named metrics");

        let traced = tiny(w, 1, true);
        assert_line_complete(&traced, PER_LAYER);
    }
}

/// The simulated metrics of a traced run plus the simulated workload-named
/// end-to-end metrics.
fn sim(out: &Outcome) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = PER_LAYER
        .iter()
        .filter(|d| d.kind == Kind::Sim)
        .map(|d| (d.name.to_string(), out.metrics[d.name]))
        .collect();
    for (name, value, _, kind) in &out.named {
        if *kind == Kind::Sim {
            m.insert(name.clone(), *value);
        }
    }
    m
}

#[test]
fn simulated_metrics_repeat_under_a_seed_and_move_under_another() {
    for w in WORKLOADS {
        let a = sim(&tiny(w, 7, true));
        let b = sim(&tiny(w, 7, true));
        let c = sim(&tiny(w, 8, true));
        assert_eq!(a, b, "{w}: same seed, different simulated metrics");
        assert_ne!(a, c, "{w}: the seed does not reach the inputs");
    }
}
