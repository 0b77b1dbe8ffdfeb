//! Regenerates every table and figure of the StRoM paper's evaluation.
//!
//! ```text
//! figures                      # all experiments, quick scale
//! figures fig7 fig8            # selected experiments
//! figures --full               # the paper's input sizes (slower)
//! figures --list               # list experiment names
//! figures --json out.json ...  # also export machine-readable telemetry
//! ```
//!
//! With `--json`, experiments that drive an instrumented testbed run
//! with tracing enabled and their counters, latency histograms, and
//! trace statistics are collected into one JSON document (schema
//! `strom-figures-telemetry-v1`, one `strom-telemetry-v1` report per
//! experiment); the rest run exactly as without the flag.

use strom_bench::{all_experiments, run_experiment, run_experiment_telemetry, Scale};
use strom_telemetry::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(path) => json_path = Some(path.clone()),
                    None => {
                        eprintln!("--json requires an output path");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
                for (name, desc) in all_experiments() {
                    println!("{name:8} {desc}");
                }
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; try --list, --full, --quick, --json <path>");
                std::process::exit(2);
            }
            name => names.push(name.to_string()),
        }
        i += 1;
    }
    let registry = all_experiments();
    if names.is_empty() {
        names = registry.iter().map(|(n, _)| n.to_string()).collect();
    }
    for name in &names {
        if !registry.iter().any(|(n, _)| n == name) {
            eprintln!("unknown experiment '{name}'; try --list");
            std::process::exit(2);
        }
    }
    let scale_name = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    println!("# StRoM (EuroSys'20) — regenerated evaluation ({scale_name} scale)\n");
    let mut telemetry: Vec<(String, Value)> = Vec::new();
    for name in &names {
        let start = std::time::Instant::now();
        let report = if json_path.is_some() {
            match run_experiment_telemetry(name, scale) {
                Some((rendered, t)) => {
                    telemetry.push((name.clone(), t.to_value()));
                    rendered
                }
                None => run_experiment(name, scale),
            }
        } else {
            run_experiment(name, scale)
        };
        println!("{report}");
        println!(
            "({name} regenerated in {:.1}s)\n",
            start.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = json_path {
        let count = telemetry.len();
        let doc = Value::obj([
            ("schema", Value::str("strom-figures-telemetry-v1")),
            ("scale", Value::str(scale_name)),
            ("reports", Value::obj(telemetry)),
        ]);
        std::fs::write(&path, format!("{doc:#}\n")).expect("write telemetry JSON");
        println!("wrote telemetry for {count} experiment(s) to {path}");
    }
}
