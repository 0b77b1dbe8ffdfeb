//! The repo's benchmark: six sustained workloads driven through the
//! public scenario functions of `strom-nic`, reporting host-clock metrics
//! (how fast the simulator runs) and simulated-clock metrics (how fast
//! the modelled NIC is), plus a per-layer replay trace. See `README.md`.
//!
//! ```text
//! strom-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! strom-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//! strom-benchmark --compare <a.json> <b.json>
//! ```

mod alloc;
mod catalog;
mod compare;
mod json;
mod layers;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use run::Config;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Prefix of the line a single-workload run prints for the result set,
/// holding what the result line's fixed keys have no room for.
const DETAIL_PREFIX: &str = "result-set entry: ";

const USAGE: &str = "\
usage: strom-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
                       [--quick] [--out <file>]
       strom-benchmark --compare <a.json> <b.json>
       strom-benchmark --manifest

  --workload   kv_serve | shuffle_bulk | shuffle_storm | incast_writes | incast_reads |
               chain_stream; without it all six run, one process each, and a result
               set is written to --out (default benchmark/out/results[-trace].json)
  --seed       workload seed (default 7)
  --seconds    timed seconds per workload (default 10; at least 10 units are timed)
  --trace      0: end-to-end metrics, tracing off (default); 1: per-layer metrics
               and benchmark/out/trace-<workload>.json
  --quick      1 s per workload and at least 3 units, for smoke use
  --compare    apply the benchmark's bounds to two result sets; exit 1 on a regression
  --manifest   print the contents of BENCHMARK.json";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: None,
        trace: false,
        quick: false,
        out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload in this process; the last line of standard output is the
/// result object.
fn run_one(workload: Workload, args: &Args, started: Instant) -> ExitCode {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick {
            1.0
        } else {
            f64::from(catalog::RUN_SECONDS)
        }),
        trace: args.trace,
        min_units: if args.quick { 3 } else { 10 },
        started,
    };
    let report = if cfg.trace {
        run::run_traced(&cfg, &out_dir())
    } else {
        run::run_end_to_end(&cfg)
    };
    println!("{DETAIL_PREFIX}{}", report.detail());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// All six workloads, one child process each (so `peak_rss_mib` is the
/// workload's own), gathered into one result set.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let no_result = || format!("{} printed no result (exit {})", w.name(), out.status);
        let detail = text.lines().find_map(|l| l.strip_prefix(DETAIL_PREFIX));
        let Value::Obj(mut entry) = json::parse(text.lines().last().ok_or_else(no_result)?)? else {
            return Err(no_result());
        };
        entry.extend_from_slice(json::parse(detail.ok_or_else(no_result)?)?.fields());
        let entry = Value::Obj(entry);
        all_correct &= entry.get("correct").and_then(Value::as_bool) == Some(true);
        entries.push((w.name(), entry));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let set = Value::obj([
        ("schema", Value::str("strom-benchmark-v1")),
        ("claim", Value::Null),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(args.trace)))),
        ("quick", Value::Bool(args.quick)),
        (
            "host",
            Value::obj([
                ("nproc", Value::Num(nproc as f64)),
                ("rustc", Value::str(rustc_version())),
            ]),
        ),
        ("workloads", Value::obj(entries)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| {
        out_dir().join(if args.trace {
            "results-trace.json"
        } else {
            "results.json"
        })
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{set}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a workload's outputs were wrong: see `correct` in the result set");
        ExitCode::FAILURE
    })
}

fn read_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some("--manifest") => {
            println!("{}", catalog::manifest_text());
            Ok(ExitCode::SUCCESS)
        }
        Some("--compare") => match &argv[1..] {
            [a, b] => read_set(a).and_then(|a| {
                let failures = compare::compare(&a, &read_set(b)?)?;
                for f in &failures {
                    eprintln!("{f}");
                }
                Ok(if failures.is_empty() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                })
            }),
            _ => Err("--compare takes two result sets".to_string()),
        },
        _ => parse_args(argv.into_iter()).and_then(|args| match args.workload {
            Some(w) => Ok(run_one(w, &args, started)),
            None => run_all(&args),
        }),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "incast_reads",
            "--seed",
            "11",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::IncastReads));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (11, Some(10.0), true, false)
        );
        let d = args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, 7, false));
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    /// Runs every workload's unit at two seeds: each passes every check,
    /// repeats bit for bit at one seed, and differs between seeds in both
    /// its fingerprint and its simulated time.
    #[test]
    fn second_seed_changes_fingerprints_and_passes_every_check() {
        for w in Workload::ALL {
            let a = workloads::run_unit(w, 7, None);
            let b = workloads::run_unit(w, 11, None);
            for u in [&a, &b] {
                assert_eq!(u.failed, 0, "{}", w.name());
                assert!(u.ops > 0 && u.sim_elapsed_ps > 0 && u.sim_latency_ps > 0);
            }
            assert_ne!(a.fingerprint, b.fingerprint, "{}", w.name());
            assert_ne!(a.sim_elapsed_ps, b.sim_elapsed_ps, "{}", w.name());
            assert_eq!(a, workloads::run_unit(w, 7, None), "{}", w.name());
        }
    }
}
