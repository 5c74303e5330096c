//! `aalign-perfbench` — the seeded layer-ladder benchmark's measuring
//! program. `run.py` drives it; see README.md for the workloads and
//! metrics.
//!
//! ```text
//! aalign-perfbench gen --seed N --seconds S --out DIR
//! aalign-perfbench run --workload NAME --seconds S --trace 0|1 --inputs DIR
//!                      --out DIR --aalign PATH [--seed N] [--commit ID]
//! ```
//!
//! `gen` writes the seeded inputs; `run` reads only those files, runs
//! one workload, writes `result.json` (and `spans.jsonl` when traced)
//! into `--out`, and prints the result object as its last stdout line.

mod check;
mod client;
mod inputs;
mod ladder;
mod run;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use aalign_obs::wire::{obj, JsonValue};

use crate::inputs::Workload;
use crate::run::{Ctx, Metric};
use crate::trace::Tracer;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("{name} is required"))
}

fn number<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name} expects a number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("run") => run(&args[1..]),
        _ => Err("usage: aalign-perfbench gen|run ... (see src/main.rs)".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn gen(args: &[String]) -> Result<(), String> {
    let seed: u64 = number(args, "--seed")?;
    let seconds: f64 = number(args, "--seconds")?;
    let out = PathBuf::from(required(args, "--out")?);
    let g = inputs::generate(seed, seconds);
    inputs::write(&g, &out).map_err(|e| format!("{}: {e}", out.display()))
}

/// `aalign info`'s report, one entry per non-empty line.
fn host_isa(aalign: &PathBuf) -> JsonValue {
    let lines = Command::new(aalign)
        .arg("info")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
        .unwrap_or_else(|e| format!("aalign info failed: {e}"));
    JsonValue::Array(
        lines
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(JsonValue::from)
            .collect(),
    )
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> JsonValue {
    JsonValue::Object(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", m.value.map_or(JsonValue::Null, JsonValue::from)),
                    ("unit", m.unit.into()),
                ];
                if with_samples {
                    fields.push(("samples", m.samples.into()));
                }
                (m.name.to_string(), obj(fields))
            })
            .collect(),
    )
}

fn run(args: &[String]) -> Result<(), String> {
    let name = required(args, "--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let traced = match required(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        workload,
        inputs: PathBuf::from(required(args, "--inputs")?),
        out: PathBuf::from(required(args, "--out")?),
        seconds: number(args, "--seconds")?,
        aalign: PathBuf::from(required(args, "--aalign")?),
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(traced, Instant::now());
    let mut m = run::measure(&ctx, &mut tr).map_err(|e| e.to_string())?;
    let metrics = if traced {
        ladder::per_layer(&ctx, &mut m, &mut tr).map_err(|e| e.to_string())?
    } else {
        run::end_to_end(&ctx, &m)
    };
    if let Some(d) = m.daemon.take() {
        d.stop().map_err(|e| e.to_string())?;
    }
    if let Some(s) = m.shards.take() {
        s.shutdown();
    }

    let attempted = m.phase.outcomes.len();
    let failed = m.phase.outcomes.iter().filter(|o| !o.ok).count();
    let correct = m.mismatches.is_empty();
    let stats = m.local.db.stats();
    let meta = obj(vec![
        ("workload", name.into()),
        ("seed", flag(args, "--seed").unwrap_or("unknown").into()),
        ("commit", flag(args, "--commit").unwrap_or("unknown").into()),
        ("nproc", ctx.threads.into()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("traced", traced.into()),
        ("host_isa", host_isa(&ctx.aalign)),
        (
            "backends",
            JsonValue::Object(
                m.backends
                    .iter()
                    .map(|(b, n)| (b.clone(), JsonValue::from(*n)))
                    .collect(),
            ),
        ),
        (
            "certified_widths",
            JsonValue::Array(m.certified_widths.iter().map(|&w| w.into()).collect()),
        ),
        ("db_sequences", stats.count.into()),
        ("db_residues", stats.total_residues.into()),
        ("distinct_queries", run::distinct(&m.queries).len().into()),
        ("setups", m.setup_s.len().into()),
        (
            "setup_ms_quartiles",
            JsonValue::Array(
                [0.0, 25.0, 50.0, 75.0, 100.0]
                    .iter()
                    .filter_map(|&p| stats::percentile(&m.setup_s, p))
                    .map(|s| JsonValue::from(s * 1e3))
                    .collect(),
            ),
        ),
        ("wall_s", m.phase.wall.as_secs_f64().into()),
        (
            "mismatches",
            JsonValue::Array(m.mismatches.iter().map(|s| s.as_str().into()).collect()),
        ),
    ]);

    println!("run metadata: {}", meta.render());
    // Figures are only comparable between runs on the same kernel
    // backend; say so up front when a run lands off AVX-512.
    for (backend, n) in m.backends.iter().filter(|(b, _)| !b.starts_with("avx512")) {
        println!("note: {n} distinct queries ran on backend {backend}, not AVX-512");
    }
    for mt in &metrics {
        let v = mt
            .value
            .map_or("missing".to_string(), |v| format!("{v:.6}"));
        println!(
            "  {:<28} {:>16} {:<6} n={}",
            mt.name, v, mt.unit, mt.samples
        );
    }
    let sample_errors: Vec<&str> = m
        .phase
        .outcomes
        .iter()
        .filter_map(|o| o.error.as_deref())
        .take(3)
        .collect();
    if !sample_errors.is_empty() {
        println!("first errors: {sample_errors:?}");
    }
    let full = obj(vec![
        ("meta", meta),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(&metrics, true)),
    ]);
    std::fs::write(ctx.out.join("result.json"), full.render() + "\n").map_err(|e| e.to_string())?;
    if traced {
        std::fs::write(ctx.out.join("spans.jsonl"), tr.to_jsonl()).map_err(|e| e.to_string())?;
    }
    if let Some(missing) = metrics.iter().find(|m| m.value.is_none()) {
        return Err(format!(
            "metric {} could not be measured (n={})",
            missing.name, missing.samples
        ));
    }
    let result = obj(vec![
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics_json(&metrics, false)),
    ]);
    println!("{}", result.render());
    Ok(())
}
