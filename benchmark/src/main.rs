//! Run one benchmark workload and print its result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <seeded-x86|corpus-proofs|serve-warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Progress and problems go to standard error; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). A run whose outputs fail a check exits with code 1.

use std::time::Duration;

use regalloc_benchmark::{regime, run, Size, Spec, Workload};

fn parse_args() -> Result<Spec, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !(seconds.is_finite() && (0.0..=120.0).contains(&seconds)) {
        return Err("--seconds must be between 0 and 120".to_string());
    }
    Ok(Spec {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        jobs: regime::JOBS,
        size: Size::Full,
    })
}

fn main() {
    let spec = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: --workload <seeded-x86|corpus-proofs|serve-warm> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out = run(&spec);
    for p in out.problems.iter().take(20) {
        eprintln!("benchmark: {p}");
    }
    println!("{}", out.json(spec.trace));
    if !out.correct() {
        std::process::exit(1);
    }
}
