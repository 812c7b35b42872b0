//! `wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a provenance line, then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}` as JSON.
//! Exits 1 when the run's outputs were wrong, 2 on bad arguments.

use wallbench::{provenance, run, RunConfig, Workload};

fn parse_args() -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("bad --seed `{value}`: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds `{value}`: {e}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace `{other}` (want 0 or 1)")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&config);
    for e in &outcome.log {
        eprintln!("wallbench: gate: {e}");
    }
    println!("{}", provenance(&config));
    println!("{}", outcome.to_json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
