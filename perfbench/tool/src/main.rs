//! The in-process half of the parra benchmark (`perfbench/run.py`).
//!
//! * `gen` writes a workload's seeded inputs and their reference verdicts
//!   to a manifest; the client then drives the `parra` binary with them.
//! * `trace` replays a manifest through the engines' public API, once
//!   untraced and once with a span around every layer call, and prints
//!   the per-layer ledger as one JSON line.
//!
//! Usage:
//!
//! ```text
//! parra-perfbench gen <workload> <seed> <count> <dir>
//! parra-perfbench trace <dir> <manifest> <timeout-ms>
//! ```

mod gen;
mod manifest;
mod replay;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["gen", workload, seed, count, dir] => parse_num(seed)
            .and_then(|seed| Ok((seed, parse_num(count)? as usize)))
            .and_then(|(seed, count)| gen::generate(workload, seed, count, dir.as_ref())),
        ["trace", dir, manifest, timeout_ms] => parse_num(timeout_ms)
            .and_then(|t| replay::run(dir.as_ref(), manifest, t))
            .map(|json| println!("{json}")),
        _ => Err(
            "usage: parra-perfbench gen <workload> <seed> <count> <dir> | \
                  trace <dir> <manifest> <timeout-ms>"
                .to_string(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("parra-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: `{s}`"))
}
