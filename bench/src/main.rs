//! `run` measures; `compare` judges two `run.json` files. See
//! `bench/README.md`.

use oaken_servebench::compare::compare_files;
use oaken_servebench::report::{run_json, WorkloadResult};
use oaken_servebench::run::{run_workload, Mode, Options};
use oaken_servebench::workload::{default_specs, smoke_specs};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  oaken-servebench run [--seed N] [--workload NAME] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  oaken-servebench compare A.json B.json";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut args = args;
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.push((name.to_owned(), String::new()))
                }
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    flags.push((name.to_owned(), value));
                }
                None => words.push(arg),
            }
        }
        Ok(Self { flags, words })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
            None => Ok(default),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.get("smoke").is_some();
    let mut specs = if smoke {
        smoke_specs()
    } else {
        default_specs()
    };
    if let Some(name) = args.get("workload") {
        specs.retain(|s| s.name == name);
        if specs.is_empty() {
            return Err(format!("unknown workload '{name}'"));
        }
    }
    let opts = Options {
        seed: args.number("seed", 1u64)?,
        seconds: args.number("seconds", if smoke { 0.4 } else { 20.0 })?,
        mode: match args.get("trace") {
            None => Mode::Both,
            Some("0") => Mode::EndToEnd,
            Some("1") => Mode::PerLayer,
            Some(v) => return Err(format!("--trace: bad value '{v}'")),
        },
        probe_secs: if smoke { 0.01 } else { 0.1 },
        out: PathBuf::from(args.get("out").unwrap_or("bench/out")),
    };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut results: Vec<WorkloadResult> = Vec::new();
    for spec in &specs {
        let result = run_workload(spec, &opts).map_err(|e| format!("{}: {e}", spec.name))?;
        if !result.correct() {
            // An output-check failure ends the run before any metric prints.
            for failure in &result.failures {
                eprintln!("output check failed: {failure}");
            }
            return Ok(ExitCode::FAILURE);
        }
        results.push(result);
    }
    let host = oaken_servebench::host::record_json();
    std::fs::create_dir_all(&opts.out)
        .and_then(|()| {
            std::fs::write(
                opts.out.join("run.json"),
                run_json(opts.seed, &host, &results),
            )
        })
        .map_err(|e| format!("run.json: {e}"))?;
    println!("host {host}");
    for result in &results {
        print!("{}", result.lines());
        println!("{}", result.result_json());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let outcome = match argv.next().as_deref() {
        Some("run") => Args::parse(argv, &["smoke"]).and_then(|a| run(&a)),
        Some("compare") => Args::parse(argv, &[]).and_then(|a| match a.words.as_slice() {
            [before, after] => compare_files(before, after).map(|report| {
                print!("{report}");
                ExitCode::SUCCESS
            }),
            _ => Err(USAGE.into()),
        }),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::from(2)
    })
}
