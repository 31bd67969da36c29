//! The `dcperf` CLI — the reproduction of DCPerf's `benchpress` driver:
//! list benchmarks, run one or all of them at a chosen scale, and write
//! JSON reports.
//!
//! ```sh
//! dcperf list
//! dcperf run                      # full suite, standard scale
//! dcperf run taobench --scale smoke --threads 8 --out ./reports
//! ```

#![forbid(unsafe_code)]

use dcperf::core::{RunConfig, Scale, Suite};
use dcperf::workloads::register_all;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dcperf list\n  dcperf run [benchmark] [--scale smoke|standard|production]\n             [--threads N] [--seed N] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_scale(s: &str) -> Scale {
    match s {
        "smoke" => Scale::SmokeTest,
        "standard" => Scale::Standard,
        "production" => Scale::Production,
        other => {
            eprintln!("unknown scale '{other}' (smoke|standard|production)");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };

    match command.as_str() {
        "list" => {
            let mut suite = Suite::new();
            register_all(&mut suite);
            println!("{} benchmarks registered:", suite.len());
            for name in suite.benchmark_names() {
                println!("  {name}");
            }
        }
        "run" => {
            let mut config = RunConfig::new();
            let mut target: Option<String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--scale" => {
                        config.scale = parse_scale(it.next().map(String::as_str).unwrap_or(""))
                    }
                    "--threads" => {
                        config.threads = it.next().and_then(|v| v.parse().ok()).or_else(|| usage())
                    }
                    "--seed" => {
                        config.seed = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage())
                    }
                    "--out" => {
                        config.output_dir =
                            it.next().map(std::path::PathBuf::from).or_else(|| usage())
                    }
                    other if !other.starts_with("--") && target.is_none() => {
                        target = Some(other.to_owned())
                    }
                    other => {
                        eprintln!("unknown argument '{other}'");
                        usage()
                    }
                }
            }
            let mut suite = Suite::new();
            register_all(&mut suite);
            match target {
                Some(name) => match suite.run(&name, &config) {
                    Ok(report) => match report.to_json() {
                        Ok(json) => println!("{json}"),
                        Err(e) => {
                            eprintln!("failed to serialize report: {e}");
                            std::process::exit(1);
                        }
                    },
                    Err(e) => {
                        eprintln!("benchmark failed: {e}");
                        std::process::exit(1);
                    }
                },
                None => match suite.run_all(&config) {
                    Ok(summary) => {
                        print!("{}", summary.render_table());
                        if let Some(dir) = &config.output_dir {
                            println!("reports written to {}", dir.display());
                        }
                    }
                    Err(e) => {
                        eprintln!("suite failed: {e}");
                        std::process::exit(1);
                    }
                },
            }
        }
        _ => usage(),
    }
}
