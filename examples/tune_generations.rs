//! Tune the last generation's size — the Figure 7 trade-off.
//!
//! With recirculation on and gen0 pinned, sweep the last generation from
//! its kill-free minimum upward and watch bandwidth fall as space grows.
//! This is the knob the paper's §6 wishes a DBA did not have to set by
//! hand ("Ideally, we would like an adaptable version of EL that
//! dynamically chooses the number and sizes of generations itself").
//!
//! ```text
//! cargo run --release --example tune_generations [g0] [runtime_secs]
//! ```

use elog_harness::cli;
use elog_harness::experiments::fig7;
use elog_harness::sweep::{run_scenarios, ExecOptions};
use elog_model::LogConfig;

const USAGE: &str = "tune_generations [g0] [runtime_secs]
  g0                      gen0 size in blocks, above the 2-block gap
                          (default 18)
  runtime_secs            simulated seconds per run, 1 to 3600 (default 120)";

fn parse(args: Vec<String>) -> Result<(u32, u64), String> {
    let args: cli::Args = &mut args.into_iter();
    let g0 = cli::value_or("g0", args, 18)?;
    LogConfig {
        generation_blocks: vec![g0],
        ..LogConfig::default()
    }
    .validate()
    .map_err(|e| format!("g0 {g0}: {e}"))?;
    let runtime = cli::runtime_secs(args)?;
    cli::no_more(args)?;
    Ok((g0, runtime))
}

fn main() {
    let (g0, runtime) = cli::parse_env(USAGE, parse);

    let cfg = fig7::Config {
        frac_long: 0.05,
        g0,
        g1_max: 16,
        runtime_secs: runtime,
    };
    println!(
        "sweeping last-generation size with gen0 = {g0}, recirculation on, {runtime} s runs...\n"
    );
    let outcomes = run_scenarios(&fig7::scenarios_for(&cfg), &ExecOptions::default());
    let points = fig7::surviving_points(&outcomes);
    println!("{}", fig7::table(&points).render());
    let first = points.first().expect("at least one kill-free geometry");
    let last = points.last().expect("at least one kill-free geometry");
    println!(
        "smallest kill-free geometry: {} + {} = {} blocks",
        g0,
        first.g1,
        g0 + first.g1
    );
    println!(
        "bandwidth at minimum vs roomiest: {:.2} vs {:.2} block writes/s",
        first.measured.metrics.log_write_rate, last.measured.metrics.log_write_rate
    );
    println!("(paper: space 34 -> 28 blocks cost only 12.87 -> 12.99 writes/s)");
}
