//! `elbench` — the repo's reference benchmark. One workload, one
//! single-threaded process, every metric printed by name with its unit,
//! outputs checked. README.md in this directory is the manual.
//!
//! ```text
//! elbench --workload <name> [--seed <u64>] [--seconds <s>]
//!         [--trace 0|1 | --traced] [--smoke] [--record-golden]
//! ```
//!
//! Untraced (the default) it prints the end-to-end metrics; `--traced` it
//! prints the per-layer metrics, the ledger, and writes the spans to
//! `benchmark/out/<workload>.trace.json`. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod drills;
mod golden;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use elog_sim::perfstats::{allocations, CountingAlloc};
use metrics::{Values, END_TO_END};
use std::time::Instant;
use trace::{CallFolds, Tracer, NONE};
use workloads::{Checks, Ctx, Kind, PassOut, Scale, Setup, DEFAULT_SEED};

#[global_allocator]
static ALLOC: CountingAlloc<std::alloc::System> = CountingAlloc(std::alloc::System);

/// Set-ups per run: `setup_s` is their median, so one cold start does not
/// decide it.
const SETUPS: usize = 3;
/// Fewest timed passes, however long one takes.
const MIN_PASSES: u32 = 5;
/// The traced run spends half its `--seconds` on passes and the rest on
/// drills, so both kinds of run cost the driver about the same.
const MIN_TRACED_PASSES: u32 = 3;

#[derive(Debug, PartialEq)]
struct Opts {
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    record_golden: bool,
}

fn usage() -> String {
    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: elbench --workload <{}> [--seed <u64>] [--seconds <s>] \
         [--trace 0|1 | --traced] [--smoke] [--record-golden]",
        names.join("|")
    )
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut kind = None;
    let mut opts = Opts {
        kind: Kind::Steady,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        traced: false,
        smoke: false,
        record_golden: false,
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let mut operand = || args.next().ok_or(format!("{a} needs an operand"));
        match a.as_str() {
            "--workload" => {
                let name = operand()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let s = operand()?;
                opts.seed = parse_u64(&s).ok_or(format!("--seed: `{s}` is not a u64"))?;
            }
            "--seconds" => {
                let s = operand()?;
                opts.seconds = s
                    .parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite() && *x >= 0.0)
                    .ok_or(format!("--seconds: `{s}` is not a duration"))?;
            }
            "--trace" => {
                opts.traced = match operand()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => opts.traced = true,
            "--smoke" => opts.smoke = true,
            "--record-golden" => opts.record_golden = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    opts.kind = kind.ok_or("--workload is required")?;
    if opts.record_golden && (opts.smoke || opts.traced || opts.seed != DEFAULT_SEED) {
        return Err("--record-golden records full untraced runs at the default seed".into());
    }
    Ok(opts)
}

/// Host CPU seconds the process (every thread: a search runs its probes
/// on a scoped worker) has used: utime + stime of `/proc/self/stat`, in
/// clock ticks of 1/100 s.
fn cpu_seconds() -> f64 {
    let ticks = || -> Option<f64> {
        let text = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name, in parentheses, may hold spaces: fields count
        // from after it (state is 0, utime 11, stime 12).
        let mut fields = text.rsplit(')').next()?.split_whitespace().skip(11);
        Some(fields.next()?.parse::<f64>().ok()? + fields.next()?.parse::<f64>().ok()?)
    };
    ticks().unwrap_or(0.0) / 100.0
}

/// `VmHWM`: the most memory the process has held resident so far.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Everything one run measured, for the reports.
pub struct Measured {
    pub setup: Setup,
    /// Host seconds of each set-up, as read and calibrated
    /// (`calib::calibrated`).
    pub setup_walls: Vec<f64>,
    pub setup_cal: Vec<f64>,
    /// Untraced warm-up pass of each set-up.
    pub warm_walls: Vec<f64>,
    /// Host seconds of each timed pass, as read and calibrated.
    pub pass_walls: Vec<f64>,
    pub pass_cal: Vec<f64>,
    /// Every yardstick reading: before the first set-up, after each
    /// set-up, after each pass.
    pub yard_s: Vec<f64>,
    pub pass_allocs: Vec<u64>,
    pub last: PassOut,
    /// Call folds per input, summed over the traced passes.
    pub folds: Vec<CallFolds>,
    pub cpu_s_per_pass: f64,
    /// `VmHWM` once the fewest passes a run may make are done — not at
    /// exit: the heap keeps fragmenting pass after pass, and how many more
    /// passes fit into `--seconds` depends on the host's speed that day.
    pub peak_rss_mb: f64,
}

fn measure(opts: &Opts, tracer: &mut Tracer, checks: &mut Checks) -> Measured {
    let scale = Scale { smoke: opts.smoke };
    let mut folds: Vec<CallFolds> = Vec::new();

    let mut yardstick = calib::Yardstick::new();
    let mut yard_s = vec![yardstick.time()];
    // Times `wall` seconds that ended just now: reads the yardstick again
    // and calibrates by it and the reading before.
    let mut calibrate = |wall: f64| {
        let before = *yard_s.last().expect("seeded with one reading");
        yard_s.push(yardstick.time());
        calib::calibrated(wall, before, yard_s[yard_s.len() - 1])
    };

    let mut setup_walls = Vec::new();
    let mut setup_cal = Vec::new();
    let mut warm_walls = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..if opts.smoke { 1 } else { SETUPS } {
        tracer.open("setup", NONE, NONE);
        let t = Instant::now();
        let s = workloads::setup(
            opts.kind,
            opts.seed,
            scale,
            &mut Ctx {
                tracer,
                checks,
                core_timing: false,
                folds: &mut folds,
                pass: NONE,
            },
        );
        let wall = t.elapsed().as_secs_f64();
        tracer.close();
        setup_walls.push(wall);
        setup_cal.push(calibrate(wall));
        warm_walls.push(s.warm_wall_s);
        if let Some(first) = &setup {
            checks.check(
                first.reference.digest == s.reference.digest && first.sim == s.sim,
                || "two set-ups from one seed disagree".to_string(),
            );
        }
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");

    let (min_passes, budget_s) = match (opts.smoke, opts.traced) {
        (true, _) => (1, 0.0),
        (false, false) => (MIN_PASSES, opts.seconds),
        (false, true) => (MIN_TRACED_PASSES, opts.seconds / 2.0),
    };
    let mut pass_walls = Vec::new();
    let mut pass_cal = Vec::new();
    let mut pass_allocs = Vec::new();
    let mut last = None;
    let mut peak_rss = 0.0;
    let phase = Instant::now();
    let cpu0 = cpu_seconds();
    let mut pass = 0;
    while pass < min_passes || phase.elapsed().as_secs_f64() < budget_s {
        tracer.open("pass", pass, NONE);
        let allocs0 = allocations();
        let t = Instant::now();
        let out = workloads::pass(
            &setup.inputs,
            &mut Ctx {
                tracer,
                checks,
                core_timing: opts.traced,
                folds: &mut folds,
                pass,
            },
        );
        let wall = t.elapsed().as_secs_f64();
        pass_allocs.push(allocations() - allocs0);
        tracer.close();
        pass_walls.push(wall);
        pass_cal.push(calibrate(wall));
        // Every pass repeats the warm-up pass's simulation exactly —
        // through `Timed` too: tracing must not perturb it.
        checks.check(out.digest == setup.reference.digest, || {
            format!(
                "pass {pass}: digest {:#x}, warm-up pass {:#x}",
                out.digest, setup.reference.digest
            )
        });
        checks.check(out.events == setup.reference.events, || {
            format!(
                "pass {pass}: {} events, warm-up pass {}",
                out.events, setup.reference.events
            )
        });
        last = Some(out);
        pass += 1;
        if pass == min_passes {
            peak_rss = peak_rss_mb();
        }
    }
    Measured {
        setup,
        setup_walls,
        setup_cal,
        warm_walls,
        cpu_s_per_pass: (cpu_seconds() - cpu0) / f64::from(pass),
        peak_rss_mb: peak_rss,
        pass_walls,
        pass_cal,
        yard_s,
        pass_allocs,
        last: last.expect("at least one pass"),
        folds,
    }
}

fn end_to_end(m: &Measured) -> Values {
    let mut v = Values::new(END_TO_END);
    v.set("wall_s", stats::median(&m.pass_cal));
    v.set("allocs", stats::median_u64(&m.pass_allocs));
    v.set("peak_rss_mb", m.peak_rss_mb);
    v.set("setup_s", stats::median(&m.setup_cal));
    v.set("sim_log_bw", m.setup.sim.log_bw);
    v.set("sim_peak_mem_bytes", m.setup.sim.peak_mem_bytes as f64);
    v.set("sim_space_blocks", m.setup.sim.space_blocks as f64);
    v
}

/// Where the benchmark's own files live, from the directory it is run in
/// (the repo root, or `benchmark/` itself).
fn bench_dir() -> std::path::PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        "benchmark".into()
    } else {
        ".".into()
    }
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("elbench: {why}\n{}", usage());
        std::process::exit(2);
    });
    let mut tracer = Tracer::new(opts.traced);
    let mut checks = Checks::default();
    let m = measure(&opts, &mut tracer, &mut checks);

    let entry = golden::Entry {
        digest: m.last.digest,
        events: m.last.events,
        sim: m.setup.sim,
    };
    let status = golden::compare(opts.kind, opts.seed, opts.smoke, &entry);
    println!(
        "# elbench workload={} seed={:#x} traced={} smoke={} nproc={}",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.traced),
        u8::from(opts.smoke),
        report::nproc()
    );
    report::print_passes(&m);

    let values = if opts.traced {
        let drilled = report::run_drills(&m.setup.inputs, &mut tracer);
        let values = report::per_layer(&m, &drilled, &tracer, &checks, &status);
        report::print_values(&values);
        report::print_ledger(&m, &drilled, &tracer);
        let path = bench_dir()
            .join("out")
            .join(format!("{}.trace.json", opts.kind.name()));
        match report::write_trace(&path, opts.kind, opts.seed, &tracer, &m.folds) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("elbench: cannot write {}: {e}", path.display()),
        }
        values
    } else {
        let values = end_to_end(&m);
        report::print_values(&values);
        values
    };
    report::print_checks(&checks, &status, &entry);

    if opts.record_golden {
        let path = bench_dir().join("golden.json");
        if let Err(e) = golden::record(&path, opts.kind, &entry) {
            eprintln!("elbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "golden: recorded {} in {}",
            opts.kind.name(),
            path.display()
        );
    }
    println!(
        "{}",
        metrics::result_line(checks.attempted, checks.failed, &values)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Opts, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let o = args("--workload churn --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(
            o,
            Opts {
                kind: Kind::Churn,
                seed: 42,
                seconds: 7.0,
                traced: true,
                smoke: false,
                record_golden: false,
            }
        );
        let o = args("--workload steady --seed 0x5EED1993 --trace 0").unwrap();
        assert_eq!((o.seed, o.traced, o.seconds), (DEFAULT_SEED, false, 10.0));
        assert!(args("--workload steady --traced").unwrap().traced);
    }

    #[test]
    fn bad_command_lines_are_refused_with_a_reason() {
        let e = args("--workload nope").unwrap_err();
        assert!(e.contains("unknown workload `nope`"), "{e}");
        for k in Kind::ALL {
            assert!(usage().contains(k.name()));
        }
        assert!(args("").unwrap_err().contains("--workload is required"));
        assert!(args("--workload steady --seed x").is_err());
        assert!(args("--workload steady --seconds -1").is_err());
        assert!(args("--workload steady --trace 2").is_err());
        assert!(args("--workload steady --seed").is_err());
        assert!(args("--workload steady --record-golden --seed 2").is_err());
        assert!(args("--workload steady --record-golden --smoke").is_err());
    }

    #[test]
    fn host_probes_read_something() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
