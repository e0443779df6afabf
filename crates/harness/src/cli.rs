//! The command lines of the harness binaries.
//!
//! [`elsim`] is the simulator's one parser: it validates the run flags into
//! a [`RunConfig`] whose `tenants` field carries `--tenants` /
//! `--oid-ranges`, so a one-tenant run and a served run are one
//! configuration type built by one function. Everything arriving from the
//! shell is checked here — geometry, rates, tenant counts — and comes back
//! as a one-line `Err` naming the flag, so the `expect("validated
//! configuration")`s further in hold. [`parse_env`] is every binary's (and
//! example's) front door: `--help` prints the usage text and exits 0, an
//! `Err` goes to stderr and exits 2. `repro` keeps its own flag loop and
//! shares [`value`] / [`positive`] with this one; the examples read their
//! positional arguments with [`value_or`], [`runtime_secs`] and
//! [`no_more`]. [`print()`] is every binary's way to stdout.

use crate::latsearch::MAX_AXES;
use crate::runner::{RunConfig, TenantLayout};
use crate::serve::{parse_oid_ranges, validate_layout, validate_tenants};
use elog_core::{ElConfig, MemoryModel};
use elog_model::{FlushConfig, LogConfig};
use elog_sim::SimTime;
use elog_workload::{ArrivalProcess, PhaseSchedule, MAX_RATE_TPS};
use std::str::FromStr;

/// `elsim --help`.
pub const ELSIM_USAGE: &str = "elsim [options]
  --mode el|fw            technique (default el)
  --fw-blocks N           FW log size (default 123; implies --mode fw)
  --gens G0,G1[,G2...]    generation sizes in blocks (default 18,16)
  --recirc                enable recirculation in the last generation
  --frac-long P           fraction of 10 s transactions (default 0.05)
  --tps R                 arrivals per second, per tenant (default 100; at
                          most 1000000, one per simulated microsecond, also
                          once scaled by --phases)
  --poisson               Poisson instead of deterministic arrivals
  --runtime S             simulated seconds (default 500)
  --drives N              flush drives (default 10)
  --flush-ms T            flush transfer time, ms (default 25)
  --seed N                random seed, decimal or 0x-prefixed hex (default
                          0x5EED1993; tenant 0 uses it raw, tenants 1..
                          draw independent splitmix64 streams from it)
  --phases SPEC           piecewise workload schedule
                          `start:frac_long[@rate_factor],...` over the
                          paper type table, e.g. `0:0.1,160:0.4,330:0.1`
                          (first start must be 0; seconds, ascending)
  --tenants T             logical tenants sharing the one log (default 1,
                          at most 65536); more than one prints the
                          per-tenant report
  --budget N              per-tenant live-record admission budget; a
                          tenant at its budget has arrivals refused until
                          flushes drain its footprint (default 0 =
                          unlimited; refusals never touch neighbours); a
                          budget prints the per-tenant report
  --oid-ranges B:L,...    explicit per-tenant oid ranges (one BASE:LEN
                          per tenant; must tile the whole oid space
                          disjointly). Default: an even partition
  --min-space             search the minimum geometry instead of running,
                          over every geometry with as many generations as
                          --gens gives (their sizes are not read; 1 gen
                          or --mode fw: the firewall log)
  --no-cert               disable the consumption certificates: simulate
                          every probe in full (the output must not
                          change)
  --adaptive              run the online adaptive generation controller
                          (stderr summary; stdout is byte-identical to
                          a non-adaptive run when the workload is
                          static, because the controller never acts)";

/// A binary's command line, as its parser consumes it.
pub type Args<'a> = &'a mut dyn Iterator<Item = String>;

/// Parses the process's command line with `parse`, or ends the process:
/// `--help` / `-h` anywhere prints `usage` to stdout and exits 0; a parse
/// error prints its one line to stderr and exits 2.
pub fn parse_env<T>(usage: &str, parse: impl FnOnce(Vec<String>) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print(&format!("{usage}\n"));
        std::process::exit(0);
    }
    parse(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Writes `text` to stdout, or ends the process: a reader that closed the
/// pipe (`repro | head -1`) has what it asked for, so that is a quiet exit
/// 0; any other write error is one stderr line and exit 2. `println!`
/// panics on both, which `panic = "abort"` turns into SIGABRT after all
/// the work is done.
pub fn print(text: &str) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        std::process::exit(2);
    }
}

/// The value following `flag`, parsed.
pub fn value<T: FromStr>(flag: &str, args: Args) -> Result<T, String> {
    let raw = args
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag} {raw}: not a valid value"))
}

/// Like [`value`], for counts that must be at least 1.
pub fn positive(flag: &str, args: Args) -> Result<usize, String> {
    match value(flag, args)? {
        0 => Err(format!("{flag} 0: must be at least 1")),
        n => Ok(n),
    }
}

/// The next positional argument, parsed and named as by [`value`], or
/// `default` once the command line has run out.
pub fn value_or<T: FromStr>(name: &str, args: Args, default: T) -> Result<T, String> {
    match args.next() {
        Some(raw) => value(name, &mut std::iter::once(raw)),
        None => Ok(default),
    }
}

/// Errs on an argument left over once a positional command line is read.
pub fn no_more(args: Args) -> Result<(), String> {
    match args.next() {
        Some(extra) => Err(format!("unexpected argument `{extra}`; --help lists them")),
        None => Ok(()),
    }
}

/// The examples' optional `runtime_secs` argument: simulated seconds per
/// run, 120 when absent. Zero measures nothing, and more than an hour is a
/// paper-scale sweep, which is `repro`'s job.
pub fn runtime_secs(args: Args) -> Result<u64, String> {
    let secs = value_or("runtime_secs", args, 120)?;
    if !(1..=3600).contains(&secs) {
        return Err(format!(
            "runtime_secs {secs}: must be 1 to 3600 simulated seconds"
        ));
    }
    Ok(secs)
}

/// Most blocks one generation may have: 2 GiB of simulated log, 1 024×
/// the search's doubling stop. The ring allocates a slot per block up front, so
/// a size from the shell is bounded before it sizes an allocation.
const MAX_GENERATION_BLOCKS: u32 = 1 << 20;

/// The flags that shape the run, at their defaults (the paper's base
/// configuration).
struct RunFlags {
    /// `--mode fw` / `--fw-blocks`: firewall memory pricing.
    firewall: bool,
    adaptive: bool,
    gens: Vec<u32>,
    /// The flag `gens` came from, for error messages: `--gens` or
    /// `--fw-blocks`.
    gens_flag: &'static str,
    recirc: bool,
    frac_long: f64,
    tps: f64,
    poisson: bool,
    runtime: u64,
    drives: u32,
    flush_ms: u64,
    seed: u64,
    phases: Option<PhaseSchedule>,
}

impl Default for RunFlags {
    fn default() -> Self {
        RunFlags {
            firewall: false,
            adaptive: false,
            gens: vec![18, 16],
            gens_flag: "--gens",
            recirc: false,
            frac_long: 0.05,
            tps: 100.0,
            poisson: false,
            runtime: 500,
            drives: 10,
            flush_ms: 25,
            seed: 0x5EED_1993,
            phases: None,
        }
    }
}

impl RunFlags {
    /// Validates the flags into a run configuration.
    fn build(self) -> Result<RunConfig, String> {
        if !(0.0..=1.0).contains(&self.frac_long) {
            return Err(format!(
                "--frac-long {}: must lie in [0, 1]",
                self.frac_long
            ));
        }
        let rate_tps = self.tps;
        let arrivals = if self.poisson {
            ArrivalProcess::Poisson { rate_tps }
        } else {
            ArrivalProcess::Deterministic { rate_tps }
        };
        arrivals
            .validate()
            .map_err(|e| format!("--tps {rate_tps}: {e}"))?;
        if let Some(phases) = &self.phases {
            let factor = phases
                .phases()
                .iter()
                .map(|p| p.rate_factor)
                .fold(1.0, f64::max);
            if rate_tps * factor > MAX_RATE_TPS {
                return Err(format!(
                    "--phases: the largest rate factor lifts --tps {rate_tps} above \
                     {MAX_RATE_TPS} arrivals per second, one per microsecond of the \
                     simulation clock"
                ));
            }
        }
        let gens_flag = self.gens_flag;
        let log = LogConfig {
            generation_blocks: self.gens,
            recirculation: self.recirc,
            ..LogConfig::default()
        };
        let gens = &log.generation_blocks;
        log.validate()
            .map_err(|e| format!("{gens_flag} {gens:?}: {e}"))?;
        if let Some(big) = gens.iter().find(|&&b| b > MAX_GENERATION_BLOCKS) {
            return Err(format!(
                "{gens_flag} {gens:?}: a generation of {big} blocks exceeds the \
                 {MAX_GENERATION_BLOCKS}-block ceiling"
            ));
        }
        let flush = FlushConfig {
            drives: self.drives,
            transfer_time: SimTime::from_millis(self.flush_ms),
        };
        flush
            .validate()
            .map_err(|e| format!("--drives {} --flush-ms {}: {e}", self.drives, self.flush_ms))?;
        let mut el = ElConfig::ephemeral(log, flush);
        if u64::from(self.drives) > el.db.num_objects {
            return Err(format!(
                "--drives {}: at most one drive per object ({} objects)",
                self.drives, el.db.num_objects
            ));
        }
        if self.firewall {
            el.memory_model = MemoryModel::Firewall;
        }
        Ok(RunConfig::paper(self.frac_long, el)
            .with_arrivals(arrivals)
            .runtime_secs(self.runtime)
            .seed(self.seed)
            .with_phases(self.phases)
            .adaptive(self.adaptive))
    }
}

/// What an `elsim` command line asks for.
#[derive(Debug)]
pub struct Elsim {
    /// The configuration to run (or to search from, under `--min-space`);
    /// `run.tenants` is the oid partition when `--tenants` is above 1.
    pub run: RunConfig,
    /// `--budget`: per-tenant live-record admission budget (0 = unlimited).
    pub budget: u64,
    /// `--min-space`: search the minimum geometry instead of running.
    pub min_space: bool,
    /// Consumption certificates in the search; `--no-cert` clears this.
    pub certificates: bool,
}

/// Parses and validates an `elsim` command line (without the program
/// name). The error is one line for stderr.
pub fn elsim(args: impl IntoIterator<Item = String>) -> Result<Elsim, String> {
    let args: Args = &mut args.into_iter();
    let mut run = RunFlags::default();
    let mut tenants = 1usize;
    let mut budget = 0u64;
    let mut oid_ranges = None;
    let mut min_space = false;
    let mut certificates = true;
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        match flag {
            "--mode" => {
                run.firewall = match value::<String>(flag, args)?.as_str() {
                    "el" => false,
                    "fw" => true,
                    other => return Err(format!("--mode {other}: expected `el` or `fw`")),
                }
            }
            "--fw-blocks" => {
                run.firewall = true;
                run.gens_flag = "--fw-blocks";
                run.gens = vec![value(flag, args)?];
            }
            "--gens" => {
                let list: String = value(flag, args)?;
                run.gens_flag = "--gens";
                run.gens = list
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|_| format!("--gens {list}: not a list of block counts"))?;
            }
            "--recirc" => run.recirc = true,
            "--frac-long" => run.frac_long = value(flag, args)?,
            "--tps" => run.tps = value(flag, args)?,
            "--poisson" => run.poisson = true,
            "--runtime" => run.runtime = value(flag, args)?,
            "--drives" => run.drives = value(flag, args)?,
            "--flush-ms" => run.flush_ms = value(flag, args)?,
            "--seed" => {
                let raw: String = value(flag, args)?;
                let parsed = match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                };
                run.seed = parsed.map_err(|_| format!("{flag} {raw}: not a valid value"))?;
            }
            "--phases" => {
                let spec: String = value(flag, args)?;
                run.phases =
                    Some(PhaseSchedule::parse(&spec).map_err(|e| format!("--phases {spec}: {e}"))?);
            }
            "--tenants" => tenants = value(flag, args)?,
            "--budget" => budget = value(flag, args)?,
            "--oid-ranges" => {
                let spec: String = value(flag, args)?;
                oid_ranges =
                    Some(parse_oid_ranges(&spec).map_err(|e| format!("--oid-ranges {spec}: {e}"))?);
            }
            "--adaptive" => run.adaptive = true,
            "--min-space" => min_space = true,
            "--no-cert" => certificates = false,
            _ => return Err(format!("unknown flag `{arg}`; elsim --help lists them")),
        }
    }
    // A served run measures one fixed geometry: a search would probe every
    // tenant's workload as one, and `serve_run` runs no controller.
    let served = if tenants > 1 {
        Some(("--tenants", tenants as u64))
    } else if budget > 0 {
        Some(("--budget", budget))
    } else {
        None
    };
    let solo = if min_space {
        Some("--min-space")
    } else if run.adaptive {
        Some("--adaptive")
    } else {
        None
    };
    if let (Some((flag, n)), Some(other)) = (served, solo) {
        return Err(format!(
            "{flag} {n} cannot be combined with {other}: a served run neither searches nor adapts"
        ));
    }
    if run.gens.len() > MAX_AXES {
        return Err(format!(
            "--gens supports at most {MAX_AXES} generations, got {}",
            run.gens.len()
        ));
    }
    let mut run = run.build()?;
    let num_objects = run.el.db.num_objects;
    validate_tenants(tenants, num_objects).map_err(|e| format!("--tenants {tenants}: {e}"))?;
    if let Some(layout) = &oid_ranges {
        if layout.tenants() != tenants {
            return Err(format!(
                "--oid-ranges lists {} ranges for {tenants} tenants; one range per tenant",
                layout.tenants()
            ));
        }
        validate_layout(layout, num_objects).map_err(|e| format!("--oid-ranges: {e}"))?;
    }
    // One tenant owns the whole oid space (the only one-range layout that
    // validates), which is the classic run: only a partition is kept.
    if tenants > 1 {
        let layout = oid_ranges.unwrap_or_else(|| TenantLayout::even(num_objects, tenants));
        run = run.with_tenants(Some(layout));
    }
    Ok(Elsim {
        run,
        budget,
        min_space,
        certificates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// The ten workload and geometry flags, each with a non-default value.
    const RUN: &str = "--gens 36,32,8 --recirc --frac-long 0.2 --tps 50 --poisson \
        --runtime 60 --drives 8 --flush-ms 45 --seed 7 --phases 0:0.1,30:0.4@2";

    #[test]
    fn every_documented_flag_parses() {
        let lines = [
            "",
            RUN,
            "--mode el",
            "--mode fw --gens 123",
            "--fw-blocks 123",
            "--adaptive",
            "--min-space --no-cert",
            "--tenants 4 --budget 64",
            "--tenants 65536",
            "--tenants 2 --oid-ranges 0:4000000,4000000:6000000",
            "--tenants 1 --oid-ranges 0:10000000 --min-space --adaptive",
        ];
        for line in lines {
            assert!(elsim(args(line)).is_ok(), "elsim {line}");
        }
    }

    #[test]
    fn flags_land_in_the_configuration() {
        let e = elsim(args(&format!("{RUN} --adaptive --min-space"))).unwrap();
        assert_eq!(e.run.el.log.generation_blocks, vec![36, 32, 8]);
        assert!(e.run.el.log.recirculation && e.run.adaptive && e.min_space);
        assert_eq!(e.run.arrivals, ArrivalProcess::Poisson { rate_tps: 50.0 });
        assert_eq!(e.run.runtime, SimTime::from_secs(60));
        assert_eq!((e.run.el.flush.drives, e.run.seed), (8, 7));
        assert_eq!(e.run.el.flush.transfer_time, SimTime::from_millis(45));
        assert!(e.run.phases.is_some());
        assert_eq!((e.run.tenants, e.budget), (None, 0));

        let fw = elsim(args("--fw-blocks 123")).unwrap().run.el;
        assert_eq!(fw.log.generation_blocks, vec![123]);
        assert_eq!(fw.memory_model, MemoryModel::Firewall);

        let s = elsim(args("--tenants 4 --budget 64")).unwrap();
        let even = TenantLayout::even(s.run.el.db.num_objects, 4);
        assert_eq!((s.run.tenants, s.budget), (Some(even), 64));
        let ranges = "--tenants 2 --oid-ranges 0:4000000,4000000:6000000";
        let split = elsim(args(ranges)).unwrap().run.tenants.unwrap();
        assert_eq!(split.ranges, vec![(0, 4_000_000), (4_000_000, 6_000_000)]);
        // One tenant owns the whole oid space: that is the classic run.
        let one = elsim(args("--tenants 1 --oid-ranges 0:10000000")).unwrap();
        assert_eq!(one.run.tenants, None);
    }

    #[test]
    fn seed_reads_decimal_and_the_hex_the_usage_text_prints() {
        let seed = |line: &str| elsim(args(line)).map(|e| e.run.seed);
        assert_eq!(seed(""), Ok(0x5EED_1993));
        assert_eq!(seed("--seed 0x5EED1993"), seed(""));
        assert_eq!(seed("--seed 1592596883"), seed(""));
        assert_eq!(seed("--seed 0X5eed1993"), seed(""));
        for bad in ["--seed 0x", "--seed 0xg", "--seed 5EED1993", "--seed -1"] {
            let err = seed(bad).expect_err(bad);
            assert!(err.contains("--seed"), "`{bad}` → `{err}`");
        }
    }

    #[test]
    fn hostile_values_are_errors_naming_the_flag() {
        let table = [
            ("--gens 0", "--gens"),
            ("--gens 18,0", "--gens"),
            ("--gens 18,x", "--gens"),
            ("--gens 9,9,9,9,9,9,9,9,9", "--gens"),
            ("--gens", "--gens"),
            ("--tenants 3 --gens 0", "--gens"),
            // Sizes that would otherwise size the ring's allocation, and a
            // drive count `FlushArray::new` asserts against.
            ("--gens 4294967295,4294967295 --runtime 1", "--gens"),
            ("--gens 18,1048577", "--gens"),
            ("--fw-blocks 4294967295 --runtime 1", "--fw-blocks"),
            ("--drives 4294967295 --runtime 1", "--drives"),
            ("--tps 0", "--tps"),
            ("--tps nan", "--tps"),
            ("--tps -5", "--tps"),
            // Rates finer than the 1 µs clock: arrivals would pile onto one
            // instant (or never advance it) instead of erroring.
            ("--tps 1e12 --runtime 1", "--tps"),
            ("--poisson --tps 1e9 --runtime 1", "--tps"),
            ("--tps 1500000", "--tps"),
            ("--phases 0:0.1@1e300 --runtime 5", "--phases"),
            ("--tps 600000 --phases 0:0.1,5:0.1@2", "--phases"),
            ("--mode bogus", "--mode"),
            ("--frac-long 2", "--frac-long"),
            ("--drives 0", "--drives"),
            ("--flush-ms 0", "--flush-ms"),
            ("--shards 2", "--shards"),
            ("--probe-jobs 4", "--probe-jobs"),
            ("--min-space --jobs 2", "--jobs"),
            ("--phases 5:0.1", "--phases"),
            // A served run neither searches nor adapts.
            ("--tenants 2 --min-space", "--tenants"),
            ("--budget 8 --adaptive", "--budget"),
            ("--tenants 0", "--tenants"),
            ("--tenants 65537", "--tenants"),
            ("--tenants 99999999", "--tenants"),
            ("--tenants 3 --oid-ranges 0:5,5:5", "--oid-ranges"),
        ];
        for (line, flag) in table {
            let err = elsim(args(line)).expect_err(line);
            assert!(
                err.contains(flag),
                "`{line}` → `{err}` does not name {flag}"
            );
            assert!(!err.contains('\n'), "`{line}` → multi-line `{err}`");
        }
        // The ceilings themselves are legal.
        let at_ceiling = format!("--gens 18,{MAX_GENERATION_BLOCKS} --drives 10000000");
        assert!(elsim(args(&at_ceiling)).is_ok());
        assert!(elsim(args("--tps 1000000")).is_ok());
        assert!(elsim(args("--tps 500000 --phases 0:0.1@2")).is_ok());
        // The two tenant limits are named in the message.
        let err = elsim(args("--tenants 65537")).unwrap_err();
        assert!(err.contains("65536"), "{err}");
        let err = elsim(args("--tenants 99999999")).unwrap_err();
        assert!(err.contains("10000000 objects"), "{err}");
    }
}
