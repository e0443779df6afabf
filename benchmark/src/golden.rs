//! `golden.json`: the result digest and simulated-time results of every
//! workload at the default seed. Compared on every default-seed run and
//! rewritten only by `--record-golden`, so a change that claims to move
//! host speed alone can show every simulated statistic unchanged.

use crate::json::{number, parse, quote, Value};
use crate::workloads::{Kind, Sim, DEFAULT_SEED};
use std::path::Path;

/// The committed goldens, as of the build.
const COMMITTED: &str = include_str!("../golden.json");

/// What a golden entry pins for one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    pub digest: u64,
    pub events: u64,
    pub sim: Sim,
}

impl Entry {
    fn to_json(&self) -> String {
        format!(
            "{{\"digest\": {}, \"events\": {}, \"sim_log_bw\": {}, \
             \"sim_peak_mem_bytes\": {}, \"sim_space_blocks\": {}, \
             \"sim_killed\": {}, \"sim_started\": {}}}",
            quote(&format!("{:#018x}", self.digest)),
            self.events,
            number(self.sim.log_bw),
            self.sim.peak_mem_bytes,
            self.sim.space_blocks,
            self.sim.killed,
            self.sim.started,
        )
    }

    fn from_json(v: &Value) -> Option<Entry> {
        let int = |k: &str| v.get(k).and_then(Value::as_f64).map(|x| x as u64);
        let hex = v.get("digest")?.as_str()?.strip_prefix("0x")?;
        Some(Entry {
            digest: u64::from_str_radix(hex, 16).ok()?,
            events: int("events")?,
            sim: Sim {
                log_bw: v.get("sim_log_bw")?.as_f64()?,
                peak_mem_bytes: int("sim_peak_mem_bytes")?,
                space_blocks: int("sim_space_blocks")?,
                killed: int("sim_killed")?,
                started: int("sim_started")?,
            },
        })
    }
}

fn entries(text: &str) -> Vec<(String, Entry)> {
    parse(text)
        .ok()
        .as_ref()
        .and_then(|doc| doc.get("workloads"))
        .map(|w| {
            w.members()
                .iter()
                .filter_map(|(name, v)| Some((name.clone(), Entry::from_json(v)?)))
                .collect()
        })
        .unwrap_or_default()
}

/// How a run's results compare with the committed golden.
#[derive(Debug, PartialEq)]
pub enum Status {
    Match,
    /// The simulation's results moved: model drift, not noise.
    Mismatch {
        golden: Entry,
    },
    /// Only full-size runs at the default seed have a golden.
    NotComparable,
}

pub fn compare(kind: Kind, seed: u64, smoke: bool, got: &Entry) -> Status {
    if seed != DEFAULT_SEED || smoke {
        return Status::NotComparable;
    }
    match entries(COMMITTED)
        .into_iter()
        .find(|(n, _)| n == kind.name())
    {
        None => Status::NotComparable,
        Some((_, golden)) if golden == *got => Status::Match,
        Some((_, golden)) => Status::Mismatch { golden },
    }
}

/// Rewrites `path` with `got` as the entry of `kind`, keeping the others.
pub fn record(path: &Path, kind: Kind, got: &Entry) -> std::io::Result<()> {
    let mut all = entries(&std::fs::read_to_string(path).unwrap_or_default());
    all.retain(|(n, _)| n != kind.name());
    all.push((kind.name().to_string(), got.clone()));
    let order = |name: &str| Kind::ALL.iter().position(|k| k.name() == name);
    all.sort_by_key(|(n, _)| order(n));
    let body: Vec<String> = all
        .iter()
        .map(|(n, e)| format!("    {}: {}", quote(n), e.to_json()))
        .collect();
    std::fs::write(
        path,
        format!(
            "{{\n  \"seed\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            quote(&format!("{DEFAULT_SEED:#x}")),
            body.join(",\n")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: u64) -> Entry {
        Entry {
            digest,
            events: 316_000,
            sim: Sim {
                log_bw: 11.523_456_789_012_3,
                peak_mem_bytes: 123_456,
                space_blocks: 34,
                killed: 0,
                started: 50_000,
            },
        }
    }

    #[test]
    fn entries_round_trip_through_the_file_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("elbench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("golden.json");
        record(&path, Kind::Churn, &entry(u64::MAX)).unwrap();
        record(&path, Kind::Steady, &entry(7)).unwrap();
        record(&path, Kind::Churn, &entry(9)).unwrap();
        let all = entries(&std::fs::read_to_string(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            all,
            vec![
                ("steady".to_string(), entry(7)),
                ("churn".to_string(), entry(9))
            ]
        );
    }

    #[test]
    fn committed_goldens_cover_every_workload() {
        let all = entries(COMMITTED);
        let names: Vec<_> = all.iter().map(|(n, _)| n.as_str()).collect();
        let ours: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn only_full_default_seed_runs_are_comparable() {
        let e = entry(1);
        assert_eq!(compare(Kind::Steady, 2, false, &e), Status::NotComparable);
        assert_eq!(
            compare(Kind::Steady, DEFAULT_SEED, true, &e),
            Status::NotComparable
        );
        assert!(matches!(
            compare(Kind::Steady, DEFAULT_SEED, false, &e),
            Status::Mismatch { .. }
        ));
    }
}
