//! Persistent probe-verdict cache (`--probe-cache <dir>`).
//!
//! A probe verdict — "does geometry `g` survive this workload?" — is a
//! pure function of the run configuration's capture-determining fields
//! (seed, mix, arrivals, horizon, non-geometry log parameters) and the
//! geometry itself. Repeated invocations (CI smokes, benchgate runs,
//! iterated `repro` sessions) therefore re-simulate verdicts that cannot
//! have changed. This module stores them: one content-addressed file per
//! search base, keyed by the hash of [`crate::RunConfig::verdict_key`]
//! mixed with [`ENGINE_SEMANTICS_VERSION`], holding `geometry = verdict`
//! lines plus the workload trace's content fingerprint for
//! defense-in-depth staleness detection.
//!
//! A search opens its handle before the first probe ([`open`] /
//! [`open_in`]), consults it memo-style on every probe (after the frozen
//! dominance memo, the analytic threshold and the consumption certificate
//! — the cache only ever replaces the final simulation step, so every
//! printed probe count matches the uncached search), records every fresh
//! verdict, and persists the merged set on completion. A warm rerun of the
//! same scenario answers every probe from the seed and executes **zero**
//! live probes.
//!
//! # Robustness
//!
//! The cache is an accelerator, never an authority over correctness
//! concerns it cannot see: a truncated, garbage, version-skewed or
//! stale-fingerprint file is *discarded whole* with a warning on stderr —
//! the search falls back to live probes and produces byte-identical
//! output, and the next persist overwrites the bad file. Nothing in this
//! module panics on malformed input.

use crate::runner::RunConfig;
use elog_sim::FxHashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Bump whenever a change could alter any probe verdict for an unchanged
/// [`RunConfig::verdict_key`]: engine event semantics, workload
/// generation, kill rules. Old cache files then key-miss instead of
/// serving stale verdicts.
pub const ENGINE_SEMANTICS_VERSION: u32 = 1;

/// First line of every cache file; parsing rejects anything else.
const MAGIC: &str = "elog-probe-cache v1";

/// Process-wide cache directory (`--probe-cache`); `None` disables the
/// cache for searches that don't override it per request.
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Sets (or clears) the process-wide cache directory; the CLI flag sets
/// it once at startup.
pub fn set_dir(dir: Option<PathBuf>) {
    *DIR.lock().expect("probe-cache dir") = dir;
}

/// The process-wide cache directory, if any.
pub fn dir() -> Option<PathBuf> {
    DIR.lock().expect("probe-cache dir").clone()
}

/// 64-bit FNV-1a over a byte string (the key hash; collisions only cost a
/// fingerprint-mismatch warning, never a wrong verdict, because the file
/// stores the full trace fingerprint as a second check).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache key of a search base: hash of the canonical verdict-relevant
/// configuration (probe-normalised: probes always run with
/// `stop_on_kill`, no oracle) mixed with the engine-semantics version.
///
/// The canonical text is the configuration's `Debug` form, so adding or
/// removing a `RunConfig` field re-keys every verdict (dropping `shards`
/// did): existing cache directories go cold once. Harmless — stdout is
/// cache-invariant.
fn key_of(base: &RunConfig) -> u64 {
    let canon = base.clone().stop_on_kill(true).track_oracle(false);
    let text = format!("v{ENGINE_SEMANTICS_VERSION};{}", canon.verdict_key());
    fnv64(text.as_bytes())
}

/// One search's handle on its cache file: the seeded verdicts (read once
/// at open) and the metadata needed to persist the merged set.
#[derive(Debug)]
pub struct CacheHandle {
    path: PathBuf,
    key: u64,
    /// Trace content fingerprint recorded in the file (`None` for a cold
    /// file); [`CacheHandle::persist`] prefers the live trace's.
    fingerprint: Option<u64>,
    seed: FxHashMap<Vec<u32>, bool>,
}

impl CacheHandle {
    /// The seeded verdict for a full geometry, if present.
    pub fn lookup(&self, blocks: &[u32]) -> Option<bool> {
        self.seed.get(blocks).copied()
    }

    /// Number of verdicts the file seeded.
    pub fn seeded(&self) -> usize {
        self.seed.len()
    }

    /// Merges `new` verdicts over the seed and atomically rewrites the
    /// file (temp + rename). `trace_fp` is the live trace's fingerprint
    /// when one materialised this run; a fully warm run passes `None` and
    /// the file keeps its recorded one. Write errors warn and leave the
    /// old file in place — the cache never fails a search.
    pub fn persist(&self, new: &[(Vec<u32>, bool)], trace_fp: Option<u64>) {
        if new.is_empty() {
            return;
        }
        let mut merged: Vec<(Vec<u32>, bool)> = self
            .seed
            .iter()
            .map(|(g, &v)| (g.clone(), v))
            .chain(new.iter().cloned())
            .collect();
        merged.sort();
        merged.dedup();
        let mut text = String::new();
        text.push_str(MAGIC);
        text.push('\n');
        text.push_str(&format!("key {:016x}\n", self.key));
        text.push_str(&format!(
            "trace {:016x}\n",
            trace_fp.or(self.fingerprint).unwrap_or(0)
        ));
        for (g, v) in &merged {
            let blocks: Vec<String> = g.iter().map(u32::to_string).collect();
            text.push_str(&blocks.join(","));
            text.push('=');
            text.push(if *v { 'S' } else { 'K' });
            text.push('\n');
        }
        let write = || -> std::io::Result<()> {
            if let Some(parent) = self.path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            let tmp = self.path.with_extension("tmp");
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &self.path)
        };
        if let Err(e) = write() {
            eprintln!(
                "[probe-cache] warning: could not persist {}: {e}",
                self.path.display()
            );
        }
    }
}

/// A parsed cache body: the verdict seed plus the stored trace
/// fingerprint (if any).
type ParsedSeed = (FxHashMap<Vec<u32>, bool>, Option<u64>);

/// Parses a cache file body against the expected key and (optional)
/// expected trace fingerprint. Any malformation is an `Err` — the caller
/// discards the whole file.
fn parse(text: &str, key: u64, expect_fp: Option<u64>) -> Result<ParsedSeed, String> {
    let mut lines = text.lines();
    if lines.next() != Some(MAGIC) {
        return Err("bad magic/version header".into());
    }
    let key_line = lines.next().ok_or("truncated before key line")?;
    let file_key = key_line
        .strip_prefix("key ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("malformed key line")?;
    if file_key != key {
        return Err(format!("key mismatch ({file_key:016x} != {key:016x})"));
    }
    let fp_line = lines.next().ok_or("truncated before trace line")?;
    let file_fp = fp_line
        .strip_prefix("trace ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or("malformed trace line")?;
    let file_fp = (file_fp != 0).then_some(file_fp);
    if let (Some(expect), Some(found)) = (expect_fp, file_fp) {
        if expect != found {
            return Err(format!(
                "stale trace fingerprint ({found:016x}, expected {expect:016x})"
            ));
        }
    }
    let mut seed = FxHashMap::default();
    for line in lines {
        let (geom, verdict) = line.split_once('=').ok_or("entry missing '='")?;
        let blocks: Vec<u32> = geom
            .split(',')
            .map(|b| b.parse::<u32>().map_err(|e| format!("bad block: {e}")))
            .collect::<Result<_, _>>()?;
        if blocks.is_empty() {
            return Err("empty geometry".into());
        }
        let v = match verdict {
            "S" => true,
            "K" => false,
            other => return Err(format!("bad verdict {other:?}")),
        };
        seed.insert(blocks, v);
    }
    Ok((seed, file_fp))
}

/// Opens the handle for `base` in an explicit directory. Always returns a
/// handle: a missing file is simply a cold (empty) seed; a corrupt or
/// stale file warns on stderr and seeds empty, so the search falls back
/// to live probes with unchanged output.
pub fn open_in(dir: &Path, base: &RunConfig, expect_fp: Option<u64>) -> CacheHandle {
    let key = key_of(base);
    let path = dir.join(format!("{key:016x}.probes"));
    let (seed, fingerprint) = match std::fs::read_to_string(&path) {
        Ok(text) => match parse(&text, key, expect_fp) {
            Ok(parsed) => parsed,
            Err(why) => {
                eprintln!(
                    "[probe-cache] warning: discarding {}: {why}",
                    path.display()
                );
                (FxHashMap::default(), None)
            }
        },
        // Cold cache (or unreadable — either way, live probes).
        Err(_) => (FxHashMap::default(), None),
    };
    CacheHandle {
        path,
        key,
        fingerprint: expect_fp.or(fingerprint),
        seed,
    }
}

/// Opens the handle for `base` in the process-wide directory, or `None`
/// when `--probe-cache` is off.
pub fn open(base: &RunConfig, expect_fp: Option<u64>) -> Option<CacheHandle> {
    dir().map(|d| open_in(&d, base, expect_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minspace::paper_base;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("elog-probecache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create temp cache dir");
        d
    }

    #[test]
    fn key_ignores_geometry_and_trace_but_not_semantics() {
        let base = paper_base(0.05, false, 20);
        let k = key_of(&base);
        assert_eq!(k, key_of(&base.clone().geometry(vec![4, 4, 4])));
        assert_eq!(k, key_of(&base.clone().stop_on_kill(false)));
        assert_ne!(k, key_of(&base.clone().seed(1)));
        assert_ne!(k, key_of(&base.clone().runtime_secs(21)));
        assert_ne!(k, key_of(&base.clone().lifetime_hints(true)));
        assert_ne!(
            k,
            key_of(&{
                let mut b = base.clone();
                b.el.log.recirculation = true;
                b
            })
        );
    }

    #[test]
    fn key_is_tenant_aware() {
        // A serve base over a tenant partition answers a different
        // semantic question than the single-workload run (tid namespaces,
        // per-tenant seed streams and oid slices), so its verdicts must
        // never collide with the classic run's — nor with a different
        // partition of the same space.
        use crate::runner::TenantLayout;
        let base = paper_base(0.05, false, 20);
        let n = base.el.db.num_objects;
        let two = base.clone().with_tenants(Some(TenantLayout::even(n, 2)));
        let four = base.clone().with_tenants(Some(TenantLayout::even(n, 4)));
        assert_ne!(key_of(&base), key_of(&two));
        assert_ne!(key_of(&two), key_of(&four));
        assert_eq!(key_of(&two), key_of(&two.clone()));
    }

    #[test]
    fn roundtrip_persists_and_seeds() {
        let dir = tmpdir("roundtrip");
        let base = paper_base(0.05, false, 20);
        let cold = open_in(&dir, &base, None);
        assert_eq!(cold.seeded(), 0);
        cold.persist(&[(vec![18, 16], true), (vec![18, 9], false)], Some(0xABCD));
        let warm = open_in(&dir, &base, Some(0xABCD));
        assert_eq!(warm.seeded(), 2);
        assert_eq!(warm.lookup(&[18, 16]), Some(true));
        assert_eq!(warm.lookup(&[18, 9]), Some(false));
        assert_eq!(warm.lookup(&[18, 10]), None);
        // Persisting merges over the seed.
        warm.persist(&[(vec![18, 10], true)], Some(0xABCD));
        let again = open_in(&dir, &base, Some(0xABCD));
        assert_eq!(again.seeded(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The three corruption classes of the robustness contract: each must
    /// seed empty (fall back to live probes) without panicking; the
    /// warning goes to stderr, which tests can't capture portably, so the
    /// observable contract is the empty seed.
    #[test]
    fn truncated_file_falls_back_to_empty_seed() {
        let dir = tmpdir("truncated");
        let base = paper_base(0.05, false, 20);
        let handle = open_in(&dir, &base, None);
        handle.persist(&[(vec![18, 16], true)], Some(7));
        // Truncate mid-entry: header intact, last line cut.
        let text = std::fs::read_to_string(&handle.path).unwrap();
        std::fs::write(&handle.path, &text[..text.len() - 3]).unwrap();
        let warm = open_in(&dir, &base, Some(7));
        assert_eq!(warm.seeded(), 0, "truncated file must seed empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_file_falls_back_to_empty_seed() {
        let dir = tmpdir("garbage");
        let base = paper_base(0.05, false, 20);
        let cold = open_in(&dir, &base, None);
        std::fs::write(&cold.path, "not a cache file\n\u{0}\u{1}binary junk").unwrap();
        let warm = open_in(&dir, &base, None);
        assert_eq!(warm.seeded(), 0, "garbage file must seed empty");
        // And the next persist overwrites it cleanly.
        warm.persist(&[(vec![18, 16], true)], Some(7));
        assert_eq!(open_in(&dir, &base, Some(7)).seeded(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_fingerprint_falls_back_to_empty_seed() {
        let dir = tmpdir("stale");
        let base = paper_base(0.05, false, 20);
        let cold = open_in(&dir, &base, None);
        cold.persist(&[(vec![18, 16], true)], Some(0xDEAD));
        // Same key, different workload capture: must be discarded.
        let warm = open_in(&dir, &base, Some(0xBEEF));
        assert_eq!(warm.seeded(), 0, "stale fingerprint must seed empty");
        // Without an expected fingerprint (no trace yet) the file loads —
        // the version-salted key is the primary guard there.
        let lax = open_in(&dir, &base, None);
        assert_eq!(lax.seeded(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_in_file_is_discarded() {
        let dir = tmpdir("keymismatch");
        let base = paper_base(0.05, false, 20);
        let cold = open_in(&dir, &base, None);
        std::fs::write(
            &cold.path,
            format!("{MAGIC}\nkey 00000000deadbeef\ntrace 0000000000000007\n18,16=S\n"),
        )
        .unwrap();
        let warm = open_in(&dir, &base, None);
        assert_eq!(warm.seeded(), 0, "foreign key must be discarded");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
