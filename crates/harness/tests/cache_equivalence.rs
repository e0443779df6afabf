//! Probe-cache equivalence suite: the persistent probe-verdict store
//! ([`elog_harness::probecache`], `--probe-cache`) must be a pure
//! accelerator. A cold run records verdicts on the side without touching
//! the search; a warm rerun answers every probe from the store and
//! simulates nothing; a corrupted store degrades to the cold path with a
//! warning. In every case the chosen geometry and the printed verdict
//! accounting must be exactly the uncached search's. (The corruption
//! *parser* unit tests live in the probecache module; this suite checks
//! the end-to-end search outcome.)

use elog_harness::latsearch::LatticeLimits;
use elog_harness::minspace::paper_base;
use elog_harness::{RunConfig, SearchOutcome, SearchRequest};
use std::path::{Path, PathBuf};

/// A scratch cache directory unique to this test process, removed on
/// drop so reruns always start cold.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let d = std::env::temp_dir().join(format!("elog-cache-equiv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("create scratch cache dir");
        ScratchDir(d)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn search(base: &RunConfig, cache: Option<&Path>) -> SearchOutcome {
    let limits = LatticeLimits {
        prefix_max: vec![18, 16],
        last_limit: 256,
    };
    let mut req = SearchRequest::lattice(base, limits).jobs(1);
    if let Some(dir) = cache {
        req = req.probe_cache_dir(dir);
    }
    req.run()
}

/// Asserts the printed surface is identical: geometry plus every counter
/// the CLI binaries put on stdout.
fn assert_same_output(tag: &str, a: &SearchOutcome, b: &SearchOutcome) {
    assert_eq!(
        a.min.generation_blocks, b.min.generation_blocks,
        "{tag}: geometry changed"
    );
    assert_eq!(
        a.min.total_blocks, b.min.total_blocks,
        "{tag}: total changed"
    );
    assert_eq!(a.min.probes, b.min.probes, "{tag}: probe count changed");
    assert_eq!(
        a.min.search.memo_hits, b.min.search.memo_hits,
        "{tag}: memo accounting changed"
    );
    assert_eq!(
        a.min.search.pruned_volume, b.min.search.pruned_volume,
        "{tag}: pruning changed"
    );
}

#[test]
fn cold_warm_and_corrupt_runs_match_the_uncached_search() {
    let base = paper_base(0.05, false, 16);
    let uncached = search(&base, None);

    let dir = ScratchDir::new("roundtrip");

    // Cold: the store is empty, so every verdict is earned live and
    // recorded; the search itself must not notice the recorder.
    let cold = search(&base, Some(dir.path()));
    assert_same_output("cold", &uncached, &cold);
    assert_eq!(cold.min.search.cache_hits, 0, "cold run hit an empty cache");
    assert!(
        cold.min.search.cache_misses > 0,
        "cold run consulted the cache for no probe"
    );

    // Warm: every probe is answered from the store — zero live probes —
    // with the identical printed outcome.
    let warm = search(&base, Some(dir.path()));
    assert_same_output("warm", &uncached, &warm);
    assert_eq!(
        warm.min.search.cache_misses, 0,
        "warm rerun still ran live probes"
    );
    assert!(warm.min.search.cache_hits > 0, "warm rerun never hit");
    assert!(
        warm.min.search.cache_seeded > 0,
        "warm rerun reports an empty seed"
    );

    // Corrupt the store in place: the run must fall back to live probes
    // (a cold run's shape) and still produce the identical outcome.
    let files: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("read scratch dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(!files.is_empty(), "cold run persisted no cache file");
    for f in &files {
        std::fs::write(f, "not a probe cache at all\n\u{0}garbage").expect("corrupt cache file");
    }
    let corrupt = search(&base, Some(dir.path()));
    assert_same_output("corrupt", &uncached, &corrupt);
    assert_eq!(
        corrupt.min.search.cache_hits, 0,
        "a discarded store must answer nothing"
    );
    assert_eq!(
        corrupt.min.search.cache_misses, cold.min.search.cache_misses,
        "the corrupt-store run must degrade to exactly the cold path"
    );

    // And the corrupt run re-persisted a good store: warm again.
    let rewarmed = search(&base, Some(dir.path()));
    assert_same_output("rewarmed", &uncached, &rewarmed);
    assert_eq!(
        rewarmed.min.search.cache_misses, 0,
        "the rewritten store must answer every probe again"
    );
}

#[test]
fn cache_composes_with_jobs() {
    // The accelerators stack: a warm cached run under the parallel prefix
    // scan still reports the serial uncached outcome.
    let base = paper_base(0.05, false, 16);
    let uncached = search(&base, None);
    let dir = ScratchDir::new("stacked");
    let limits = || LatticeLimits {
        prefix_max: vec![18, 16],
        last_limit: 256,
    };
    let cold = SearchRequest::lattice(&base, limits())
        .jobs(2)
        .probe_cache_dir(dir.path())
        .run();
    assert_same_output("stacked-cold", &uncached, &cold);
    let warm = SearchRequest::lattice(&base, limits())
        .jobs(2)
        .probe_cache_dir(dir.path())
        .run();
    assert_same_output("stacked-warm", &uncached, &warm);
    assert_eq!(
        warm.min.search.cache_misses, 0,
        "stacked warm rerun still ran live probes"
    );
}
