//! The two sweep workloads: `sort-sweep` (one CPU-bound family on every
//! core of one process) and `dynamic-spill` (the paper's dynamic-workload
//! families, serial, journaled, spilled to shards and replayed offline).

use crate::pins::Pins;
use crate::spans::Spans;
use crate::stats::{nproc, splitmix, Tally};
use drms::analysis::{best_fit, InputMetric, Model};
use drms::core::{report_io, DrmsConfig, DrmsProfiler};
use drms::sched::fnv1a;
use drms::trace::ShardSet;
use drms::vm::{replay_shards_into, DecodeMode};
use drms_bench::supervisor::{
    profile_cell_cached, run_supervised_with, CellCache, CellCtx, JournalWriter, SupervisorOptions,
};
use drms_bench::sweep::{SweepCell, SweepResult, SweepSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Guest seeds a workload seed draws from. Pinned fingerprints exist for
/// every cell of every pool seed, so any workload seed has references.
pub const GUEST_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Selection-sort step counts of `sort-sweep` (a cell of step count `s`
/// sorts arrays of 10..=10·s elements), longest first so the biggest
/// cells start first on the worker pool. An odd number of sizes puts the
/// median cell inside one size class instead of on the edge of two.
pub const SORT_SIZES: [i64; 5] = [96, 88, 80, 72, 64];

/// The dynamic-workload families of `dynamic-spill` with their sizes: at
/// least four per family, so every focus routine gets a cost fit, and 21
/// cells in all, so the median cell is one cell, not the edge of two.
pub const DYNAMIC_GRID: [(&str, &[i64]); 5] = [
    ("minidb", &[2048, 4096, 8192, 16384, 32768]),
    ("mysqlslap", &[512, 1024, 2048, 4096]),
    ("imgpipe", &[8, 16, 24, 32]),
    ("stream", &[8192, 16384, 32768, 65536]),
    ("producer-consumer", &[2048, 4096, 8192, 16384]),
];

/// Which sweep workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `sort-sweep`: jobs = nproc, no journal, no spill.
    Sort,
    /// `dynamic-spill`: jobs = 1, journal, every cell spilled and
    /// replayed.
    Dynamic,
}

/// A sweep workload instantiated from a workload seed.
pub struct SweepWorkload {
    /// Which workload.
    pub kind: Kind,
    /// One spec per family, in run order.
    pub specs: Vec<SweepSpec>,
    /// Per-run state (journals, shards); removed round by round.
    pub state_dir: PathBuf,
}

/// What one round (one pass over every spec) produced.
pub struct Round {
    /// Wall seconds of the timed part: the sweeps, plus shard load and
    /// replay on `dynamic-spill`.
    pub wall: f64,
    /// The sweep results, one per spec.
    pub results: Vec<SweepResult>,
    /// Shard frames lost, plus shard sets breaking the salvage law
    /// `salvaged + dropped == total` (must be 0).
    pub shard_dropped: u64,
    /// Per spilled cell, in grid order: whether its offline replay
    /// rendered the live report byte for byte.
    pub replay_identical: Vec<bool>,
}

impl Round {
    /// Guest instructions profiled in the round.
    pub fn instructions(&self) -> u64 {
        self.results.iter().map(SweepResult::instructions).sum()
    }

    /// Every completed cell's profiling seconds.
    pub fn cell_secs(&self) -> Vec<f64> {
        self.results
            .iter()
            .flat_map(|r| r.cells.iter().map(|c| c.secs))
            .collect()
    }
}

fn pick_seed(state: &mut u64, taken: &[u64]) -> u64 {
    loop {
        let s = GUEST_SEEDS[(splitmix(state) % GUEST_SEEDS.len() as u64) as usize];
        if !taken.contains(&s) {
            return s;
        }
    }
}

/// The specs a workload seed generates: two guest seeds for the sort
/// grid, one guest seed per dynamic family.
pub fn specs_for(kind: Kind, seed: u64) -> Vec<SweepSpec> {
    let mut state = seed;
    match kind {
        Kind::Sort => {
            let a = pick_seed(&mut state, &[]);
            let b = pick_seed(&mut state, &[a]);
            vec![SweepSpec::new("sort", &SORT_SIZES, nproc()).seeds(&[a, b])]
        }
        Kind::Dynamic => DYNAMIC_GRID
            .iter()
            .map(|(family, sizes)| {
                SweepSpec::new(family, sizes, 1).seeds(&[pick_seed(&mut state, &[])])
            })
            .collect(),
    }
}

/// The section a cell contributes to `SweepResult::merged_report_text`;
/// its FNV-1a hash is what [`Pins`] stores.
pub fn cell_section(family: &str, cell: &SweepCell) -> String {
    format!(
        "## cell family={family} size={} seed={} error={}\n{}",
        cell.size,
        cell.seed,
        cell.error.as_deref().unwrap_or("none"),
        report_io::to_text(&cell.report)
    )
}

impl SweepWorkload {
    /// The workload of `kind` for workload seed `seed`, keeping its
    /// per-run state under `state_dir`.
    pub fn new(kind: Kind, seed: u64, state_dir: &Path) -> SweepWorkload {
        SweepWorkload {
            kind,
            specs: specs_for(kind, seed),
            state_dir: state_dir.to_path_buf(),
        }
    }

    /// Set-up: builds every workload of the grid and its decoded image
    /// into a fresh cache. Returns the cache and the seconds it took.
    pub fn setup(&self) -> (CellCache, f64) {
        let start = Instant::now();
        let cache = CellCache::new();
        for spec in &self.specs {
            for &size in &spec.sizes {
                cache
                    .entry(&spec.family, size, DecodeMode::default())
                    .expect("benchmark families are known to the sweep");
            }
        }
        (cache, start.elapsed().as_secs_f64())
    }

    /// Runs one round; `index` names its state directory. Spans (when
    /// enabled) wrap the round, every cell, every shard load and replay.
    pub fn round(&self, cache: &CellCache, spans: &Spans, index: usize) -> std::io::Result<Round> {
        let dir = self.state_dir.join(format!("round-{index}"));
        let runner = |parent: Option<usize>| {
            move |ctx: &CellCtx| {
                spans.record("supervisor.cell", parent, |_| {
                    profile_cell_cached(ctx, cache)
                })
            }
        };
        let mut round = Round {
            wall: 0.0,
            results: Vec::new(),
            shard_dropped: 0,
            replay_identical: Vec::new(),
        };
        let start = Instant::now();
        spans.record("sweep.round", None, |round_id| -> std::io::Result<()> {
            for spec in &self.specs {
                let run = runner(round_id);
                let result = match self.kind {
                    Kind::Sort => {
                        run_supervised_with(spec, &SupervisorOptions::default(), None, &run)
                    }
                    Kind::Dynamic => {
                        std::fs::create_dir_all(&dir)?;
                        let opts = SupervisorOptions {
                            trace_dir: Some(dir.join("shards")),
                            ..SupervisorOptions::default()
                        };
                        let mut journal =
                            JournalWriter::create(&dir.join(format!("journal-{}", spec.family)))?;
                        let result = run_supervised_with(spec, &opts, Some(&mut journal), &run);
                        if !journal.is_active() {
                            return Err(std::io::Error::other("journal append failed"));
                        }
                        result
                    }
                };
                round.results.push(result);
            }
            if self.kind == Kind::Dynamic {
                for result in &round.results {
                    for cell in &result.cells {
                        let cell_dir = dir.join("shards").join(format!(
                            "cell-{}-{}-{}",
                            result.spec.family, cell.size, cell.seed
                        ));
                        let set = spans.record("trace.shard.load", round_id, |_| {
                            ShardSet::load(&cell_dir, 1)
                        })?;
                        round.shard_dropped += set.dropped;
                        if set.salvaged + set.dropped != set.total {
                            round.shard_dropped += 1;
                        }
                        let report = spans.record("trace.shard.replay", round_id, |_| {
                            let mut prof = DrmsProfiler::new(DrmsConfig::full());
                            replay_shards_into(&set, &mut prof);
                            prof.into_report()
                        });
                        // Equal reports render to identical bytes: the
                        // text form is a pure function of the report.
                        round.replay_identical.push(report == cell.report);
                    }
                }
            }
            Ok(())
        })?;
        round.wall = start.elapsed().as_secs_f64();
        if self.kind == Kind::Dynamic {
            std::fs::remove_dir_all(&dir)?;
            // Commit the deletion now, outside the timed window, so the
            // freed blocks are not handed to the next round's first fsync.
            std::fs::File::open(&self.state_dir)?.sync_all()?;
        }
        Ok(round)
    }
}

/// Checks a round's outputs against references that do not come from
/// the timed code path, counting one operation per check:
///
/// * every grid cell completed (not quarantined, no guest error) and its
///   report section hashes to the pinned `DecodeMode::Off` value;
/// * each focus routine's cost fit has the paper's shape;
/// * `Metrics::audit` passes on every sweep's merged registry;
/// * on `dynamic-spill`, every replayed report equals the live one and
///   no shard frame was lost.
pub fn verify(round: &Round, pins: &Pins, tally: &mut Tally) {
    for result in &round.results {
        let family = result.spec.family.as_str();
        for q in &result.quarantined {
            tally.check(false, || {
                format!(
                    "{family} size={} seed={} quarantined: {}",
                    q.size, q.seed, q.error
                )
            });
        }
        for cell in &result.cells {
            let got = fnv1a(cell_section(family, cell).as_bytes());
            let want = pins.get(family, cell.size, cell.seed);
            tally.check(cell.error.is_none() && want == Some(got), || {
                format!(
                    "{family} size={} seed={}: fingerprint {got:016x}, pinned {}",
                    cell.size,
                    cell.seed,
                    want.map_or("none".to_string(), |w| format!("{w:016x}"))
                )
            });
        }
        let problem = fit_problem(result);
        tally.check(problem.is_none(), || {
            format!("{family}: {}", problem.unwrap_or_default())
        });
        let audit = result.merged_metrics().audit();
        tally.check(audit.is_ok(), || {
            format!("{family}: metrics audit {audit:?}")
        });
    }
    for (i, &same) in round.replay_identical.iter().enumerate() {
        tally.check(same, || {
            format!("spilled cell {i}: replayed report differs from the live one")
        });
    }
    tally.check(round.shard_dropped == 0, || {
        format!("{} shard frame(s) dropped", round.shard_dropped)
    });
}

/// Whether the focus routine's fitted cost model disagrees with the
/// paper: selection sort is quadratic; minidb, stream and
/// producer-consumer collapse to one rms point and fit drms linearly.
fn fit_problem(result: &SweepResult) -> Option<String> {
    let drms = best_fit(&result.focus_plot(InputMetric::Drms).points, 0.02).model;
    match result.spec.family.as_str() {
        "sort" => (drms != Model::Quadratic).then(|| format!("drms fit {drms:?}, want Quadratic")),
        "minidb" | "stream" | "producer-consumer" => {
            let rms_points = result.focus_plot(InputMetric::Rms).points.len();
            (rms_points != 1 || drms != Model::Linear).then(|| {
                format!("rms points {rms_points} (want 1), drms fit {drms:?} (want Linear)")
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunDir;

    fn tiny(kind: Kind, specs: Vec<SweepSpec>, dir: &Path) -> SweepWorkload {
        SweepWorkload {
            kind,
            specs,
            state_dir: dir.to_path_buf(),
        }
    }

    /// Pins taken from the round itself: a correct table for it.
    fn pins_of(round: &Round) -> Vec<(String, i64, u64, u64)> {
        round
            .results
            .iter()
            .flat_map(|r| {
                r.cells.iter().map(|c| {
                    let fp = fnv1a(cell_section(&r.spec.family, c).as_bytes());
                    (r.spec.family.clone(), c.size, c.seed, fp)
                })
            })
            .collect()
    }

    fn table(rows: &[(String, i64, u64, u64)]) -> Pins {
        let borrowed: Vec<(&str, i64, u64, u64)> = rows
            .iter()
            .map(|(f, s, g, p)| (f.as_str(), *s, *g, *p))
            .collect();
        Pins::from_rows(&borrowed)
    }

    #[test]
    fn an_injected_wrong_fingerprint_counts_as_failed() {
        let dir = RunDir::new("test-fingerprint").unwrap();
        let spec = SweepSpec::new("sort", &[6, 5, 4, 3], 2).seeds(&[1, 2]);
        let w = tiny(Kind::Sort, vec![spec], dir.path());
        let (cache, _) = w.setup();
        let round = w.round(&cache, &Spans::new(false), 0).unwrap();
        let mut rows = pins_of(&round);
        let mut clean = Tally::default();
        verify(&round, &table(&rows), &mut clean);
        assert_eq!(clean.failed, 0, "{:?}", clean.notes);
        // 8 cells + 1 fit + 1 audit + 1 shard-loss check.
        assert_eq!(clean.attempted, 11);

        rows[3].3 ^= 1;
        let mut dirty = Tally::default();
        verify(&round, &table(&rows), &mut dirty);
        assert_eq!((dirty.attempted, dirty.failed), (11, 1));
        assert!(
            dirty.notes[0].contains("size=5 seed=2"),
            "{:?}",
            dirty.notes
        );
        assert!(dirty.failed_ratio() > 0.0);

        let mut missing = Tally::default();
        verify(&round, &Pins::default(), &mut missing);
        assert_eq!(missing.failed, 8, "an unpinned cell is a failure too");
    }

    #[test]
    fn dynamic_rounds_replay_identically_and_leave_no_state() {
        let dir = RunDir::new("test-cleanup").unwrap();
        let path = dir.path().to_path_buf();
        let specs = vec![
            SweepSpec::new("stream", &[16, 32, 64, 128], 1).seeds(&[3]),
            SweepSpec::new("producer-consumer", &[16, 32, 64, 128], 1).seeds(&[4]),
        ];
        let w = tiny(Kind::Dynamic, specs, &path);
        let (cache, _) = w.setup();
        for i in 0..2 {
            let round = w.round(&cache, &Spans::new(false), i).unwrap();
            assert_eq!(round.replay_identical, vec![true; 8]);
            assert_eq!(round.shard_dropped, 0);
            let mut t = Tally::default();
            verify(&round, &table(&pins_of(&round)), &mut t);
            assert_eq!(t.failed, 0, "{:?}", t.notes);
            let left: Vec<_> = std::fs::read_dir(&path).unwrap().collect();
            assert!(
                left.is_empty(),
                "round {i} left journals or shards behind: {left:?}"
            );
        }
        drop(dir);
        assert!(!path.exists(), "the run directory is removed on drop");
    }

    #[test]
    fn seeds_pick_pinned_guest_seeds_deterministically() {
        for seed in [0, 1, 77, u64::MAX] {
            let sort = specs_for(Kind::Sort, seed);
            assert_eq!(sort, specs_for(Kind::Sort, seed));
            assert_eq!(sort[0].seeds.len(), 2);
            assert_ne!(sort[0].seeds[0], sort[0].seeds[1]);
            let pins = Pins::committed();
            for spec in sort.iter().chain(&specs_for(Kind::Dynamic, seed)) {
                for (size, guest) in spec.grid() {
                    assert!(
                        pins.get(&spec.family, size, guest).is_some(),
                        "{} {size} {guest}",
                        spec.family
                    );
                }
            }
        }
        assert_ne!(specs_for(Kind::Dynamic, 1), specs_for(Kind::Dynamic, 2));
    }
}
