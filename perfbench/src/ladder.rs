//! The traced run (`--trace 1`): per-layer metrics, measured by timing
//! calls into each crate's public functions from outside.
//!
//! Every workload climbs the same ladder, on its own representative cell
//! and grid, so each per-layer metric is present in every traced run:
//!
//! 1. the workload's own rounds, alternating untraced and traced, give
//!    `bench.trace_overhead`, the span residual and the counts;
//! 2. one representative cell climbs the interpreter, profiler, tool and
//!    shard rungs, each repeated and reported as a median;
//! 3. small grids price the supervisor's journal and parallel dispatch;
//! 4. an idle in-process daemon prices `aprofd`'s handler, transport
//!    and job phases.

use crate::loopback::{self, field, HttpClient, Running};
use crate::pins::Pins;
use crate::spans::{self_time, Spans};
use crate::stats::{median, nproc, percentile, Tally};
use crate::sweeps::{self, specs_for, Kind, SweepWorkload};
use crate::Report;
use drms::core::{report_io, DrmsConfig, DrmsProfiler};
use drms::prelude::ProfileSession;
use drms::trace::{Metrics, ShardSet};
use drms::vm::{replay_shards_into, DecodeMode, DecodedProgram, NullTool, RunConfig, Vm};
use drms_aprofd::http::Request;
use drms_aprofd::{Conn, JobSpec};
use drms_bench::artifact::atomic_write;
use drms_bench::supervisor::{
    profile_cell_cached, run_supervised_with, CellCache, JournalWriter, SupervisorOptions,
};
use drms_bench::sweep::{family_workload, SweepResult, SweepSpec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Every per-layer metric: name, unit and the end-to-end metric (and
/// workload) it should move.
pub const LAYERS: &[(&str, &str, &str)] = &[
    (
        "workloads.build_ms",
        "ms",
        "setup_s on sort-sweep and dynamic-spill",
    ),
    (
        "vm.decode.ms",
        "ms",
        "setup_s on sort-sweep and dynamic-spill",
    ),
    (
        "vm.interp.ns_per_instr",
        "ns",
        "instr_per_s on sort-sweep; barely anything on aprofd-loopback",
    ),
    (
        "vm.interp.blocks_ns_per_instr",
        "ns",
        "fusion-subtraction rung: predicts no move of sort-sweep without fusion",
    ),
    (
        "vm.interp.ref_ns_per_instr",
        "ns",
        "nothing (reference oracle)",
    ),
    (
        "vm.instructions",
        "count",
        "base of the per-instruction ratios",
    ),
    ("vm.events", "count", "base of the per-event ratios"),
    ("vm.sched.slices", "count", "wall_s on dynamic-spill"),
    ("vm.kernel.transfers", "count", "wall_s on dynamic-spill"),
    (
        "core.drms.ns_per_event",
        "ns",
        "instr_per_s on sort-sweep, wall_s on dynamic-spill",
    ),
    (
        "core.suppress.hit_ratio",
        "ratio",
        "core.drms time on sort-sweep; bypassed on dynamic-spill",
    ),
    (
        "core.shadow.cache_hit_ratio",
        "ratio",
        "instr_per_s on both sweep workloads",
    ),
    ("core.shadow_bytes", "bytes", "peak_rss_mb"),
    (
        "tools.nulgrind.ns_per_instr",
        "ns",
        "none (Table 1 base: NullTool through the tool harness)",
    ),
    (
        "tools.memcheck.ns_per_instr",
        "ns",
        "none (Table 1 rung; control for vm gains)",
    ),
    (
        "tools.callgrind.ns_per_instr",
        "ns",
        "none (Table 1 rung; control for vm gains)",
    ),
    (
        "tools.helgrind.ns_per_instr",
        "ns",
        "none (Table 1 rung; control for vm gains)",
    ),
    (
        "tools.aprof.ns_per_instr",
        "ns",
        "none (Table 1 rung; control for vm gains)",
    ),
    (
        "tools.aprof-drms.ns_per_instr",
        "ns",
        "none (Table 1 rung; control for vm gains)",
    ),
    (
        "trace.shard.spill_ns_per_event",
        "ns",
        "wall_s on dynamic-spill",
    ),
    ("trace.shard.bytes", "bytes", "wall_s on dynamic-spill"),
    (
        "trace.shard.load_mb_per_s",
        "MB/s",
        "wall_s on dynamic-spill",
    ),
    (
        "trace.shard.replay_ns_per_event",
        "ns",
        "wall_s on dynamic-spill",
    ),
    ("trace.shard.dropped", "count", "failed_ratio (must be 0)"),
    (
        "supervisor.journal_ms_per_cell",
        "ms",
        "wall_s on dynamic-spill, job_p50_ms on aprofd-loopback",
    ),
    (
        "supervisor.cell_inflation",
        "ratio",
        "wall_s and instr_per_s on sort-sweep",
    ),
    (
        "supervisor.parallel_efficiency",
        "ratio",
        "wall_s and instr_per_s on sort-sweep",
    ),
    ("supervisor.cache_hit_ratio", "ratio", "setup_s"),
    ("supervisor.retries", "count", "failed_ratio"),
    ("supervisor.quarantined", "count", "failed_ratio"),
    (
        "artifact.atomic_write_ms",
        "ms",
        "job_p50_ms on aprofd-loopback",
    ),
    ("aprofd.handle_us", "us", "req_p50_ms on aprofd-loopback"),
    (
        "aprofd.http.healthz_p50_ms",
        "ms",
        "req_p50_ms on aprofd-loopback",
    ),
    (
        "aprofd.http.healthz_p99_ms",
        "ms",
        "req_p99_ms on aprofd-loopback",
    ),
    (
        "aprofd.client.healthz_p50_ms",
        "ms",
        "none (aprofctl's Conn path; the load generator does not use it)",
    ),
    (
        "aprofd.job.queued_ms",
        "ms",
        "job_p50_ms on aprofd-loopback",
    ),
    ("aprofd.job.sweep_ms", "ms", "job_p50_ms on aprofd-loopback"),
    (
        "aprofd.job.overhead_ms",
        "ms",
        "job_p50_ms on aprofd-loopback",
    ),
    (
        "bench.trace_overhead",
        "ratio",
        "none (traced over untraced round wall time)",
    ),
    (
        "bench.residual_share",
        "ratio",
        "none (round time no layer span covers, over round time)",
    ),
];

/// Repetitions of each representative-cell rung.
const REPS: usize = 5;

/// Untraced and traced rounds each, for the tracing overhead.
const TRACE_ROUNDS: usize = 2;

/// Socket round trips against the idle daemon: enough that ten lie
/// beyond the p99.
const HEALTHZ_SAMPLES: usize = 1000;

/// Jobs timed phase by phase through `Daemon::handle`.
const PHASE_JOBS: usize = 10;

/// Collects the metrics in [`LAYERS`] order.
struct Ladder {
    report: Report,
}

impl Ladder {
    fn put(&mut self, name: &'static str, value: f64, note: &str) {
        let &(_, unit, moves) = LAYERS
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("every per-layer metric is listed in LAYERS");
        self.report
            .metric(name, value, unit, &format!("{note} -> {moves}"));
    }
}

/// The grid, representative cell and journal grid of one workload.
struct Shape {
    specs: Vec<SweepSpec>,
    cell: (String, i64, u64),
    journal: SweepSpec,
}

fn shape(workload: &str, seed: u64) -> Shape {
    let tiny_seeds: Vec<u64> = (1..=16).collect();
    match workload {
        "sort-sweep" => {
            let specs = specs_for(Kind::Sort, seed);
            let guest = specs[0].seeds[0];
            Shape {
                specs,
                cell: ("sort".into(), 40, guest),
                journal: SweepSpec::new("sort", &[8], 1).seeds(&tiny_seeds),
            }
        }
        "dynamic-spill" => {
            let specs = specs_for(Kind::Dynamic, seed);
            let pc = specs
                .iter()
                .find(|s| s.family == "producer-consumer")
                .expect("producer-consumer is a dynamic family");
            Shape {
                cell: (pc.family.clone(), pc.sizes[pc.sizes.len() - 1], pc.seeds[0]),
                journal: SweepSpec::new("producer-consumer", &[1024], 1).seeds(&tiny_seeds),
                specs,
            }
        }
        _ => {
            let specs: Vec<SweepSpec> = loopback::mix_specs(seed)
                .iter()
                .map(|t| {
                    JobSpec::parse(t)
                        .expect("generated specs are admissible")
                        .sweep_spec()
                })
                .collect();
            let first = &specs[0];
            Shape {
                cell: (first.family.clone(), first.sizes[1], first.seeds[0]),
                journal: SweepSpec::new(&first.family, &first.sizes[..1], 1).seeds(&tiny_seeds),
                specs,
            }
        }
    }
}

fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| secs(&mut f).1).collect();
    median(&samples)
}

fn merged(results: &[SweepResult]) -> Metrics {
    let mut m = Metrics::new();
    for r in results {
        m.merge(&r.merged_metrics())
            .expect("sweeps share one bucket layout per histogram name");
    }
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the traced ladder for `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64, dir: &Path) -> std::io::Result<Report> {
    let shape = shape(workload, seed);
    let mut l = Ladder {
        report: Report::default(),
    };
    let mut tally = Tally::default();
    let rounds = workload_rounds(workload, seed, seconds, dir, &mut tally)?;
    cell_rungs(&mut l, &shape, rounds, dir, &mut tally)?;
    supervisor_rungs(&mut l, &shape, dir)?;
    aprofd_rungs(&mut l, seed, dir, &mut tally)?;
    l.put(
        "bench.trace_overhead",
        rounds.overhead,
        rounds.overhead_note,
    );
    l.put(
        "bench.residual_share",
        rounds.residual,
        "(span residual of the traced rounds)",
    );
    // Report in LAYERS order whatever order the rungs ran in.
    let mut metrics = std::mem::take(&mut l.report.metrics);
    metrics.sort_by_key(|m| LAYERS.iter().position(|(n, _, _)| *n == m.name));
    l.report.metrics = metrics;
    l.report.tally = tally;
    Ok(l.report)
}

/// What the workload's own rounds measured.
#[derive(Clone, Copy)]
struct Rounds {
    overhead: f64,
    residual: f64,
    overhead_note: &'static str,
    counts: Counts,
}

#[derive(Clone, Copy, Default)]
struct Counts {
    instructions: u64,
    events: u64,
    slices: u64,
    transfers: u64,
    suppress_hit_ratio: f64,
    shadow_hit_ratio: f64,
    shadow_bytes: u64,
    cache_hit_ratio: f64,
    retries: u64,
    quarantined: u64,
}

impl Counts {
    fn of(m: &Metrics, cache: Option<&CellCache>) -> Counts {
        Counts {
            instructions: m.counter("vm.instructions"),
            events: m.counter("vm.events.total"),
            slices: m.counter("sched.slices"),
            transfers: m.counter("kernel.transfers"),
            suppress_hit_ratio: ratio(
                m.counter("drms.suppress.read_hits") + m.counter("drms.suppress.write_hits"),
                m.counter("drms.suppress.lookups"),
            ),
            shadow_hit_ratio: ratio(
                m.counter("shadow.cache.hit"),
                m.counter("shadow.cache.lookups"),
            ),
            shadow_bytes: m.gauge("shadow.bytes"),
            cache_hit_ratio: cache.map_or(0.0, |c| ratio(c.hits(), c.hits() + c.misses())),
            retries: m.counter("sweep.retries"),
            quarantined: m.counter("sweep.quarantined"),
        }
    }
}

/// Span residual: the share of the parent spans named `root` that none
/// of their child spans covers.
fn residual(spans: &Spans, root: &str) -> f64 {
    let all = spans.snapshot();
    let (mut own, mut whole) = (0.0, 0.0);
    for (i, s) in all.iter().enumerate().filter(|(_, s)| s.name == root) {
        own += self_time(&all, i);
        whole += s.end - s.start;
    }
    if whole > 0.0 {
        own / whole
    } else {
        0.0
    }
}

fn workload_rounds(
    workload: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    tally: &mut Tally,
) -> std::io::Result<Rounds> {
    let traced = Spans::new(true);
    let untraced = Spans::new(false);
    if workload == "aprofd-loopback" {
        let mix = loopback::references(&loopback::mix_specs(seed));
        let daemon = Running::start(&dir.join("aprofd-rounds"))?;
        let slice = (seconds / 4.0).clamp(1.0, 5.0);
        let (mut plain, mut with) = (Vec::new(), Vec::new());
        for _ in 0..TRACE_ROUNDS {
            let a = loopback::drive(&daemon.addr, &mix, seed, slice, &untraced);
            let b = loopback::drive(&daemon.addr, &mix, seed, slice, &traced);
            plain.extend(a.rounds);
            with.extend(b.rounds);
            tally.absorb(a.checks);
            tally.absorb(b.checks);
        }
        daemon.stop()?;
        let results: Vec<SweepResult> = mix
            .iter()
            .map(|j| {
                let spec = JobSpec::parse(&j.spec).expect("generated specs are admissible");
                let cache = CellCache::new();
                run_supervised_with(
                    &spec.sweep_spec(),
                    &spec.supervisor_options(),
                    None,
                    &|ctx| profile_cell_cached(ctx, &cache),
                )
            })
            .collect();
        return Ok(Rounds {
            overhead: median(&with) / median(&plain),
            residual: residual(&traced, "loadgen.round"),
            overhead_note: "(median loop rounds, traced over untraced)",
            counts: Counts::of(&merged(&results), None),
        });
    }
    let kind = if workload == "sort-sweep" {
        Kind::Sort
    } else {
        Kind::Dynamic
    };
    let w = SweepWorkload::new(kind, seed, dir);
    let (cache, _) = w.setup();
    let pins = Pins::committed();
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..TRACE_ROUNDS {
        let a = w.round(&cache, &untraced, 2 * i)?;
        let b = w.round(&cache, &traced, 2 * i + 1)?;
        sweeps::verify(&a, &pins, tally);
        sweeps::verify(&b, &pins, tally);
        plain.push(a.wall);
        with.push(b.wall);
        last = Some(b);
    }
    let last = last.expect("at least one round");
    Ok(Rounds {
        overhead: median(&with) / median(&plain),
        residual: residual(&traced, "sweep.round"),
        overhead_note: "(median round wall, traced over untraced)",
        counts: Counts::of(&merged(&last.results), Some(&cache)),
    })
}

fn cell_rungs(
    l: &mut Ladder,
    shape: &Shape,
    rounds: Rounds,
    dir: &Path,
    tally: &mut Tally,
) -> std::io::Result<()> {
    let c = rounds.counts;
    let grid: Vec<(&str, i64)> = shape
        .specs
        .iter()
        .flat_map(|s| s.sizes.iter().map(move |&z| (s.family.as_str(), z)))
        .collect();
    let build = median_secs(REPS, || {
        for &(f, z) in &grid {
            std::hint::black_box(family_workload(f, z));
        }
    });
    l.put(
        "workloads.build_ms",
        build * 1e3,
        &format!("(median of {REPS}, {} workloads)", grid.len()),
    );
    let built: Vec<_> = grid
        .iter()
        .map(|&(f, z)| family_workload(f, z).expect("grid families are known"))
        .collect();
    let decode = median_secs(REPS, || {
        for w in &built {
            std::hint::black_box(DecodedProgram::decode(&w.program, DecodeMode::default()));
        }
    });
    l.put(
        "vm.decode.ms",
        decode * 1e3,
        &format!("(median of {REPS}, {} programs)", built.len()),
    );

    let (family, size, guest) = &shape.cell;
    let cell_note = format!("(median of {REPS}, cell {family} size={size} seed={guest})");
    let w = family_workload(family, *size).expect("representative family is known");
    let config = |mode: DecodeMode| RunConfig {
        seed: *guest,
        decode: mode,
        ..w.run_config()
    };
    let fused = DecodedProgram::decode(&w.program, DecodeMode::Fused);
    let blocks = DecodedProgram::decode(&w.program, DecodeMode::Blocks);
    // Only `Vm::run` is timed: the image is decoded once, outside.
    let null = |mode: DecodeMode| {
        let mut stats = None;
        let samples: Vec<f64> = (0..REPS)
            .map(|_| {
                let config = config(mode);
                let mut vm = match mode {
                    DecodeMode::Off => Vm::new(&w.program, config),
                    DecodeMode::Blocks => Vm::with_decoded(&w.program, config, blocks.clone()),
                    DecodeMode::Fused => Vm::with_decoded(&w.program, config, fused.clone()),
                }
                .expect("valid workload");
                let (run, t) = secs(|| vm.run(&mut NullTool));
                stats = Some(run.expect("representative cell runs"));
                t
            })
            .collect();
        (median(&samples), stats.expect("ran at least once"))
    };
    let (t_fused, stats) = null(DecodeMode::Fused);
    let (t_blocks, _) = null(DecodeMode::Blocks);
    let (t_ref, _) = null(DecodeMode::Off);
    let per_instr = |t: f64| t * 1e9 / stats.instructions as f64;
    let per_event = |t: f64| t * 1e9 / stats.events as f64;
    l.put("vm.interp.ns_per_instr", per_instr(t_fused), &cell_note);
    l.put(
        "vm.interp.blocks_ns_per_instr",
        per_instr(t_blocks),
        &cell_note,
    );
    l.put("vm.interp.ref_ns_per_instr", per_instr(t_ref), &cell_note);
    l.put("vm.instructions", c.instructions as f64, "(one round)");
    l.put("vm.events", c.events as f64, "(one round)");
    l.put("vm.sched.slices", c.slices as f64, "(one round)");
    l.put("vm.kernel.transfers", c.transfers as f64, "(one round)");

    let session = || {
        ProfileSession::new(&w.program)
            .config(config(DecodeMode::Fused))
            .decoded(fused.clone())
    };
    let mut live = None;
    let t_drms = median_secs(REPS, || live = Some(session().run().expect("session runs")));
    let live = live.expect("ran at least once");
    l.put(
        "core.drms.ns_per_event",
        per_event(t_drms - t_fused),
        &format!("{cell_note}, session minus NullTool"),
    );
    l.put(
        "core.suppress.hit_ratio",
        c.suppress_hit_ratio,
        "(one round)",
    );
    l.put(
        "core.shadow.cache_hit_ratio",
        c.shadow_hit_ratio,
        "(one round)",
    );
    l.put(
        "core.shadow_bytes",
        c.shadow_bytes as f64,
        "(one round, summed over cells)",
    );

    for (name, tool) in [
        ("tools.nulgrind.ns_per_instr", "nulgrind"),
        ("tools.memcheck.ns_per_instr", "memcheck"),
        ("tools.callgrind.ns_per_instr", "callgrind"),
        ("tools.helgrind.ns_per_instr", "helgrind"),
        ("tools.aprof.ns_per_instr", "aprof"),
        ("tools.aprof-drms.ns_per_instr", "aprof-drms"),
    ] {
        let mut instructions = 1;
        let t = median(
            &(0..REPS)
                .map(|_| {
                    let (secs, _, stats) = drms_bench::run_tool(&w, tool);
                    instructions = stats.instructions;
                    secs
                })
                .collect::<Vec<f64>>(),
        );
        l.put(
            name,
            t * 1e9 / instructions as f64,
            &format!("(median of {REPS}, cell {family} size={size} seed=0)"),
        );
    }

    let shards = dir.join("rung-shards");
    let mut spilled = None;
    let t_spill = median_secs(REPS, || {
        let _ = std::fs::remove_dir_all(&shards);
        spilled = Some(session().trace_dir(&shards).run());
    });
    let spilled = spilled
        .expect("ran at least once")
        .map_err(std::io::Error::other)?;
    l.put(
        "trace.shard.spill_ns_per_event",
        per_event(t_spill - t_drms),
        &format!("{cell_note}, spilling session minus session"),
    );
    l.put(
        "trace.shard.bytes",
        spilled.metrics.counter("trace.shard.bytes") as f64,
        "(representative cell)",
    );
    let mut set = None;
    let t_load = median_secs(REPS, || set = Some(ShardSet::load(&shards, 1)));
    let set = set.expect("ran at least once")?;
    l.put(
        "trace.shard.load_mb_per_s",
        set.bytes as f64 / 1e6 / t_load,
        &cell_note,
    );
    let mut replayed = None;
    let t_replay = median_secs(REPS, || {
        let mut prof = DrmsProfiler::new(DrmsConfig::full());
        replay_shards_into(&set, &mut prof);
        replayed = Some(prof.into_report());
    });
    l.put(
        "trace.shard.replay_ns_per_event",
        per_event(t_replay),
        &cell_note,
    );
    l.put(
        "trace.shard.dropped",
        set.dropped as f64,
        "(representative cell)",
    );
    let same = replayed.is_some_and(|r| report_io::to_text(&r) == report_io::to_text(&live.report));
    tally.check(
        same && set.salvaged + set.dropped == set.total && set.dropped == 0,
        || {
            format!(
                "representative cell: replay differs or shards lost (dropped {})",
                set.dropped
            )
        },
    );
    tally.check(
        spilled.metrics.audit().is_ok() && live.metrics.audit().is_ok(),
        || "representative cell: metrics audit failed".to_string(),
    );
    std::fs::remove_dir_all(&shards)?;

    let cache_note = if c.cache_hit_ratio > 0.0 {
        "(CellCache over set-up and rounds)"
    } else {
        "(daemon jobs run without a CellCache)"
    };
    l.put("supervisor.cache_hit_ratio", c.cache_hit_ratio, cache_note);
    l.put("supervisor.retries", c.retries as f64, "(one round)");
    l.put(
        "supervisor.quarantined",
        c.quarantined as f64,
        "(one round)",
    );
    Ok(())
}

fn supervisor_rungs(l: &mut Ladder, shape: &Shape, dir: &Path) -> std::io::Result<()> {
    let opts = SupervisorOptions::default();
    let cache = CellCache::new();
    let runner = |ctx: &drms_bench::supervisor::CellCtx| profile_cell_cached(ctx, &cache);
    let spec = &shape.journal;
    let cells = spec.grid().len() as f64;
    let mut plain = Vec::new();
    let mut journaled = Vec::new();
    let mut report_len = 0;
    for i in 0..REPS {
        let r = run_supervised_with(spec, &opts, None, &runner);
        plain.push(r.wall_secs);
        report_len = r.merged_report_text().len();
        let path = dir.join(format!("journal-rung-{i}"));
        let mut journal = JournalWriter::create(&path)?;
        journaled.push(run_supervised_with(spec, &opts, Some(&mut journal), &runner).wall_secs);
        std::fs::remove_file(&path)?;
    }
    let per_cell = (median(&journaled) - median(&plain)) * 1e3 / cells;
    l.put(
        "supervisor.journal_ms_per_cell",
        per_cell,
        &format!(
            "(median of {REPS}, {} cells of {} size {})",
            cells, spec.family, spec.sizes[0]
        ),
    );

    let mut ratios = Vec::new();
    let (mut busy, mut wall) = (0.0, 0.0);
    let jobs = nproc();
    for spec in &shape.specs {
        let serial = SweepSpec {
            jobs: 1,
            ..spec.clone()
        };
        let parallel = SweepSpec {
            jobs,
            ..spec.clone()
        };
        let s = run_supervised_with(&serial, &opts, None, &runner);
        let p = run_supervised_with(&parallel, &opts, None, &runner);
        for (a, b) in s.cells.iter().zip(&p.cells) {
            ratios.push(b.secs / a.secs);
        }
        busy += p.cells.iter().map(|c| c.secs).sum::<f64>();
        wall += p.wall_secs;
    }
    l.put(
        "supervisor.cell_inflation",
        median(&ratios),
        &format!(
            "(median of {} cells, jobs={jobs} over jobs=1)",
            ratios.len()
        ),
    );
    l.put(
        "supervisor.parallel_efficiency",
        busy / (jobs as f64 * wall),
        &format!("(cell seconds over {jobs} x wall)"),
    );

    let text = "x".repeat(report_len.max(1));
    let target = dir.join("artifact-rung.txt");
    let write = median_secs(20, || atomic_write(&target, &text).expect("artifact write"));
    std::fs::remove_file(&target)?;
    l.put(
        "artifact.atomic_write_ms",
        write * 1e3,
        &format!("(median of 20, {} bytes)", text.len()),
    );
    Ok(())
}

fn get(path: &str) -> Request {
    Request {
        method: "GET".into(),
        path: path.into(),
        query: String::new(),
        body: String::new(),
        close: false,
    }
}

fn aprofd_rungs(l: &mut Ladder, seed: u64, dir: &Path, tally: &mut Tally) -> std::io::Result<()> {
    let mix = loopback::references(&loopback::mix_specs(seed));
    let daemon = Running::start(&dir.join("aprofd-rungs"))?;
    let d = &daemon.daemon;

    // Job phases, observed in-process: poll `handle` every 100 us.
    let (mut queued, mut job, mut sweep, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last_id = String::new();
    for k in 0..PHASE_JOBS {
        let m = &mix[k % mix.len()];
        let submit = Request {
            method: "POST".into(),
            body: format!("tenant phases\n{}", m.spec),
            ..get("/jobs")
        };
        let start = Instant::now();
        let reply = d.handle(&submit);
        if reply.status != 200 {
            tally.check(false, || {
                format!("in-process submit: status {}", reply.status)
            });
            continue;
        }
        let id = reply.body.trim().to_string();
        let status = get(&format!("/jobs/{id}"));
        let mut left_queue = None;
        let state = loop {
            let body = d.handle(&status).body;
            let state = field(&body, "state").unwrap_or_default();
            if left_queue.is_none() && state != "queued" {
                left_queue = Some(start.elapsed().as_secs_f64());
            }
            if state == "done" || state == "failed" {
                break body;
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let total = start.elapsed().as_secs_f64();
        let fp = field(&state, "fingerprint").and_then(|v| u64::from_str_radix(&v, 16).ok());
        tally.check(fp == Some(m.fingerprint), || {
            format!("in-process job {id}: fingerprint {fp:x?}")
        });
        let (_, in_process) = secs(|| {
            let spec = JobSpec::parse(&m.spec).expect("generated specs are admissible");
            run_supervised_with(
                &spec.sweep_spec(),
                &spec.supervisor_options(),
                None,
                &drms_bench::supervisor::profile_cell,
            )
        });
        queued.push(left_queue.unwrap_or(total) * 1e3);
        job.push(total * 1e3);
        sweep.push(in_process * 1e3);
        overhead.push((total - in_process) * 1e3);
        last_id = id;
    }
    let n = format!("(median of {} jobs)", job.len());
    l.put("aprofd.job.queued_ms", median(&queued), &n);
    l.put(
        "aprofd.job.sweep_ms",
        median(&sweep),
        &format!("{n}, in-process run_supervised_with"),
    );
    l.put(
        "aprofd.job.overhead_ms",
        median(&overhead),
        &format!("{n}, job minus in-process sweep"),
    );

    let routes = [get("/healthz"), get(&format!("/jobs/{last_id}"))];
    let handle: Vec<f64> = (0..2000)
        .map(|i| secs(|| d.handle(&routes[i % 2])).1 * 1e6)
        .collect();
    l.put(
        "aprofd.handle_us",
        median(&handle),
        "(median of 2000, /healthz and /jobs/{id} alternating)",
    );

    let per_client = HEALTHZ_SAMPLES / loopback::CLIENTS;
    let mut rtt: Vec<f64> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..loopback::CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut c = HttpClient::new(&daemon.addr);
                    (0..per_client)
                        .map(|_| {
                            let (r, t) = secs(|| c.request("GET", "/healthz", ""));
                            (r.map(|r| r.status).unwrap_or(0), t * 1e3)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (status, ms) in h.join().expect("healthz client panicked") {
                tally.check(status == 200, || format!("healthz status {status}"));
                rtt.push(ms);
            }
        }
    });
    let p50 = percentile(&rtt, 0.5).expect("samples");
    let p99 = percentile(&rtt, 0.99).expect("samples");
    l.put(
        "aprofd.http.healthz_p50_ms",
        p50.value,
        &format!(
            "(n={}, {} keep-alive connections)",
            p50.n,
            loopback::CLIENTS
        ),
    );
    l.put(
        "aprofd.http.healthz_p99_ms",
        p99.value,
        &format!("(n={}, {} beyond)", p99.n, p99.beyond),
    );

    let mut conn = Conn::new(daemon.addr.clone(), Duration::from_secs(10));
    let via_conn: Vec<f64> = (0..50)
        .map(|_| {
            let (r, t) = secs(|| conn.request("GET", "/healthz", ""));
            tally.check(r.is_ok_and(|r| r.status == 200), || {
                "Conn healthz failed".to_string()
            });
            t * 1e3
        })
        .collect();
    drop(conn);
    l.put(
        "aprofd.client.healthz_p50_ms",
        median(&via_conn),
        "(median of 50, drms_aprofd::Conn)",
    );
    daemon.stop()
}
