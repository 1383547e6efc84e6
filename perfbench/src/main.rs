//! `perfbench` — the drms benchmark.
//!
//! ```text
//! perfbench --workload <sort-sweep|dynamic-spill|aprofd-loopback>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench pins [--check]
//! ```
//!
//! A run sets its workload up, then repeats rounds of it for `--seconds`
//! seconds, checks every output against references that do not come
//! from the timed code path, and prints one line per metric followed by
//! a JSON object on the last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` climbs the per-layer ladder instead (see
//! `NOTES.md`). Per-run state lives under `.bench_run/` in the working
//! directory and is removed before the process exits.

mod ladder;
mod loopback;
mod pins;
mod spans;
mod stats;
mod sweeps;

use spans::Spans;
use stats::{median, peak_rss_mb, percentile, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use sweeps::{Kind, SweepWorkload};

/// Workload seed used when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;

/// Seed kept out of every run made while the benchmark was written, for
/// checking a claimed gain on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Workloads this benchmark runs. `BENCHMARK.json` lists all but
/// `dynamic-spill`, whose spread exceeds its bounds (see `NOTES.md`).
pub const WORKLOADS: [&str; 3] = ["sort-sweep", "dynamic-spill", "aprofd-loopback"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run prints: its metrics, its failure accounting and
/// human-readable lines (sample counts, notes).
#[derive(Default)]
pub struct Report {
    /// Every metric of the run's mode.
    pub metrics: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Lines printed before the JSON object.
    pub lines: Vec<String>,
}

impl Report {
    /// Adds a metric and its human-readable line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: &str) {
        self.lines
            .push(format!("{name} = {value:.6} {unit}  {note}"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// The last output line: the JSON object a benchmark harness reads.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// Samples of the end-to-end quantities one untraced run collected.
#[derive(Default)]
pub struct EndToEnd {
    /// Seconds of each set-up.
    pub setup: Vec<f64>,
    /// Wall seconds of each round.
    pub rounds: Vec<f64>,
    /// Guest instructions profiled in each round.
    pub round_instructions: Vec<u64>,
    /// Milliseconds of each job: an `aprofd` job from submit to `done`,
    /// or one round (the whole grid) on the sweep workloads.
    pub job_ms: Vec<f64>,
    /// Milliseconds of each request: an HTTP round trip, or one grid
    /// cell on the sweep workloads.
    pub request_ms: Vec<f64>,
}

impl EndToEnd {
    /// Turns the samples into the end-to-end metrics of `BENCHMARK.json`.
    pub fn report(&self, tally: Tally) -> Report {
        let mut r = Report {
            tally,
            ..Report::default()
        };
        let pct = |samples: &[f64], p: f64| {
            percentile(samples, p).map_or((0.0, String::from("n=0")), |q| {
                let trust = if q.trusted() {
                    ""
                } else {
                    ", fewer than 10 beyond"
                };
                (q.value, format!("(n={}, {} beyond{trust})", q.n, q.beyond))
            })
        };
        let n = |v: &[f64]| format!("(median of {})", v.len());
        r.metric("setup_s", median(&self.setup), "s", &n(&self.setup));
        r.metric("wall_s", median(&self.rounds), "s", &n(&self.rounds));
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .zip(&self.round_instructions)
            .map(|(&s, &i)| i as f64 / s)
            .collect();
        r.metric("instr_per_s", median(&rates), "1/s", &n(&rates));
        r.metric("peak_rss_mb", peak_rss_mb(), "MB", "(VmHWM)");
        for (name, samples, p) in [
            ("job_p50_ms", &self.job_ms, 0.5),
            ("job_p90_ms", &self.job_ms, 0.9),
            ("req_p50_ms", &self.request_ms, 0.5),
            ("req_p99_ms", &self.request_ms, 0.99),
        ] {
            let (v, note) = pct(samples, p);
            r.metric(name, v, "ms", &note);
        }
        r.lines.push(format!(
            "failed_ratio = {} ({} failed of {} operations)",
            r.tally.failed_ratio(),
            r.tally.failed,
            r.tally.attempted
        ));
        r
    }
}

/// Per-run state directory; removed on drop, whatever the run did.
pub struct RunDir(PathBuf);

impl RunDir {
    /// `.bench_run/<name>-<pid>` under the working directory.
    pub fn new(name: &str) -> std::io::Result<RunDir> {
        let dir = PathBuf::from(".bench_run").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// The sweep workload of `kind` for `seconds`, untraced.
pub fn sweep_run(kind: Kind, seed: u64, seconds: f64, dir: &Path) -> std::io::Result<Report> {
    let w = SweepWorkload::new(kind, seed, dir);
    let mut e = EndToEnd::default();
    let mut cache = None;
    for _ in 0..SETUP_REPS {
        let (c, secs) = w.setup();
        e.setup.push(secs);
        cache = Some(c);
    }
    let cache = cache.expect("at least one set-up");
    let pins = pins::Pins::committed();
    let spans = Spans::new(false);
    let mut tally = Tally::default();
    let start = Instant::now();
    while e.rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let round = w.round(&cache, &spans, e.rounds.len())?;
        sweeps::verify(&round, &pins, &mut tally);
        e.rounds.push(round.wall);
        e.round_instructions.push(round.instructions());
        e.job_ms.push(round.wall * 1e3);
        e.request_ms
            .extend(round.cell_secs().iter().map(|s| s * 1e3));
    }
    Ok(e.report(tally))
}

/// The `aprofd-loopback` workload for `seconds`, untraced.
pub fn loopback_run(seed: u64, seconds: f64, dir: &Path) -> std::io::Result<Report> {
    let mix = loopback::references(&loopback::mix_specs(seed));
    let mut e = EndToEnd::default();
    let mut daemon: Option<loopback::Running> = None;
    for i in 0..SETUP_REPS {
        let start = Instant::now();
        let running = loopback::Running::start(&dir.join(format!("aprofd-{i}")))?;
        e.setup.push(start.elapsed().as_secs_f64());
        if let Some(previous) = daemon.replace(running) {
            previous.stop()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let load = loopback::drive(&daemon.addr, &mix, seed, seconds, &Spans::new(false));
    daemon.stop()?;
    e.rounds = load.rounds;
    e.round_instructions = load.round_instructions;
    e.job_ms = load.job_ms;
    e.request_ms = load.request_ms;
    Ok(e.report(load.checks))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}` (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run(args: &Args) -> std::io::Result<Report> {
    let dir = RunDir::new(&args.workload)?;
    let (seed, secs, path) = (args.seed, args.seconds, dir.path());
    match (args.workload.as_str(), args.trace) {
        ("sort-sweep", false) => sweep_run(Kind::Sort, seed, secs, path),
        ("dynamic-spill", false) => sweep_run(Kind::Dynamic, seed, secs, path),
        ("aprofd-loopback", false) => loopback_run(seed, secs, path),
        (workload, true) => ladder::run(workload, seed, secs, path),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("pins") {
        let check = argv.nth(1).as_deref() == Some("--check");
        std::process::exit(if pins::command(check) { 0 } else { 1 });
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
                 (default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    match run(&args) {
        Ok(report) => {
            println!(
                "# workload {} seed {} trace {} on {} cores, {:.1}s",
                args.workload,
                args.seed,
                args.trace as u8,
                stats::nproc(),
                start.elapsed().as_secs_f64()
            );
            for line in &report.lines {
                println!("{line}");
            }
            for note in &report.tally.notes {
                println!("FAILED: {note}");
            }
            println!("{}", report.json());
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "sort-sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sort-sweep", 7, 3.0, true)
        );
        let d = args(&["--workload", "dynamic-spill"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "sort-sweep", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "sort-sweep", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn json_counts_failures_and_keeps_every_digit() {
        let mut r = Report::default();
        r.tally.check(true, String::new);
        r.tally.check(false, || "wrong".into());
        r.metric("wall_s", 1.234_567_891_2, "s", "");
        let json = r.json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert!(json.contains("\"wall_s\": {\"value\": 1.2345678912, \"unit\": \"s\"}"));
    }

    #[test]
    fn end_to_end_report_names_every_metric() {
        let e = EndToEnd {
            setup: vec![0.1, 0.3, 0.2],
            rounds: vec![2.0, 4.0],
            round_instructions: vec![200, 200],
            job_ms: vec![1.0; 120],
            request_ms: vec![2.0; 1200],
        };
        let mut t = Tally::default();
        t.check(true, String::new);
        let r = e.report(t);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "wall_s",
                "instr_per_s",
                "peak_rss_mb",
                "job_p50_ms",
                "job_p90_ms",
                "req_p50_ms",
                "req_p99_ms"
            ]
        );
        assert_eq!(r.metrics[0].value, 0.2);
        assert_eq!(r.metrics[1].value, 3.0);
        assert_eq!(r.metrics[2].value, 75.0);
        assert!(r.lines.iter().any(|l| l.starts_with("failed_ratio = 0 ")));
    }
}
