//! End-to-end tests of the `aprof` and `repro` command-line binaries.

use drms::sched::fnv1a;
use std::path::PathBuf;
use std::process::{Command, Output};

fn aprof(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aprof"))
        .args(args)
        .output()
        .expect("spawn aprof")
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn aprof_profiles_a_workload_with_fit() {
    let out = aprof(&["--workload", "minidb", "--fit", "--scale", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("dynamic input volume"));
    assert!(text.contains("mysql_select"), "focus routine shown");
    assert!(text.contains("drms fit: Θ(n)"), "linear fit found:\n{text}");
}

#[test]
fn aprof_rejects_unknown_inputs() {
    assert!(!aprof(&["--workload", "nope"]).status.success());
    assert!(!aprof(&[]).status.success());
    assert!(!aprof(&["--workload", "minidb", "--tool", "bogus"])
        .status
        .success());
    assert!(!aprof(&["--bogus-flag"]).status.success());
}

#[test]
fn aprof_dumps_parseable_reports_and_traces() {
    let dir = std::env::temp_dir().join(format!("drms-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let report: PathBuf = dir.join("out.report");
    let trace: PathBuf = dir.join("out.trace");
    let out = aprof(&[
        "--workload",
        "producer_consumer",
        "--scale",
        "1",
        "--report",
        report.to_str().expect("utf-8 path"),
        "--trace",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report_text = std::fs::read_to_string(&report).expect("report file");
    let parsed = drms::core::report_io::from_text(&report_text).expect("parse report");
    assert!(!parsed.is_empty());
    // One checksummed line per event, as many as aprof says it wrote.
    let trace_text = std::fs::read_to_string(&trace).expect("trace file");
    for line in trace_text.lines() {
        let (payload, hex) = line.rsplit_once(" ~").expect("checksum token");
        assert_eq!(hex, format!("{:x}", fnv1a(payload.as_bytes())), "{line}");
    }
    let lines = trace_text.lines().count();
    assert!(lines > 0);
    assert!(
        stdout(&out).contains(&format!("({lines} events)")),
        "{}",
        stdout(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aprof_disassembles_programs() {
    let out = aprof(&["--workload", "stream_reader", "--disasm"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("routine @"));
    assert!(text.contains("syscall read"));
}

#[test]
fn aprof_context_mode_renders_paths() {
    let out = aprof(&["--workload", "vips", "--context", "--scale", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("contexts of im_generate"));
    assert!(text.contains("→ im_generate"));
}

#[test]
fn aprof_rms_tool_misses_dynamic_input() {
    let drms_out = stdout(&aprof(&["--workload", "stream_reader", "--scale", "1"]));
    let rms_out = stdout(&aprof(&[
        "--workload",
        "stream_reader",
        "--scale",
        "1",
        "--tool",
        "aprof",
    ]));
    // The drms run reports a large dynamic input volume, the rms run 0%.
    assert!(
        !drms_out.contains("dynamic input volume: 0.0%"),
        "{drms_out}"
    );
    assert!(rms_out.contains("dynamic input volume: 0.0%"), "{rms_out}");
}

#[test]
fn repro_runs_a_single_experiment_and_writes_data() {
    let dir = std::env::temp_dir().join(format!("drms-repro-{}", std::process::id()));
    let out = repro(&[
        "fig4",
        "--scale",
        "1",
        "--out",
        dir.to_str().expect("utf-8 path"),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = stdout(&out);
    assert!(text.contains("Fig 4"));
    assert!(text.contains("fit Θ(n)"), "drms linear fit:\n{text}");
    assert!(dir.join("fig04.dat").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_rejects_unknown_experiments() {
    assert!(!repro(&["fig99"]).status.success());
    assert!(!repro(&[]).status.success());
}

#[test]
fn aprof_diff_compares_saved_reports() {
    let dir = std::env::temp_dir().join(format!("drms-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let old = dir.join("rms.report");
    let new = dir.join("drms.report");
    for (tool, path) in [("aprof", &old), ("aprof-drms", &new)] {
        let out = aprof(&[
            "--workload",
            "stream_reader",
            "--scale",
            "1",
            "--tool",
            tool,
            "--report",
            path.to_str().expect("utf-8 path"),
        ]);
        assert!(out.status.success());
    }
    let out = aprof(&["--diff", old.to_str().unwrap(), new.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("routines compared"));
    assert!(
        text.contains("volume 0.0% -> 9"),
        "the drms run reveals the dynamic workload:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
