//! Lossy-salvage accounting regression tests, shared between the two
//! salvaging readers: the checkpoint journal and the binary shard set.
//!
//! The invariant under test: `salvaged + dropped == total` for every
//! corruption shape — trailing garbage, mid-file corruption, a flipped
//! payload, a header-only file — where blank lines and the journal's
//! `#` header line count in neither side nor the total (the shard
//! registry names its frames `trace.shard.lines` for the same law).
//! [`Metrics::audit`] enforces the same relation at run time through
//! `observe_metrics`.

use drms_trace::journal::{self, JournalRecord, FILE_HEADER};
use drms_trace::obs::Metrics;
use drms_trace::shard::{ShardEvent, ShardSet, ShardWriter};
use drms_trace::{HostIo, RoutineId, ThreadId};
use std::path::{Path, PathBuf};

fn sample_journal() -> Vec<JournalRecord> {
    (0..3)
        .map(|i| JournalRecord {
            meta: format!("cell {i} ok"),
            payload: format!("payload {i}\nsecond line\n"),
        })
        .collect()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("drms-salvage-acct-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Writes a one-thread, six-frame shard directory under `dir`.
fn write_shards(dir: &Path) {
    let mut w = ShardWriter::create(&HostIo::real(), dir, 16).expect("create writer");
    for i in 0..6u32 {
        w.record_event(
            ThreadId::MAIN,
            ShardEvent::Call {
                routine: RoutineId::new(i % 3),
                cost: u64::from(i),
            },
        );
    }
    w.finish().expect("finish");
}

/// Applies one corruption shape to a well-formed shard image.
fn corrupt(bytes: &[u8], shape: &str) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match shape {
        "clean" => {}
        "trailing-garbage" => out.extend_from_slice(b"???? not a frame\n"),
        "mid-file" => out[bytes.len() / 2] ^= 0x5a,
        // The first frame's payload starts after the 12-byte file
        // header and the 12-byte frame header.
        "flipped-payload" => out[24] ^= 0x01,
        "header-only" => out.truncate(12),
        "torn-tail" => out.truncate(bytes.len() - 3),
        other => panic!("unknown corruption shape `{other}`"),
    }
    out
}

const SHAPES: [&str; 6] = [
    "clean",
    "trailing-garbage",
    "mid-file",
    "flipped-payload",
    "header-only",
    "torn-tail",
];

/// Writes a one-thread shard directory, applies `shape` to its shard
/// file, and loads what survives.
fn damaged_shard_set(name: &str, shape: &str, keep_manifest: bool) -> ShardSet {
    let dir = scratch(name);
    write_shards(&dir);
    if !keep_manifest {
        std::fs::remove_file(dir.join("MANIFEST")).expect("drop manifest");
    }
    let shard = dir.join("shard-0.bin");
    let bytes = std::fs::read(&shard).expect("read shard");
    std::fs::write(&shard, corrupt(&bytes, shape)).expect("corrupt shard");
    let set = ShardSet::load(&dir, 1).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    set
}

#[test]
fn trace_salvage_accounts_for_every_countable_line() {
    let dir = scratch("clean-reference");
    write_shards(&dir);
    let clean = ShardSet::load(&dir, 1).expect("load");
    let _ = std::fs::remove_dir_all(&dir);
    let clean_frames = clean.frames_in_order();
    assert_eq!(clean_frames.len(), 6);

    for shape in SHAPES {
        for keep_manifest in [true, false] {
            let s = damaged_shard_set(&format!("{shape}-{keep_manifest}"), shape, keep_manifest);
            let tag = format!("{shape}, manifest {keep_manifest}");
            assert_eq!(s.salvaged + s.dropped, s.total, "{tag}");
            if keep_manifest {
                assert_eq!(s.total, 6, "{tag}: the manifest pins the total");
            }
            let frames = s.frames_in_order();
            assert_eq!(frames.len() as u64, s.salvaged, "{tag}");
            assert_eq!(
                frames,
                clean_frames[..frames.len()],
                "{tag}: a clean prefix"
            );
            // Without a manifest, a cut exactly on a frame boundary
            // reads as a shorter, complete shard.
            let boundary_cut = shape == "header-only" && !keep_manifest;
            if !matches!(shape, "clean" | "trailing-garbage") && !boundary_cut {
                assert!(s.dropped > 0, "{tag}: damage must cost frames");
            }
        }
    }
}

#[test]
fn comment_and_blank_lines_count_in_neither_side() {
    let s = journal::from_text_lossy(&format!("{FILE_HEADER}\n\n\n"));
    assert_eq!((s.salvaged, s.dropped, s.total), (0, 0, 0));
    assert!(s.records.is_empty());
    assert!(!s.is_damaged());

    let records = sample_journal();
    let mut text = format!("{FILE_HEADER}\n\n");
    for r in &records {
        text.push_str(&journal::encode_record(&r.meta, &r.payload));
        text.push('\n');
    }
    let s = journal::from_text_lossy(&text);
    assert_eq!((s.salvaged, s.dropped, s.total), (3, 0, 3));
    assert_eq!(s.records, records);
    assert!(!s.is_damaged());
}

#[test]
fn salvage_metrics_survive_the_audit_and_break_it_when_tampered() {
    let text = journal::to_text(&sample_journal());
    let journal_salvage = journal::from_text_lossy(&text[..text.len() - 3]);
    assert_eq!(journal_salvage.dropped, 1);
    let shard_salvage = damaged_shard_set("audit", "torn-tail", true);
    assert_eq!(shard_salvage.dropped, 1);

    let mut m = Metrics::new();
    journal_salvage.observe_metrics(&mut m);
    shard_salvage.observe_metrics(&mut m);
    assert_eq!(m.audit(), Ok(()), "honest salvage accounting passes");

    // A lost drop (the class of bug the audit exists to catch) trips it.
    for prefix in ["journal", "trace.shard"] {
        let mut tampered = m.clone();
        tampered.add(format!("{prefix}.lines.total"), 1);
        let violations = tampered.audit().unwrap_err();
        assert!(
            violations
                .iter()
                .any(|v| v.contains(&format!("{prefix}.lines"))),
            "{violations:?}"
        );
    }
}
