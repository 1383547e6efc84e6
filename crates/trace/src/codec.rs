//! Plain-text trace rendering.
//!
//! One event per line:
//!
//! ```text
//! <time> <thread> <cost> <mnemonic> [args...] ~<checksum>
//! ```
//!
//! The format is stable, diff-friendly and human-readable: `aprof
//! --trace FILE` writes it, and byte-identity suites fingerprint it. The
//! trailing `~<hex>` token is the [`fnv1a`] checksum of the payload
//! before it. Traces are read back from binary shards
//! ([`crate::shard::ShardSet`]), not from this text.

use crate::event::{Event, SyncOp, TimedEvent};
use crate::fnv::fnv1a;
use std::fmt::Write as _;

/// Serializes events to the line-oriented text format.
///
/// # Example
/// ```
/// use drms_trace::{TimedEvent, Event, ThreadId, RoutineId};
/// use drms_trace::codec::to_text;
/// use drms_trace::fnv::fnv1a;
/// let evs = vec![TimedEvent::new(1, ThreadId::MAIN, 0,
///     Event::Call { routine: RoutineId::new(2) })];
/// let sum = fnv1a(b"1 0 0 call 2");
/// assert_eq!(to_text(&evs), format!("1 0 0 call 2 ~{sum:x}\n"));
/// ```
pub fn to_text(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    let mut line = String::new();
    for ev in events {
        line.clear();
        write_event(&mut line, ev);
        let _ = writeln!(out, "{line} ~{:x}", fnv1a(line.as_bytes()));
    }
    out
}

fn write_event(out: &mut String, ev: &TimedEvent) {
    let _ = write!(
        out,
        "{} {} {} {}",
        ev.time,
        ev.thread.index(),
        ev.cost,
        ev.event.mnemonic()
    );
    match ev.event {
        Event::Call { routine } | Event::Return { routine } => {
            let _ = write!(out, " {}", routine.index());
        }
        Event::Read { addr, len }
        | Event::Write { addr, len }
        | Event::UserToKernel { addr, len }
        | Event::KernelToUser { addr, len } => {
            let _ = write!(out, " {} {}", addr.raw(), len);
        }
        Event::ThreadStart { parent } => {
            if let Some(p) = parent {
                let _ = write!(out, " {}", p.index());
            }
        }
        Event::ThreadExit => {}
        Event::Sync { op } => {
            let _ = match op {
                SyncOp::SemWait(s) => write!(out, " semw {s}"),
                SyncOp::SemSignal(s) => write!(out, " sems {s}"),
                SyncOp::MutexLock(m) => write!(out, " mtxl {m}"),
                SyncOp::MutexUnlock(m) => write!(out, " mtxu {m}"),
                SyncOp::CondWait { cond, mutex } => write!(out, " cvw {cond} {mutex}"),
                SyncOp::CondSignal(c) => write!(out, " cvs {c}"),
                SyncOp::CondBroadcast(c) => write!(out, " cvb {c}"),
                SyncOp::Spawn { child } => write!(out, " spawn {}", child.index()),
                SyncOp::Join { child } => write!(out, " join {}", child.index()),
            };
        }
        Event::Block { routine, block } => {
            let _ = write!(out, " {} {}", routine.index(), block.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, BlockId, RoutineId, ThreadId};

    /// One event of every kind (every sync op included), each with the
    /// payload it must render to.
    fn cases() -> Vec<(TimedEvent, &'static str)> {
        let t = ThreadId::new(1);
        let r = RoutineId::new(4);
        let sync = |time, op| TimedEvent::new(time, t, 2, Event::Sync { op });
        vec![
            (
                TimedEvent::new(0, ThreadId::MAIN, 0, Event::ThreadStart { parent: None }),
                "0 0 0 tstart",
            ),
            (
                TimedEvent::new(
                    1,
                    t,
                    0,
                    Event::ThreadStart {
                        parent: Some(ThreadId::MAIN),
                    },
                ),
                "1 1 0 tstart 0",
            ),
            (
                TimedEvent::new(2, t, 0, Event::Call { routine: r }),
                "2 1 0 call 4",
            ),
            (
                TimedEvent::new(
                    3,
                    t,
                    1,
                    Event::Block {
                        routine: r,
                        block: BlockId::new(0),
                    },
                ),
                "3 1 1 bb 4 0",
            ),
            (
                TimedEvent::new(
                    4,
                    t,
                    1,
                    Event::Read {
                        addr: Addr::new(100),
                        len: 8,
                    },
                ),
                "4 1 1 rd 100 8",
            ),
            (
                TimedEvent::new(
                    5,
                    t,
                    1,
                    Event::Write {
                        addr: Addr::new(200),
                        len: 1,
                    },
                ),
                "5 1 1 wr 200 1",
            ),
            (
                TimedEvent::new(
                    6,
                    t,
                    2,
                    Event::KernelToUser {
                        addr: Addr::new(300),
                        len: 16,
                    },
                ),
                "6 1 2 k2u 300 16",
            ),
            (
                TimedEvent::new(
                    7,
                    t,
                    2,
                    Event::UserToKernel {
                        addr: Addr::new(300),
                        len: 16,
                    },
                ),
                "7 1 2 u2k 300 16",
            ),
            (sync(8, SyncOp::SemWait(3)), "8 1 2 sync semw 3"),
            (sync(9, SyncOp::SemSignal(3)), "9 1 2 sync sems 3"),
            (sync(10, SyncOp::MutexLock(5)), "10 1 2 sync mtxl 5"),
            (sync(11, SyncOp::MutexUnlock(5)), "11 1 2 sync mtxu 5"),
            (
                sync(12, SyncOp::CondWait { cond: 1, mutex: 2 }),
                "12 1 2 sync cvw 1 2",
            ),
            (sync(13, SyncOp::CondSignal(1)), "13 1 2 sync cvs 1"),
            (sync(14, SyncOp::CondBroadcast(1)), "14 1 2 sync cvb 1"),
            (
                sync(
                    15,
                    SyncOp::Spawn {
                        child: ThreadId::new(2),
                    },
                ),
                "15 1 2 sync spawn 2",
            ),
            (
                sync(
                    16,
                    SyncOp::Join {
                        child: ThreadId::new(2),
                    },
                ),
                "16 1 2 sync join 2",
            ),
            (
                TimedEvent::new(17, t, 3, Event::Return { routine: r }),
                "17 1 3 ret 4",
            ),
            (TimedEvent::new(18, t, 3, Event::ThreadExit), "18 1 3 texit"),
        ]
    }

    #[test]
    fn renders_every_event_kind() {
        let (events, payloads): (Vec<_>, Vec<_>) = cases().into_iter().unzip();
        let text = to_text(&events);
        let got: Vec<&str> = text
            .lines()
            .map(|l| l.rsplit_once(" ~").expect("checksum token").0)
            .collect();
        assert_eq!(got, payloads);
    }

    #[test]
    fn serialized_lines_carry_checksums() {
        let events: Vec<TimedEvent> = cases().into_iter().map(|(e, _)| e).collect();
        let text = to_text(&events);
        assert_eq!(text.lines().count(), events.len());
        for line in text.lines() {
            let (payload, hex) = line.rsplit_once(" ~").expect("checksum token");
            assert_eq!(hex, format!("{:x}", fnv1a(payload.as_bytes())), "{line}");
        }
    }
}
