//! Out-of-core sharded binary trace pipeline.
//!
//! The DINAMITE split: logging must be cheap online, analysis can be
//! heavy offline. A [`ShardWriter`] appends instrumentation events —
//! including whole struct-of-arrays read/write batches — to one compact
//! binary file per guest thread, buffered and flushed through the
//! [`HostIo`] seam so host-fault chaos applies to every byte that
//! reaches the disk. An offline [`ShardSet`] parses the shards back (in
//! parallel across shards), salvages the checksummed prefix of any torn
//! file, and replays the frames in their original global order into any
//! [`EventSink`] — a write-then-replay run is byte-identical to the
//! in-memory run it recorded.
//!
//! # Format
//!
//! Every integer is little-endian. A shard file `shard-<tid>.bin` is
//!
//! ```text
//! magic "DRMSSHD1" (8) · thread id u32 · frame*
//! frame   := payload_len u32 · fnv1a(payload) u64 · payload
//! payload := seq u64 · kind u8 · fields…
//! ```
//!
//! `seq` is a global monotonic sequence number assigned at record time,
//! so a k-way merge of the per-thread shards by `seq` reconstructs the
//! exact live delivery order — thread switches included, which is what
//! keeps replay-order delivery identical to the VM's (and the drms
//! profiler's redundancy cache byte-identical with it). The `BATCH`
//! frame stores a whole read/write batch columnar (`count u32`, then
//! `count` kinds, `count` addrs, `count` lens), mirroring the in-memory
//! struct-of-arrays layout; frames are length-prefixed so an mmap-based
//! reader can walk them zero-copy.
//!
//! # Salvage
//!
//! The same discipline as the text journal: a torn or corrupt frame
//! ends the shard — the checksummed prefix before it is salvaged, the
//! rest is dropped, and the accounting law
//! `trace.shard.lines.salvaged + dropped == total` (enforced by
//! [`Metrics::audit`]) holds. A `MANIFEST` written atomically at
//! [`ShardWriter::finish`] records the expected frame count per shard,
//! so the reader can tell how much a torn tail actually lost; without a
//! manifest (the writer crashed mid-run) a torn tail counts as one
//! dropped frame.

use crate::event::SyncOp;
use crate::fnv::fnv1a;
use crate::hostio::HostIo;
use crate::ids::{Addr, BlockId, RoutineId, ThreadId};
use crate::obs::Metrics;
use crate::replay::EventSink;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Leading magic of every shard file.
pub const SHARD_MAGIC: [u8; 8] = *b"DRMSSHD1";

/// Name of the atomic per-directory manifest.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Default per-shard buffer size before a flush to the host.
pub const DEFAULT_SPILL_THRESHOLD: usize = 64 * 1024;

const FILE_HEADER_BYTES: usize = 8 + 4;
const FRAME_HEADER_BYTES: usize = 4 + 8;
/// Upper bound on a single frame payload; anything larger in a length
/// prefix is corruption, not data.
const MAX_PAYLOAD_BYTES: usize = 1 << 26;

const K_THREAD_START: u8 = 0;
const K_THREAD_EXIT: u8 = 1;
const K_THREAD_SWITCH: u8 = 2;
const K_CALL: u8 = 3;
const K_RETURN: u8 = 4;
const K_READ: u8 = 5;
const K_WRITE: u8 = 6;
const K_U2K: u8 = 7;
const K_K2U: u8 = 8;
const K_SYNC: u8 = 9;
const K_BLOCK: u8 = 10;
const K_BATCH: u8 = 11;

/// On-disk encoding of `Option<ThreadId>`: no 32-bit thread index can
/// reach `u32::MAX` (it would be the 2^32-th spawned thread).
const NO_THREAD: u32 = u32::MAX;

/// Kind of one batched read/write entry, as stored in a `BATCH` frame.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardBatchKind {
    /// A guest load.
    Read,
    /// A guest store.
    Write,
}

/// One instrumentation event as the shard format stores it: the
/// [`EventSink`] callback vocabulary (costs included), not the merged
/// [`crate::TimedEvent`] one.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardEvent {
    /// First event of a thread.
    ThreadStart {
        /// Spawning thread, `None` for the main thread.
        parent: Option<ThreadId>,
    },
    /// Last event of a thread.
    ThreadExit {
        /// The thread's final cost.
        cost: u64,
    },
    /// The scheduler handed the CPU to this shard's thread.
    ThreadSwitch {
        /// Previously running thread, `None` at the very first switch.
        from: Option<ThreadId>,
    },
    /// Routine activation.
    Call {
        /// Activated routine.
        routine: RoutineId,
        /// Thread cost at activation.
        cost: u64,
    },
    /// Routine completion.
    Return {
        /// Completed routine.
        routine: RoutineId,
        /// Thread cost at completion.
        cost: u64,
    },
    /// Unbatched guest load.
    Read {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Unbatched guest store.
    Write {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Kernel reads a user buffer (output syscall).
    UserToKernel {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Kernel fills a user buffer (input syscall).
    KernelToUser {
        /// First cell.
        addr: Addr,
        /// Cell count.
        len: u32,
    },
    /// Synchronization operation.
    Sync {
        /// The operation.
        op: SyncOp,
    },
    /// Basic-block entry.
    Block {
        /// Containing routine.
        routine: RoutineId,
        /// The block.
        block: BlockId,
    },
}

/// Decoded payload of one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardPayload {
    /// A single event.
    Event(ShardEvent),
    /// A whole read/write batch, in emission order.
    Batch(Vec<(ShardBatchKind, Addr, u32)>),
}

/// One decoded frame: global sequence number, owning thread, payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFrame {
    /// Global monotonic sequence number (assigned at record time).
    pub seq: u64,
    /// Thread whose shard held the frame.
    pub thread: ThreadId,
    /// The decoded payload.
    pub payload: ShardPayload,
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn opt_thread(t: Option<ThreadId>) -> u32 {
    t.map_or(NO_THREAD, ThreadId::index)
}

fn encode_event(buf: &mut Vec<u8>, event: ShardEvent) {
    match event {
        ShardEvent::ThreadStart { parent } => {
            buf.push(K_THREAD_START);
            put_u32(buf, opt_thread(parent));
        }
        ShardEvent::ThreadExit { cost } => {
            buf.push(K_THREAD_EXIT);
            put_u64(buf, cost);
        }
        ShardEvent::ThreadSwitch { from } => {
            buf.push(K_THREAD_SWITCH);
            put_u32(buf, opt_thread(from));
        }
        ShardEvent::Call { routine, cost } => {
            buf.push(K_CALL);
            put_u32(buf, routine.index());
            put_u64(buf, cost);
        }
        ShardEvent::Return { routine, cost } => {
            buf.push(K_RETURN);
            put_u32(buf, routine.index());
            put_u64(buf, cost);
        }
        ShardEvent::Read { addr, len } => {
            buf.push(K_READ);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::Write { addr, len } => {
            buf.push(K_WRITE);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::UserToKernel { addr, len } => {
            buf.push(K_U2K);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::KernelToUser { addr, len } => {
            buf.push(K_K2U);
            put_u64(buf, addr.raw());
            put_u32(buf, len);
        }
        ShardEvent::Sync { op } => {
            buf.push(K_SYNC);
            match op {
                SyncOp::SemWait(s) => {
                    buf.push(0);
                    put_u32(buf, s);
                }
                SyncOp::SemSignal(s) => {
                    buf.push(1);
                    put_u32(buf, s);
                }
                SyncOp::MutexLock(m) => {
                    buf.push(2);
                    put_u32(buf, m);
                }
                SyncOp::MutexUnlock(m) => {
                    buf.push(3);
                    put_u32(buf, m);
                }
                SyncOp::CondWait { cond, mutex } => {
                    buf.push(4);
                    put_u32(buf, cond);
                    put_u32(buf, mutex);
                }
                SyncOp::CondSignal(c) => {
                    buf.push(5);
                    put_u32(buf, c);
                }
                SyncOp::CondBroadcast(c) => {
                    buf.push(6);
                    put_u32(buf, c);
                }
                SyncOp::Spawn { child } => {
                    buf.push(7);
                    put_u32(buf, child.index());
                }
                SyncOp::Join { child } => {
                    buf.push(8);
                    put_u32(buf, child.index());
                }
            }
        }
        ShardEvent::Block { routine, block } => {
            buf.push(K_BLOCK);
            put_u32(buf, routine.index());
            put_u32(buf, block.index());
        }
    }
}

/// Strict little-endian cursor; any short read means a torn frame.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.bytes.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn decode_opt_thread(v: u32) -> Option<ThreadId> {
    (v != NO_THREAD).then(|| ThreadId::new(v))
}

/// Decodes one checksummed payload. `None` means the payload is not a
/// well-formed frame (unknown kind, short fields, trailing bytes) and
/// the shard is torn at this frame.
fn decode_payload(payload: &[u8], thread: ThreadId) -> Option<ShardFrame> {
    let mut c = Cursor::new(payload);
    let seq = c.u64()?;
    let kind = c.u8()?;
    let payload = match kind {
        K_THREAD_START => ShardPayload::Event(ShardEvent::ThreadStart {
            parent: decode_opt_thread(c.u32()?),
        }),
        K_THREAD_EXIT => ShardPayload::Event(ShardEvent::ThreadExit { cost: c.u64()? }),
        K_THREAD_SWITCH => ShardPayload::Event(ShardEvent::ThreadSwitch {
            from: decode_opt_thread(c.u32()?),
        }),
        K_CALL => ShardPayload::Event(ShardEvent::Call {
            routine: RoutineId::new(c.u32()?),
            cost: c.u64()?,
        }),
        K_RETURN => ShardPayload::Event(ShardEvent::Return {
            routine: RoutineId::new(c.u32()?),
            cost: c.u64()?,
        }),
        K_READ => ShardPayload::Event(ShardEvent::Read {
            addr: Addr::new(c.u64()?),
            len: c.u32()?,
        }),
        K_WRITE => ShardPayload::Event(ShardEvent::Write {
            addr: Addr::new(c.u64()?),
            len: c.u32()?,
        }),
        K_U2K => ShardPayload::Event(ShardEvent::UserToKernel {
            addr: Addr::new(c.u64()?),
            len: c.u32()?,
        }),
        K_K2U => ShardPayload::Event(ShardEvent::KernelToUser {
            addr: Addr::new(c.u64()?),
            len: c.u32()?,
        }),
        K_SYNC => {
            let op = match c.u8()? {
                0 => SyncOp::SemWait(c.u32()?),
                1 => SyncOp::SemSignal(c.u32()?),
                2 => SyncOp::MutexLock(c.u32()?),
                3 => SyncOp::MutexUnlock(c.u32()?),
                4 => SyncOp::CondWait {
                    cond: c.u32()?,
                    mutex: c.u32()?,
                },
                5 => SyncOp::CondSignal(c.u32()?),
                6 => SyncOp::CondBroadcast(c.u32()?),
                7 => SyncOp::Spawn {
                    child: ThreadId::new(c.u32()?),
                },
                8 => SyncOp::Join {
                    child: ThreadId::new(c.u32()?),
                },
                _ => return None,
            };
            ShardPayload::Event(ShardEvent::Sync { op })
        }
        K_BLOCK => ShardPayload::Event(ShardEvent::Block {
            routine: RoutineId::new(c.u32()?),
            block: BlockId::new(c.u32()?),
        }),
        K_BATCH => {
            let count = c.u32()? as usize;
            // Columnar: count kinds, then count addrs, then count lens.
            let remaining = c.bytes.len() - c.pos;
            if count.checked_mul(13) != Some(remaining) {
                return None;
            }
            let mut kinds = Vec::with_capacity(count);
            for _ in 0..count {
                kinds.push(match c.u8()? {
                    0 => ShardBatchKind::Read,
                    1 => ShardBatchKind::Write,
                    _ => return None,
                });
            }
            let mut entries = Vec::with_capacity(count);
            for &k in &kinds {
                entries.push((k, Addr::new(c.u64()?), 0u32));
            }
            for e in &mut entries {
                e.2 = c.u32()?;
            }
            ShardPayload::Batch(entries)
        }
        _ => return None,
    };
    if !c.done() {
        return None;
    }
    Some(ShardFrame {
        seq,
        thread,
        payload,
    })
}

/// Shard file name for a thread.
fn shard_name(thread: ThreadId) -> String {
    format!("shard-{}.bin", thread.index())
}

fn thread_of_name(name: &str) -> Option<ThreadId> {
    name.strip_prefix("shard-")?
        .strip_suffix(".bin")?
        .parse::<u32>()
        .ok()
        .map(ThreadId::new)
}

struct OpenShard {
    file: File,
    name: String,
    buf: Vec<u8>,
    frames: u64,
    bytes: u64,
}

/// Summary of a finished [`ShardWriter`], for folding into a run's
/// metrics registry.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Frames written across all shards.
    pub frames: u64,
    /// Payload + framing bytes written across all shards (headers
    /// included).
    pub bytes: u64,
    /// Number of shard files.
    pub shards: u64,
}

impl ShardSummary {
    /// Adds the writer-side `trace.shard.*` counters to a registry.
    pub fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.add("trace.shard.frames", self.frames);
        metrics.add("trace.shard.bytes", self.bytes);
        metrics.set_gauge("trace.shard.files", self.shards);
    }
}

/// Streaming writer of a shard directory.
///
/// Recording is infallible by design — the hot loop must not branch on
/// I/O results — so the first host-I/O failure is latched and every
/// later record becomes a no-op; [`ShardWriter::finish`] surfaces the
/// latched error. Every byte goes through the [`HostIo`] seam, so
/// seeded ENOSPC / EIO chaos exercises the same code paths as real
/// disks, and a crashed or faulted run leaves shards whose checksummed
/// prefix [`ShardSet::load`] salvages.
pub struct ShardWriter {
    io: HostIo,
    dir: PathBuf,
    spill_threshold: usize,
    shards: Vec<Option<OpenShard>>,
    scratch: Vec<u8>,
    seq: u64,
    error: Option<io::Error>,
}

impl ShardWriter {
    /// Creates (or reuses) `dir` and a writer spilling each shard's
    /// buffer once it exceeds `spill_threshold` bytes.
    pub fn create(io: &HostIo, dir: &Path, spill_threshold: usize) -> io::Result<ShardWriter> {
        std::fs::create_dir_all(dir)?;
        Ok(ShardWriter {
            io: io.clone(),
            dir: dir.to_path_buf(),
            spill_threshold: spill_threshold.max(1),
            shards: Vec::new(),
            scratch: Vec::new(),
            seq: 0,
            error: None,
        })
    }

    /// The first latched host-I/O error, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Records one event into `thread`'s shard. Infallible: a host-I/O
    /// failure latches and later records are dropped.
    pub fn record_event(&mut self, thread: ThreadId, event: ShardEvent) {
        if self.error.is_some() {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        put_u64(&mut scratch, seq);
        encode_event(&mut scratch, event);
        self.append_frame(thread, &scratch);
        self.scratch = scratch;
    }

    /// Records one whole read/write batch into `thread`'s shard, in the
    /// same columnar layout it had in memory.
    pub fn record_batch<I>(&mut self, thread: ThreadId, entries: I)
    where
        I: ExactSizeIterator<Item = (ShardBatchKind, Addr, u32)> + Clone,
    {
        if self.error.is_some() {
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let count = entries.len() as u32;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        put_u64(&mut scratch, seq);
        scratch.push(K_BATCH);
        put_u32(&mut scratch, count);
        for (kind, _, _) in entries.clone() {
            scratch.push(match kind {
                ShardBatchKind::Read => 0,
                ShardBatchKind::Write => 1,
            });
        }
        for (_, addr, _) in entries.clone() {
            put_u64(&mut scratch, addr.raw());
        }
        for (_, _, len) in entries {
            put_u32(&mut scratch, len);
        }
        self.append_frame(thread, &scratch);
        self.scratch = scratch;
    }

    fn append_frame(&mut self, thread: ThreadId, payload: &[u8]) {
        let idx = thread.index() as usize;
        while self.shards.len() <= idx {
            self.shards.push(None);
        }
        if self.shards[idx].is_none() {
            let name = shard_name(thread);
            let path = self.dir.join(&name);
            match self.io.create(&path) {
                Ok(file) => {
                    // Pre-size to the spill point (bounded: a huge
                    // threshold means "never spill", not "pre-allocate").
                    let mut buf =
                        Vec::with_capacity(self.spill_threshold.saturating_add(64).min(1 << 20));
                    buf.extend_from_slice(&SHARD_MAGIC);
                    put_u32(&mut buf, thread.index());
                    self.shards[idx] = Some(OpenShard {
                        file,
                        name,
                        bytes: buf.len() as u64,
                        buf,
                        frames: 0,
                    });
                }
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
        let spill = self.spill_threshold;
        let shard = self.shards[idx].as_mut().expect("shard just ensured");
        put_u32(&mut shard.buf, payload.len() as u32);
        put_u64(&mut shard.buf, fnv1a(payload));
        shard.buf.extend_from_slice(payload);
        shard.frames += 1;
        shard.bytes += (FRAME_HEADER_BYTES + payload.len()) as u64;
        if shard.buf.len() >= spill {
            if let Err(e) = self.io.write_all(&mut shard.file, &shard.buf) {
                self.error = Some(e);
                return;
            }
            shard.buf.clear();
        }
    }

    /// Flushes and fsyncs every shard, atomically publishes the
    /// manifest, and fsyncs the directory. Returns the first latched
    /// recording error instead, if there was one — the shards on disk
    /// then hold a salvageable prefix of the run.
    pub fn finish(mut self) -> io::Result<ShardSummary> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut summary = ShardSummary::default();
        let mut manifest = String::from("drms shard manifest v1\n");
        for shard in self.shards.iter_mut().flatten() {
            if !shard.buf.is_empty() {
                self.io.write_all(&mut shard.file, &shard.buf)?;
                shard.buf.clear();
            }
            self.io.fdatasync(&shard.file)?;
            summary.frames += shard.frames;
            summary.bytes += shard.bytes;
            summary.shards += 1;
            let line = format!("{} {} {}", shard.name, shard.frames, shard.bytes);
            let sum = fnv1a(line.as_bytes());
            manifest.push_str(&line);
            manifest.push_str(&format!(" ~{sum:016x}\n"));
        }
        let tmp = self.dir.join("MANIFEST.tmp");
        let target = self.dir.join(MANIFEST_FILE);
        let publish = (|| -> io::Result<()> {
            let mut f = self.io.create(&tmp)?;
            self.io.write_all(&mut f, manifest.as_bytes())?;
            self.io.fsync(&f)?;
            drop(f);
            self.io.rename(&tmp, &target)?;
            self.io.sync_parent_dir(&target)
        })();
        if let Err(e) = publish {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(summary)
    }
}

/// The salvaged contents of one shard file.
#[derive(Clone, Debug)]
pub struct SalvagedShard {
    /// File name inside the shard directory.
    pub name: String,
    /// Owning thread, from the file name (the header must agree).
    pub thread: ThreadId,
    /// The checksummed frame prefix, in record order.
    pub frames: Vec<ShardFrame>,
    /// Bytes of the valid prefix (header + intact frames).
    pub bytes: u64,
    /// Whether the file ended in a torn or corrupt frame.
    pub torn: bool,
}

/// Parses one shard image, salvaging the longest checksummed prefix.
fn parse_shard(name: &str, bytes: &[u8]) -> SalvagedShard {
    let thread = thread_of_name(name).unwrap_or(ThreadId::MAIN);
    // The header's thread id is outside every checksum: one that
    // disagrees with the file name is corruption, and trusting it would
    // replay the frames as some other (possibly huge) thread.
    if bytes.len() < FILE_HEADER_BYTES
        || bytes[..8] != SHARD_MAGIC
        || bytes[8..12] != thread.index().to_le_bytes()
    {
        return SalvagedShard {
            name: name.to_owned(),
            thread,
            frames: Vec::new(),
            bytes: 0,
            torn: true,
        };
    }
    let mut frames = Vec::new();
    let mut pos = FILE_HEADER_BYTES;
    let mut torn = false;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + FRAME_HEADER_BYTES) else {
            torn = true;
            break;
        };
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if len > MAX_PAYLOAD_BYTES {
            torn = true;
            break;
        }
        let Some(payload) = bytes.get(pos + FRAME_HEADER_BYTES..pos + FRAME_HEADER_BYTES + len)
        else {
            torn = true;
            break;
        };
        if fnv1a(payload) != sum {
            torn = true;
            break;
        }
        let Some(frame) = decode_payload(payload, thread) else {
            torn = true;
            break;
        };
        frames.push(frame);
        pos += FRAME_HEADER_BYTES + len;
    }
    SalvagedShard {
        name: name.to_owned(),
        thread,
        frames,
        bytes: if torn { pos } else { bytes.len() } as u64,
        torn,
    }
}

/// Parses the manifest text into `(name, frames, bytes)` rows. `None`
/// means the manifest as a whole cannot be trusted (it is written
/// atomically, so a damaged one is corruption, not a torn tail).
fn parse_manifest(text: &str) -> Option<Vec<(String, u64, u64)>> {
    let mut lines = text.lines();
    if lines.next()? != "drms shard manifest v1" {
        return None;
    }
    let mut rows = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (body, sum) = line.rsplit_once(" ~")?;
        let sum = u64::from_str_radix(sum, 16).ok()?;
        if fnv1a(body.as_bytes()) != sum {
            return None;
        }
        let mut parts = body.split(' ');
        let name = parts.next()?.to_owned();
        let frames = parts.next()?.parse().ok()?;
        let bytes = parts.next()?.parse().ok()?;
        if parts.next().is_some() {
            return None;
        }
        rows.push((name, frames, bytes));
    }
    Some(rows)
}

/// A loaded shard directory: every shard's salvaged prefix plus the
/// salvage accounting across them.
#[derive(Clone, Debug)]
pub struct ShardSet {
    /// Salvaged shards, ordered by thread index.
    pub shards: Vec<SalvagedShard>,
    /// Frames salvaged across all shards.
    pub salvaged: u64,
    /// Frames lost to torn tails, corrupt frames, or missing files
    /// (counted against the manifest when one exists).
    pub dropped: u64,
    /// `salvaged + dropped` — the accounting law's right-hand side.
    pub total: u64,
    /// Bytes of valid prefix across all shards.
    pub bytes: u64,
    /// Whether a trustworthy manifest was found.
    pub had_manifest: bool,
    /// Human-readable notes about everything that was not pristine.
    pub warnings: Vec<String>,
}

impl ShardSet {
    /// Loads every `shard-*.bin` under `dir`, parsing up to `jobs`
    /// shards in parallel (the sweep's worker-pool idiom: the calling
    /// thread plus `jobs - 1` scoped threads racing over an atomic
    /// cursor).
    pub fn load(dir: &Path, jobs: usize) -> io::Result<ShardSet> {
        let mut names: Vec<String> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if thread_of_name(&name).is_some() {
                names.push(name);
            }
        }
        names.sort_by_key(|n| thread_of_name(n).map(ThreadId::index));

        let mut warnings = Vec::new();
        let manifest = match std::fs::read_to_string(dir.join(MANIFEST_FILE)) {
            Ok(text) => match parse_manifest(&text) {
                Some(rows) => Some(rows),
                None => {
                    warnings.push("manifest corrupt; falling back to per-shard tears".to_owned());
                    None
                }
            },
            Err(_) => None,
        };

        let cursor = AtomicUsize::new(0);
        // One worker's share: claim shards off the cursor until none
        // are left, keeping what it parsed.
        let claim = || {
            let mut parsed = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(name) = names.get(i) else { break };
                let shard = match std::fs::read(dir.join(name)) {
                    Ok(bytes) => parse_shard(name, &bytes),
                    Err(_) => SalvagedShard {
                        name: name.clone(),
                        thread: thread_of_name(name).unwrap_or(ThreadId::MAIN),
                        frames: Vec::new(),
                        bytes: 0,
                        torn: true,
                    },
                };
                parsed.push((i, shard));
            }
            parsed
        };
        // `jobs = 1` spawns nothing: no thread, no extra malloc arena.
        let workers = jobs.max(1).min(names.len().max(1));
        let mut parsed = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
            let mut parsed = claim();
            for helper in helpers {
                parsed.extend(
                    helper
                        .join()
                        .unwrap_or_else(|p| std::panic::resume_unwind(p)),
                );
            }
            parsed
        });
        parsed.sort_by_key(|(i, _)| *i);

        let mut set = ShardSet {
            shards: parsed.into_iter().map(|(_, shard)| shard).collect(),
            salvaged: 0,
            dropped: 0,
            total: 0,
            bytes: 0,
            had_manifest: manifest.is_some(),
            warnings,
        };
        // Accounting: with a manifest, a shard's expected frame count is
        // authoritative (dropped = expected − salvaged, and a missing
        // file drops all of its frames); without one, a torn tail is
        // known to have lost at least the frame it tore in.
        let mut seen: Vec<&str> = Vec::new();
        for shard in &set.shards {
            seen.push(&shard.name);
            let salvaged = shard.frames.len() as u64;
            let expected = manifest
                .as_deref()
                .and_then(|rows| rows.iter().find(|(n, _, _)| *n == shard.name))
                .map(|&(_, frames, _)| frames.max(salvaged))
                .unwrap_or(salvaged + shard.torn as u64);
            set.salvaged += salvaged;
            set.dropped += expected - salvaged;
            set.total += expected;
            set.bytes += shard.bytes;
            if shard.torn {
                set.warnings
                    .push(format!("{}: torn after {salvaged} frames", shard.name));
            }
        }
        for (name, frames, _) in manifest.as_deref().unwrap_or(&[]) {
            if !seen.contains(&name.as_str()) {
                set.dropped += frames;
                set.total += frames;
                set.warnings
                    .push(format!("{name}: listed in manifest but missing"));
            }
        }
        Ok(set)
    }

    /// Adds the reader-side shard counters and the salvage-accounting
    /// triple (`trace.shard.lines.{salvaged,dropped,total}`, whose sum
    /// law [`Metrics::audit`] enforces) to a registry. The plain
    /// `trace.shard.{salvaged,dropped}` aliases are the documented
    /// dashboard names.
    pub fn observe_metrics(&self, metrics: &mut Metrics) {
        metrics.record_salvage("trace.shard", self.salvaged, self.dropped, self.total);
        metrics.add("trace.shard.salvaged", self.salvaged);
        metrics.add("trace.shard.dropped", self.dropped);
        metrics.add("trace.shard.frames", self.salvaged);
        metrics.add("trace.shard.bytes", self.bytes);
        metrics.set_gauge("trace.shard.files", self.shards.len() as u64);
    }

    /// Every salvaged frame, merged across shards back into the global
    /// record order (`seq` is globally monotonic, so this *is* the live
    /// delivery order).
    pub fn frames_in_order(&self) -> Vec<&ShardFrame> {
        let mut frames: Vec<&ShardFrame> =
            self.shards.iter().flat_map(|s| s.frames.iter()).collect();
        frames.sort_by_key(|f| f.seq);
        frames
    }

    /// Replays the salvaged frames, in global order, into `sink` —
    /// batch frames are unrolled entry-by-entry (observably equivalent
    /// to native batch delivery) — then finishes the sink.
    pub fn replay<S: EventSink + ?Sized>(&self, sink: &mut S) {
        for frame in self.frames_in_order() {
            deliver_frame(frame, sink);
        }
        sink.on_finish();
    }
}

/// Delivers one frame to an [`EventSink`], batch entries unrolled.
pub fn deliver_frame<S: EventSink + ?Sized>(frame: &ShardFrame, sink: &mut S) {
    let t = frame.thread;
    match &frame.payload {
        ShardPayload::Event(event) => match *event {
            ShardEvent::ThreadStart { parent } => sink.on_thread_start(t, parent),
            ShardEvent::ThreadExit { cost } => sink.on_thread_exit(t, cost),
            ShardEvent::ThreadSwitch { from } => sink.on_thread_switch(from, t),
            ShardEvent::Call { routine, cost } => sink.on_call(t, routine, cost),
            ShardEvent::Return { routine, cost } => sink.on_return(t, routine, cost),
            ShardEvent::Read { addr, len } => sink.on_read(t, addr, len),
            ShardEvent::Write { addr, len } => sink.on_write(t, addr, len),
            ShardEvent::UserToKernel { addr, len } => sink.on_user_to_kernel(t, addr, len),
            ShardEvent::KernelToUser { addr, len } => sink.on_kernel_to_user(t, addr, len),
            ShardEvent::Sync { op } => sink.on_sync(t, op),
            ShardEvent::Block { routine, block } => sink.on_block(t, routine, block),
        },
        ShardPayload::Batch(entries) => {
            for &(kind, addr, len) in entries {
                match kind {
                    ShardBatchKind::Read => sink.on_read(t, addr, len),
                    ShardBatchKind::Write => sink.on_write(t, addr, len),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("drms-shard-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_events() -> Vec<(ThreadId, ShardEvent)> {
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        vec![
            (t0, ShardEvent::ThreadStart { parent: None }),
            (
                t0,
                ShardEvent::Call {
                    routine: RoutineId::new(3),
                    cost: 10,
                },
            ),
            (
                t0,
                ShardEvent::Read {
                    addr: Addr::new(0x100),
                    len: 4,
                },
            ),
            (t1, ShardEvent::ThreadStart { parent: Some(t0) }),
            (t1, ShardEvent::ThreadSwitch { from: Some(t0) }),
            (
                t1,
                ShardEvent::Sync {
                    op: SyncOp::CondWait { cond: 1, mutex: 2 },
                },
            ),
            (
                t0,
                ShardEvent::Return {
                    routine: RoutineId::new(3),
                    cost: 99,
                },
            ),
            (t0, ShardEvent::ThreadExit { cost: 99 }),
        ]
    }

    #[test]
    fn write_load_replay_roundtrip_in_global_order() {
        let dir = tmp_dir("roundtrip");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, 16).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.record_batch(
            ThreadId::new(1),
            [
                (ShardBatchKind::Read, Addr::new(0x200), 1u32),
                (ShardBatchKind::Write, Addr::new(0x208), 8u32),
            ]
            .into_iter(),
        );
        let summary = w.finish().unwrap();
        assert_eq!(summary.frames, 9);
        assert_eq!(summary.shards, 2);

        let set = ShardSet::load(&dir, 4).unwrap();
        assert!(set.had_manifest);
        assert_eq!(set.salvaged, 9);
        assert_eq!(set.dropped, 0);
        assert_eq!(set.total, 9);
        let frames = set.frames_in_order();
        assert_eq!(frames.len(), 9);
        // seq is strictly increasing across the merged shards.
        assert!(frames.windows(2).all(|w| w[0].seq < w[1].seq));
        // The events come back in record order, not per-file order.
        let got: Vec<(ThreadId, &ShardPayload)> =
            frames.iter().map(|f| (f.thread, &f.payload)).collect();
        for (i, &(t, e)) in sample_events().iter().enumerate() {
            assert_eq!(got[i], (t, &ShardPayload::Event(e)), "frame {i}");
        }
        assert_eq!(
            *got[8].1,
            ShardPayload::Batch(vec![
                (ShardBatchKind::Read, Addr::new(0x200), 1),
                (ShardBatchKind::Write, Addr::new(0x208), 8),
            ])
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_salvages_prefix_and_accounts_against_manifest() {
        let dir = tmp_dir("torn");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.finish().unwrap();

        // Tear the larger shard three bytes before its end.
        let victim = dir.join("shard-0.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 3]).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert!(set.had_manifest);
        assert_eq!(set.salvaged + set.dropped, set.total);
        assert_eq!(set.dropped, 1, "exactly the torn frame is lost");
        assert_eq!(set.total, 8);
        let mut m = Metrics::new();
        set.observe_metrics(&mut m);
        assert!(m.audit().is_ok(), "salvage accounting must audit clean");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_counts_tears_only() {
        let dir = tmp_dir("nomanifest");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();

        let intact = ShardSet::load(&dir, 1).unwrap();
        assert!(!intact.had_manifest);
        assert_eq!(intact.salvaged, 8);
        assert_eq!(intact.dropped, 0);

        let victim = dir.join("shard-1.bin");
        let bytes = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &bytes[..bytes.len() - 1]).unwrap();
        let torn = ShardSet::load(&dir, 1).unwrap();
        assert_eq!(torn.dropped, 1, "a tear without a manifest counts once");
        assert_eq!(torn.salvaged + torn.dropped, torn.total);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_header_thread_disagreeing_with_the_file_name_is_corruption() {
        let dir = tmp_dir("badthread");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.finish().unwrap();

        // Flip the top byte of shard-1's header thread id (offset 8..12).
        let victim = dir.join("shard-1.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[11] ^= 0x80;
        std::fs::write(&victim, &bytes).unwrap();

        let set = ShardSet::load(&dir, 1).unwrap();
        let shard = set.shards.iter().find(|s| s.name == "shard-1.bin").unwrap();
        assert_eq!(shard.thread, ThreadId::new(1));
        assert!(shard.torn && shard.frames.is_empty());
        assert!(set.frames_in_order().iter().all(|f| f.thread.index() <= 1));
        assert_eq!((set.salvaged, set.dropped, set.total), (5, 3, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_missing_file_drops_its_frames() {
        let dir = tmp_dir("missingfile");
        let io = HostIo::real();
        let mut w = ShardWriter::create(&io, &dir, usize::MAX).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        w.finish().unwrap();
        std::fs::remove_file(dir.join("shard-1.bin")).unwrap();

        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.total, 8);
        assert_eq!(set.salvaged + set.dropped, set.total);
        assert!(set.warnings.iter().any(|w| w.contains("missing")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_writer_latches_and_finish_surfaces_the_error() {
        let dir = tmp_dir("faulted");
        let io = HostIo::from_spec("write:enospc:once=1").unwrap();
        let mut w = ShardWriter::create(&io, &dir, 1).unwrap();
        for &(t, e) in &sample_events() {
            w.record_event(t, e);
        }
        assert!(w.error().is_some(), "first write faults and latches");
        let err = w.finish().unwrap_err();
        assert!(crate::hostio::is_injected(&err));
        // Whatever reached the disk is still a loadable prefix.
        let set = ShardSet::load(&dir, 2).unwrap();
        assert_eq!(set.salvaged + set.dropped, set.total);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
