//! The `aprofd-loopback` workload: an in-process daemon on
//! `127.0.0.1:0`, driven as a closed loop by two tenant clients that each
//! submit a small job, poll it until `done` and read its report.

use crate::spans::Spans;
use crate::stats::{nproc, splitmix, Tally};
use drms::sched::fnv1a;
use drms_aprofd::{serve, Daemon, DaemonConfig, JobSpec};
use drms_bench::supervisor::{profile_cell, run_supervised_with};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant clients, each on its own keep-alive connection.
pub const CLIENTS: usize = 2;

/// Jobs each client completes per round: together the clients run
/// every job of the mix once per round.
pub const JOBS_PER_ROUND: usize = MIX.len() / CLIENTS;

/// Pause between two status polls of one job.
pub const POLL_INTERVAL: Duration = Duration::from_millis(2);

/// The job mix: family and smallest size of each spec (each spec sweeps
/// that size and twice it). Fixed, so every round does the same work;
/// the workload seed picks the guest seeds and the order jobs run in.
const MIX: [(&str, i64); 8] = [
    ("minidb", 32),
    ("minidb", 64),
    ("stream", 32),
    ("stream", 64),
    ("producer-consumer", 32),
    ("mysqlslap", 16),
    ("imgpipe", 2),
    ("sort", 4),
];

/// A minimal HTTP/1.1 client: one keep-alive connection, each request
/// written with a single `write_all`, reconnecting when the server
/// closes. Deliberately not `drms_aprofd::Conn`, so the load generator
/// shares no code with the system under test.
pub struct HttpClient {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
}

/// One response: status and body.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
}

impl HttpClient {
    /// A client for `addr` (`host:port`); connects on first use.
    pub fn new(addr: &str) -> HttpClient {
        HttpClient {
            addr: addr.to_string(),
            conn: None,
        }
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(BufReader::new(stream));
        }
        let result = self.exchange(method, path, body);
        if !matches!(result, Ok((_, true))) {
            self.conn = None;
        }
        result.map(|(reply, _)| reply)
    }

    /// Returns the reply and whether the connection stays open.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(Reply, bool)> {
        let conn = self.conn.as_mut().expect("connected above");
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.addr,
            body.len()
        );
        conn.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line `{}`", line.trim())))?;
        let mut length = 0usize;
        let mut keep = true;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("truncated response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((k, v)) = header.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    length = v.trim().parse().map_err(std::io::Error::other)?;
                } else if k.eq_ignore_ascii_case("connection") {
                    keep = !v.trim().eq_ignore_ascii_case("close");
                }
            }
        }
        let mut buf = vec![0u8; length];
        conn.read_exact(&mut buf)?;
        let body = String::from_utf8(buf).map_err(std::io::Error::other)?;
        Ok((Reply { status, body }, keep))
    }
}

/// A running in-process daemon and the threads serving it.
pub struct Running {
    /// The daemon itself, for in-process calls.
    pub daemon: Arc<Daemon>,
    /// `host:port` it listens on.
    pub addr: String,
    dir: PathBuf,
    workers: Vec<JoinHandle<()>>,
    server: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Starts a daemon over a fresh `dir` (workers and io-threads each
    /// `nproc`) and waits until `/healthz` answers.
    pub fn start(dir: &Path) -> std::io::Result<Running> {
        let _ = std::fs::remove_dir_all(dir);
        let mut cfg = DaemonConfig::new(dir);
        cfg.workers = nproc();
        cfg.io_threads = nproc();
        let daemon = Daemon::new(cfg)?;
        let workers = daemon.spawn_workers();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let served = Arc::clone(&daemon);
        let server = std::thread::spawn(move || serve(served, listener));
        let mut client = HttpClient::new(&addr);
        let reply = client.request("GET", "/healthz", "")?;
        if reply.status != 200 {
            return Err(std::io::Error::other(format!(
                "healthz answered {}",
                reply.status
            )));
        }
        Ok(Running {
            daemon,
            addr,
            dir: dir.to_path_buf(),
            workers,
            server,
        })
    }

    /// Drains the daemon, joins every thread it runs and removes its
    /// state directory.
    pub fn stop(self) -> std::io::Result<()> {
        self.daemon.begin_drain();
        let served = self
            .server
            .join()
            .map_err(|_| std::io::Error::other("accept loop panicked"))?;
        for w in self.workers {
            w.join()
                .map_err(|_| std::io::Error::other("worker panicked"))?;
        }
        served?;
        std::fs::remove_dir_all(&self.dir)
    }
}

/// One job of the mix with its in-process reference.
#[derive(Clone, Debug)]
pub struct MixJob {
    /// Spec text as submitted (tenant line added per client).
    pub spec: String,
    /// Fingerprint of an in-process `run_supervised_with` of the spec.
    pub fingerprint: u64,
    /// Guest instructions the job profiles.
    pub instructions: u64,
}

/// The job mix for a workload seed: every [`MIX`] entry with a seeded
/// guest seed.
pub fn mix_specs(seed: u64) -> Vec<String> {
    let mut state = seed ^ 0xA5A5_5A5A;
    MIX.iter()
        .map(|(family, size)| {
            let guest = 1 + splitmix(&mut state) % 8;
            format!(
                "family {family}\nsizes {size},{}\nseeds {guest}\njobs 1\n",
                size * 2
            )
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher-Yates).
fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(state) % (i as u64 + 1)) as usize);
    }
    order
}

/// Runs every spec of the mix in-process once: the references each
/// daemon job is checked against.
pub fn references(specs: &[String]) -> Vec<MixJob> {
    specs
        .iter()
        .map(|text| {
            let spec = JobSpec::parse(text).expect("generated specs are admissible");
            let result = run_supervised_with(
                &spec.sweep_spec(),
                &spec.supervisor_options(),
                None,
                &profile_cell,
            );
            MixJob {
                spec: text.clone(),
                fingerprint: result.fingerprint(),
                instructions: result.instructions(),
            }
        })
        .collect()
}

/// Everything one timed phase measured.
#[derive(Default)]
pub struct LoadResult {
    /// Wall seconds of each round.
    pub rounds: Vec<f64>,
    /// Guest instructions profiled by each round's jobs.
    pub round_instructions: Vec<u64>,
    /// Submit-to-`done` milliseconds of every job.
    pub job_ms: Vec<f64>,
    /// Round-trip milliseconds of every request.
    pub request_ms: Vec<f64>,
    /// One operation per request and per job checked.
    pub checks: Tally,
}

/// One client's share of the results.
#[derive(Default)]
struct ClientLog {
    job_ms: Vec<f64>,
    request_ms: Vec<f64>,
    instructions: u64,
    checks: Tally,
}

/// A client plus where its spans go.
struct Caller<'a> {
    client: HttpClient,
    spans: &'a Spans,
    job: Option<usize>,
}

fn timed(
    caller: &mut Caller,
    log: &mut ClientLog,
    method: &str,
    path: &str,
    body: &str,
) -> Option<Reply> {
    let t = Instant::now();
    let reply = caller.spans.record("http.request", caller.job, |_| {
        caller.client.request(method, path, body)
    });
    log.request_ms.push(t.elapsed().as_secs_f64() * 1e3);
    match reply {
        Ok(r) if r.status == 200 => {
            log.checks.check(true, String::new);
            Some(r)
        }
        Ok(r) => {
            log.checks.check(false, || {
                format!("{method} {path}: status {} {}", r.status, r.body.trim())
            });
            None
        }
        Err(e) => {
            log.checks.check(false, || format!("{method} {path}: {e}"));
            None
        }
    }
}

/// Submits one job, polls it to `done`, reads its report and checks
/// both fingerprints against the reference.
fn run_job(caller: &mut Caller, log: &mut ClientLog, tenant: &str, job: &MixJob) {
    let start = Instant::now();
    let body = format!("tenant {tenant}\n{}", job.spec);
    let Some(id) = timed(caller, log, "POST", "/jobs", &body).map(|r| r.body.trim().to_string())
    else {
        log.checks.check(false, || "job not admitted".to_string());
        return;
    };
    let status_path = format!("/jobs/{id}");
    let status = loop {
        std::thread::sleep(POLL_INTERVAL);
        let Some(reply) = timed(caller, log, "GET", &status_path, "") else {
            break None;
        };
        let state = field(&reply.body, "state").unwrap_or_default();
        if state == "done" || state == "failed" {
            break Some(reply.body);
        }
    };
    log.job_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let done_fp = status
        .as_deref()
        .filter(|s| field(s, "state").as_deref() == Some("done"))
        .and_then(|s| field(s, "fingerprint"))
        .and_then(|v| u64::from_str_radix(&v, 16).ok());
    let report = timed(caller, log, "GET", &format!("/jobs/{id}/report"), "");
    let report_fp = report.map(|r| fnv1a(r.body.as_bytes()));
    let ok = done_fp == Some(job.fingerprint) && report_fp == Some(job.fingerprint);
    log.checks.check(ok, || {
        format!(
            "job {id}: status fingerprint {done_fp:x?}, report {report_fp:x?}, reference {:x}",
            job.fingerprint
        )
    });
    if ok {
        log.instructions += job.instructions;
    }
}

/// The value of a `key value` line of a status body.
pub fn field(body: &str, key: &str) -> Option<String> {
    body.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ').map(str::to_string))
}

/// Drives `addr` with [`CLIENTS`] closed-loop clients in rounds of
/// [`JOBS_PER_ROUND`] jobs per client until `seconds` have passed.
/// With spans enabled, each round, job and request is a span: requests
/// parented on their job, jobs on their round.
pub fn drive(addr: &str, mix: &[MixJob], seed: u64, seconds: f64, spans: &Spans) -> LoadResult {
    let barrier = Barrier::new(CLIENTS + 1);
    let round_span: Mutex<Option<usize>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    let logs: Mutex<Vec<ClientLog>> = Mutex::new(Vec::new());
    let round_logs: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut out = LoadResult::default();
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (barrier, stop, logs, round_logs) = (&barrier, &stop, &logs, &round_logs);
            let round_span = &round_span;
            s.spawn(move || {
                let tenant = format!("t{c}");
                let mut state = seed;
                let mut caller = Caller {
                    client: HttpClient::new(addr),
                    spans,
                    job: None,
                };
                let mut log = ClientLog::default();
                loop {
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let before = log.instructions;
                    let round = *round_span.lock().expect("round span poisoned");
                    // Every client draws the same permutation and takes its
                    // own slice of it, so each round runs the whole mix.
                    let order = shuffled(mix.len(), &mut state);
                    for &k in order.iter().skip(c * JOBS_PER_ROUND).take(JOBS_PER_ROUND) {
                        let job = &mix[k];
                        spans.record("aprofd.job", round, |id| {
                            caller.job = id;
                            run_job(&mut caller, &mut log, &tenant, job);
                        });
                    }
                    round_logs
                        .lock()
                        .expect("round log poisoned")
                        .push(log.instructions - before);
                    barrier.wait();
                }
                logs.lock().expect("client log poisoned").push(log);
            });
        }
        let start = Instant::now();
        loop {
            let t = Instant::now();
            spans.record("loadgen.round", None, |id| {
                *round_span.lock().expect("round span poisoned") = id;
                barrier.wait();
                barrier.wait();
            });
            out.rounds.push(t.elapsed().as_secs_f64());
            let instr: u64 = round_logs
                .lock()
                .expect("round log poisoned")
                .drain(..)
                .sum();
            out.round_instructions.push(instr);
            if start.elapsed().as_secs_f64() >= seconds {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
    });
    for log in logs.into_inner().expect("client log poisoned") {
        out.job_ms.extend(log.job_ms);
        out.request_ms.extend(log.request_ms);
        out.checks.absorb(log.checks);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunDir;

    #[test]
    fn jobs_are_checked_against_their_references() {
        let dir = RunDir::new("test-loopback").unwrap();
        let daemon = Running::start(&dir.path().join("d")).unwrap();
        let mut mix = references(&mix_specs(5));
        let good = drive(&daemon.addr, &mix, 5, 0.05, &Spans::new(false));
        assert_eq!(good.checks.failed, 0, "{:?}", good.checks.notes);
        assert_eq!(good.job_ms.len(), CLIENTS * JOBS_PER_ROUND);
        assert!(good.request_ms.len() >= 3 * good.job_ms.len());
        assert!(good.round_instructions[0] > 0);

        mix[0].fingerprint ^= 1;
        let bad = drive(&daemon.addr, &mix, 5, 0.05, &Spans::new(false));
        assert_eq!(
            bad.checks.failed, 1,
            "exactly the job with the wrong reference fails"
        );
        assert_eq!(
            bad.round_instructions[0] + mix[0].instructions,
            good.round_instructions[0],
            "a failed job counts no work"
        );
        daemon.stop().unwrap();
        assert!(
            !dir.path().join("d").exists(),
            "stop removes the daemon's state"
        );
    }

    #[test]
    fn mix_is_seeded() {
        assert_eq!(mix_specs(3), mix_specs(3));
        assert_ne!(mix_specs(3), mix_specs(4));
        let mut a = 1;
        let order = shuffled(MIX.len(), &mut a);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..MIX.len()).collect::<Vec<_>>());
        for spec in mix_specs(77) {
            JobSpec::parse(&spec).unwrap();
        }
    }
}
