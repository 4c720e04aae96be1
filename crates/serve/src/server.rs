//! The batch server: a TCP acceptor, a shared job queue, and a fixed
//! worker pool draining it.
//!
//! One connection thread per client reads frames and turns `Submit`
//! payloads into queued jobs; `workers` pool threads execute them with
//! [`Pipeline::from_config`] (each job's own `SimConfig` decides how many
//! simulation threads *that* job fans out to — the pool bounds only how
//! many jobs run concurrently). Every job gets:
//!
//! - its own span tree ([`atspeed_trace::scope`]), written per job under
//!   `trace_dir` when configured, so one job's spans never interleave
//!   with another's;
//! - its own [`stats`](atspeed_sim::stats) scope, so per-job simulation
//!   reports are accurate under concurrency;
//! - one run-history record ([`RunRecord`]) when `history` is
//!   configured, so the `report` binary works per job.
//!
//! **A served job never aborts the process.** Pipeline errors and panics
//! are caught ([`std::panic::catch_unwind`] — the workspace forbids
//! unsafe code, so unwinding is safe to contain), the in-flight cache
//! entry is abandoned (promoting one waiter), and the client receives an
//! `Error` frame. Framing violations get an explicit `Error` reply
//! before the connection closes; malformed submissions get an `Error`
//! reply and the connection stays usable.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use atspeed_bench::telemetry::DerivedMetrics;
use atspeed_circuit::bench_fmt;
use atspeed_core::Pipeline;
use atspeed_sim::{stats, SimConfig};
use atspeed_trace::history::{config_fingerprint, fingerprint, RunRecord};
use atspeed_trace::Tracer;

use crate::cache::{CacheBudget, CacheKey, JobCache, Lookup};
use crate::protocol::{
    encode_frame, encode_result, read_frame, write_frame, CacheOutcome, Frame, FrameKind,
    ProtocolError, ResponseHeader, SubmitRequest,
};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Job worker threads (how many jobs run concurrently).
    pub workers: usize,
    /// Simulation config for jobs whose submission has no `threads` key
    /// (a submission's own `threads` wins).
    pub job_sim: SimConfig,
    /// Cache capacity bounds.
    pub budget: CacheBudget,
    /// Per-job run-history JSONL path (off when `None`).
    pub history: Option<PathBuf>,
    /// Directory for per-job Chrome traces (tracing off when `None`).
    pub trace_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            job_sim: SimConfig::default(),
            budget: CacheBudget::default(),
            history: None,
            trace_dir: None,
        }
    }
}

enum JobReply {
    Ok {
        header: ResponseHeader,
        body: Arc<Vec<u8>>,
    },
    Failed(String),
}

struct Job {
    request: SubmitRequest,
    reply: mpsc::Sender<JobReply>,
}

struct Shared {
    cfg: ServeConfig,
    cache: JobCache,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    stop: AtomicBool,
    jobs_started: AtomicU64,
    jobs_failed: AtomicU64,
    addr: SocketAddr,
}

/// A running server; dropping it does **not** stop it — call
/// [`Server::shutdown`] (or send a `Shutdown` frame) then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// The bind error.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            cache: JobCache::new(cfg.budget),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            jobs_started: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            addr,
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name("serve-acceptor".to_owned())
                    .spawn(move || acceptor_loop(&listener, &shared))?,
            );
        }
        atspeed_trace::info!("serve", "listening"; addr = addr.to_string());
        Ok(Server { shared, threads })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Asks the acceptor and workers to stop; queued jobs still drain.
    pub fn shutdown(&self) {
        request_stop(&self.shared);
    }

    /// Blocks until the acceptor and every worker exit (after
    /// [`Server::shutdown`] or a client `Shutdown` frame).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn request_stop(shared: &Shared) {
    // Set the flag under the queue lock: a worker reads `stop` and parks
    // on the condvar while holding that lock, so it either sees the flag
    // or is already parked when the notification below arrives.
    {
        let _queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        shared.stop.store(true, Ordering::SeqCst);
    }
    shared.queue_cv.notify_all();
    // Unblock the acceptor's blocking accept() with a throwaway connect.
    let _ = TcpStream::connect(shared.addr);
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                // Replies are written whole, so nothing is gained by
                // holding small segments back (Nagle).
                let _ = stream.set_nodelay(true);
                let shared = shared.clone();
                // Connection threads are detached: they exit when the
                // client disconnects or after a framing error.
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || handle_connection(stream, &shared));
            }
            Err(e) => {
                atspeed_trace::warn!("serve", "accept failed"; error = e.to_string());
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(f) => f,
            Err(ProtocolError::Io(_)) => return, // client gone / EOF
            Err(e) => {
                // Explicit protocol-error reply, then close: after a
                // framing violation the byte stream is unsynchronized.
                let _ = write_frame(&mut stream, &Frame::text(FrameKind::Error, e.to_string()));
                return;
            }
        };
        let keep_going = match frame.kind {
            FrameKind::Ping => {
                write_frame(&mut stream, &Frame::text(FrameKind::Pong, "ok")).is_ok()
            }
            FrameKind::Stats => write_frame(
                &mut stream,
                &Frame::text(FrameKind::StatsReply, stats_payload(shared)),
            )
            .is_ok(),
            FrameKind::Shutdown => {
                request_stop(shared);
                let _ = write_frame(&mut stream, &Frame::text(FrameKind::Pong, "stopping"));
                false
            }
            FrameKind::Submit => handle_submit(&mut stream, shared, &frame),
            _ => write_frame(
                &mut stream,
                &Frame::text(
                    FrameKind::Error,
                    format!("unexpected {:?} frame from a client", frame.kind),
                ),
            )
            .is_ok(),
        };
        if !keep_going {
            return;
        }
    }
}

/// Returns whether the connection is still usable.
fn handle_submit(stream: &mut TcpStream, shared: &Arc<Shared>, frame: &Frame) -> bool {
    let request = match SubmitRequest::decode(&frame.text_payload(), shared.cfg.job_sim) {
        Ok(r) => r,
        Err(e) => {
            // A malformed submission is the client's problem, not a
            // connection-level one: reply and keep serving.
            return write_frame(stream, &Frame::text(FrameKind::Error, e.to_string())).is_ok();
        }
    };
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.push_back(Job { request, reply: tx });
    }
    shared.queue_cv.notify_one();
    match rx.recv() {
        Ok(JobReply::Ok { header, body }) => {
            // Header and body leave in one write: a second small write on
            // a persistent connection waits for the client's delayed ACK.
            let mut reply = Vec::new();
            let header = header.encode();
            let encoded = encode_frame(&mut reply, FrameKind::ResultHeader, header.as_bytes())
                .and_then(|()| encode_frame(&mut reply, FrameKind::ResultBody, &body));
            encoded.is_ok()
                && stream
                    .write_all(&reply)
                    .and_then(|()| stream.flush())
                    .is_ok()
        }
        Ok(JobReply::Failed(msg)) => {
            write_frame(stream, &Frame::text(FrameKind::Error, msg)).is_ok()
        }
        Err(_) => {
            let _ = write_frame(
                stream,
                &Frame::text(FrameKind::Error, "server shutting down"),
            );
            false
        }
    }
}

fn stats_payload(shared: &Shared) -> String {
    let s = shared.cache.stats();
    format!(
        "circuits = {}\ncomputed = {}\nevictions = {}\nhits = {}\n\
         jobs_failed = {}\njobs_started = {}\nmisses = {}\n\
         result_bytes = {}\nresults = {}\nwaits = {}\nworkers = {}\n",
        s.circuits,
        s.computed,
        s.evictions,
        s.hits,
        shared.jobs_failed.load(Ordering::SeqCst),
        shared.jobs_started.load(Ordering::SeqCst),
        s.misses,
        s.result_bytes,
        s.results,
        s.waits,
        shared.cfg.workers.max(1),
    )
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let reply = execute_job(shared, &job.request);
        // The client may have hung up; a dead channel is not an error.
        let _ = job.reply.send(reply);
    }
}

fn execute_job(shared: &Shared, request: &SubmitRequest) -> JobReply {
    let start = Instant::now();
    let job_seq = shared.jobs_started.fetch_add(1, Ordering::SeqCst);

    // Canonicalize: parse, re-render, fingerprint. The name participates
    // in the netlist fingerprint because it is rendered into the result
    // body (`circuit = <name>`), and cached bodies must be a pure
    // function of their key.
    let parsed = match bench_fmt::parse(&request.name, &request.bench) {
        Ok(nl) => nl,
        Err(e) => {
            shared.jobs_failed.fetch_add(1, Ordering::SeqCst);
            return JobReply::Failed(format!("netlist rejected: {e}"));
        }
    };
    let canonical = bench_fmt::write(&parsed);
    let netlist_fp = fingerprint(&[request.name.clone(), canonical]);
    let config_fp = fingerprint(&[request.config.canonical_lines()]);
    let key = CacheKey {
        netlist_fp: netlist_fp.clone(),
        config_fp: config_fp.clone(),
    };
    let nl = match shared
        .cache
        .circuit(&netlist_fp, || Ok::<_, ProtocolError>(parsed))
    {
        Ok(nl) => nl,
        Err(_) => unreachable!("builder is infallible"),
    };

    let header = |cache: CacheOutcome, wall_us: u64| ResponseHeader {
        cache,
        netlist_fp: netlist_fp.clone(),
        config_fp: config_fp.clone(),
        wall_us,
    };

    match shared.cache.lookup(&key) {
        Lookup::Hit(body) => {
            atspeed_trace::info!("serve", "cache hit";
                job = job_seq, circuit = request.name, netlist_fp = netlist_fp,
                config_fp = config_fp);
            JobReply::Ok {
                header: header(CacheOutcome::Hit, elapsed_us(start)),
                body,
            }
        }
        Lookup::Compute => {
            // Per-job telemetry: a private span tree and a private
            // simulation-stats scope, so concurrent jobs don't interleave.
            let tracer = Arc::new(Tracer::new());
            if shared.cfg.trace_dir.is_some() {
                tracer.set_enabled(true);
            }
            let outcome = {
                let _span_scope = atspeed_trace::scope(tracer.clone());
                let stats_scope = stats::scoped();
                let run = catch_unwind(AssertUnwindSafe(|| {
                    Pipeline::from_config(&nl, &request.config).run()
                }));
                (run, stats_scope.report())
            };
            let (run, report) = outcome;
            match run {
                Ok(Ok(result)) => {
                    let body = encode_result(&result, nl.num_pis()).into_bytes();
                    let body = shared.cache.fulfill(&key, body);
                    let wall_us = elapsed_us(start);
                    write_job_telemetry(shared, request, job_seq, wall_us, &report, &tracer);
                    atspeed_trace::info!("serve", "job computed";
                        job = job_seq, circuit = request.name, wall_us = wall_us,
                        body_bytes = body.len());
                    JobReply::Ok {
                        header: header(CacheOutcome::Miss, wall_us),
                        body,
                    }
                }
                Ok(Err(e)) => {
                    shared.cache.abandon(&key);
                    shared.jobs_failed.fetch_add(1, Ordering::SeqCst);
                    atspeed_trace::warn!("serve", "job failed";
                        job = job_seq, circuit = request.name, error = e.to_string());
                    JobReply::Failed(format!("pipeline failed: {e}"))
                }
                Err(panic) => {
                    shared.cache.abandon(&key);
                    shared.jobs_failed.fetch_add(1, Ordering::SeqCst);
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    atspeed_trace::error!("serve", "job panicked";
                        job = job_seq, circuit = request.name, panic = msg);
                    JobReply::Failed(format!("job panicked: {msg}"))
                }
            }
        }
    }
}

/// Appends the per-job history record and writes the per-job trace, when
/// configured. Telemetry failures are logged, never fatal to the job.
fn write_job_telemetry(
    shared: &Shared,
    request: &SubmitRequest,
    job_seq: u64,
    wall_us: u64,
    report: &stats::SimReport,
    tracer: &Tracer,
) {
    if let Some(path) = &shared.cfg.history {
        let derived = DerivedMetrics::compute(report, &atspeed_trace::metrics::global().snapshot());
        let mut record = RunRecord::for_current_process(None);
        record.command = format!("serve job {} seed={}", request.name, request.config.seed);
        record.config_fingerprint = config_fingerprint(
            &[request.config.canonical_lines()],
            Some(request.config.sim.effective_threads(usize::MAX)),
        );
        record.wall_us = wall_us;
        record.peak_rss_bytes = derived.peak_rss_bytes;
        record.derived = derived.pairs();
        if let Err(e) = record.append(path) {
            atspeed_trace::warn!("serve", "failed to append job history";
                job = job_seq, error = e.to_string());
        }
    }
    if let Some(dir) = &shared.cfg.trace_dir {
        let path = dir.join(format!("job-{job_seq}-{}.json", request.name));
        let write = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace_json()));
        if let Err(e) = write {
            atspeed_trace::warn!("serve", "failed to write job trace";
                job = job_seq, error = e.to_string());
        }
    }
}

fn elapsed_us(start: Instant) -> u64 {
    start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}
