//! `serve`: an in-process batch server (2 workers, 1 simulation thread per
//! job) and two client connections, closed loops that share one seeded
//! request stream on the `catalog` circuits.
//!
//! Each circuit is requested under several configs (pipeline seeds). The
//! first request for a circuit misses both cache tiers, the first request
//! for each further config of it hits the circuit tier and misses the
//! result tier, and every other request repeats a (netlist, config) pair
//! with skewed popularity and hits. The number of distinct pairs is fixed,
//! so every seed misses the same number of times.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use atspeed_circuit::bench_fmt;
use atspeed_core::{PipelineConfig, ScanTest, TestSet};
use atspeed_serve::{
    decode_result_summary, CacheOutcome, Client, ServeConfig, Server, SubmitReply,
};
use atspeed_sim::SimConfig;
use atspeed_verify::decode_stimuli;

use crate::catalog;
use crate::layers::{add, Counters, Layers};
use crate::report::Checks;
use crate::run::{detected_by, invariant_check, Measured, SetupClock, SplitMix, Stopwatch};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{RunOutput, Workload};

/// Nominal seconds per config of all 13 circuits when the benchmark was
/// written, on a 2-vCPU KVM guest. The number of configs per circuit is
/// fixed by `--seconds` alone, so every run of the same settings does the
/// same work.
const VARIANT_S: f64 = 6.0;
/// Requests per distinct (netlist, config) pair. One in four requests
/// misses, so the median lands on a hit and the p90 on the slower half of
/// the misses, inside the cluster of mid-sized circuits rather than at the
/// gap between the tiny ones and the rest.
const REQUESTS_PER_KEY: usize = 4;
/// Set-ups per timed block: one block before the stream and one after it,
/// each its own group, sample the host half a minute apart. One set-up
/// takes about 0.2 ms, so the two blocks last about 0.1 s together. Every
/// set-up leaves three client ports in `TIME_WAIT` for a minute, so more
/// set-ups would crowd the ephemeral port range across back-to-back runs
/// and slow the set-ups of the next run.
const SETUP_REPS: usize = 300;

/// Per-layer metrics `serve` never measures: the server's workers run each
/// job in a stats scope of their own, parse and compile inside the server,
/// and call `Pipeline::run`, whose layers only a `catalog` traced run
/// times.
pub const UNMEASURED: &[&str] = &[
    "circuit.parse_ms",
    "circuit.compile_ms",
    "sim.fault_universe_ms",
    "sim.gate_evals",
    "sim.events_skipped",
    "sim.fsim_invocations",
    "sim.gate_evals.phase12",
    "sim.gate_evals.phase4",
    "sim.cpu_wall_ratio",
    "atpg.comb_gen_ms",
    "atpg.comb_tests",
    "atpg.t0_gen_ms",
    "atpg.t0_len",
    "core.phase12_ms",
    "core.tau_seq_len",
    "core.phase3_ms",
    "core.phase4_ms",
    "core.phase4_attempts",
    "core.phase4_combinations",
    "bench.unattributed_pct",
];
/// Client connections, one closed loop each.
const CONNECTIONS: usize = 2;

/// One request of the stream.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Index into the key list.
    key: usize,
}

/// A distinct (netlist, config) pair.
struct Key {
    name: &'static str,
    circuit: usize,
    cfg: PipelineConfig,
}

/// What one request got back.
struct Outcome {
    key: usize,
    latency_ms: f64,
    reply: Result<SubmitReply, String>,
}

/// The seeded request stream: `keys.len() × REQUESTS_PER_KEY` requests.
/// Keys are introduced in a seeded order at even spacing; every other
/// request picks an introduced key with Zipf(1) popularity, the earliest
/// introduced being the most popular.
fn stream(seed: u64, keys: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    let mut order: Vec<usize> = (0..keys).collect();
    for i in (1..keys).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let total = keys * REQUESTS_PER_KEY;
    let mut introduced = 0;
    (0..total)
        .map(|i| {
            if i % REQUESTS_PER_KEY == 0 && introduced < keys {
                introduced += 1;
                return Request {
                    key: order[introduced - 1],
                };
            }
            let weights: f64 = (1..=introduced).map(|r| 1.0 / r as f64).sum();
            let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * weights;
            let mut pick = introduced - 1;
            for r in 1..=introduced {
                x -= 1.0 / r as f64;
                if x < 0.0 {
                    pick = r - 1;
                    break;
                }
            }
            Request { key: order[pick] }
        })
        .collect()
}

/// A started server with its connected clients.
struct Live {
    server: Option<Server>,
    clients: Vec<Client>,
}

impl Live {
    /// Starts a server and connects the clients: the set-up.
    fn start() -> Result<Live, String> {
        let server = Server::start(ServeConfig {
            workers: 2,
            job_sim: SimConfig::with_threads(1),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("server start failed: {e}"))?;
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect failed: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Live {
            server: Some(server),
            clients,
        })
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        // Closing the connections ends their server threads; then the
        // acceptor and workers stop and are joined.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            stop(server);
        }
    }
}

/// How long a stopped server gets to join its threads.
const STOP_WAIT: Duration = Duration::from_secs(1);

/// Servers that did not join within [`STOP_WAIT`].
static STUCK: AtomicUsize = AtomicUsize::new(0);

/// Stops `server` and waits for its threads, for at most [`STOP_WAIT`].
/// `Server::shutdown` sets the stop flag and wakes the workers without
/// holding the queue lock, so a worker that has just found the flag clear
/// can miss the wake-up and wait forever. A set-up torn down right after
/// start hits that now and then; such a server is left behind and counted
/// in [`STUCK`] rather than hanging the run.
fn stop(server: Server) {
    server.shutdown();
    let (done, stopped) = mpsc::channel();
    std::thread::spawn(move || {
        server.wait();
        let _ = done.send(());
    });
    if stopped.recv_timeout(STOP_WAIT).is_err() {
        STUCK.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the stream once on a fresh server whose clients are in `live`.
/// Each connection sends the next unsent request of the stream as soon as
/// its previous reply arrives, so neither idles while requests remain.
/// Returns every outcome and the per-connection tracers.
fn drive(
    live: &mut Live,
    requests: &[Request],
    keys: &[Key],
    benches: &[String],
    tracers: Vec<Tracer>,
) -> (Vec<Outcome>, Vec<Tracer>) {
    let next = AtomicUsize::new(0);
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .zip(tracers)
            .map(|(client, mut t)| {
                let next = &next;
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = requests.get(i) else { break };
                        let k = &keys[r.key];
                        t.set_job(i as u64);
                        let started = Instant::now();
                        let reply = t
                            .span("serve.request", |_| {
                                client.submit(k.name, &benches[k.circuit], &k.cfg)
                            })
                            .map_err(|e| e.to_string());
                        out.push(Outcome {
                            key: r.key,
                            latency_ms: started.elapsed().as_secs_f64() * 1e3,
                            reply,
                        });
                    }
                    (out, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let mut outcomes = Vec::new();
    let mut tracers = Vec::new();
    for (o, t) in results {
        outcomes.extend(o);
        tracers.push(t);
    }
    (outcomes, tracers)
}

/// Runs the workload. A traced run drives the stream twice, on two fresh
/// servers: untraced, then traced.
pub fn run(w: &Workload) -> Result<RunOutput, String> {
    let jobs = catalog::jobs(0)?;
    let benches: Vec<String> = jobs.iter().map(|j| j.bench.clone()).collect();
    let variants = (w.seconds / VARIANT_S).round().max(1.0) as usize;
    let mut seeds = SplitMix::new(w.seed ^ 0x5E7E);
    let keys: Vec<Key> = jobs
        .iter()
        .enumerate()
        .flat_map(|(circuit, j)| (0..variants).map(move |_| (circuit, j)))
        .map(|(circuit, j)| Key {
            name: j.name,
            circuit,
            cfg: PipelineConfig {
                seed: seeds.next_u64() % 1_000_000,
                ..j.cfg
            },
        })
        .collect();
    let requests = stream(w.seed, keys.len());

    let mut checks = Checks::default();
    let mut m = Measured::default();
    let mut clock = SetupClock::default();
    let mut live = clock.block(SETUP_REPS, Live::start)?;
    clock.close_group();

    let epoch = Instant::now();
    let untraced = || {
        (0..CONNECTIONS)
            .map(|_| Tracer::new(false, epoch))
            .collect()
    };
    let watch = Stopwatch::start()?;
    let (outcomes, _) = drive(&mut live, &requests, &keys, &benches, untraced());
    watch.stop(&mut m)?;
    drop(live);
    drop(clock.block(SETUP_REPS, Live::start)?);
    m.setup_s = clock.median_s();
    m.job_ms = outcomes.iter().map(|o| o.latency_ms).collect();
    let bodies = check_outputs(&mut checks, &mut m, &keys, &benches, &outcomes);

    let mut layers = Layers::new();
    let mut tracer = Tracer::new(w.trace, epoch);
    if w.trace {
        let mut live = Live::start()?;
        let counters = Counters::now();
        let traced = (0..CONNECTIONS).map(|_| Tracer::new(true, epoch)).collect();
        let started = Instant::now();
        let (traced_outcomes, tracers) = drive(&mut live, &requests, &keys, &benches, traced);
        let traced_s = started.elapsed().as_secs_f64();
        let stats = live.clients[0]
            .stats()
            .map_err(|e| format!("stats failed: {e}"))?;
        drop(live);
        for t in tracers {
            tracer.absorb(t);
        }
        for o in &traced_outcomes {
            let same = o.reply.as_ref().ok().map(|r| &r.body) == bodies.get(&o.key);
            checks.check(same, || {
                format!(
                    "{}: traced reply differs from the untraced one",
                    keys[o.key].name
                )
            });
        }
        serve_layers(&mut layers, &traced_outcomes, &stats);
        counters.add_since(&mut layers);
        add(
            &mut layers,
            "trace.overhead_pct",
            100.0 * (traced_s / m.wall_s - 1.0),
        );
    }
    let stuck = STUCK.load(Ordering::Relaxed);
    if stuck > 0 {
        eprintln!(
            "note: {stuck} stopped servers did not join within {STOP_WAIT:?} \
             (a worker missed the stop wake-up) and were left behind"
        );
    }
    Ok((m, layers, checks, tracer))
}

/// Server-side time, transport time and cache counters of one stream.
fn serve_layers(layers: &mut Layers, outcomes: &[Outcome], server_stats: &str) {
    let mut server_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut transport = Vec::new();
    for o in outcomes {
        if let Ok(r) = &o.reply {
            let ms = r.header.wall_us as f64 / 1e3;
            server_ms[usize::from(r.header.cache == CacheOutcome::Miss)].push(ms);
            transport.push(o.latency_ms - ms);
        }
    }
    add(
        layers,
        "serve.hit_server_ms.p50",
        median(&server_ms[0]).unwrap_or(0.0),
    );
    add(
        layers,
        "serve.miss_server_ms.p50",
        median(&server_ms[1]).unwrap_or(0.0),
    );
    add(
        layers,
        "serve.transport_ms.p50",
        median(&transport).unwrap_or(0.0),
    );
    let stat = |key: &str| {
        server_stats
            .lines()
            .filter_map(|l| l.split_once('='))
            .find(|(k, _)| k.trim() == key)
            .and_then(|(_, v)| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (hits, misses) = (stat("hits"), stat("misses"));
    add(layers, "serve.hit_ratio", hits / (hits + misses).max(1.0));
    add(layers, "serve.waits", stat("waits"));
    add(layers, "serve.computed", stat("computed"));
}

/// Output checks, outside the timed part. Every request succeeds; every
/// reply for a key carries the same body; each distinct body decodes to a
/// test set that keeps the paper's invariants and, re-simulated by the
/// reference engine, detects at least the faults it claims. Returns the
/// body of each key.
fn check_outputs(
    checks: &mut Checks,
    m: &mut Measured,
    keys: &[Key],
    benches: &[String],
    outcomes: &[Outcome],
) -> BTreeMap<usize, Vec<u8>> {
    let mut bodies: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for o in outcomes {
        let name = keys[o.key].name;
        checks.check(o.reply.is_ok(), || {
            format!("{name}: request failed: {:?}", o.reply.as_ref().err())
        });
        let Ok(reply) = &o.reply else { continue };
        match bodies.get(&o.key) {
            Some(first) => checks.check(*first == reply.body, || {
                format!("{name}: two replies for one key differ")
            }),
            None => {
                bodies.insert(o.key, reply.body.clone());
            }
        }
    }
    for (&key, body) in &bodies {
        let k = &keys[key];
        let nl = match bench_fmt::parse(k.name, &benches[k.circuit]) {
            Ok(nl) => nl,
            Err(e) => {
                checks.check(false, || format!("{}: {e}", k.name));
                continue;
            }
        };
        let text = String::from_utf8_lossy(body);
        let summary: BTreeMap<String, usize> = decode_result_summary(&text)
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
            .collect();
        let field = |f: &str| summary.get(f).copied().unwrap_or(0);
        let tests: Result<Vec<ScanTest>, String> = text
            .split_once("\n\n")
            .map_or("", |(_, rest)| rest)
            .split("--\n")
            .filter(|chunk| !chunk.trim().is_empty())
            .map(|chunk| {
                decode_stimuli(chunk, nl.num_ffs(), nl.num_pis())
                    .map(|(si, seq)| ScanTest::new(si, seq))
                    .map_err(|e| e.to_string())
            })
            .collect();
        let set = match tests {
            Ok(tests) => TestSet::from_tests(tests),
            Err(e) => {
                checks.check(false, || format!("{}: body does not decode: {e}", k.name));
                continue;
            }
        };
        let n_sv = nl.num_ffs();
        checks.check(
            set.len() == field("tests") && set.clock_cycles(n_sv) == field("comp_cycles"),
            || format!("{}: decoded test set disagrees with the summary", k.name),
        );
        invariant_check(
            checks,
            k.name,
            field("init_cycles"),
            field("comp_cycles"),
            field("t0_detected"),
            field("tau_seq_detected"),
            field("final_detected"),
        );
        let universe = atspeed_sim::fault::FaultUniverse::full(&nl);
        let covered = detected_by(&nl, &universe, &set, universe.representatives());
        checks.check(covered.len() >= field("final_detected"), || {
            format!(
                "{}: served set detects {} faults, fewer than the claimed {}",
                k.name,
                covered.len(),
                field("final_detected")
            )
        });
        m.quality.add(
            field("comp_cycles"),
            field("final_detected"),
            set.at_speed_stats().map_or(0.0, |s| s.average),
        );
    }
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_introduces_every_key_once_at_even_spacing() {
        let keys = 26;
        let s = stream(7, keys);
        assert_eq!(s.len(), keys * REQUESTS_PER_KEY);
        let mut first = vec![None; keys];
        for (i, r) in s.iter().enumerate() {
            first[r.key].get_or_insert(i);
        }
        let mut starts: Vec<usize> = first
            .iter()
            .map(|f| f.expect("every key requested"))
            .collect();
        starts.sort_unstable();
        assert_eq!(
            starts,
            (0..keys).map(|k| k * REQUESTS_PER_KEY).collect::<Vec<_>>()
        );
        assert_eq!(
            stream(7, keys).iter().map(|r| r.key).collect::<Vec<_>>(),
            s.iter().map(|r| r.key).collect::<Vec<_>>(),
            "same seed, same stream"
        );
    }

    #[test]
    fn stream_popularity_is_skewed() {
        let s = stream(3, 26);
        let mut counts = [0usize; 26];
        for r in &s {
            counts[r.key] += 1;
        }
        let top = *counts.iter().max().unwrap();
        assert!(
            top >= 3 * REQUESTS_PER_KEY,
            "the most popular key gets {top} requests"
        );
    }
}
