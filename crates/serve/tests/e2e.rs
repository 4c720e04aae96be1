//! End-to-end tests over a real loopback socket: submit/cache semantics,
//! framing-abuse rejection, single-flight under concurrent clients, and
//! failure isolation.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use atspeed_circuit::bench_fmt;
use atspeed_core::{PipelineConfig, T0Source};
use atspeed_serve::{
    decode_result_summary, read_frame, write_frame, CacheBudget, CacheOutcome, Client, ClientError,
    Frame, FrameKind, ResponseHeader, ServeConfig, Server, SubmitRequest, MAX_FRAME,
};
use atspeed_sim::SimConfig;

fn start() -> Server {
    Server::start(ServeConfig::default()).expect("bind loopback")
}

fn s27_bench() -> String {
    bench_fmt::write(&bench_fmt::s27())
}

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        t0_source: T0Source::Random { len: 16 },
        seed: 3,
        ..PipelineConfig::default()
    }
}

#[test]
fn ping_stats_shutdown() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(client.ping().unwrap(), "ok");
    let stats = client.stats().unwrap();
    assert!(stats.contains("hits = 0"), "{stats}");
    assert!(stats.contains("workers = "), "{stats}");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn repeat_submission_hits_byte_identical() {
    let server = start();
    let bench = s27_bench();
    let cfg = quick_config();

    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.submit("s27", &bench, &cfg).unwrap();
    assert_eq!(first.header.cache, CacheOutcome::Miss);

    // Same job again, on a fresh connection for good measure.
    let mut client2 = Client::connect(server.addr()).unwrap();
    let second = client2.submit("s27", &bench, &cfg).unwrap();
    assert_eq!(second.header.cache, CacheOutcome::Hit);
    assert_eq!(second.body, first.body, "cache hit is byte-identical");
    assert_eq!(second.header.netlist_fp, first.header.netlist_fp);
    assert_eq!(second.header.config_fp, first.header.config_fp);

    // The body parses as the documented format.
    let body = String::from_utf8(first.body.clone()).unwrap();
    let summary = decode_result_summary(&body);
    let get = |k: &str| {
        summary
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("missing summary key {k} in {summary:?}"))
    };
    assert_eq!(get("circuit"), "s27");
    assert_eq!(get("n_sv"), "3");
    let tests: usize = get("tests").parse().unwrap();
    assert!(tests > 0, "compacted set is non-empty");
    // Stimuli section round-trips through the verify codec.
    let stimuli = body.split_once("\n\n").expect("blank line").1;
    let num_pis: usize = get("num_pis").parse().unwrap();
    for chunk in stimuli.split("--\n").take(3) {
        atspeed_verify::decode_stimuli(chunk, 3, num_pis).expect("each test decodes");
    }

    client.shutdown().unwrap();
    server.wait();
}

/// Cache hits on one persistent connection answer without a transport
/// stall. When the header and body went out as two writes on a socket
/// without `TCP_NODELAY`, the body waited for the client's delayed ACK
/// (40 ms on Linux), so 20 hits took at least 800 ms.
#[test]
fn cache_hits_on_one_connection_do_not_stall() {
    let server = start();
    let bench = s27_bench();
    let cfg = quick_config();
    let mut client = Client::connect(server.addr()).unwrap();
    let first = client.submit("s27", &bench, &cfg).unwrap();
    assert_eq!(first.header.cache, CacheOutcome::Miss);
    let started = std::time::Instant::now();
    for _ in 0..20 {
        let hit = client.submit("s27", &bench, &cfg).unwrap();
        assert_eq!(hit.header.cache, CacheOutcome::Hit);
        assert_eq!(hit.body, first.body);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(200),
        "20 cache hits took {elapsed:?}"
    );
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn whitespace_and_name_affect_cache_correctly() {
    let server = start();
    let bench = s27_bench();
    let cfg = quick_config();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client.submit("s27", &bench, &cfg).unwrap();
    assert_eq!(first.header.cache, CacheOutcome::Miss);

    // Extra blank lines and comment noise canonicalize away: still a hit.
    let noisy = format!("# resubmitted\n\n{bench}\n\n");
    let second = client.submit("s27", &noisy, &cfg).unwrap();
    assert_eq!(second.header.cache, CacheOutcome::Hit, "canonicalization");
    assert_eq!(second.body, first.body);

    // A different config fingerprint forces recompute.
    let other_cfg = PipelineConfig {
        seed: 4,
        ..quick_config()
    };
    let third = client.submit("s27", &bench, &other_cfg).unwrap();
    assert_eq!(third.header.cache, CacheOutcome::Miss, "config mismatch");
    assert_ne!(third.header.config_fp, first.header.config_fp);

    // Thread count is an execution knob, not identity: still a hit.
    let threaded_cfg = PipelineConfig {
        sim: atspeed_sim::SimConfig::with_threads(2),
        ..quick_config()
    };
    let fourth = client.submit("s27", &bench, &threaded_cfg).unwrap();
    assert_eq!(fourth.header.cache, CacheOutcome::Hit, "threads excluded");
    assert_eq!(fourth.body, first.body);

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn concurrent_identical_submissions_compute_once() {
    let server = start();
    let addr = server.addr();
    let bench = Arc::new(s27_bench());
    let cfg = quick_config();

    let replies: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let bench = bench.clone();
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.submit("s27", &bench, &cfg).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let misses = replies
        .iter()
        .filter(|r| r.header.cache == CacheOutcome::Miss)
        .count();
    assert_eq!(misses, 1, "single-flight: exactly one computation");
    for r in &replies {
        assert_eq!(r.body, replies[0].body, "all clients get identical bytes");
    }
    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.contains("computed = 1"), "{stats}");

    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn bad_jobs_are_error_replies_not_crashes() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    // Unparsable netlist.
    match client.submit("junk", "THIS IS NOT A BENCH FILE", &quick_config()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("netlist rejected"), "{msg}"),
        other => panic!("expected a server error, got {other:?}"),
    }

    // A netlist that parses but has no flip-flops still runs or fails
    // gracefully — either way the server must answer.
    let comb_only = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
    let _ = client.submit("comb", comb_only, &quick_config());

    // The same connection and server still work afterwards.
    let ok = client.submit("s27", &s27_bench(), &quick_config()).unwrap();
    assert_eq!(ok.header.cache, CacheOutcome::Miss);
    assert_eq!(client.ping().unwrap(), "ok");

    client.shutdown().unwrap();
    server.wait();
}

/// A gate past the fanin cap used to panic the parser outside the job's
/// `catch_unwind`, killing the worker: that submission got "server shutting
/// down" and, with one worker, every later job waited forever. Now it is an
/// error reply and the lone worker goes on to compute s27.
#[test]
fn over_wide_gate_is_an_error_reply_and_the_worker_survives() {
    let server = Server::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let names: Vec<String> = (0..atspeed_circuit::MAX_FANIN)
        .map(|i| format!("i{i}"))
        .collect();
    let mut wide: String = names.iter().map(|n| format!("INPUT({n})\n")).collect();
    wide.push_str(&format!(
        "OUTPUT(y)\nq = DFF(y)\ny = AND({}, q)\n",
        names.join(", ")
    ));
    match client.submit("wide", &wide, &quick_config()) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("netlist rejected"), "{msg}");
            assert!(msg.contains("invalid fanin 257"), "{msg}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }
    let ok = client.submit("s27", &s27_bench(), &quick_config()).unwrap();
    assert_eq!(ok.header.cache, CacheOutcome::Miss);
    let stats = client.stats().unwrap();
    assert!(stats.contains("workers = 1"), "{stats}");
    assert!(stats.contains("jobs_failed = 1"), "{stats}");
    client.shutdown().unwrap();
    server.wait();
}

#[test]
fn malformed_frames_get_explicit_protocol_errors() {
    let server = start();

    // Oversized frame: header declares more than MAX_FRAME; the server
    // must reply with an Error frame without reading (or allocating) the
    // payload, then close.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(b"ATSP");
        header.push(0x03); // Submit
        header.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        stream.write_all(&header).unwrap();
        let reply = atspeed_serve::read_frame(&mut stream).unwrap();
        assert_eq!(reply.kind, atspeed_serve::FrameKind::Error);
        assert!(
            reply.text_payload().contains("exceeds"),
            "{:?}",
            reply.text_payload()
        );
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection closed after framing error");
    }

    // Garbage magic (e.g. an HTTP request) is rejected immediately.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let reply = atspeed_serve::read_frame(&mut stream).unwrap();
        assert_eq!(reply.kind, atspeed_serve::FrameKind::Error);
        assert!(
            reply.text_payload().contains("magic"),
            "{:?}",
            reply.text_payload()
        );
    }

    // Unknown frame type.
    {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut frame = Vec::new();
        frame.extend_from_slice(b"ATSP");
        frame.push(0x6e);
        frame.extend_from_slice(&0u32.to_be_bytes());
        stream.write_all(&frame).unwrap();
        let reply = atspeed_serve::read_frame(&mut stream).unwrap();
        assert_eq!(reply.kind, atspeed_serve::FrameKind::Error);
    }

    // A malformed submission payload keeps the connection usable.
    {
        let mut client = Client::connect(server.addr()).unwrap();
        match client.submit("", "", &quick_config()) {
            Err(ClientError::Server(_)) => {}
            other => panic!("expected server error, got {other:?}"),
        }
        assert_eq!(
            client.ping().unwrap(),
            "ok",
            "connection survives bad payload"
        );
        client.shutdown().unwrap();
    }
    server.wait();
}

/// One seeded mutation of `bytes`: a truncation, flipped bytes, spliced-in
/// garbage or a duplicated chunk, sometimes two of them.
fn mutate(bytes: &[u8], next: &mut impl FnMut() -> u64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..1 + next() % 2 {
        let at = |next: &mut dyn FnMut() -> u64, len: usize| (next() % (len as u64 + 1)) as usize;
        match next() % 4 {
            0 => out.truncate(at(next, out.len())),
            1 => {
                for _ in 0..1 + next() % 4 {
                    if !out.is_empty() {
                        let i = at(next, out.len() - 1);
                        out[i] = next() as u8;
                    }
                }
            }
            2 => {
                let garbage: Vec<u8> = (0..next() % 33).map(|_| next() as u8).collect();
                let i = at(next, out.len());
                out.splice(i..i, garbage);
            }
            _ => {
                let (a, b) = (at(next, out.len()), at(next, out.len()));
                let chunk = out[a.min(b)..a.max(b)].to_vec();
                let i = at(next, out.len());
                out.splice(i..i, chunk);
            }
        }
    }
    out
}

/// Decodes `payload` the way the server reads a Submit and the client a
/// reply header: bytes to text through [`Frame::text_payload`], then each
/// decoder. Either may accept or reject the text; neither may panic.
fn decode_payload(kind: FrameKind, payload: Vec<u8>) {
    let text = Frame { kind, payload }.text_payload();
    let _ = SubmitRequest::decode(&text, SimConfig::default());
    let _ = ResponseHeader::decode(&text);
}

/// Malformed ATSP input cannot panic: valid Submit payloads, reply headers
/// and whole frames, each truncated, byte-flipped, spliced with garbage or
/// with a chunk duplicated, go through `read_frame` and both payload
/// decoders, which must return `Ok` or a `ProtocolError` every time.
#[test]
fn mutated_frames_and_payloads_never_panic() {
    let submit = |name: &str, config: PipelineConfig| SubmitRequest {
        name: name.to_owned(),
        config,
        bench: s27_bench(),
    };
    let submits = [
        submit("s27", quick_config()),
        submit(
            "dir",
            PipelineConfig {
                t0_source: T0Source::Directed { max_len: 64 },
                phase4: false,
                ..PipelineConfig::default()
            },
        ),
    ];
    let header = ResponseHeader {
        cache: CacheOutcome::Hit,
        netlist_fp: "0123456789abcdef".to_owned(),
        config_fp: "fedcba9876543210".to_owned(),
        wall_us: 1234,
    };
    let mut payloads: Vec<(FrameKind, Vec<u8>)> = submits
        .iter()
        .map(|req| (FrameKind::Submit, req.encode().into_bytes()))
        .collect();
    payloads.push((FrameKind::ResultHeader, header.encode().into_bytes()));
    payloads.push((FrameKind::Ping, Vec::new()));
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .map(|(kind, payload)| {
            let mut wire = Vec::new();
            write_frame(
                &mut wire,
                &Frame {
                    kind: *kind,
                    payload: payload.clone(),
                },
            )
            .unwrap();
            wire
        })
        .collect();
    // The valid inputs decode.
    for req in &submits {
        assert_eq!(
            SubmitRequest::decode(&req.encode(), SimConfig::default()).unwrap(),
            *req
        );
    }
    assert_eq!(ResponseHeader::decode(&header.encode()).unwrap(), header);

    let mut frames_read = 0;
    for seed in [1u64, 2001, 4242] {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..1000 {
            let (kind, payload) = &payloads[case % payloads.len()];
            let wire = &frames[case % frames.len()];
            let bad_payload = mutate(payload, &mut next);
            let bad_wire = mutate(wire, &mut next);
            let outcome = std::panic::catch_unwind(|| {
                decode_payload(*kind, bad_payload.clone());
                match read_frame(&mut bad_wire.as_slice()) {
                    Ok(frame) => {
                        decode_payload(frame.kind, frame.payload);
                        true
                    }
                    Err(_) => false,
                }
            });
            match outcome {
                Ok(read) => frames_read += usize::from(read),
                Err(_) => panic!(
                    "seed {seed} case {case} panicked: payload {bad_payload:?}, frame {bad_wire:?}"
                ),
            }
        }
    }
    // Some mutations leave a readable frame, so its payload reaches the
    // decoders too.
    assert!(frames_read > 0);
}

#[test]
fn per_job_history_records_are_appended() {
    let dir = std::env::temp_dir().join(format!("atspeed-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let history = dir.join("jobs.jsonl");
    let server = Server::start(ServeConfig {
        history: Some(history.clone()),
        budget: CacheBudget::default(),
        ..ServeConfig::default()
    })
    .unwrap();

    let mut client = Client::connect(server.addr()).unwrap();
    let bench = s27_bench();
    client.submit("s27", &bench, &quick_config()).unwrap();
    client.submit("s27", &bench, &quick_config()).unwrap(); // hit: no record
    let other = PipelineConfig {
        seed: 11,
        ..quick_config()
    };
    client.submit("s27", &bench, &other).unwrap();
    client.shutdown().unwrap();
    server.wait();

    let text = std::fs::read_to_string(&history).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(lines.len(), 2, "one record per computed job, none for hits");
    for line in &lines {
        let v = atspeed_trace::json::parse(line).expect("history line parses");
        let cmd = v
            .get("command")
            .and_then(atspeed_trace::json::Value::as_str)
            .unwrap();
        assert!(cmd.starts_with("serve job s27"), "{cmd}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served job's history record holds the job's own figures: the
/// gate-words its pipeline evaluated, and no omission figures. Omission
/// counts reach only the process-global registry, where they add up every
/// job the server has run, so a second job's record would carry the first
/// job's attempts too.
#[test]
fn served_history_records_hold_only_the_jobs_own_figures() {
    use atspeed_trace::json::Value;

    let dir = std::env::temp_dir().join(format!("atspeed-serve-own-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let history = dir.join("jobs.jsonl");
    let server = Server::start(ServeConfig {
        history: Some(history.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let bench = s27_bench();
    let configs = [
        quick_config(),
        PipelineConfig {
            seed: 12,
            ..quick_config()
        },
    ];
    let mut client = Client::connect(server.addr()).unwrap();
    for cfg in &configs {
        client.submit("s27", &bench, cfg).unwrap();
    }
    client.shutdown().unwrap();
    server.wait();

    let text = std::fs::read_to_string(&history).unwrap();
    let records: Vec<Value> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| atspeed_trace::json::parse(l).expect("history line parses"))
        .collect();
    assert_eq!(records.len(), configs.len());
    let nl = bench_fmt::s27();
    for (record, cfg) in records.iter().zip(&configs) {
        let derived = record.get("derived").and_then(Value::as_obj).unwrap();
        assert!(
            derived
                .iter()
                .all(|(name, _)| !name.starts_with("omission_")),
            "{derived:?}"
        );
        let scope = atspeed_sim::stats::scoped();
        atspeed_core::Pipeline::from_config(&nl, cfg).run().unwrap();
        let own = scope.report().totals().gate_evals as f64;
        let recorded = record
            .get("derived")
            .and_then(|d| d.get("gate_evals_total"))
            .and_then(Value::as_f64);
        assert_eq!(recorded, Some(own));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A submission without a `threads` key runs at the server's `job_sim`; a
/// submission's own `threads` wins. The thread count a job ran at shows in
/// its history record's fingerprint.
#[test]
fn jobs_without_threads_run_at_the_server_default() {
    use atspeed_serve::{read_frame, write_frame, Frame, FrameKind};
    use atspeed_sim::SimConfig;
    use atspeed_trace::history::config_fingerprint;

    let dir = std::env::temp_dir().join(format!("atspeed-serve-jobsim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let history = dir.join("jobs.jsonl");
    let server = Server::start(ServeConfig {
        job_sim: SimConfig::with_threads(3),
        history: Some(history.clone()),
        ..ServeConfig::default()
    })
    .unwrap();

    let bench = s27_bench();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut expected = Vec::new();
    for (seed, threads) in [(3u64, None), (4, Some(1usize))] {
        let threads_line = threads.map_or(String::new(), |t| format!("threads = {t}\n"));
        let payload =
            format!("name = s27\nseed = {seed}\n{threads_line}t0 = random\nt0_len = 16\n\n{bench}");
        write_frame(&mut stream, &Frame::text(FrameKind::Submit, payload)).unwrap();
        assert_eq!(
            read_frame(&mut stream).unwrap().kind,
            FrameKind::ResultHeader
        );
        assert_eq!(read_frame(&mut stream).unwrap().kind, FrameKind::ResultBody);
        let config = PipelineConfig {
            seed,
            t0_source: T0Source::Random { len: 16 },
            ..PipelineConfig::default()
        };
        expected.push(config_fingerprint(
            &[config.canonical_lines()],
            Some(threads.unwrap_or(3)),
        ));
    }
    drop(stream);
    Client::connect(server.addr()).unwrap().shutdown().unwrap();
    server.wait();

    let text = std::fs::read_to_string(&history).unwrap();
    let recorded: Vec<String> = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let v = atspeed_trace::json::parse(line).expect("history line parses");
            v.get("config_fingerprint")
                .and_then(atspeed_trace::json::Value::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(recorded, expected);
    // The first job at 1 thread would have recorded another fingerprint.
    let at_one = config_fingerprint(&[quick_config().canonical_lines()], Some(1));
    assert_ne!(expected[0], at_one);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Server::wait` must return after a shutdown that races worker start-up.
/// A worker that had just read `stop == false` and not yet parked on the
/// queue condvar used to miss the stop notification and never exit. Many
/// servers with many workers, started and stopped at once from several
/// threads, land shutdowns inside that window; each `wait` runs on a
/// helper thread and must finish within a deadline.
#[test]
fn shutdown_racing_worker_startup_never_hangs() {
    const LOOPS: usize = 8;
    const ROUNDS: usize = 200;
    std::thread::scope(|s| {
        for l in 0..LOOPS {
            s.spawn(move || {
                for round in 0..ROUNDS {
                    let server = Server::start(ServeConfig {
                        workers: 16,
                        ..ServeConfig::default()
                    })
                    .expect("bind loopback");
                    server.shutdown();
                    let (tx, rx) = std::sync::mpsc::channel();
                    std::thread::spawn(move || {
                        server.wait();
                        let _ = tx.send(());
                    });
                    assert!(
                        rx.recv_timeout(std::time::Duration::from_secs(10)).is_ok(),
                        "Server::wait hung after shutdown (loop {l}, round {round})"
                    );
                }
            });
        }
    });
}

/// `atspeedctl` bounds `--threads` and `--t0-len` itself. Nothing listens
/// on the address it is given, so only a rejection made before connecting
/// names the flag; one left to the server would fail to connect instead.
#[test]
fn client_rejects_numeric_flags_above_their_bounds() {
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.local_addr().expect("local addr").to_string()
    };
    let threads = (atspeed_sim::MAX_THREADS + 1).to_string();
    let t0_len = (atspeed_core::MAX_T0_LEN + 1).to_string();
    for (flag, value) in [
        ("--threads", threads.as_str()),
        ("--t0-len", t0_len.as_str()),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_atspeedctl"))
            .args(["submit", "--addr", &addr, "--circuit", "s298", flag, value])
            .output()
            .expect("spawn atspeedctl");
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("bad {flag} `{value}`")),
            "{flag}: {stderr}"
        );
    }
}

/// Flags retired with the evaluation-kernel knob are unknown arguments:
/// both binaries refuse them before binding or connecting.
#[test]
fn retired_engine_flag_is_rejected() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_serve"), &["--engine", "scalar"][..]),
        (
            env!("CARGO_BIN_EXE_atspeedctl"),
            &["ping", "--engine", "scalar"][..],
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("spawn binary");
        assert!(!out.status.success(), "{bin} accepted --engine");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument `--engine`"),
            "{bin}: {stderr}"
        );
    }
}
