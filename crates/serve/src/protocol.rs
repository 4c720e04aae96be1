//! The wire protocol: bounded length-prefixed frames over TCP, with
//! text payloads.
//!
//! A frame is `b"ATSP"` (magic) | type byte | payload length (u32,
//! big-endian) | payload. The length is validated against [`MAX_FRAME`]
//! *before* any payload byte is read, so a malicious or broken client
//! cannot make the server allocate or buffer unboundedly; every framing
//! violation is a structured [`ProtocolError`], never a panic or a wedge.
//!
//! Payloads are line-oriented text (the same `key = value` idiom as the
//! repro bundle's `case.txt`), so sessions are inspectable with `nc` plus
//! a hex dump and responses diff cleanly:
//!
//! - **Submit** — config lines, one blank line, then the `.bench` netlist;
//! - **ResultHeader** — per-response (volatile) facts: cache hit or miss,
//!   the two fingerprints, server-side wall time;
//! - **ResultBody** — the cached, canonical rendering of the
//!   [`PipelineResult`] — summary stats, one blank line, then each
//!   compacted scan test in the repro-bundle stimuli format, separated by
//!   `--` lines. Byte-identical across cache
//!   hits — that is the property the CI smoke job asserts with `cmp`.

use std::io::{self, Read, Write};

use atspeed_core::{PipelineConfig, PipelineResult, T0Source};
use atspeed_sim::{SimConfig, MAX_THREADS};
use atspeed_verify::encode_stimuli;

/// Frame magic; rejects HTTP requests and random port scans immediately.
pub const MAGIC: [u8; 4] = *b"ATSP";

/// Upper bound on a frame payload. Large enough for a multi-megabyte
/// synthetic netlist or result body, small enough that one bad client
/// cannot OOM a worker.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Upper bound on a Submit's `t0_len`, checked before any job runs.
pub use atspeed_core::MAX_T0_LEN;

/// Frame type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Liveness probe; the server answers [`FrameKind::Pong`].
    Ping = 0x01,
    /// Reply to a ping.
    Pong = 0x02,
    /// A job: pipeline config lines, a blank line, a `.bench` netlist.
    Submit = 0x03,
    /// First half of a reply: volatile per-response facts.
    ResultHeader = 0x04,
    /// Second half of a reply: the cached result rendering.
    ResultBody = 0x05,
    /// The request failed; payload is a human-readable reason.
    Error = 0x06,
    /// Request for server/cache statistics.
    Stats = 0x07,
    /// Reply to [`FrameKind::Stats`]: `key = value` lines.
    StatsReply = 0x08,
    /// Ask the server to stop accepting and drain.
    Shutdown = 0x09,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Ping,
            0x02 => FrameKind::Pong,
            0x03 => FrameKind::Submit,
            0x04 => FrameKind::ResultHeader,
            0x05 => FrameKind::ResultBody,
            0x06 => FrameKind::Error,
            0x07 => FrameKind::Stats,
            0x08 => FrameKind::StatsReply,
            0x09 => FrameKind::Shutdown,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with a UTF-8 text payload.
    pub fn text(kind: FrameKind, text: impl Into<String>) -> Frame {
        Frame {
            kind,
            payload: text.into().into_bytes(),
        }
    }

    /// The payload as text (lossy — payloads this crate writes are UTF-8).
    pub fn text_payload(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

/// Why a frame or payload was rejected.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed (including EOF mid-frame).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The type byte is not a known [`FrameKind`].
    UnknownType(u8),
    /// The declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The bound it violated.
        max: u32,
    },
    /// The frame parsed but its payload did not.
    BadPayload(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtocolError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte bound")
            }
            ProtocolError::BadPayload(msg) => write!(f, "bad payload: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

/// Reads one frame, validating magic, type, and length *before* reading
/// the payload (bounded read).
///
/// # Errors
///
/// Every violation is a distinct [`ProtocolError`]; the caller decides
/// whether the connection is still usable (it is for everything except
/// [`ProtocolError::Io`] — the header and payload were fully consumed).
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; 9];
    reader.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let kind = FrameKind::from_byte(header[4]).ok_or(ProtocolError::UnknownType(header[4]))?;
    let len = u32::from_be_bytes([header[5], header[6], header[7], header[8]]);
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(Frame { kind, payload })
}

/// Writes one frame.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME`]
/// (the bound is symmetric), else the socket error.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    let mut buf = Vec::new();
    encode_frame(&mut buf, frame.kind, &frame.payload)?;
    writer.write_all(&buf)?;
    writer.flush()?;
    Ok(())
}

/// Appends one frame's wire form to `buf`, so that several frames can go
/// out in a single write.
///
/// # Errors
///
/// [`ProtocolError::FrameTooLarge`] if the payload exceeds [`MAX_FRAME`].
pub(crate) fn encode_frame(
    buf: &mut Vec<u8>,
    kind: FrameKind,
    payload: &[u8],
) -> Result<(), ProtocolError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or(ProtocolError::FrameTooLarge {
            len: u32::try_from(payload.len()).unwrap_or(u32::MAX),
            max: MAX_FRAME,
        })?;
    buf.reserve(9 + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(kind as u8);
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// A decoded job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Circuit name (the `name` config key; defaults to `submitted`).
    pub name: String,
    /// The pipeline configuration.
    pub config: PipelineConfig,
    /// The `.bench` netlist text.
    pub bench: String,
}

impl SubmitRequest {
    /// Encodes the submission payload: config lines, one blank line, the
    /// netlist.
    pub fn encode(&self) -> String {
        let (t0, t0_len) = match self.config.t0_source {
            T0Source::Directed { max_len } => ("directed", max_len),
            T0Source::Property { max_len } => ("property", max_len),
            T0Source::Random { len } => ("random", len),
        };
        format!(
            "max_failed_pairs = {}\nname = {}\nphase4 = {}\n\
             profile_state_words = {}\nseed = {}\nt0 = {}\nt0_len = {}\n\
             threads = {}\nverify = {}\n\n{}",
            self.config.memory.max_failed_pairs,
            self.name,
            u8::from(self.config.phase4),
            self.config.memory.profile_state_words,
            self.config.seed,
            t0,
            t0_len,
            self.config.sim.threads,
            u8::from(self.config.verify),
            self.bench,
        )
    }

    /// Decodes a submission payload. A payload without a `threads` key
    /// runs at `default_sim` (the server's default for jobs); its own
    /// `threads` wins. Unknown config keys are rejected — a typo must not
    /// silently fall back to a default and poison the cache with a
    /// mislabeled result.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] with the offending line.
    pub fn decode(payload: &str, default_sim: SimConfig) -> Result<SubmitRequest, ProtocolError> {
        let bad = |msg: String| ProtocolError::BadPayload(msg);
        let mut req = SubmitRequest {
            name: "submitted".to_owned(),
            config: PipelineConfig {
                sim: default_sim,
                ..PipelineConfig::default()
            },
            bench: String::new(),
        };
        let mut t0 = "directed".to_owned();
        let mut t0_len = 1024usize;
        let mut rest = payload;
        loop {
            let (line, tail) = match rest.split_once('\n') {
                Some(pair) => pair,
                None => return Err(bad("missing blank line before the netlist".into())),
            };
            rest = tail;
            let line = line.trim_end_matches('\r');
            if line.trim().is_empty() {
                break;
            }
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| bad(format!("config line `{line}` is not `key = value`")))?;
            let parse_usize = |v: &str| {
                v.parse::<usize>()
                    .map_err(|_| bad(format!("bad {key} `{v}`")))
            };
            let parse_flag = |v: &str| match v {
                "0" => Ok(false),
                "1" => Ok(true),
                _ => Err(bad(format!("bad {key} `{v}` (expected 0 or 1)"))),
            };
            match key {
                "name" => {
                    if value.is_empty() || !value.chars().all(|c| c.is_ascii_graphic()) {
                        return Err(bad(format!("bad name `{value}`")));
                    }
                    req.name = value.to_owned();
                }
                "seed" => {
                    req.config.seed = value
                        .parse()
                        .map_err(|_| bad(format!("bad seed `{value}`")))?;
                }
                "t0" => {
                    if !matches!(value, "directed" | "property" | "random") {
                        return Err(bad(format!(
                            "bad t0 `{value}` (expected directed, property, or random)"
                        )));
                    }
                    t0 = value.to_owned();
                }
                "t0_len" => {
                    t0_len = parse_usize(value)?;
                    if t0_len > MAX_T0_LEN {
                        return Err(bad(format!(
                            "bad t0_len `{value}` (expected at most {MAX_T0_LEN})"
                        )));
                    }
                }
                "phase4" => req.config.phase4 = parse_flag(value)?,
                "verify" => req.config.verify = parse_flag(value)?,
                "profile_state_words" => {
                    req.config.memory.profile_state_words = parse_usize(value)?
                }
                "max_failed_pairs" => req.config.memory.max_failed_pairs = parse_usize(value)?,
                "threads" => {
                    let t = parse_usize(value)?;
                    if t == 0 || t > MAX_THREADS {
                        return Err(bad(format!(
                            "bad threads `{value}` (expected 1..={MAX_THREADS})"
                        )));
                    }
                    req.config.sim.threads = t;
                }
                other => return Err(bad(format!("unknown config key `{other}`"))),
            }
        }
        req.config.t0_source = match t0.as_str() {
            "directed" => T0Source::Directed { max_len: t0_len },
            "property" => T0Source::Property { max_len: t0_len },
            _ => T0Source::Random { len: t0_len },
        };
        if rest.trim().is_empty() {
            return Err(bad("empty netlist".into()));
        }
        req.bench = rest.to_owned();
        Ok(req)
    }
}

/// Whether a response was served from the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the cache without recomputation.
    Hit,
    /// Computed by this request.
    Miss,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
        })
    }
}

/// The volatile half of a reply — everything that may legitimately differ
/// between two responses for the same job, kept out of the cached body so
/// the body stays byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHeader {
    /// Hit or miss.
    pub cache: CacheOutcome,
    /// Fingerprint of the canonicalized netlist (16 hex digits).
    pub netlist_fp: String,
    /// Fingerprint of the result-determining config lines.
    pub config_fp: String,
    /// Server-side wall time for this response, µs.
    pub wall_us: u64,
}

impl ResponseHeader {
    /// Encodes as `key = value` lines.
    pub fn encode(&self) -> String {
        format!(
            "cache = {}\nconfig_fp = {}\nnetlist_fp = {}\nwall_us = {}\n",
            self.cache, self.config_fp, self.netlist_fp, self.wall_us,
        )
    }

    /// Decodes the header payload.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadPayload`] on missing or malformed fields.
    pub fn decode(payload: &str) -> Result<ResponseHeader, ProtocolError> {
        let mut cache = None;
        let mut netlist_fp = None;
        let mut config_fp = None;
        let mut wall_us = None;
        for line in payload.lines().filter(|l| !l.trim().is_empty()) {
            let (key, value) = line
                .split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| {
                    ProtocolError::BadPayload(format!("header line `{line}` is not `key = value`"))
                })?;
            match key {
                "cache" => {
                    cache = Some(match value {
                        "hit" => CacheOutcome::Hit,
                        "miss" => CacheOutcome::Miss,
                        _ => {
                            return Err(ProtocolError::BadPayload(format!(
                                "bad cache outcome `{value}`"
                            )))
                        }
                    })
                }
                "netlist_fp" => netlist_fp = Some(value.to_owned()),
                "config_fp" => config_fp = Some(value.to_owned()),
                "wall_us" => {
                    wall_us =
                        Some(value.parse().map_err(|_| {
                            ProtocolError::BadPayload(format!("bad wall_us `{value}`"))
                        })?)
                }
                other => {
                    return Err(ProtocolError::BadPayload(format!(
                        "unknown header key `{other}`"
                    )))
                }
            }
        }
        let missing = |f: &str| ProtocolError::BadPayload(format!("missing header key `{f}`"));
        Ok(ResponseHeader {
            cache: cache.ok_or_else(|| missing("cache"))?,
            netlist_fp: netlist_fp.ok_or_else(|| missing("netlist_fp"))?,
            config_fp: config_fp.ok_or_else(|| missing("config_fp"))?,
            wall_us: wall_us.ok_or_else(|| missing("wall_us"))?,
        })
    }
}

/// Renders a [`PipelineResult`] as the canonical result body: summary
/// stats as sorted `key = value` lines, one blank line, then each
/// compacted scan test in the repro-bundle stimuli format, separated by
/// `--` lines.
///
/// Deterministic by construction (no floats, no timestamps), so equal
/// results render byte-identically — the cache stores exactly these
/// bytes.
pub fn encode_result(result: &PipelineResult, num_pis: usize) -> String {
    let mut out = format!(
        "circuit = {}\ncomb_tests = {}\ncomp_cycles = {}\nfinal_detected = {}\n\
         init_cycles = {}\niterations = {}\nn_sv = {}\nnum_pis = {}\n\
         t0_detected = {}\nt0_len = {}\ntau_seq_detected = {}\ntau_seq_len = {}\n\
         tests = {}\ntotal_faults = {}\nuntestable = {}\n\n",
        result.circuit,
        result.num_comb_tests,
        result.comp_cycles,
        result.final_detected,
        result.init_cycles,
        result.iterations,
        result.n_sv,
        num_pis,
        result.t0_detected,
        result.t0_len,
        result.tau_seq_detected,
        result.tau_seq_len,
        result.compacted_set.len(),
        result.total_faults,
        result.untestable_faults,
    );
    for (i, test) in result.compacted_set.tests.iter().enumerate() {
        if i > 0 {
            out.push_str("--\n");
        }
        out.push_str(&encode_stimuli(&test.si, &test.seq));
    }
    out
}

/// The summary section of a result body as `(key, value)` pairs, in file
/// order. Stops at the blank line; the stimuli section is left to
/// [`atspeed_verify::decode_stimuli`].
pub fn decode_result_summary(body: &str) -> Vec<(String, String)> {
    body.lines()
        .take_while(|l| !l.trim().is_empty())
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_core::MemoryBudget;
    use atspeed_sim::SimConfig;

    #[test]
    fn frames_round_trip() {
        let frame = Frame::text(FrameKind::Submit, "seed = 1\n\nINPUT(a)\n");
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn bad_magic_and_unknown_type_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::text(FrameKind::Ping, "")).unwrap();
        buf[0] = b'H'; // "HTSP"
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::BadMagic(_))
        ));
        buf[0] = b'A';
        buf[4] = 0x7f;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::UnknownType(0x7f))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.push(FrameKind::Submit as u8);
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        // No payload bytes at all: the length check must fire first —
        // a reader that tried to allocate/read 4 GiB would hit EOF (Io)
        // or worse.
        match read_frame(&mut buf.as_slice()) {
            Err(ProtocolError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_io_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::text(FrameKind::Submit, "0123456789")).unwrap();
        for cut in [3, 8, buf.len() - 4] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(ProtocolError::Io(_))),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn submit_round_trips_and_rejects_garbage() {
        let req = SubmitRequest {
            name: "s27".to_owned(),
            config: PipelineConfig {
                seed: 9,
                verify: true,
                t0_source: T0Source::Random { len: 33 },
                memory: MemoryBudget {
                    profile_state_words: 64,
                    max_failed_pairs: 1000,
                },
                sim: SimConfig::with_threads(4),
                ..PipelineConfig::default()
            },
            bench: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n".to_owned(),
        };
        let got = SubmitRequest::decode(&req.encode(), SimConfig::default()).unwrap();
        assert_eq!(got, req);

        // Without a `threads` key the job runs at the server's default;
        // its own `threads` wins.
        let bare = "seed = 3\n\nINPUT(a)\n";
        let at = |payload: &str| {
            SubmitRequest::decode(payload, SimConfig::with_threads(3))
                .unwrap()
                .config
                .sim
        };
        assert_eq!(at(bare), SimConfig::with_threads(3));
        assert_eq!(
            at(&format!("threads = 1\n{bare}")),
            SimConfig::with_threads(1)
        );

        // The `t0_len` cap itself still decodes.
        let capped = format!("t0 = random\nt0_len = {MAX_T0_LEN}\n\nINPUT(a)\n");
        assert_eq!(
            SubmitRequest::decode(&capped, SimConfig::default())
                .unwrap()
                .config
                .t0_source,
            T0Source::Random { len: MAX_T0_LEN }
        );

        for bad in [
            "typo_key = 1\n\nINPUT(a)\n",
            "seed = banana\n\nINPUT(a)\n",
            "threads = 0\n\nINPUT(a)\n",
            "threads = 257\n\nINPUT(a)\n",
            "threads = 9999\n\nINPUT(a)\n",
            "engine = widefused\n\nINPUT(a)\n",
            "engine = scalar\n\nINPUT(a)\n",
            "t0 = psychic\n\nINPUT(a)\n",
            "phase4 = maybe\n\nINPUT(a)\n",
            "t0 = random\nt0_len = 1000000000000\n\nINPUT(a)\n",
            "t0_len = 65537\n\nINPUT(a)\n",
            "seed = 1\n",          // no blank line, no netlist
            "seed = 1\n\n\n   \n", // empty netlist
        ] {
            assert!(
                matches!(
                    SubmitRequest::decode(bad, SimConfig::default()),
                    Err(ProtocolError::BadPayload(_))
                ),
                "`{bad}` must be rejected"
            );
        }
    }

    #[test]
    fn response_header_round_trips() {
        let h = ResponseHeader {
            cache: CacheOutcome::Hit,
            netlist_fp: "00deadbeef001122".to_owned(),
            config_fp: "aabbccdd00112233".to_owned(),
            wall_us: 123,
        };
        assert_eq!(ResponseHeader::decode(&h.encode()).unwrap(), h);
        assert!(ResponseHeader::decode("cache = maybe\n").is_err());
        assert!(
            ResponseHeader::decode("cache = hit\n").is_err(),
            "missing fields"
        );
    }
}
