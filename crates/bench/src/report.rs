//! Self-contained HTML run reports from telemetry artifacts.
//!
//! [`render_html`] consumes whatever subset of a run's outputs exists —
//! metrics JSON (`--metrics-json`), Chrome trace (`--trace`), folded
//! profile (`--profile`), run history (`target/bench-history.jsonl`) —
//! and renders one HTML file with **zero external references**: styles
//! inline, charts as inline SVG, no scripts, no fonts, no links out. The
//! file is the CI artifact a human opens to answer "where did this run's
//! time go, and how does it compare to the last N runs".
//!
//! Sections (each rendered only when its input is present):
//!
//! - **Run summary** — headline `derived.*` figures plus git SHA/command
//!   from the latest history record;
//! - **Phase waterfall** — wall-time bars per pipeline phase, from the
//!   trace's `pipeline.*` spans when a trace is given, else from the
//!   `phase/<label>/wall_ns` counters;
//! - **Hottest stacks** — top-k folded stacks by sample count from the
//!   profiler output;
//! - **Slowest spans** — top-k longest spans from the Chrome trace, with
//!   their arguments (this is where the slowest PODEM faults surface,
//!   labelled by the `fault` argument);
//! - **Trends** — sparklines of throughput and peak RSS across history
//!   records sharing this run's command fingerprint (all records when
//!   none match);
//! - **Metrics tables** — omission/PODEM counters and per-phase counters
//!   from the metrics JSON, quantiles included.

use std::fmt::Write as _;

use atspeed_trace::json::Value;

/// Everything the renderer may consume. Any field may be absent; the
/// report renders the sections it has data for.
#[derive(Debug, Default)]
pub struct ReportInputs {
    /// Parsed `--metrics-json` output.
    pub metrics: Option<Value>,
    /// Parsed Chrome trace (`--trace` output).
    pub trace: Option<Value>,
    /// Raw folded-profile text (`--profile` output).
    pub profile: Option<String>,
    /// Parsed run-history records, file order (oldest first).
    pub history: Vec<Value>,
    /// How many rows the top-k tables show.
    pub top_k: usize,
}

impl ReportInputs {
    /// Inputs with the default table depth.
    pub fn new() -> ReportInputs {
        ReportInputs {
            top_k: 15,
            ..ReportInputs::default()
        }
    }
}

/// One completed span recovered from a Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanDuration {
    /// Span name.
    pub name: String,
    /// Wall time between the begin and end events, µs.
    pub dur_us: u64,
    /// Begin timestamp, µs since the tracer epoch.
    pub start_us: u64,
    /// Rendered `key=value` argument summary, empty when the span had
    /// none.
    pub args: String,
}

/// One open span awaiting its end event: (name, start_us, args).
type OpenSpan = (String, u64, String);

/// Pairs up `ph:B`/`ph:E` events per thread track and returns every
/// completed span. Tolerates truncated traces (unmatched begins are
/// dropped).
pub fn span_durations(trace: &Value) -> Vec<SpanDuration> {
    let Some(events) = trace.get("traceEvents").and_then(Value::as_arr) else {
        return Vec::new();
    };
    // Per-tid stack of open spans — spans nest LIFO per thread.
    let mut stacks: Vec<(u64, Vec<OpenSpan>)> = Vec::new();
    let mut out = Vec::new();
    for ev in events {
        let (Some(name), Some(ph), Some(tid), Some(ts)) = (
            ev.get("name").and_then(Value::as_str),
            ev.get("ph").and_then(Value::as_str),
            ev.get("tid").and_then(Value::as_u64),
            ev.get("ts").and_then(Value::as_u64),
        ) else {
            continue;
        };
        let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
            Some((_, s)) => s,
            None => {
                stacks.push((tid, Vec::new()));
                &mut stacks.last_mut().expect("just pushed").1
            }
        };
        match ph {
            "B" => {
                let args = ev
                    .get("args")
                    .and_then(Value::as_obj)
                    .map(|kvs| {
                        kvs.iter()
                            .map(|(k, v)| match v.as_str() {
                                Some(s) => format!("{k}={s}"),
                                None => format!("{k}={v:?}"),
                            })
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .unwrap_or_default();
                stack.push((name.to_owned(), ts, args));
            }
            "E" => {
                if let Some((n, start, args)) = stack.pop() {
                    out.push(SpanDuration {
                        dur_us: ts.saturating_sub(start),
                        start_us: start,
                        name: n,
                        args,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// `(stack, samples)` rows of a folded profile, heaviest first. Malformed
/// lines are skipped (the writer validates; the reader stays lenient).
pub fn folded_rows(folded: &str) -> Vec<(String, u64)> {
    let mut rows: Vec<(String, u64)> = folded
        .lines()
        .filter_map(|l| {
            let (stack, count) = l.rsplit_once(' ')?;
            let n: u64 = count.parse().ok()?;
            (n > 0 && !stack.is_empty()).then(|| (stack.to_owned(), n))
        })
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Escapes text for HTML element and attribute content.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1} s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1} ms", us as f64 / 1e3)
    } else {
        format!("{us} µs")
    }
}

fn fmt_count(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if v == v.trunc() {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= (1u64 << 30) as f64 {
        format!("{:.2} GiB", b / (1u64 << 30) as f64)
    } else if b >= (1u64 << 20) as f64 {
        format!("{:.1} MiB", b / (1u64 << 20) as f64)
    } else {
        format!("{:.0} KiB", b / 1024.0)
    }
}

/// An inline-SVG sparkline of `values` (left = oldest). Returns an empty
/// string for fewer than two points.
fn sparkline(values: &[f64], stroke: &str) -> String {
    if values.len() < 2 {
        return String::new();
    }
    let (w, h, pad) = (220.0, 44.0, 4.0);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = if (max - min).abs() < f64::EPSILON {
        1.0
    } else {
        max - min
    };
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let x = pad + (w - 2.0 * pad) * i as f64 / (values.len() - 1) as f64;
            let y = h - pad - (h - 2.0 * pad) * (v - min) / range;
            format!("{x:.1},{y:.1}")
        })
        .collect();
    let last = pts.last().expect("len >= 2").clone();
    format!(
        "<svg width=\"{w:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {w:.0} {h:.0}\" \
         role=\"img\" aria-label=\"trend\">\
         <polyline fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\" points=\"{}\"/>\
         <circle cx=\"{}\" cy=\"{}\" r=\"2.5\" fill=\"{stroke}\"/></svg>",
        pts.join(" "),
        last.split(',').next().unwrap_or("0"),
        last.split(',').nth(1).unwrap_or("0"),
    )
}

/// A horizontal bar scaled to `frac` of the column, with a label.
fn bar(frac: f64, label: &str) -> String {
    let pct = (frac.clamp(0.0, 1.0) * 100.0).max(0.5);
    format!(
        "<div class=\"bar\"><div class=\"fill\" style=\"width:{pct:.1}%\"></div>\
         <span>{}</span></div>",
        esc(label)
    )
}

fn section(out: &mut String, title: &str, body: &str) {
    let _ = write!(out, "<section><h2>{}</h2>{body}</section>", esc(title));
}

/// The phase wall times the waterfall draws: trace `pipeline.*` spans
/// when available, else `phase/<label>/wall_ns` counters from metrics.
fn phase_walls(inputs: &ReportInputs) -> Vec<(String, u64)> {
    if let Some(trace) = &inputs.trace {
        let mut spans: Vec<(String, u64)> = span_durations(trace)
            .into_iter()
            .filter(|s| s.name.starts_with("pipeline."))
            .map(|s| (s.name["pipeline.".len()..].to_owned(), s.dur_us))
            .collect();
        if !spans.is_empty() {
            // Same phase may run once per circuit; sum repeats.
            spans.sort_by(|a, b| a.0.cmp(&b.0));
            spans.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            return spans;
        }
    }
    let Some(metrics) = &inputs.metrics else {
        return Vec::new();
    };
    let Some(counters) = metrics.get("counters").and_then(Value::as_obj) else {
        return Vec::new();
    };
    counters
        .iter()
        .filter_map(|(name, v)| {
            let rest = name.strip_prefix("phase/")?;
            let (label, field) = rest.rsplit_once('/')?;
            (field == "wall_ns")
                .then(|| (label.to_owned(), (v.as_f64().unwrap_or(0.0) / 1e3) as u64))
        })
        .collect()
}

/// Renders the report. Always returns a complete HTML document, even for
/// empty inputs (sections without data are omitted; an empty report says
/// so).
pub fn render_html(inputs: &ReportInputs) -> String {
    let top_k = if inputs.top_k == 0 { 15 } else { inputs.top_k };
    let mut body = String::new();

    // --- Run summary ------------------------------------------------
    let derived = inputs
        .metrics
        .as_ref()
        .and_then(|m| m.get("derived"))
        .and_then(Value::as_obj);
    let latest = inputs.history.last();
    if derived.is_some() || latest.is_some() {
        let mut cards = String::new();
        let mut card = |label: &str, value: String| {
            let _ = write!(
                cards,
                "<div class=\"card\"><div class=\"v\">{}</div><div class=\"l\">{}</div></div>",
                esc(&value),
                esc(label)
            );
        };
        if let Some(d) = derived {
            let get = |k: &str| {
                d.iter()
                    .find(|(n, _)| n == k)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0)
            };
            card("gate evals", fmt_count(get("gate_evals_total")));
            card("phase wall", fmt_us(get("wall_us_total") as u64));
            card("omission attempts / s", {
                let r = get("omission_attempts_per_sec");
                if r > 0.0 {
                    fmt_count(r)
                } else {
                    "—".into()
                }
            });
            card("peak RSS", fmt_bytes(get("peak_rss_bytes")));
        }
        let mut meta = String::new();
        if let Some(rec) = latest {
            let s = |k: &str| rec.get(k).and_then(Value::as_str).unwrap_or("");
            let _ = write!(
                meta,
                "<p class=\"meta\">latest recorded run: <code>{}</code> @ <code>{}</code></p>",
                esc(s("command")),
                esc(&s("git_sha").chars().take(12).collect::<String>()),
            );
        }
        section(
            &mut body,
            "Run summary",
            &format!("<div class=\"cards\">{cards}</div>{meta}"),
        );
    }

    // --- Phase waterfall --------------------------------------------
    let walls = phase_walls(inputs);
    if !walls.is_empty() {
        let max = walls.iter().map(|(_, us)| *us).max().unwrap_or(1).max(1);
        let rows: String = walls
            .iter()
            .map(|(label, us)| {
                format!(
                    "<tr><td>{}</td><td class=\"n\">{}</td><td class=\"w\">{}</td></tr>",
                    esc(label),
                    fmt_us(*us),
                    bar(*us as f64 / max as f64, "")
                )
            })
            .collect();
        section(
            &mut body,
            "Phase waterfall",
            &format!("<table><tr><th>phase</th><th>wall</th><th></th></tr>{rows}</table>"),
        );
    }

    // --- Hottest stacks (profiler) ----------------------------------
    if let Some(folded) = &inputs.profile {
        let rows = folded_rows(folded);
        let total: u64 = rows.iter().map(|(_, n)| n).sum();
        if total > 0 {
            let table: String = rows
                .iter()
                .take(top_k)
                .map(|(stack, n)| {
                    format!(
                        "<tr><td class=\"n\">{n}</td><td class=\"n\">{:.1}%</td>\
                         <td><code>{}</code></td></tr>",
                        *n as f64 * 100.0 / total as f64,
                        esc(stack)
                    )
                })
                .collect();
            section(
                &mut body,
                "Hottest stacks",
                &format!(
                    "<p class=\"meta\">{total} samples; top {} of {} distinct stacks. \
                     Load the <code>.folded</code> file in speedscope for the full \
                     flame graph.</p>\
                     <table><tr><th>samples</th><th>share</th><th>stack</th></tr>{table}</table>",
                    rows.len().min(top_k),
                    rows.len()
                ),
            );
        }
    }

    // --- Slowest spans (incl. PODEM faults) -------------------------
    if let Some(trace) = &inputs.trace {
        let mut spans = span_durations(trace);
        spans.sort_by_key(|s| std::cmp::Reverse(s.dur_us));
        if !spans.is_empty() {
            let table: String = spans
                .iter()
                .take(top_k)
                .map(|s| {
                    format!(
                        "<tr><td class=\"n\">{}</td><td><code>{}</code></td><td>{}</td></tr>",
                        fmt_us(s.dur_us),
                        esc(&s.name),
                        esc(&s.args)
                    )
                })
                .collect();
            let podem: Vec<&SpanDuration> = spans.iter().filter(|s| s.name == "podem").collect();
            let podem_table = if podem.is_empty() {
                String::new()
            } else {
                let rows: String = podem
                    .iter()
                    .take(top_k)
                    .map(|s| {
                        format!(
                            "<tr><td class=\"n\">{}</td><td>{}</td></tr>",
                            fmt_us(s.dur_us),
                            esc(&s.args)
                        )
                    })
                    .collect();
                format!(
                    "<h3>Slowest PODEM faults</h3>\
                     <table><tr><th>wall</th><th>fault</th></tr>{rows}</table>"
                )
            };
            section(
                &mut body,
                "Slowest spans",
                &format!(
                    "<table><tr><th>wall</th><th>span</th><th>args</th></tr>{table}</table>\
                     {podem_table}"
                ),
            );
        }
    }

    // --- Trends across history --------------------------------------
    if inputs.history.len() >= 2 {
        // Prefer records comparable to the newest one (same config
        // fingerprint); fall back to everything.
        let newest_fp = inputs
            .history
            .last()
            .and_then(|r| r.get("config_fingerprint"))
            .and_then(Value::as_str)
            .map(str::to_owned);
        let matching: Vec<&Value> = match &newest_fp {
            Some(fp) => inputs
                .history
                .iter()
                .filter(|r| r.get("config_fingerprint").and_then(Value::as_str) == Some(fp))
                .collect(),
            None => inputs.history.iter().collect(),
        };
        let records: Vec<&Value> = if matching.len() >= 2 {
            matching
        } else {
            inputs.history.iter().collect()
        };
        let series = |path: &[&str]| -> Vec<f64> {
            records
                .iter()
                .filter_map(|r| {
                    let mut v: &Value = r;
                    for k in path {
                        v = v.get(k)?;
                    }
                    v.as_f64()
                })
                .collect()
        };
        let mut charts = String::new();
        let mut chart = |label: &str, values: &[f64], fmt: &dyn Fn(f64) -> String| {
            if values.len() < 2 {
                return;
            }
            let _ = write!(
                charts,
                "<div class=\"trend\"><div class=\"l\">{} <b>{}</b> \
                 <span class=\"meta\">({} runs)</span></div>{}</div>",
                esc(label),
                esc(&fmt(*values.last().expect("len >= 2"))),
                values.len(),
                sparkline(values, "#2a7ae2")
            );
        };
        chart(
            "gate evals",
            &series(&["derived", "gate_evals_total"]),
            &|v| fmt_count(v),
        );
        chart(
            "omission attempts / s",
            &series(&["derived", "omission_attempts_per_sec"])
                .into_iter()
                .filter(|v| *v > 0.0)
                .collect::<Vec<_>>(),
            &|v| fmt_count(v),
        );
        chart("peak RSS", &series(&["peak_rss_bytes"]), &|v| fmt_bytes(v));
        chart("wall time", &series(&["wall_us"]), &|v| fmt_us(v as u64));
        if !charts.is_empty() {
            section(&mut body, "Trends", &charts);
        }
    }

    // --- Metrics tables ---------------------------------------------
    if let Some(metrics) = &inputs.metrics {
        let mut tables = String::new();
        if let Some(counters) = metrics.get("counters").and_then(Value::as_obj) {
            let interesting: Vec<&(String, Value)> = counters
                .iter()
                .filter(|(n, _)| !n.starts_with("phase/"))
                .collect();
            if !interesting.is_empty() {
                let rows: String = interesting
                    .iter()
                    .map(|(n, v)| {
                        format!(
                            "<tr><td><code>{}</code></td><td class=\"n\">{}</td></tr>",
                            esc(n),
                            fmt_count(v.as_f64().unwrap_or(0.0))
                        )
                    })
                    .collect();
                let _ = write!(
                    tables,
                    "<h3>Counters</h3><table><tr><th>name</th><th>value</th></tr>{rows}</table>"
                );
            }
        }
        if let Some(hists) = metrics.get("histograms").and_then(Value::as_obj) {
            if !hists.is_empty() {
                let rows: String = hists
                    .iter()
                    .map(|(n, h)| {
                        let f = |k: &str| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
                        format!(
                            "<tr><td><code>{}</code></td><td class=\"n\">{}</td>\
                             <td class=\"n\">{}</td><td class=\"n\">{}</td>\
                             <td class=\"n\">{}</td></tr>",
                            esc(n),
                            fmt_count(f("count")),
                            fmt_count(f("mean")),
                            fmt_count(f("p50")),
                            fmt_count(f("p99")),
                        )
                    })
                    .collect();
                let _ = write!(
                    tables,
                    "<h3>Histograms</h3><table><tr><th>name</th><th>count</th>\
                     <th>mean</th><th>p50</th><th>p99</th></tr>{rows}</table>"
                );
            }
        }
        if !tables.is_empty() {
            section(&mut body, "Metrics", &tables);
        }
    }

    if body.is_empty() {
        body = "<section><h2>No data</h2><p>No inputs were provided; pass \
                <code>--metrics</code>, <code>--trace</code>, <code>--profile</code>, \
                or <code>--history</code>.</p></section>"
            .to_owned();
    }

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\
         <title>atspeed run report</title><style>{CSS}</style></head>\
         <body><h1>atspeed run report</h1>{body}\
         <footer>generated by the <code>report</code> binary from local telemetry \
         artifacts; this file is fully self-contained.</footer></body></html>\n"
    )
}

const CSS: &str = "\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:70rem;\
padding:0 1rem;color:#1a1a2e;background:#fff}\
h1{font-size:1.5rem;border-bottom:2px solid #2a7ae2;padding-bottom:.3rem}\
h2{font-size:1.15rem;margin:1.6rem 0 .5rem}\
h3{font-size:1rem;margin:1rem 0 .3rem}\
section{margin-bottom:1.5rem}\
table{border-collapse:collapse;width:100%}\
th,td{text-align:left;padding:.25rem .6rem;border-bottom:1px solid #e4e7ee}\
th{font-weight:600;color:#555}\
td.n{text-align:right;font-variant-numeric:tabular-nums;white-space:nowrap}\
td.w{width:45%}\
code{font:12px ui-monospace,monospace;background:#f4f6fa;padding:0 .2rem;\
border-radius:3px}\
.cards{display:flex;flex-wrap:wrap;gap:.8rem}\
.card{background:#f4f6fa;border-radius:8px;padding:.7rem 1rem;min-width:8rem}\
.card .v{font-size:1.25rem;font-weight:650;font-variant-numeric:tabular-nums}\
.card .l{color:#667;font-size:.8rem}\
.meta{color:#667;font-size:.85rem}\
.bar{position:relative;background:#eef1f7;border-radius:3px;height:1rem;\
min-width:8rem}\
.bar .fill{background:#2a7ae2;height:100%;border-radius:3px}\
.bar span{position:absolute;left:.3rem;top:0;font-size:.75rem;color:#123}\
.trend{display:inline-block;margin:.4rem 1.4rem .4rem 0;vertical-align:top}\
.trend .l{font-size:.85rem;margin-bottom:.15rem}\
footer{margin-top:2rem;color:#889;font-size:.8rem;border-top:1px solid #e4e7ee;\
padding-top:.5rem}";

#[cfg(test)]
mod tests {
    use super::*;
    use atspeed_trace::json::parse;

    fn sample_metrics() -> Value {
        parse(
            r#"{
              "counters": {"omission/attempts": 120, "phase/phase1-2/wall_ns": 2000000,
                           "phase/phase3/wall_ns": 1000000},
              "gauges": {"process/peak_rss_bytes": 1048576},
              "histograms": {"podem/backtracks": {"count": 10, "sum": 50, "mean": 5.0,
                             "p50": 4.0, "p99": 9.5, "buckets": {"4": 10}}},
              "derived": {"gate_evals_total": 500000, "wall_us_total": 3000,
                          "partition_imbalance": 1.0,
                          "omission_attempts_total": 120, "omission_wall_us": 900,
                          "omission_attempts_per_sec": 133333.3,
                          "peak_rss_bytes": 1048576}
            }"#,
        )
        .unwrap()
    }

    fn sample_trace() -> Value {
        parse(
            r#"{"traceEvents":[
              {"name":"pipeline.phase1-2","ph":"B","tid":1,"ts":0},
              {"name":"podem","ph":"B","tid":1,"ts":10,
               "args":{"fault":"G17 s-a-1"}},
              {"name":"podem","ph":"E","tid":1,"ts":900},
              {"name":"podem","ph":"B","tid":1,"ts":910,
               "args":{"fault":"G5->G9 s-a-0"}},
              {"name":"podem","ph":"E","tid":1,"ts":930},
              {"name":"pipeline.phase1-2","ph":"E","tid":1,"ts":2000}
            ]}"#,
        )
        .unwrap()
    }

    fn history_record(fp: &str, gate_evals: f64, rss: f64) -> Value {
        parse(&format!(
            r#"{{"schema":1,"unix_time_s":1,"git_sha":"abc","command":"tables --quick",
                "config_fingerprint":"{fp}","wall_us":1000,"peak_rss_bytes":{rss},
                "derived":{{"gate_evals_total":{gate_evals},"omission_attempts_per_sec":10.0}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn span_durations_pair_begin_end_per_thread() {
        let spans = span_durations(&sample_trace());
        assert_eq!(spans.len(), 3);
        let podem: Vec<_> = spans.iter().filter(|s| s.name == "podem").collect();
        assert_eq!(podem.len(), 2);
        assert_eq!(podem[0].dur_us, 890);
        assert_eq!(podem[0].args, "fault=G17 s-a-1");
        let pipe = spans
            .iter()
            .find(|s| s.name == "pipeline.phase1-2")
            .unwrap();
        assert_eq!(pipe.dur_us, 2000);
    }

    #[test]
    fn folded_rows_sort_heaviest_first_and_skip_garbage() {
        let rows = folded_rows("main;a 3\nmain;b 10\nnot-a-row\nmain;c 0\n");
        assert_eq!(
            rows,
            vec![("main;b".to_owned(), 10), ("main;a".to_owned(), 3)]
        );
    }

    #[test]
    fn report_renders_all_sections_self_contained() {
        let mut inputs = ReportInputs::new();
        inputs.metrics = Some(sample_metrics());
        inputs.trace = Some(sample_trace());
        inputs.profile = Some("main;pipeline.phase1-2;podem 42\nmain;pipeline.phase3 7\n".into());
        inputs.history = vec![
            history_record("f00d", 1.0e8, 1e6),
            history_record("f00d", 1.2e8, 1.1e6),
            history_record("beef", 9.9e7, 9e5),
            history_record("f00d", 1.3e8, 1.2e6),
        ];
        let html = render_html(&inputs);
        for needle in [
            "<!DOCTYPE html>",
            "Run summary",
            "Phase waterfall",
            "Hottest stacks",
            "Slowest spans",
            "Slowest PODEM faults",
            "G17 s-a-1",
            "Trends",
            "<svg",
            "Metrics",
            "podem/backtracks",
        ] {
            assert!(html.contains(needle), "missing {needle:?}");
        }
        // Self-contained: no external references of any scheme.
        for banned in ["http://", "https://", "<script", "src=", "@import", "url("] {
            assert!(!html.contains(banned), "found {banned:?}");
        }
    }

    #[test]
    fn trend_prefers_records_with_matching_fingerprint() {
        let mut inputs = ReportInputs::new();
        inputs.history = vec![
            history_record("aaaa", 1.0, 1.0),
            history_record("bbbb", 2.0, 2.0),
            history_record("bbbb", 3.0, 3.0),
        ];
        let html = render_html(&inputs);
        // Newest record's fingerprint (bbbb) matches 2 records — the
        // trend uses those, shown in the "(2 runs)" annotation.
        assert!(html.contains("(2 runs)"), "{html}");
    }

    #[test]
    fn empty_inputs_render_a_valid_empty_report() {
        let html = render_html(&ReportInputs::new());
        assert!(html.contains("No data"));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(!html.contains("http"));
    }

    #[test]
    fn html_escaping_covers_span_names_and_args() {
        let trace = parse(
            r#"{"traceEvents":[
              {"name":"<evil>&\"name\"","ph":"B","tid":1,"ts":0,
               "args":{"k":"<script>alert(1)</script>"}},
              {"name":"<evil>&\"name\"","ph":"E","tid":1,"ts":5}
            ]}"#,
        )
        .unwrap();
        let mut inputs = ReportInputs::new();
        inputs.trace = Some(trace);
        let html = render_html(&inputs);
        assert!(!html.contains("<script>"), "{html}");
        assert!(!html.contains("<evil>"));
        assert!(html.contains("&lt;evil&gt;"));
    }
}
