//! Leveled structured logging: one JSON object per line.
//!
//! Events carry a level (`error` > `warn` > `info` > `debug`), a `target`
//! naming the emitting subsystem (`"bench.runner"`, `"core.iterate"`), a
//! human message, and arbitrary key/value fields. The line format is plain
//! JSONL, so run logs pipe straight into `jq`:
//!
//! ```text
//! {"ts_us":1754400000000000,"level":"info","target":"bench.runner","msg":"circuit done","circuit":"s298","wall_ms":412}
//! ```
//!
//! The maximum level defaults to `info` and is process-global
//! ([`set_max_level`]); the [`crate::error!`], [`crate::warn!`],
//! [`crate::info!`], and [`crate::debug!`] macros check it before
//! evaluating any field expression. Every line goes to stderr.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The run cannot produce its result.
    Error = 0,
    /// Something is wrong but the run continues.
    Warn = 1,
    /// Progress and headline figures (the default maximum).
    Info = 2,
    /// Per-iteration diagnostics.
    Debug = 3,
}

impl Level {
    /// The lowercase name used on the wire and on the command line.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a level name (case-insensitive), e.g. for a `--log LEVEL`
    /// flag. `"off"` is not a level; use [`set_max_level`] with
    /// [`Level::Error`] and accept errors, or filter stderr.
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Sets the process-wide maximum level: events above it are dropped.
pub fn set_max_level(level: Level) {
    MAX_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current maximum level.
pub fn max_level() -> Level {
    match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => Level::Error,
        1 => Level::Warn,
        2 => Level::Info,
        _ => Level::Debug,
    }
}

/// Whether events at `level` currently pass the filter.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// A numeric-looking field value is emitted as a bare JSON number only
/// when it round-trips exactly (so `"007"` or `"1e999"` stay quoted).
fn is_bare_number(s: &str) -> bool {
    if let Ok(v) = s.parse::<i64>() {
        return v.to_string() == s;
    }
    if let Ok(v) = s.parse::<f64>() {
        return v.is_finite() && v.to_string() == s;
    }
    false
}

/// Emits one structured event. Prefer the level macros, which skip field
/// evaluation when the level is filtered out.
pub fn log(level: Level, target: &str, msg: &str, fields: &[(&str, &dyn fmt::Display)]) {
    if !enabled(level) {
        return;
    }
    let ts_us = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut line = format!(
        "{{\"ts_us\":{},\"level\":\"{}\",\"target\":\"{}\",\"msg\":\"{}\"",
        ts_us,
        level.as_str(),
        crate::json_escape(target),
        crate::json_escape(msg)
    );
    for (k, v) in fields {
        let rendered = v.to_string();
        if is_bare_number(&rendered) {
            line.push_str(&format!(",\"{}\":{}", crate::json_escape(k), rendered));
        } else {
            line.push_str(&format!(
                ",\"{}\":\"{}\"",
                crate::json_escape(k),
                crate::json_escape(&rendered)
            ));
        }
    }
    line.push('}');
    eprintln!("{line}");
}

/// Emits an event at an explicit [`Level`]; the level macros forward here.
///
/// ```
/// use atspeed_trace::{logev, Level};
/// logev!(Level::Info, "doc.test", "hello"; answer = 42);
/// ```
#[macro_export]
macro_rules! logev {
    ($level:expr, $target:expr, $msg:expr $(; $($key:ident = $value:expr),+ $(,)?)?) => {{
        if $crate::log::enabled($level) {
            $crate::log::log(
                $level,
                $target,
                ::std::convert::AsRef::<str>::as_ref(&$msg),
                &[$($((stringify!($key), &$value as &dyn ::std::fmt::Display)),+)?],
            );
        }
    }};
}

/// Emits an `error`-level structured event.
#[macro_export]
macro_rules! error {
    ($($rest:tt)*) => { $crate::logev!($crate::log::Level::Error, $($rest)*) };
}

/// Emits a `warn`-level structured event.
#[macro_export]
macro_rules! warn {
    ($($rest:tt)*) => { $crate::logev!($crate::log::Level::Warn, $($rest)*) };
}

/// Emits an `info`-level structured event.
#[macro_export]
macro_rules! info {
    ($($rest:tt)*) => { $crate::logev!($crate::log::Level::Info, $($rest)*) };
}

/// Emits a `debug`-level structured event.
#[macro_export]
macro_rules! debug {
    ($($rest:tt)*) => { $crate::logev!($crate::log::Level::Debug, $($rest)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Debug);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::Debug.to_string(), "debug");
    }

    #[test]
    fn bare_number_detection_is_round_trip_exact() {
        assert!(is_bare_number("42"));
        assert!(is_bare_number("-3"));
        assert!(is_bare_number("2.5"));
        assert!(!is_bare_number("007"));
        assert!(!is_bare_number("1e999"));
        assert!(!is_bare_number("s298"));
        assert!(!is_bare_number(""));
        assert!(!is_bare_number("NaN"));
    }

    // The max-level filter is process-global; everything that toggles it
    // lives in this one test to stay harness-order-proof.
    #[test]
    fn filter_and_macros_respect_max_level() {
        assert_eq!(max_level(), Level::Info);
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_max_level(Level::Debug);
        assert!(enabled(Level::Debug));
        let mut evaluated = false;
        crate::debug!("trace.test", "debug on"; flag = {
            evaluated = true;
            1
        });
        assert!(evaluated, "fields evaluate when the level passes");
        set_max_level(Level::Error);
        let mut evaluated = false;
        crate::info!("trace.test", "filtered"; flag = {
            evaluated = true;
            1
        });
        assert!(!evaluated, "fields must not evaluate when filtered");
        set_max_level(Level::Info);
    }

    #[test]
    fn log_accepts_owned_and_borrowed_messages() {
        // Compile-time check of the AsRef coercion in logev!.
        crate::info!("trace.test", "static str");
        crate::info!("trace.test", format!("owned {}", 1));
    }
}
