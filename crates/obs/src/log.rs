//! The structured logging facade.
//!
//! A log record is `(level, event, msg, fields)`:
//!
//! * `level` — severity, gated by a global verbosity ([`set_level`]);
//! * `event` — a stable, machine-oriented dotted name (`"oracle.retry"`);
//! * `msg` — the human sentence (may be empty for pure-data events);
//! * `fields` — typed `key=value` pairs ([`FieldValue`]).
//!
//! Two sinks consume records:
//!
//! * the **human sink** prints each message verbatim to stdout
//!   ([`HumanStyle::Plain`], what the CLI and the bench tables use) or
//!   nothing ([`HumanStyle::Off`]);
//! * the **JSONL sink** appends one JSON object per record to a file (or any
//!   writer), so `--log-json` captures everything machine-readably no matter
//!   what the human sink shows.
//!
//! The facade is process-global and cheap when disabled: the level gate is a
//! single relaxed atomic load, and the `obs::info!`-style macros skip all
//! formatting work for suppressed levels.

use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The campaign cannot proceed as requested.
    Error = 0,
    /// Something degraded (lost evaluation, retry exhausted) but the run
    /// continues.
    Warn = 1,
    /// Campaign progress: round/stage completions, summary lines.
    Info = 2,
    /// Per-iteration detail: epochs, retries, explorer moves.
    Debug = 3,
    /// Per-evaluation firehose.
    Trace = 4,
}

impl Level {
    /// Stable lowercase name (`"info"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            3 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

impl std::str::FromStr for Level {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" | "warning" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            other => Err(format!("unknown log level `{other}` (error|warn|info|debug|trace)")),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed field value attached to a log record.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

macro_rules! impl_field_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::$variant(v as $conv)
            }
        }
    )*};
}

impl_field_from! {
    u64 => U64 as u64, u32 => U64 as u64, u16 => U64 as u64, usize => U64 as u64,
    i64 => I64 as i64, i32 => I64 as i64,
    f64 => F64 as f64, f32 => F64 as f64,
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<std::time::Duration> for FieldValue {
    fn from(v: std::time::Duration) -> Self {
        FieldValue::U64(v.as_micros() as u64)
    }
}

/// How the human sink renders records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HumanStyle {
    /// No human output at all (JSONL-only runs).
    Off,
    /// The message verbatim — CLI/bench table output stays byte-compatible.
    Plain,
}

/// Facade configuration applied by [`init`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Maximum level that is emitted.
    pub level: Level,
    /// Human sink style.
    pub human: HumanStyle,
    /// If set, JSONL records are appended to this file.
    pub json_path: Option<PathBuf>,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig { level: Level::Info, human: HumanStyle::Plain, json_path: None }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static HUMAN: AtomicU8 = AtomicU8::new(1); // HumanStyle::Plain

fn json_sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Applies `cfg` to the global facade (level, human style, JSONL file).
///
/// May be called again to reconfigure; the previous JSONL writer (if any) is
/// flushed and replaced.
///
/// # Errors
///
/// Propagates the error if `cfg.json_path` cannot be created.
pub fn init(cfg: LogConfig) -> std::io::Result<()> {
    set_level(cfg.level);
    set_human_style(cfg.human);
    let writer: Option<Box<dyn Write + Send>> = match &cfg.json_path {
        Some(p) => Some(Box::new(std::fs::File::create(p)?)),
        None => None,
    };
    let mut sink = json_sink().lock().expect("log sink poisoned");
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    *sink = writer;
    Ok(())
}

/// Sets the global verbosity.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current global verbosity.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Sets the human sink style.
pub fn set_human_style(style: HumanStyle) {
    let v = match style {
        HumanStyle::Off => 0,
        HumanStyle::Plain => 1,
    };
    HUMAN.store(v, Ordering::Relaxed);
}

fn human_style() -> HumanStyle {
    match HUMAN.load(Ordering::Relaxed) {
        0 => HumanStyle::Off,
        _ => HumanStyle::Plain,
    }
}

/// Replaces the JSONL sink with an arbitrary writer (used by tests to
/// capture records in memory).
pub fn set_json_writer(w: Box<dyn Write + Send>) {
    *json_sink().lock().expect("log sink poisoned") = Some(w);
}

/// Removes the JSONL sink.
pub fn clear_json_writer() {
    *json_sink().lock().expect("log sink poisoned") = None;
}

/// Whether records at `level` are currently emitted. The macros call this
/// before doing any formatting work.
#[inline]
pub fn enabled(level: Level) -> bool {
    (level as u8) <= LEVEL.load(Ordering::Relaxed)
}

/// An in-memory `Write` target sharing its buffer, for capturing JSONL
/// output in tests: `set_json_writer(Box::new(buf.clone()))`.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// An empty shared buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The captured bytes as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("buffer poisoned")).into_owned()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Emits one record to the active sinks. Called by the `obs::info!`-family
/// macros after the [`enabled`] gate; calling it directly bypasses the gate.
pub fn emit(level: Level, event: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    match human_style() {
        HumanStyle::Off => {}
        HumanStyle::Plain => {
            // Message verbatim; fields stay JSONL-only so existing CLI and
            // bench output is unchanged. A record with no message *and*
            // fields is pure data (not for human eyes); one with neither is
            // an intentional blank line (bench table spacing).
            if !msg.is_empty() || fields.is_empty() {
                println!("{msg}");
            }
        }
    }

    let mut sink = json_sink().lock().expect("log sink poisoned");
    if let Some(w) = sink.as_mut() {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let line = format_json_record(ts_ms, level, event, msg, fields);
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

/// Renders one record as a single JSON object (no trailing newline). Pure,
/// so sink escaping is testable without touching global state.
pub fn format_json_record(
    ts_ms: u64,
    level: Level,
    event: &str,
    msg: &str,
    fields: &[(&str, FieldValue)],
) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push_str("\",\"event\":\"");
    escape_json_into(&mut out, event);
    out.push('"');
    if !msg.is_empty() {
        out.push_str(",\"msg\":\"");
        escape_json_into(&mut out, msg);
        out.push('"');
    }
    if !fields.is_empty() {
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(&mut out, k);
            out.push_str("\":");
            match v {
                FieldValue::U64(n) => out.push_str(&n.to_string()),
                FieldValue::I64(n) => out.push_str(&n.to_string()),
                FieldValue::F64(n) => {
                    if n.is_finite() {
                        out.push_str(&n.to_string());
                    } else {
                        // JSON has no NaN/Infinity; stringify like serde_json
                        // would reject — we degrade to null.
                        out.push_str("null");
                    }
                }
                FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                FieldValue::Str(s) => {
                    out.push('"');
                    escape_json_into(&mut out, s);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// JSON string escaping per RFC 8259: quotes, backslashes, and control
/// characters (`\uXXXX` for the ones without short forms).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parsing() {
        assert!(Level::Error < Level::Trace);
        assert_eq!("warn".parse::<Level>().unwrap(), Level::Warn);
        assert_eq!("TRACE".parse::<Level>().unwrap(), Level::Trace);
        assert!("loud".parse::<Level>().is_err());
    }

    #[test]
    fn json_record_is_wellformed_and_ordered() {
        let line = format_json_record(
            1234,
            Level::Info,
            "rounds.round",
            "round 1 done",
            &[
                ("round", FieldValue::U64(1)),
                ("speedup", FieldValue::F64(1.5)),
                ("kernel", FieldValue::Str("gemm".into())),
                ("lost", FieldValue::Bool(false)),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_ms\":1234,\"level\":\"info\",\"event\":\"rounds.round\",\
             \"msg\":\"round 1 done\",\"fields\":{\"round\":1,\"speedup\":1.5,\
             \"kernel\":\"gemm\",\"lost\":false}}"
        );
    }

    #[test]
    fn json_sink_escapes_special_characters() {
        let line = format_json_record(
            0,
            Level::Error,
            "oracle.failure",
            "tool said \"segfault\"\nat C:\\hls\tcore",
            &[("detail", FieldValue::Str("ctrl:\u{01}\u{1f} bell:\u{07}".into()))],
        );
        // The record must parse back as one JSON object with the original
        // content intact.
        let v: serde::Value = serde_json::from_str(&line).expect("escaped record parses");
        let map = v.as_map().unwrap();
        let msg = map.iter().find(|(k, _)| k == "msg").unwrap().1.as_str().unwrap();
        assert_eq!(msg, "tool said \"segfault\"\nat C:\\hls\tcore");
        let fields = map.iter().find(|(k, _)| k == "fields").unwrap().1.as_map().unwrap();
        assert_eq!(fields[0].1.as_str().unwrap(), "ctrl:\u{01}\u{1f} bell:\u{07}");
        // And the raw line must not contain unescaped control bytes.
        assert!(!line.bytes().any(|b| b < 0x20), "raw control byte leaked: {line}");
    }

    #[test]
    fn trace_fields_escape_into_parseable_jsonl() {
        // Trace ids logged by the serving tier come off the wire; a
        // hostile or buggy client can put anything in them, and the slow-
        // request dump quotes span timelines wholesale. None of it may
        // break the JSONL sink.
        let hostile = "dead\"beef\\\u{00}\n{evil}";
        let line = format_json_record(
            42,
            Level::Warn,
            "serve.trace.slow",
            "request exceeded threshold",
            &[
                ("trace_id", FieldValue::Str(hostile.into())),
                ("timeline", FieldValue::Str("ingress@+0us/12us write@+90us/3us".into())),
                ("total_us", FieldValue::U64(93)),
            ],
        );
        let v: serde::Value = serde_json::from_str(&line).expect("trace record parses");
        let map = v.as_map().unwrap();
        let fields = map.iter().find(|(k, _)| k == "fields").unwrap().1.as_map().unwrap();
        let tid = fields.iter().find(|(k, _)| k == "trace_id").unwrap().1.as_str().unwrap();
        assert_eq!(tid, hostile, "trace id survives the round trip byte-for-byte");
        assert!(!line.bytes().any(|b| b < 0x20), "raw control byte leaked: {line}");
        assert_eq!(line.lines().count(), 1, "one record stays one JSONL line");
    }

    #[test]
    fn nonfinite_floats_degrade_to_null() {
        let line =
            format_json_record(0, Level::Info, "x", "", &[("v", FieldValue::F64(f64::NAN))]);
        assert!(line.contains("\"v\":null"), "{line}");
        assert!(serde_json::from_str::<serde::Value>(&line).is_ok());
    }

    #[test]
    fn empty_msg_and_fields_are_omitted() {
        let line = format_json_record(7, Level::Debug, "tick", "", &[]);
        assert_eq!(line, "{\"ts_ms\":7,\"level\":\"debug\",\"event\":\"tick\"}");
    }

    #[test]
    fn shared_buffer_captures_jsonl_records() {
        // This test owns the global sink: it is the only obs-crate test that
        // touches it, so parallel test threads cannot interleave.
        let buf = SharedBuffer::new();
        set_json_writer(Box::new(buf.clone()));
        set_level(Level::Debug);
        set_human_style(HumanStyle::Off);
        crate::info!("test.event", "hello {}", "world"; n = 3u64);
        crate::debug!("test.quiet");
        crate::trace!("test.suppressed"); // above the level: dropped
        clear_json_writer();
        set_level(Level::Info);
        set_human_style(HumanStyle::Plain);

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("\"event\":\"test.event\""));
        assert!(lines[0].contains("\"msg\":\"hello world\""));
        assert!(lines[0].contains("\"n\":3"));
        assert!(lines[1].contains("\"event\":\"test.quiet\""));
    }
}
