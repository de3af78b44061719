//! Schema validation for the telemetry export.
//!
//! The workspace is hermetic (no serde), so this module carries a small
//! recursive-descent JSON parser plus a checker that enforces the
//! schema documented in [`crate::export`]. The repro experiments call
//! [`validate_telemetry_json`] on everything they write, and the
//! `scripts/verify.sh` telemetry smoke relies on that self-check
//! failing loudly if the export ever drifts from the documentation.

use std::collections::BTreeMap;

use crate::export::SCHEMA_VERSION;
use crate::metrics::{Counter, HISTOGRAM_BUCKETS};
use crate::recorder::EventKind;

/// A parsed JSON value (numbers are kept as `f64`; the telemetry
/// schema only uses unsigned integers, which `f64` holds exactly up to
/// 2⁵³ — far beyond any counter here).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (key order normalised).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Arr(_) => "array",
            Value::Obj(_) => "object",
        }
    }

    /// The object's field `key`, when this is an object that has it.
    fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, when this is a number.
    fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, when this is a string.
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        _ => return Err(self.err("unsupported escape")),
                    }
                }
                Some(b) if b >= 0x20 => {
                    // Copy the full UTF-8 scalar starting here.
                    let start = self.pos;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let chunk = self.bytes.get(start..end).unwrap_or_default();
                    s.push_str(std::str::from_utf8(chunk).map_err(|_| self.err("bad utf-8"))?);
                    self.pos = end;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or_default())
            .map_err(|_| self.err("bad number bytes"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one JSON document (trailing whitespace allowed, nothing else).
fn parse_json(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

fn require_u64(v: &Value, path: &str) -> Result<u64, String> {
    let n = v
        .as_num()
        .ok_or_else(|| format!("{path}: expected a number, got {}", v.type_name()))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{path}: expected an unsigned integer, got {n}"));
    }
    Ok(n as u64)
}

fn require_histogram(v: &Value, path: &str) -> Result<(), String> {
    for key in ["count", "sum", "mean", "max"] {
        let field = v
            .get(key)
            .ok_or_else(|| format!("{path}: missing `{key}`"))?;
        require_u64(field, &format!("{path}.{key}"))?;
    }
    let buckets = v
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing `buckets` array"))?;
    if buckets.len() != HISTOGRAM_BUCKETS {
        return Err(format!(
            "{path}.buckets: expected {HISTOGRAM_BUCKETS} buckets, got {}",
            buckets.len()
        ));
    }
    for (i, b) in buckets.iter().enumerate() {
        require_u64(b, &format!("{path}.buckets[{i}]"))?;
    }
    Ok(())
}

/// Validate one telemetry export against the documented schema
/// (version, all counters present and integral, phase/histogram
/// shapes, worker rows, event rows with known kinds). Returns the
/// first violation found.
pub fn validate_telemetry_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let version = doc
        .get("schema_version")
        .ok_or("missing `schema_version`")?;
    if require_u64(version, "schema_version")? != SCHEMA_VERSION {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    let counters = doc.get("counters").ok_or("missing `counters` object")?;
    for c in Counter::ALL {
        let v = counters
            .get(c.name())
            .ok_or_else(|| format!("counters: missing `{}`", c.name()))?;
        require_u64(v, &format!("counters.{}", c.name()))?;
    }
    let phases = doc
        .get("phases")
        .and_then(Value::as_arr)
        .ok_or("missing `phases` array")?;
    for (i, p) in phases.iter().enumerate() {
        let path = format!("phases[{i}]");
        p.get("phase")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: missing `phase` string"))?;
        for key in ["count", "sum_ns", "mean_ns", "max_ns"] {
            let field = p
                .get(key)
                .ok_or_else(|| format!("{path}: missing `{key}`"))?;
            require_u64(field, &format!("{path}.{key}"))?;
        }
        let buckets = p
            .get("buckets")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{path}: missing `buckets`"))?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            return Err(format!("{path}.buckets: wrong length {}", buckets.len()));
        }
    }
    require_histogram(
        doc.get("dirty_pages").ok_or("missing `dirty_pages`")?,
        "dirty_pages",
    )?;
    require_histogram(doc.get("audit_ns").ok_or("missing `audit_ns`")?, "audit_ns")?;
    let workers = doc
        .get("workers")
        .and_then(Value::as_arr)
        .ok_or("missing `workers` array")?;
    for (i, w) in workers.iter().enumerate() {
        for key in ["slot", "pages", "bytes", "syscalls"] {
            let field = w
                .get(key)
                .ok_or_else(|| format!("workers[{i}]: missing `{key}`"))?;
            require_u64(field, &format!("workers[{i}].{key}"))?;
        }
    }
    let events = doc
        .get("events")
        .and_then(Value::as_arr)
        .ok_or("missing `events` array")?;
    for (i, e) in events.iter().enumerate() {
        let path = format!("events[{i}]");
        for key in ["epoch", "at_ns"] {
            let field = e
                .get(key)
                .ok_or_else(|| format!("{path}: missing `{key}`"))?;
            require_u64(field, &format!("{path}.{key}"))?;
        }
        let kind = e
            .get("kind")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: missing `kind` string"))?;
        if !EventKind::ALL.iter().any(|k| k.label() == kind) {
            return Err(format!("{path}: unknown event kind `{kind}`"));
        }
        if let Some(arg) = e.get("arg") {
            require_u64(arg, &format!("{path}.arg"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::telemetry_json;
    use crate::metrics::Telemetry;
    use crate::recorder::Event;

    #[test]
    fn real_exports_validate() {
        let mut t = Telemetry::new(&["suspend", "scan", "copy", "digest", "resume"]);
        t.add(Counter::EpochsCommitted, 3);
        t.record_phase_ns(2, 42);
        t.record_dirty_pages(9);
        t.record_audit_ns(77);
        t.record_worker(3, 9, 9 * 4096, 2);
        let r = [
            Event { epoch: 1, at_ns: 5, kind: EventKind::EpochStart },
            Event { epoch: 1, at_ns: 9, kind: EventKind::Extended { consecutive: 1 } },
        ];
        t.add(Counter::DrainHeadStartPages, 7);
        t.add(Counter::DrainCipherLentBytes, 5);
        t.add(Counter::WalkShardsTakenBack, 3);
        t.add(Counter::StartupDigestLentPages, 11);
        t.add(Counter::SymbolParses, 1);
        let json = telemetry_json(&t, r);
        validate_telemetry_json(&json).expect("export matches its own schema");
        // Every counter is part of the schema, the newest included: an
        // export from before it existed does not validate.
        let newest = [
            ("drain_head_start_pages", 7),
            ("drain_cipher_lent_bytes", 5),
            ("walk_shards_taken_back", 3),
            ("startup_digest_lent_pages", 11),
            ("symbol_parses", 1),
        ];
        for (name, value) in newest {
            let field = format!("\"{name}\":{value}");
            assert!(json.contains(&field), "{json}");
            let older = json.replace(&field, &format!("\"{name}_v0\":{value}"));
            let err = validate_telemetry_json(&older).expect_err("a counter is missing");
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn empty_bundle_still_validates() {
        let json = telemetry_json(&Telemetry::default(), []);
        validate_telemetry_json(&json).expect("empty export validates");
    }

    #[test]
    fn violations_are_reported_with_a_path() {
        let err = validate_telemetry_json("{}").expect_err("empty object");
        assert!(err.contains("schema_version"), "{err}");
        let err = validate_telemetry_json("{\"schema_version\":1}").expect_err("no counters");
        assert!(err.contains("counters"), "{err}");
        let err = validate_telemetry_json("not json").expect_err("garbage");
        assert!(err.contains("parse error"), "{err}");
    }

    #[test]
    fn parser_handles_nesting_strings_and_numbers() {
        let v = parse_json("{\"a\":[1,2.5,{\"b\":\"x\\ny\"}],\"c\":true,\"d\":null}")
            .expect("valid json");
        assert_eq!(v.get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("d"), Some(&Value::Null));
        let arr = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(2.5));
        assert_eq!(arr[2].get("b").and_then(Value::as_str), Some("x\ny"));
        assert!(parse_json("[1,2] trailing").is_err());
        assert!(parse_json("{\"unterminated").is_err());
    }
}
