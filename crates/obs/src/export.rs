//! Exporters: Prometheus-style text and JSON (hand-rolled — the
//! workspace builds offline with no serde), plus a minimal JSON reader
//! used by tests and the bench smoke check to assert sidecars parse.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::trace::{AttrValue, SpanRecord};

/// Prometheus metric names allow `[a-zA-Z0-9_:]`; dots become
/// underscores and everything gets an `exdra_` namespace prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("exdra_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a snapshot as Prometheus exposition text. Histograms export
/// as `<name>_count`/`<name>_sum` counters plus quantile gauges.
pub fn to_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, s) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} summary");
        let _ = writeln!(out, "{n}{{quantile=\"0.5\"}} {}", s.p50);
        let _ = writeln!(out, "{n}{{quantile=\"0.95\"}} {}", s.p95);
        let _ = writeln!(out, "{n}{{quantile=\"0.99\"}} {}", s.p99);
        let _ = writeln!(out, "{n}_count {}", s.count);
        let _ = writeln!(out, "{n}_sum {}", s.sum);
        let _ = writeln!(out, "{n}_max {}", s.max);
    }
    out
}

/// Writes `s` as a JSON string literal (with escaping) into `out`.
pub fn json_escape_into(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` as a JSON number (JSON has no NaN/Inf; those become
/// `0`). Integral values print without a fraction.
pub fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot as a JSON object:
/// `{"counters": {...}, "histograms": {"name": {"count": ..}}}`.
pub fn to_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    for (i, (name, v)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape_into(&mut out, name);
        let _ = write!(out, ":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, s)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape_into(&mut out, name);
        let _ = write!(
            out,
            ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            s.count,
            s.sum,
            s.max,
            json_f64(s.p50),
            json_f64(s.p95),
            json_f64(s.p99)
        );
    }
    out.push_str("}}");
    out
}

/// Writes one span record as a JSON object into `out`:
/// `{"trace_id":..,"span_id":..,"parent_id":..,"kind":"rpc","name":..,
/// "start_unix_nanos":..,"duration_nanos":..,"attrs":{..}}`.
pub fn span_json_into(out: &mut String, rec: &SpanRecord) {
    let _ = write!(
        out,
        "{{\"trace_id\":{},\"span_id\":{},\"parent_id\":{},\"kind\":\"{}\",\"name\":",
        rec.trace_id,
        rec.span_id,
        rec.parent_id,
        rec.kind.name()
    );
    json_escape_into(out, rec.name);
    let _ = write!(
        out,
        ",\"start_unix_nanos\":{},\"duration_nanos\":{},\"attrs\":{{",
        rec.start_unix_nanos, rec.duration_nanos
    );
    for (i, (key, value)) in rec.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape_into(out, key);
        out.push(':');
        match value {
            AttrValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::F64(v) => out.push_str(&json_f64(*v)),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Static(s) => json_escape_into(out, s),
            AttrValue::Str(s) => json_escape_into(out, s),
        }
    }
    out.push_str("}}");
}

/// A parsed JSON value — just enough structure for tests and the bench
/// smoke check to validate sidecars without an external JSON crate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy up to the next quote or backslash. Both are ASCII, so
                // the run ends on a char boundary, and only its own bytes are
                // validated: the parse stays linear in the document.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |i| *pos + i);
                let run = std::str::from_utf8(&b[*pos..end])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut arr = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(arr));
    }
    loop {
        arr.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.add("rpc.calls", 7);
        r.add("worker.0.bytes_sent", 1234);
        for v in [10u64, 100, 1000] {
            r.record("rpc.latency", v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let text = to_prometheus(&sample());
        assert!(text.contains("exdra_rpc_calls 7"));
        assert!(text.contains("exdra_rpc_latency_count 3"));
        assert!(text.contains("exdra_rpc_latency{quantile=\"0.5\"}"));
        // Every non-comment line is "name[{labels}] value".
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            value.parse::<f64>().expect("numeric value");
        }
    }

    #[test]
    fn json_roundtrips_through_own_parser() {
        let text = to_json(&sample());
        let doc = Json::parse(&text).expect("valid json");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("rpc.calls"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("rpc.latency"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn parser_handles_escapes_nesting_and_rejects_garbage() {
        let doc = Json::parse(r#"{"a\n\"b":[1,2.5,-3e2,true,null,{"x":"A"}]}"#).unwrap();
        let arr = doc.get("a\n\"b").unwrap();
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Num(1.0));
                assert_eq!(items[2], Json::Num(-300.0));
                assert_eq!(items[5].get("x").and_then(Json::as_str), Some("A"));
            }
            _ => panic!("expected array"),
        }
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn a_multi_megabyte_document_round_trips() {
        let mut text = String::from("[");
        for i in 0..40_000 {
            if i > 0 {
                text.push(',');
            }
            text.push('{');
            json_escape_into(&mut text, &format!("key {i}"));
            text.push(':');
            json_escape_into(
                &mut text,
                &format!("line {i}\n\"quoted\" é ✓ {}", "x".repeat(40)),
            );
            text.push('}');
        }
        text.push(']');
        assert!(text.len() > 3_000_000, "{} bytes", text.len());
        let Json::Arr(items) = Json::parse(&text).expect("valid json") else {
            panic!("array expected")
        };
        assert_eq!(items.len(), 40_000);
        let last = items[39_999].get("key 39999").and_then(Json::as_str);
        assert_eq!(
            last.map(|s| s.split_once(' ').unwrap().1),
            Some(&format!("39999\n\"quoted\" é ✓ {}", "x".repeat(40))[..])
        );
    }

    #[test]
    fn json_f64_avoids_nan_and_integral_fractions() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(3.0), "3");
        assert_eq!(json_f64(2.5), "2.5");
    }
}
