//! Dependency-free JSON: a small document model with a writer and parser.
//!
//! The workspace previously relied on optional `serde`/`serde_json`
//! dependencies for persistence; the build environment has no crates.io
//! access, so the experiment binaries and tests use this module instead.
//! It covers the whole JSON grammar except exotic number forms, escapes
//! strings correctly, and writes floats so that integral values keep a
//! trailing `.0` (matching what `serde_json` produced, which the
//! round-trip tests assert on).
//!
//! Conversions for the workspace's own types live here too:
//! [`graph_to_json`] / [`graph_from_json`], [`naming_to_json`] /
//! [`naming_from_json`], and `to_json` helpers for measurement structs.
//!
//! # Example
//!
//! ```rust
//! use netsim::json::Value;
//!
//! let doc = Value::Object(vec![
//!     ("name".into(), Value::from("grid")),
//!     ("n".into(), Value::from(16u64)),
//! ]);
//! let text = doc.to_string();
//! assert_eq!(text, r#"{"name":"grid","n":16}"#);
//! assert_eq!(Value::parse(&text).unwrap(), doc);
//! ```

use std::fmt;

use doubling_metric::graph::{Graph, GraphBuilder};

use crate::naming::Naming;
use crate::route::Route;
use crate::stats::{EvalResult, RecoveryEvalResult, StretchQuantiles};

/// A JSON document: the usual six shapes.
///
/// Objects preserve insertion order (they are association lists, not maps),
/// so emitted documents are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (written without a decimal point). Ids, counters, bit
    /// totals and distances use this form.
    Int(i64),
    /// A non-integral number. Integral `f64`s written through this variant
    /// keep a trailing `.0`, matching what `serde_json` produced.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, as ordered `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Self {
        i64::try_from(x).map(Value::Int).unwrap_or(Value::Num(x as f64))
    }
}

impl From<u32> for Value {
    fn from(x: u32) -> Self {
        Value::Int(x as i64)
    }
}

impl From<usize> for Value {
    fn from(x: usize) -> Self {
        i64::try_from(x).map(Value::Int).unwrap_or(Value::Num(x as f64))
    }
}

impl From<bool> for Value {
    fn from(x: bool) -> Self {
        Value::Bool(x)
    }
}

impl Value {
    /// The value under `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(x) => Some(*x as f64),
            _ => None,
        }
    }

    /// The number as an exact `u64`, if this is a nonnegative integer (or
    /// an integral float within exact range).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(x) => u64::try_from(*x).ok(),
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= 2f64.powi(53) => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses a JSON document (the full input must be one value).
    ///
    /// # Errors
    ///
    /// Returns a message with a byte offset on malformed input.
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Pretty-printed variant of [`fmt::Display`] with two-space indents.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Object(pairs) if !pairs.is_empty() => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(x) => write!(f, "{x}"),
            Value::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Inf; emit null like serde_json's
                    // arbitrary-precision mode refuses to.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => {
                let mut buf = String::new();
                write_escaped(&mut buf, s);
                f.write_str(&buf)
            }
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Value::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    let mut buf = String::new();
                    write_escaped(&mut buf, k);
                    write!(f, "{buf}:{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect(bytes, pos, "null").map(|_| Value::Null),
        Some(b't') => expect(bytes, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|_| Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let val = parse_value(bytes, pos)?;
                pairs.push((key, val));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so this is
                // always on a boundary).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Plain integer forms stay integers; anything with a point or exponent
    // parses as a float, so `1.0` survives a round trip as `1.0`.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    text.parse::<f64>().map(Value::Num).map_err(|_| format!("bad number at byte {start}"))
}

/// Encodes a graph as `{"n": …, "edges": [[u, v, w], …]}`.
pub fn graph_to_json(g: &Graph) -> Value {
    let edges: Vec<Value> =
        g.edges().map(|(u, v, w)| Value::Array(vec![u.into(), v.into(), w.into()])).collect();
    Value::Object(vec![("n".into(), g.node_count().into()), ("edges".into(), Value::Array(edges))])
}

/// Decodes a graph written by [`graph_to_json`].
///
/// # Errors
///
/// Returns a message if the document has the wrong shape or the edges do
/// not form a valid connected graph.
pub fn graph_from_json(v: &Value) -> Result<Graph, String> {
    let n = v.get("n").and_then(Value::as_u64).ok_or("graph JSON missing integral `n`")? as usize;
    let edges =
        v.get("edges").and_then(Value::as_array).ok_or("graph JSON missing `edges` array")?;
    let mut b = GraphBuilder::new(n);
    for e in edges {
        let triple = e.as_array().ok_or("edge is not an array")?;
        if triple.len() != 3 {
            return Err("edge is not a [u, v, w] triple".into());
        }
        let u = triple[0].as_u64().ok_or("edge endpoint is not integral")? as u32;
        let vtx = triple[1].as_u64().ok_or("edge endpoint is not integral")? as u32;
        let w = triple[2].as_u64().ok_or("edge weight is not integral")?;
        b.edge(u, vtx, w).map_err(|e| e.to_string())?;
    }
    b.build().map_err(|e| e.to_string())
}

/// Encodes a naming as `{"names": [name_of(0), name_of(1), …]}`.
pub fn naming_to_json(nm: &Naming) -> Value {
    let names: Vec<Value> = (0..nm.n() as u32).map(|v| nm.name_of(v).into()).collect();
    Value::Object(vec![("names".into(), Value::Array(names))])
}

/// Decodes a naming written by [`naming_to_json`].
///
/// # Errors
///
/// Returns a message if the document has the wrong shape or the names are
/// not a bijection on `0..n`.
pub fn naming_from_json(v: &Value) -> Result<Naming, String> {
    let names =
        v.get("names").and_then(Value::as_array).ok_or("naming JSON missing `names` array")?;
    let name_of: Vec<u32> = names
        .iter()
        .map(|x| x.as_u64().map(|n| n as u32).ok_or("name is not integral"))
        .collect::<Result<_, _>>()?;
    Naming::from_names(name_of).map_err(|e| e.to_string())
}

impl EvalResult {
    /// This result as a JSON object (field names match the struct).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("scheme".into(), self.scheme.into()),
            ("max_stretch".into(), self.max_stretch.into()),
            ("avg_stretch".into(), self.avg_stretch.into()),
            ("routes".into(), self.routes.into()),
            ("failures".into(), self.failures.into()),
            ("max_table_bits".into(), self.max_table_bits.into()),
            ("avg_table_bits".into(), self.avg_table_bits.into()),
            ("max_header_bits".into(), self.max_header_bits.into()),
            ("understretch".into(), self.understretch.into()),
        ])
    }
}

impl StretchQuantiles {
    /// These quantiles as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("p50".into(), self.p50.into()),
            ("p90".into(), self.p90.into()),
            ("p99".into(), self.p99.into()),
            ("max".into(), self.max.into()),
        ])
    }
}

impl RecoveryEvalResult {
    /// This resilient-delivery result as a JSON object (field names match
    /// the struct).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("scheme".into(), self.scheme.into()),
            ("policy".into(), self.policy.as_str().into()),
            ("attempted".into(), self.attempted.into()),
            ("delivered".into(), self.delivered.into()),
            ("delivered_fraction".into(), self.delivered_fraction.into()),
            ("avg_stretch".into(), self.avg_stretch.into()),
            ("max_stretch".into(), self.max_stretch.into()),
            ("recoveries".into(), self.recoveries.into()),
            ("detour_hops".into(), self.detour_hops.into()),
            ("lost_to_node".into(), self.lost_to_node.into()),
            ("lost_to_edge".into(), self.lost_to_edge.into()),
            ("lost_unreachable".into(), self.lost_unreachable.into()),
            ("lost_exhausted".into(), self.lost_exhausted.into()),
            ("lost_other".into(), self.lost_other.into()),
            ("understretch".into(), self.understretch.into()),
        ])
    }
}

impl Route {
    /// This route as a JSON object: endpoints, hops, cost, header bits,
    /// and the segment decomposition.
    pub fn to_json(&self) -> Value {
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("label".into(), s.label.into()),
                    ("level".into(), s.level.map_or(Value::Null, Value::from)),
                    ("cost".into(), s.cost.into()),
                    ("hops".into(), s.hops.into()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("src".into(), self.src.into()),
            ("dst".into(), self.dst.into()),
            ("hops".into(), Value::Array(self.hops.iter().map(|&h| h.into()).collect())),
            ("cost".into(), self.cost.into()),
            ("max_header_bits".into(), self.max_header_bits.into()),
            ("segments".into(), Value::Array(segments)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "3.5", "\"hi \\\"there\\\"\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_string()).unwrap(), v);
        }
    }

    #[test]
    fn integral_floats_keep_point_zero() {
        assert_eq!(Value::Num(1.0).to_string(), "1.0");
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Num(-2.0).to_string(), "-2.0");
    }

    #[test]
    fn nested_roundtrip() {
        let doc = Value::Object(vec![
            ("a".into(), Value::Array(vec![1u64.into(), Value::Null])),
            ("b".into(), Value::Object(vec![("c".into(), true.into())])),
            ("s".into(), "line\nbreak\ttab".into()),
        ]);
        assert_eq!(Value::parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(Value::parse(&doc.to_string_pretty()).unwrap(), doc);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("1 2").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\":}").is_err());
    }
}
