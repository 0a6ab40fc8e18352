//! A minimal recursive-descent JSON parser (std-only, no dependencies).
//!
//! Exists so the schema checker and the trace tests can *read back* exported
//! traces without pulling in `serde`. It handles the full JSON grammar the
//! exporters produce (objects, arrays, strings with escapes, numbers,
//! booleans, null) and is strict about trailing garbage.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys are kept in a `BTreeMap` — exported
/// traces never rely on duplicate keys, and ordered iteration keeps the
/// checker deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
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

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Object member lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Serialises a [`Value`] back to compact JSON (no whitespace). Object keys
/// come out in `BTreeMap` iteration order, so equal values serialise to
/// byte-identical strings — the property the bench-history NDJSON records
/// rely on for diff-stable, append-only logs.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&crate::export::escape_json(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(map) => {
            out.push('{');
            for (i, (k, val)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&crate::export::escape_json(k));
                out.push_str("\":");
                write_into(val, out);
            }
            out.push('}');
        }
    }
}

/// Writes a finite number: integers (within exact f64 range) without a
/// fractional part, everything else via the shortest-roundtrip `{}` format.
/// Non-finite values have no JSON representation and degrade to `null`.
fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        out.push_str(&format!("{}", n as i64));
    } else {
        out.push_str(&format!("{n}"));
    }
}

/// Parses a complete JSON document. Errors carry a byte offset and a short
/// description.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// `pos` is a byte offset into `input` and always sits on a char boundary:
/// it only ever advances past whole ASCII bytes or whole scalars.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.input[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            self.skip_ws();
            arr.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(arr));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            // `get` also rejects four bytes that end inside
                            // a multi-byte scalar.
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not produced by our
                            // exporters; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or escape in
                    // one go. Both delimiters are ASCII, so they never
                    // match inside a multi-byte scalar and the run ends on
                    // a char boundary.
                    let rest = &self.input[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), Value::Num(42.0));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
        assert!(v.get("d").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Re-validating the rest of the input per character made this
        // quadratic: 4 MB of string payload took hours. Linear is
        // milliseconds, so the test finishing at all is the assertion.
        let chunk = "naïve ∂ρ/∂t = −∇·(ρu) 🚀 ".repeat(4096);
        let doc = format!(
            "[{}]",
            (0..32)
                .map(|i| format!("{{\"k{i}\":\"{chunk}\\n{i}\"}}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(doc.len() >= 4 << 20, "document is {} bytes", doc.len());
        let v = parse(&doc).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items.len(), 32);
        for (i, item) in items.iter().enumerate() {
            let got = item.get(&format!("k{i}")).unwrap().as_str().unwrap();
            assert_eq!(got, format!("{chunk}\n{i}"));
        }
    }

    #[test]
    fn multi_byte_scalars_roundtrip() {
        // 1-, 2-, 3- and 4-byte scalars, next to escapes and delimiters.
        let text = "a é ∇ 🚀\"\\\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}";
        let v = Value::Str(text.to_string());
        let json = write(&v);
        assert_eq!(parse(&json).unwrap(), v);
        assert_eq!(parse("\"é\\u00e9\"").unwrap(), Value::Str("éé".into()));
        // A `\u` escape whose four "digits" end inside a scalar is an
        // error, not a slicing panic.
        assert!(parse("\"\\u000é\"").is_err());
        assert!(parse("\"\\u00é\"").is_err());
        assert!(parse("\"\\u00").is_err());
        assert!(parse("\"é").is_err(), "unterminated after a scalar");
    }

    #[test]
    fn writer_roundtrips_through_parser() {
        let src = r#"{"arr":[1,2.5,true,null,"x\"y"],"num":-3,"obj":{"k":"v"}}"#;
        let v = parse(src).unwrap();
        let out = write(&v);
        assert_eq!(out, src, "compact writer is the parser's inverse");
        assert_eq!(parse(&out).unwrap(), v);
    }

    #[test]
    fn writer_is_deterministic_and_integer_exact() {
        let mut m = std::collections::BTreeMap::new();
        m.insert("z".to_string(), Value::Num(1234567.0));
        m.insert("a".to_string(), Value::Num(0.125));
        let s = write(&Value::Obj(m));
        // BTreeMap order, integers without fraction, exact dyadic float.
        assert_eq!(s, r#"{"a":0.125,"z":1234567}"#);
        assert_eq!(write(&Value::Num(f64::NAN)), "null");
    }

    #[test]
    fn roundtrips_exported_trace() {
        let rec = crate::Recorder::new(8);
        rec.complete_at(crate::Clock::Virtual, "t", 0, 1, 2, 3, 4);
        let s = crate::export::chrome_trace(&rec.take());
        let v = parse(&s).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("t"));
        assert_eq!(events[0].get("dur").unwrap().as_num(), Some(2.0));
    }
}
