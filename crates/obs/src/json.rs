//! Minimal JSON helpers: escaping, number formatting, and a parser for the
//! flat (non-nested) objects this crate emits.
//!
//! Hand-rolled because the workspace is offline and dependency-free; the
//! subset is exactly what the metrics/trace/progress serializers need —
//! objects whose values are strings, finite numbers, booleans or null.

use std::fmt::Write as _;

/// Escapes `s` for inclusion in a JSON string literal (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
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
    out
}

/// Formats an `f64` as a JSON number. JSON has no representation for
/// non-finite values; they are clamped to `0` (the serializers never produce
/// them, this is a guard, not a feature).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A scalar value in a flat JSON object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    Num(f64),
    Str(String),
    Bool(bool),
    Null,
}

impl Scalar {
    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64`, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Scalar::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a `bool`, if boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Scalar::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one flat JSON object (`{"key": value, ...}` with scalar values)
/// into its `(key, value)` pairs in source order. Nested objects/arrays are
/// rejected — the crate's own serializers never emit them inside a line.
pub fn parse_flat_object(s: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut p = Parser {
        chars: s.char_indices().peekable(),
        src: s,
    };
    p.skip_ws();
    p.expect_char('{')?;
    let mut pairs = Vec::new();
    p.skip_ws();
    if p.eat('}') {
        p.skip_ws();
        return p.finish(pairs);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect_char(':')?;
        p.skip_ws();
        let value = p.parse_scalar()?;
        pairs.push((key, value));
        p.skip_ws();
        if p.eat(',') {
            continue;
        }
        p.expect_char('}')?;
        p.skip_ws();
        return p.finish(pairs);
    }
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn eat(&mut self, want: char) -> bool {
        if matches!(self.chars.peek(), Some((_, c)) if *c == want) {
            self.chars.next();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((i, c)) => Err(format!("expected {want:?} at byte {i}, found {c:?}")),
            None => Err(format!("expected {want:?}, found end of input")),
        }
    }

    fn finish(&mut self, pairs: Vec<(String, Scalar)>) -> Result<Vec<(String, Scalar)>, String> {
        match self.chars.next() {
            None => Ok(pairs),
            Some((i, c)) => Err(format!("trailing {c:?} at byte {i}")),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'b')) => out.push('\u{0008}'),
                    Some((_, 'f')) => out.push('\u{000c}'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let (i, c) = self
                                .chars
                                .next()
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let digit = c
                                .to_digit(16)
                                .ok_or_else(|| format!("bad \\u digit {c:?} at byte {i}"))?;
                            code = code * 16 + digit;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((i, c)) => return Err(format!("bad escape \\{c} at byte {i}")),
                    None => return Err("truncated escape".to_string()),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_scalar(&mut self) -> Result<Scalar, String> {
        match self.chars.peek() {
            Some((_, '"')) => Ok(Scalar::Str(self.parse_string()?)),
            Some((_, 't')) => self.parse_keyword("true", Scalar::Bool(true)),
            Some((_, 'f')) => self.parse_keyword("false", Scalar::Bool(false)),
            Some((_, 'n')) => self.parse_keyword("null", Scalar::Null),
            Some((start, c)) if *c == '-' || c.is_ascii_digit() => {
                let start = *start;
                let mut end = start;
                while let Some((i, c)) = self.chars.peek() {
                    if matches!(c, '-' | '+' | '.' | 'e' | 'E') || c.is_ascii_digit() {
                        end = i + c.len_utf8();
                        self.chars.next();
                    } else {
                        break;
                    }
                }
                let text = &self.src[start..end];
                text.parse::<f64>()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number {text:?}"))
            }
            Some((i, c)) => Err(format!(
                "unexpected {c:?} at byte {i} (nested values are not supported)"
            )),
            None => Err("expected a value, found end of input".to_string()),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Scalar) -> Result<Scalar, String> {
        for want in word.chars() {
            match self.chars.next() {
                Some((_, c)) if c == want => {}
                _ => return Err(format!("malformed keyword (expected {word:?})")),
            }
        }
        Ok(value)
    }
}

/// Looks up `key` in parsed pairs.
pub fn field<'a>(pairs: &'a [(String, Scalar)], key: &str) -> Option<&'a Scalar> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Numeric field lookup with a descriptive error.
pub fn num_field(pairs: &[(String, Scalar)], key: &str) -> Result<f64, String> {
    field(pairs, key)
        .and_then(Scalar::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// Integer field lookup with a descriptive error.
pub fn uint_field(pairs: &[(String, Scalar)], key: &str) -> Result<u64, String> {
    field(pairs, key)
        .and_then(Scalar::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_controls_and_quotes() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{01}"), "\\u0001");
    }

    #[test]
    fn fmt_f64_round_trips_and_guards_nonfinite() {
        for v in [0.0, 1.5, -2.25, 1e-9, 12345678.0] {
            assert_eq!(fmt_f64(v).parse::<f64>().unwrap(), v);
        }
        assert_eq!(fmt_f64(f64::NAN), "0");
        assert_eq!(fmt_f64(f64::INFINITY), "0");
    }

    #[test]
    fn parse_flat_object_handles_all_scalars() {
        let pairs = parse_flat_object(
            r#"{"a": 1.5, "b": "x\ny", "c": true, "d": null, "e": -3, "f": 1e3}"#,
        )
        .unwrap();
        assert_eq!(num_field(&pairs, "a").unwrap(), 1.5);
        assert_eq!(field(&pairs, "b"), Some(&Scalar::Str("x\ny".into())));
        assert_eq!(field(&pairs, "c").unwrap().as_bool(), Some(true));
        assert_eq!(field(&pairs, "d"), Some(&Scalar::Null));
        assert_eq!(num_field(&pairs, "e").unwrap(), -3.0);
        assert_eq!(uint_field(&pairs, "f").unwrap(), 1000);
    }

    #[test]
    fn parse_rejects_nesting_and_garbage() {
        assert!(parse_flat_object(r#"{"a": {"b": 1}}"#).is_err());
        assert!(parse_flat_object(r#"{"a": [1]}"#).is_err());
        assert!(parse_flat_object(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_flat_object(r#"{"a" 1}"#).is_err());
        assert!(parse_flat_object(r#"{"a": 1"#).is_err());
        assert!(parse_flat_object("").is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert_eq!(parse_flat_object("  {}  ").unwrap(), vec![]);
    }

    #[test]
    fn unicode_escapes_decode() {
        let pairs = parse_flat_object(r#"{"k": "Aé"}"#).unwrap();
        assert_eq!(field(&pairs, "k"), Some(&Scalar::Str("Aé".into())));
    }
}
