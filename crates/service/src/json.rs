//! Minimal JSON value type, parser, and writer.
//!
//! The wire protocol is one JSON object per line (`docs/SERVICE.md`) and
//! the workspace's `serde` is an offline marker shim with no format
//! crates behind it, so the service carries its own ~300-line JSON
//! implementation. Scope: full RFC 8259 parsing (including `\uXXXX`
//! escapes and surrogate pairs) minus one deliberate restriction —
//! numbers are `f64`, like JavaScript. Writing is deterministic: object
//! members keep insertion order and number formatting is Rust's shortest
//! round-trip `f64` display (integers within `2^53` print without a
//! fractional part), which the loopback test relies on when comparing
//! served bytes against locally rendered batch answers.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always an `f64`, as in JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved and duplicate keys are
    /// rejected by the parser.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer (rejects fractions,
    /// negatives, and values above 2^53).
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0 {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Single-line JSON serialization — `json.to_string()` is the wire form.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        // JSON has no Infinity/NaN; null is the conventional downgrade.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
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

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, and a stack overflow aborts the process —
/// `catch_unwind` cannot contain it — so the depth is bounded here, far
/// above the four levels the protocol nests. It bounds [`Json`]'s
/// recursive drop as well.
pub const MAX_DEPTH: usize = 32;

/// Parse one JSON document, requiring it to span the whole input (modulo
/// surrounding whitespace).
pub fn parse(input: &str) -> Result<Json, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// `depth` counts the arrays and objects already open around this value.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nested deeper than {MAX_DEPTH} levels at offset {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_obj(s, pos, depth + 1),
        Some(b'[') => parse_arr(s, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_str(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at offset {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    // The scanned range is ASCII digits/signs by construction, but a
    // long-lived server never panics on a parse path.
    let text = std::str::from_utf8(&b[start..*pos])
        .map_err(|_| format!("bad number bytes at offset {start}"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}` at offset {start}"))
}

/// Linear in the string's length: the bytes between two delimiters (a
/// quote, a backslash, a control byte — all ASCII) are copied in one
/// piece. `s` is already valid UTF-8 and a run bounded by ASCII bytes
/// starts and ends on char boundaries, so nothing is validated again.
fn parse_str(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = b[*pos..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .ok_or("unterminated string")?;
        out.push_str(s.get(*pos..*pos + run).ok_or("invalid UTF-8")?);
        *pos += run;
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                out.push(parse_escape(b, pos)?);
            }
            _ => return Err("raw control character in string".into()),
        }
    }
}

/// The scalar an escape sequence stands for; `pos` is just past the
/// backslash.
fn parse_escape(b: &[u8], pos: &mut usize) -> Result<char, String> {
    let esc = *b.get(*pos).ok_or("unterminated escape")?;
    *pos += 1;
    Ok(match esc {
        b'"' => '"',
        b'\\' => '\\',
        b'/' => '/',
        b'b' => '\u{8}',
        b'f' => '\u{c}',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' => {
            let hi = parse_hex4(b, pos)?;
            if (0xD800..0xDC00).contains(&hi) {
                // Surrogate pair: require \uXXXX low half.
                if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                    return Err("lone high surrogate".into());
                }
                *pos += 2;
                let lo = parse_hex4(b, pos)?;
                if !(0xDC00..0xE000).contains(&lo) {
                    return Err("bad low surrogate".into());
                }
                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                char::from_u32(code).ok_or("bad surrogate pair")?
            } else {
                char::from_u32(hi).ok_or("bad \\u escape")?
            }
        }
        other => return Err(format!("bad escape \\{}", other as char)),
    })
}

fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b
        .get(*pos..*pos + 4)
        .ok_or("truncated \\u escape")
        .and_then(|s| std::str::from_utf8(s).map_err(|_| "bad \\u escape"))
        .map_err(String::from)?;
    *pos += 4;
    u32::from_str_radix(hex, 16).map_err(|_| format!("bad hex `{hex}`"))
}

fn parse_arr(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let b = s.as_bytes();
    *pos += 1; // consume '{'
    let mut members: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_str(s, pos)?;
        if members.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key `{key}`"));
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(s, pos, depth)?;
        members.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}", pos = *pos)),
        }
    }
}

/// Shorthand for building an object literal in rendering code.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        for text in [
            "null",
            "true",
            "false",
            "0",
            "-3.25",
            "1e3",
            r#""hello""#,
            r#""tabs\tand \"quotes\"""#,
            "[]",
            "[1,2,[3]]",
            "{}",
            r#"{"a":1,"b":[true,null],"c":{"d":"e"}}"#,
        ] {
            let v = parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let rendered = v.to_string();
            assert_eq!(parse(&rendered).unwrap(), v, "{text} -> {rendered}");
        }
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(5.0).to_string(), "5");
        assert_eq!(Json::Num(5.5).to_string(), "5.5");
        assert_eq!(Json::Num(-0.0).to_string(), "0");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone surrogate");
        // Raw multi-byte UTF-8 passes through.
        let v = parse("\"caf\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("caf\u{e9}"));
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":1,"a":2}"#,
            "tru",
            "1 2",
            "\"\u{1}\"",
            r#""\x""#,
        ] {
            assert!(parse(text).is_err(), "{text:?} should fail");
        }
    }

    /// `parse_str` as it was before it copied runs: one scalar per
    /// iteration, and one UTF-8 validation of the whole remainder for
    /// each, which is what made it quadratic. Kept as the oracle of the
    /// differential test below.
    fn parse_str_per_scalar(b: &[u8], pos: &mut usize) -> Result<String, String> {
        *pos += 1;
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
                    let esc = *b.get(*pos).ok_or("unterminated escape")?;
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = parse_hex4(b, pos)?;
                            let ch = if (0xD800..0xDC00).contains(&hi) {
                                if b.get(*pos) != Some(&b'\\') || b.get(*pos + 1) != Some(&b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                *pos += 2;
                                let lo = parse_hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("bad escape")?
                            };
                            out.push(ch);
                        }
                        other => return Err(format!("bad escape {}", other as char)),
                    }
                }
                Some(&c) if c < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                    let Some(ch) = s.chars().next() else {
                        return Err("truncated string".into());
                    };
                    out.push(ch);
                    *pos += ch.len_utf8();
                }
            }
        }
    }

    /// xorshift64: the generated cases repeat exactly from run to run.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// What a string body can be made of, well-formed and not.
    fn pieces() -> Vec<String> {
        let bs = '\\';
        let u = |hex: &str| format!("{bs}u{hex}");
        let mut p: Vec<String> = Vec::new();
        // ASCII, then 2-, 3- and 4-byte scalars, raw.
        for raw in [
            "a",
            "plain ascii run ",
            "~",
            "\u{7f}",
            "\u{e9}",
            "\u{df}\u{f1}",
        ] {
            p.push(raw.into());
        }
        for raw in ["\u{20ac}", "\u{4e2d}\u{6587}", "\u{1F600}", "\u{10FFFF}"] {
            p.push(raw.into());
        }
        // Every two-character escape, and one that is not one.
        for e in ['"', '\\', '/', 'b', 'f', 'n', 'r', 't', 'x'] {
            p.push(format!("{bs}{e}"));
        }
        // Hex escapes: scalars, pairs, then lone, reversed, doubled,
        // interrupted and truncated surrogates and digits.
        for hex in ["0041", "00e9", "20AC", "ffff", "0000", "001f"] {
            p.push(u(hex));
        }
        p.push(u("d83d") + &u("de00"));
        p.push(u("dbff") + &u("dfff"));
        p.push(u("d83d"));
        p.push(u("d83d") + "x");
        p.push(u("d83d") + &format!("{bs}n"));
        p.push(u("de00"));
        p.push(u("de00") + &u("d83d"));
        p.push(u("d83d") + &u("d83d"));
        p.push(u("d83d") + &u("00"));
        for hex in ["", "1", "12", "123", "12g4", "\u{e9}123"] {
            p.push(u(hex));
        }
        p.push(bs.into());
        // Raw control bytes and a raw quote.
        for raw in ["\u{0}", "\u{1}", "\t", "\n", "\u{1f}", "\""] {
            p.push(raw.into());
        }
        p
    }

    #[test]
    fn run_copying_parse_agrees_with_the_per_scalar_loop() {
        let pieces = pieces();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for case in 0..800 {
            let mut text = String::from("\"");
            // Each piece alone first, then random sequences of them.
            if case < pieces.len() {
                text.push_str(&pieces[case]);
            } else {
                for _ in 0..rng.below(9) {
                    text.push_str(&pieces[rng.below(pieces.len())]);
                }
            }
            text.push_str(["\"", "\",", "\" tail"][rng.below(3)]);
            // The whole input, and the input cut at every char boundary.
            let cuts = text.char_indices().map(|(i, _)| i).skip(1);
            for end in cuts.chain([text.len()]) {
                let input = &text[..end];
                let (mut new_pos, mut old_pos) = (0, 0);
                let new = parse_str(input, &mut new_pos);
                let old = parse_str_per_scalar(input.as_bytes(), &mut old_pos);
                assert_eq!(new.as_ref().ok(), old.as_ref().ok(), "{input:?}");
                if new.is_ok() {
                    assert_eq!(new_pos, old_pos, "{input:?}");
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(accepted > 500 && rejected > 500, "{accepted} / {rejected}");
    }

    fn tree(rng: &mut Rng, depth: usize) -> Json {
        let text = |rng: &mut Rng| {
            let raw = [
                "a",
                " ",
                "\"",
                "\\",
                "/",
                "\n",
                "\u{0}",
                "\u{1f}",
                "\u{e9}",
                "\u{20ac}",
                "\u{1F600}",
                "x y z",
            ];
            let n = rng.below(6);
            (0..n)
                .map(|_| raw[rng.below(raw.len())])
                .collect::<String>()
        };
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.below(2) == 0),
            2 => Json::Num(match rng.below(4) {
                0 => rng.below(1000) as f64,
                1 => -(rng.below(1 << 20) as f64) / 64.0,
                2 => rng.below(1 << 30) as f64 * 1e-12,
                _ => rng.below(1 << 30) as f64 * 1e290,
            }),
            3 => Json::Str(text(rng)),
            4 => {
                let n = rng.below(4);
                Json::Arr((0..n).map(|_| tree(rng, depth - 1)).collect())
            }
            _ => {
                let n = rng.below(4);
                // The index keeps the keys distinct: duplicates are rejected.
                let member = |i| (format!("{i}{}", text(rng)), tree(rng, depth - 1));
                Json::Obj((0..n).map(member).collect())
            }
        }
    }

    #[test]
    fn generated_trees_round_trip_through_their_wire_form() {
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        for _ in 0..400 {
            let v = tree(&mut rng, 4);
            let line = v.to_string();
            assert_eq!(parse(&line), Ok(v), "{line}");
        }
    }

    /// Complexity guard: a 1 MiB field (a quarter of the default
    /// `max_request_bytes`) must not hold a connection thread for
    /// seconds. Linear, this is tens of milliseconds in a debug build;
    /// validating the remainder once per character made it 16 s in a
    /// release build.
    #[test]
    fn a_one_mebibyte_ingest_line_parses_in_linear_time() {
        let unit = "fifty bytes of ordinary text, caf\u{e9} and \\\"quotes\\\"; ";
        let field = unit.repeat((1 << 20) / unit.len() + 1);
        let line = format!(r#"{{"cmd":"ingest","fields":["{field}"]}}"#);
        let t0 = std::time::Instant::now();
        let parsed = crate::protocol::parse_request(&line);
        let took = t0.elapsed();
        let Ok(crate::protocol::Request::Ingest(rows)) = parsed else {
            panic!("not an ingest: {parsed:?}");
        };
        assert_eq!(rows.len(), 1);
        let want = unit.replace('\\', "");
        assert!(rows[0].0[0].starts_with(&want), "{:?}", &rows[0].0[0][..80]);
        assert_eq!(
            rows[0].0[0].len(),
            want.len() * ((1 << 20) / unit.len() + 1)
        );
        assert!(took < std::time::Duration::from_secs(1), "{took:?}");
    }

    /// Nesting is accepted up to [`MAX_DEPTH`] and refused one level
    /// past it, before the recursion that would otherwise run once per
    /// bracket: 20 000 of them overflowed the connection thread's stack
    /// and aborted the server.
    #[test]
    fn nesting_is_bounded() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), (r#"{"a":"#, "}")] {
            assert!(parse(&nested(open, close, MAX_DEPTH)).is_ok());
            let err = parse(&nested(open, close, MAX_DEPTH + 1)).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
            // Unclosed, as an attacker would send it.
            let err = parse(&open.repeat(20_000)).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
        }
        // Depth, not the number of containers: siblings do not add up.
        let wide = format!("[{}]", vec!["[[1]]"; 1000].join(","));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"k":3,"name":"x","flag":true,"items":[1]}"#).unwrap();
        assert_eq!(v.get("k").and_then(Json::as_usize), Some(3));
        assert_eq!(v.get("name").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("items").and_then(Json::as_arr).map(|a| a.len()),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(1.5).as_usize(), None);
        assert_eq!(Json::Num(-1.0).as_usize(), None);
    }
}
