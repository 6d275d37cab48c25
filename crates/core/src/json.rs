//! The repo's one JSON reader (no serde in the offline build): enough
//! of RFC 8259 for the documents Mesh itself writes — report envelopes,
//! `mesh-top --json` frames, bench baselines. Reader only; the documents
//! are written from the field tables of `telemetry::fields`.
//!
//! Malformed input is an `Err`, never a panic: `mesh-top` feeds this
//! bytes that arrived over a socket.

/// A parsed JSON value. Objects keep their fields in document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the envelopes' integers fit `f64` exactly below 2^53).
    Num(f64),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.pos));
        }
        Ok(value)
    }

    /// The named field of an object (`None` on other values).
    pub fn field(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The items of an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields of an object, in document order.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value of a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The contents of a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of document".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8: the input is a `&str`, so the lead
                    // byte's high ones give the sequence length.
                    let width = b.leading_ones() as usize;
                    let seq = self
                        .bytes
                        .get(self.pos..self.pos + width)
                        .and_then(|s| std::str::from_utf8(s).ok())
                        .ok_or_else(|| format!("bad UTF-8 at {}", self.pos))?;
                    out.push_str(seq);
                    self.pos += width;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Parses `open item (, item)* close` with `item` reading one element.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or {:?} at {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.sequence(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.sequence(b'{', b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.expect(b':')?;
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_envelope_shapes() {
        let v = Json::parse(
            r#"{"v":1,"classes":[{"object_size":16,"bins":[1,2,0,3]}],
               "name":"psi \"x\" é \u00e9","flag":true,"none":null,"f":-2.5e1,
               "ts":1234.567,"empty":{},"list":[]}"#,
        )
        .unwrap();
        assert_eq!(v.field("v").and_then(Json::as_f64), Some(1.0));
        let classes = v.field("classes").unwrap().as_array().unwrap();
        assert_eq!(
            classes[0].field("object_size").and_then(Json::as_f64),
            Some(16.0)
        );
        assert_eq!(
            classes[0].field("bins").unwrap().as_array().unwrap().len(),
            4
        );
        assert_eq!(
            v.field("name").and_then(Json::as_str),
            Some("psi \"x\" é é")
        );
        assert_eq!(v.field("flag"), Some(&Json::Bool(true)));
        assert_eq!(v.field("none"), Some(&Json::Null));
        assert_eq!(v.field("f").and_then(Json::as_f64), Some(-25.0));
        assert_eq!(v.field("ts").and_then(Json::as_f64), Some(1234.567));
        assert_eq!(v.field("empty").unwrap().as_object().unwrap().len(), 0);
        assert_eq!(v.field("list"), Some(&Json::Arr(Vec::new())));
        assert_eq!(v.field("missing"), None);
        assert_eq!(
            v.field("v").unwrap().field("x"),
            None,
            "field of a non-object"
        );
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{\"a\":}",
            "[1,2] trailing",
            "{\"a\":1,}",
            "[1 2]",
            "\"open",
            "\"bad \\q escape\"",
            "\"bad \\u12",
            "nul",
            "{1:2}",
            "--",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
