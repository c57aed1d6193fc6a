//! A hand-rolled JSON writer (the workspace builds offline, without
//! `serde_json`), and — for the tests — the reader that proves it round-trips.

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(i64),
    Num(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(value: bool) -> Self {
        Json::Bool(value)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Self {
        Json::Int(value as i64)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Self {
        Json::Num(value)
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Self {
        Json::Str(value.to_string())
    }
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Self {
        Json::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.into(), value))
                .collect(),
        )
    }

    /// The value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            Json::Int(value) => out.push_str(&value.to_string()),
            // `Display` prints the shortest digits that read back as the
            // same f64: every digit measured, none invented.
            Json::Num(value) if value.is_finite() => out.push_str(&value.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(value) => write_string(value, out),
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (index, (key, value)) in members.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(value: &str, out: &mut String) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out.push('"');
}

#[cfg(test)]
pub mod reader {
    //! A small recursive-descent reader, enough for what the writer emits
    //! and for `BENCHMARK.json`.

    use super::Json;

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = reader.value()?;
        reader.skip_space();
        if reader.at != reader.bytes.len() {
            return Err(format!("trailing input at byte {}", reader.at));
        }
        Ok(value)
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Object(members) => members
                    .iter()
                    .find(|(name, _)| name == key)
                    .map(|(_, value)| value),
                _ => None,
            }
        }

        pub fn items(&self) -> &[Json] {
            match self {
                Json::Array(items) => items,
                _ => &[],
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(value) => Some(value),
                _ => None,
            }
        }

        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Json::Num(value) => Some(*value),
                Json::Int(value) => Some(*value as f64),
                _ => None,
            }
        }
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        at: usize,
    }

    impl Reader<'_> {
        fn skip_space(&mut self) {
            while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }

        fn eat(&mut self, literal: &str) -> bool {
            let matches = self.bytes[self.at..].starts_with(literal.as_bytes());
            if matches {
                self.at += literal.len();
            }
            matches
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_space();
            match self.bytes.get(self.at) {
                None => Err("unexpected end of input".into()),
                Some(b'n') if self.eat("null") => Ok(Json::Null),
                Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => {
                    self.at += 1;
                    let mut items = Vec::new();
                    loop {
                        self.skip_space();
                        if self.eat("]") {
                            return Ok(Json::Array(items));
                        }
                        if !items.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.at));
                        }
                        items.push(self.value()?);
                    }
                }
                Some(b'{') => {
                    self.at += 1;
                    let mut members = Vec::new();
                    loop {
                        self.skip_space();
                        if self.eat("}") {
                            return Ok(Json::Object(members));
                        }
                        if !members.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.at));
                        }
                        self.skip_space();
                        let key = self.string()?;
                        self.skip_space();
                        if !self.eat(":") {
                            return Err(format!("expected ':' at byte {}", self.at));
                        }
                        members.push((key, self.value()?));
                    }
                }
                Some(_) => self.number(),
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected a string at byte {}", self.at));
            }
            let mut out = Vec::new();
            loop {
                let byte = *self.bytes.get(self.at).ok_or("unterminated string")?;
                self.at += 1;
                match byte {
                    b'"' => return String::from_utf8(out).map_err(|error| error.to_string()),
                    b'\\' => {
                        let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                        self.at += 1;
                        match escape {
                            b'n' => out.push(b'\n'),
                            b'r' => out.push(b'\r'),
                            b't' => out.push(b'\t'),
                            b'u' => {
                                let hex =
                                    self.bytes.get(self.at..self.at + 4).ok_or("short \\u")?;
                                let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                let ch = char::from_u32(code).ok_or("bad \\u code point")?;
                                out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                                self.at += 4;
                            }
                            other => out.push(other),
                        }
                    }
                    other => out.push(other),
                }
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            while self
                .bytes
                .get(self.at)
                .is_some_and(|byte| matches!(byte, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
            {
                self.at += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
            if let Ok(value) = text.parse::<i64>() {
                return Ok(Json::Int(value));
            }
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_round_trips_through_the_reader() {
        let value = Json::object([
            ("correct", Json::from(true)),
            ("attempted", Json::from(238_800u64)),
            ("nothing", Json::Null),
            ("text", Json::from("tab\t \"quoted\" back\\slash \u{1} é")),
            (
                "metrics",
                Json::object([(
                    "wall_s",
                    Json::object([
                        ("value", Json::from(4.068_731_259)),
                        ("unit", Json::from("s")),
                    ]),
                )]),
            ),
            (
                "list",
                Json::Array(vec![
                    Json::from(0.1 + 0.2),
                    Json::Int(-3),
                    Json::Array(vec![]),
                ]),
            ),
        ]);
        let rendered = value.render();
        assert!(!rendered.contains('\n'), "one line");
        assert_eq!(reader::parse(&rendered).expect("parses"), value);
        assert!(
            rendered.contains("0.30000000000000004"),
            "every digit is kept"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::from(f64::NAN).render(), "null");
    }

    #[test]
    fn the_reader_rejects_trailing_input() {
        assert!(reader::parse("{} x").is_err());
        assert!(reader::parse("[1 2]").is_err());
    }
}
