//! A linear-time JSON reader for the harness's own use.
//!
//! The harness checks tens of thousands of response bodies of 10–100 KB
//! per run.  `rq_common::Json::parse` — the code under test — re-validates
//! the rest of the document for every string character, which is
//! quadratic in the body; going through it would make answer checking
//! the slowest part of a run, and would mean the checker trusts the
//! parser it is checking.  This reader produces the same [`Json`] tree
//! in one pass.  (Encoding still goes through `rq_common`: it is linear.)

use rq_common::Json;

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.at < p.bytes.len() {
        return Err(p.error("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.bytes.get(self.at) == Some(&byte);
        self.at += usize::from(hit);
        hit
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error("unknown literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 64 {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat(b']') {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(b']') {
                        return Ok(Json::Array(items));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `]`"));
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat(b'}') {
                    return Ok(Json::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(b':') {
                        return Err(self.error("expected `:`"));
                    }
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(b'}') {
                        return Ok(Json::Object(pairs));
                    }
                    if !self.eat(b',') {
                        return Err(self.error("expected `,` or `}`"));
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.at += 1;
        }
        let token = &self.text[start..self.at];
        if let Ok(i) = token.parse::<i64>() {
            return Ok(Json::Int(i));
        }
        token
            .parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("bad number `{token}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b'"') {
            return Err(self.error("expected a string"));
        }
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one piece.
            // Both are ASCII, so the cut never splits a UTF-8 scalar.
            let start = self.at;
            while !matches!(
                self.bytes.get(self.at),
                None | Some(b'"' | b'\\' | 0..=0x1f)
            ) {
                self.at += 1;
            }
            out.push_str(&self.text[start..self.at]);
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(0..=0x1f) => return Err(self.error("raw control character in a string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.at += 1;
                    let escape = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            // The server escapes control characters only;
                            // surrogate pairs never appear in its output.
                            let code = self
                                .text
                                .get(self.at..self.at + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            code
                        }
                        _ => return Err(self.error("bad escape")),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agrees_with_the_workspace_parser() {
        for text in [
            r#"{"query":"tc(n1, Y)","epoch":0,"rows":[["n2"],["n3"]],"converged":true,"from_cache":false}"#,
            r#"{"epoch":3,"answers":[{"rows":[["p7",450]],"holds":null},{"error":"a \"quoted\" \\ thing\n"}]}"#,
            r#" [ 1 , -2.5 , 1e3 , "é∑" , [] , {} , true ] "#,
            "0",
        ] {
            assert_eq!(parse(text), Ok(Json::parse(text).unwrap()), "{text}");
        }
    }

    #[test]
    fn rejects_what_is_not_json() {
        for text in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            r#"{"a" 1}"#,
            r#""abc"#,
            "nul",
            "1 2",
            r#""\x""#,
            "\"a\u{7}b\"",
        ] {
            assert!(parse(text).is_err(), "{text:?} parsed");
        }
    }

    #[test]
    fn a_large_body_parses_in_linear_time() {
        let rows: Vec<String> = (0..200_000).map(|i| format!("[\"n{i}\"]")).collect();
        let text = format!("{{\"rows\":[{}]}}", rows.join(","));
        let start = std::time::Instant::now();
        let json = parse(&text).unwrap();
        assert_eq!(
            json.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(200_000)
        );
        // 2.4 MB; the quadratic reader needs minutes for this.
        assert!(start.elapsed().as_secs() < 5);
    }
}
