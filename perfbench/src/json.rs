//! A minimal JSON object writer for the benchmark's one-line outputs.

use std::fmt::Write as _;

/// A JSON object under construction.
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, k: &str) -> &mut Self {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "{}:", quote(k));
        self
    }

    /// A number with every digit Rust's shortest round-trip form gives
    /// (non-finite values become `null`).
    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn uint(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(&quote(v));
        self
    }

    pub fn obj(&mut self, k: &str, v: Obj) -> &mut Self {
        self.key(k);
        self.buf.push_str(&v.finish());
        self
    }

    pub fn finish(&self) -> String {
        if self.buf.is_empty() {
            "{}".to_string()
        } else {
            format!("{}}}", self.buf)
        }
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
