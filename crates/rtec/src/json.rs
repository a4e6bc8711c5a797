//! Compact JSON without a value tree: the writer primitives and the
//! strict reader cursor shared by the checkpoint codec
//! ([`crate::checkpoint`]) and the service's write-ahead journal.
//!
//! The writer functions append to a caller-owned `String` and never
//! format through `fmt`; their output is byte-identical to the
//! `serde_json` renderer's for the same values (same escapes, same
//! integer spelling). The [`Cursor`] reads exactly that grammar back —
//! no whitespace, keys in the order the writer emits them, only the
//! escapes the writer produces — and reports anything else as an
//! `Err`, never a panic.

/// FNV-1a 64-bit hash: the checksum of checkpoint envelopes (rendered
/// as 16 hex digits) and of journal frames (stored as a raw integer).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends `s` as a quoted JSON string. Strings without quotes,
/// backslashes or control characters — nearly all of them — are a
/// single copy.
pub fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(HEX[c as usize >> 4] as char);
                out.push(HEX[c as usize & 15] as char);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `n` in decimal.
pub fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Appends `n` in decimal.
pub fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Appends a counter, saturated at `i64::MAX` like every integer the
/// checkpoint format has ever carried.
pub fn push_counter(out: &mut String, n: u64) {
    push_u64(out, n.min(i64::MAX as u64));
}

/// Appends `n` as exactly 16 lower-case hex digits (no quotes).
pub(crate) fn push_hex16(out: &mut String, n: u64) {
    for shift in (0..16).rev() {
        out.push(HEX[(n >> (shift * 4)) as usize & 15] as char);
    }
}

/// Appends `[item,item,…]`, each item written by `write`.
pub fn push_seq<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// A strict reader over compact JSON produced by the functions above.
///
/// Objects are read field by field in writer order: [`Cursor::field`]
/// for keys that must be present, [`Cursor::opt_field`] for keys older
/// writers left out. The separating comma is implied by position, so a
/// reader never has to look ahead past the key it expects.
pub struct Cursor<'t> {
    text: &'t str,
    pos: usize,
    what: &'static str,
}

impl<'t> Cursor<'t> {
    /// A cursor at the start of `text`; `what` prefixes every error.
    pub fn new(text: &'t str, what: &'static str) -> Cursor<'t> {
        Cursor { text, pos: 0, what }
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// An error message naming the current offset.
    pub fn err(&self, msg: &str) -> String {
        format!("{}: {msg} at byte {}", self.what, self.pos)
    }

    fn rest(&self) -> &'t [u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Consumes `token` if the input continues with it.
    pub fn eat(&mut self, token: &str) -> bool {
        let hit = self.rest().starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    /// Consumes `token` or fails.
    pub fn expect(&mut self, token: &str) -> Result<(), String> {
        if self.eat(token) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{token}`")))
        }
    }

    /// Fails unless the whole input has been read.
    pub fn end(&self) -> Result<(), String> {
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing bytes"))
        }
    }

    /// Consumes `"name":` (preceded by `,` unless it opens the object)
    /// if the input continues with it.
    fn eat_key(&mut self, name: &str) -> bool {
        let b = self.text.as_bytes();
        let at = |i: usize, pat: &[u8]| b.get(i..).is_some_and(|r| r.starts_with(pat));
        let start = if self.pos > 0 && b[self.pos - 1] == b'{' {
            self.pos
        } else if at(self.pos, b",") {
            self.pos + 1
        } else {
            return false;
        };
        let hit = at(start, b"\"")
            && at(start + 1, name.as_bytes())
            && at(start + 1 + name.len(), b"\":");
        if hit {
            self.pos = start + name.len() + 3;
        }
        hit
    }

    /// Reads the required key `name` and its value.
    pub fn field<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        if !self.eat_key(name) {
            return Err(self.err(&format!("expected key \"{name}\"")));
        }
        read(self)
    }

    /// Reads the optional key `name`: `None` when it is absent or its
    /// value is `null`.
    pub fn opt_field<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        if !self.eat_key(name) || self.eat("null") {
            return Ok(None);
        }
        read(self).map(Some)
    }

    /// Reads `[item,item,…]`.
    pub fn list<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.expect("[")?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Ok(items);
        }
        loop {
            items.push(read(self)?);
            if !self.eat(",") {
                self.expect("]")?;
                return Ok(items);
            }
        }
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            Err(self.err("expected a boolean"))
        }
    }

    /// Reads a non-negative integer (no sign, no leading zeros).
    pub fn u64(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut n: u64 = 0;
        while let Some(&d) = self.rest().first().filter(|d| d.is_ascii_digit()) {
            n = n
                .checked_mul(10)
                .and_then(|n| n.checked_add(u64::from(d - b'0')))
                .ok_or_else(|| self.err("integer overflow"))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        if digits == 0 || (digits > 1 && self.text.as_bytes()[start] == b'0') {
            return Err(self.err("expected an integer"));
        }
        Ok(n)
    }

    /// Reads a signed integer.
    pub fn i64(&mut self) -> Result<i64, String> {
        if self.eat("-") {
            match self.u64()? {
                0 => Err(self.err("negative zero")),
                n if n <= 1 << 63 => Ok((n as i64).wrapping_neg()),
                _ => Err(self.err("integer overflow")),
            }
        } else {
            i64::try_from(self.u64()?).map_err(|_| self.err("integer overflow"))
        }
    }

    /// Reads a non-negative integer that fits `usize`.
    pub fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| self.err("integer overflow"))
    }

    /// Reads exactly 16 lower-case hex digits (no quotes).
    pub(crate) fn hex16(&mut self) -> Result<u64, String> {
        let n = self
            .text
            .get(self.pos..self.pos + 16)
            .filter(|d| d.bytes().all(|b| HEX.contains(&b)))
            .and_then(|d| u64::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.err("expected 16 hex digits"))?;
        self.pos += 16;
        Ok(n)
    }

    /// Reads a quoted string, undoing exactly the escapes [`push_quoted`]
    /// writes.
    pub fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let c = match bytes.get(self.pos) {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0C}',
                        Some(b'u') if self.rest().starts_with(b"u00") => {
                            let hex =
                                |b: Option<&u8>| b.and_then(|b| HEX.iter().position(|h| h == b));
                            match (hex(bytes.get(self.pos + 3)), hex(bytes.get(self.pos + 4))) {
                                (Some(hi @ 0..=1), Some(lo)) => {
                                    self.pos += 4;
                                    char::from((hi << 4 | lo) as u8)
                                }
                                _ => return Err(self.err("bad \\u escape")),
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.pos += 1;
                    run = self.pos;
                }
                Some(&b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(v: &serde_json::Value) -> String {
        serde_json::to_string(v).unwrap()
    }

    #[test]
    fn writer_matches_the_serde_renderer() {
        for s in [
            "plain",
            "",
            "q\"b\\s/",
            "nl\ncr\rtab\tbs\u{08}ff\u{0C}",
            "\u{01}\u{1f}\u{7f}",
            "é⚓",
        ] {
            let mut out = String::new();
            push_quoted(&mut out, s);
            assert_eq!(out, render(&serde_json::Value::from(s)), "{s:?}");
            let mut c = Cursor::new(&out, "test");
            assert_eq!(c.string().unwrap(), s);
            c.end().unwrap();
        }
        for n in [0i64, 7, -7, 10, i64::MAX, i64::MIN] {
            let mut out = String::new();
            push_i64(&mut out, n);
            assert_eq!(out, render(&serde_json::Value::from(n)));
            let mut c = Cursor::new(&out, "test");
            assert_eq!(c.i64().unwrap(), n);
            c.end().unwrap();
        }
        let mut out = String::new();
        push_counter(&mut out, u64::MAX);
        assert_eq!(out, i64::MAX.to_string());
        let mut out = String::new();
        push_hex16(&mut out, 0x8000_0000_0000_00ff);
        assert_eq!(out, "80000000000000ff");
        assert_eq!(
            Cursor::new(&out, "test").hex16().unwrap(),
            0x8000_0000_0000_00ff
        );
    }

    #[test]
    fn reader_refuses_what_the_writer_never_writes() {
        for bad in ["01", "-0", "+1", "", "-", "99999999999999999999", "1.5"] {
            let mut c = Cursor::new(bad, "test");
            assert!(c.i64().and_then(|_| c.end()).is_err(), "{bad}");
        }
        for bad in ["\"a", "\"\\u0041\"", "\"\\/\"", "\"\u{01}\"", "\"\\u00\""] {
            assert!(Cursor::new(bad, "test").string().is_err(), "{bad}");
        }
        let mut c = Cursor::new("{\"b\":1,\"a\":2}", "test");
        c.expect("{").unwrap();
        assert_eq!(c.opt_field("a", Cursor::u64).unwrap(), None);
        assert_eq!(c.field("b", Cursor::u64).unwrap(), 1);
        assert!(c.field("c", Cursor::u64).is_err());
        assert_eq!(c.field("a", Cursor::u64).unwrap(), 2);
        c.expect("}").unwrap();
        c.end().unwrap();
    }
}
