//! Tiny deterministic JSON formatting helpers.
//!
//! The exporters hand-roll their JSON because the workspace builds
//! offline (no serde_json). Numbers use Rust's shortest round-trip
//! float formatting, which is deterministic across runs and platforms;
//! non-finite values serialize as `null` to keep the output valid JSON.
//!
//! [`Esc`] and [`Num`] are `Display` adapters, so a renderer writes a
//! field straight into its sink with `write!` and allocates nothing.

use std::fmt;
use std::io;

/// Displays a string escaped for inclusion inside a JSON string
/// literal (the quotes themselves are not written).
pub struct Esc<'a>(pub &'a str);

impl fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        let mut clean = 0;
        for (i, c) in s.char_indices() {
            let escaped = match c {
                '"' => "\\\"",
                '\\' => "\\\\",
                '\n' => "\\n",
                '\r' => "\\r",
                '\t' => "\\t",
                c if (c as u32) < 0x20 => "",
                _ => continue,
            };
            f.write_str(&s[clean..i])?;
            if escaped.is_empty() {
                write!(f, "\\u{:04x}", c as u32)?;
            } else {
                f.write_str(escaped)?;
            }
            clean = i + c.len_utf8();
        }
        f.write_str(&s[clean..])
    }
}

/// Displays an `f64` as a JSON number (`null` if non-finite).
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Runs a streaming renderer into memory and returns what it wrote —
/// how each artifact's `String` method wraps its one renderer.
pub fn render(write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("writing into memory cannot fail");
    String::from_utf8(buf).expect("renderers write UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(Esc("a\"b\\c\nd").to_string(), "a\\\"b\\\\c\\nd");
        assert_eq!(Esc("\u{1}").to_string(), "\\u0001");
        assert_eq!(Esc("\tü\r").to_string(), "\\tü\\r");
        assert_eq!(Esc("plain").to_string(), "plain");
    }

    #[test]
    fn numbers_are_shortest_roundtrip() {
        assert_eq!(Num(2.0).to_string(), "2");
        assert_eq!(Num(0.25).to_string(), "0.25");
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(Num(f64::INFINITY).to_string(), "null");
    }
}
