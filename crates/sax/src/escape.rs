//! Entity escaping and unescaping for XML character data.
//!
//! The escapers classify bytes with a 256-entry table and copy each run
//! of ordinary bytes with one `push_str`. Every byte they replace is
//! ASCII, and ASCII bytes never occur inside a multi-byte UTF-8
//! sequence, so each run boundary is a char boundary and the slices are
//! always valid `str`s.

/// Byte classes: `0` copies verbatim, `TEXT` is replaced in text
/// content, `ATTR` in attribute values (a superset of `TEXT`).
const TEXT: u8 = 1;
const ATTR: u8 = 2;

static CLASS: [u8; 256] = {
    let mut t = [0u8; 256];
    t[b'&' as usize] = TEXT | ATTR;
    t[b'<' as usize] = TEXT | ATTR;
    t[b'>' as usize] = TEXT | ATTR;
    // A literal CR would be folded to LF by the reader's §2.11
    // normalization; the reference survives, keeping parse ∘ serialize
    // an identity.
    t[b'\r' as usize] = TEXT | ATTR;
    // Literal quotes would end the value; literal whitespace would be
    // normalized to spaces by the reader (§3.3.3).
    t[b'"' as usize] = ATTR;
    t[b'\'' as usize] = ATTR;
    t[b'\n' as usize] = ATTR;
    t[b'\t' as usize] = ATTR;
    t
};

/// The entity or character reference replacing special byte `b`.
fn reference(b: u8) -> &'static str {
    match b {
        b'&' => "&amp;",
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'"' => "&quot;",
        b'\'' => "&apos;",
        b'\r' => "&#13;",
        b'\n' => "&#10;",
        b'\t' => "&#9;",
        _ => unreachable!("only classed bytes are replaced"),
    }
}

/// Appends `s` to `out`, replacing every byte whose class includes
/// `class` by its reference.
#[inline]
fn escape_into(s: &str, out: &mut String, class: u8) {
    let bytes = s.as_bytes();
    // Most values need no escaping: a branch-free pass over the table
    // settles that, and the whole value is then one run.
    if bytes.iter().fold(0, |m, &b| m | CLASS[b as usize]) & class == 0 {
        out.push_str(s);
        return;
    }
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if CLASS[b as usize] & class != 0 {
            // `run..i` ends before an ASCII byte: a char boundary.
            out.push_str(&s[run..i]);
            out.push_str(reference(b));
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Escapes text content onto `out`: `&`, `<`, `>` and CR become
/// references.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, out, TEXT);
}

/// Escapes a (double-quote delimited) attribute value onto `out`: the
/// text escapes plus both quotes, LF and TAB.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, out, ATTR);
}

/// Resolves the five predefined entities and numeric character references.
///
/// Unknown entities are left verbatim (lenient mode), matching the
/// behaviour of most streaming parsers when no DTD is available.
pub fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'&' {
            if let Some(semi) = s[i..].find(';').map(|p| i + p) {
                let entity = &s[i + 1..semi];
                if let Some(c) = resolve_entity(entity) {
                    out.push(c);
                    i = semi + 1;
                    continue;
                }
            }
            out.push('&');
            i += 1;
        } else {
            // Copy the full UTF-8 character.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&s[i..i + ch_len]);
            i += ch_len;
        }
    }
    out
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn resolve_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = entity.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or(rest.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> String {
        let mut out = String::new();
        escape_text_into(s, &mut out);
        out
    }

    fn attr(s: &str) -> String {
        let mut out = String::new();
        escape_attr_into(s, &mut out);
        out
    }

    #[test]
    fn escape_text_basic() {
        assert_eq!(text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(text("plain"), "plain");
        assert_eq!(text("q\"'\n\t\r"), "q\"'\n\t&#13;");
        assert_eq!(text("é<ü&€"), "é&lt;ü&amp;€");
        assert_eq!(text("<&>"), "&lt;&amp;&gt;");
        let mut out = String::from("kept:");
        escape_text_into("<", &mut out);
        assert_eq!(out, "kept:&lt;");
    }

    #[test]
    fn escape_attr_quotes() {
        assert_eq!(attr(r#"he said "hi"'s"#), "he said &quot;hi&quot;&apos;s");
        assert_eq!(attr("a\r\n\tb"), "a&#13;&#10;&#9;b");
        assert_eq!(attr("😀>\"'😀"), "😀&gt;&quot;&apos;😀");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(unescape("a&lt;b&amp;c&gt;d&quot;&apos;"), "a<b&c>d\"'");
    }

    #[test]
    fn unescape_numeric() {
        assert_eq!(unescape("&#65;&#x42;&#x63;"), "ABc");
    }

    #[test]
    fn unescape_unknown_entity_left_verbatim() {
        assert_eq!(unescape("&nbsp;x"), "&nbsp;x");
        assert_eq!(unescape("a & b"), "a & b");
    }

    #[test]
    fn unescape_no_amp_fast_path() {
        assert_eq!(unescape("nothing here"), "nothing here");
    }

    #[test]
    fn unescape_multibyte_passthrough() {
        assert_eq!(unescape("héllo&amp;wörld"), "héllo&wörld");
    }

    #[test]
    fn roundtrip() {
        let original = "x < y && z > \"w\" 'v'";
        assert_eq!(unescape(&attr(original)), original);
        assert_eq!(unescape(&text(original)), original);
    }
}
