//! HTML text extraction (the Beautiful Soup substitute).
//!
//! Privacy policies arrive as HTML pages; Step 1 extracts the visible text,
//! dropping tags, scripts, styles, and comments, and decoding the common
//! entities. Block-level closing tags become paragraph breaks so the
//! sentence splitter sees document structure.

/// Extracts visible text from an HTML document.
///
/// # Examples
///
/// ```
/// use ppchecker_policy::html::extract_text;
/// let html = "<html><body><h1>Privacy</h1><p>We collect data.</p>\
///             <script>var x=1;</script></body></html>";
/// let text = extract_text(html);
/// assert!(text.contains("We collect data."));
/// assert!(!text.contains("var x"));
/// ```
pub fn extract_text(html: &str) -> String {
    let mut out = String::new();
    extract_text_into(html, &mut out);
    out
}

/// [`extract_text`] into `out`, replacing what it held and keeping its
/// buffer, so a caller that reuses one string allocates nothing once it
/// has held a document at least as long.
pub fn extract_text_into(html: &str, out: &mut String) {
    // Tags, comments and entities never expand, so the text fits in one
    // allocation of the document's size.
    out.clear();
    out.reserve(html.len());
    let bytes = html.as_bytes();
    let mut i = 0;
    // Inside a script or style: the name of the tag that closes it.
    let mut skip_until: Option<&str> = None;
    while i < bytes.len() {
        // The run up to the next tag (or entity) is copied whole, or
        // skipped whole inside a script or style.
        let run = bytes[i..]
            .iter()
            .position(|&b| b == b'<' || (b == b'&' && skip_until.is_none()))
            .unwrap_or(bytes.len() - i);
        if skip_until.is_none() {
            out.push_str(&html[i..i + run]);
        }
        i += run;
        if i == bytes.len() {
            break;
        }
        if bytes[i] == b'&' {
            let (decoded, len) = decode_entity(&html[i..]);
            out.push_str(decoded);
            i += len;
            continue;
        }
        if html[i..].starts_with("<!--") {
            match html[i..].find("-->") {
                Some(end) => {
                    i += end + 3;
                    continue;
                }
                None => break,
            }
        }
        let close = match bytes[i..].iter().position(|&b| b == b'>') {
            Some(c) => i + c,
            None => break,
        };
        let tag_body = &html[i + 1..close];
        let closing = tag_body.starts_with('/');
        // The tag name, lowercased in place: no name below is longer
        // than 10 bytes.
        let name = tag_body.trim_start_matches('/').as_bytes();
        let name = &name[..name.iter().take_while(|b| b.is_ascii_alphanumeric()).count()];
        let mut lower = [0u8; 10];
        let name: &[u8] = match lower.get_mut(..name.len()) {
            Some(lower) => {
                lower.copy_from_slice(name);
                lower.make_ascii_lowercase();
                lower
            }
            None => b"",
        };
        i = close + 1;
        if let Some(terminator) = skip_until {
            if closing && name == terminator.as_bytes() {
                skip_until = None;
            }
            continue;
        }
        match name {
            b"script" | b"style" if !closing => {
                skip_until = Some(if name == b"script" { "script" } else { "style" });
            }
            // Block-level boundaries become paragraph breaks.
            b"p" | b"div" | b"li" | b"h1" | b"h2" | b"h3" | b"h4" | b"h5" | b"h6" | b"tr"
            | b"table" | b"ul" | b"ol" | b"section" | b"article" | b"header" | b"footer"
            | b"blockquote" => out.push_str("\n\n"),
            b"br" => out.push('\n'),
            _ => {}
        }
    }
}

fn decode_entity(s: &str) -> (&'static str, usize) {
    const ENTITIES: &[(&str, &str)] = &[
        ("&amp;", "&"),
        ("&lt;", "<"),
        ("&gt;", ">"),
        ("&quot;", "\""),
        ("&apos;", "'"),
        ("&#39;", "'"),
        ("&nbsp;", " "),
        ("&mdash;", "-"),
        ("&ndash;", "-"),
        ("&rsquo;", "'"),
        ("&lsquo;", "'"),
        ("&rdquo;", "\""),
        ("&ldquo;", "\""),
    ];
    for (ent, rep) in ENTITIES {
        if s.starts_with(ent) {
            return (rep, ent.len());
        }
    }
    ("&", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_tags() {
        assert_eq!(
            extract_text("<p>We collect <b>location</b> data.</p>").trim(),
            "We collect location data."
        );
    }

    #[test]
    fn drops_script_and_style() {
        let t = extract_text("<style>.x{}</style><script>alert(1)</script><p>ok</p>");
        assert!(t.contains("ok"));
        assert!(!t.contains("alert"));
        assert!(!t.contains(".x{}"));
    }

    #[test]
    fn drops_comments() {
        let t = extract_text("before<!-- hidden -->after");
        assert_eq!(t, "beforeafter");
    }

    #[test]
    fn decodes_entities() {
        let t = extract_text("Terms &amp; Conditions&nbsp;&lt;here&gt;");
        assert_eq!(t, "Terms & Conditions <here>");
    }

    #[test]
    fn block_tags_become_breaks() {
        let t = extract_text("<p>one</p><p>two</p>");
        assert!(t.contains("\n\n"));
    }

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(extract_text("no markup at all"), "no markup at all");
    }

    #[test]
    fn unterminated_tag_is_safe() {
        assert_eq!(extract_text("text <unclosed"), "text ");
    }
}
