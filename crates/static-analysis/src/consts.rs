//! Intra-procedural constant/URI propagation.
//!
//! The paper locates `ContentResolver.query()` statements and walks the
//! paths feeding their URI argument to recover the queried URI — either a
//! `Uri.parse("content://...")` of a string constant or a read of a
//! framework `CONTENT_URI` field. This module reproduces that resolution
//! with a backward register scan following `move`, `Uri.parse`, and field
//! reads.

use ppchecker_apk::{Insn, Method, Reg};

/// A resolved URI argument value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UriValue {
    /// A literal `content://` string (possibly via `Uri.parse`).
    Literal(String),
    /// A framework URI field, in PScout descriptor form
    /// `<declaring.Class: android.net.Uri FIELD>`.
    Field(String),
}

/// Resolves the value of `reg` at instruction index `at` by scanning
/// backwards through the method body.
///
/// Follows `move` chains, `Uri.parse(const-string)` and
/// `Uri.withAppendedPath`, and turns `iget/sget` of `android.*` URI fields
/// into [`UriValue::Field`] descriptors.
pub fn resolve_uri(method: &Method, at: usize, reg: Reg) -> Option<UriValue> {
    match &method.instructions[resolve_uri_at(method, at, reg)?] {
        Insn::ConstString { value, .. } => Some(UriValue::Literal(value.clone())),
        Insn::FieldGet { class, field, .. } => {
            Some(UriValue::Field(format!("<{class}: android.net.Uri {field}>")))
        }
        _ => unreachable!("a URI resolves to a const-string or a field read"),
    }
}

/// [`resolve_uri`] without building the value: the index of the
/// `const-string` or URI field read that `reg` resolves to.
pub(crate) fn resolve_uri_at(method: &Method, at: usize, reg: Reg) -> Option<usize> {
    let mut wanted = reg;
    let end = at.min(method.instructions.len());
    for (idx, insn) in method.instructions[..end].iter().enumerate().rev() {
        match insn {
            Insn::ConstString { dst, .. } if *dst == wanted => return Some(idx),
            Insn::Move { dst, src } if *dst == wanted => {
                wanted = *src;
            }
            Insn::FieldGet { class, field, dst } if *dst == wanted => {
                if class.starts_with("android.provider") || field.contains("CONTENT_URI") {
                    return Some(idx);
                }
                return None;
            }
            Insn::Invoke { class, method: m, args, dst: Some(d), .. } if *d == wanted => {
                if class == "android.net.Uri" && (m == "parse" || m == "withAppendedPath") {
                    if let Some(&src) = args.first() {
                        wanted = src;
                        continue;
                    }
                }
                return None;
            }
            Insn::NewInstance { dst, .. } if *dst == wanted => return None,
            _ => {}
        }
    }
    None
}

/// Whether an invoke is a `ContentResolver.query`-style call — the
/// trigger for URI resolution at that site.
pub fn is_query_call(class: &str, method: &str) -> bool {
    (method == "query"
        && (class == "android.content.ContentResolver"
            || class == "android.content.ContentProviderClient"))
        || (class == "android.content.CursorLoader" && method == "loadInBackground")
}

/// All `ContentResolver.query`-style call sites in a method, with their
/// resolved URIs: `(instruction index, uri)`.
pub fn query_sites(method: &Method) -> Vec<(usize, UriValue)> {
    let mut out = Vec::new();
    for (idx, insn) in method.instructions.iter().enumerate() {
        let Insn::Invoke { class, method: m, args, .. } = insn else {
            continue;
        };
        if !is_query_call(class, m) {
            continue;
        }
        // The URI argument follows the receiver.
        for &arg in args.iter().skip(1) {
            if let Some(v) = resolve_uri(method, idx, arg) {
                out.push((idx, v));
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::Dex;

    fn method_with(body: impl FnOnce(&mut ppchecker_apk::MethodBuilder)) -> Method {
        let dex = Dex::builder()
            .class("com.x.A", |c| {
                c.method("m", 1, body);
            })
            .build();
        dex.class("com.x.A").unwrap().method("m").unwrap().clone()
    }

    #[test]
    fn resolves_direct_const_string() {
        let m = method_with(|b| {
            b.const_string(1, "content://contacts");
            b.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
        });
        let sites = query_sites(&m);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].1, UriValue::Literal("content://contacts".to_string()));
    }

    #[test]
    fn resolves_through_uri_parse_and_move() {
        let m = method_with(|b| {
            b.const_string(1, "content://com.android.calendar");
            b.invoke_static("android.net.Uri", "parse", &[1], Some(2));
            b.mov(3, 2);
            b.invoke_virtual("android.content.ContentResolver", "query", &[0, 3], Some(4));
        });
        let sites = query_sites(&m);
        assert_eq!(sites[0].1, UriValue::Literal("content://com.android.calendar".to_string()));
    }

    #[test]
    fn resolves_content_uri_field() {
        let m = method_with(|b| {
            b.field_get("android.provider.ContactsContract", "CONTENT_URI", 1);
            b.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
        });
        let sites = query_sites(&m);
        assert_eq!(
            sites[0].1,
            UriValue::Field(
                "<android.provider.ContactsContract: android.net.Uri CONTENT_URI>".to_string()
            )
        );
    }

    #[test]
    fn unresolvable_uri_is_skipped() {
        // URI produced by a complicated string operation (the paper's §VI
        // limitation): resolution fails, no site reported.
        let m = method_with(|b| {
            b.invoke_virtual("java.lang.StringBuilder", "toString", &[5], Some(1));
            b.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
        });
        assert!(query_sites(&m).is_empty());
    }

    #[test]
    fn non_query_invokes_ignored() {
        let m = method_with(|b| {
            b.const_string(1, "content://sms");
            b.invoke_virtual("android.content.ContentResolver", "getType", &[0, 1], Some(2));
        });
        assert!(query_sites(&m).is_empty());
    }
}
