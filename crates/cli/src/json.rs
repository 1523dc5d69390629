//! JSON rendering of a [`ppchecker_core::Report`] for machine
//! consumption (`ppchecker check --json` and batch JSONL).
//!
//! The implementation lives in [`ppchecker_serve::json`] — the daemon's
//! wire schema and the CLI's JSON output are the same format by
//! construction — and is re-exported here so existing `ppchecker_cli`
//! callers keep their import paths.

pub use ppchecker_serve::json::{escape, escape_into, report_to_json, report_to_json_into};

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_core::Report;

    #[test]
    fn reexports_render_reports() {
        let json = report_to_json(&Report::default());
        assert!(json.contains("\"incomplete\":false"));
        assert_eq!(escape("a\"b"), "a\\\"b");
    }
}
