//! The two JSON primitives every `report_json` writer shares.
//!
//! The artifacts are hand-rendered (fixed key order, fixed float
//! formatting) so they stay byte-identical per seed; what the writers
//! have in common is only how a string is escaped and how rendered
//! items are joined into an array or object body.

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Joins pre-rendered items one per line at `indent`, comma-separated:
/// the body between a JSON array's or object's brackets. Empty input
/// renders nothing.
pub fn lines(indent: &str, items: impl IntoIterator<Item = String>) -> String {
    let mut out = String::new();
    let mut items = items.into_iter().peekable();
    while let Some(item) = items.next() {
        out.push_str(indent);
        out.push_str(&item);
        if items.peek().is_some() {
            out.push(',');
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_quotes_and_backslashes() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("vfs.mount_table"), "vfs.mount_table");
    }

    #[test]
    fn lines_comma_separates_all_but_the_last() {
        assert_eq!(lines("  ", Vec::new()), "");
        assert_eq!(lines("  ", ["1".to_string()]), "  1\n");
        assert_eq!(
            lines("  ", ["1".to_string(), "2".to_string()]),
            "  1,\n  2\n"
        );
    }
}
