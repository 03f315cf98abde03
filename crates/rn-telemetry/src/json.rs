//! The JSON value encoders every machine-readable report in the workspace
//! shares: the sweep reports, the `analyze` and `modelcheck` gate reports
//! and the JSONL sidecar.
//!
//! The workspace stays dependency-free by choice, so each report writes its
//! own object layout by hand; what a value looks like once encoded is
//! decided here, once.

/// Escapes a string for inclusion in a JSON string literal (the quotes
/// themselves are the caller's).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Encodes an optional count as a JSON number, or `null` when absent.
pub fn opt_u64(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Encodes a float with 4 decimal places; non-finite values encode as
/// `null`, since JSON cannot carry them.
pub fn f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_and_control_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("nul\u{1}"), "nul\\u0001");
        let params = "clusters=6,p_in=0.6,p_out=0.01";
        assert_eq!(escape(params), params, "JSON needs no comma escape");
    }

    #[test]
    fn optional_counts_and_floats() {
        assert_eq!(opt_u64(Some(17)), "17");
        assert_eq!(opt_u64(None), "null");
        assert_eq!(f64(1.5), "1.5000");
        assert_eq!(f64(f64::NAN), "null");
        assert_eq!(f64(f64::INFINITY), "null");
    }
}
