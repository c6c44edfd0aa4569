//! Minimal JSON emission helpers. The workspace is offline and std-only, so
//! renderers hand-assemble JSON strings; these helpers keep escaping and
//! float formatting consistent across modules.

/// Escape a string for embedding inside a JSON string literal (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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

/// Render a float as a JSON number: finite values print plainly, non-finite
/// values (which JSON cannot carry) degrade to `null`.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        // `{}` on f64 never prints an exponent for the magnitudes we emit,
        // but make sure integral values stay valid JSON numbers as-is.
        if s == "-0" {
            s = "0".to_string();
        }
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(number(1.5), "1.5");
        assert_eq!(number(-0.0), "0");
        assert_eq!(number(f64::NAN), "null");
        assert_eq!(number(f64::INFINITY), "null");
    }
}
