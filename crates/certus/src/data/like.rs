//! SQL `LIKE` pattern matching.
//!
//! Query Q4 of the paper uses `p_name LIKE '%'||$color||'%'`. The pattern
//! language supports `%` (any sequence, possibly empty) and `_` (exactly one
//! character). Matching a null operand yields `Truth::Unknown` under SQL
//! semantics; the naive variant treats a null as a non-matching value.

use crate::data::truth::Truth;
use crate::data::value::Value;

/// Two-valued `LIKE` match between a string and a pattern.
///
/// Two cursors and one backtrack point, no allocation: literal characters
/// and `_` advance both cursors; a `%` records where it stands, and a later
/// mismatch resumes there with the `%` swallowing one more character. Only
/// the *last* `%` needs remembering — an earlier one taking more text could
/// only hand the later one a shorter suffix to do the same job with.
/// Characters are Unicode scalar values.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    let (mut t, mut p) = (text.chars(), pattern.chars());
    // (pattern just past the last `%`, text from where that `%` stops).
    let mut resume: Option<(std::str::Chars<'_>, std::str::Chars<'_>)> = None;
    loop {
        let mut p_next = p.clone();
        match p_next.next() {
            Some('%') => {
                p = p_next;
                resume = Some((p.clone(), t.clone()));
                continue;
            }
            Some(pc) => match t.clone().next() {
                Some(tc) if pc == '_' || pc == tc => {
                    p = p_next;
                    t.next();
                    continue;
                }
                Some(_) => {}
                // Text exhausted with pattern left over: a `%` swallowing
                // more would leave even less text for it.
                None => return false,
            },
            None if t.as_str().is_empty() => return true,
            None => {}
        }
        match &mut resume {
            Some((after_percent, swallowed)) => {
                if swallowed.next().is_none() {
                    return false;
                }
                p = after_percent.clone();
                t = swallowed.clone();
            }
            None => return false,
        }
    }
}

/// SQL three-valued `LIKE`: `Unknown` if the value is a null, `False` if it is
/// a non-string constant, otherwise the Boolean match.
pub(crate) fn sql_like(value: &Value, pattern: &str) -> Truth {
    match value {
        Value::Null(_) => Truth::Unknown,
        Value::Str(s) => Truth::from_bool(like_match(s, pattern)),
        _ => Truth::False,
    }
}

/// Naive two-valued `LIKE`: nulls simply do not match any pattern.
pub(crate) fn naive_like(value: &Value, pattern: &str) -> bool {
    match value {
        Value::Str(s) => like_match(s, pattern),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::null::NullId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle: the textbook table, `dp[i][j]` = does `t[..i]` match
    /// `p[..j]`.
    fn like_match_dp(text: &str, pattern: &str) -> bool {
        let t: Vec<char> = text.chars().collect();
        let p: Vec<char> = pattern.chars().collect();
        let mut dp = vec![vec![false; p.len() + 1]; t.len() + 1];
        dp[0][0] = true;
        for j in 1..=p.len() {
            if p[j - 1] == '%' {
                dp[0][j] = dp[0][j - 1];
            }
        }
        for i in 1..=t.len() {
            for j in 1..=p.len() {
                dp[i][j] = match p[j - 1] {
                    '%' => dp[i][j - 1] || dp[i - 1][j],
                    '_' => dp[i - 1][j - 1],
                    c => dp[i - 1][j - 1] && t[i - 1] == c,
                };
            }
        }
        dp[t.len()][p.len()]
    }

    #[test]
    fn matcher_agrees_with_the_table_on_random_inputs() {
        // A tiny alphabet (with a multi-byte character) so that patterns
        // match often, and plenty of wildcards so that backtracking runs.
        let mut rng = StdRng::seed_from_u64(0x11CE);
        let word = |rng: &mut StdRng, alphabet: &[char], max: usize| -> String {
            let n = rng.gen_range(0..=max);
            (0..n).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
        };
        let mut matched = 0;
        for _ in 0..20_000 {
            let text = word(&mut rng, &['a', 'b', 'é'], 8);
            let pattern = word(&mut rng, &['a', 'b', 'é', '%', '%', '_'], 6);
            let expected = like_match_dp(&text, &pattern);
            assert_eq!(like_match(&text, &pattern), expected, "{text:?} LIKE {pattern:?}");
            matched += expected as usize;
        }
        assert!(matched > 2_000, "the inputs should exercise both outcomes: {matched}");
    }

    #[test]
    fn empty_and_wildcard_only_patterns() {
        assert!(like_match("", ""));
        assert!(!like_match("a", ""));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%%"));
        assert!(like_match("héllo", "h_llo"));
        assert!(like_match("abab", "%ab"));
        assert!(!like_match("aba", "%ab"));
        assert!(like_match("aXbXc", "a%b%c"));
        assert!(!like_match("aXbXc", "a%b%d"));
    }

    #[test]
    fn exact_match() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "ab"));
    }

    #[test]
    fn percent_wildcard() {
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "a%"));
        assert!(like_match("abc", "%c"));
        assert!(like_match("abc", "%b%"));
        assert!(like_match("", "%"));
        assert!(!like_match("abc", "%d%"));
        assert!(like_match("almond antique blue", "%antique%"));
    }

    #[test]
    fn underscore_wildcard() {
        assert!(like_match("abc", "a_c"));
        assert!(!like_match("abc", "a_d"));
        assert!(!like_match("ab", "a_c"));
        assert!(like_match("abc", "___"));
        assert!(!like_match("abc", "____"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(like_match("database", "d%b_se"));
        assert!(like_match("forest chiffon navy", "%chiffon%"));
        assert!(!like_match("forest chiffon navy", "%purple%"));
    }

    #[test]
    fn sql_like_on_null_is_unknown() {
        assert_eq!(sql_like(&Value::Null(NullId(1)), "%x%"), Truth::Unknown);
        assert_eq!(sql_like(&Value::str("xyz"), "%y%"), Truth::True);
        assert_eq!(sql_like(&Value::Int(3), "%"), Truth::False);
    }

    #[test]
    fn naive_like_on_null_is_false() {
        assert!(!naive_like(&Value::Null(NullId(1)), "%"));
        assert!(naive_like(&Value::str("abc"), "a%"));
    }
}
