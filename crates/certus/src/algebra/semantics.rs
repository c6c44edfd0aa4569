//! Evaluation regimes for conditions over incomplete databases.

/// Which null semantics the evaluator applies to selection conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NullSemantics {
    /// SQL's three-valued logic: comparisons involving a null are `unknown`,
    /// connectives follow Kleene logic, and `WHERE` keeps only `true` rows.
    /// This is `EvalSQL` in the paper.
    #[default]
    Sql,
    /// Naive evaluation: nulls are treated as ordinary values (`⊥ᵢ = ⊥ᵢ`
    /// holds, `⊥ᵢ = c` does not). By Fact 1 of the paper this computes
    /// exactly the certain answers with nulls for positive relational
    /// algebra.
    Naive,
}

impl NullSemantics {
    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            NullSemantics::Sql => "sql-3vl",
            NullSemantics::Naive => "naive",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sql() {
        assert_eq!(NullSemantics::default(), NullSemantics::Sql);
    }

    #[test]
    fn labels() {
        assert_eq!(NullSemantics::Sql.label(), "sql-3vl");
        assert_eq!(NullSemantics::Naive.label(), "naive");
    }
}
