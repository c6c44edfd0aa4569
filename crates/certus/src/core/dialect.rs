//! Condition-translation dialects.

/// Which variant of the condition translations `θ*` / `θ**` to produce.
///
/// The paper first defines the translations for the abstract model with
/// marked nulls, where the rewritten query is evaluated *naively* (nulls
/// behave as values). When the rewritten query is instead executed by a real
/// SQL engine — whose three-valued logic makes every comparison with a null
/// `unknown`, and which cannot see that a null equals itself — Section 7
/// adjusts the translations: `(A = B)*` also requires `const(A) ∧ const(B)`,
/// and `(A ≠ B)**` also allows `null(A) ∨ null(B)`.
///
/// Each dialect is paired with the evaluation semantics under which the
/// produced `Q⁺` has correctness guarantees:
///
/// | dialect | evaluate `Q⁺` under |
/// |---|---|
/// | [`ConditionDialect::Theoretical`] | naive evaluation ([`NullSemantics::Naive`]) |
/// | [`ConditionDialect::Sql`] | SQL 3VL ([`NullSemantics::Sql`]) |
///
/// [`NullSemantics::Naive`]: crate::algebra::NullSemantics::Naive
/// [`NullSemantics::Sql`]: crate::algebra::NullSemantics::Sql
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConditionDialect {
    /// The translations of Sections 5–6, for evaluation with marked nulls
    /// under naive semantics.
    Theoretical,
    /// The SQL-adjusted translations of Section 7, for evaluation by a
    /// standard SQL engine under three-valued logic. This is the default and
    /// is what the paper's experiments (and ours) run.
    #[default]
    Sql,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sql() {
        assert_eq!(ConditionDialect::default(), ConditionDialect::Sql);
    }
}
