//! Textual rendering of algebra expressions in a compact single-line form.

use crate::algebra::expr::RaExpr;
use std::fmt;

impl fmt::Display for RaExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        as_single_line(self, f)
    }
}

fn as_single_line(expr: &RaExpr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match expr {
        RaExpr::Relation { name, alias } => match alias {
            Some(a) => write!(f, "{name} AS {a}"),
            None => write!(f, "{name}"),
        },
        RaExpr::Values { rows, .. } => write!(f, "VALUES[{} rows]", rows.len()),
        RaExpr::Select { input, condition } => write!(f, "σ[{condition}]({input})"),
        RaExpr::Project { input, columns } => {
            write!(f, "π[")?;
            for (i, c) in columns.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match &c.alias {
                    Some(a) => write!(f, "{} → {}", c.column, a)?,
                    None => write!(f, "{}", c.column)?,
                }
            }
            write!(f, "]({input})")
        }
        RaExpr::Product { left, right } => write!(f, "({left} × {right})"),
        RaExpr::Join { left, right, condition } => write!(f, "({left} ⋈[{condition}] {right})"),
        RaExpr::Union { left, right } => write!(f, "({left} ∪ {right})"),
        RaExpr::Intersect { left, right } => write!(f, "({left} ∩ {right})"),
        RaExpr::Difference { left, right } => write!(f, "({left} − {right})"),
        RaExpr::SemiJoin { left, right, condition } => write!(f, "({left} ⋉[{condition}] {right})"),
        RaExpr::AntiJoin { left, right, condition } => write!(f, "({left} ▷[{condition}] {right})"),
        RaExpr::UnifySemiJoin { left, right } => write!(f, "({left} ⋉⇑ {right})"),
        RaExpr::UnifyAntiSemiJoin { left, right } => write!(f, "({left} ⋉̸⇑ {right})"),
        RaExpr::Rename { input, columns } => write!(f, "ρ[{}]({input})", columns.join(", ")),
        RaExpr::Distinct { input } => write!(f, "δ({input})"),
        RaExpr::Aggregate { input, group_by, aggregates } => {
            write!(f, "γ[{}; ", group_by.join(", "))?;
            for (i, a) in aggregates.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match &a.column {
                    Some(c) => write!(f, "{}({c}) → {}", a.func, a.alias)?,
                    None => write!(f, "{} → {}", a.func, a.alias)?,
                }
            }
            write!(f, "]({input})")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algebra::builder::eq;
    use crate::algebra::expr::RaExpr;

    #[test]
    fn display_single_line() {
        let q = RaExpr::relation("r").select(eq("a", "b")).project(&["a"]);
        assert_eq!(q.to_string(), "π[a](σ[a = b](r))");
    }

    #[test]
    fn display_difference_and_antijoin() {
        let q = RaExpr::relation("r").difference(RaExpr::relation("s"));
        assert_eq!(q.to_string(), "(r − s)");
        let a = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        assert!(a.to_string().contains("▷"));
    }
}
