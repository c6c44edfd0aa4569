//! Joins that only test existence become semijoins.
//!
//! `L ⋈_θ R → L ⋉_θ R` when no column of `R` is read above the join and the
//! consumer cannot tell how many times a row arrives. The translation's
//! null-aware keys make the difference large: under `A = B OR A IS NULL`
//! every left row with a `NULL` key pairs with *all* of `R`, and the join
//! materialises each pair where the semijoin stops at the first.
//!
//! **Why it is sound.** Selections and joins pass duplicate rows on, so in
//! general a join may not be replaced by something that emits each left row
//! once. Two consumers do not see the difference: a projection, which
//! removes duplicates (set semantics), and the right side of an
//! (anti-)semijoin, which only asks whether a partner exists. Below either,
//! all that matters of a subexpression is the *set* of its rows over the
//! columns read above it — and over `L`'s columns `L ⋈_θ R` and `L ⋉_θ R`
//! are the same set, for every `θ` and under both null semantics (both
//! evaluate `θ` on the same pairs). That property travels down through
//! selections, distincts, both inputs of a join and the preserved side of an
//! (anti-)semijoin, collecting the columns their conditions read. It stops
//! at the plan root and under an aggregate (`COUNT` sees multiplicities),
//! and — conservatively — at every consumer that reads its input by position
//! or as whole rows (rename, the set operations, products, the unification
//! semijoins, division): the semijoin drops `R`'s columns from the schema.
//!
//! **Which columns are `R`'s.** A column belongs to the input
//! [`JoinSides`] attributes it to, the rule the engine's compiler resolves
//! the pair by. A join's condition and what is read above it name columns of
//! `left ++ right`, and each goes down to the input it belongs to and to no
//! other, so `l2.k` is never taken for the `l1.k` of a join further down. An
//! (anti-)semijoin's output is its left input alone: only its condition is
//! split, and what is read above goes to the left as it is — a `d` read
//! there is the left's, however many `d`s the right side has. Splitting
//! needs the schemas of both inputs before either is walked; a
//! [`SchemaMemo`] infers each node's once however deep the joins nest.
//! Columns an ancestor reads resolve to the same column after `R`'s are
//! gone — removing columns never makes a name ambiguous.

use crate::equi::{JoinSides, Side};
use crate::passes::collapse::project_over;
use crate::{PlanError, Result};
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::{Catalog, SchemaMemo};
use certus_data::Schema;
use std::sync::Arc;

/// Rewrite every join whose right columns nobody reads, under a consumer
/// that ignores duplicate rows, to a semijoin.
pub fn join_to_semijoin(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    if !has_join(expr) {
        return Ok(expr.clone());
    }
    Ok(Walk { schemas: SchemaMemo::new(catalog) }.rewrite(expr, None)?.0)
}

fn has_join(expr: &RaExpr) -> bool {
    expr.any_node(&mut |n| matches!(n, RaExpr::Join { .. }))
}

struct Walk<'e> {
    /// The output schema of every node of the input asked about so far.
    schemas: SchemaMemo<'e>,
}

impl<'e> Walk<'e> {
    fn schema(&mut self, expr: &'e RaExpr) -> Result<Arc<Schema>> {
        self.schemas.schema_of(expr).map_err(PlanError::Algebra)
    }

    /// The output schema of `node` rewritten: `narrower`, or what it was.
    fn schema_after(
        &mut self,
        node: &'e RaExpr,
        narrower: Option<Arc<Schema>>,
    ) -> Result<Arc<Schema>> {
        narrower.map_or_else(|| self.schema(node), Ok)
    }

    /// `columns` by the input of a join-like node they belong to: the left's
    /// and the right's.
    fn by_side<'n>(
        &mut self,
        left: &'e RaExpr,
        right: &'e RaExpr,
        columns: impl Iterator<Item = &'n str>,
    ) -> Result<[Vec<&'n str>; 2]> {
        let (left, right) = (self.schema(left)?, self.schema(right)?);
        let sides = JoinSides::new(&left, &right);
        let mut by_side = [Vec::new(), Vec::new()];
        for column in columns {
            match sides.side_of(column) {
                Some(Side::Left) => by_side[0].push(column),
                Some(Side::Right) => by_side[1].push(column),
                None => {}
            }
        }
        Ok(by_side)
    }

    /// Rewrite below a consumer that sees only the set of rows over the
    /// columns in `read`, or — `None` — every column of every row. Returns
    /// the node's output schema with it where a semijoin made it narrower.
    fn rewrite(
        &mut self,
        expr: &'e RaExpr,
        read: Option<&[&str]>,
    ) -> Result<(RaExpr, Option<Arc<Schema>>)> {
        Ok(match expr {
            RaExpr::Project { input, columns } => {
                let sources: Vec<&str> = columns.iter().map(|c| c.column.as_str()).collect();
                let projected = match self.rewrite(input, Some(&sources))? {
                    // Over fewer columns the projection may have become the
                    // identity: leave what `collapse` makes of that.
                    (input, Some(narrower)) => project_over(input, columns.clone(), &narrower),
                    (input, None) => input.project_cols(columns.clone()),
                };
                (projected, None)
            }
            RaExpr::Select { input, condition } => {
                let columns = read.map(|_| condition.columns()).unwrap_or_default();
                let below: Option<Vec<&str>> = read.map(|read| {
                    read.iter().copied().chain(columns.iter().map(String::as_str)).collect()
                });
                let (input, narrower) = self.rewrite(input, below.as_deref())?;
                (input.select(condition.clone()), narrower)
            }
            RaExpr::Distinct { input } => {
                let (input, narrower) = self.rewrite(input, read)?;
                (input.distinct(), narrower)
            }
            RaExpr::Join { left, right, condition } if read.is_some() => {
                let read = read.unwrap_or_default();
                let columns = condition.columns();
                // What is read above names a column of `left ++ right`.
                let above_or_here = read.iter().copied().chain(columns.iter().map(String::as_str));
                let [l_read, r_read] = self.by_side(left, right, above_or_here)?;
                let (l, l_narrower) = self.rewrite(left, Some(&l_read))?;
                let (r, r_narrower) = self.rewrite(right, Some(&r_read))?;
                if !read.iter().any(|c| r_read.contains(c)) {
                    (l.semi_join(r, condition.clone()), Some(self.schema_after(left, l_narrower)?))
                } else if l_narrower.is_none() && r_narrower.is_none() {
                    (l.join(r, condition.clone()), None)
                } else {
                    let l_schema = self.schema_after(left, l_narrower)?;
                    let both = l_schema.concat(&*self.schema_after(right, r_narrower)?);
                    (l.join(r, condition.clone()), Some(Arc::new(both)))
                }
            }
            RaExpr::SemiJoin { left, right, condition }
            | RaExpr::AntiJoin { left, right, condition } => {
                if !has_join(left) && !has_join(right) {
                    return Ok((expr.clone(), None));
                }
                let columns = condition.columns();
                let [l_here, r_here] =
                    self.by_side(left, right, columns.iter().map(String::as_str))?;
                // The preserved side is this node's output: what is read
                // above names its columns and is all read there, together
                // with the condition's. The other side is only asked whether
                // a partner exists.
                let l_read: Option<Vec<&str>> =
                    read.map(|read| read.iter().copied().chain(l_here).collect());
                let (l, narrower) = self.rewrite(left, l_read.as_deref())?;
                let (r, _) = self.rewrite(right, Some(&r_here))?;
                let rewritten = match expr {
                    RaExpr::SemiJoin { .. } => l.semi_join(r, condition.clone()),
                    _ => l.anti_join(r, condition.clone()),
                };
                (rewritten, narrower)
            }
            other => (other.map_children(&mut |c| self.rewrite(c, None).map(|(c, _)| c))?, None),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, eq_const, is_null};
    use certus_algebra::condition::Condition;
    use certus_algebra::eval::eval;
    use certus_algebra::expr::AggExpr;
    use certus_algebra::NullSemantics;
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::{Database, Value};

    /// `r` and `s` hold duplicate rows and nulls on the join columns.
    fn db() -> Database {
        let (int, null) = (Value::Int, |n| Value::Null(NullId(n)));
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![int(1), int(10)],
                    vec![int(1), int(10)],
                    vec![int(2), null(1)],
                    vec![null(2), int(30)],
                    vec![int(4), int(40)],
                ],
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["c", "d"],
                vec![
                    vec![int(1), int(10)],
                    vec![int(1), int(10)],
                    vec![int(1), int(30)],
                    vec![null(3), int(30)],
                    vec![int(2), null(4)],
                ],
            ),
        );
        db.insert_relation(
            "t",
            rel(
                &["e", "f"],
                vec![vec![int(1), int(30)], vec![int(4), null(5)], vec![int(5), int(5)]],
            ),
        );
        db
    }

    fn r() -> RaExpr {
        RaExpr::relation("r")
    }
    fn s() -> RaExpr {
        RaExpr::relation("s")
    }
    fn t() -> RaExpr {
        RaExpr::relation("t")
    }

    /// `x = y OR x IS NULL`: the translation's `θ*` of an equality.
    fn null_aware(x: &str, y: &str) -> Condition {
        eq(x, y).or(is_null(x))
    }

    /// Run the pass and check the answer is the same *bag* — schema, rows and
    /// multiplicities — under both null semantics.
    fn rewritten(q: &RaExpr) -> RaExpr {
        let db = db();
        let out = join_to_semijoin(q, &db).unwrap();
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let before = eval(q, &db, semantics).unwrap().sorted();
            let after = eval(&out, &db, semantics).unwrap().sorted();
            assert_eq!(before.schema(), after.schema(), "{q} vs {out}");
            assert_eq!(before.tuples(), after.tuples(), "{q} vs {out}");
        }
        assert_eq!(join_to_semijoin(&out, &db).unwrap(), out, "not idempotent on {q}");
        out
    }

    #[test]
    fn join_under_a_projection_of_left_columns_becomes_a_semijoin() {
        // `r` holds (1, 10) twice and `s` has three partners for it: the
        // join emits six pairs, the semijoin two rows, the projection one.
        let q = r().join(s(), eq("a", "c")).project(&["b"]);
        assert_eq!(rewritten(&q), r().semi_join(s(), eq("a", "c")).project(&["b"]));
        // Over `r`'s columns alone `π[a, b]` is the identity: what is left
        // is the deduplication, as `collapse` writes it.
        let q = r().join(s(), eq("a", "c")).project(&["a", "b"]);
        assert_eq!(rewritten(&q), r().semi_join(s(), eq("a", "c")).distinct());
        // Selections and distincts in between pass the property on, and what
        // they read of the left side is no reason to keep the join.
        let q = r().join(s(), eq("a", "c")).select(eq_const("b", 10i64)).distinct().project(&["a"]);
        assert_eq!(
            rewritten(&q),
            r().semi_join(s(), eq("a", "c"))
                .select(eq_const("b", 10i64))
                .distinct()
                .project(&["a"])
        );
        // So does the preserved side of an (anti-)semijoin.
        let q = r().join(s(), eq("a", "c")).anti_join(t(), eq("b", "f")).project(&["a"]);
        assert_eq!(
            rewritten(&q),
            r().semi_join(s(), eq("a", "c")).anti_join(t(), eq("b", "f")).project(&["a"])
        );
    }

    #[test]
    fn join_on_the_right_of_an_antijoin_becomes_a_semijoin() {
        // At the root the anti-join's own rows must stay what they are; its
        // right side is only asked whether a partner exists.
        for anti in [true, false] {
            let wrap = |inner: RaExpr| match anti {
                true => t().anti_join(inner, eq("e", "a")),
                false => t().semi_join(inner, eq("e", "a")),
            };
            let q = wrap(r().join(s(), eq("b", "d")));
            assert_eq!(rewritten(&q), wrap(r().semi_join(s(), eq("b", "d"))));
            // The condition reading a right column keeps the join.
            let q = match anti {
                true => t().anti_join(r().join(s(), eq("b", "d")), eq("e", "c")),
                false => t().semi_join(r().join(s(), eq("b", "d")), eq("e", "c")),
            };
            assert_eq!(rewritten(&q), q);
        }
    }

    #[test]
    fn a_chain_of_three_keeps_only_the_join_whose_right_column_is_read() {
        // Q⁺4's shape: the second join's right column is the third's key,
        // the anti-join above reads one column of the first input.
        let (u, v) = (RaExpr::relation_as("s", "u"), RaExpr::relation_as("s", "v"));
        let q = t().anti_join(
            r().join(s(), null_aware("a", "c"))
                .join(u.clone(), null_aware("b", "u.d"))
                .join(v.clone(), null_aware("u.c", "v.c")),
            eq("e", "a"),
        );
        assert_eq!(
            rewritten(&q),
            t().anti_join(
                r().semi_join(s(), null_aware("a", "c"))
                    .join(u, null_aware("b", "u.d"))
                    .semi_join(v, null_aware("u.c", "v.c")),
                eq("e", "a"),
            )
        );
    }

    #[test]
    fn a_column_goes_down_to_the_input_it_belongs_to() {
        // `e` is a column of the anti-join's left input. `t AS w`, on the
        // right of the join inside, would answer to it by base name; it is
        // never asked.
        let w = RaExpr::relation_as("t", "w");
        let q = t().anti_join(r().join(w.clone(), eq("b", "w.f")), eq("e", "a"));
        assert_eq!(rewritten(&q), t().anti_join(r().semi_join(w, eq("b", "w.f")), eq("e", "a")));
    }

    #[test]
    fn columns_read_above_a_semijoin_are_its_left_input_s() {
        // The output of an (anti-)semijoin is its left input: above one, `d`
        // names `u.d` however many `d`s the right side has, and `r ⋈ u`
        // stays a join.
        let (u, w) = (RaExpr::relation_as("s", "u"), RaExpr::relation_as("s", "w"));
        let inner = r().join(u.clone(), eq("a", "u.c"));
        for anti in [true, false] {
            let filtered = |left: RaExpr, right: RaExpr, on: Condition| match anti {
                true => left.anti_join(right, on),
                false => left.semi_join(right, on),
            };
            // The right side answers to the base name too (`w.d`) …
            let by_w = filtered(inner.clone(), w.clone(), eq("b", "w.d"));
            for q in [
                by_w.clone().project(&["d"]),
                by_w.clone().select(eq_const("d", 10i64)).project(&["a"]),
            ] {
                assert_eq!(rewritten(&q), q);
            }
            // … or has the name in full (`c` of `s`; above, `c` is `u.c`).
            let q = filtered(inner.clone(), s(), eq("b", "d")).project(&["c"]);
            assert_eq!(rewritten(&q), q);
            // Nothing of `u` read above: the join goes, as under a projection.
            let q = by_w.project(&["b"]);
            let semi = r().semi_join(u.clone(), eq("a", "u.c"));
            assert_eq!(rewritten(&q), filtered(semi, w.clone(), eq("b", "w.d")).project(&["b"]));
        }
    }

    #[test]
    fn null_aware_key_is_kept_verbatim() {
        // (NULL, 30) of `r` matches all of `s`; (2, NULL) matches on 2.
        let theta = null_aware("a", "c").and(eq("b", "d").or(is_null("b")).or(is_null("d")));
        let q = r().join(s(), theta.clone()).project(&["b"]);
        assert_eq!(rewritten(&q), r().semi_join(s(), theta).project(&["b"]));
    }

    #[test]
    fn aliased_self_join_reading_one_alias_becomes_a_semijoin() {
        let (l1, l2) = (RaExpr::relation_as("r", "l1"), RaExpr::relation_as("r", "l2"));
        let theta = eq("l1.a", "l2.a").and(eq("l1.b", "l2.b"));
        let q = l1.clone().join(l2.clone(), theta.clone()).project(&["l1.a"]);
        assert_eq!(
            rewritten(&q),
            l1.clone().semi_join(l2.clone(), theta.clone()).project(&["l1.a"])
        );
        // `l2.b` is the right side's, whatever its base name resolves to on
        // the left.
        let q = l1.join(l2, theta).project(&["l2.b"]);
        assert_eq!(rewritten(&q), q);
    }

    #[test]
    fn joins_whose_duplicates_or_right_columns_are_seen_stay() {
        let join = r().join(s(), eq("a", "c"));
        let unchanged = [
            // The plan root returns its rows as they are.
            join.clone(),
            join.clone().select(eq_const("b", 10i64)),
            join.clone().semi_join(t(), eq("a", "e")),
            // COUNT(*) sees multiplicities, projected afterwards or not.
            join.clone().aggregate(&["a"], vec![AggExpr::count_star("n")]),
            join.clone().aggregate(&["a"], vec![AggExpr::count_star("n")]).project(&["n"]),
            // A right column read directly above, and two levels up.
            join.clone().select(eq_const("d", 10i64)).project(&["a"]),
            join.clone().select(eq_const("b", 10i64)).project(&["a", "d"]),
            // Positional consumers.
            join.clone().rename(&["w", "x", "y", "z"]).project(&["w"]),
            join.clone().union(join.clone()).project(&["a"]),
            join.clone().difference(t().product(t())).project(&["a"]),
        ];
        for q in unchanged {
            assert_eq!(rewritten(&q), q);
        }
        // Below a positional consumer the walk starts over.
        let q = join.clone().project(&["a"]).rename(&["x"]).union(t().project(&["e"]));
        assert_eq!(
            rewritten(&q),
            r().semi_join(s(), eq("a", "c"))
                .project(&["a"])
                .rename(&["x"])
                .union(t().project(&["e"]))
        );
    }
}
