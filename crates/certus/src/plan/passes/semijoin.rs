//! Joins that only test existence become semijoins, and key lookups go
//! into the join input they read.
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
//! semijoins): the semijoin drops `R`'s columns from the schema.
//!
//! **Which columns are `R`'s.** A column belongs to the input
//! `JoinSides` attributes it to, the rule the engine's compiler resolves
//! the pair by. A join's condition and what is read above it name columns of
//! `left ++ right`, and each goes down to the input it belongs to and to no
//! other, so `l2.k` is never taken for the `l1.k` of a join further down. An
//! (anti-)semijoin's output is its left input alone: only its condition is
//! split, and what is read above goes to the left as it is — a `d` read
//! there is the left's, however many `d`s the right side has. Splitting
//! needs the schemas of both inputs before either is walked; a
//! `SchemaMemo` infers each node's once however deep the joins nest.
//! Columns an ancestor reads resolve to the same column after `R`'s are
//! gone — removing columns never makes a name ambiguous.
//!
//! **Key lookups go into the input they read.** `(L ⋈_θ R) ⋉_φ S →
//! L ⋈_θ (R ⋉_φ S)` when `φ` reads only columns of `R` and `S`, and
//! `(L ⋈_θ R) ⋉_φ S → (L ⋉_φ S) ⋈_θ R` when it reads only `L`'s and `S`'s;
//! the same for `▷`. A joined pair survives by its `R` part (or its `L`
//! part) alone, so this is a strong equivalence under both null semantics,
//! at any consumer, like a selection pushed into one input of a join. It
//! opens work for the rule above: once `φ` has gone down, nothing above the
//! join may read `R` any more, and the join becomes a semijoin — Q⁺4's
//! `⋈ supplier`, whose `s_nationkey` only `⋉ nation` read, pairs each
//! `lineitem` row with a `NULL` `l_suppkey` with every supplier; pushed, it
//! is a semijoin over `supplier ⋉ nation`. A semijoin pushed below a join
//! may meet another join there, and the join it leaves behind may become a
//! semijoin that can go down in turn (a chain `lineitem ⋈ supplier ⋈ nation
//! ⋈ region`), so both rules run in this one walk: it pushes each
//! (anti-)semijoin as far as it goes before it descends, and a second walk
//! finds nothing to do.
//!
//! Only *key lookups* move: `S` is a base relation with a declared key,
//! under selections, distincts and (anti-)semijoins, and `φ`'s equi keys on
//! `S`, null-aware ones included, cover that key. Such a lookup is cheap
//! and selective wherever it runs. An existence test that is not one —
//! Q1's correlated `⋉ l2` and `▷ l3`, keyed on `l_orderkey` alone — tables
//! a relation as large as the input it filters, and pushed below the join
//! that filters that input it runs on more rows: measured at scale 0.002,
//! Q⁺1 took 5–8× as long with them pushed into `l1`.

use crate::algebra::condition::Condition;
use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::{Catalog, SchemaMemo};
use crate::data::Schema;
use crate::plan::equi::{split_equi, JoinSides, Side};
use crate::plan::passes::collapse::project_over;
use crate::Result;
use std::sync::Arc;

/// Rewrite every join whose right columns nobody reads, under a consumer
/// that ignores duplicate rows, to a semijoin, and push every key lookup
/// into the join input it reads.
pub(crate) fn join_to_semijoin(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    if !has_join(expr) {
        return Ok(expr.clone());
    }
    Ok(Walk { catalog, schemas: SchemaMemo::new(catalog) }.rewrite(expr, None)?.0)
}

fn has_join(expr: &RaExpr) -> bool {
    expr.any_node(&mut |n| matches!(n, RaExpr::Join { .. }))
}

/// The base relation `expr` keeps a subset of the rows of: itself, under
/// selections, distincts and the preserved side of (anti-)semijoins.
fn base_table(expr: &RaExpr) -> Option<&str> {
    match expr {
        RaExpr::Relation { name, .. } => Some(name),
        RaExpr::Select { input, .. } | RaExpr::Distinct { input } => base_table(input),
        RaExpr::SemiJoin { left, .. } | RaExpr::AntiJoin { left, .. } => base_table(left),
        _ => None,
    }
}

/// `columns` by the input of a join-like node over `left ++ right` they
/// belong to: the left's and the right's.
fn by_side<'n>(
    left: &Schema,
    right: &Schema,
    columns: impl Iterator<Item = &'n str>,
) -> [Vec<&'n str>; 2] {
    let sides = JoinSides::new(left, right);
    let mut by_side = [Vec::new(), Vec::new()];
    for column in columns {
        match sides.side_of(column) {
            Some(Side::Left) => by_side[0].push(column),
            Some(Side::Right) => by_side[1].push(column),
            None => {}
        }
    }
    by_side
}

/// The right side of an (anti-)semijoin, already rewritten, with its
/// condition: `⋉_condition table` or `▷_condition table`.
struct Exists<'e> {
    table: RaExpr,
    /// `table`'s output schema.
    schema: Arc<Schema>,
    condition: &'e Condition,
    anti: bool,
}

impl Exists<'_> {
    /// `left ⋉ self` or `left ▷ self`.
    fn over(self, left: RaExpr) -> RaExpr {
        match self.anti {
            false => left.semi_join(self.table, self.condition.clone()),
            true => left.anti_join(self.table, self.condition.clone()),
        }
    }
}

/// An input of a join as the walk sees it: a node of the expression with
/// (anti-)semijoins pushed onto it, innermost first.
struct Input<'e> {
    node: &'e RaExpr,
    tests: Vec<Exists<'e>>,
}

impl<'e> Input<'e> {
    fn new(node: &'e RaExpr, tests: Vec<Exists<'e>>) -> Self {
        Input { node, tests }
    }
}

struct Walk<'e> {
    catalog: &'e dyn Catalog,
    /// The output schema of every node of the input asked about so far.
    schemas: SchemaMemo<'e>,
}

impl<'e> Walk<'e> {
    fn schema(&mut self, expr: &'e RaExpr) -> Result<Arc<Schema>> {
        self.schemas.schema_of(expr)
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
            RaExpr::Join { left, right, condition } => self.join(
                Input::new(left, Vec::new()),
                Input::new(right, Vec::new()),
                condition,
                read,
            )?,
            RaExpr::SemiJoin { .. } | RaExpr::AntiJoin { .. } if has_join(expr) => {
                self.tested(expr, Vec::new(), read)?
            }
            RaExpr::SemiJoin { .. } | RaExpr::AntiJoin { .. } => (expr.clone(), None),
            other => (other.map_children(&mut |c| self.rewrite(c, None).map(|(c, _)| c))?, None),
        })
    }

    /// [`Walk::rewrite`] of an input.
    fn rewrite_input(
        &mut self,
        input: Input<'e>,
        read: Option<&[&str]>,
    ) -> Result<(RaExpr, Option<Arc<Schema>>)> {
        match input.tests.is_empty() {
            true => self.rewrite(input.node, read),
            false => self.tested(input.node, input.tests, read),
        }
    }

    /// The right side of `left ⋉_condition right` (or `▷`), rewritten. It
    /// is only asked whether a partner exists.
    fn exists(
        &mut self,
        left: &'e RaExpr,
        right: &'e RaExpr,
        condition: &'e Condition,
        anti: bool,
    ) -> Result<Exists<'e>> {
        let (l_schema, r_schema) = (self.schema(left)?, self.schema(right)?);
        let columns = condition.columns();
        let [_, r_here] = by_side(&l_schema, &r_schema, columns.iter().map(String::as_str));
        let (table, narrower) = self.rewrite(right, Some(&r_here))?;
        Ok(Exists { table, schema: narrower.unwrap_or(r_schema), condition, anti })
    }

    /// `node` with `tests` over it. The (anti-)semijoins at the top of
    /// `node` go beneath `tests` in one stack; the key lookups in it for a
    /// join at the bottom go into the input of the join they read, past the
    /// tests that stay: (anti-)semijoins over one input commute, as each
    /// keeps or drops a row by that row alone.
    fn tested(
        &mut self,
        mut node: &'e RaExpr,
        tests: Vec<Exists<'e>>,
        read: Option<&[&str]>,
    ) -> Result<(RaExpr, Option<Arc<Schema>>)> {
        let mut stack = Vec::new();
        while let RaExpr::SemiJoin { left, right, condition }
        | RaExpr::AntiJoin { left, right, condition } = node
        {
            let anti = matches!(node, RaExpr::AntiJoin { .. });
            stack.push(self.exists(left, right, condition, anti)?);
            node = left;
        }
        stack.reverse();
        stack.extend(tests);
        let schema = self.schema(node)?;
        let RaExpr::Join { left, right, condition } = node else {
            return self.over(&schema, stack, read, |walk, read| walk.rewrite(node, read));
        };
        let (mut to_left, mut to_right, mut stay) = (Vec::new(), Vec::new(), Vec::new());
        for test in stack {
            match self.lookup_side(left, right, &test)? {
                Some(Side::Left) => to_left.push(test),
                Some(Side::Right) => to_right.push(test),
                None => stay.push(test),
            }
        }
        let (left, right) = (Input::new(left, to_left), Input::new(right, to_right));
        self.over(&schema, stay, read, |walk, read| walk.join(left, right, condition, read))
    }

    /// `tests` over what `below` rewrites from a node of `schema`, which is
    /// read for what `read` names and what the tests' conditions read of it.
    fn over(
        &mut self,
        schema: &Schema,
        tests: Vec<Exists<'e>>,
        read: Option<&[&str]>,
        below: impl FnOnce(&mut Self, Option<&[&str]>) -> Result<(RaExpr, Option<Arc<Schema>>)>,
    ) -> Result<(RaExpr, Option<Arc<Schema>>)> {
        let conditions: Vec<_> = tests.iter().map(|test| test.condition.columns()).collect();
        // The preserved side is the output: what is read above names its
        // columns and is all read there, together with the conditions'.
        let below_read: Option<Vec<&str>> = read.map(|read| {
            let mut below = read.to_vec();
            for (test, columns) in tests.iter().zip(&conditions) {
                let [here, _] = by_side(schema, &test.schema, columns.iter().map(String::as_str));
                below.extend(here);
            }
            below
        });
        let (mut out, narrower) = below(self, below_read.as_deref())?;
        for test in tests {
            out = test.over(out);
        }
        Ok((out, narrower))
    }

    /// `left ⋈_condition right`: a semijoin when no column of `right` is read
    /// above.
    fn join(
        &mut self,
        left: Input<'e>,
        right: Input<'e>,
        condition: &'e Condition,
        read: Option<&[&str]>,
    ) -> Result<(RaExpr, Option<Arc<Schema>>)> {
        let Some(read) = read else {
            let (l, _) = self.rewrite_input(left, None)?;
            let (r, _) = self.rewrite_input(right, None)?;
            return Ok((l.join(r, condition.clone()), None));
        };
        let (l_schema, r_schema) = (self.schema(left.node)?, self.schema(right.node)?);
        let columns = condition.columns();
        // What is read above names a column of `left ++ right`.
        let above_or_here = read.iter().copied().chain(columns.iter().map(String::as_str));
        let [l_read, r_read] = by_side(&l_schema, &r_schema, above_or_here);
        if !read.iter().any(|c| r_read.contains(c)) {
            let (table, narrower) = self.rewrite_input(right, Some(&r_read))?;
            let schema = narrower.unwrap_or(r_schema);
            let mut tests = left.tests;
            tests.push(Exists { table, schema, condition, anti: false });
            let (semi, narrower) = self.tested(left.node, tests, Some(read))?;
            return Ok((semi, Some(narrower.unwrap_or(l_schema))));
        }
        let (l, l_narrower) = self.rewrite_input(left, Some(&l_read))?;
        let (r, r_narrower) = self.rewrite_input(right, Some(&r_read))?;
        let narrower = (l_narrower.is_some() || r_narrower.is_some()).then(|| {
            let both = l_narrower.unwrap_or(l_schema).concat(&r_narrower.unwrap_or(r_schema));
            Arc::new(both)
        });
        Ok((l.join(r, condition.clone()), narrower))
    }

    /// The input of `l ⋈ r` that `exists` is a key lookup for: every column
    /// its condition reads is of that input or of its table, and its keys
    /// on the table cover the declared key of the table's base relation.
    fn lookup_side(
        &mut self,
        l: &'e RaExpr,
        r: &'e RaExpr,
        exists: &Exists<'e>,
    ) -> Result<Option<Side>> {
        let key = match base_table(&exists.table) {
            Some(table) => self.catalog.table_key(table),
            None => return Ok(None),
        };
        if key.is_empty() {
            return Ok(None);
        }
        let (l_schema, r_schema) = (self.schema(l)?, self.schema(r)?);
        let joined = l_schema.concat(&r_schema);
        let (outer, inner) =
            (JoinSides::new(&joined, &exists.schema), JoinSides::new(&l_schema, &r_schema));
        let mut side = None;
        for column in exists.condition.columns() {
            match outer.side_of(&column) {
                Some(Side::Right) => {}
                Some(Side::Left) if side.is_none() => side = inner.side_of(&column),
                Some(Side::Left) if side == inner.side_of(&column) => {}
                _ => return Ok(None),
            }
        }
        let Some(side) = side else { return Ok(None) };
        let input = if side == Side::Left { &l_schema } else { &r_schema };
        let keys = split_equi(exists.condition, input, &exists.schema).right_keys;
        let table = &exists.schema;
        let covered = key.iter().all(|k| {
            let at = table.find(k);
            at.is_some() && keys.iter().any(|c| table.find(c) == at)
        });
        Ok(covered.then_some(side))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, eq_const, is_null, neq};
    use crate::algebra::condition::Condition;
    use crate::algebra::eval::eval;
    use crate::algebra::expr::AggExpr;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::database::TableDef;
    use crate::data::null::NullId;
    use crate::data::{Attribute, Database, Tuple, Value, ValueType};

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
        // Keyed tables: `k` on `k`, `li` on `(o, n)` like `lineitem`.
        let keyed = |db: &mut Database, name: &str, columns: &[&str], key: &[&str], rows| {
            let attrs = columns.iter().map(|c| match key.contains(c) {
                true => Attribute::not_null(*c, ValueType::Int),
                false => Attribute::new(*c, ValueType::Int),
            });
            let def = TableDef::new(name, Schema::new(attrs.collect())).with_key(key);
            db.create_table(def).unwrap();
            let rows: Vec<Tuple> = rows;
            db.append(name, &rows).unwrap();
        };
        let row = |values: Vec<Value>| Tuple::new(values);
        let k_rows = vec![
            row(vec![int(1), int(10)]),
            row(vec![int(2), null(6)]),
            row(vec![int(4), int(1)]),
            row(vec![int(10), int(4)]),
        ];
        keyed(&mut db, "k", &["k", "v"], &["k"], k_rows);
        let li_rows = vec![
            row(vec![int(1), int(1), int(10)]),
            row(vec![int(1), int(2), int(30)]),
            row(vec![int(2), int(1), null(7)]),
            row(vec![int(4), int(1), int(40)]),
        ];
        keyed(&mut db, "li", &["o", "n", "x"], &["o", "n"], li_rows);
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
    fn k() -> RaExpr {
        RaExpr::relation("k")
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

    /// `left ⋉_on right`, or `left ▷_on right`.
    fn exists(anti: bool, left: RaExpr, right: RaExpr, on: Condition) -> RaExpr {
        match anti {
            true => left.anti_join(right, on),
            false => left.semi_join(right, on),
        }
    }

    #[test]
    fn a_key_lookup_goes_into_the_join_input_it_reads() {
        for anti in [false, true] {
            let lookup = |left: RaExpr, on: Condition| exists(anti, left, k(), on);
            // `φ` reads `s`: into the right input, at the root too.
            let q = lookup(r().join(s(), eq("a", "c")), eq("d", "k"));
            assert_eq!(rewritten(&q), r().join(lookup(s(), eq("d", "k")), eq("a", "c")));
            // `φ` reads `r`: into the left input. A null-aware key is a key.
            let q = lookup(r().join(s(), eq("a", "c")), null_aware("b", "k"));
            assert_eq!(rewritten(&q), lookup(r(), null_aware("b", "k")).join(s(), eq("a", "c")));
            // Past the existence tests that stay above the join, and two
            // lookups stacked on it each into its own input.
            let join = r().join(s(), eq("a", "c"));
            let q = lookup(exists(!anti, join.clone(), t(), eq("b", "e")), eq("d", "k"));
            let pushed = r().join(lookup(s(), eq("d", "k")), eq("a", "c"));
            assert_eq!(rewritten(&q), exists(!anti, pushed, t(), eq("b", "e")));
            let q = lookup(lookup(join, eq("d", "k")), eq("b", "k"));
            let pushed = lookup(r(), eq("b", "k")).join(lookup(s(), eq("d", "k")), eq("a", "c"));
            assert_eq!(rewritten(&q), pushed);
            // Under a projection the join it leaves behind reads nothing of
            // `s` any more, and becomes a semijoin.
            let q =
                lookup(r().join(s(), null_aware("a", "c")), null_aware("d", "k")).project(&["a"]);
            assert_eq!(
                rewritten(&q),
                r().semi_join(lookup(s(), null_aware("d", "k")), null_aware("a", "c"))
                    .project(&["a"])
            );
        }
    }

    #[test]
    fn a_chain_of_key_lookups_goes_down_in_one_walk() {
        // `lineitem ⋈ supplier ⋈ nation ⋈ region`: each lookup, once pushed,
        // leaves a join that only tests existence, whose own condition is a
        // lookup that goes down in turn.
        let w = RaExpr::relation_as("k", "w");
        let q = r()
            .join(s(), eq("a", "c"))
            .join(k(), eq("b", "k"))
            .join(w.clone(), eq("v", "w.k"))
            .project(&["a"]);
        assert_eq!(
            rewritten(&q),
            r().semi_join(k().semi_join(w, eq("v", "w.k")), eq("b", "k"))
                .semi_join(s(), eq("a", "c"))
                .project(&["a"])
        );
    }

    #[test]
    fn an_aliased_lookup_on_the_whole_key_finds_its_alias() {
        // `l1.o` and `l2.o` both answer to `o`: the condition's columns go to
        // the alias they name, whichever side of the join it is on.
        let (l1, l2) = (RaExpr::relation_as("li", "l1"), RaExpr::relation_as("li", "l2"));
        let whole_key = eq("l1.o", "l2.o").and(eq("l2.n", "l1.n"));
        for anti in [false, true] {
            let q =
                exists(anti, r().join(l1.clone(), eq("a", "l1.o")), l2.clone(), whole_key.clone());
            let pushed = exists(anti, l1.clone(), l2.clone(), whole_key.clone());
            assert_eq!(rewritten(&q), r().join(pushed, eq("a", "l1.o")));
            let q =
                exists(anti, l1.clone().join(r(), eq("a", "l1.o")), l2.clone(), whole_key.clone());
            let pushed = exists(anti, l1.clone(), l2.clone(), whole_key.clone());
            assert_eq!(rewritten(&q), pushed.join(r(), eq("a", "l1.o")));
        }
    }

    #[test]
    fn existence_tests_that_are_not_key_lookups_stay_above_the_join() {
        let (l1, l2) = (RaExpr::relation_as("li", "l1"), RaExpr::relation_as("li", "l2"));
        let join = r().join(s(), eq("a", "c"));
        for anti in [false, true] {
            let unchanged = [
                // Q1's `⋉ l2` / `▷ l3`: keyed on `o` alone, not on `(o, n)`.
                exists(
                    anti,
                    r().join(l1.clone(), eq("a", "l1.o")),
                    l2.clone(),
                    eq("l2.o", "l1.o").and(neq("l2.x", "l1.x")),
                ),
                // `φ` reads both inputs of the join.
                exists(anti, join.clone(), k(), eq("b", "k").and(eq("d", "v"))),
                // `S` has no key, or is not a base relation.
                exists(anti, join.clone(), t(), eq("d", "e")),
                exists(anti, join.clone(), k().project(&["k"]), eq("d", "k")),
                // The key compared with a constant is not a key of `φ`.
                exists(anti, join.clone(), k(), eq("d", "v").and(eq_const("k", 1i64))),
            ];
            for q in unchanged {
                assert_eq!(rewritten(&q), q);
            }
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
