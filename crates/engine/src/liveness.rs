//! Column liveness: a join emits the columns an ancestor reads, nothing else.
//!
//! One top-down pass over the compiled operator tree, run by
//! [`CompiledPlan::compile`](crate::CompiledPlan::compile) after every name
//! is a position. Each operator receives the set of its output positions an
//! ancestor reads and answers with the positions it now emits
//! ([`narrow`]); the caller remaps what it compiled against the old
//! positions — keys, residuals, null-aware full conditions, fused filters
//! and projections, aggregate columns — once, here, so execution does no
//! more work per row than before.
//!
//! The pass **inserts no projection and never narrows a borrowed scan**:
//! only the operators that already build new rows (the joins) build narrower
//! ones. An operator that passes rows through (a semijoin's preserved side, a
//! filter-only pipeline, a rename) forwards the request and reports what
//! its input now emits, which may be more than was asked for. Where dropping
//! a column could merge rows that set semantics keeps apart — under a
//! deduplicating pipeline, a set operation, `Distinct`, a unification
//! semijoin, division, and at the plan root — every column is live. Results
//! are therefore byte-identical: same rows, same order, same multiplicities.

use crate::compile::{vec_plan_of, CompiledExpr, CompiledPredicate, Emit, Step};
use certus_data::Schema;
use std::sync::Arc;

/// A dropped column in an old→new position map. Never read: an operator
/// always asks its inputs for the columns its own condition reads.
const DROPPED: usize = usize::MAX;

/// Run the pass over a whole plan: the answer keeps every column.
pub(crate) fn narrow_plan(root: &mut CompiledExpr) {
    let kept = narrow(root, &all(root.schema().arity()));
    debug_assert_eq!(kept.len(), root.schema().arity(), "the plan root keeps every column");
}

fn all(arity: usize) -> Vec<usize> {
    (0..arity).collect()
}

fn sorted(mut positions: Vec<usize>) -> Vec<usize> {
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// The old→new position map of an operator that now emits `kept` (ascending
/// old positions) of its former `arity` columns.
fn old_to_new(kept: &[usize], arity: usize) -> Vec<usize> {
    let mut map = vec![DROPPED; arity];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = new;
    }
    map
}

/// Project an operator's output schema onto the columns it still emits.
fn keep_columns(schema: &mut Arc<Schema>, kept: &[usize]) {
    if kept.len() < schema.arity() {
        *schema = schema.project(kept).shared();
    }
}

fn remap_positions(positions: &mut [usize], map: &[usize]) {
    for p in positions {
        *p = map[*p];
    }
}

/// Narrow `node` so that it emits (at least) the output positions in `live`
/// (ascending, deduplicated). Returns the old output positions it emits
/// from now on, ascending — a column's new position is its index there. A
/// node that emits everything it did returns `0..arity`; `live` covering
/// every column always yields that.
fn narrow(node: &mut CompiledExpr, live: &[usize]) -> Vec<usize> {
    match node {
        // Leaves hand out rows that exist already (a scan is borrowed).
        CompiledExpr::Scan { .. } | CompiledExpr::Values { .. } => all(node.schema().arity()),
        CompiledExpr::Fused { source, steps, schema, dedup, vec_plan, .. } => {
            // What the chain reads of its source: walk the steps upwards. A
            // chain that deduplicates decides row identity on all columns.
            let mut need = if *dedup { all(schema.arity()) } else { live.to_vec() };
            for step in steps.iter().rev() {
                match step {
                    Step::Filter(pred) => pred.pred().col_refs(&mut need),
                    Step::Project(positions) => need = positions.clone(),
                }
            }
            let source_arity = source.schema().arity();
            let kept = narrow(source, &sorted(need));
            if kept.len() == source_arity {
                return all(schema.arity());
            }
            // Steps see source positions up to and including the first
            // projection; what follows sees that projection's output.
            let map = old_to_new(&kept, source_arity);
            let mut projects = false;
            for step in steps.iter_mut() {
                match step {
                    Step::Filter(pred) => pred.remap(&map),
                    Step::Project(positions) => {
                        remap_positions(positions, &map);
                        projects = true;
                        break;
                    }
                }
            }
            *vec_plan = vec_plan_of(steps, kept.len());
            if projects {
                all(schema.arity())
            } else {
                // A filter-only chain passes its source's rows through.
                keep_columns(schema, &kept);
                kept
            }
        }
        CompiledExpr::HashJoin { left, right, keys, schema, emit, .. } => {
            let (left_keys, right_keys, preds) = keys.positional_parts();
            let (_, pair) = narrow_inputs(left, right, left_keys, right_keys, preds, live);
            emit_live(emit, schema, &pair, live, left.schema().arity() + right.schema().arity())
        }
        CompiledExpr::NlJoin { left, right, pred, schema, emit, .. } => {
            let (_, pair) = narrow_inputs(left, right, &mut [], &mut [], vec![pred], live);
            emit_live(emit, schema, &pair, live, left.schema().arity() + right.schema().arity())
        }
        // (Anti-)semijoins pass the preserved side's rows through: the right
        // side is only ever read by the condition.
        CompiledExpr::HashSemi { left, right, keys, .. } => {
            let (left_keys, right_keys, preds) = keys.positional_parts();
            narrow_inputs(left, right, left_keys, right_keys, preds, live).0
        }
        CompiledExpr::NlSemi { left, right, pred, .. } => {
            narrow_inputs(left, right, &mut [], &mut [], vec![pred], live).0
        }
        CompiledExpr::DecorrelatedSemi { left, right, pred, left_schema, .. } => {
            let mut reads = Vec::new();
            pred.pred().col_refs(&mut reads);
            let right_arity = right.schema().arity();
            let right_kept = narrow(right, &sorted(reads));
            if right_kept.len() < right_arity {
                pred.remap(&old_to_new(&right_kept, right_arity));
            }
            let kept = narrow(left, live);
            keep_columns(left_schema, &kept);
            kept
        }
        CompiledExpr::Rename { input, schema } => {
            let kept = narrow(input, live);
            keep_columns(schema, &kept);
            kept
        }
        CompiledExpr::Aggregate { input, group_pos, aggs, schema, .. } => {
            let mut reads = group_pos.clone();
            reads.extend(aggs.iter().filter_map(|(_, pos)| *pos));
            let input_arity = input.schema().arity();
            let kept = narrow(input, &sorted(reads));
            if kept.len() < input_arity {
                let map = old_to_new(&kept, input_arity);
                remap_positions(group_pos, &map);
                for pos in aggs.iter_mut().filter_map(|(_, pos)| pos.as_mut()) {
                    *pos = map[*pos];
                }
            }
            all(schema.arity())
        }
        // Row identity is decided on every column: nothing may be dropped
        // beneath these (their subtrees still narrow internally).
        CompiledExpr::Union { arms, .. } => {
            for arm in arms.iter_mut() {
                narrow_plan(arm);
            }
            all(node.schema().arity())
        }
        CompiledExpr::Intersect { left, right, .. }
        | CompiledExpr::Difference { left, right, .. }
        | CompiledExpr::UnifySemi { left, right, .. }
        | CompiledExpr::Division { left, right, .. } => {
            narrow_plan(left);
            narrow_plan(right);
            all(node.schema().arity())
        }
        CompiledExpr::Distinct { input, .. } => {
            narrow_plan(input);
            all(node.schema().arity())
        }
    }
}

/// Narrow the two inputs of a join-like operator to what `live` (positions
/// in `left ++ right`) and the operator's own condition read, and remap the
/// condition — key positions per side, `preds` over the pair — onto what the
/// inputs now deliver. Returns the left input's kept positions and the
/// old→new map of the pair.
fn narrow_inputs(
    left: &mut CompiledExpr,
    right: &mut CompiledExpr,
    left_keys: &mut [usize],
    right_keys: &mut [usize],
    preds: Vec<&mut CompiledPredicate>,
    live: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let (left_arity, right_arity) = (left.schema().arity(), right.schema().arity());
    let mut reads = live.to_vec();
    for pred in &preds {
        pred.pred().col_refs(&mut reads);
    }
    let (mut left_need, mut right_need) = (left_keys.to_vec(), right_keys.to_vec());
    for p in reads {
        if p < left_arity {
            left_need.push(p);
        } else {
            right_need.push(p - left_arity);
        }
    }
    let left_kept = narrow(left, &sorted(left_need));
    let right_kept = narrow(right, &sorted(right_need));
    if left_kept.len() == left_arity && right_kept.len() == right_arity {
        return (left_kept, all(left_arity + right_arity));
    }
    let mut pair = old_to_new(&left_kept, left_arity);
    remap_positions(left_keys, &pair);
    let right_map = old_to_new(&right_kept, right_arity);
    remap_positions(right_keys, &right_map);
    pair.extend(right_map.iter().map(|&p| if p == DROPPED { p } else { left_kept.len() + p }));
    for pred in preds {
        pred.remap(&pair);
    }
    (left_kept, pair)
}

/// Make a join emit exactly `live` of its former output, read off the pair
/// its narrowed inputs deliver (`pair`: old→new, `pair_width` wide).
fn emit_live(
    emit: &mut Emit,
    schema: &mut Arc<Schema>,
    pair: &[usize],
    live: &[usize],
    pair_width: usize,
) -> Vec<usize> {
    let cols: Vec<usize> = live.iter().map(|&p| pair[p]).collect();
    let whole_pair = cols.len() == pair_width && cols.iter().enumerate().all(|(i, &p)| i == p);
    emit.cols = if whole_pair { None } else { Some(cols) };
    keep_columns(schema, live);
    live.to_vec()
}

#[cfg(test)]
mod tests {
    use crate::analyze::skeleton;
    use crate::compile::CompiledPlan;
    use crate::{Engine, EngineConfig};
    use certus_algebra::builder::{eq, eq_const, is_null, neq};
    use certus_algebra::expr::{AggExpr, AggFunc, RaExpr};
    use certus_algebra::NullSemantics;
    use certus_core::CertainRewriter;
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::{Database, Value};
    use certus_tpch::{q1, q4, Workload};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `tests/engine_vs_reference.rs`'s `random_db`: `r(a, b)` and `s(c, d)`,
    /// 0–7 rows each, a quarter of the values marked nulls, a small domain so
    /// joins match.
    fn random_db(rng: &mut StdRng) -> Database {
        let value = |rng: &mut StdRng| {
            if rng.gen_bool(0.25) {
                Value::Null(NullId(rng.gen_range(1..5u64)))
            } else {
                Value::Int(rng.gen_range(0..5i64))
            }
        };
        let rows = |rng: &mut StdRng| {
            let n = rng.gen_range(0..8usize);
            (0..n).map(|_| vec![value(rng), value(rng)]).collect::<Vec<_>>()
        };
        let mut db = Database::new();
        let (r_rows, s_rows) = (rows(rng), rows(rng));
        db.insert_relation("r", rel(&["a", "b"], r_rows));
        db.insert_relation("s", rel(&["c", "d"], s_rows));
        db
    }

    /// `tests/engine_vs_reference.rs`'s `null_keyed_db`: `r(a, b, x)` and
    /// `s(c, d, y)` with nulls clustered on the key columns; `shape` picks an
    /// all-null key column on either side, or an empty side.
    fn null_keyed_db(rng: &mut StdRng, shape: usize) -> Database {
        let value = |rng: &mut StdRng, null_share: f64| {
            if rng.gen_bool(null_share) {
                Value::Null(NullId(rng.gen_range(1..5u64)))
            } else {
                Value::Int(rng.gen_range(0..4i64))
            }
        };
        let rows = |rng: &mut StdRng, len: usize, all_null_key: bool| {
            (0..len)
                .map(|_| {
                    let first = if all_null_key { value(rng, 1.0) } else { value(rng, 0.4) };
                    vec![first, value(rng, 0.4), value(rng, 0.15)]
                })
                .collect::<Vec<_>>()
        };
        let (r_len, s_len) = match shape {
            2 => (0, 6),
            3 => (6, 0),
            _ => (rng.gen_range(1..10usize), rng.gen_range(1..10usize)),
        };
        let mut db = Database::new();
        let (r_rows, s_rows) = (rows(rng, r_len, shape == 0), rows(rng, s_len, shape == 1));
        db.insert_relation("r", rel(&["a", "b", "x"], r_rows));
        db.insert_relation("s", rel(&["c", "d", "y"], s_rows));
        db
    }

    /// `(emitted, full)` width of every join of a compiled plan, preorder.
    fn join_widths(plan: &CompiledPlan) -> Vec<(usize, usize)> {
        skeleton(&plan.root).finish().flatten().iter().filter_map(|n| n.cols).collect()
    }

    /// The pass changes what is materialised, never the answer: the narrowed
    /// plan and the all-columns plan return the same relation — schema, rows
    /// and order, compared unsorted — under both semantics and both
    /// evaluators. Returns the narrowed plan's join widths.
    fn same_answer_with_and_without_the_pass(db: &Database, q: &RaExpr) -> Vec<(usize, usize)> {
        let mut widths = Vec::new();
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            for vectorized in [true, false] {
                let config = EngineConfig::serial().with_vectorized(vectorized);
                let engine = Engine::configured(db, semantics, config);
                let plan = engine.plan(q).unwrap();
                let narrowed = engine.compile(&plan).unwrap();
                let all_columns = CompiledPlan::compile_all_columns(&plan, db).unwrap();
                assert!(join_widths(&all_columns).iter().all(|(k, n)| k == n));
                assert_eq!(narrowed.schema(), all_columns.schema(), "query {q}");
                assert_eq!(
                    engine.execute_compiled(&narrowed).unwrap(),
                    engine.execute_compiled(&all_columns).unwrap(),
                    "query {q}, {semantics:?}, vectorized {vectorized}"
                );
                widths = join_widths(&narrowed);
            }
        }
        widths
    }

    fn narrowed(widths: &[(usize, usize)]) -> Vec<bool> {
        widths.iter().map(|(k, n)| k < n).collect()
    }

    fn r() -> RaExpr {
        RaExpr::relation("r")
    }

    fn s() -> RaExpr {
        RaExpr::relation("s")
    }

    #[test]
    fn narrowed_plans_return_the_relation_the_all_columns_plans_return() {
        let count = |alias: &str| vec![AggExpr::count_star(alias)];
        // (query, which of its joins — preorder — the pass must narrow).
        let shapes: Vec<(RaExpr, Vec<bool>)> = vec![
            // Join under project under join: the inner join feeds a
            // projection of two of its four columns.
            (
                r().join(s(), eq("a", "c"))
                    .project(&["b", "d"])
                    .join(RaExpr::relation_as("s", "t"), eq("b", "t.c")),
                vec![false, true],
            ),
            // The same with a nested-loop inner join (no key in the condition).
            (r().join(s(), eq("a", "c").or(is_null("d"))).project(&["d"]), vec![true]),
            // Aliased self-join: the same base names on both sides, told
            // apart by position only.
            (
                RaExpr::relation_as("r", "l1")
                    .join(RaExpr::relation_as("r", "l2"), eq("l1.a", "l2.b"))
                    .project(&["l2.a", "l1.b"]),
                vec![true],
            ),
            // A semijoin whose residual reads a column (`b`) nothing else
            // needs: the join below must keep emitting it.
            (
                r().join(s(), eq("a", "c"))
                    .semi_join(RaExpr::relation_as("s", "t"), eq("d", "t.c").and(neq("b", "t.d")))
                    .project(&["a"]),
                vec![true],
            ),
            (
                r().join(s(), eq("a", "c"))
                    .anti_join(RaExpr::relation_as("s", "t"), neq("b", "t.d"))
                    .project(&["c"]),
                vec![true],
            ),
            // Null-aware keys whose *full* condition reads columns the keys
            // do not (`b`, through the residual conjunct).
            (
                r().join(s(), eq("a", "c"))
                    .anti_join(
                        RaExpr::relation_as("s", "t"),
                        eq("d", "t.c").or(is_null("d")).and(neq("b", "t.d").or(is_null("t.d"))),
                    )
                    .project(&["a"]),
                vec![true],
            ),
            (
                r().join(s(), eq("a", "c").or(is_null("a")).and(neq("b", "d"))).project(&["c"]),
                vec![true],
            ),
            // Nothing may be narrowed: a join directly under Distinct, under
            // a union arm, under a set operation, and at the plan root.
            (r().join(s(), eq("a", "c")).distinct(), vec![false]),
            (r().join(s(), eq("a", "c")).union(r().join(s(), eq("b", "d"))), vec![false, false]),
            (
                r().join(s(), eq("a", "c")).difference(r().join(s(), neq("b", "d"))),
                vec![false, false],
            ),
            (r().join(s(), eq("a", "c")), vec![false]),
            (r().join(s(), eq("a", "c")).select(neq("b", "d")), vec![false]),
            // … and under a deduplicating pipeline whatever is read above
            // it: narrowing before the dedup would change the counts.
            (
                r().join(s(), eq("a", "c"))
                    .select(neq("b", "d").or(is_null("d")))
                    .distinct()
                    .aggregate(&["a"], count("n")),
                vec![false],
            ),
            // A join none of whose columns is live: zero-width rows, the
            // count preserved.
            (r().join(s(), eq("a", "c")).aggregate(&[], count("n")), vec![true]),
            (r().join(s(), neq("a", "c")).aggregate(&[], count("n")), vec![true]),
            // Aggregate over a join: the group and aggregate columns.
            (
                r().join(s(), eq("a", "c"))
                    .aggregate(&["d"], vec![AggExpr::new(AggFunc::Count, "b", "nb")]),
                vec![true],
            ),
            // A filter-only fused pipeline over a join passes the request
            // through, plus what its filter reads; so does a rename.
            (
                r().join(s(), eq("a", "c"))
                    .select(neq("b", "d"))
                    .semi_join(RaExpr::relation_as("r", "t"), eq("a", "t.a"))
                    .project(&["a"]),
                vec![true],
            ),
            (
                r().join(s(), eq("a", "c"))
                    .rename(&["w", "x", "y", "z"])
                    .select(eq_const("w", 1i64).or(is_null("z")))
                    .anti_join(RaExpr::relation_as("s", "t"), eq("x", "t.d"))
                    .aggregate(&["w"], count("n")),
                vec![true],
            ),
            // A decorrelated semijoin asks its inner side for the columns
            // its predicate reads, and passes the outer request through.
            (
                r().join(s(), eq("a", "c"))
                    .anti_join(
                        RaExpr::relation_as("r", "t")
                            .join(RaExpr::relation_as("s", "u"), eq("t.a", "u.c")),
                        is_null("u.d"),
                    )
                    .project(&["b"]),
                vec![true, true],
            ),
        ];
        let mut rng = StdRng::seed_from_u64(0x11FE);
        for case in 0..40 {
            let db = random_db(&mut rng);
            for (q, expected) in &shapes {
                let widths = same_answer_with_and_without_the_pass(&db, q);
                assert_eq!(&narrowed(&widths), expected, "case {case}, query {q}: {widths:?}");
            }
        }
    }

    #[test]
    fn narrowed_null_aware_joins_agree_on_null_clustered_keys() {
        let null_aware = |l: &str, r: &str| eq(l, r).or(is_null(l)).or(is_null(r));
        let shapes = [
            // The keys read a/c and b/d, the residual x/y; the projection
            // reads none of them on the left.
            r().join(s(), null_aware("a", "c").and(neq("x", "y").or(is_null("y")))).project(&["d"]),
            r().join(s(), null_aware("a", "c").and(null_aware("d", "b"))).project(&["x", "y"]),
            r().join(s(), eq("a", "c").or(is_null("a")))
                .anti_join(
                    RaExpr::relation_as("s", "t"),
                    null_aware("b", "t.c").and(neq("y", "t.y").or(is_null("t.y"))),
                )
                .project(&["x"]),
            r().join(s(), null_aware("a", "c"))
                .semi_join(RaExpr::relation_as("r", "t"), eq("d", "t.b").or(is_null("t.b")))
                .aggregate(&["y"], vec![AggExpr::count_star("n")]),
        ];
        let mut rng = StdRng::seed_from_u64(0x4A11);
        for case in 0..14 {
            let db = null_keyed_db(&mut rng, case);
            for q in &shapes {
                let widths = same_answer_with_and_without_the_pass(&db, q);
                assert!(narrowed(&widths)[0], "case {case}, query {q}: {widths:?}");
            }
        }
    }

    #[test]
    fn q4_plus_keeps_one_join_emitting_two_columns_and_q1_plus_borrows_lineitem() {
        let w = Workload::new(0.0002, 0.03, 42);
        let db = w.incomplete_instance();
        let params = w.params(&db, 0);
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
        let rewriter = CertainRewriter::new();

        let q4_plus = rewriter.rewrite_plus(&q4(&params), &db).unwrap();
        // `join-to-semijoin` makes `⋉ part` and `⋉ nation` semijoins;
        // `⋈ supplier` stays a join (`s_nationkey` is read above it).
        let widths = same_answer_with_and_without_the_pass(&db, &q4_plus);
        assert_eq!(widths, vec![(2, 13)]);

        // A borrowed scan is never narrowed, and never copied: Q1⁺ reads
        // `lineitem` in place — rows seen, no value materialised.
        let q1_plus = rewriter.rewrite_plus(&q1(&params), &db).unwrap();
        same_answer_with_and_without_the_pass(&db, &q1_plus);
        let plan = engine.compile(&engine.plan(&q1_plus).unwrap()).unwrap();
        let (_, profile) = engine.execute_compiled_profiled(&plan).unwrap();
        let lineitem = db.relation("lineitem").unwrap().len() as u64;
        let scans: Vec<_> =
            profile.flatten().into_iter().filter(|n| n.op == "scan(lineitem)").collect();
        assert!(!scans.is_empty());
        for scan in scans {
            assert_eq!((scan.rows_out, scan.values_out), (lineitem * scan.invocations, 0));
        }
    }
}
