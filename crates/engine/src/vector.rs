//! Vectorized (batch-at-a-time) execution primitives.
//!
//! Two hot paths of the compiled runtime move column-wise here instead of
//! row-wise:
//!
//! * **Fused pipelines** ([`select`]): the engine reads only the
//!   columns a pipeline's filters read, as typed vectors
//!   ([`certus_data::column::Column`]), evaluates every
//!   [`CompiledPredicate`] into a three-valued [`TruthMask`] (Kleene
//!   connectives are word-wise bit operations) and intersects the masks
//!   into a selection: the surviving row ids — no row is touched, no
//!   per-row enum dispatch for type-uniform columns.
//! * **Hash join/semijoin keys** ([`KeySet`]): key columns are read once
//!   per side, per-row `u64` hashes are computed column-wise, and the
//!   chained [`KeyTable`] maps precomputed hashes to row indices
//!   (collisions verified by typed column comparison) — no per-row key
//!   clones, no container per key. Keys that cannot be typed are the same
//!   structure over `Value` hash and `Value ==`, so the hash operators have
//!   one build/probe loop. Either representation
//!   can set aside the rows with a `NULL` in a null-aware key column
//!   ([`KeySet::set_wild`]) for the operator to match by its full condition.
//!
//! Columns come from the row-id sets ([`Rows::column_in`]): a gather over
//! the sources' cached columns ([`certus_data::Relation::column`]), so a
//! base relation's are extracted once per snapshot and shared by every
//! operator, morsel and execution that reads them.
//!
//! Everything here is semantics-preserving by construction: typed fast
//! paths replicate [`certus_data::compare`] exactly (numeric comparisons go
//! through the same `f64` coercion, floats hash through the same normalised
//! bits, marked-null ids survive in the [`NullMask`]s), and every case the
//! typed paths cannot express verbatim — mixed-variant columns, null
//! constants, `LIKE`/`IN` atoms — falls back to the per-row comparison
//! functions *inside* the mask framework, or (for join keys) to row-valued
//! keys.
//!
//! [`NullMask`]: certus_data::column::NullMask

use crate::compile::{CompiledOperand, CompiledPredicate, Pred, ScalarValues};
use crate::rows::{RowView, Rows};
use certus_algebra::NullSemantics;
use certus_data::column::{Column, ColumnData, TruthMask};
use certus_data::compare::{naive_cmp, sql_cmp, CmpOp};
use certus_data::intern::{StrId, StrPool};
use certus_data::like::like_match;
use certus_data::truth::Truth;
use certus_data::value::normalized_float_bits;
use certus_data::Value;
use certus_obs::ProfNode;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

// ---------------------------------------------------------------------------
// Fused pipelines: columnar predicate evaluation over a selection mask
// ---------------------------------------------------------------------------

/// The columns a predicate reads over some rows, indexed by position
/// (positions nobody reads stay unread).
struct ColumnSet<'a> {
    cols: Vec<Option<Cow<'a, Column>>>,
    len: usize,
}

impl<'a> ColumnSet<'a> {
    fn read(
        rows: &'a Rows<'a>,
        range: Range<usize>,
        positions: &[usize],
        pool: &StrPool,
    ) -> ColumnSet<'a> {
        let width = positions.iter().copied().max().map(|m| m + 1).unwrap_or(0);
        let mut cols = Vec::new();
        cols.resize_with(width, || None);
        for &p in positions {
            if cols[p].is_none() {
                cols[p] = Some(rows.column_in(p, range.clone(), pool));
            }
        }
        ColumnSet { cols, len: range.len() }
    }

    #[inline]
    fn col(&self, pos: usize) -> &Column {
        self.cols[pos].as_ref().expect("predicate column read")
    }
}

/// Evaluation context shared by the mask evaluator. During vectorized
/// nested loops `outer` is one outer (left) row: column references below
/// `l_arity` resolve to that row's values (per-batch constants), the rest
/// shift down into the inner columns. Elsewhere `l_arity` is 0.
struct Ctx<'a> {
    cols: &'a ColumnSet<'a>,
    outer: Option<RowView<'a>>,
    l_arity: usize,
    scalars: &'a ScalarValues,
    semantics: NullSemantics,
    pool: &'a StrPool,
}

impl<'a> Ctx<'a> {
    fn len(&self) -> usize {
        self.cols.len
    }
}

/// Run a fused pipeline's filters — `(step index, predicate over the
/// source's columns)`, in pipeline order — column-wise over the rows
/// `range` of `rows`: intersect the masks and return the positions of the
/// survivors, in input order, identical to the row path's.
///
/// With `prof`, after each mask merge the running selection's cardinality
/// is added to that filter's step — the same "rows surviving filters
/// `0..=k`" the row path counts via short-circuit evaluation.
pub(crate) fn select(
    rows: &Rows<'_>,
    range: Range<usize>,
    filters: &[(usize, &CompiledPredicate)],
    scalars: &ScalarValues,
    semantics: NullSemantics,
    pool: &StrPool,
    prof: Option<&ProfNode>,
) -> Vec<u32> {
    if range.is_empty() {
        // Nothing to filter — and the engine only guarantees scalar
        // subqueries are evaluated when the input is non-empty.
        return Vec::new();
    }
    let mut positions = Vec::new();
    for (_, filter) in filters {
        filter.pred().col_refs(&mut positions);
    }
    let start = range.start;
    let cols = ColumnSet::read(rows, range, &positions, pool);
    let ctx = Ctx { cols: &cols, outer: None, l_arity: 0, scalars, semantics, pool };
    let mut sel: Option<TruthMask> = None;
    for &(step, filter) in filters {
        let mask = eval_pred(filter.pred(), &ctx);
        match &mut sel {
            // A row survives the chain iff every filter is True — exactly
            // the Kleene conjunction of the per-filter masks.
            Some(s) => s.and_with(&mask),
            None => sel = Some(mask),
        }
        if let (Some(p), Some(s)) = (prof, sel.as_ref()) {
            p.add_step_rows(step, s.count_true() as u64);
        }
    }
    let sel = sel.expect("a pipeline that selects has a filter");
    let mut out = Vec::with_capacity(sel.count_true());
    sel.for_each_true(|i| out.push((start + i) as u32));
    out
}

/// A nested-loop join predicate prepared for vectorized evaluation: the
/// inner columns it reads, taken once from the inner relation, and every
/// *outer-independent* subtree — atoms like the translation's
/// `p_name LIKE …` or `… IS NULL` guards that only look at the inner side —
/// evaluated once into a cached mask. Per outer row, only the outer-dependent atoms are re-evaluated and
/// combined with the cached masks by word-wise Kleene operations. (The row
/// path gets the same effect from short-circuiting; without the hoisting a
/// loop-invariant `LIKE` would run once per *pair*.)
pub(crate) struct BoundPred<'r> {
    cols: ColumnSet<'r>,
    l_arity: usize,
    node: BoundNode,
}

enum BoundNode {
    /// Outer-independent subtree, evaluated once for the whole loop.
    Cached(TruthMask),
    /// Outer-dependent subtree re-evaluated per outer row (kept maximal:
    /// its invariant *children* are hoisted separately via And/Or/Not).
    Dynamic(Pred),
    And(Box<BoundNode>, Box<BoundNode>),
    Or(Box<BoundNode>, Box<BoundNode>),
    Not(Box<BoundNode>),
}

impl<'r> BoundPred<'r> {
    /// Prepare `pred` (compiled against the concatenated (left, right)
    /// schema; positions at or above `l_arity` are inner columns) for a
    /// vectorized loop over the rows of `r`.
    pub(crate) fn prepare(
        pred: &CompiledPredicate,
        r: &'r Rows<'r>,
        l_arity: usize,
        scalars: &ScalarValues,
        semantics: NullSemantics,
        pool: &StrPool,
    ) -> BoundPred<'r> {
        let mut refs = Vec::new();
        pred.pred().col_refs(&mut refs);
        let inner: Vec<usize> =
            refs.into_iter().filter(|&i| i >= l_arity).map(|i| i - l_arity).collect();
        let cols = ColumnSet::read(r, 0..r.len(), &inner, pool);
        // Invariant subtrees never read the outer row.
        let invariant_ctx = Ctx { cols: &cols, outer: None, l_arity, scalars, semantics, pool };
        let node = bind(pred.pred(), l_arity, &invariant_ctx);
        BoundPred { cols, l_arity, node }
    }

    /// The truth mask of the predicate over all inner rows, for one outer
    /// row.
    pub(crate) fn eval(
        &self,
        left: RowView<'_>,
        scalars: &ScalarValues,
        semantics: NullSemantics,
        pool: &StrPool,
    ) -> TruthMask {
        let ctx = Ctx {
            cols: &self.cols,
            outer: Some(left),
            l_arity: self.l_arity,
            scalars,
            semantics,
            pool,
        };
        eval_node(&self.node, &ctx)
    }
}

/// Whether a predicate subtree reads any outer (below `l_arity`) column.
fn refs_outer(pred: &Pred, l_arity: usize) -> bool {
    let mut refs = Vec::new();
    pred.col_refs(&mut refs);
    refs.into_iter().any(|i| i < l_arity)
}

fn bind(pred: &Pred, l_arity: usize, invariant_ctx: &Ctx<'_>) -> BoundNode {
    if !refs_outer(pred, l_arity) {
        return BoundNode::Cached(eval_pred(pred, invariant_ctx));
    }
    match pred {
        Pred::And(a, b) => BoundNode::And(
            Box::new(bind(a, l_arity, invariant_ctx)),
            Box::new(bind(b, l_arity, invariant_ctx)),
        ),
        Pred::Or(a, b) => BoundNode::Or(
            Box::new(bind(a, l_arity, invariant_ctx)),
            Box::new(bind(b, l_arity, invariant_ctx)),
        ),
        Pred::Not(inner) => BoundNode::Not(Box::new(bind(inner, l_arity, invariant_ctx))),
        other => BoundNode::Dynamic(other.clone()),
    }
}

fn eval_node(node: &BoundNode, ctx: &Ctx<'_>) -> TruthMask {
    match node {
        BoundNode::Cached(mask) => mask.clone(),
        BoundNode::Dynamic(pred) => eval_pred(pred, ctx),
        BoundNode::And(a, b) => {
            let mut m = eval_node(a, ctx);
            m.and_with(&eval_node(b, ctx));
            m
        }
        BoundNode::Or(a, b) => {
            let mut m = eval_node(a, ctx);
            m.or_with(&eval_node(b, ctx));
            m
        }
        BoundNode::Not(inner) => {
            let mut m = eval_node(inner, ctx);
            m.negate();
            m
        }
    }
}

/// An operand resolved for columnar evaluation: a whole column, or one
/// literal value for every row (constants, and scalar subqueries — which are
/// evaluated before the batch loop and behave like constants; a `None`
/// literal is an *empty* scalar subquery, which compares like a null).
enum Ev<'a> {
    Col(&'a Column),
    Lit(Option<&'a Value>),
}

fn operand<'a>(op: &'a CompiledOperand, ctx: &Ctx<'a>) -> Ev<'a> {
    match op {
        CompiledOperand::Col(i) if *i < ctx.l_arity => {
            Ev::Lit(Some(ctx.outer.expect("outer columns are read with an outer row").get(*i)))
        }
        CompiledOperand::Col(i) => Ev::Col(ctx.cols.col(*i - ctx.l_arity)),
        CompiledOperand::Const(v) => Ev::Lit(Some(v)),
        CompiledOperand::Scalar(i) => Ev::Lit(ctx.scalars.get(*i)),
    }
}

fn eval_pred(pred: &Pred, ctx: &Ctx<'_>) -> TruthMask {
    let len = ctx.len();
    match pred {
        Pred::Const(t) => TruthMask::fill(len, *t),
        Pred::Cmp { left, op, right } => match (operand(left, ctx), operand(right, ctx)) {
            (Ev::Lit(a), Ev::Lit(b)) => TruthMask::fill(len, lit_cmp(a, *op, b, ctx.semantics)),
            (Ev::Col(c), Ev::Lit(Some(v))) => cmp_col_const(c, *op, v, ctx),
            (Ev::Lit(Some(v)), Ev::Col(c)) => cmp_col_const(c, op.flip(), v, ctx),
            // An empty scalar subquery behaves like a NULL operand,
            // regardless of the other side — mirroring the row evaluator.
            (Ev::Col(_), Ev::Lit(None)) | (Ev::Lit(None), Ev::Col(_)) => {
                TruthMask::fill(len, missing_operand(ctx.semantics))
            }
            (Ev::Col(a), Ev::Col(b)) => cmp_col_col(a, *op, b, ctx),
        },
        Pred::IsNull(x) => match operand(x, ctx) {
            Ev::Col(c) => {
                let mut m = TruthMask::falses(len);
                for i in 0..len {
                    if c.is_null(i) {
                        m.set(i, Truth::True);
                    }
                }
                m
            }
            Ev::Lit(v) => {
                TruthMask::fill(len, Truth::from_bool(v.map(Value::is_null).unwrap_or(true)))
            }
        },
        Pred::IsNotNull(x) => match operand(x, ctx) {
            Ev::Col(c) => {
                let mut m = TruthMask::fill(len, Truth::True);
                for i in 0..len {
                    if c.is_null(i) {
                        m.set(i, Truth::False);
                    }
                }
                m
            }
            Ev::Lit(v) => {
                TruthMask::fill(len, Truth::from_bool(v.map(Value::is_const).unwrap_or(false)))
            }
        },
        Pred::Like { expr, pattern, negated } => {
            let mut m = match operand(expr, ctx) {
                Ev::Lit(v) => TruthMask::fill(len, lit_like(v, pattern, ctx.semantics)),
                Ev::Col(c) => like_col(c, pattern, ctx),
            };
            if *negated {
                m.negate();
            }
            m
        }
        Pred::InList { expr, list, negated } => {
            // IN-lists are rare in the hot queries; evaluate per row through
            // the exact row-path logic, inside the mask framework.
            let mut m = match operand(expr, ctx) {
                Ev::Lit(v) => TruthMask::fill(len, lit_inlist(v, list, ctx.semantics)),
                Ev::Col(c) => {
                    let mut m = TruthMask::falses(len);
                    for i in 0..len {
                        let v = c.value_at(i, ctx.pool);
                        m.set(i, lit_inlist(Some(&v), list, ctx.semantics));
                    }
                    m
                }
            };
            if *negated {
                m.negate();
            }
            m
        }
        Pred::And(a, b) => {
            let mut m = eval_pred(a, ctx);
            m.and_with(&eval_pred(b, ctx));
            m
        }
        Pred::Or(a, b) => {
            let mut m = eval_pred(a, ctx);
            m.or_with(&eval_pred(b, ctx));
            m
        }
        Pred::Not(inner) => {
            let mut m = eval_pred(inner, ctx);
            m.negate();
            m
        }
    }
}

/// The truth value of a comparison whose operand is missing (an empty scalar
/// subquery): `Unknown` under SQL semantics, `False` under naive.
fn missing_operand(semantics: NullSemantics) -> Truth {
    match semantics {
        NullSemantics::Sql => Truth::Unknown,
        NullSemantics::Naive => Truth::False,
    }
}

fn lit_cmp(a: Option<&Value>, op: CmpOp, b: Option<&Value>, semantics: NullSemantics) -> Truth {
    match (a, b) {
        (Some(a), Some(b)) => match semantics {
            NullSemantics::Sql => sql_cmp(a, op, b),
            NullSemantics::Naive => Truth::from_bool(naive_cmp(a, op, b)),
        },
        _ => missing_operand(semantics),
    }
}

fn lit_like(v: Option<&Value>, pattern: &str, semantics: NullSemantics) -> Truth {
    match v {
        Some(v) => match semantics {
            NullSemantics::Sql => certus_data::like::sql_like(v, pattern),
            NullSemantics::Naive => Truth::from_bool(certus_data::like::naive_like(v, pattern)),
        },
        None => Truth::Unknown,
    }
}

fn lit_inlist(v: Option<&Value>, list: &[Value], semantics: NullSemantics) -> Truth {
    let base = match v {
        Some(v) => Truth::any(list.iter().map(|item| match semantics {
            NullSemantics::Sql => sql_cmp(v, CmpOp::Eq, item),
            NullSemantics::Naive => Truth::from_bool(naive_cmp(v, CmpOp::Eq, item)),
        })),
        None => Truth::Unknown,
    };
    if semantics == NullSemantics::Naive && base.is_unknown() {
        Truth::False
    } else {
        base
    }
}

/// The truth value a *null* column row contributes to a comparison against a
/// non-null value: `Unknown` under SQL; under naive semantics the operands
/// can never be syntactically equal, so only `<>` holds.
fn null_vs_const(op: CmpOp, semantics: NullSemantics) -> Truth {
    match semantics {
        NullSemantics::Sql => Truth::Unknown,
        NullSemantics::Naive => Truth::from_bool(matches!(op, CmpOp::Neq)),
    }
}

/// The naive truth value of `⊥ᵢ op x` where `same` says whether `x` is the
/// very same null — mirroring `naive_cmp`'s null branch.
fn naive_null_truth(op: CmpOp, same: bool) -> Truth {
    Truth::from_bool(match op {
        CmpOp::Eq | CmpOp::Le | CmpOp::Ge => same,
        CmpOp::Neq => !same,
        CmpOp::Lt | CmpOp::Gt => false,
    })
}

/// Numeric accessor: the `as_f64` view of a typed numeric column, matching
/// `const_ordering`'s cross-type coercion exactly.
fn numeric_accessor(data: &ColumnData) -> Option<Box<dyn Fn(usize) -> f64 + '_>> {
    match data {
        ColumnData::Int(v) => Some(Box::new(move |i| v[i] as f64)),
        ColumnData::Float(v) => Some(Box::new(move |i| v[i])),
        ColumnData::Decimal(v) => Some(Box::new(move |i| v[i] as f64 / 100.0)),
        _ => None,
    }
}

fn is_numeric_const(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Float(_) | Value::Decimal(_))
}

/// Apply `op` to an `Option<Ordering>` the way `const_ordering` consumers
/// do: an incomparable pair (NaN) counts as equal.
#[inline]
fn ord_truth(op: CmpOp, ord: Option<Ordering>) -> Truth {
    Truth::from_bool(op.apply(ord.unwrap_or(Ordering::Equal)))
}

fn cmp_col_const(c: &Column, op: CmpOp, v: &Value, ctx: &Ctx<'_>) -> TruthMask {
    let len = c.len();
    // Null constants (possible in hand-built conditions) have their own
    // semantics per row under naive evaluation — take the generic path.
    if v.is_null() {
        return cmp_generic_const(c, op, v, ctx);
    }
    let null_t = null_vs_const(op, ctx.semantics);
    let mut m = TruthMask::falses(len);
    match (c.data(), v) {
        // Any numeric column vs any numeric constant: the shared f64
        // coercion of `const_ordering`.
        (data, k) if numeric_accessor(data).is_some() && is_numeric_const(k) => {
            let get = numeric_accessor(data).expect("checked");
            let kv = k.as_f64().expect("checked");
            for i in 0..len {
                if c.is_null(i) {
                    m.set(i, null_t);
                } else {
                    m.set(i, ord_truth(op, get(i).partial_cmp(&kv)));
                }
            }
        }
        (ColumnData::Date(xs), Value::Date(d)) => {
            for (i, x) in xs.iter().enumerate() {
                if c.is_null(i) {
                    m.set(i, null_t);
                } else {
                    m.set(i, Truth::from_bool(op.apply(x.cmp(d))));
                }
            }
        }
        (ColumnData::Bool(xs), Value::Bool(b)) => {
            for (i, x) in xs.iter().enumerate() {
                if c.is_null(i) {
                    m.set(i, null_t);
                } else {
                    m.set(i, Truth::from_bool(op.apply(x.cmp(b))));
                }
            }
        }
        (ColumnData::Str(ids), Value::Str(s)) => match op {
            // Equality against interned ids: one pool lookup for the whole
            // column. A constant absent from the pool equals no element.
            CmpOp::Eq | CmpOp::Neq => {
                let want = matches!(op, CmpOp::Eq);
                let cid = ctx.pool.lookup(s);
                for (i, id) in ids.iter().enumerate() {
                    if c.is_null(i) {
                        m.set(i, null_t);
                    } else {
                        let eq = cid == Some(*id);
                        m.set(i, Truth::from_bool(eq == want));
                    }
                }
            }
            // Ordering: resolve each *distinct* id once (interning makes
            // repeated strings one dictionary entry).
            _ => {
                let mut memo: HashMap<StrId, Ordering> = HashMap::new();
                for (i, id) in ids.iter().enumerate() {
                    if c.is_null(i) {
                        m.set(i, null_t);
                    } else {
                        let ord = *memo
                            .entry(*id)
                            .or_insert_with(|| ctx.pool.resolve(*id).as_ref().cmp(s.as_ref()));
                        m.set(i, Truth::from_bool(op.apply(ord)));
                    }
                }
            }
        },
        // Mixed variants or the Values fallback: exact row-path comparison.
        _ => return cmp_generic_const(c, op, v, ctx),
    }
    m
}

fn cmp_generic_const(c: &Column, op: CmpOp, v: &Value, ctx: &Ctx<'_>) -> TruthMask {
    let mut m = TruthMask::falses(c.len());
    for i in 0..c.len() {
        let x = c.value_at(i, ctx.pool);
        m.set(i, lit_cmp(Some(&x), op, Some(v), ctx.semantics));
    }
    m
}

fn cmp_col_col(a: &Column, op: CmpOp, b: &Column, ctx: &Ctx<'_>) -> TruthMask {
    let len = a.len();
    debug_assert_eq!(len, b.len());
    let mut m = TruthMask::falses(len);
    // Per-row null handling shared by the typed loops below.
    let null_truth = |i: usize| -> Truth {
        match ctx.semantics {
            NullSemantics::Sql => Truth::Unknown,
            NullSemantics::Naive => {
                let same =
                    a.is_null(i) && b.is_null(i) && a.nulls().raw_id(i) == b.nulls().raw_id(i);
                naive_null_truth(op, same)
            }
        }
    };
    match (a.data(), b.data()) {
        (da, db) if numeric_accessor(da).is_some() && numeric_accessor(db).is_some() => {
            let (ga, gb) = (numeric_accessor(da).expect("checked"), {
                numeric_accessor(db).expect("checked")
            });
            for i in 0..len {
                if a.is_null(i) || b.is_null(i) {
                    m.set(i, null_truth(i));
                } else {
                    m.set(i, ord_truth(op, ga(i).partial_cmp(&gb(i))));
                }
            }
        }
        (ColumnData::Date(xs), ColumnData::Date(ys)) => {
            for i in 0..len {
                if a.is_null(i) || b.is_null(i) {
                    m.set(i, null_truth(i));
                } else {
                    m.set(i, Truth::from_bool(op.apply(xs[i].cmp(&ys[i]))));
                }
            }
        }
        (ColumnData::Bool(xs), ColumnData::Bool(ys)) => {
            for i in 0..len {
                if a.is_null(i) || b.is_null(i) {
                    m.set(i, null_truth(i));
                } else {
                    m.set(i, Truth::from_bool(op.apply(xs[i].cmp(&ys[i]))));
                }
            }
        }
        (ColumnData::Str(xs), ColumnData::Str(ys)) => match op {
            CmpOp::Eq | CmpOp::Neq => {
                let want = matches!(op, CmpOp::Eq);
                for i in 0..len {
                    if a.is_null(i) || b.is_null(i) {
                        m.set(i, null_truth(i));
                    } else {
                        m.set(i, Truth::from_bool((xs[i] == ys[i]) == want));
                    }
                }
            }
            _ => {
                let mut resolve: HashMap<StrId, std::sync::Arc<str>> = HashMap::new();
                for i in 0..len {
                    if a.is_null(i) || b.is_null(i) {
                        m.set(i, null_truth(i));
                    } else {
                        let sx =
                            resolve.entry(xs[i]).or_insert_with(|| ctx.pool.resolve(xs[i])).clone();
                        let sy = resolve.entry(ys[i]).or_insert_with(|| ctx.pool.resolve(ys[i]));
                        m.set(i, Truth::from_bool(op.apply(sx.as_ref().cmp(sy.as_ref()))));
                    }
                }
            }
        },
        _ => {
            for i in 0..len {
                let x = a.value_at(i, ctx.pool);
                let y = b.value_at(i, ctx.pool);
                m.set(i, lit_cmp(Some(&x), op, Some(&y), ctx.semantics));
            }
        }
    }
    m
}

fn like_col(c: &Column, pattern: &str, ctx: &Ctx<'_>) -> TruthMask {
    let len = c.len();
    let null_t = match ctx.semantics {
        NullSemantics::Sql => Truth::Unknown,
        NullSemantics::Naive => Truth::False,
    };
    let mut m = TruthMask::falses(len);
    match c.data() {
        ColumnData::Str(ids) => {
            // One LIKE match per *distinct* dictionary id.
            let mut memo: HashMap<StrId, bool> = HashMap::new();
            for (i, id) in ids.iter().enumerate() {
                if c.is_null(i) {
                    m.set(i, null_t);
                } else {
                    let hit = *memo
                        .entry(*id)
                        .or_insert_with(|| like_match(&ctx.pool.resolve(*id), pattern));
                    m.set(i, Truth::from_bool(hit));
                }
            }
        }
        _ => {
            for i in 0..len {
                let v = c.value_at(i, ctx.pool);
                m.set(i, lit_like(Some(&v), pattern, ctx.semantics));
            }
        }
    }
    m
}

// ---------------------------------------------------------------------------
// Hash join keys: column-wise hashing + index-based tables
// ---------------------------------------------------------------------------

/// A hasher that passes a pre-computed `u64` through unchanged — the key
/// hashes below are already mixed, re-hashing them through SipHash would be
/// pure overhead.
#[derive(Default)]
pub(crate) struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("key tables only hash u64 keys")
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A hash table from precomputed key hashes to build-side row indices, as
/// two flat arrays: `heads` maps a hash to the first row carrying it, and
/// `next[i]` is the following row with row `i`'s hash ([`END`] after the
/// last). Each chain ascends, so partners come out in build order — the
/// nested loop's order, and the aggregate's first occurrence first. No
/// container is allocated per key.
pub(crate) struct KeyTable {
    heads: HashMap<u64, u32, BuildHasherDefault<PassThroughHasher>>,
    next: Vec<u32>,
}

/// The end of a [`KeyTable`] chain.
const END: u32 = u32::MAX;

#[inline]
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
}

const NULL_TAG: u64 = 0x6e75;

/// The representation behind a [`KeySet`]'s hashes and equality.
enum KeyCols<'r> {
    /// Typed columns: hashes mix the typed payloads column-wise, equality
    /// compares them without touching a `Value`. Borrowed from a base
    /// relation's column cache, or gathered from it.
    Typed(Vec<Cow<'r, Column>>),
    /// Row-valued keys: `Value` hash and `Value ==` over the values at the
    /// key positions, read in place through the set's position map. The
    /// loss-free representation every input has — what `vectorized = false`
    /// runs on, and what a key column in the `Values` fallback (mixed
    /// variants, all null, empty) falls back to.
    Rows(&'r Rows<'r>, &'r [usize]),
}

/// The keys of one side of a hash operator: per-row hashes plus a validity
/// flag (a null key component disqualifies a row under SQL semantics; under
/// naive semantics nulls are ordinary key elements hashed by their id).
/// Building one is total — rows that cannot be typed are keyed by value —
/// so every hash operator runs the same build/probe code over either
/// representation.
pub(crate) struct KeySet<'r> {
    cols: KeyCols<'r>,
    /// Hash of the key, per row (equal keys hash equal within one
    /// representation).
    hashes: Vec<u64>,
    /// Whether the row participates in hashing at all.
    valid: Vec<bool>,
    /// Per row, whether it has a `NULL` in a key column whose `NULL`
    /// satisfies its key (see [`KeySet::set_wild`]); empty when no key of
    /// this side is null-aware.
    wild: Vec<bool>,
}

/// The typed key columns of `rows` at `pos`, or `None` when any of them
/// lands in the `Values` fallback — representation-specific hashing would
/// be unsound there — or there are no rows to type them by.
fn typed_cols<'r>(
    rows: &'r Rows<'r>,
    pos: &[usize],
    pool: &StrPool,
) -> Option<Vec<Cow<'r, Column>>> {
    if rows.is_empty() {
        return None;
    }
    let cols: Vec<Cow<'r, Column>> =
        pos.iter().map(|&p| rows.column_in(p, 0..rows.len(), pool)).collect();
    (!cols.iter().any(|c| c.data().is_fallback())).then_some(cols)
}

impl<'r> KeySet<'r> {
    /// The keys of `rows` at `pos`: typed when `vectorized` and every key
    /// column can be typed, row-valued otherwise.
    pub(crate) fn build(
        rows: &'r Rows<'r>,
        pos: &'r [usize],
        allow_nulls: bool,
        vectorized: bool,
        pool: &StrPool,
    ) -> KeySet<'r> {
        match vectorized.then(|| typed_cols(rows, pos, pool)).flatten() {
            Some(cols) => KeySet::typed(cols, rows.len(), allow_nulls),
            None => KeySet::row_valued(rows, pos, allow_nulls),
        }
    }

    /// The keys of the two sides of a join or set operation, in **one**
    /// representation — cross-side hash and equality comparisons need it.
    /// Typed when `vectorized` and both sides can be typed column by column
    /// the same way. Differently typed sides stay typed under SQL semantics
    /// (`!allow_nulls`): their values are never syntactically equal, their
    /// nulls are invalid, so [`KeySet::matches`] simply finds nothing. Under
    /// naive semantics a null must meet itself across the sides whatever
    /// its column's type, which only the row-valued keys guarantee.
    pub(crate) fn pair(
        l: &'r Rows<'r>,
        l_pos: &'r [usize],
        r: &'r Rows<'r>,
        r_pos: &'r [usize],
        allow_nulls: bool,
        vectorized: bool,
        pool: &StrPool,
    ) -> (KeySet<'r>, KeySet<'r>) {
        if vectorized {
            let typed =
                typed_cols(l, l_pos, pool).and_then(|lc| Some((lc, typed_cols(r, r_pos, pool)?)));
            if let Some((lc, rc)) = typed {
                let same_repr = lc.len() == rc.len()
                    && lc.iter().zip(&rc).all(|(a, b)| a.data().same_repr(b.data()));
                if same_repr || !allow_nulls {
                    return (
                        KeySet::typed(lc, l.len(), allow_nulls),
                        KeySet::typed(rc, r.len(), allow_nulls),
                    );
                }
            }
        }
        (KeySet::row_valued(l, l_pos, allow_nulls), KeySet::row_valued(r, r_pos, allow_nulls))
    }

    fn typed(cols: Vec<Cow<'r, Column>>, n: usize, allow_nulls: bool) -> KeySet<'r> {
        let mut hashes = vec![0x517c_c1b7_2722_0a95u64; n];
        let mut valid = vec![true; n];
        for c in &cols {
            match c.data() {
                ColumnData::Int(v) | ColumnData::Decimal(v) => {
                    for i in 0..n {
                        hashes[i] = mix(hashes[i], v[i] as u64);
                    }
                }
                ColumnData::Float(v) => {
                    for i in 0..n {
                        hashes[i] = mix(hashes[i], normalized_float_bits(v[i]));
                    }
                }
                ColumnData::Date(v) => {
                    for i in 0..n {
                        hashes[i] = mix(hashes[i], v[i] as u64);
                    }
                }
                ColumnData::Bool(v) => {
                    for i in 0..n {
                        hashes[i] = mix(hashes[i], v[i] as u64);
                    }
                }
                ColumnData::Str(v) => {
                    for i in 0..n {
                        hashes[i] = mix(hashes[i], v[i] as u64);
                    }
                }
                ColumnData::Values(_) => unreachable!("typed keys exclude fallback columns"),
            }
            if c.nulls().any_null() {
                for i in 0..n {
                    if c.is_null(i) {
                        if allow_nulls {
                            // Overwrite the placeholder contribution with the
                            // null id so ⊥ᵢ hashes by identity.
                            hashes[i] = mix(mix(hashes[i], NULL_TAG), c.nulls().raw_id(i));
                        } else {
                            valid[i] = false;
                        }
                    }
                }
            }
        }
        KeySet { cols: KeyCols::Typed(cols), hashes, valid, wild: Vec::new() }
    }

    fn row_valued(rows: &'r Rows<'r>, pos: &'r [usize], allow_nulls: bool) -> KeySet<'r> {
        let mut valid = vec![true; rows.len()];
        let hashes = valid
            .iter_mut()
            .enumerate()
            .map(|(i, valid)| {
                // A fixed-key hasher: plans execute identically run to run.
                let mut h = std::collections::hash_map::DefaultHasher::new();
                for &p in pos {
                    let v = rows.value(i, p);
                    *valid &= allow_nulls || !v.is_null();
                    v.hash(&mut h);
                }
                h.finish()
            })
            .collect();
        KeySet { cols: KeyCols::Rows(rows, pos), hashes, valid, wild: Vec::new() }
    }

    /// Whether the keys are typed columns (the vectorized representation).
    pub(crate) fn is_typed(&self) -> bool {
        matches!(self.cols, KeyCols::Typed(_))
    }

    /// Set aside the *wild* rows of a side with null-aware keys: a row with
    /// a `NULL` in a key column flagged in `null_ok` (one flag per key, in
    /// key order) satisfies that key against every row of the other side, so
    /// no hash bucket can hold its partners. Wild rows leave the hashed rows
    /// — they neither enter the table nor probe it — and the operator
    /// matches them by its full condition instead.
    pub(crate) fn set_wild(&mut self, null_ok: impl Iterator<Item = bool>) {
        let mut wild = vec![false; self.hashes.len()];
        for (k, _) in null_ok.enumerate().filter(|(_, ok)| *ok) {
            for (i, wild) in wild.iter_mut().enumerate() {
                *wild |= match &self.cols {
                    KeyCols::Typed(cols) => cols[k].is_null(i),
                    KeyCols::Rows(rows, pos) => rows.value(i, pos[k]).is_null(),
                };
            }
        }
        for (valid, wild) in self.valid.iter_mut().zip(&wild) {
            *valid &= !wild;
        }
        self.wild = wild;
    }

    /// Whether row `i` was set aside by [`KeySet::set_wild`].
    #[inline]
    pub(crate) fn is_wild(&self, i: usize) -> bool {
        !self.wild.is_empty() && self.wild[i]
    }

    /// The rows set aside by [`KeySet::set_wild`], ascending.
    pub(crate) fn wild_rows(&self) -> Vec<u32> {
        (0..self.wild.len() as u32).filter(|&i| self.wild[i as usize]).collect()
    }

    /// Syntactic equality of row `i`'s key and `other`'s row `j` key (both
    /// from one [`KeySet::pair`]). The typed arm matches `Value` equality
    /// exactly: payloads compare by value (floats through normalised bits,
    /// strings by interned id), nulls by marked id, differently typed
    /// columns never.
    fn keys_eq(&self, i: usize, other: &KeySet<'_>, j: usize) -> bool {
        let (a, b) = match (&self.cols, &other.cols) {
            (KeyCols::Typed(a), KeyCols::Typed(b)) => (a, b),
            (KeyCols::Rows(l, l_pos), KeyCols::Rows(r, r_pos)) => {
                return l_pos.iter().zip(*r_pos).all(|(&lp, &rp)| l.value(i, lp) == r.value(j, rp));
            }
            _ => unreachable!("both sides of a pair share one representation"),
        };
        for (ca, cb) in a.iter().zip(b) {
            let (an, bn) = (ca.is_null(i), cb.is_null(j));
            if an || bn {
                if !(an && bn) || ca.nulls().raw_id(i) != cb.nulls().raw_id(j) {
                    return false;
                }
                continue;
            }
            let eq = match (ca.data(), cb.data()) {
                (ColumnData::Int(x), ColumnData::Int(y))
                | (ColumnData::Decimal(x), ColumnData::Decimal(y)) => x[i] == y[j],
                (ColumnData::Float(x), ColumnData::Float(y)) => {
                    normalized_float_bits(x[i]) == normalized_float_bits(y[j])
                }
                (ColumnData::Date(x), ColumnData::Date(y)) => x[i] == y[j],
                (ColumnData::Bool(x), ColumnData::Bool(y)) => x[i] == y[j],
                (ColumnData::Str(x), ColumnData::Str(y)) => x[i] == y[j],
                _ => false,
            };
            if !eq {
                return false;
            }
        }
        true
    }

    /// Number of rows that enter the hash table.
    pub(crate) fn valid_rows(&self) -> usize {
        self.valid.iter().filter(|v| **v).count()
    }

    /// Build the chained hash table over this side's valid rows, pre-sized
    /// to the known row count. Rows are linked in reverse, each in front of
    /// its chain, so every chain ends up ascending.
    pub(crate) fn table(&self) -> KeyTable {
        let n = self.hashes.len();
        let mut heads = HashMap::with_capacity_and_hasher(n, Default::default());
        let mut next = vec![END; n];
        for i in (0..n).rev() {
            if self.valid[i] {
                next[i] = heads.insert(self.hashes[i], i as u32).unwrap_or(END);
            }
        }
        KeyTable { heads, next }
    }

    /// The probe step: the rows of `build` (indexed by its `table`) whose
    /// key equals probe row `i`'s, in build order.
    pub(crate) fn matches<'a>(
        &'a self,
        i: usize,
        build: &'a KeySet<'_>,
        table: &'a KeyTable,
    ) -> impl Iterator<Item = usize> + 'a {
        let head = if self.valid[i] { table.heads.get(&self.hashes[i]).copied() } else { None };
        std::iter::successors(head, |&j| Some(table.next[j as usize]).filter(|&j| j != END))
            .map(|j| j as usize)
            .filter(move |&j| self.keys_eq(i, build, j))
    }
}
