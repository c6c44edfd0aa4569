//! Vectorized (batch-at-a-time) execution primitives.
//!
//! Two hot paths of the compiled runtime move column-wise here instead of
//! row-wise:
//!
//! * **Fused pipelines** ([`select`]): the engine reads only the
//!   columns a pipeline's filters read, as typed vectors
//!   ([`crate::data::column::Column`]), evaluates every
//!   [`CompiledPredicate`] into a three-valued [`TruthMask`] (Kleene
//!   connectives are word-wise bit operations) and intersects the masks
//!   into a selection: the surviving row ids — no row is touched, no
//!   per-row enum dispatch for type-uniform columns. A typed comparison
//!   or null test builds its mask a word at a time: the operator is
//!   matched once, a monomorphised loop packs 64 comparison bits per word,
//!   and the [`NullMask`] words give the unknown plane (only the null rows
//!   are visited under naive semantics).
//! * **Hash join/semijoin keys** ([`KeySet`]): key columns are read once
//!   per side, per-row `u64` hashes are computed column-wise, and the
//!   [`KeyTable`] chains row indices through a flat power-of-two bucket
//!   array indexed by the hash's low bits (a probe compares the stored
//!   hash, then the typed keys) — no per-row key clones, no container per
//!   key. Keys that cannot be typed are the same structure over `Value`
//!   hash and `Value ==`, so the hash operators have one build/probe loop.
//!   Either representation can set aside the rows with a `NULL` in a
//!   null-aware key column ([`KeySet::set_wild`]) for the operator to
//!   match by its full condition.
//!
//! Columns come from the row-id sets ([`Rows::column_in`]): a gather over
//! the sources' cached columns ([`crate::data::Relation::column`]), so a
//! base relation's are extracted once per snapshot and shared by every
//! operator, morsel and execution that reads them.
//!
//! Everything here is semantics-preserving by construction: typed fast
//! paths replicate [`crate::data::compare`] exactly (numeric comparisons go
//! through the same `f64` coercion and count NaN as equal, floats hash
//! through the same normalised bits, marked-null ids survive in the
//! [`NullMask`]s), and every case the typed paths cannot express verbatim —
//! `Values` columns, null constants, `IN` lists — falls back to the per-row
//! comparison functions *inside* the mask framework, or (for join keys) to
//! row-valued keys.
//!
//! [`NullMask`]: crate::data::column::NullMask

use crate::algebra::NullSemantics;
use crate::data::column::{for_each_bit, Column, ColumnData, TruthMask};
use crate::data::compare::{naive_cmp, sql_cmp, CmpOp};
use crate::data::intern::{StrId, StrPool};
use crate::data::like::like_match;
use crate::data::truth::Truth;
use crate::data::value::normalized_float_bits;
use crate::data::Value;
use crate::engine::compile::{CompiledOperand, CompiledPredicate, Pred, ScalarValues};
use crate::engine::rows::{RowView, Rows};
use crate::obs::profile::NodeStats;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
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

/// Run a fused pipeline's filters — `(node id, predicate over the source's
/// columns)`, in pipeline order — column-wise over the rows `range` of
/// `rows`: intersect the masks and return the positions of the survivors,
/// in input order, identical to the row path's.
///
/// With `stats`, after each mask merge the running selection's cardinality
/// is added to that filter's node — the same "rows surviving filters
/// `0..=k`" the row path counts via short-circuit evaluation.
pub(crate) fn select(
    rows: &Rows<'_>,
    range: Range<usize>,
    filters: &[(usize, &CompiledPredicate)],
    scalars: &ScalarValues,
    semantics: NullSemantics,
    pool: &StrPool,
    stats: Option<&[NodeStats]>,
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
    for &(id, filter) in filters {
        let mask = eval_pred(filter.pred(), &ctx);
        match &mut sel {
            // A row survives the chain iff every filter is True — exactly
            // the Kleene conjunction of the per-filter masks.
            Some(s) => s.and_with(&mask),
            None => sel = Some(mask),
        }
        if let (Some(stats), Some(s)) = (stats, sel.as_ref()) {
            stats[id].record_step_rows(s.count_true() as u64);
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
                TruthMask::from_planes(c.nulls().words().to_vec(), vec![0; len.div_ceil(64)], len)
            }
            Ev::Lit(v) => {
                TruthMask::fill(len, Truth::from_bool(v.map(Value::is_null).unwrap_or(true)))
            }
        },
        Pred::IsNotNull(x) => match operand(x, ctx) {
            Ev::Col(c) => {
                let t = c.nulls().words().iter().map(|w| !w).collect();
                TruthMask::from_planes(t, vec![0; len.div_ceil(64)], len)
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
            NullSemantics::Sql => crate::data::like::sql_like(v, pattern),
            NullSemantics::Naive => Truth::from_bool(crate::data::like::naive_like(v, pattern)),
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

/// Pack `bit(i)` for the rows `0..len` into words, 64 rows per word (row
/// `i` is bit `i % 64` of word `i / 64`, as in [`TruthMask`] and
/// [`NullMask`]).
///
/// [`NullMask`]: crate::data::column::NullMask
#[inline]
fn pack(len: usize, mut bit: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut words = vec![0u64; len.div_ceil(64)];
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * 64;
        let mut bits = 0u64;
        for k in 0..(len - base).min(64) {
            bits |= (bit(base + k) as u64) << k;
        }
        *word = bits;
    }
    words
}

/// The bits of `x(i) op y(i)` over the rows `0..len`: `op` is matched once,
/// and each arm is its own loop. An incomparable pair (NaN) counts as
/// equal, the rule of `const_ordering`: `=` holds unless `<` or `>` does.
#[inline]
fn cmp_bits<T: PartialOrd>(
    len: usize,
    op: CmpOp,
    x: impl Fn(usize) -> T,
    y: impl Fn(usize) -> T,
) -> Vec<u64> {
    let ord = |i: usize| x(i).partial_cmp(&y(i));
    match op {
        CmpOp::Eq => pack(len, |i| !matches!(ord(i), Some(Ordering::Less | Ordering::Greater))),
        CmpOp::Neq => pack(len, |i| matches!(ord(i), Some(Ordering::Less | Ordering::Greater))),
        CmpOp::Lt => pack(len, |i| x(i) < y(i)),
        CmpOp::Le => pack(len, |i| ord(i) != Some(Ordering::Greater)),
        CmpOp::Gt => pack(len, |i| x(i) > y(i)),
        CmpOp::Ge => pack(len, |i| ord(i) != Some(Ordering::Less)),
    }
}

/// The mask of a typed atom from the bits `holds` it has on non-null
/// operands and the words `nulls` of the rows with a null operand. Under
/// SQL a null operand makes the row unknown: true is `holds ∧ ¬nulls`,
/// unknown is `nulls`. Under naive semantics only the null rows are
/// visited, each taking `null_truth(i)`.
fn typed_mask(
    len: usize,
    holds: Vec<u64>,
    nulls: &[u64],
    semantics: NullSemantics,
    null_truth: impl Fn(usize) -> Truth,
) -> TruthMask {
    let mut t = holds;
    for (t, n) in t.iter_mut().zip(nulls) {
        *t &= !n;
    }
    let u = match semantics {
        NullSemantics::Sql => nulls.to_vec(),
        NullSemantics::Naive => {
            let mut u = vec![0u64; t.len()];
            for_each_bit(nulls, |i| {
                let (w, bit) = (i / 64, 1u64 << (i % 64));
                match null_truth(i) {
                    Truth::True => t[w] |= bit,
                    Truth::Unknown => u[w] |= bit,
                    Truth::False => {}
                }
            });
            u
        }
    };
    TruthMask::from_planes(t, u, len)
}

/// The `as_f64` view of a numeric column — `const_ordering`'s cross-type
/// coercion exactly, so every numeric pair compares as `f64`s.
fn as_f64s(data: &ColumnData) -> Option<Cow<'_, [f64]>> {
    match data {
        ColumnData::Int(v) => Some(Cow::Owned(v.iter().map(|&x| x as f64).collect())),
        ColumnData::Float(v) => Some(Cow::Borrowed(v)),
        ColumnData::Decimal(v) => Some(Cow::Owned(v.iter().map(|&x| x as f64 / 100.0).collect())),
        _ => None,
    }
}

/// `f` of each row's string, computed once per *distinct* id (interning
/// makes a repeated string one id; the dense ids index the memo) under one
/// read lock of the pool.
fn per_distinct_str<T: Copy>(ids: &[StrId], pool: &StrPool, f: impl Fn(&str) -> T) -> Vec<T> {
    let span = ids.iter().max().map_or(0, |&m| m as usize + 1);
    let mut memo: Vec<Option<T>> = vec![None; span];
    pool.with_strings(|strings| {
        (ids.iter())
            .map(|&id| *memo[id as usize].get_or_insert_with(|| f(&strings[id as usize])))
            .collect()
    })
}

fn cmp_col_const(c: &Column, op: CmpOp, v: &Value, ctx: &Ctx<'_>) -> TruthMask {
    // Null constants (possible in hand-built conditions) have their own
    // semantics per row under naive evaluation — take the generic path.
    if v.is_null() {
        return cmp_generic_const(c, op, v, ctx);
    }
    let len = c.len();
    // Any numeric column vs any numeric constant (`as_f64` is `Some`)
    // compares as `f64`s, with `as_f64s`'s coercion.
    let holds = match (c.data(), v.as_f64(), v) {
        (ColumnData::Int(xs), Some(k), _) => cmp_bits(len, op, |i| xs[i] as f64, |_| k),
        (ColumnData::Decimal(xs), Some(k), _) => cmp_bits(len, op, |i| xs[i] as f64 / 100.0, |_| k),
        (ColumnData::Float(xs), Some(k), _) => cmp_bits(len, op, |i| xs[i], |_| k),
        (ColumnData::Date(xs), _, Value::Date(d)) => cmp_bits(len, op, |i| xs[i], |_| *d),
        (ColumnData::Bool(xs), _, Value::Bool(b)) => cmp_bits(len, op, |i| xs[i], |_| *b),
        (ColumnData::Str(ids), _, Value::Str(s)) => match op {
            // Equality against interned ids: one pool lookup for the whole
            // column. A constant absent from the pool (`None`) equals no
            // element.
            CmpOp::Eq | CmpOp::Neq => {
                let k = ctx.pool.lookup(s);
                cmp_bits(len, op, |i| Some(ids[i]), |_| k)
            }
            // Ordering: each distinct id against the constant once, then
            // `ordering op Equal` per row.
            _ => {
                let ords = per_distinct_str(ids, ctx.pool, |x| x.cmp(s.as_ref()) as i8);
                cmp_bits(len, op, |i| ords[i], |_| 0)
            }
        },
        // Mixed variants or the Values fallback: exact row-path comparison.
        _ => return cmp_generic_const(c, op, v, ctx),
    };
    typed_mask(len, holds, c.nulls().words(), ctx.semantics, |_| null_vs_const(op, ctx.semantics))
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
    let numeric = as_f64s(a.data()).and_then(|xs| Some((xs, as_f64s(b.data())?)));
    let holds = match (numeric, a.data(), b.data()) {
        (Some((xs, ys)), _, _) => cmp_bits(len, op, |i| xs[i], |i| ys[i]),
        (None, ColumnData::Date(xs), ColumnData::Date(ys)) => {
            cmp_bits(len, op, |i| xs[i], |i| ys[i])
        }
        (None, ColumnData::Bool(xs), ColumnData::Bool(ys)) => {
            cmp_bits(len, op, |i| xs[i], |i| ys[i])
        }
        (None, ColumnData::Str(xs), ColumnData::Str(ys)) => match op {
            CmpOp::Eq | CmpOp::Neq => cmp_bits(len, op, |i| xs[i], |i| ys[i]),
            _ => {
                let ords: Vec<i8> = ctx.pool.with_strings(|s| {
                    let s = |id: StrId| &s[id as usize];
                    xs.iter().zip(ys).map(|(&x, &y)| s(x).cmp(s(y)) as i8).collect()
                });
                cmp_bits(len, op, |i| ords[i], |_| 0)
            }
        },
        _ => {
            let mut m = TruthMask::falses(len);
            for i in 0..len {
                let x = a.value_at(i, ctx.pool);
                let y = b.value_at(i, ctx.pool);
                m.set(i, lit_cmp(Some(&x), op, Some(&y), ctx.semantics));
            }
            return m;
        }
    };
    let (an, bn) = (a.nulls(), b.nulls());
    let nulls: Vec<u64> = an.words().iter().zip(bn.words()).map(|(x, y)| x | y).collect();
    typed_mask(len, holds, &nulls, ctx.semantics, |i| match ctx.semantics {
        NullSemantics::Sql => Truth::Unknown,
        NullSemantics::Naive => {
            naive_null_truth(op, an.is_null(i) && bn.is_null(i) && an.raw_id(i) == bn.raw_id(i))
        }
    })
}

fn like_col(c: &Column, pattern: &str, ctx: &Ctx<'_>) -> TruthMask {
    let len = c.len();
    match c.data() {
        ColumnData::Str(ids) => {
            let hits = per_distinct_str(ids, ctx.pool, |s| like_match(s, pattern));
            let holds = pack(len, |i| hits[i]);
            typed_mask(len, holds, c.nulls().words(), ctx.semantics, |_| {
                missing_operand(ctx.semantics)
            })
        }
        _ => {
            let mut m = TruthMask::falses(len);
            for i in 0..len {
                let v = c.value_at(i, ctx.pool);
                m.set(i, lit_like(Some(&v), pattern, ctx.semantics));
            }
            m
        }
    }
}

// ---------------------------------------------------------------------------
// Hash join keys: column-wise hashing + index-based tables
// ---------------------------------------------------------------------------

/// A hash table over the build side's rows as two flat arrays: `heads` is a
/// power-of-two bucket array holding each bucket's first row, indexed by
/// the low bits of the row's precomputed key hash, and `next[i]` is the row
/// after row `i` in its bucket ([`END`] after the last). Each chain ascends,
/// so partners come out in build order — the nested loop's order, and the
/// aggregate's first occurrence first. A chain may hold rows of other
/// hashes: a probe compares the stored hash before the keys. No container
/// is allocated per key.
pub(crate) struct KeyTable {
    heads: Vec<u32>,
    next: Vec<u32>,
}

/// The fewest buckets a [`KeyTable`] has. A small build side probed by a
/// large one is probed faster when most absent keys land in an empty
/// bucket: sized by its rows alone, a 32-row `part` table under 12k
/// `lineitem` probes sends them down occupied chains.
const MIN_BUCKETS: usize = 1024;

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
            for_each_bit(c.nulls().words(), |i| {
                if allow_nulls {
                    // Overwrite the placeholder contribution with the null id
                    // so ⊥ᵢ hashes by identity.
                    hashes[i] = mix(mix(hashes[i], NULL_TAG), c.nulls().raw_id(i));
                } else {
                    valid[i] = false;
                }
            });
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
            match &self.cols {
                KeyCols::Typed(cols) => for_each_bit(cols[k].nulls().words(), |i| wild[i] = true),
                KeyCols::Rows(rows, pos) => {
                    for (i, wild) in wild.iter_mut().enumerate() {
                        *wild |= rows.value(i, pos[k]).is_null();
                    }
                }
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

    /// Build the chained hash table over this side's valid rows, with at
    /// least twice as many buckets as rows. Rows are linked in reverse, each
    /// in front of its bucket's chain, so every chain ends up ascending.
    pub(crate) fn table(&self) -> KeyTable {
        let n = self.hashes.len();
        let mut heads = vec![END; (2 * n).next_power_of_two().max(MIN_BUCKETS)];
        let mut next = vec![END; n];
        let mask = heads.len() - 1;
        for i in (0..n).rev() {
            if self.valid[i] {
                let head = &mut heads[self.hashes[i] as usize & mask];
                next[i] = *head;
                *head = i as u32;
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
        let hash = self.hashes[i];
        let head =
            if self.valid[i] { table.heads[hash as usize & (table.heads.len() - 1)] } else { END };
        let chain = |j: u32| Some(j).filter(|&j| j != END);
        std::iter::successors(chain(head), move |&j| chain(table.next[j as usize]))
            .map(|j| j as usize)
            .filter(move |&j| build.hashes[j] == hash && self.keys_eq(i, build, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::Relation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Lengths around the word boundaries of the masks.
    const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];
    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    const SEMANTICS: [NullSemantics; 2] = [NullSemantics::Sql, NullSemantics::Naive];

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        Int,
        Decimal,
        Float,
        Date,
        Bool,
        Str,
    }

    /// A non-null value of `kind` from a domain small enough that equal,
    /// lower and higher pairs all occur. Ints and decimals meet at 0 and 1;
    /// floats include NaN and both zeros.
    fn value(kind: Kind, rng: &mut StdRng) -> Value {
        let k = rng.gen_range(0..4i64);
        match kind {
            Kind::Int => Value::Int(k - 1),
            Kind::Decimal => Value::Decimal(k * 50 - 50),
            Kind::Float => Value::Float([f64::NAN, -0.0, 0.0, 1.0][k as usize]),
            Kind::Date => Value::Date(k as i32),
            Kind::Bool => Value::Bool(k % 2 == 0),
            Kind::Str => Value::str(["a", "b", "ab", "c"][k as usize]),
        }
    }

    /// Constants to compare a column of `kind` with: its own domain, the
    /// other numeric types, and a string the pool has never seen.
    fn constants(kind: Kind) -> Vec<Value> {
        let mut rng = StdRng::seed_from_u64(kind as u64);
        let mut out: Vec<Value> = (0..3).map(|_| value(kind, &mut rng)).collect();
        match kind {
            Kind::Int | Kind::Decimal | Kind::Float => out.extend([
                Value::Int(1),
                Value::Decimal(50),
                Value::Float(f64::NAN),
                Value::Float(-0.0),
            ]),
            Kind::Str => out.push(Value::str("never interned")),
            _ => {}
        }
        out
    }

    /// `len` rows of two columns of kinds `ka` and `kb`. Nulls fall at
    /// random from few marked ids, and in every other relation on each word
    /// boundary; where `a` is null, `b` is often the very same null.
    fn relation(len: usize, ka: Kind, kb: Kind, rng: &mut StdRng) -> Relation {
        let boundaries: &[usize] = if rng.gen_bool(0.5) { &[0, 63, 64, 127, 128] } else { &[] };
        let rows = (0..len)
            .map(|i| {
                let a = if boundaries.contains(&i) || rng.gen_bool(0.2) {
                    Value::Null(NullId(rng.gen_range(1..4u64)))
                } else {
                    value(ka, rng)
                };
                let b = if a.is_null() && rng.gen_bool(0.5) {
                    a.clone()
                } else if rng.gen_bool(0.2) {
                    Value::Null(NullId(rng.gen_range(1..4u64)))
                } else {
                    value(kb, rng)
                };
                vec![a, b]
            })
            .collect();
        rel(&["a", "b"], rows)
    }

    /// The mask of `pred` over `rel` equals the row evaluator's truth value
    /// on every row, and no bit past the last row is set.
    fn assert_mask_matches_rows(
        rel: &Relation,
        pred: &Pred,
        semantics: NullSemantics,
        pool: &StrPool,
    ) {
        let rows = Rows::whole(Cow::Borrowed(rel));
        let mut positions = Vec::new();
        pred.col_refs(&mut positions);
        let cols = ColumnSet::read(&rows, 0..rows.len(), &positions, pool);
        let scalars = ScalarValues::new(0);
        let ctx = Ctx { cols: &cols, outer: None, l_arity: 0, scalars: &scalars, semantics, pool };
        let mask = eval_pred(pred, &ctx);
        let mut trues = 0;
        for i in 0..rows.len() {
            let want = pred.eval(RowView::one(&rows, i), &scalars, semantics);
            trues += want.is_true() as usize;
            let row = &rel.tuples()[i];
            assert_eq!(mask.get(i), want, "{pred:?} under {semantics:?}, row {i}: {row}");
        }
        assert_eq!(mask.count_true(), trues, "{pred:?}: bits past the last row");
    }

    #[test]
    fn masks_match_the_row_evaluator_on_every_type_op_and_length() {
        use CompiledOperand::{Col, Const};
        let pairs = [
            (Kind::Int, Kind::Int),
            (Kind::Decimal, Kind::Decimal),
            (Kind::Float, Kind::Float),
            (Kind::Date, Kind::Date),
            (Kind::Bool, Kind::Bool),
            (Kind::Str, Kind::Str),
            (Kind::Int, Kind::Decimal),
            (Kind::Decimal, Kind::Float),
            (Kind::Float, Kind::Int),
            (Kind::Date, Kind::Int),
        ];
        let pool = StrPool::new();
        let mut rng = StdRng::seed_from_u64(0x3A5C);
        let mut typed = 0;
        for len in LENGTHS {
            for (ka, kb) in pairs {
                let rel = relation(len, ka, kb, &mut rng);
                typed += (len > 0 && !rel.column(0, &pool).data().is_fallback()) as usize;
                let mut preds = vec![
                    Pred::IsNull(Col(0)),
                    Pred::IsNotNull(Col(1)),
                    Pred::Not(Box::new(Pred::IsNull(Col(1)))),
                ];
                if ka == Kind::Str {
                    for (pattern, negated) in [("a%", false), ("%b", true), ("_", false)] {
                        let pattern = pattern.to_string();
                        preds.push(Pred::Like { expr: Col(0), pattern, negated });
                    }
                }
                for op in OPS {
                    preds.push(Pred::Cmp { left: Col(0), op, right: Col(1) });
                    preds.push(Pred::Cmp { left: Col(1), op, right: Col(0) });
                    for k in constants(ka) {
                        preds.push(Pred::Cmp { left: Col(0), op, right: Const(k.clone()) });
                        preds.push(Pred::Cmp { left: Const(k), op, right: Col(0) });
                    }
                }
                for pred in &preds {
                    for semantics in SEMANTICS {
                        assert_mask_matches_rows(&rel, pred, semantics, &pool);
                    }
                }
            }
        }
        // Every type took its typed arm, not only the row fallback.
        assert!(typed >= (LENGTHS.len() - 2) * pairs.len(), "{typed} typed runs");
    }

    /// `rows` of two key columns (an int and a string) in the given shape.
    fn keyed(n: usize, shape: &str, rng: &mut StdRng) -> Relation {
        let rows = (0..n)
            .map(|_| match shape {
                "all equal" => vec![Value::Int(7), Value::str("k")],
                "all invalid" => vec![Value::Null(NullId(rng.gen_range(1..4u64))), Value::str("k")],
                _ => {
                    let a = if rng.gen_bool(0.1) {
                        Value::Null(NullId(rng.gen_range(1..4u64)))
                    } else {
                        Value::Int(rng.gen_range(0..(n as i64 / 4 + 2)))
                    };
                    vec![a, Value::str(["x", "y"][rng.gen_range(0..2usize)])]
                }
            })
            .collect();
        rel(&["a", "b"], rows)
    }

    fn key<'a>(rows: &'a Rows<'_>, i: usize) -> [&'a Value; 2] {
        [rows.value(i, 0), rows.value(i, 1)]
    }

    #[test]
    fn key_table_partners_match_a_nested_loop_in_build_order() {
        let pool = StrPool::new();
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let pos = [0usize, 1];
        for n in [0, 1, 2, 3, 17, 1023, 1024, 1025, 5000] {
            for shape in ["random", "all equal", "all invalid"] {
                let build_rel = keyed(n, shape, &mut rng);
                let probe_rel = keyed(n.min(40) + 1, "random", &mut rng);
                let (probe, build) = (
                    Rows::whole(Cow::Borrowed(&probe_rel)),
                    Rows::whole(Cow::Borrowed(&build_rel)),
                );
                let configs = [(false, true, false), (true, true, false), (false, false, false)];
                // The last configuration gives every row one hash: the
                // probe must tell the chain's keys apart by comparing them.
                for (allow_nulls, vectorized, collide) in
                    configs.into_iter().chain([(true, true, true)])
                {
                    let (mut pk, mut bk) =
                        KeySet::pair(&probe, &pos, &build, &pos, allow_nulls, vectorized, &pool);
                    if collide {
                        pk.hashes.fill(42);
                        bk.hashes.fill(42);
                    }
                    let table = bk.table();
                    let valid = |k: [&Value; 2]| allow_nulls || k.iter().all(|v| !v.is_null());
                    for i in 0..probe.len() {
                        let got: Vec<usize> = pk.matches(i, &bk, &table).collect();
                        let k = key(&probe, i);
                        let want: Vec<usize> = (0..build.len())
                            .filter(|&j| valid(k) && valid(key(&build, j)) && key(&build, j) == k)
                            .collect();
                        assert_eq!(got, want, "{n} build rows, {shape}, nulls {allow_nulls}");
                    }
                }
                // A side probed by itself, as the aggregate groups: every
                // group in ascending order, nulls grouping by their id.
                let keys = KeySet::build(&build, &pos, true, true, &pool);
                let table = keys.table();
                for i in (0..build.len()).step_by(97) {
                    let got: Vec<usize> = keys.matches(i, &keys, &table).collect();
                    let want: Vec<usize> = (0..build.len())
                        .filter(|&j| build_rel.tuples()[j] == build_rel.tuples()[i])
                        .collect();
                    assert_eq!(got, want, "{n} rows grouped, {shape}");
                }
            }
        }
    }
}
