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
//! * **Hash operators and deduplication** ([`KeySet`], [`HashMatcher`]):
//!   key columns are read in place from the sources' cached columns through
//!   the row ids, per-row `u64` hashes are computed column-wise, and the
//!   [`KeyTable`] chains row indices through a flat power-of-two bucket
//!   array indexed by the hash's low bits. The side that probes is hashed a
//!   run of rows at a time, and each run walks its chains in one loop
//!   monomorphised on the key column type (int/decimal, date, string id,
//!   bool, float bits, and null ids where nulls are key values), comparing
//!   the stored hash, then the typed keys: pairs go straight into the
//!   output, a semijoin stops at the first partner, a constant-`TRUE`
//!   residual is skipped. Keys that cannot be typed are the same structure
//!   over `Value` hash and `Value ==`, run by the same loops. Rows with a
//!   `NULL` in a null-aware key column are set aside
//!   ([`KeySet::set_wild`]) and matched by the operator's full condition
//!   outside the loop. Deduplication and grouping ([`KeySet::groups`]) keep
//!   the first row of each key the same way, over ids.
//!
//! Columns come from the row-id sets: predicates read a gather over the
//! sources' cached columns ([`Rows::column_in`]), keys the cached columns
//! themselves through the ids ([`Rows::column_ids`]); either way a base
//! relation's columns ([`crate::data::Relation::column`]) are extracted
//! once per snapshot and shared by every operator, morsel and execution
//! that reads them.
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
use crate::engine::compile::{CompiledOperand, CompiledPredicate, HashKeys, Pred, ScalarValues};
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
/// evaluated once into a cached mask. Per outer row, a subtree that reads
/// only the outer row is one truth value — a `TRUE` under an `OR` or a
/// `FALSE` under an `AND` decides it without reading an inner row — and the
/// subtrees that read both sides are re-evaluated and combined with the
/// cached masks by word-wise Kleene operations. (The row path gets the
/// same effect from short-circuiting; without the hoisting a loop-invariant
/// `LIKE` would run once per *pair*.)
pub(crate) struct BoundPred<'r> {
    cols: ColumnSet<'r>,
    l_arity: usize,
    node: BoundNode,
}

enum BoundNode {
    /// Outer-independent subtree, evaluated once for the whole loop.
    Cached(TruthMask),
    /// Subtree that reads only the outer row: one truth value per outer
    /// row.
    Outer(Pred),
    /// Subtree that reads both sides, re-evaluated per outer row (kept
    /// maximal: its one-sided *children* are split off via And/Or/Not).
    Dynamic(Pred),
    /// A conjunction or disjunction, its outer-only side first.
    And(Box<BoundNode>, Box<BoundNode>),
    Or(Box<BoundNode>, Box<BoundNode>),
    Not(Box<BoundNode>),
}

/// A [`BoundNode`]'s value for one outer row: the same truth value for
/// every inner row, or a mask over them.
enum Bound {
    All(Truth),
    Mask(TruthMask),
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

    /// Call `hit(j)` for every inner row `j` the predicate is true on, in
    /// order, for one outer row — for every row, with no mask built, when
    /// an outer-only subtree decides the predicate alone.
    pub(crate) fn for_each_true(
        &self,
        left: RowView<'_>,
        (scalars, semantics, pool): (&ScalarValues, NullSemantics, &StrPool),
        hit: impl FnMut(usize),
    ) {
        let ctx = Ctx {
            cols: &self.cols,
            outer: Some(left),
            l_arity: self.l_arity,
            scalars,
            semantics,
            pool,
        };
        match eval_node(&self.node, &ctx) {
            Bound::All(t) if t.is_true() => (0..ctx.len()).for_each(hit),
            Bound::All(_) => {}
            Bound::Mask(mask) => mask.for_each_true(hit),
        }
    }
}

/// Whether a predicate subtree reads any outer (below `l_arity`) column,
/// and whether it reads any inner one.
fn sides(pred: &Pred, l_arity: usize) -> (bool, bool) {
    let mut refs = Vec::new();
    pred.col_refs(&mut refs);
    (refs.iter().any(|&i| i < l_arity), refs.iter().any(|&i| i >= l_arity))
}

fn bind(pred: &Pred, l_arity: usize, invariant_ctx: &Ctx<'_>) -> BoundNode {
    match sides(pred, l_arity) {
        (false, _) => return BoundNode::Cached(eval_pred(pred, invariant_ctx)),
        (true, false) => return BoundNode::Outer(pred.clone()),
        (true, true) => {}
    }
    // Kleene conjunction and disjunction commute: the outer-only side goes
    // first, so its value can decide the node alone.
    let pair = |a: &Pred, b: &Pred| {
        let (a, b) = (bind(a, l_arity, invariant_ctx), bind(b, l_arity, invariant_ctx));
        match b {
            BoundNode::Outer(_) => (Box::new(b), Box::new(a)),
            _ => (Box::new(a), Box::new(b)),
        }
    };
    match pred {
        Pred::And(a, b) => {
            let (a, b) = pair(a, b);
            BoundNode::And(a, b)
        }
        Pred::Or(a, b) => {
            let (a, b) = pair(a, b);
            BoundNode::Or(a, b)
        }
        Pred::Not(inner) => BoundNode::Not(Box::new(bind(inner, l_arity, invariant_ctx))),
        other => BoundNode::Dynamic(other.clone()),
    }
}

fn eval_node(node: &BoundNode, ctx: &Ctx<'_>) -> Bound {
    match node {
        BoundNode::Cached(mask) => Bound::Mask(mask.clone()),
        BoundNode::Outer(pred) => {
            let outer = ctx.outer.expect("outer subtrees are read with an outer row");
            Bound::All(pred.eval(outer, ctx.scalars, ctx.semantics))
        }
        BoundNode::Dynamic(pred) => Bound::Mask(eval_pred(pred, ctx)),
        BoundNode::And(a, b) => kleene(eval_node(a, ctx), b, ctx, Truth::False, Truth::and),
        BoundNode::Or(a, b) => kleene(eval_node(a, ctx), b, ctx, Truth::True, Truth::or),
        BoundNode::Not(inner) => match eval_node(inner, ctx) {
            Bound::All(t) => Bound::All(t.negate()),
            Bound::Mask(mut m) => {
                m.negate();
                Bound::Mask(m)
            }
        },
    }
}

/// A conjunction (`decides` is `FALSE`) or disjunction (`TRUE`) of `a` and
/// the node `b`: `b` is not evaluated when `a` is `decides` on every row.
fn kleene(
    a: Bound,
    b: &BoundNode,
    ctx: &Ctx<'_>,
    decides: Truth,
    op: fn(Truth, Truth) -> Truth,
) -> Bound {
    if matches!(a, Bound::All(t) if t == decides) {
        return a;
    }
    let len = ctx.len();
    match (a, eval_node(b, ctx)) {
        (Bound::All(t), Bound::All(u)) => Bound::All(op(t, u)),
        (Bound::All(t), Bound::Mask(m)) | (Bound::Mask(m), Bound::All(t)) => {
            kleene_masks(m, TruthMask::fill(len, t), decides)
        }
        (Bound::Mask(m), Bound::Mask(n)) => kleene_masks(m, n, decides),
    }
}

fn kleene_masks(mut m: TruthMask, n: TruthMask, decides: Truth) -> Bound {
    if decides == Truth::False {
        m.and_with(&n);
    } else {
        m.or_with(&n);
    }
    Bound::Mask(m)
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
// Hash operators: column-wise hashing, index-based tables, typed probe loops
// ---------------------------------------------------------------------------

/// A hash table over the build side's rows as two flat arrays: `heads` is a
/// power-of-two bucket array holding each bucket's first row, indexed by
/// the low bits of the row's precomputed key hash, and `next[i]` is the row
/// after row `i` in its bucket ([`END`] after the last). Each chain ascends,
/// so partners come out in build order — the nested loop's order. A chain
/// may hold rows of other hashes: a probe compares the stored hash before
/// the keys. No container is allocated per key.
pub(crate) struct KeyTable {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl KeyTable {
    /// A table of at least `buckets` buckets (rounded up to a power of two)
    /// over `rows` rows, every chain empty.
    fn empty(buckets: usize, rows: usize) -> KeyTable {
        KeyTable { heads: vec![END; buckets.next_power_of_two()], next: vec![END; rows] }
    }

    /// The bucket of a hash.
    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Put row `i` in front of the chain of its bucket.
    #[inline]
    fn push_front(&mut self, i: usize, hash: u64) {
        let b = self.bucket(hash);
        self.next[i] = self.heads[b];
        self.heads[b] = i as u32;
    }
}

/// The fewest buckets a probed [`KeyTable`] has. A small build side probed
/// by a large one is probed faster when most absent keys land in an empty
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

/// One typed key column: a source relation's cached column, read through
/// the set's ids for that source (`None`: row `i` is the column's row `i`).
/// Nothing is gathered: hashing and equality read the payloads in place.
struct KeyCol<'r> {
    col: Cow<'r, Column>,
    ids: Option<&'r [u32]>,
    /// Whether the column has a null anywhere (the null passes are skipped
    /// otherwise).
    has_nulls: bool,
}

impl KeyCol<'_> {
    /// The column row of set row `i`.
    #[inline(always)]
    fn at(&self, i: usize) -> usize {
        at(self.ids, i)
    }

    /// Mix `payload(column row)` into the hashes of the set rows `range`.
    #[inline(always)]
    fn mix_into(&self, hashes: &mut [u64], range: Range<usize>, payload: impl Fn(usize) -> u64) {
        match self.ids {
            Some(ids) => {
                for (h, &r) in hashes.iter_mut().zip(&ids[range]) {
                    *h = mix(*h, payload(r as usize));
                }
            }
            None => {
                for (h, r) in hashes.iter_mut().zip(range) {
                    *h = mix(*h, payload(r));
                }
            }
        }
    }
}

#[inline(always)]
fn at(ids: Option<&[u32]>, i: usize) -> usize {
    match ids {
        Some(ids) => ids[i] as usize,
        None => i,
    }
}

/// The representation behind a [`KeySet`]'s hashes and equality.
enum KeyCols<'r> {
    /// Typed columns: hashes mix the typed payloads column-wise, equality
    /// compares them without touching a `Value`.
    Typed(Vec<KeyCol<'r>>),
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
/// so every hash operator runs the same build/probe loops over either
/// representation. Only a side that is tabled keeps its hashes
/// ([`KeySet::hashed`]); a side that probes hashes each run of rows as the
/// probe loop reaches it.
pub(crate) struct KeySet<'r> {
    cols: KeyCols<'r>,
    len: usize,
    /// Whether a null is a key value (a marked null equals only itself)
    /// rather than a reason to leave the row out.
    allow_nulls: bool,
    /// Per row, the hash of its key and whether it participates in hashing
    /// at all; empty until [`KeySet::hashed`].
    hashes: Vec<u64>,
    valid: Vec<bool>,
    /// The rows with a `NULL` in a key column whose `NULL` satisfies its
    /// key (see [`KeySet::set_wild`]), ascending; empty when no key of this
    /// side is null-aware.
    wild: Vec<u32>,
    /// Every hash replaced by this one: tests check that equal hashes are
    /// told apart by their keys.
    #[cfg(test)]
    fixed_hash: Option<u64>,
}

/// Rows hashed at a time by a side that probes.
const RUN: usize = 256;

/// The typed key columns of `rows` at `pos`, or `None` when any of them
/// lands in the `Values` fallback — representation-specific hashing would
/// be unsound there — or there are no rows to type them by.
fn typed_cols<'r>(rows: &'r Rows<'r>, pos: &[usize], pool: &StrPool) -> Option<Vec<KeyCol<'r>>> {
    if rows.is_empty() {
        return None;
    }
    let cols: Vec<KeyCol<'r>> = (pos.iter())
        .map(|&p| {
            let (col, ids) = rows.column_ids(p, pool);
            KeyCol { has_nulls: col.nulls().any_null(), col, ids }
        })
        .collect();
    (!cols.iter().any(|c| c.col.data().is_fallback())).then_some(cols)
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
        let cols = match vectorized.then(|| typed_cols(rows, pos, pool)).flatten() {
            Some(cols) => KeyCols::Typed(cols),
            None => KeyCols::Rows(rows, pos),
        };
        KeySet::new(cols, rows.len(), allow_nulls)
    }

    /// The keys of the two sides of a join or set operation, in **one**
    /// representation — cross-side hash and equality comparisons need it.
    /// Typed when `vectorized` and both sides can be typed column by column
    /// the same way. Differently typed sides stay typed under SQL semantics
    /// (`!allow_nulls`): their values are never syntactically equal, their
    /// nulls are invalid, so the probe simply finds nothing. Under naive
    /// semantics a null must meet itself across the sides whatever its
    /// column's type, which only the row-valued keys guarantee.
    pub(crate) fn pair(
        l: &'r Rows<'r>,
        l_pos: &'r [usize],
        r: &'r Rows<'r>,
        r_pos: &'r [usize],
        allow_nulls: bool,
        vectorized: bool,
        pool: &StrPool,
    ) -> (KeySet<'r>, KeySet<'r>) {
        let (mut lc, mut rc) = (KeyCols::Rows(l, l_pos), KeyCols::Rows(r, r_pos));
        if vectorized {
            let typed =
                typed_cols(l, l_pos, pool).and_then(|lc| Some((lc, typed_cols(r, r_pos, pool)?)));
            if let Some((lt, rt)) = typed {
                let same_repr = lt.len() == rt.len()
                    && lt.iter().zip(&rt).all(|(a, b)| a.col.data().same_repr(b.col.data()));
                if same_repr || !allow_nulls {
                    (lc, rc) = (KeyCols::Typed(lt), KeyCols::Typed(rt));
                }
            }
        }
        (KeySet::new(lc, l.len(), allow_nulls), KeySet::new(rc, r.len(), allow_nulls))
    }

    fn new(cols: KeyCols<'r>, len: usize, allow_nulls: bool) -> KeySet<'r> {
        KeySet {
            cols,
            len,
            allow_nulls,
            hashes: Vec::new(),
            valid: Vec::new(),
            wild: Vec::new(),
            #[cfg(test)]
            fixed_hash: None,
        }
    }

    /// The hashes and validity of the rows `range` (as many as `hashes`
    /// and `valid` hold).
    fn hash_rows(&self, range: Range<usize>, hashes: &mut [u64], valid: &mut [bool]) {
        hashes.fill(0x517c_c1b7_2722_0a95);
        valid.fill(true);
        match &self.cols {
            KeyCols::Typed(cols) => {
                for c in cols {
                    match c.col.data() {
                        ColumnData::Int(v) | ColumnData::Decimal(v) => {
                            c.mix_into(hashes, range.clone(), |r| v[r] as u64)
                        }
                        ColumnData::Float(v) => {
                            c.mix_into(hashes, range.clone(), |r| normalized_float_bits(v[r]))
                        }
                        ColumnData::Date(v) => c.mix_into(hashes, range.clone(), |r| v[r] as u64),
                        ColumnData::Bool(v) => c.mix_into(hashes, range.clone(), |r| v[r] as u64),
                        ColumnData::Str(v) => c.mix_into(hashes, range.clone(), |r| v[r] as u64),
                        ColumnData::Values(_) => {
                            unreachable!("typed keys exclude fallback columns")
                        }
                    }
                    if !c.has_nulls {
                        continue;
                    }
                    let nulls = c.col.nulls();
                    let mut null_row = |k: usize, r: usize| {
                        if self.allow_nulls {
                            // Mix in the null id, so ⊥ᵢ hashes by identity.
                            hashes[k] = mix(mix(hashes[k], NULL_TAG), nulls.raw_id(r));
                        } else {
                            valid[k] = false;
                        }
                    };
                    match c.ids {
                        // Only the null rows' bits are visited.
                        None => for_each_bit_in(nulls.words(), range.clone(), |r| {
                            null_row(r - range.start, r)
                        }),
                        Some(ids) => {
                            for (k, &r) in ids[range.clone()].iter().enumerate() {
                                if nulls.is_null(r as usize) {
                                    null_row(k, r as usize);
                                }
                            }
                        }
                    }
                }
            }
            KeyCols::Rows(rows, pos) => {
                for (k, i) in range.clone().enumerate() {
                    // A fixed-key hasher: plans execute identically run to run.
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    for &p in pos.iter() {
                        let v = rows.value(i, p);
                        valid[k] &= self.allow_nulls || !v.is_null();
                        v.hash(&mut h);
                    }
                    hashes[k] = h.finish();
                }
            }
        }
        // A wild row has a null key: it is already invalid unless nulls
        // are key values.
        if self.allow_nulls {
            for &w in wild_in(&self.wild, &range) {
                valid[w as usize - range.start] = false;
            }
        }
        #[cfg(test)]
        if let Some(fixed) = self.fixed_hash {
            hashes.fill(fixed);
        }
    }

    /// This side with every row's hash and validity kept: a side that is
    /// tabled or grouped.
    pub(crate) fn hashed(mut self) -> KeySet<'r> {
        let (mut hashes, mut valid) = (vec![0; self.len], vec![false; self.len]);
        self.hash_rows(0..self.len, &mut hashes, &mut valid);
        (self.hashes, self.valid) = (hashes, valid);
        self
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
        let mut wild = Vec::new();
        for (k, _) in null_ok.enumerate().filter(|(_, ok)| *ok) {
            let from = wild.len();
            match &self.cols {
                KeyCols::Typed(cols) if !cols[k].has_nulls => {}
                KeyCols::Typed(cols) => match cols[k].ids {
                    None => for_each_bit(cols[k].col.nulls().words(), |i| wild.push(i as u32)),
                    Some(ids) => wild.extend(
                        (0..ids.len() as u32)
                            .filter(|&i| cols[k].col.is_null(ids[i as usize] as usize)),
                    ),
                },
                KeyCols::Rows(rows, pos) => wild.extend(
                    (0..self.len as u32).filter(|&i| rows.value(i as usize, pos[k]).is_null()),
                ),
            }
            if from > 0 {
                wild.sort_unstable();
                wild.dedup();
            }
        }
        self.wild = wild;
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
            let (x, y) = (ca.at(i), cb.at(j));
            let (xn, yn) = (ca.col.is_null(x), cb.col.is_null(y));
            if xn || yn {
                if !(xn && yn) || ca.col.nulls().raw_id(x) != cb.col.nulls().raw_id(y) {
                    return false;
                }
                continue;
            }
            let eq = match (ca.col.data(), cb.col.data()) {
                (ColumnData::Int(xs), ColumnData::Int(ys))
                | (ColumnData::Decimal(xs), ColumnData::Decimal(ys)) => xs[x] == ys[y],
                (ColumnData::Float(xs), ColumnData::Float(ys)) => {
                    normalized_float_bits(xs[x]) == normalized_float_bits(ys[y])
                }
                (ColumnData::Date(xs), ColumnData::Date(ys)) => xs[x] == ys[y],
                (ColumnData::Bool(xs), ColumnData::Bool(ys)) => xs[x] == ys[y],
                (ColumnData::Str(xs), ColumnData::Str(ys)) => xs[x] == ys[y],
                _ => false,
            };
            if !eq {
                return false;
            }
        }
        true
    }

    /// Number of rows that enter the hash table (or would, for a build side
    /// left unhashed because nothing probes it).
    pub(crate) fn valid_rows(&self) -> usize {
        if self.valid.len() == self.len {
            return self.valid.iter().filter(|v| **v).count();
        }
        let (mut hashes, mut valid, mut count) = ([0; RUN], [false; RUN], 0);
        for start in (0..self.len).step_by(RUN) {
            let range = start..(start + RUN).min(self.len);
            let n = range.len();
            self.hash_rows(range, &mut hashes[..n], &mut valid[..n]);
            count += valid[..n].iter().filter(|v| **v).count();
        }
        count
    }

    /// Build the chained hash table over this side's valid rows (kept by
    /// [`KeySet::hashed`]), with at least twice as many buckets as rows.
    /// Rows are linked in reverse, each in front of its bucket's chain, so
    /// every chain ends up ascending.
    pub(crate) fn table(&self) -> KeyTable {
        debug_assert_eq!(self.hashes.len(), self.len, "a tabled side keeps its hashes");
        let n = self.len;
        let mut table = KeyTable::empty((2 * n).max(MIN_BUCKETS), n);
        for i in (0..n).rev() {
            if self.valid[i] {
                table.push_front(i, self.hashes[i]);
            }
        }
        table
    }

    /// The key's groups in first-occurrence order: per row the number of
    /// its key's group, and per group its first row — the rows a
    /// deduplication keeps. Nulls follow the set's rule, so keys built with
    /// `allow_nulls` group a marked null with itself only, exactly as
    /// `Relation::dedup` compares tuples.
    pub(crate) fn groups(self) -> Groups {
        let keys = self.hashed();
        with_key_eq(&keys, &keys, GroupLoop { keys: &keys })
    }
}

/// What [`KeySet::groups`] finds.
pub(crate) struct Groups {
    /// Per row, its group, numbered in first-occurrence order.
    pub(crate) of_row: Vec<u32>,
    /// Per group, its first row, ascending.
    pub(crate) firsts: Vec<u32>,
}

/// Key equality of row `i` of one key set and row `j` of another (or the
/// same) whose hashes are equal: the inner test of every probe loop.
trait KeyEq {
    fn eq(&self, i: usize, j: usize) -> bool;
}

/// A typed column's payloads, read through a set's ids.
#[derive(Clone, Copy)]
struct At<'a, T> {
    v: &'a [T],
    ids: Option<&'a [u32]>,
}

impl<T: Copy> At<'_, T> {
    #[inline(always)]
    fn get(&self, i: usize) -> T {
        self.v[at(self.ids, i)]
    }
}

/// One typed key column per side whose payloads compare as they are:
/// `i64` ints and decimals, `i32` days, `u32` string ids, `bool`s.
struct Same<'a, T>(At<'a, T>, At<'a, T>);

impl<T: Copy + PartialEq> KeyEq for Same<'_, T> {
    #[inline(always)]
    fn eq(&self, i: usize, j: usize) -> bool {
        self.0.get(i) == self.1.get(j)
    }
}

/// One float key column per side, compared by normalised bits — `Value`
/// equality: NaN equals NaN, −0.0 equals 0.0.
struct FloatBits<'a>(At<'a, f64>, At<'a, f64>);

impl KeyEq for FloatBits<'_> {
    #[inline(always)]
    fn eq(&self, i: usize, j: usize) -> bool {
        normalized_float_bits(self.0.get(i)) == normalized_float_bits(self.1.get(j))
    }
}

/// One typed key column per side whose nulls are key values (naive
/// semantics): a marked null equals only itself, a payload only an equal
/// payload.
struct NullIds<'a, 'r, K> {
    payload: K,
    a: &'a KeyCol<'r>,
    b: &'a KeyCol<'r>,
}

impl<K: KeyEq> KeyEq for NullIds<'_, '_, K> {
    #[inline(always)]
    fn eq(&self, i: usize, j: usize) -> bool {
        let (x, y) = (self.a.at(i), self.b.at(j));
        match (self.a.col.is_null(x), self.b.col.is_null(y)) {
            (false, false) => self.payload.eq(i, j),
            (true, true) => self.a.col.nulls().raw_id(x) == self.b.col.nulls().raw_id(y),
            _ => false,
        }
    }
}

/// Any other keys — several columns, differently typed ones, row-valued
/// ones — through [`KeySet::keys_eq`].
struct AnyKeys<'a, 'r>(&'a KeySet<'r>, &'a KeySet<'r>);

impl KeyEq for AnyKeys<'_, '_> {
    #[inline]
    fn eq(&self, i: usize, j: usize) -> bool {
        self.0.keys_eq(i, self.1, j)
    }
}

/// A loop over hash chains, run once the key type is known.
trait ChainLoop {
    type Out;
    fn run<K: KeyEq>(self, eq: K) -> Self::Out;
}

/// Run `chains` with the key equality of `a`'s and `b`'s keys: a loop
/// monomorphised on the column type for one typed key column per side
/// (with null ids when nulls are key values and either side has one),
/// [`AnyKeys`] otherwise.
fn with_key_eq<L: ChainLoop>(a: &KeySet<'_>, b: &KeySet<'_>, chains: L) -> L::Out {
    let (KeyCols::Typed(ca), KeyCols::Typed(cb)) = (&a.cols, &b.cols) else {
        return chains.run(AnyKeys(a, b));
    };
    let ([ca], [cb]) = (ca.as_slice(), cb.as_slice()) else {
        return chains.run(AnyKeys(a, b));
    };
    let nulls = a.allow_nulls && (ca.has_nulls || cb.has_nulls);
    fn typed<L: ChainLoop, K: KeyEq>(
        chains: L,
        payload: K,
        (ca, cb, nulls): (&KeyCol<'_>, &KeyCol<'_>, bool),
    ) -> L::Out {
        match nulls {
            true => chains.run(NullIds { payload, a: ca, b: cb }),
            false => chains.run(payload),
        }
    }
    let (x, y, sides) = (ca.ids, cb.ids, (ca, cb, nulls));
    match (ca.col.data(), cb.col.data()) {
        (ColumnData::Int(v), ColumnData::Int(w))
        | (ColumnData::Decimal(v), ColumnData::Decimal(w)) => {
            typed(chains, Same(At { v, ids: x }, At { v: w, ids: y }), sides)
        }
        (ColumnData::Date(v), ColumnData::Date(w)) => {
            typed(chains, Same(At { v, ids: x }, At { v: w, ids: y }), sides)
        }
        (ColumnData::Str(v), ColumnData::Str(w)) => {
            typed(chains, Same(At { v, ids: x }, At { v: w, ids: y }), sides)
        }
        (ColumnData::Bool(v), ColumnData::Bool(w)) => {
            typed(chains, Same(At { v, ids: x }, At { v: w, ids: y }), sides)
        }
        (ColumnData::Float(v), ColumnData::Float(w)) => {
            typed(chains, FloatBits(At { v, ids: x }, At { v: w, ids: y }), sides)
        }
        _ => chains.run(AnyKeys(a, b)),
    }
}

/// The probe loop: hash the probe rows of `range` a run at a time, and for
/// every valid one, in order, walk its bucket's chain and call
/// `on_pair(i, j)` for every tabled row `j` whose key equals row `i`'s, in
/// ascending order, until it returns `false`.
struct ProbeLoop<'a, 'r, F> {
    probe: &'a KeySet<'r>,
    build: &'a KeySet<'r>,
    table: &'a KeyTable,
    range: Range<usize>,
    on_pair: F,
}

impl<F: FnMut(usize, usize) -> bool> ChainLoop for ProbeLoop<'_, '_, F> {
    type Out = ();

    fn run<K: KeyEq>(mut self, eq: K) {
        let (table, next, build) = (self.table, &self.table.next, &self.build.hashes);
        let (mut hashes, mut valid) = ([0u64; RUN], [false; RUN]);
        for start in self.range.clone().step_by(RUN) {
            let run = start..(start + RUN).min(self.range.end);
            let n = run.len();
            self.probe.hash_rows(run.clone(), &mut hashes[..n], &mut valid[..n]);
            for (k, i) in run.enumerate() {
                if !valid[k] {
                    continue;
                }
                let hash = hashes[k];
                let mut j = table.heads[table.bucket(hash)];
                while j != END {
                    let b = j as usize;
                    if build[b] == hash && eq.eq(i, b) && !(self.on_pair)(i, b) {
                        break;
                    }
                    j = next[b];
                }
            }
        }
    }
}

/// The grouping loop of [`KeySet::groups`]: a table of each group's first
/// row, filled as the rows go by — a row whose chain holds an equal key
/// joins that group, any other row opens the next one.
struct GroupLoop<'a, 'r> {
    keys: &'a KeySet<'r>,
}

impl ChainLoop for GroupLoop<'_, '_> {
    type Out = Groups;

    fn run<K: KeyEq>(self, eq: K) -> Groups {
        let hashes = &self.keys.hashes;
        let n = hashes.len();
        debug_assert!(self.keys.valid.iter().all(|&v| v), "every row has a group");
        let mut table = KeyTable::empty(2 * n, n);
        let mut groups = Groups { of_row: Vec::with_capacity(n), firsts: Vec::new() };
        for (i, &hash) in hashes.iter().enumerate() {
            let mut j = table.heads[table.bucket(hash)];
            while j != END && !(hashes[j as usize] == hash && eq.eq(i, j as usize)) {
                j = table.next[j as usize];
            }
            if j != END {
                groups.of_row.push(groups.of_row[j as usize]);
                continue;
            }
            groups.of_row.push(groups.firsts.len() as u32);
            groups.firsts.push(i as u32);
            table.push_front(i, hash);
        }
        groups
    }
}

/// The matcher of a hash operator, shared by every probe morsel: which build
/// rows does each probe row join to?
///
/// The hash table decides the pairs of *hashed* rows: equal keys, then the
/// residual — skipped when it is constant `TRUE`. What it cannot decide — a
/// key whose `NULL` matches every row of the other side has no bucket — is
/// decided by the operator's full condition, the very predicate a nested
/// loop evaluates: a *wild* probe row (a `NULL` in a probe-null-ok key) is
/// matched once against the whole build side, through the nested loop's
/// [`BoundPred`] mask when vectorized, and, only when wild build rows
/// exist, every other probe row is checked against them too. A `NULL` in a
/// key that is not null-ok keeps its plain meaning (never matches under
/// SQL, an ordinary key value under naive semantics). Without null-aware
/// keys no row is wild and only the typed probe loop runs.
pub(crate) struct HashMatcher<'r> {
    probe: KeySet<'r>,
    build: KeySet<'r>,
    table: KeyTable,
    /// The residual, unless it is constant `TRUE`.
    residual: Option<&'r CompiledPredicate>,
    /// The full condition of null-aware keys, and its mask over the build
    /// side when it runs vectorized for wild probe rows.
    full: Option<(&'r CompiledPredicate, Option<BoundPred<'r>>)>,
    l: &'r Rows<'r>,
    r: &'r Rows<'r>,
    values: &'r ScalarValues,
    semantics: NullSemantics,
    pool: &'r StrPool,
}

impl<'r> HashMatcher<'r> {
    /// Prepare the matcher of a hash operator over `l` (probe) and `r`
    /// (build): the two sides' key sets and the build table. Under SQL
    /// semantics a null in a plain key never matches; under naive semantics
    /// nulls are ordinary key values. With null-aware keys, the rows holding
    /// a `NULL` that satisfies a key on its own are set aside on both sides.
    /// Nothing is tabled for an empty probe side.
    pub(crate) fn new(
        (l, r): (&'r Rows<'r>, &'r Rows<'r>),
        keys: &'r HashKeys,
        values: &'r ScalarValues,
        semantics: NullSemantics,
        vectorized: bool,
        pool: &'r StrPool,
    ) -> HashMatcher<'r> {
        let naive = semantics == NullSemantics::Naive;
        let (mut probe, mut build) =
            KeySet::pair(l, &keys.left, r, &keys.right, naive, vectorized, pool);
        let mut full = None;
        if let Some(null_aware) = &keys.null_aware {
            probe.set_wild(null_aware.null_ok.iter().map(|ok| ok.left));
            build.set_wild(null_aware.null_ok.iter().map(|ok| ok.right));
            let bind = vectorized && !probe.wild.is_empty() && !r.is_empty();
            let bound = bind.then(|| {
                BoundPred::prepare(&null_aware.full, r, l.width(), values, semantics, pool)
            });
            full = Some((&null_aware.full, bound));
        }
        let (build, table) = match l.is_empty() {
            true => (build, KeyTable::empty(1, 0)),
            false => {
                let build = build.hashed();
                let table = build.table();
                (build, table)
            }
        };
        HashMatcher {
            table,
            probe,
            build,
            residual: (!keys.residual.is_const_true()).then_some(&keys.residual),
            full,
            l,
            r,
            values,
            semantics,
            pool,
        }
    }

    /// Whether the keys are typed columns (the vectorized representation).
    pub(crate) fn is_typed(&self) -> bool {
        self.probe.is_typed()
    }

    /// Number of build rows in the table.
    pub(crate) fn build_rows(&self) -> usize {
        self.build.valid_rows()
    }

    /// Whether `pred` holds on the pair (probe row `i`, build row `j`).
    #[inline]
    fn holds(&self, pred: &CompiledPredicate, i: usize, j: usize) -> bool {
        pred.eval(RowView::pair(self.l, i, self.r, j), self.values, self.semantics).is_true()
    }

    fn full(&self) -> &CompiledPredicate {
        self.full.as_ref().expect("wild rows need null-aware keys").0
    }

    /// Run the typed probe loop over the hashed probe rows of `range`:
    /// `on_pair(i, j)` for every key-equal pair the residual holds on, in
    /// probe order and, per probe row, build order, until it returns
    /// `false`.
    fn probe(&self, range: Range<usize>, mut on_pair: impl FnMut(usize, usize) -> bool) {
        let (probe, build, table) = (&self.probe, &self.build, &self.table);
        let on_pair = |i, j| match self.residual {
            Some(residual) if !self.holds(residual, i, j) => true,
            _ => on_pair(i, j),
        };
        with_key_eq(probe, build, ProbeLoop { probe, build, table, range, on_pair })
    }

    /// The build rows wild probe row `i` joins to, in build order: the full
    /// condition against every build row.
    fn wild_partners(&self, i: usize, hit: impl FnMut(usize)) {
        match self.full.as_ref().and_then(|(_, bound)| bound.as_ref()) {
            Some(bound) => {
                let context = (self.values, self.semantics, self.pool);
                bound.for_each_true(RowView::one(self.l, i), context, hit)
            }
            None => (0..self.r.len()).filter(|&j| self.holds(self.full(), i, j)).for_each(hit),
        }
    }

    /// Append the pairs (probe row, build row) the probe rows `range` join
    /// in: probe order, each probe row's partners in build order — the
    /// order a nested loop over the same condition finds them in.
    pub(crate) fn join(&self, range: Range<usize>, out: &mut Vec<(u32, u32)>) {
        let mut from = range.start;
        for &w in wild_in(&self.probe.wild, &range) {
            self.join_hashed(from..w as usize, out);
            self.wild_partners(w as usize, |j| out.push((w, j as u32)));
            from = w as usize + 1;
        }
        self.join_hashed(from..range.end, out);
    }

    /// [`HashMatcher::join`] over probe rows that are not wild. Wild build
    /// rows, when there are any, are merged into each probe row's bucket
    /// partners in build order.
    fn join_hashed(&self, range: Range<usize>, out: &mut Vec<(u32, u32)>) {
        // Without wild build rows the range is one run; with them, each
        // probe row is its own, its wild partners merged in afterwards.
        let merge = !self.build.wild.is_empty();
        let step = if merge { 1 } else { range.len().max(1) };
        for start in range.clone().step_by(step) {
            let from = out.len();
            self.probe(start..(start + step).min(range.end), |i, j| {
                out.push((i as u32, j as u32));
                true
            });
            if merge {
                let full = |&&w: &&u32| self.holds(self.full(), start, w as usize);
                out.extend(self.build.wild.iter().filter(full).map(|&w| (start as u32, w)));
                out[from..].sort_unstable_by_key(|&(_, j)| j);
            }
        }
    }

    /// Append the probe rows of `range` that have a partner
    /// (`keep_matching`) or have none (`!keep_matching`), ascending: each
    /// stops at its first partner.
    pub(crate) fn semi(&self, range: Range<usize>, keep_matching: bool, keep: &mut Vec<u32>) {
        let start = range.start;
        let mut matched = vec![false; range.len()];
        self.probe(range.clone(), |i, _| {
            matched[i - start] = true;
            false
        });
        for &w in wild_in(&self.probe.wild, &range) {
            let mut any = false;
            self.wild_partners(w as usize, |_| any = true);
            matched[w as usize - start] = any;
        }
        if !self.build.wild.is_empty() {
            let mut wild = wild_in(&self.probe.wild, &range).iter().peekable();
            for (k, matched) in matched.iter_mut().enumerate() {
                let i = start + k;
                if wild.next_if(|&&w| w as usize == i).is_some() {
                    continue;
                }
                *matched = *matched
                    || self.build.wild.iter().any(|&w| self.holds(self.full(), i, w as usize));
            }
        }
        let kept = matched.iter().enumerate().filter(|&(_, &m)| m == keep_matching);
        keep.extend(kept.map(|(k, _)| (start + k) as u32));
    }
}

/// Call `f(i)` for every set bit `i` of `words` (64 rows per word) in
/// `range`, ascending.
fn for_each_bit_in(words: &[u64], range: Range<usize>, mut f: impl FnMut(usize)) {
    if range.is_empty() {
        return;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    for (w, &word) in words.iter().enumerate().take(last + 1).skip(first) {
        let mut bits = word;
        if w == first {
            bits &= u64::MAX << (range.start % 64);
        }
        if w == last && !range.end.is_multiple_of(64) {
            bits &= u64::MAX >> (64 - range.end % 64);
        }
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The rows of the ascending `wild` that fall in `range`.
fn wild_in<'w>(wild: &'w [u32], range: &Range<usize>) -> &'w [u32] {
    let at = |i: usize| wild.partition_point(|&w| (w as usize) < i);
    &wild[at(range.start)..at(range.end)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Relation, Tuple};
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

    /// `n` rows of a table whose columns are named `names`: a key column of
    /// `kind`, an int key column, and an int the residual reads. Keys come
    /// from small domains, so most rows share one, and one row in ten has a
    /// null key; or every row has the same key; or every first key is null
    /// (the `Values` fallback, so row-valued keys).
    fn keyed(names: [&str; 3], n: usize, kind: Kind, shape: &str, rng: &mut StdRng) -> Relation {
        let null = |rng: &mut StdRng| Value::Null(NullId(rng.gen_range(1..4u64)));
        let rows = (0..n)
            .map(|_| {
                let k1 = match shape {
                    "all equal" => value(kind, &mut StdRng::seed_from_u64(1)),
                    "all null" => null(rng),
                    _ if rng.gen_bool(0.1) => null(rng),
                    _ => value(kind, rng),
                };
                let k2 = match shape {
                    "all equal" => Value::Int(0),
                    _ if rng.gen_bool(0.1) => null(rng),
                    _ => Value::Int(rng.gen_range(0..2)),
                };
                vec![k1, k2, Value::Int(rng.gen_range(0..3))]
            })
            .collect();
        rel(&names, rows)
    }

    /// `rel` with every float NaN replaced by 0.5.
    fn without_nan(rel: Relation) -> Relation {
        let rows = (rel.tuples().iter())
            .map(|t| {
                let nan = |v: &Value| matches!(v, Value::Float(f) if f.is_nan());
                t.values()
                    .iter()
                    .map(|v| if nan(v) { Value::Float(0.5) } else { v.clone() })
                    .collect()
            })
            .collect();
        Relation::from_parts(rel.schema().clone(), rows)
    }

    /// A hash operator's condition over `l (a, b, x)` and `r (c, d, y)`:
    /// the key `a = c`, also `b = d` when `multi`; the first key
    /// null-aware on the sides `aware` names (`… OR a IS NULL`,
    /// `… OR c IS NULL`); and the residual `x <> y` when `residual`.
    /// Returns the operator's keys and its full condition.
    fn condition(
        (multi, aware, residual): (bool, (bool, bool), bool),
        schema: &crate::data::Schema,
    ) -> (HashKeys, CompiledPredicate) {
        use crate::algebra::builder::{eq, is_null, neq};
        use crate::algebra::Condition;
        use crate::engine::compile::{compile_condition, NullAware};
        use crate::plan::NullOk;
        let mut first = eq("a", "c");
        if aware.0 {
            first = first.or(is_null("a"));
        }
        if aware.1 {
            first = first.or(is_null("c"));
        }
        let keys = if multi { first.and(eq("b", "d")) } else { first };
        let residual = if residual { neq("x", "y") } else { Condition::True };
        let full = keys.and(residual.clone());
        let compile = |c: &Condition| compile_condition(c, schema, &mut Vec::new()).unwrap();
        let pos: Vec<usize> = if multi { vec![0, 1] } else { vec![0] };
        let mut null_ok = vec![NullOk { left: aware.0, right: aware.1 }];
        null_ok.extend(multi.then_some(NullOk { left: false, right: false }));
        let null_aware = (aware.0 || aware.1).then(|| NullAware { null_ok, full: compile(&full) });
        let keys =
            HashKeys { left: pos.clone(), right: pos, residual: compile(&residual), null_aware };
        (keys, compile(&full))
    }

    /// The probe rows `0..len` in `morsels` contiguous morsels, each in runs
    /// of at most 256 rows, as the engine's probe driver calls a matcher.
    fn runs(len: usize, morsels: usize) -> Vec<Range<usize>> {
        let size = len.div_ceil(morsels).max(1);
        (0..len)
            .step_by(size)
            .flat_map(|m| {
                let end = (m + size).min(len);
                (m..end).step_by(256).map(move |r| r..(r + 256).min(end))
            })
            .collect()
    }

    /// Join, semijoin and anti-join of one condition, run by the typed
    /// kernels over 1 and 4 morsels, against a nested loop over the full
    /// condition: the same pairs in the same order (probe order, then
    /// build order), the same survivors.
    fn assert_kernels_match_a_nested_loop(
        (l, r): (&Relation, &Relation),
        case: (bool, (bool, bool), bool),
        (semantics, vectorized, collide): (NullSemantics, bool, bool),
        pool: &StrPool,
    ) {
        let (probe, build) = (Rows::whole(Cow::Borrowed(l)), Rows::whole(Cow::Borrowed(r)));
        let schema = l.schema().concat(r.schema());
        let (keys, full) = condition(case, &schema);
        let scalars = ScalarValues::new(0);
        let mut want = Vec::new();
        for i in 0..probe.len() {
            for j in 0..build.len() {
                let view = RowView::pair(&probe, i, &build, j);
                if full.eval(view, &scalars, semantics).is_true() {
                    want.push((i as u32, j as u32));
                }
            }
        }
        let mut m =
            HashMatcher::new((&probe, &build), &keys, &scalars, semantics, vectorized, pool);
        if collide && !probe.is_empty() {
            // Every row in one bucket with one hash: the loop must tell the
            // chain's keys apart by comparing them.
            m.probe.fixed_hash = Some(42);
            m.build.fixed_hash = Some(42);
            m.build = m.build.hashed();
            m.table = m.build.table();
        }
        let at = format!(
            "{} × {} rows, (multi, aware, residual) {case:?}, {semantics:?}, vectorized \
             {vectorized}, collide {collide}",
            l.len(),
            r.len()
        );
        for morsels in [1, 4] {
            let (mut pairs, mut semi_rows, mut anti) = (Vec::new(), Vec::new(), Vec::new());
            for range in runs(probe.len(), morsels) {
                m.join(range.clone(), &mut pairs);
                m.semi(range.clone(), true, &mut semi_rows);
                m.semi(range, false, &mut anti);
            }
            assert_eq!(pairs, want, "join, {morsels} morsels, {at}");
            let mut hits: Vec<u32> = want.iter().map(|p| p.0).collect();
            hits.dedup();
            let misses: Vec<u32> = (0..l.len() as u32).filter(|i| !hits.contains(i)).collect();
            assert_eq!(semi_rows, hits, "semijoin, {morsels} morsels, {at}");
            assert_eq!(anti, misses, "anti-join, {morsels} morsels, {at}");
        }
    }

    /// The group and dedup kernels over the columns `pos` of `rel` against a
    /// nested loop (each row's group is its first equal row's, numbered in
    /// first-occurrence order) and against `Relation::dedup`.
    fn assert_groups_match(rel: &Relation, pos: &[usize], vectorized: bool, pool: &StrPool) {
        let rows = Rows::whole(Cow::Borrowed(rel));
        let groups = KeySet::build(&rows, pos, true, vectorized, pool).groups();
        let keys: Vec<Tuple> = rel.tuples().iter().map(|t| t.project(pos)).collect();
        let mut firsts = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let first = keys.iter().position(|k| k == key).unwrap();
            if first == i {
                firsts.push(i as u32);
            }
            let group = firsts.iter().position(|&f| f as usize == first).unwrap();
            assert_eq!(groups.of_row[i] as usize, group, "row {i} of {}, {pos:?}", rel.len());
        }
        assert_eq!(groups.firsts, firsts, "{} rows, {pos:?}, vectorized {vectorized}", rel.len());
        let mut deduped = Relation::from_parts(rel.schema().project(pos).shared(), keys.clone());
        deduped.dedup();
        let kept: Vec<Tuple> = firsts.iter().map(|&i| keys[i as usize].clone()).collect();
        assert_eq!(deduped.tuples(), kept.as_slice(), "dedup of {} rows, {pos:?}", rel.len());
    }

    #[test]
    fn key_table_partners_match_a_nested_loop_in_build_order() {
        let pool = StrPool::new();
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        let kinds = [Kind::Int, Kind::Decimal, Kind::Float, Kind::Date, Kind::Bool, Kind::Str];
        let awareness = [(false, false), (true, false), (false, true), (true, true)];
        // Every key type and shape, multi-column keys, null-aware keys wild
        // on either side or both, a residual, both semantics, typed and
        // row-valued keys, on small sides.
        for kind in kinds {
            for shape in ["random", "all equal", "all null"] {
                let keys = keyed(["a", "b", "x"], 37, kind, shape, &mut rng);
                for pos in [&[0][..], &[0, 1], &[0, 1, 2]] {
                    for vectorized in [true, false] {
                        assert_groups_match(&keys, pos, vectorized, &pool);
                    }
                }
                // A NaN key equals only a NaN key, as `Value` equality has
                // it, while a comparison counts NaN equal to every number:
                // the joins are checked on the other floats.
                let (l, r) = (
                    without_nan(keyed(["a", "b", "x"], 37, kind, shape, &mut rng)),
                    without_nan(keyed(["c", "d", "y"], 41, kind, shape, &mut rng)),
                );
                for multi in [false, true] {
                    for aware in awareness {
                        for residual in [false, true] {
                            for semantics in SEMANTICS {
                                for vectorized in [true, false] {
                                    let collide = !residual && kind == Kind::Str;
                                    let case = (multi, aware, residual);
                                    let run = (semantics, vectorized, collide);
                                    assert_kernels_match_a_nested_loop((&l, &r), case, run, &pool);
                                }
                            }
                        }
                    }
                }
            }
        }
        // Sides around the table's smallest size and the probe runs' edges,
        // empty sides included, and a table of more than 2 × MIN_BUCKETS
        // rows probed by a few rows, and a small one by many runs.
        let sizes = [
            (0, 5),
            (5, 0),
            (1, 1),
            (3, 1023),
            (257, 1024),
            (255, 1025),
            (256, 300),
            (41, 5000),
            (5000, 41),
        ];
        for (n_probe, n_build) in sizes {
            let l = keyed(["a", "b", "x"], n_probe, Kind::Int, "random", &mut rng);
            let r = keyed(["c", "d", "y"], n_build, Kind::Int, "random", &mut rng);
            for semantics in SEMANTICS {
                for (vectorized, aware) in
                    [(true, (true, true)), (false, (true, true)), (true, (false, false))]
                {
                    let run = (semantics, vectorized, false);
                    assert_kernels_match_a_nested_loop((&l, &r), (false, aware, true), run, &pool);
                }
            }
            assert_groups_match(&r, &[0, 1], true, &pool);
        }
    }
}
