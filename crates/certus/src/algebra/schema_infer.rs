//! Output-schema inference and validation for algebra expressions.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::{AggFunc, RaExpr};
use crate::data::{Attribute, Database, Schema, ValueType};
use crate::{Error, Result};
use std::sync::Arc;

/// Anything that can provide table schemas and key constraints — the planner
/// and the translations only need this much of a database.
pub trait Catalog {
    /// The schema of a named table.
    fn table_schema(&self, name: &str) -> Result<Arc<Schema>>;
    /// The declared primary-key columns of a table (empty if none).
    fn table_key(&self, name: &str) -> Vec<String>;
    /// All table names (used by the active-domain computation of the Fig. 2
    /// translation).
    fn tables(&self) -> Vec<String>;
}

impl Catalog for Database {
    fn table_schema(&self, name: &str) -> Result<Arc<Schema>> {
        Ok(self.table_def(name)?.schema.clone())
    }

    fn table_key(&self, name: &str) -> Vec<String> {
        self.table_def(name).map(|d| d.primary_key.clone()).unwrap_or_default()
    }

    fn tables(&self) -> Vec<String> {
        self.table_names().into_iter().map(String::from).collect()
    }
}

/// Compute the output schema of an expression, validating column references,
/// arities and set-operation compatibility along the way.
pub(crate) fn output_schema(expr: &RaExpr, catalog: &dyn Catalog) -> Result<Schema> {
    shared_schema(expr, catalog).map(Arc::unwrap_or_clone)
}

fn shared_schema(expr: &RaExpr, catalog: &dyn Catalog) -> Result<Arc<Schema>> {
    infer(expr, catalog, &mut |input| shared_schema(input, catalog))
}

/// The output schemas of the nodes of one expression, each inferred once
/// however often it is asked for: for a walk that needs the schemas of a
/// node's inputs before it descends into them.
pub(crate) struct SchemaMemo<'e> {
    catalog: &'e dyn Catalog,
    /// A few dozen nodes at most: a scan finds one faster than a hash would.
    known: Vec<(&'e RaExpr, Arc<Schema>)>,
}

impl<'e> SchemaMemo<'e> {
    /// An empty memo over the catalog's tables.
    pub fn new(catalog: &'e dyn Catalog) -> Self {
        SchemaMemo { catalog, known: Vec::new() }
    }

    /// [`output_schema`] of this node (the node at this address, not an
    /// equal one), remembered together with those of the nodes beneath it.
    pub(crate) fn schema_of(&mut self, expr: &'e RaExpr) -> Result<Arc<Schema>> {
        if let Some((_, known)) = self.known.iter().find(|(node, _)| std::ptr::eq(*node, expr)) {
            return Ok(known.clone());
        }
        let schema = infer(expr, self.catalog, &mut |input| self.schema_of(input))?;
        self.known.push((expr, schema.clone()));
        Ok(schema)
    }
}

/// The rule of each operator: its output schema from those of its inputs,
/// which `input` answers.
fn infer<'e>(
    expr: &'e RaExpr,
    catalog: &dyn Catalog,
    input: &mut dyn FnMut(&'e RaExpr) -> Result<Arc<Schema>>,
) -> Result<Arc<Schema>> {
    crate::obs::profile::record_schema_inference();
    match expr {
        RaExpr::Relation { name, alias } => {
            let schema = catalog.table_schema(name)?;
            Ok(match alias {
                Some(a) => Arc::new(schema.qualify(a)),
                None => schema,
            })
        }
        RaExpr::Values { schema, rows } => {
            for r in rows {
                if r.len() != schema.arity() {
                    return Err(Error::Malformed(format!(
                        "literal row arity {} does not match schema arity {}",
                        r.len(),
                        schema.arity()
                    )));
                }
            }
            Ok(Arc::new(schema.clone()))
        }
        RaExpr::Select { input: child, condition } => {
            let schema = input(child)?;
            check_condition(condition, &schema)?;
            Ok(schema)
        }
        RaExpr::Project { input: child, columns } => {
            let schema = input(child)?;
            let mut attrs = Vec::with_capacity(columns.len());
            for c in columns {
                let pos = schema.position_of(&c.column)?;
                let src = schema.attr(pos);
                attrs.push(Attribute {
                    name: c.output_name().to_string(),
                    ty: src.ty,
                    nullable: src.nullable,
                });
            }
            Ok(Arc::new(Schema::new(attrs)))
        }
        RaExpr::Product { left, right } => Ok(Arc::new(input(left)?.concat(&*input(right)?))),
        RaExpr::Join { left, right, condition } => {
            let schema = input(left)?.concat(&*input(right)?);
            check_condition(condition, &schema)?;
            Ok(Arc::new(schema))
        }
        RaExpr::Union { left, right }
        | RaExpr::Intersect { left, right }
        | RaExpr::Difference { left, right } => {
            let l = input(left)?;
            let r = input(right)?;
            if !l.union_compatible(&r) {
                return Err(Error::Malformed(format!(
                    "set operation over incompatible schemas {l} and {r}"
                )));
            }
            Ok(l)
        }
        RaExpr::SemiJoin { left, right, condition }
        | RaExpr::AntiJoin { left, right, condition } => {
            let l = input(left)?;
            let combined = l.concat(&*input(right)?);
            check_condition(condition, &combined)?;
            Ok(l)
        }
        RaExpr::UnifySemiJoin { left, right } | RaExpr::UnifyAntiSemiJoin { left, right } => {
            let l = input(left)?;
            let r = input(right)?;
            if l.arity() != r.arity() {
                return Err(Error::Malformed(format!(
                    "unification semijoin over different arities {} and {}",
                    l.arity(),
                    r.arity()
                )));
            }
            Ok(l)
        }
        RaExpr::Rename { input: child, columns } => input(child)?.rename(columns).map(Arc::new),
        RaExpr::Distinct { input: child } => input(child),
        RaExpr::Aggregate { input: child, group_by, aggregates } => {
            let schema = input(child)?;
            let mut attrs = Vec::new();
            for g in group_by {
                let pos = schema.position_of(g)?;
                attrs.push(schema.attr(pos).clone());
            }
            for a in aggregates {
                let ty = match a.func {
                    AggFunc::CountStar | AggFunc::Count => ValueType::Int,
                    AggFunc::Avg => ValueType::Float,
                    AggFunc::Sum | AggFunc::Min | AggFunc::Max => match &a.column {
                        Some(c) => {
                            let pos = schema.position_of(c)?;
                            schema.attr(pos).ty
                        }
                        None => ValueType::Any,
                    },
                };
                if a.func != AggFunc::CountStar {
                    let col = a.column.as_ref().ok_or_else(|| {
                        Error::Malformed(format!("aggregate {} needs a column", a.func))
                    })?;
                    schema.position_of(col)?;
                }
                attrs.push(Attribute { name: a.alias.clone(), ty, nullable: true });
            }
            Ok(Arc::new(Schema::new(attrs)))
        }
    }
}

/// Check that every column referenced by a condition resolves in the schema.
/// Scalar subqueries are *not* resolved here (they are uncorrelated and are
/// validated when evaluated).
pub(crate) fn check_condition(condition: &Condition, schema: &Schema) -> Result<()> {
    for col in condition.columns() {
        schema.position_of(&col)?;
    }
    // Validate operand shapes: scalar subqueries must be single-column.
    validate_operands(condition)
}

fn validate_operands(condition: &Condition) -> Result<()> {
    match condition {
        Condition::Cmp { left, right, .. } => {
            for op in [left, right] {
                if let Operand::Scalar(q) = op {
                    if let RaExpr::Aggregate { aggregates, group_by, .. } = q.as_ref() {
                        if aggregates.len() + group_by.len() != 1 {
                            return Err(Error::ScalarSubquery(
                                "scalar subquery must produce a single column".into(),
                            ));
                        }
                    }
                }
            }
            Ok(())
        }
        Condition::And(a, b) | Condition::Or(a, b) => {
            validate_operands(a)?;
            validate_operands(b)
        }
        Condition::Not(inner) => validate_operands(inner),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::expr::{AggExpr, ProjCol};
    use crate::data::builder::rel;
    use crate::data::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db.insert_relation("s", rel(&["c"], vec![vec![Value::Int(1)]]));
        db
    }

    #[test]
    fn relation_and_alias_schemas() {
        let db = db();
        let s = output_schema(&RaExpr::relation("r"), &db).unwrap();
        assert_eq!(s.names(), vec!["a", "b"]);
        let s = output_schema(&RaExpr::relation_as("r", "x"), &db).unwrap();
        assert_eq!(s.names(), vec!["x.a", "x.b"]);
        assert!(output_schema(&RaExpr::relation("nope"), &db).is_err());
    }

    #[test]
    fn select_validates_columns() {
        let db = db();
        let ok = RaExpr::relation("r").select(Condition::eq_cols("a", "b"));
        assert!(output_schema(&ok, &db).is_ok());
        let bad = RaExpr::relation("r").select(Condition::eq_cols("a", "zzz"));
        assert!(output_schema(&bad, &db).is_err());
    }

    #[test]
    fn project_renames_and_types() {
        let db = db();
        let q = RaExpr::relation("r")
            .project_cols(vec![ProjCol::aliased("b", "bb"), ProjCol::named("a")]);
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.names(), vec!["bb", "a"]);
    }

    #[test]
    fn set_ops_require_compatibility() {
        let db = db();
        let bad = RaExpr::relation("r").union(RaExpr::relation("s"));
        assert!(output_schema(&bad, &db).is_err());
        let ok = RaExpr::relation("s").union(RaExpr::relation("s"));
        assert!(output_schema(&ok, &db).is_ok());
    }

    #[test]
    fn semijoin_keeps_left_schema_and_checks_condition() {
        let db = db();
        let q =
            RaExpr::relation("r").semi_join(RaExpr::relation("s"), Condition::eq_cols("a", "c"));
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.names(), vec!["a", "b"]);
        let bad =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), Condition::eq_cols("a", "zzz"));
        assert!(output_schema(&bad, &db).is_err());
    }

    #[test]
    fn memo_answers_as_output_schema_does_for_every_node() {
        let db = db();
        let join = RaExpr::relation("r").join(RaExpr::relation("s"), Condition::eq_cols("a", "c"));
        let q = join
            .clone()
            .semi_join(RaExpr::relation_as("s", "u"), Condition::eq_cols("b", "u.c"))
            .project_cols(vec![ProjCol::aliased("c", "cc")])
            .union(RaExpr::relation("s"));
        let mut memo = SchemaMemo::new(&db);
        let mut nodes = vec![&q];
        while let Some(node) = nodes.pop() {
            // Twice: inferred, then remembered.
            for _ in 0..2 {
                assert_eq!(*memo.schema_of(node).unwrap(), output_schema(node, &db).unwrap());
            }
            nodes.extend(node.children());
        }
        // Validation comes with it, as in `output_schema`.
        let bad = join.select(Condition::eq_cols("a", "zzz"));
        assert!(SchemaMemo::new(&db).schema_of(&bad).is_err());
    }

    #[test]
    fn unify_semijoin_requires_same_arity() {
        let db = db();
        let bad = RaExpr::relation("r").unify_semi_join(RaExpr::relation("s"));
        assert!(output_schema(&bad, &db).is_err());
        let ok = RaExpr::relation("s").unify_anti_join(RaExpr::relation("s"));
        assert_eq!(output_schema(&ok, &db).unwrap().names(), vec!["c"]);
    }

    #[test]
    fn division_schema() {
        let mut db = Database::new();
        db.insert_relation(
            "takes",
            rel(&["student", "course"], vec![vec![Value::Int(1), Value::Int(10)]]),
        );
        db.insert_relation("courses", rel(&["course"], vec![vec![Value::Int(10)]]));
        let q = RaExpr::relation("takes").divide(RaExpr::relation("courses"), &db).unwrap();
        assert_eq!(output_schema(&q, &db).unwrap().names(), vec!["student"]);
        // A divisor column the dividend lacks is refused.
        assert!(RaExpr::relation("courses").divide(RaExpr::relation("takes"), &db).is_err());
    }

    #[test]
    fn aggregate_schema() {
        let db = db();
        let q = RaExpr::relation("r").aggregate(
            &["a"],
            vec![AggExpr::new(AggFunc::Avg, "b", "avg_b"), AggExpr::count_star("n")],
        );
        let s = output_schema(&q, &db).unwrap();
        assert_eq!(s.names(), vec!["a", "avg_b", "n"]);
        assert_eq!(s.attr(1).ty, ValueType::Float);
        assert_eq!(s.attr(2).ty, ValueType::Int);
    }

    #[test]
    fn rename_checks_arity() {
        let db = db();
        assert!(output_schema(&RaExpr::relation("r").rename(&["x"]), &db).is_err());
        let s = output_schema(&RaExpr::relation("r").rename(&["x", "y"]), &db).unwrap();
        assert_eq!(s.names(), vec!["x", "y"]);
    }
}
