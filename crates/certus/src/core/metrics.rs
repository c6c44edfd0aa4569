//! False-positive accounting: how many returned tuples are certain answers.
//!
//! The paper's headline measure (Sections 4 and 7) is the fraction of
//! *false positives* among SQL answers — returned tuples that are not
//! certain.

use crate::data::{Relation, Tuple};
use std::collections::HashSet;

/// Breakdown of a query answer into certain answers and false positives.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerBreakdown {
    /// Total number of returned tuples.
    pub total: usize,
    /// Returned tuples that are certain answers.
    pub certain: usize,
    /// Returned tuples that are not certain answers (false positives).
    pub false_positives: usize,
}

impl AnswerBreakdown {
    /// Build a breakdown from the answer relation and the subset of it known
    /// to be certain.
    pub fn new(answers: &Relation, certain: &Relation) -> Self {
        let certain_set: HashSet<&Tuple> = certain.iter().collect();
        let certain_count = answers.iter().filter(|t| certain_set.contains(t)).count();
        AnswerBreakdown {
            total: answers.len(),
            certain: certain_count,
            false_positives: answers.len() - certain_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;
    use crate::data::Value;

    fn r(vals: &[i64]) -> Relation {
        rel(&["a"], vals.iter().map(|&v| vec![Value::Int(v)]).collect())
    }

    #[test]
    fn breakdown_counts() {
        let answers = r(&[1, 2, 3, 4]);
        let certain = r(&[2, 4]);
        let b = AnswerBreakdown::new(&answers, &certain);
        assert_eq!(b.total, 4);
        assert_eq!(b.certain, 2);
        assert_eq!(b.false_positives, 2);
    }

    #[test]
    fn empty_answer_has_perfect_precision() {
        // An empty answer contains no wrong tuples.
        let b = AnswerBreakdown::new(&r(&[]), &r(&[]));
        assert_eq!(b, AnswerBreakdown { total: 0, certain: 0, false_positives: 0 });
    }
}
