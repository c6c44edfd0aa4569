//! Specialised false-positive detectors (Section 4 of the paper).
//!
//! Computing certain answers exactly is coNP-hard, so the paper detects (a
//! lower bound on) false positives with per-query algorithms: they look for
//! nulls in the comparisons that could falsify an answer tuple. A detector
//! returning `true` means the tuple is *definitely not* a certain answer;
//! returning `false` means "no witness found" (the tuple may or may not be
//! certain) — so the measured false-positive percentages are lower bounds,
//! exactly as in the paper.

use crate::data::{Database, Tuple, Value};
use crate::tpch::params::QueryParams;

fn eq_int(v: &Value, x: i64) -> bool {
    v.as_i64() == Some(x)
}

/// Algorithm 1: detect a false positive of Q1. `answer` is a
/// `(s_suppkey, o_orderkey)` tuple.
pub fn detect_q1(db: &Database, answer: &Tuple) -> bool {
    let suppkey = match answer.get(0).as_i64() {
        Some(v) => v,
        None => return false,
    };
    let orderkey = match answer.get(1).as_i64() {
        Some(v) => v,
        None => return false,
    };
    let lineitem = match db.relation("lineitem") {
        Ok(r) => r,
        Err(_) => return false,
    };
    for t in lineitem.iter() {
        if !eq_int(&t[0], orderkey) {
            continue;
        }
        let x = &t[3]; // l_suppkey
        if x.is_const() && eq_int(x, suppkey) {
            continue;
        }
        let d1 = &t[7]; // l_commitdate
        let d2 = &t[8]; // l_receiptdate
        let late = match (d1.as_date(), d2.as_date()) {
            (Some(c), Some(r)) => r > c,
            _ => true, // either date is null ⇒ the supplier may have been late
        };
        if late {
            return true;
        }
    }
    false
}

/// Detector for Q2: if any order has a null `o_custkey`, that order's customer
/// could be anybody, so *every* answer to Q2 is a false positive.
pub fn detect_q2(db: &Database) -> bool {
    db.relation("orders").map(|orders| orders.iter().any(|t| t[1].is_null())).unwrap_or(false)
}

/// Detector for Q3 (order `orderkey` claimed to be supplied entirely by the
/// parameter supplier): a lineitem of that order with unknown supplier could
/// belong to a different supplier.
pub fn detect_q3(db: &Database, answer: &Tuple) -> bool {
    let orderkey = match answer.get(0).as_i64() {
        Some(v) => v,
        None => return false,
    };
    db.relation("lineitem")
        .map(|lineitem| lineitem.iter().any(|t| eq_int(&t[0], orderkey) && t[3].is_null()))
        .unwrap_or(false)
}

/// Algorithm 2: detect a false positive of Q4 (order `orderkey` claimed not to
/// involve any `$color` part from a `$nation` supplier).
pub fn detect_q4(db: &Database, params: &QueryParams, answer: &Tuple) -> bool {
    let orderkey = match answer.get(0).as_i64() {
        Some(v) => v,
        None => return false,
    };
    let (lineitem, part, supplier, nation) = match (
        db.relation("lineitem"),
        db.relation("part"),
        db.relation("supplier"),
        db.relation("nation"),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
        _ => return false,
    };
    for t in lineitem.iter() {
        if !eq_int(&t[0], orderkey) {
            continue;
        }
        let l_partkey = &t[2];
        let l_suppkey = &t[3];
        // P: could this lineitem involve a part of the given colour?
        let mut p_flag = false;
        for p in part.iter() {
            let key_match = l_partkey.is_null() || p[0] == *l_partkey;
            if !key_match {
                continue;
            }
            let name_match = match p[1].as_str() {
                Some(name) => name.contains(&params.color),
                None => p[1].is_null(),
            };
            if p[1].is_null() || name_match {
                p_flag = true;
                break;
            }
        }
        if !p_flag {
            continue;
        }
        // S: could this lineitem involve a supplier from the given nation?
        let mut s_flag = false;
        for s in supplier.iter() {
            let key_match = l_suppkey.is_null() || s[0] == *l_suppkey;
            if !key_match {
                continue;
            }
            let x = &s[2]; // s_nationkey
            if x.is_null() {
                s_flag = true;
                break;
            }
            for n in nation.iter() {
                if n[0] == *x && n[1].as_str() == Some(params.nation.as_str()) {
                    s_flag = true;
                    break;
                }
            }
            if s_flag {
                break;
            }
        }
        if p_flag && s_flag {
            return true;
        }
    }
    false
}

/// Count (a lower bound on) the false positives in `answers` for query number
/// `query` with the given parameters.
pub fn count_false_positives(
    query: usize,
    db: &Database,
    params: &QueryParams,
    answers: &crate::data::Relation,
) -> usize {
    match query {
        1 => answers.iter().filter(|t| detect_q1(db, t)).count(),
        2 if detect_q2(db) => answers.len(),
        3 => answers.iter().filter(|t| detect_q3(db, t)).count(),
        4 => answers.iter().filter(|t| detect_q4(db, params, t)).count(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::value::date;

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    /// Minimal hand-built instance exercising each detector.
    fn tiny_db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "lineitem",
            rel(
                &[
                    "l_orderkey",
                    "l_linenumber",
                    "l_partkey",
                    "l_suppkey",
                    "l_quantity",
                    "l_extendedprice",
                    "l_shipdate",
                    "l_commitdate",
                    "l_receiptdate",
                ],
                vec![
                    // order 1: supplier unknown, late delivery impossible to rule out
                    vec![
                        Value::Int(1),
                        Value::Int(1),
                        Value::Int(5),
                        null(1),
                        Value::Int(1),
                        Value::Decimal(100),
                        date(1995, 1, 10),
                        null(2),
                        date(1995, 1, 20),
                    ],
                    // order 2: all known, on time, supplied by supplier 3
                    vec![
                        Value::Int(2),
                        Value::Int(1),
                        Value::Int(6),
                        Value::Int(3),
                        Value::Int(1),
                        Value::Decimal(100),
                        date(1995, 1, 10),
                        date(1995, 2, 1),
                        date(1995, 1, 20),
                    ],
                ],
            ),
        );
        db.insert_relation(
            "orders",
            rel(
                &["o_orderkey", "o_custkey", "o_orderstatus", "o_orderdate", "o_totalprice"],
                vec![
                    vec![
                        Value::Int(1),
                        Value::Int(10),
                        Value::str("F"),
                        date(1995, 1, 1),
                        Value::Decimal(1),
                    ],
                    vec![
                        Value::Int(2),
                        null(3),
                        Value::str("F"),
                        date(1995, 1, 1),
                        Value::Decimal(1),
                    ],
                ],
            ),
        );
        db.insert_relation(
            "part",
            rel(
                &["p_partkey", "p_name", "p_retailprice"],
                vec![
                    vec![
                        Value::Int(5),
                        Value::str("almond red rose navy misty"),
                        Value::Decimal(1),
                    ],
                    vec![Value::Int(6), null(4), Value::Decimal(1)],
                ],
            ),
        );
        db.insert_relation(
            "supplier",
            rel(
                &["s_suppkey", "s_name", "s_nationkey", "s_acctbal"],
                vec![
                    vec![Value::Int(3), Value::str("Supplier#3"), null(5), Value::Decimal(1)],
                    vec![Value::Int(4), Value::str("Supplier#4"), Value::Int(7), Value::Decimal(1)],
                ],
            ),
        );
        db.insert_relation(
            "nation",
            rel(
                &["n_nationkey", "n_name", "n_regionkey"],
                vec![vec![Value::Int(7), Value::str("FRANCE"), Value::Int(3)]],
            ),
        );
        db
    }

    #[test]
    fn q1_detector_flags_unknown_supplier_or_dates() {
        let db = tiny_db();
        // Answer claims supplier 9 was the *only* late supplier on order 1, but
        // order 1 has a lineitem with unknown supplier and unknown commit date.
        assert!(detect_q1(&db, &Tuple::new(vec![Value::Int(9), Value::Int(1)])));
        // Order 2 is fully known and on time: no witness.
        assert!(!detect_q1(&db, &Tuple::new(vec![Value::Int(3), Value::Int(2)])));
    }

    #[test]
    fn q2_detector_checks_null_custkey() {
        let db = tiny_db();
        assert!(detect_q2(&db));
        let mut clean = Database::new();
        clean.insert_relation(
            "orders",
            rel(&["o_orderkey", "o_custkey"], vec![vec![Value::Int(1), Value::Int(2)]]),
        );
        assert!(!detect_q2(&clean));
    }

    #[test]
    fn q3_detector_checks_null_suppkey_on_the_order() {
        let db = tiny_db();
        assert!(detect_q3(&db, &Tuple::new(vec![Value::Int(1)])));
        assert!(!detect_q3(&db, &Tuple::new(vec![Value::Int(2)])));
    }

    #[test]
    fn q4_detector_follows_algorithm_2() {
        let db = tiny_db();
        let params =
            QueryParams { nation: "FRANCE".into(), color: "red".into(), ..QueryParams::fixed() };
        // Order 1: part 5 matches "red", supplier is unknown ⇒ could be from FRANCE.
        assert!(detect_q4(&db, &params, &Tuple::new(vec![Value::Int(1)])));
        // Order 2: part 6 has a null name (could be red), supplier 3 has unknown
        // nation ⇒ also a potential violation.
        assert!(detect_q4(&db, &params, &Tuple::new(vec![Value::Int(2)])));
        // With a colour that matches nothing and no null part name it would differ;
        // exercise the "no witness" path via a non-existent order.
        assert!(!detect_q4(&db, &params, &Tuple::new(vec![Value::Int(99)])));
    }

    #[test]
    fn count_false_positives_dispatches() {
        let db = tiny_db();
        let params = QueryParams::fixed();
        let answers = rel(&["o_orderkey"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(count_false_positives(3, &db, &params, &answers), 1);
        assert_eq!(count_false_positives(2, &db, &params, &answers), 2);
        assert_eq!(count_false_positives(9, &db, &params, &answers), 0);
    }
}
