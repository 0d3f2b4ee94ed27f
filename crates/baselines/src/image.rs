//! Instrumented image computation over derived-free expressions.
//!
//! Every strategy in this crate is an "image of a node set under a
//! relational expression" method (the paper's phrase for Henschen–Naqvi
//! and, by extension, counting).  This helper charges the shared
//! [`Counters`] for every tuple retrieved, so strategy costs are
//! comparable with the traversal engine's.

use rq_common::{Const, Counters, FxHashSet};
use rq_datalog::Database;
use rq_engine::{EdbSource, TupleSource};
use rq_relalg::Expr;

/// The image of `set` under a derived-free expression, charging
/// `counters` for the tuples retrieved.
pub fn image(
    db: &Database,
    e: &Expr,
    set: &FxHashSet<Const>,
    counters: &mut Counters,
) -> FxHashSet<Const> {
    let src = EdbSource::new(db);
    image_src(&src, e, set, counters)
}

fn image_src(
    src: &EdbSource<'_>,
    e: &Expr,
    set: &FxHashSet<Const>,
    counters: &mut Counters,
) -> FxHashSet<Const> {
    match e {
        Expr::Empty => FxHashSet::default(),
        Expr::Id => set.clone(),
        Expr::Sym(p) => {
            let mut out = FxHashSet::default();
            let mut buf = Vec::new();
            for &u in set {
                out.extend(src.successors(*p, u, &mut buf, counters));
            }
            out
        }
        Expr::Inv(p) => {
            let mut out = FxHashSet::default();
            let mut buf = Vec::new();
            for &u in set {
                out.extend(src.predecessors(*p, u, &mut buf, counters));
            }
            out
        }
        Expr::Union(parts) => {
            let mut out = FxHashSet::default();
            for part in parts {
                out.extend(image_src(src, part, set, counters));
            }
            out
        }
        Expr::Cat(parts) => {
            let mut cur = set.clone();
            for part in parts {
                cur = image_src(src, part, &cur, counters);
                if cur.is_empty() {
                    break;
                }
            }
            cur
        }
        Expr::Star(inner) => {
            let mut seen = set.clone();
            let mut frontier = set.clone();
            while !frontier.is_empty() {
                let next = image_src(src, inner, &frontier, counters);
                frontier = next.difference(&seen).copied().collect();
                seen.extend(frontier.iter().copied());
            }
            seen
        }
    }
}

/// Singleton-set image.
pub fn image_of(db: &Database, e: &Expr, a: Const, counters: &mut Counters) -> FxHashSet<Const> {
    let mut s = FxHashSet::default();
    s.insert(a);
    image(db, e, &s, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_common::ConstValue;
    use rq_datalog::parse_program;

    #[test]
    fn image_counts_tuples() {
        let p = parse_program("e(a,b). e(a,c). e(b,d).").unwrap();
        let db = Database::from_program(&p);
        let e = p.pred_by_name("e").unwrap();
        let a = p.consts.get(&ConstValue::Str("a".into())).unwrap();
        let mut counters = Counters::new();
        let img = image_of(&db, &Expr::Sym(e), a, &mut counters);
        assert_eq!(img.len(), 2);
        assert_eq!(counters.tuples_retrieved, 2);
        assert_eq!(counters.index_probes, 1);
    }

    #[test]
    fn star_image_on_chain() {
        let p = parse_program("e(a,b). e(b,c). e(c,d).").unwrap();
        let db = Database::from_program(&p);
        let e = p.pred_by_name("e").unwrap();
        let a = p.consts.get(&ConstValue::Str("a".into())).unwrap();
        let mut counters = Counters::new();
        let img = image_of(&db, &Expr::star(Expr::Sym(e)), a, &mut counters);
        assert_eq!(img.len(), 4);
    }
}
