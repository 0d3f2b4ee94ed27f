//! The per-occurrence load path, kept as the reference the bulk loader
//! ([`parse_program`] + [`Database::from_program`]) is checked against:
//! every constant occurrence interned through
//! [`ConstInterner::intern_str`] / [`ConstInterner::intern_int`], each
//! fact its own `Vec`, and every fact inserted into its shard one at a
//! time.
//!
//! It reads the source token by token instead of re-parsing it, so the
//! parser's clause handling is not its own reference.  In a valid
//! program an identifier followed by `(` names a predicate, every other
//! identifier or integer is a constant, and a clause whose first atom is
//! followed by `.` is a fact.

use crate::ast::Program;
use crate::db::Database;
use crate::parser::{parse_program, Lexer, Tok};
use rq_common::{Const, ConstInterner, ConstValue, FxHashMap, Pred};

/// What loading a source produces.
struct Loaded {
    consts: ConstInterner,
    /// Name and arity, by predicate id.
    preds: Vec<(String, usize)>,
    /// Facts in source order, duplicates included.
    facts: Vec<(Pred, Vec<Const>)>,
    db: Database,
}

fn load(src: &str) -> Loaded {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    loop {
        match lexer.next_token().expect("the source lexes").0 {
            Tok::Eof => break,
            tok => toks.push(tok),
        }
    }
    let mut consts = ConstInterner::new();
    let mut preds: Vec<(String, usize)> = Vec::new();
    let mut pred_ids: FxHashMap<&str, Pred> = FxHashMap::default();
    let mut facts = Vec::new();
    let (mut i, mut clause_start) = (0, true);
    while i < toks.len() {
        match toks[i] {
            Tok::Ident(name) if toks.get(i + 1) == Some(&Tok::LParen) => {
                let mut args = Vec::new();
                let mut arity = 0;
                i += 2;
                while toks[i] != Tok::RParen {
                    match toks[i] {
                        Tok::Ident(c) => args.push(consts.intern_str(c)),
                        Tok::Int(n) => args.push(consts.intern_int(n)),
                        _ => {}
                    }
                    arity += usize::from(toks[i] != Tok::Comma);
                    i += 1;
                }
                let pred = *pred_ids.entry(name).or_insert_with(|| {
                    preds.push((name.to_owned(), arity));
                    Pred::from_index(preds.len() - 1)
                });
                if clause_start && toks.get(i + 1) == Some(&Tok::Dot) {
                    facts.push((pred, args));
                }
                clause_start = false;
            }
            Tok::Ident(c) => {
                consts.intern_str(c);
            }
            Tok::Int(n) => {
                consts.intern_int(n);
            }
            Tok::Dot => clause_start = true,
            _ => {}
        }
        i += 1;
    }
    let mut db = Database::with_preds(preds.iter().map(|&(_, arity)| arity));
    for (pred, tuple) in &facts {
        db.insert(*pred, tuple);
    }
    Loaded {
        consts,
        preds,
        facts,
        db,
    }
}

/// xorshift64: a dependency-free, seeded generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Facts of four interleaved predicates `f0`..`f3` of arities 1 to 4,
/// over a small pool of names and integers, so values, whole facts and
/// runs of one predicate repeat.
fn fact_list(rng: &mut Rng, n: usize) -> String {
    let mut out = String::new();
    let mut pred = 0;
    for _ in 0..n {
        if rng.below(3) == 0 {
            pred = rng.below(4);
        }
        let args: Vec<String> = (0..=pred)
            .map(|_| match rng.below(3) {
                0 => format!("{}", rng.below(9) as i64 - 4),
                _ => format!("k{}", rng.below(12)),
            })
            .collect();
        out.push_str(&format!("f{pred}({}).\n", args.join(", ")));
    }
    out
}

/// The bulk load of `program` into `db` equals the reference `r`:
/// constant ids and values, predicate ids, facts in source order, and
/// each shard's tuples at each ordinal.
fn assert_same_load(program: &Program, db: &Database, r: &Loaded) {
    assert_eq!(program.consts.len(), r.consts.len());
    for i in 0..r.consts.len() {
        let c = Const::from_index(i);
        let value = r.consts.value(c);
        assert_eq!(program.consts.value(c), value, "constant {i}");
        assert_eq!(program.consts.get(value), Some(c), "lookup of {value:?}");
    }
    assert_eq!(program.preds.len(), r.preds.len());
    for (i, (name, arity)) in r.preds.iter().enumerate() {
        let p = Pred::from_index(i);
        assert_eq!(
            (program.pred_name(p), program.arity(p)),
            (&name[..], *arity)
        );
        assert_eq!(program.pred_by_name(name), Some(p));
    }
    assert_eq!(program.facts.len(), r.facts.len());
    let want = r.facts.iter().map(|(p, t)| (p, t.as_slice()));
    assert!(program.facts.iter().eq(want), "facts in source order");
    for (i, fact) in r.facts.iter().enumerate() {
        assert_eq!(program.facts.get(i), Some((&fact.0, &fact.1[..])));
    }
    assert_eq!(db.num_preds(), r.db.num_preds());
    for i in 0..r.db.num_preds() {
        let (got, want) = (
            db.relation(Pred::from_index(i)),
            r.db.relation(Pred::from_index(i)),
        );
        assert_eq!(
            (got.arity(), got.len()),
            (want.arity(), want.len()),
            "shard {i}"
        );
        assert!(got.iter().eq(want.iter()), "shard {i} ordinals");
    }
}

/// Both databases answer `contains` alike on every stored tuple and on
/// tuples over the interned constants plus one unknown id.
fn assert_same_contains(db: &Database, r: &Database, consts: usize, rng: &mut Rng) {
    for i in 0..r.num_preds() {
        let pred = Pred::from_index(i);
        for tuple in r.relation(pred).iter() {
            assert!(db.contains(pred, tuple), "{pred:?} {tuple:?}");
        }
        let arity = r.relation(pred).arity();
        for _ in 0..40 {
            let probe: Vec<Const> = (0..arity)
                .map(|_| Const::from_index(rng.below(consts + 1)))
                .collect();
            assert_eq!(db.contains(pred, &probe), r.contains(pred, &probe));
        }
    }
}

/// Apply the same random ingest to both sides: values interned (known
/// and new), predicates added (arities 0 to 4), facts appended and
/// inserted with repeats.  Every step must agree.
fn random_run(program: &mut Program, db: &mut Database, r: &mut Loaded, rng: &mut Rng) {
    for step in 0..300 {
        let pred = if program.preds.is_empty() || rng.below(8) == 0 {
            let arity = rng.below(5);
            let name = format!("z{arity}");
            let pred = program.pred(&name, arity);
            if pred.index() == r.preds.len() {
                r.preds.push((name, arity));
            }
            db.ensure_pred(pred, arity);
            r.db.ensure_pred(pred, arity);
            pred
        } else {
            let pred = Pred::from_index(rng.below(program.preds.len()));
            if program.is_derived(pred) {
                continue;
            }
            pred
        };
        let tuple: Vec<Const> = (0..program.arity(pred))
            .map(|_| {
                let value = match rng.below(4) {
                    0 => ConstValue::Int(rng.below(20) as i64 - 10),
                    1 => ConstValue::Str(format!("new{}", rng.below(30))),
                    _ => program
                        .consts
                        .value(Const::from_index(rng.below(program.consts.len().max(1))))
                        .clone(),
                };
                let id = program.consts.intern(value.clone());
                assert_eq!(r.consts.intern(value), id, "step {step}");
                id
            })
            .collect();
        let inserted = db.insert(pred, &tuple);
        assert_eq!(
            r.db.insert(pred, &tuple),
            inserted,
            "step {step}: {tuple:?}"
        );
        program.add_fact(pred, &tuple);
        r.facts.push((pred, tuple));
    }
}

#[test]
fn bulk_load_matches_the_per_occurrence_reference() {
    let mut rng = Rng(0x10ad_5eed);
    for seed in 0..24u64 {
        let style = [
            rq_workloads::randprog::RecursionStyle::Regular,
            rq_workloads::randprog::RecursionStyle::MiddleLinear,
        ][seed as usize % 2];
        let rules = rq_workloads::randprog::seeded(seed, style).text;
        let n = 1 + rng.below(400);
        let facts = fact_list(&mut rng, n);
        let cut = facts[..facts.len() / 2].rfind('\n').map_or(0, |i| i + 1);
        let (head, tail) = facts.split_at(cut);
        // A rule with constants between two fact blocks: constant ids
        // follow occurrence across rules and facts alike.
        let src = format!("{head}g(X) :- f1(X, Y), Y != k3, X < 2.\n{rules}{tail}");
        let mut program = parse_program(&src).expect("the source parses");
        let mut r = load(&src);
        let db = Database::from_program(&program);
        assert_same_load(&program, &db, &r);
        // Read only: the first `contains` builds each dedup index.
        assert_same_contains(&db, &r.db, r.consts.len(), &mut rng);
        // A fresh load's first use is an insert.
        let mut fresh = Database::from_program(&program);
        random_run(&mut program, &mut fresh, &mut r, &mut rng);
        assert_same_load(&program, &fresh, &r);
        assert_same_contains(&fresh, &r.db, r.consts.len(), &mut rng);
        // Reloading the extended program gives the same shards.
        let reloaded = Database::from_program(&program);
        assert_same_load(&program, &reloaded, &r);
        assert_same_contains(&reloaded, &r.db, r.consts.len(), &mut rng);
    }
}
