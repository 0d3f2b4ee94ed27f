//! Differential testing of the whole §3 pipeline (Lemma 1 → automata →
//! traversal) against the seminaive bottom-up oracle, on *random
//! programs* — not just random data.  The generator
//! (`rq_workloads::randprog`) produces linear binary-chain programs
//! with random recursion structure (self-recursion, mutually recursive
//! pairs, non-recursive cross-references) over random layered EDBs;
//! every derived predicate is then queried in all four binding forms
//! and the answers must agree with the oracle exactly.
//!
//! `solve_with` asks a one-shot `QueryService`, so what is checked here
//! is the pipeline that is served; `front_ends_agree_*` additionally
//! pins that the three front ends (`solve`, the `rqc serve` line, the
//! HTTP API) say the same thing about every query.

use recursive_queries::cli::ServeSession;
use recursive_queries::{solve, solve_with, Strategy};
use rq_common::Json;
use rq_datalog::{display_program, seminaive_eval, Program, Query};
use rq_engine::EvalOptions;
use rq_service::{QueryService, ServiceError};
use rq_workloads::randprog::{random_program, seeded, RandProgConfig, RecursionStyle};

/// Run one generated program through every query form on every derived
/// predicate and compare with the bottom-up oracle.
fn check_program(rp: &rq_workloads::randprog::RandProgram, label: &str) {
    let program = &rp.program;
    let oracle = seminaive_eval(program).expect("generated programs have no builtins");
    let options = EvalOptions {
        max_iterations: Some(rp.iteration_bound),
        ..EvalOptions::default()
    };

    for (pi, name) in rp.derived.iter().enumerate() {
        let pred = program
            .pred_by_name(name)
            .expect("derived predicate exists");
        let full = oracle.tuples(pred);

        // Query constants: an early one, a middle one, one occurring in
        // the relation (when non-empty), and one foreign to the data.
        let mut firsts: Vec<String> = Vec::new();
        firsts.push("n0".to_string());
        firsts.push("n5".to_string());
        if let Some(t) = full.first() {
            firsts.push(program.consts.display(t[0]));
        }
        firsts.push("unseen".to_string());
        firsts.sort();
        firsts.dedup();

        // The all-pairs form evaluates from every source; exercising it
        // (and its repeated-variable diagonal restriction) once per
        // program keeps the suite fast without losing the paths.
        let mut queries: Vec<String> = if pi == 0 {
            vec![format!("{name}(X, Y)"), format!("{name}(Z, Z)")]
        } else {
            Vec::new()
        };
        for a in &firsts {
            queries.push(format!("{name}({a}, Y)"));
            queries.push(format!("{name}(X, {a})"));
        }
        if let Some(t) = full.first() {
            let x = program.consts.display(t[0]);
            let y = program.consts.display(t[1]);
            queries.push(format!("{name}({x}, {y})"));
            queries.push(format!("{name}({y}, {x})"));
        }

        for qtext in queries {
            let solution = solve_with(program, &qtext, &options)
                .unwrap_or_else(|e| panic!("{label}: solve({qtext}) failed: {e}\n{}", rp.text));
            // (`None`: a constant foreign to the data needs no pipeline.)
            assert_ne!(
                solution.strategy,
                Some(Strategy::Section4),
                "{label}: {qtext} should take the §3 pipeline"
            );
            assert!(
                solution.converged,
                "{label}: {qtext} hit the iteration bound {}\n{}",
                rp.iteration_bound, rp.text
            );
            // The oracle's query may intern a foreign constant: scratch.
            let query = Query::parse(&mut program.clone(), &qtext).unwrap();
            let mut expected = query.answer_from_relation(&full);
            expected.sort();
            expected.dedup();
            assert_eq!(
                solution.answers, expected,
                "{label}: wrong answers for {qtext}\n{}",
                rp.text
            );
        }
    }
}

/// What a front end said about one query: its answer rows, constants
/// rendered (`[[]]` / `[]` for a fully bound query that holds / does
/// not), or its error message.
type Verdict = Result<Vec<Vec<String>>, String>;

fn render(program: &Program, rows: &[Vec<rq_common::Const>]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|row| row.iter().map(|&c| program.consts.display(c)).collect())
        .collect()
}

/// One `rqc serve` output line, `<query>: <rendering>`, read back.
fn serve_line_verdict(query: &str, line: &str) -> Verdict {
    let rendered = line
        .strip_prefix(query)
        .and_then(|rest| rest.strip_prefix(": "))
        .unwrap_or_else(|| panic!("`{line}` does not answer `{query}`"));
    if let Some(message) = rendered.strip_prefix("error: ") {
        return Err(message.to_string());
    }
    Ok(match rendered {
        "yes" => vec![Vec::new()],
        "no" | "(none)" => Vec::new(),
        rows => rows
            .split(' ')
            .map(|row| {
                let row = row.trim_start_matches('(').trim_end_matches(')');
                row.split(',').map(str::to_string).collect()
            })
            .collect(),
    })
}

/// One HTTP answer object (a `/query` body or a `/batch` item).
fn http_verdict(answer: &Json) -> Verdict {
    if let Some(message) = answer.get("error").and_then(Json::as_str) {
        return Err(message.to_string());
    }
    let rows: Vec<Vec<String>> = answer
        .get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no rows in {}", answer.encode()))
        .iter()
        .map(|row| {
            let cells = row.as_array().expect("a row is an array").iter();
            cells
                .map(|cell| match cell.as_i64() {
                    Some(i) => i.to_string(),
                    None => cell.as_str().expect("a cell is a string").to_string(),
                })
                .collect()
        })
        .collect();
    if let Some(holds) = answer.get("holds").and_then(Json::as_bool) {
        assert_eq!(holds, rows == [Vec::<String>::new()], "{}", answer.encode());
    }
    Ok(rows)
}

fn post(service: &QueryService, path: &str, body: Json) -> Json {
    let mut out = Vec::new();
    rq_wire::api::respond(service, "POST", path, body.encode().as_bytes(), &mut out);
    Json::parse(std::str::from_utf8(&out).unwrap()).unwrap()
}

/// Answer `queries` over the program `source` through `solve`, the
/// `rqc serve` line and the HTTP API (`/query` and `/batch`): every
/// front end must give the same verdict — for a query expected to fail,
/// that error; otherwise the seminaive oracle's rows.  (All four parse
/// the same text, so they intern — and order rows by — the same ids.)
fn check_front_ends(source: &str, queries: &[(String, Option<ServiceError>)], label: &str) {
    let program = &rq_datalog::parse_program(source).unwrap();
    let oracle = seminaive_eval(program).expect("the oracle evaluates");
    let mut session = ServeSession::new(source).unwrap();
    let service = QueryService::from_source(source).unwrap();
    let texts: Vec<&str> = queries.iter().map(|(q, _)| q.as_str()).collect();
    let line = session.execute_line(&texts.join("; ")).unwrap().text;
    let batch = post(
        &service,
        "/batch",
        Json::object([(
            "queries",
            Json::Array(texts.iter().map(|q| Json::Str(q.to_string())).collect()),
        )]),
    );
    let batch = batch.get("answers").and_then(Json::as_array).unwrap();
    for (i, ((query, error), line)) in queries.iter().zip(line.lines()).enumerate() {
        let expected: Verdict = match error {
            Some(error) => Err(error.to_string()),
            None => {
                let mut scratch = program.clone();
                let q = Query::parse(&mut scratch, query).unwrap();
                let rows = q.answer_from_relation(&oracle.tuples(q.pred));
                Ok(render(&scratch, &rows))
            }
        };
        let solved = solve(program, query)
            .map(|s| render(program, &s.answers))
            .map_err(|e| e.to_string());
        assert_eq!(solved, expected, "{label}: solve({query})\n{source}");
        let served = serve_line_verdict(query, line);
        assert_eq!(served, expected, "{label}: rqc serve `{query}`\n{source}");
        let single = post(
            &service,
            "/query",
            Json::object([("query", Json::Str(query.clone()))]),
        );
        assert_eq!(
            http_verdict(&single),
            expected,
            "{label}: /query {query}\n{source}"
        );
        assert_eq!(
            http_verdict(&batch[i]),
            expected,
            "{label}: /batch {query}\n{source}"
        );
    }
}

fn arity_error(pred: &str, expected: usize, got: usize) -> Option<ServiceError> {
    Some(ServiceError::ArityMismatch {
        pred: pred.to_string(),
        expected,
        got,
    })
}

/// Front-end parity on the random binary-chain programs: every binding
/// form, the diagonal, `_`, a constant foreign to the data (in a
/// free-bearing and in a fully bound query), and the three inputs every
/// front end must reject alike — a base predicate, a wrong arity, and
/// `p(a b, Y)`.
#[test]
fn front_ends_agree_on_random_programs() {
    for style in [
        RecursionStyle::Regular,
        RecursionStyle::MiddleLinear,
        RecursionStyle::Mixed,
    ] {
        for seed in 0..50 {
            let rp = seeded(seed, style);
            let program = &rp.program;
            let oracle = seminaive_eval(program).unwrap();
            let p = rp.derived.last().expect("a derived predicate");
            let pred = program.pred_by_name(p).unwrap();
            let (x, y) = match oracle.tuples(pred).first() {
                Some(t) => (program.consts.display(t[0]), program.consts.display(t[1])),
                None => ("n0".to_string(), "n1".to_string()),
            };
            let base = program.base_preds().next().expect("a base predicate");
            let base = program.pred_name(base);
            let malformed = format!("{p}({x} b, Y)");
            let queries = vec![
                (format!("{p}({x}, Y)"), None),
                (format!("{p}(X, {y})"), None),
                (format!("{p}({x}, {y})"), None),
                (format!("{p}({y}, {x})"), None),
                (format!("{p}(X, Y)"), None),
                (format!("{p}(Z, Z)"), None),
                (format!("{p}(_, {y})"), None),
                (format!("{p}(unseen, Y)"), None),
                (format!("{p}({x}, unseen)"), None),
                (
                    format!("{base}({x}, Y)"),
                    Some(ServiceError::NotDerived(base.to_string())),
                ),
                (format!("{p}({x}, Y, Z)"), arity_error(p, 2, 3)),
                (malformed.clone(), Some(ServiceError::Malformed(malformed))),
            ];
            check_front_ends(&rp.text, &queries, &format!("parity/{style:?}/{seed}"));
        }
    }
}

/// The same parity on the paper's §4 flights program.
#[test]
fn front_ends_agree_on_the_flights_program() {
    let w = rq_workloads::flights::paper_example();
    let text = |q: &str| q.to_string();
    let malformed = text("cnx(hel 540, D, AT)");
    let queries = vec![
        (text("cnx(hel, 540, D, AT)"), None),
        (text("cnx(hel, 540, nce, 930)"), None),
        (text("cnx(hel, 540, nce, 690)"), None),
        (text("cnx(S, DT, D, AT)"), None),
        // Outside the §4 class: the `bfff` adornment fails Lemma 6's
        // chain condition on the recursive rule.
        (
            text("cnx(ams, DT, D, AT)"),
            Some(ServiceError::Plan(
                rq_adorn::QueryError::NotChain(vec![1]).to_string(),
            )),
        ),
        (text("cnx(hel, 540, _, AT)"), None),
        (text("cnx(unseen, 540, D, AT)"), None),
        (text("cnx(hel, 540, nce, 999)"), None),
        (
            text("flight(hel, 540, D, AT)"),
            Some(ServiceError::NotDerived(text("flight"))),
        ),
        (text("cnx(hel, D)"), arity_error("cnx", 4, 2)),
        (malformed.clone(), Some(ServiceError::Malformed(malformed))),
    ];
    check_front_ends(&display_program(&w.program), &queries, "parity/flights");
}

#[test]
fn regular_programs_match_oracle() {
    for seed in 0..50 {
        let rp = seeded(seed, RecursionStyle::Regular);
        check_program(&rp, &format!("regular/{seed}"));
    }
}

#[test]
fn middle_linear_programs_match_oracle() {
    for seed in 0..50 {
        let rp = seeded(seed, RecursionStyle::MiddleLinear);
        check_program(&rp, &format!("middle/{seed}"));
    }
}

#[test]
fn mixed_programs_match_oracle() {
    for seed in 0..50 {
        let rp = seeded(seed, RecursionStyle::Mixed);
        check_program(&rp, &format!("mixed/{seed}"));
    }
}

#[test]
fn deeper_recursion_structures_match_oracle() {
    for seed in 0..16 {
        let rp = random_program(&RandProgConfig {
            seed,
            groups: 3,
            mutual_prob: 0.6,
            style: RecursionStyle::Mixed,
            base_preds: 4,
            rules_per_pred: 3,
            max_body: 4,
            lower_ref_prob: 0.35,
            domain: 14,
            facts_per_base: 24,
            cyclic: false,
        });
        check_program(&rp, &format!("deep/{seed}"));
    }
}

#[test]
fn sparse_and_dense_data_match_oracle() {
    for (facts, domain) in [(4usize, 20usize), (60, 8), (120, 10)] {
        for seed in 0..10 {
            let rp = random_program(&RandProgConfig {
                seed,
                domain,
                facts_per_base: facts,
                style: RecursionStyle::Mixed,
                ..RandProgConfig::default()
            });
            check_program(&rp, &format!("density/{facts}x{domain}/{seed}"));
        }
    }
}

/// ε-compacted machines answer exactly like plain Thompson machines on
/// random programs (every query form that goes through the Evaluator).
#[test]
fn compacted_machines_match_plain_on_random_programs() {
    use rq_engine::{EdbSource, Evaluator};
    use rq_relalg::{lemma1, Lemma1Options};

    for seed in 0..30 {
        let rp = seeded(seed, RecursionStyle::Mixed);
        let mut program = rp.program.clone();
        let db = rq_datalog::Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let source = EdbSource::new(&db);
        let plain = Evaluator::new(&system, &source);
        let compacted = Evaluator::new_compacted(&system, &source);
        let options = EvalOptions {
            max_iterations: Some(rp.iteration_bound),
            ..EvalOptions::default()
        };
        for name in &rp.derived {
            let pred = program.pred_by_name(name).unwrap();
            for a in ["n0", "n3", "n9"] {
                let q = rq_datalog::Query::parse(&mut program, &format!("{name}({a}, Y)")).unwrap();
                let rq_datalog::QueryArg::Bound(c) = q.args[0] else {
                    unreachable!()
                };
                let p_out = plain.evaluate(pred, c, &options);
                let c_out = compacted.evaluate(pred, c, &options);
                assert_eq!(
                    p_out.answers, c_out.answers,
                    "seed {seed} {name}({a},Y)\n{}",
                    rp.text
                );
                let p_inv = plain.evaluate_inverse(pred, c, &options);
                let c_inv = compacted.evaluate_inverse(pred, c, &options);
                assert_eq!(
                    p_inv.answers, c_inv.answers,
                    "seed {seed} {name}(X,{a}) inverse\n{}",
                    rp.text
                );
            }
        }
    }
}

/// Lemma 2 statement (1) on random *cyclic* data: however early the
/// evaluation is cut off, the partial answer set is sound (it answers
/// the truncated unrolling `p = p_i`, a subset of the fixpoint); and
/// whenever the run converges it is also complete.
#[test]
fn truncated_evaluation_is_sound_on_cyclic_data() {
    for seed in 0..30 {
        let rp = random_program(&RandProgConfig {
            seed,
            style: RecursionStyle::Mixed,
            cyclic: true,
            domain: 8,
            facts_per_base: 14,
            ..RandProgConfig::default()
        });
        let program = &rp.program;
        let oracle = seminaive_eval(program).unwrap();
        for name in &rp.derived {
            let pred = program.pred_by_name(name).unwrap();
            let full = oracle.tuples(pred);
            for bound in [1u64, 2, 4, 16] {
                let options = EvalOptions {
                    max_iterations: Some(bound),
                    node_budget: Some(200_000),
                    ..EvalOptions::default()
                };
                for a in ["n0", "n4"] {
                    let qtext = format!("{name}({a}, Y)");
                    let solution = solve_with(program, &qtext, &options)
                        .unwrap_or_else(|e| panic!("seed {seed} {qtext}: {e}\n{}", rp.text));
                    let query = Query::parse(&mut program.clone(), &qtext).unwrap();
                    let expected = query.answer_from_relation(&full);
                    for row in &solution.answers {
                        assert!(
                            expected.contains(row),
                            "seed {seed} {qtext} bound {bound}: unsound answer\n{}",
                            rp.text
                        );
                    }
                    if solution.converged {
                        assert_eq!(
                            solution.answers, expected,
                            "seed {seed} {qtext} bound {bound}: converged but incomplete\n{}",
                            rp.text
                        );
                    }
                }
            }
        }
    }
}

/// The naive and seminaive oracles agree on generated programs (a
/// cross-check that the differential baseline itself is trustworthy).
#[test]
fn oracles_agree_on_random_programs() {
    for seed in 0..30 {
        let rp = seeded(seed, RecursionStyle::Mixed);
        let naive = rq_datalog::naive_eval(&rp.program).unwrap();
        let semi = seminaive_eval(&rp.program).unwrap();
        for name in &rp.derived {
            let p = rp.program.pred_by_name(name).unwrap();
            let mut a = naive.tuples(p);
            let mut b = semi.tuples(p);
            a.sort();
            b.sort();
            assert_eq!(a, b, "seed {seed}, predicate {name}:\n{}", rp.text);
        }
    }
}

/// The counting-family baselines and Henschen–Naqvi apply whenever the
/// equation has the shape `p = e0 ∪ e1·p·e2`; a single middle-linear
/// recursion group with one recursive rule guarantees it.  All four
/// level-set strategies must agree with the oracle on random programs.
#[test]
fn linear_shape_baselines_match_oracle_on_random_programs() {
    use rq_relalg::{lemma1, linear_decomposition, Lemma1Options};

    let mut checked = 0;
    for seed in 0..40 {
        let rp = random_program(&RandProgConfig {
            seed,
            groups: 1,
            mutual_prob: 0.0,
            style: RecursionStyle::MiddleLinear,
            rules_per_pred: 2,
            lower_ref_prob: 0.0,
            ..RandProgConfig::default()
        });
        let mut program = rp.program.clone();
        let db = rq_datalog::Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let pred = program.pred_by_name(&rp.derived[0]).unwrap();
        if linear_decomposition(pred, &system.rhs[&pred]).is_none() {
            continue; // equation simplified away from the e0 ∪ e1·p·e2 shape
        }
        checked += 1;
        let oracle = seminaive_eval(&program).unwrap();
        let full = oracle.tuples(pred);
        for a in ["n0", "n2", "n6"] {
            let q = Query::parse(&mut program, &format!("{}({a}, Y)", rp.derived[0])).unwrap();
            let rq_datalog::QueryArg::Bound(c) = q.args[0] else {
                unreachable!()
            };
            let mut expected: Vec<rq_common::Const> =
                full.iter().filter(|t| t[0] == c).map(|t| t[1]).collect();
            expected.sort();
            expected.dedup();
            let sort = |s: &rq_common::FxHashSet<rq_common::Const>| {
                let mut v: Vec<_> = s.iter().copied().collect();
                v.sort();
                v
            };
            let hn = rq_baselines::henschen_naqvi(&system, &db, pred, c, None);
            assert!(hn.converged, "hn seed {seed}\n{}", rp.text);
            assert_eq!(
                sort(&hn.answers),
                expected,
                "hn seed {seed} {a}\n{}",
                rp.text
            );
            let cnt = rq_baselines::counting(&system, &db, pred, c, None);
            assert_eq!(
                sort(&cnt.answers),
                expected,
                "counting seed {seed} {a}\n{}",
                rp.text
            );
            let rev = rq_baselines::reverse_counting(&system, &db, pred, c, None);
            assert_eq!(
                sort(&rev.answers),
                expected,
                "reverse counting seed {seed} {a}\n{}",
                rp.text
            );
        }
    }
    assert!(checked >= 20, "only {checked} seeds had the linear shape");
}

/// Magic sets, QSQ, and SLD resolution are all generic over programs;
/// they must agree with the oracle on random programs too.  Bodies are
/// restricted to at most one derived literal (`lower_ref_prob: 0`) —
/// §4's adornment, which magic and QSQ build on, assumes that form —
/// and to bound-first queries (SLD with a free first argument can
/// diverge by design).
#[test]
fn generic_baselines_match_oracle_on_random_programs() {
    for seed in 0..25 {
        let rp = random_program(&RandProgConfig {
            seed,
            style: RecursionStyle::Mixed,
            lower_ref_prob: 0.0,
            ..RandProgConfig::default()
        });
        let mut program = rp.program.clone();
        let oracle = seminaive_eval(&program).unwrap();
        for name in &rp.derived {
            let pred = program.pred_by_name(name).unwrap();
            let full = oracle.tuples(pred);
            let Some(first) = full.first().map(|t| program.consts.display(t[0])) else {
                continue;
            };
            let qtext = format!("{name}({first}, Y)");
            let query = Query::parse(&mut program, &qtext).unwrap();
            let mut expected = query.answer_from_relation(&full);
            expected.sort();
            expected.dedup();

            let magic = rq_baselines::magic_sets(&program, &query)
                .unwrap_or_else(|e| panic!("magic({qtext}) seed {seed}: {e}\n{}", rp.text));
            let mut magic_rows = magic.rows.clone();
            magic_rows.sort();
            magic_rows.dedup();
            assert_eq!(
                magic_rows, expected,
                "magic {qtext} seed {seed}\n{}",
                rp.text
            );

            let qsq = rq_baselines::qsq(&program, &query)
                .unwrap_or_else(|e| panic!("qsq({qtext}) seed {seed}: {e}\n{}", rp.text));
            let mut qsq_rows = qsq.rows.clone();
            qsq_rows.sort();
            qsq_rows.dedup();
            assert_eq!(qsq_rows, expected, "qsq {qtext} seed {seed}\n{}", rp.text);

            let sld = rq_baselines::sld(&program, &query, 200_000);
            if sld.complete {
                let mut sld_rows = sld.rows.clone();
                sld_rows.sort();
                sld_rows.dedup();
                assert_eq!(sld_rows, expected, "sld {qtext} seed {seed}\n{}", rp.text);
            }
        }
    }
}

mod proptest_differential {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any configuration in a broad parameter box produces a program
        /// whose engine answers match the oracle.
        #[test]
        fn engine_matches_oracle(
            seed in 0u64..10_000,
            groups in 1usize..4,
            mutual in 0usize..2,
            style_pick in 0usize..3,
            base_preds in 1usize..4,
            domain in 4usize..20,
            facts in 4usize..40,
        ) {
            let style = [
                RecursionStyle::Regular,
                RecursionStyle::MiddleLinear,
                RecursionStyle::Mixed,
            ][style_pick];
            let rp = random_program(&RandProgConfig {
                seed,
                groups,
                mutual_prob: mutual as f64,
                style,
                base_preds,
                rules_per_pred: 3,
                max_body: 4,
                lower_ref_prob: 0.3,
                domain,
                facts_per_base: facts,
                cyclic: false,
            });
            check_program(&rp, &format!("prop/{seed}"));
        }
    }
}
