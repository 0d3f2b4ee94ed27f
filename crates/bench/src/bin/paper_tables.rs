//! Regenerate every table and figure of the paper's evaluation as
//! operation-count tables (the paper reports asymptotic complexity under
//! a unit-cost tuple-retrieval model; we print the measured counts and
//! the fitted growth exponents).
//!
//! Usage: `paper_tables [table1|fig8|horner|demand|flights|theorem3|theorem4|allpairs|duplication|binreach|machines|minside|all] [--json]`

use rq_bench::{loglog_slope, prepare, run_strategy, StrategyKind};
use rq_common::ConstValue;
use rq_datalog::Database;
use rq_engine::{CompiledPlan, EdbSource, EvalOptions, Evaluator};
use rq_relalg::{lemma1, linear_decomposition, unroll, Lemma1Options};
use rq_workloads::{fig7, fig8, flights, graphs, Workload};

struct TableRow {
    table: String,
    label: String,
    values: Vec<(String, f64)>,
}

impl TableRow {
    /// Hand-rolled JSON (shape matches what `serde_json` used to emit
    /// for the derived `Serialize`); tuples serialize as two-element
    /// arrays.  No third-party JSON crate is available offline.
    fn to_json(&self) -> String {
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("[{}, {}]", json_string(k), json_f64(*v)))
            .collect();
        format!(
            "{{\"table\": {}, \"label\": {}, \"values\": [{}]}}",
            json_string(&self.table),
            json_string(&self.label),
            values.join(", ")
        )
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; mirror serde_json's lossy `null`.
        "null".to_string()
    }
}

struct Report {
    json: bool,
    rows: Vec<TableRow>,
}

impl Report {
    fn section(&mut self, title: &str) {
        if !self.json {
            println!("\n=== {title} ===");
        }
    }

    fn row(&mut self, table: &str, label: &str, values: Vec<(String, f64)>) {
        if !self.json {
            let cells: Vec<String> = values.iter().map(|(k, v)| format!("{k}={v:.2}")).collect();
            println!("{label:<24} {}", cells.join("  "));
        }
        self.rows.push(TableRow {
            table: table.to_string(),
            label: label.to_string(),
            values,
        });
    }

    fn finish(self) {
        if self.json {
            let rows: Vec<String> = self
                .rows
                .iter()
                .map(|r| format!("  {}", r.to_json()))
                .collect();
            println!("[\n{}\n]", rows.join(",\n"));
        }
    }
}

const SIZES: [usize; 4] = [64, 128, 256, 512];

/// E1: the §3 comparison table — work counts and growth exponents for
/// the five strategies on the three Figure 7 samples.
fn table1(r: &mut Report) {
    r.section("Table 1 (§3): same generation on Figure 7 samples — growth exponents");
    for (label, generator) in [
        ("sample (a)", fig7::sample_a as fn(usize) -> Workload),
        ("sample (b)", fig7::sample_b as fn(usize) -> Workload),
        ("sample (c)", fig7::sample_c as fn(usize) -> Workload),
    ] {
        let mut values = Vec::new();
        for s in StrategyKind::TABLE1 {
            let points: Vec<(usize, f64)> = SIZES
                .iter()
                .map(|&n| {
                    let p = prepare(&generator(n));
                    let (_, counters) = run_strategy(&p, s, None);
                    (n, counters.total_work() as f64)
                })
                .collect();
            values.push((s.label().to_string(), loglog_slope(&points)));
        }
        r.row("table1", label, values);
    }
    if !r.json {
        println!("(paper: ours/counting O(n) on (a),(c); O(n^2) on (b); HN O(n^2) on (c))");
    }
}

/// E3: Figure 8 — iterations needed on cyclic data.
fn fig8_table(r: &mut Report) {
    r.section("Figure 8: cyclic data — iterations until the last answer vs m·n");
    for (m, n) in [(2, 3), (3, 4), (3, 5), (4, 5), (2, 4), (4, 6)] {
        let w = fig8::cyclic(m, n);
        let p = prepare(&w);
        let out = rq_engine::evaluate_with_cyclic_guard(
            &p.system,
            &p.db,
            p.pred,
            p.source_const,
            &EvalOptions {
                max_iterations: None,
                record_iterations: true,
                ..EvalOptions::default()
            },
        );
        let mut last = 0u64;
        let mut prev = 0u64;
        for (i, s) in out.iteration_stats.iter().enumerate() {
            if s.answers_so_far > prev {
                last = i as u64 + 1;
                prev = s.answers_so_far;
            }
        }
        r.row(
            "fig8",
            &format!("m={m} n={n}"),
            vec![
                ("answers".into(), out.answers.len() as f64),
                ("last_productive_iter".into(), last as f64),
                ("mn_bound".into(), (m * n) as f64),
            ],
        );
    }
}

/// E6: the Horner-style `sg_i` expression vs the flattened `sg'_i`
/// (paper: smaller by a factor of i).
fn horner(r: &mut Report) {
    r.section("Lemma 2 / Horner: size of sg_i vs flattened sg'_i (occurrence counts)");
    let program = rq_datalog::parse_program(
        "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\nflat(a,b).",
    )
    .unwrap();
    let system = rq_relalg::initial_system(&program).unwrap();
    let sg = program.pred_by_name("sg").unwrap();
    let (e0, e1, e2) = linear_decomposition(sg, &system.rhs[&sg]).unwrap();
    for i in [4usize, 8, 16, 32, 64] {
        let h = unroll(&system, sg, i).occurrence_count();
        let f = rq_relalg::flattened_linear(&e0, &e1, &e2, i - 1).occurrence_count();
        r.row(
            "horner",
            &format!("i={i}"),
            vec![
                ("sg_i".into(), h as f64),
                ("sg'_i".into(), f as f64),
                ("ratio".into(), f as f64 / h as f64),
            ],
        );
    }
}

/// E14: demand-driven construction vs Hunt et al. preconstruction.
fn demand(r: &mut Report) {
    r.section("Demand-driven vs preconstructed graph (Hunt et al.) — total work");
    for &n in &[100usize, 200, 400, 800] {
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\ne(a,b).\n");
        for i in 0..n {
            src.push_str(&format!("e(u{}, u{}).\n", i, i + 1));
        }
        let program = rq_datalog::parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let hunt = rq_baselines::HuntGraph::build(&db, &system.rhs[&tc]);
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let source = EdbSource::new(&db);
        let engine = Evaluator::new(&system, &source).evaluate(tc, a, &EvalOptions::default());
        r.row(
            "demand",
            &format!("n={n}"),
            vec![
                ("hunt_build".into(), hunt.build_counters.total_work() as f64),
                ("ours".into(), engine.counters.total_work() as f64),
            ],
        );
    }
}

/// E10: §4 binding propagation on the flight database.
fn flights_table(r: &mut Report) {
    r.section("§4 flights: facts consulted, demand-driven vs full bottom-up");
    for &airports in &[20usize, 40, 80, 160] {
        let mut w = flights::network(airports, 4, 7);
        let q = rq_datalog::Query::parse(&mut w.program, &w.query).unwrap();
        let db = Database::from_program(&w.program);
        let plan = rq_adorn::plan_nary_query(&w.program, q.pred, rq_adorn::Adornment::of_query(&q))
            .unwrap();
        let (rows, outcome) = rq_adorn::evaluate_nary(
            &w.program,
            &db,
            &plan,
            &q.bound_values(),
            &EvalOptions::default(),
        );
        let bottom_up = rq_adorn::bottom_up_counters(&w.program);
        r.row(
            "flights",
            &format!("airports={airports}"),
            vec![
                (
                    "ours_tuples".into(),
                    outcome.counters.tuples_retrieved as f64,
                ),
                ("seminaive_tuples".into(), bottom_up.tuples_retrieved as f64),
                ("answers".into(), rows.len() as f64),
            ],
        );
    }
}

/// E8: Theorem 3 — regular case linearity across graph families.
fn theorem3(r: &mut Report) {
    r.section("Theorem 3 (regular case): growth exponent of work in database size");
    let families: Vec<(&str, Vec<Workload>)> = vec![
        ("chain", SIZES.iter().map(|&n| graphs::chain(n)).collect()),
        (
            "binary tree",
            [4usize, 5, 6, 7]
                .iter()
                .map(|&d| graphs::binary_tree(d))
                .collect(),
        ),
        (
            "grid",
            [8usize, 11, 16, 23]
                .iter()
                .map(|&w| graphs::grid(w, w))
                .collect(),
        ),
    ];
    for (label, ws) in families {
        let points: Vec<(usize, f64)> = ws
            .iter()
            .map(|w| {
                let p = prepare(w);
                let (_, counters) = run_strategy(&p, StrategyKind::Ours, None);
                (w.program.facts.len(), counters.total_work() as f64)
            })
            .collect();
        r.row(
            "theorem3",
            label,
            vec![("slope".into(), loglog_slope(&points))],
        );
    }
}

/// E9: Theorem 4 — O(h·n) in the linear case: fix h, sweep n; fix n,
/// sweep h, on same-generation ladders.
fn theorem4(r: &mut Report) {
    r.section("Theorem 4 (linear case): O(h·n) — slopes in h and in n");
    // Sweep h with fixed rung width: fig7(c) ladders of increasing
    // height have h = n, work O(n) → slope 1 in h.
    let points_h: Vec<(usize, f64)> = SIZES
        .iter()
        .map(|&n| {
            let p = prepare(&fig7::sample_c(n));
            let (_, counters) = run_strategy(&p, StrategyKind::Ours, None);
            (n, counters.total_work() as f64)
        })
        .collect();
    r.row(
        "theorem4",
        "sweep h (fig7c ladder)",
        vec![("slope".into(), loglog_slope(&points_h))],
    );
    // Sweep n with fixed h: same-generation trees of fixed depth,
    // increasing breadth — realized as sample (a) bundles (h = 2).
    let points_n: Vec<(usize, f64)> = SIZES
        .iter()
        .map(|&n| {
            let p = prepare(&fig7::sample_a(n));
            let (_, counters) = run_strategy(&p, StrategyKind::Ours, None);
            (n, counters.total_work() as f64)
        })
        .collect();
    r.row(
        "theorem4",
        "sweep n (fig7a bundle, h=2)",
        vec![("slope".into(), loglog_slope(&points_n))],
    );
}

/// E13: all-pairs — per-source vs Tarjan SCC sharing on cycles.
fn allpairs(r: &mut Report) {
    r.section("All-pairs p(X,Y): per-source vs SCC-shared (node insertions)");
    for &n in &[20usize, 40, 80] {
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..n {
            src.push_str(&format!("e(v{}, v{}).\n", i, (i + 1) % n));
        }
        let program = rq_datalog::parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let source = EdbSource::new(&db);
        let ev = Evaluator::new(&system, &source);
        let per = rq_engine::all_pairs_per_source(&ev, &source, tc, &EvalOptions::default());
        let scc = rq_engine::all_pairs_scc(&system, &source, tc, &EvalOptions::default());
        assert_eq!(per.pairs, scc.pairs);
        r.row(
            "allpairs",
            &format!("cycle n={n}"),
            vec![
                (
                    "per_source_nodes".into(),
                    per.counters.nodes_inserted as f64,
                ),
                ("scc_nodes".into(), scc.counters.nodes_inserted as f64),
            ],
        );
    }
}

/// Intro factor (1) "duplication of work": Prolog-style SLD vs the
/// memoizing strategies (QSQ, ours) on diamond-ladder DAGs where SLD's
/// proof count is exponential.
fn duplication(r: &mut Report) {
    r.section("Duplication of work: SLD (Prolog) vs QSQ vs ours on diamond ladders");
    for &k in &[6usize, 8, 10, 12] {
        let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..k {
            src.push_str(&format!(
                "e(n{i}, l{i}). e(n{i}, r{i}). e(l{i}, n{n}). e(r{i}, n{n}).\n",
                n = i + 1
            ));
        }
        let mut program = rq_datalog::parse_program(&src).unwrap();
        let q = rq_datalog::Query::parse(&mut program, "tc(n0, Y)").unwrap();
        let sld_out = rq_baselines::sld(&program, &q, 100_000_000);
        let qsq_out = rq_baselines::qsq(&program, &q).unwrap();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let tc = program.pred_by_name("tc").unwrap();
        let n0 = program.consts.get(&ConstValue::Str("n0".into())).unwrap();
        let source = EdbSource::new(&db);
        let ours = Evaluator::new(&system, &source).evaluate(tc, n0, &EvalOptions::default());
        assert_eq!(sld_out.rows.len(), ours.answers.len());
        assert_eq!(qsq_out.rows.len(), ours.answers.len());
        r.row(
            "duplication",
            &format!("diamonds k={k}"),
            vec![
                ("sld_firings".into(), sld_out.counters.rule_firings as f64),
                ("qsq_work".into(), qsq_out.counters.total_work() as f64),
                ("ours_work".into(), ours.counters.total_work() as f64),
            ],
        );
    }
}

/// E16: the simple §4 bin transformation (no binding propagation) vs
/// the full pipeline as irrelevant data grows.
fn binreach(r: &mut Report) {
    r.section("Simple bin transformation vs binding-propagating pipeline — facts consulted");
    for &n in &[50usize, 100, 200, 400] {
        let mut src = String::from(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,a1). flat(a1,b1). down(b1,b).\n",
        );
        for i in 0..n {
            src.push_str(&format!(
                "up(u{i},v{i}). flat(v{i},w{i}). down(w{i},x{i}).\n"
            ));
        }
        let mut program = rq_datalog::parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let query = rq_datalog::Query::parse(&mut program, "sg(a, Y)").unwrap();
        let simple = rq_baselines::bin_reach(&program, &db, &query).unwrap();
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let sg = program.pred_by_name("sg").unwrap();
        let a = program.consts.get(&ConstValue::Str("a".into())).unwrap();
        let source = EdbSource::new(&db);
        let ours = Evaluator::new(&system, &source).evaluate(sg, a, &EvalOptions::default());
        assert_eq!(simple.answers.len(), ours.answers.len());
        r.row(
            "binreach",
            &format!("irrelevant n={n}"),
            vec![
                (
                    "simple_bin_tuples".into(),
                    simple.counters.tuples_retrieved as f64,
                ),
                ("simple_bin_nodes".into(), simple.bin_nodes as f64),
                ("ours_tuples".into(), ours.counters.tuples_retrieved as f64),
            ],
        );
    }
}

/// E17: machine ablation — graph nodes of the served ε-free machines
/// vs the Thompson reference on a union-heavy regular program, from
/// the head of the `a` chain forward and from its tail backward.
fn machines(r: &mut Report) {
    r.section("Machine ablation: G(p,a,1) nodes, Thompson vs served (ε-free) machines");
    for &n in &[100usize, 400, 1600] {
        let mut src = String::from(
            "r(X,Y) :- a(X,Y).\n\
             r(X,Y) :- b(X,Y).\n\
             r(X,Y) :- c(X,Y).\n\
             r(X,Z) :- a(X,Y), r(Y,Z).\n",
        );
        for i in 0..n {
            src.push_str(&format!("a(v{}, v{}).\n", i, i + 1));
            src.push_str(&format!("b(v{i}, w{i}).\n"));
            src.push_str(&format!("c(w{i}, v{i}).\n"));
        }
        let program = rq_datalog::parse_program(&src).unwrap();
        let db = Database::from_program(&program);
        let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
        let p = program.pred_by_name("r").unwrap();
        let konst = |name: String| program.consts.get(&ConstValue::Str(name)).unwrap();
        let (head, tail) = (konst("v0".into()), konst(format!("v{n}")));
        let source = EdbSource::new(&db);
        let reference = CompiledPlan::compile_with(&system, rq_automata::thompson);
        let thompson = Evaluator::with_plan(&system, &reference, &source);
        let served = Evaluator::new(&system, &source);
        let opts = EvalOptions::default();
        let (t_fwd, s_fwd) = (
            thompson.evaluate(p, head, &opts),
            served.evaluate(p, head, &opts),
        );
        let (t_inv, s_inv) = (
            thompson.evaluate_inverse(p, tail, &opts),
            served.evaluate_inverse(p, tail, &opts),
        );
        assert_eq!(t_fwd.answers, s_fwd.answers);
        assert_eq!(t_inv.answers, s_inv.answers);
        r.row(
            "machines",
            &format!("n={n}"),
            vec![
                (
                    "thompson_nodes".into(),
                    t_fwd.counters.nodes_inserted as f64,
                ),
                ("served_nodes".into(), s_fwd.counters.nodes_inserted as f64),
                (
                    "thompson_inverse_nodes".into(),
                    t_inv.counters.nodes_inserted as f64,
                ),
                (
                    "served_inverse_nodes".into(),
                    s_inv.counters.nodes_inserted as f64,
                ),
            ],
        );
    }
}

/// E18: all-pairs side selection — propagation work forward vs reverse
/// vs the chosen minimum on funnel and fan-out graphs.
fn minside(r: &mut Report) {
    r.section("All-pairs side selection: O(tn), t = min(|domain|, |range|)");
    for (label, fan_out) in [("funnel", false), ("fan-out", true)] {
        for &n in &[30usize, 60, 120] {
            let mut src = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
            if fan_out {
                src.push_str("e(root, mid).\n");
                for i in 0..n {
                    src.push_str(&format!("e(mid, w{i}).\n"));
                }
            } else {
                for i in 0..n {
                    src.push_str(&format!("e(u{i}, mid).\n"));
                }
                src.push_str("e(mid, sink).\n");
            }
            let program = rq_datalog::parse_program(&src).unwrap();
            let db = Database::from_program(&program);
            let system = lemma1(&program, &Lemma1Options::default()).unwrap().system;
            let tc = program.pred_by_name("tc").unwrap();
            let source = EdbSource::new(&db);
            let fwd = rq_engine::all_pairs_scc(&system, &source, tc, &EvalOptions::default());
            let (chosen, side) =
                rq_engine::all_pairs_min_side(&system, &source, tc, &EvalOptions::default());
            assert_eq!(fwd.pairs, chosen.pairs);
            r.row(
                "minside",
                &format!("{label} n={n} (chose {side:?})"),
                vec![
                    ("forward_firings".into(), fwd.counters.rule_firings as f64),
                    ("chosen_firings".into(), chosen.counters.rule_firings as f64),
                ],
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    let mut r = Report { json, rows: vec![] };
    match which.as_str() {
        "table1" => table1(&mut r),
        "fig8" => fig8_table(&mut r),
        "horner" => horner(&mut r),
        "demand" => demand(&mut r),
        "flights" => flights_table(&mut r),
        "theorem3" => theorem3(&mut r),
        "theorem4" => theorem4(&mut r),
        "allpairs" => allpairs(&mut r),
        "duplication" => duplication(&mut r),
        "binreach" => binreach(&mut r),
        "machines" => machines(&mut r),
        "minside" => minside(&mut r),
        "all" => {
            table1(&mut r);
            fig8_table(&mut r);
            horner(&mut r);
            demand(&mut r);
            flights_table(&mut r);
            theorem3(&mut r);
            theorem4(&mut r);
            allpairs(&mut r);
            duplication(&mut r);
            binreach(&mut r);
            machines(&mut r);
            minside(&mut r);
        }
        other => {
            eprintln!("unknown table `{other}`; expected table1|fig8|horner|demand|flights|theorem3|theorem4|allpairs|duplication|binreach|machines|minside|all");
            std::process::exit(2);
        }
    }
    r.finish();
}
