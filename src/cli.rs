//! The interactive session behind the `rqc` binary.
//!
//! Everything the REPL can do lives here, behind [`Session`] and
//! [`Command`], so the command grammar and all behaviors are unit
//! tested without a terminal; `rqc` itself is a thin stdin loop.
//! Both sessions — the REPL's [`Session`] and `rqc serve`'s
//! [`ServeSession`] — hold a [`rq_service::QueryService`] and answer
//! query texts through its text entry ([`rq_service::text`]), the same
//! entry the HTTP endpoints call: a query means, and is rejected
//! with, the same thing whichever front end carries it.
//!
//! ```text
//! rq> :load family.dl
//! rq> sg(john, Y)
//! rq> :plan sg(john, Y)
//! rq> :add up(mary, sue).
//! rq> :oracle sg(john, Y)
//! rq> :quit
//! ```

use crate::{single_threaded, solve_on, Strategy};
use rq_datalog::{
    binary_chain_violations, display_program, parse_program, program_is_regular, Analysis, Program,
    Query,
};
use rq_engine::EvalOptions;
use rq_service::QueryService;

/// One REPL command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command<'a> {
    /// `:help`
    Help,
    /// `:quit` / `:q`
    Quit,
    /// `:show` — print the current program.
    Show,
    /// `:stats on|off`
    Stats(bool),
    /// `:max-iterations N` / `:max-iterations off`
    MaxIterations(Option<u64>),
    /// `:load <path>` — replace the program with a file's contents.
    Load(&'a str),
    /// `:add <clause>` — append one rule or fact.
    Add(&'a str),
    /// `:plan <query>` — explain how the query would be evaluated.
    Plan(&'a str),
    /// `:dot <query>` — DOT rendering of the query predicate's machine.
    Dot(&'a str),
    /// `:oracle <query>` — answer via seminaive bottom-up instead.
    Oracle(&'a str),
    /// Anything else: evaluate as a query.
    Query(&'a str),
}

/// Parse one REPL line.  Empty lines and `#` comments yield `None`.
pub fn parse_command(line: &str) -> Result<Option<Command<'_>>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let Some(rest) = line.strip_prefix(':') else {
        return Ok(Some(Command::Query(line)));
    };
    let (word, arg) = match rest.split_once(char::is_whitespace) {
        Some((w, a)) => (w, a.trim()),
        None => (rest, ""),
    };
    let need = |what: &str| -> Result<(), String> {
        if arg.is_empty() {
            Err(format!("`:{word}` needs {what}"))
        } else {
            Ok(())
        }
    };
    let cmd = match word {
        "help" | "h" => Command::Help,
        "quit" | "q" | "exit" => Command::Quit,
        "show" => Command::Show,
        "stats" => match arg {
            "on" => Command::Stats(true),
            "off" => Command::Stats(false),
            other => return Err(format!("`:stats` takes on|off, not `{other}`")),
        },
        "max-iterations" => {
            if arg == "off" {
                Command::MaxIterations(None)
            } else {
                let n: u64 = arg
                    .parse()
                    .map_err(|_| format!("`:max-iterations` takes a number or off, not `{arg}`"))?;
                Command::MaxIterations(Some(n))
            }
        }
        "load" => {
            need("a file path")?;
            Command::Load(arg)
        }
        "add" => {
            need("a rule or fact")?;
            Command::Add(arg)
        }
        "plan" => {
            need("a query")?;
            Command::Plan(arg)
        }
        "dot" => {
            need("a query")?;
            Command::Dot(arg)
        }
        "oracle" => {
            need("a query")?;
            Command::Oracle(arg)
        }
        other => return Err(format!("unknown command `:{other}` (try :help)")),
    };
    Ok(Some(cmd))
}

/// What a command produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandOutput {
    /// Answer text (may be empty).  Goes to stdout in the binary.
    pub text: String,
    /// Diagnostics — truncation warnings, counters.  Goes to stderr in
    /// the binary so answers stay machine-consumable.
    pub notes: String,
    /// Whether the session should end.
    pub quit: bool,
}

impl CommandOutput {
    fn text(text: impl Into<String>) -> Self {
        Self {
            text: text.into(),
            ..Self::default()
        }
    }
}

const HELP: &str = "\
commands:
  <query>               evaluate, e.g. sg(john, Y)
  :load <path>          replace the program with a file
  :add <clause>         append a rule or fact
  :show                 print the current program
  :plan <query>         explain the evaluation pipeline
  :dot <query>          DOT rendering of the query's machine
  :oracle <query>       answer via seminaive bottom-up
  :stats on|off         print counters after each query
  :max-iterations N|off cap the traversal's main loop
  :help  :quit";

/// An interactive evaluation session: a single-threaded
/// [`QueryService`] over the current program, plus the program's
/// re-parseable source text.  Facts added with `:add` go through the
/// service's copy-on-write ingest; only a rule change or a new
/// `:max-iterations` rebuilds the service.
pub struct Session {
    source: String,
    service: QueryService,
    stats: bool,
}

impl Default for Session {
    fn default() -> Self {
        Self::with_source("").expect("the empty program parses")
    }
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Session preloaded with program text.
    pub fn with_source(source: &str) -> Result<Self, String> {
        let program = parse_program(source).map_err(|e| e.to_string())?;
        Ok(Self {
            source: source.to_string(),
            service: single_threaded(program, &EvalOptions::default()),
            stats: false,
        })
    }

    /// The current program source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Replace the program — and the service around it — keeping the
    /// evaluation settings.  A parse error leaves the session untouched.
    fn replace_source(&mut self, text: &str) -> Result<(), String> {
        let program = parse_program(text).map_err(|e| e.to_string())?;
        self.service = single_threaded(program, &self.service.config().options);
        self.source = text.to_string();
        Ok(())
    }

    /// A scratch copy of the served program (query parsing for the
    /// oracle and the plan views interns into it).
    fn program(&self) -> Program {
        self.service.snapshot().program().clone()
    }

    fn size_line(&self, prefix: &str) -> String {
        let snapshot = self.service.snapshot();
        format!(
            "{prefix}: {} rules, {} facts",
            snapshot.program().rules.len(),
            snapshot.program().facts.len()
        )
    }

    /// Run one command.  I/O-free except for `:load`, which reads the
    /// named file.
    pub fn execute(&mut self, cmd: &Command<'_>) -> Result<CommandOutput, String> {
        match cmd {
            Command::Help => Ok(CommandOutput::text(HELP)),
            Command::Quit => Ok(CommandOutput {
                quit: true,
                ..CommandOutput::default()
            }),
            Command::Show => Ok(CommandOutput::text(display_program(
                self.service.snapshot().program(),
            ))),
            Command::Stats(on) => {
                self.stats = *on;
                Ok(CommandOutput::text(format!(
                    "stats {}",
                    if *on { "on" } else { "off" }
                )))
            }
            Command::MaxIterations(n) => {
                let options = EvalOptions {
                    max_iterations: *n,
                    ..EvalOptions::default()
                };
                self.service = single_threaded(self.program(), &options);
                Ok(CommandOutput::text(match n {
                    Some(n) => format!("max iterations = {n}"),
                    None => "max iterations off".to_string(),
                }))
            }
            Command::Load(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                self.replace_source(&text)?;
                Ok(CommandOutput::text(
                    self.size_line(&format!("loaded {path}")),
                ))
            }
            Command::Add(clause) => {
                let clause = format!("{}.", clause.trim_end().trim_end_matches('.'));
                let text = format!("{}\n{clause}\n", self.source.trim_end());
                // Facts publish a new epoch copy-on-write.  Whatever the
                // ingest refuses — a rule, a fact of a derived predicate,
                // garbage — goes through a re-parse of the extended
                // source, which rebuilds the service or reports the error.
                match self.service.ingest(&clause) {
                    Ok(_) => self.source = text,
                    Err(_) => self.replace_source(&text)?,
                }
                Ok(CommandOutput::text(self.size_line("ok")))
            }
            Command::Plan(q) => self.plan(q).map(CommandOutput::text),
            Command::Dot(q) => self.dot(q).map(CommandOutput::text),
            Command::Oracle(q) => {
                let mut program = self.program();
                let query = Query::parse(&mut program, q).map_err(|e| e.to_string())?;
                let result = rq_datalog::seminaive_eval(&program).map_err(|e| e.to_string())?;
                let rows = query.answer_from_relation(&result.tuples(query.pred));
                Ok(CommandOutput::text(render_rows(&program, &rows)))
            }
            Command::Query(q) => {
                let solution = solve_on(&self.service, q).map_err(|e| e.to_string())?;
                let text = render_rows(self.service.snapshot().program(), &solution.answers);
                let mut notes = Vec::new();
                if !solution.converged {
                    notes.push(INCOMPLETE.into());
                }
                if self.stats {
                    notes.push(format!(
                        "pipeline: {}\n{}",
                        pipeline_name(solution.strategy),
                        solution.counters
                    ));
                }
                Ok(CommandOutput {
                    text,
                    notes: notes.join("\n"),
                    quit: false,
                })
            }
        }
    }

    /// `:plan` — describe the pipeline, classification, equation system
    /// or adorned program, and machine sizes for a query.
    fn plan(&self, q: &str) -> Result<String, String> {
        let mut program = self.program();
        let mut out = String::new();
        let analysis = Analysis::of(&program);
        let chain = binary_chain_violations(&program).is_empty();
        out.push_str(&format!(
            "program: {} rules, {} facts\nlinear: {}; binary-chain: {}; regular: {}\n",
            program.rules.len(),
            program.facts.len(),
            analysis.program_is_linear(&program),
            chain,
            program_is_regular(&program, &analysis),
        ));
        let query = Query::parse(&mut program, q).map_err(|e| e.to_string())?;
        if chain && program.is_derived(query.pred) {
            out.push_str("pipeline: §3 binary-chain traversal\n");
            let lemma = rq_relalg::lemma1(&program, &rq_relalg::Lemma1Options::default())
                .map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "equation system ({} passes):\n{}",
                lemma.passes,
                lemma.system.display(&program)
            ));
            let machine = rq_automata::position(lemma.system.get(query.pred));
            let name = |p| program.pred_name(p).to_string();
            let finals: Vec<String> = machine.final_states().map(|q| format!("q{q}")).collect();
            out.push_str(&format!(
                "machine M(e_{}): {} states, {} transitions; start q{}, finals {{{}}}\n",
                name(query.pred),
                machine.num_states(),
                machine.num_transitions(),
                machine.starts[0],
                finals.join(", "),
            ));
            for (q, row) in machine.trans.iter().enumerate() {
                for &(label, to) in row {
                    out.push_str(&format!("  q{q} -{}-> q{to}\n", label.display(&name)));
                }
            }
        } else {
            out.push_str("pipeline: §4 adorned transformation\n");
            let adorned = rq_adorn::adorn(&program, &query).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "adorned program:\n{}",
                rq_adorn::display_adorned(&program, &adorned)
            ));
            let violations = rq_adorn::chain_violations(&program, &adorned);
            if violations.is_empty() {
                out.push_str("chain condition: satisfied\n");
            } else {
                out.push_str(&format!(
                    "chain condition: VIOLATED ({} rule(s)) — transformation would overapproximate\n",
                    violations.len()
                ));
            }
        }
        Ok(out)
    }

    /// `:dot` — DOT source of the served machine `M(e_p)` for the query
    /// predicate.
    fn dot(&self, q: &str) -> Result<String, String> {
        let mut program = self.program();
        let query = Query::parse(&mut program, q).map_err(|e| e.to_string())?;
        if !program.is_derived(query.pred) {
            return Err(format!(
                "`{}` is a base predicate; nothing to plan",
                program.pred_name(query.pred)
            ));
        }
        let lemma = rq_relalg::lemma1(&program, &rq_relalg::Lemma1Options::default())
            .map_err(|e| e.to_string())?;
        let machine = rq_automata::position(lemma.system.get(query.pred));
        Ok(machine.to_dot(&|p| program.pred_name(p).to_string()))
    }
}

/// A serving session behind `rqc serve`: a [`rq_service::QueryService`]
/// answering batches of queries of **any arity** — every mix of bound
/// and free arguments goes through one generalized
/// [`rq_service::QuerySpec`], with the §4 transformation serving n-ary
/// predicates — and `:add` feeding the copy-on-write snapshot store.
/// Like [`Session`], it is I/O-free so the grammar and behaviors are
/// unit tested without a terminal.  The same session serves two front
/// ends: the binary's stdin loop, and — via
/// [`ServeSession::into_service`] — the `rq-wire` HTTP server behind
/// `rqc serve --http <addr>`.
///
/// ```
/// use recursive_queries::cli::ServeSession;
///
/// let mut session = ServeSession::new(
///     "tc(X,Y) :- e(X,Y).\n\
///      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
///      e(a,b). e(b,c).",
/// ).unwrap();
/// // One line = one batch on one snapshot; `;` separates queries.
/// let out = session.execute_line("tc(a, Y); tc(a, c)").unwrap();
/// assert_eq!(out.text, "tc(a, Y): b c\ntc(a, c): yes");
/// // `:add` publishes the next epoch copy-on-write.
/// let out = session.execute_line(":add e(c,d)").unwrap();
/// assert_eq!(out.text, "epoch 1 (3 tuples)");
/// let out = session.execute_line("tc(a, Y)").unwrap();
/// assert_eq!(out.text, "tc(a, Y): b c d");
/// ```
pub struct ServeSession {
    service: rq_service::QueryService,
    /// `:trace on` — append each batch's span tree to the output.
    trace: bool,
}

/// The note every front end appends to an answer whose traversal did
/// not converge.
const INCOMPLETE: &str = "warning: iteration bound hit; answers may be incomplete";

const SERVE_HELP: &str = "\
serve commands:
  <query>[; <query>...]  answer a batch of queries on one snapshot;
                         identical queries are evaluated once, e.g.
                         tc(a, Y); tc(X, b)   point queries
                         tc(a, b)             membership (yes/no)
                         tc(X, Y)             all pairs
                         tc(X, X)             the diagonal (cycle members)
                         cnx(hel,540,D,AT)    n-ary via the §4 rewrite
  :add <facts>           ingest facts copy-on-write (publishes a new epoch)
  :epoch                 print the current snapshot epoch
  :stats                 plan cache hits, batch dedups, and the epoch
                         context's probe/machine memo counters and bytes
  :trace on|off          append each batch's span tree (where the time went)
  :help  :quit";

impl ServeSession {
    /// Start serving `source`.
    pub fn new(source: &str) -> Result<Self, String> {
        Self::with_data_dir(source, None)
    }

    /// [`ServeSession::new`] with optional durability: when `data_dir`
    /// is set, the service recovers its pre-crash state from that
    /// directory (checkpoint + write-ahead-log replay, see
    /// [`rq_service::QueryService::open`]) and logs every subsequent
    /// ingest before acknowledging it — the `rqc serve --data-dir`
    /// path.
    pub fn with_data_dir(source: &str, data_dir: Option<&std::path::Path>) -> Result<Self, String> {
        let program = parse_program(source).map_err(|e| e.to_string())?;
        let config = rq_service::ServiceConfig::default();
        let service = match data_dir {
            None => rq_service::QueryService::with_config(program, config),
            Some(dir) => rq_service::QueryService::open_with_config(program, dir, config)
                .map_err(|e| e.to_string())?,
        };
        Ok(Self {
            service,
            trace: false,
        })
    }

    /// The underlying service (for tests and the binary's banner).
    pub fn service(&self) -> &rq_service::QueryService {
        &self.service
    }

    /// Surrender the underlying service — the handoff point for front
    /// ends that share it across threads, like the `rq-wire` HTTP
    /// server behind `rqc serve --http` (which wraps it in an `Arc`
    /// and answers every endpoint through the same snapshot store,
    /// caches, and epoch contexts the REPL would use).
    pub fn into_service(self) -> rq_service::QueryService {
        self.service
    }

    /// Execute one input line.  Queries are separated by `;` and
    /// answered as one batch on one snapshot.
    pub fn execute_line(&mut self, line: &str) -> Result<CommandOutput, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(CommandOutput::text(""));
        }
        if let Some(rest) = line.strip_prefix(':') {
            let (word, arg) = match rest.split_once(char::is_whitespace) {
                Some((w, a)) => (w, a.trim()),
                None => (rest, ""),
            };
            return match word {
                "help" | "h" => Ok(CommandOutput::text(SERVE_HELP)),
                "quit" | "q" | "exit" => Ok(CommandOutput {
                    quit: true,
                    ..CommandOutput::default()
                }),
                "epoch" => Ok(CommandOutput::text(format!(
                    "epoch {}",
                    self.service.snapshot().epoch()
                ))),
                // One shared rendering path with the HTTP API's
                // `GET /stats`: both surfaces print the same
                // `StatsReport` (text here, JSON there), so the
                // counter sets can never drift apart.
                "stats" => Ok(CommandOutput::text(self.service.stats_report().to_string())),
                "trace" => {
                    self.trace = match arg {
                        "on" => true,
                        "off" => false,
                        other => return Err(format!("`:trace` takes on|off, not `{other}`")),
                    };
                    Ok(CommandOutput::text(format!(
                        "trace {}",
                        if self.trace { "on" } else { "off" }
                    )))
                }
                "add" => {
                    if arg.is_empty() {
                        return Err("`:add` needs one or more facts".to_string());
                    }
                    let mut text = arg.to_string();
                    if !text.trim_end().ends_with('.') {
                        text.push('.');
                    }
                    let snap = self.service.ingest(&text).map_err(|e| e.to_string())?;
                    Ok(CommandOutput::text(format!(
                        "epoch {} ({} tuples)",
                        snap.epoch(),
                        snap.db().total_tuples()
                    )))
                }
                other => Err(format!("unknown serve command `:{other}` (try :help)")),
            };
        }
        self.answer_batch(line)
    }

    fn answer_batch(&self, line: &str) -> Result<CommandOutput, String> {
        let texts: Vec<&str> = line
            .split(';')
            .map(str::trim)
            .filter(|t| !t.is_empty())
            .collect();
        if texts.is_empty() {
            return Ok(CommandOutput::text(""));
        }
        // One pinned snapshot from parse to rendering, so a concurrent
        // publish cannot desynchronize rows from the interner that
        // decodes them.  Spans are recorded per thread, so a `:trace`
        // of a multi-query batch under several workers shows only the
        // caller's spans; single-query lines (which run inline) always
        // trace fully.
        let snapshot = self.service.snapshot();
        if self.trace {
            rq_common::obs::trace_start();
        }
        let answers = self.service.answer_texts(&snapshot, &texts);
        let spans = if self.trace {
            rq_common::obs::trace_finish()
        } else {
            Vec::new()
        };
        let mut out = Vec::new();
        for (text, answered) in texts.iter().zip(answers) {
            let rendered = match answered {
                Err(e) => format!("error: {e}"),
                Ok(answered) if !answered.answer.converged => {
                    let rendered = render_serve_answer(snapshot.program(), &answered);
                    format!("{rendered} ({INCOMPLETE})")
                }
                Ok(answered) => render_serve_answer(snapshot.program(), &answered),
            };
            out.push(format!("{text}: {rendered}"));
        }
        if self.trace && !spans.is_empty() {
            out.push(rq_common::obs::trace_text(&spans).trim_end().to_string());
        }
        Ok(CommandOutput::text(out.join("\n")))
    }
}

/// Render one served answer: `yes`/`no` for fully bound queries (a
/// definitive `no` when one names a constant absent from the data),
/// space-separated constants for one answer column, `(x,y)`-style
/// tuples for wider rows.
fn render_serve_answer(program: &Program, answered: &rq_service::TextAnswer) -> String {
    let answer = &answered.answer;
    if answered.fully_bound {
        return if answer.holds() { "yes" } else { "no" }.to_string();
    }
    if answer.rows.is_empty() {
        return "(none)".to_string();
    }
    // One buffer for the whole answer, straight from the flat rows.
    let consts = &program.consts;
    let mut out = String::new();
    for (i, row) in answer.rows.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        if let [c] = row {
            consts.display_into(*c, &mut out);
            continue;
        }
        out.push('(');
        for (j, &c) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            consts.display_into(c, &mut out);
        }
        out.push(')');
    }
    out
}

fn pipeline_name(strategy: Option<Strategy>) -> &'static str {
    match strategy {
        Some(Strategy::BinaryChain) => "§3 binary-chain traversal",
        Some(Strategy::Section4) => "§4 adorned transformation",
        None => "none (empty by construction: a constant the data never mentions)",
    }
}

fn render_rows(program: &Program, rows: &[Vec<rq_common::Const>]) -> String {
    if rows.is_empty() {
        return "no".to_string();
    }
    if rows.len() == 1 && rows[0].is_empty() {
        return "yes".to_string();
    }
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|&c| program.consts.display(c))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SG: &str = "sg(X,Y) :- flat(X,Y).\n\
                      sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
                      up(john, mary). flat(mary, lisa). down(lisa, erik).\n";

    fn run(session: &mut Session, line: &str) -> Result<CommandOutput, String> {
        let cmd = parse_command(line)?.expect("not a blank line");
        session.execute(&cmd)
    }

    #[test]
    fn command_grammar() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("  # comment").unwrap(), None);
        assert_eq!(parse_command(":help").unwrap(), Some(Command::Help));
        assert_eq!(parse_command(":q").unwrap(), Some(Command::Quit));
        assert_eq!(
            parse_command(":stats on").unwrap(),
            Some(Command::Stats(true))
        );
        assert_eq!(
            parse_command(":max-iterations 12").unwrap(),
            Some(Command::MaxIterations(Some(12)))
        );
        assert_eq!(
            parse_command(":max-iterations off").unwrap(),
            Some(Command::MaxIterations(None))
        );
        assert_eq!(
            parse_command(":plan sg(john, Y)").unwrap(),
            Some(Command::Plan("sg(john, Y)"))
        );
        assert_eq!(
            parse_command("sg(john, Y)").unwrap(),
            Some(Command::Query("sg(john, Y)"))
        );
    }

    #[test]
    fn command_grammar_errors() {
        assert!(parse_command(":stats maybe").is_err());
        assert!(parse_command(":max-iterations lots").is_err());
        assert!(parse_command(":load").is_err());
        assert!(parse_command(":nonsense").is_err());
    }

    #[test]
    fn query_and_stats_flow() {
        let mut s = Session::with_source(SG).unwrap();
        let out = run(&mut s, "sg(john, Y)").unwrap();
        assert_eq!(out.text, "erik");
        run(&mut s, ":stats on").unwrap();
        let out = run(&mut s, "sg(john, Y)").unwrap();
        assert!(out.text.contains("erik"));
        assert!(out.notes.contains("pipeline"));
        assert!(out.notes.contains("work="));
    }

    #[test]
    fn add_extends_the_program() {
        let mut s = Session::with_source(SG).unwrap();
        // A second flat fact one level up gives john a same-generation
        // partner directly.
        let out = run(&mut s, ":add flat(john, paul)").unwrap();
        assert!(out.text.starts_with("ok:"), "{}", out.text);
        let out = run(&mut s, "sg(john, Y)").unwrap();
        assert_eq!(out.text, "erik\npaul");
    }

    #[test]
    fn add_rejects_garbage_and_preserves_program() {
        let mut s = Session::with_source(SG).unwrap();
        let before = s.source().to_string();
        assert!(run(&mut s, ":add flat(john,").is_err());
        assert_eq!(s.source(), before);
        assert_eq!(run(&mut s, "sg(john, Y)").unwrap().text, "erik");
    }

    #[test]
    fn bb_queries_answer_yes_no() {
        let mut s = Session::with_source(SG).unwrap();
        assert_eq!(run(&mut s, "sg(john, erik)").unwrap().text, "yes");
        assert_eq!(run(&mut s, "sg(john, mary)").unwrap().text, "no");
    }

    #[test]
    fn plan_describes_binary_chain_pipeline() {
        let mut s = Session::with_source(SG).unwrap();
        let out = run(&mut s, ":plan sg(john, Y)").unwrap();
        assert!(out.text.contains("§3"), "{}", out.text);
        assert!(out.text.contains("equation system"));
        // sg = flat ∪ up·sg·down: one state per occurrence, two finals.
        assert!(
            out.text
                .contains("machine M(e_sg): 5 states, 4 transitions; start q0, finals {q1, q4}"),
            "{}",
            out.text
        );
        assert!(out.text.contains("  q0 -up-> q2\n"), "{}", out.text);
    }

    #[test]
    fn plan_describes_section4_pipeline() {
        let mut s = Session::with_source(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,540,ams,690). is_deptime(540).",
        )
        .unwrap();
        let out = run(&mut s, ":plan cnx(hel, 540, D, AT)").unwrap();
        assert!(out.text.contains("§4"), "{}", out.text);
        assert!(out.text.contains("adorned program"));
        assert!(out.text.contains("chain condition: satisfied"));
    }

    #[test]
    fn plan_flags_chain_violation() {
        let mut s = Session::with_source(
            "p(X,Y) :- b0(X,Y).\n\
             p(X,Y) :- b1(X,Y), p(Y,Z).\n\
             b1(a,b). b0(b,c). b2(a,b).\n\
             q(X,Y,Z) :- b2(X,Y), p(Y,Z).",
        )
        .unwrap();
        let out = run(&mut s, ":plan q(a, Y, Z)").unwrap();
        assert!(
            out.text.contains("VIOLATED"),
            "expected a chain violation report:\n{}",
            out.text
        );
    }

    #[test]
    fn dot_renders_the_machine() {
        let mut s = Session::with_source(SG).unwrap();
        let out = run(&mut s, ":dot sg(john, Y)").unwrap();
        assert!(out.text.starts_with("digraph"));
        assert!(out.text.contains("flat"));
    }

    #[test]
    fn oracle_agrees_with_engine() {
        let mut s = Session::with_source(SG).unwrap();
        let engine = run(&mut s, "sg(john, Y)").unwrap().text;
        let oracle = run(&mut s, ":oracle sg(john, Y)").unwrap().text;
        assert_eq!(engine, oracle);
    }

    #[test]
    fn max_iterations_caps_and_warns() {
        // Cyclic data: with a tiny cap the answer set is incomplete and
        // the session says so.
        let mut s = Session::with_source(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a1,a2). up(a2,a1). flat(a1,b1).\n\
             down(b1,b2). down(b2,b3). down(b3,b1).",
        )
        .unwrap();
        run(&mut s, ":max-iterations 1").unwrap();
        let capped = run(&mut s, "sg(a1, Y)").unwrap();
        assert!(capped.notes.contains("warning"), "{}", capped.notes);
        run(&mut s, ":max-iterations off").unwrap();
        let full = run(&mut s, "sg(a1, Y)").unwrap();
        assert_eq!(full.text, "b1\nb2\nb3");
    }

    #[test]
    fn show_round_trips_the_program() {
        let mut s = Session::with_source(SG).unwrap();
        let out = run(&mut s, ":show").unwrap();
        assert!(out.text.contains("sg(X,Y) :- flat(X,Y)."));
        assert!(out.text.contains("up(john,mary)."));
    }

    #[test]
    fn quit_sets_the_flag() {
        let mut s = Session::new();
        let out = run(&mut s, ":quit").unwrap();
        assert!(out.quit);
    }

    #[test]
    fn load_reports_missing_file() {
        let mut s = Session::new();
        let err = run(&mut s, ":load /nonexistent/path.dl").unwrap_err();
        assert!(err.contains("cannot read"));
    }

    const TC: &str = "tc(X,Y) :- e(X,Y).\n\
                      tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                      e(a,b). e(b,c).\n";

    #[test]
    fn serve_batches_queries_on_one_line() {
        let mut s = ServeSession::new(TC).unwrap();
        let out = s.execute_line("tc(a, Y); tc(X, c); tc(c, Y)").unwrap();
        assert_eq!(out.text, "tc(a, Y): b c\ntc(X, c): a b\ntc(c, Y): (none)");
    }

    #[test]
    fn serve_add_publishes_epochs_and_refreshes_answers() {
        let mut s = ServeSession::new(TC).unwrap();
        assert_eq!(s.execute_line(":epoch").unwrap().text, "epoch 0");
        assert_eq!(s.execute_line("tc(a, Y)").unwrap().text, "tc(a, Y): b c");
        let out = s.execute_line(":add e(c,d)").unwrap();
        assert!(out.text.starts_with("epoch 1"), "{}", out.text);
        assert_eq!(s.execute_line("tc(a, Y)").unwrap().text, "tc(a, Y): b c d");
        // A brand-new constant is queryable after ingest.
        assert_eq!(s.execute_line("tc(X, d)").unwrap().text, "tc(X, d): a b c");
    }

    #[test]
    fn serve_trace_toggle_appends_span_tree() {
        let mut s = ServeSession::new(TC).unwrap();
        assert!(s.execute_line(":trace maybe").is_err());
        assert_eq!(s.execute_line(":trace on").unwrap().text, "trace on");
        let out = s.execute_line("tc(a, Y)").unwrap();
        assert!(out.text.starts_with("tc(a, Y): b c"), "{}", out.text);
        assert!(out.text.contains("service.query"), "{}", out.text);
        assert!(out.text.contains("engine.traverse"), "{}", out.text);
        // A memo-answered repeat still traces (and says so).
        let out = s.execute_line("tc(a, Y)").unwrap();
        assert!(out.text.contains("from_cache=true"), "{}", out.text);
        assert_eq!(s.execute_line(":trace off").unwrap().text, "trace off");
        let out = s.execute_line("tc(a, Y)").unwrap();
        assert!(!out.text.contains("service.query"), "{}", out.text);
    }

    #[test]
    fn serve_answers_all_pairs_and_diagonal_forms() {
        let mut s = ServeSession::new(
            "tc(X,Y) :- e(X,Y).\n\
             tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
             e(a,b). e(b,a).\n",
        )
        .unwrap();
        let out = s.execute_line("tc(X, Y)").unwrap();
        // Rows of the full relation: the a↔b cycle closure.
        assert_eq!(out.text, "tc(X, Y): (a,a) (a,b) (b,a) (b,b)");
        let out = s.execute_line("tc(X, X)").unwrap();
        assert_eq!(out.text, "tc(X, X): a b");
        // Mixed batches answer on one snapshot.
        let out = s.execute_line("tc(a, Y); tc(X, X)").unwrap();
        assert_eq!(out.text, "tc(a, Y): a b\ntc(X, X): a b");
    }

    #[test]
    fn serve_answers_membership_yes_no() {
        let mut s = ServeSession::new(TC).unwrap();
        let out = s.execute_line("tc(a, c); tc(c, a)").unwrap();
        assert_eq!(out.text, "tc(a, c): yes\ntc(c, a): no");
    }

    #[test]
    fn serve_answers_nary_flight_queries() {
        let mut s = ServeSession::new(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
             is_deptime(540). is_deptime(720).",
        )
        .unwrap();
        let out = s.execute_line("cnx(hel, 540, D, AT)").unwrap();
        assert_eq!(out.text, "cnx(hel, 540, D, AT): (ams,690) (cdg,810)");
        // Fully bound n-ary membership.
        let out = s
            .execute_line("cnx(hel, 540, cdg, 810); cnx(hel, 540, cdg, 690)")
            .unwrap();
        assert_eq!(
            out.text,
            "cnx(hel, 540, cdg, 810): yes\ncnx(hel, 540, cdg, 690): no"
        );
        // Ingest opens a new leg; the served answer follows the epoch.
        s.execute_line(":add flight(cdg,840,nce,930)").unwrap();
        s.execute_line(":add is_deptime(840)").unwrap();
        let out = s.execute_line("cnx(hel, 540, D, AT)").unwrap();
        assert_eq!(
            out.text,
            "cnx(hel, 540, D, AT): (ams,690) (cdg,810) (nce,930)"
        );
    }

    #[test]
    fn serve_dedups_identical_queries_in_a_batch() {
        let mut s = ServeSession::new(TC).unwrap();
        // `tc(a, Y)` and `tc(a, Z)` are one canonical spec.
        let out = s.execute_line("tc(a, Y); tc(a, Z); tc(a, Y)").unwrap();
        let lines: Vec<&str> = out.text.lines().collect();
        assert!(lines.iter().all(|l| l.ends_with(": b c")), "{}", out.text);
        let stats = s.execute_line(":stats").unwrap().text;
        assert!(stats.contains("2 deduped"), "{stats}");
    }

    #[test]
    fn serve_warns_when_an_answer_may_be_incomplete() {
        // Mutual recursion Lemma 1 leaves non-linear, over cyclic data:
        // no m·n bound exists, so the fallback node budget stops it.
        let program = parse_program(
            "q1(X,Z) :- a(X,Y), q2(Y,Z).\n\
             q2(X,Y) :- r2(X,Y).\n\
             q2(X,Z) :- q1(X,Y), r1(Y,Z).\n\
             a(s,t). a(t,s). r2(s,t). r2(t,s). r1(t,s). r1(s,t).",
        )
        .unwrap();
        let config = rq_service::ServiceConfig {
            fallback_node_budget: Some(5_000),
            ..rq_service::ServiceConfig::default()
        };
        let mut s = ServeSession {
            service: rq_service::QueryService::with_config(program, config),
            trace: false,
        };
        let out = s.execute_line("q1(s, Y)").unwrap().text;
        assert_eq!(out, format!("q1(s, Y): s ({INCOMPLETE})"));
        // Converged answers carry no warning.
        let mut tc = ServeSession::new(TC).unwrap();
        let out = tc.execute_line("tc(a, Y); tc(a, d)").unwrap().text;
        assert_eq!(out, "tc(a, Y): b c\ntc(a, d): no");
    }

    #[test]
    fn serve_reports_per_query_errors_inline() {
        let mut s = ServeSession::new(TC).unwrap();
        let out = s
            .execute_line("tc(a, Y); zzz(a, Y); tc(unseen, Y)")
            .unwrap();
        let lines: Vec<&str> = out.text.lines().collect();
        assert_eq!(lines[0], "tc(a, Y): b c");
        assert!(
            lines[1].contains("error") && lines[1].contains("zzz"),
            "{}",
            lines[1]
        );
        // Unknown constants are semantically empty, not errors — and a
        // fully bound query over one is a definitive `no`.
        assert_eq!(lines[2], "tc(unseen, Y): (none)");
        let out = s.execute_line("tc(a, unseen)").unwrap();
        assert_eq!(out.text, "tc(a, unseen): no");
    }

    #[test]
    fn serve_stats_and_memoization() {
        let mut s = ServeSession::new(TC).unwrap();
        s.execute_line("tc(a, Y)").unwrap();
        s.execute_line("tc(a, Y)").unwrap();
        let stats = s.execute_line(":stats").unwrap().text;
        assert!(stats.contains("plan cache:"), "{stats}");
        assert!(stats.contains("machine memo 1 hits / 1 misses"), "{stats}");
        assert!(stats.contains("epoch context:"), "{stats}");
        assert!(stats.contains("machine memo"), "{stats}");
    }

    #[test]
    fn serve_stats_report_epoch_context_counters() {
        // An n-ary batch shares its virtual probes within the epoch;
        // the all-free tc query takes the shared-SCC path.  Both must
        // show up in `:stats`, and an `:add` resets the epoch context.
        let mut s = ServeSession::new(
            &format!(
                "{TC}\
                 cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
                 cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
                 flight(hel,540,ams,690). flight(ams,720,cdg,810).\n\
                 is_deptime(540). is_deptime(720)."
            )
        )
        .unwrap();
        s.execute_line("cnx(hel, 540, D, AT); cnx(ams, 720, D, AT)")
            .unwrap();
        let stats = s.execute_line(":stats").unwrap().text;
        let context_line = stats
            .lines()
            .find(|l| l.starts_with("epoch context:"))
            .expect("stats must include the epoch context line");
        assert!(
            !context_line.contains("probe memo 0 hits / 0 misses"),
            "{context_line}"
        );

        // A pure binary-chain session: the all-free form takes the
        // shared-SCC path and the counter says so.
        let mut chain = ServeSession::new(TC).unwrap();
        chain.execute_line("tc(X, Y)").unwrap();
        let chain_stats = chain.execute_line(":stats").unwrap().text;
        assert!(chain_stats.contains("1 scc-served"), "{chain_stats}");
        // Publishing re-keys the context, but the cnx plan reads only
        // flight/is_deptime — disjoint from the dirtied e — so its
        // probe space (memo and counters included) carries across the
        // publish, and `:stats` says so.
        s.execute_line(":add e(c,d)").unwrap();
        let stats = s.execute_line(":stats").unwrap().text;
        assert!(
            !stats.contains("probe memo 0 hits / 0 misses (0 entr(ies))"),
            "clean-read-set probe space must carry: {stats}"
        );
        assert!(stats.contains("1 probe space(s)"), "{stats}");
        assert!(
            stats.contains("0 scc-served"),
            "scc counter is per-epoch: {stats}"
        );
    }

    #[test]
    fn serve_rejects_rules_in_add_and_unknown_commands() {
        let mut s = ServeSession::new(TC).unwrap();
        assert!(s.execute_line(":add p(X,Y) :- e(X,Y)").is_err());
        assert!(s.execute_line(":nonsense").is_err());
        assert!(s.execute_line(":add").is_err());
        assert!(s.execute_line(":quit").unwrap().quit);
    }
}
