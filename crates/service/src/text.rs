//! The text entry: query texts in, answers out, on one pinned snapshot.
//!
//! Every front end — `solve`, `rqc <prog> <query>`, the REPL, the
//! `rqc serve` batch line and the HTTP `/query` and `/batch` endpoints —
//! hands its query texts to [`QueryService::answer_text`] (one, inline)
//! or [`QueryService::answer_texts`] (a batch) and renders what comes
//! back.  What a text means (which inputs are malformed, that a
//! constant the data has never seen makes the answer empty rather than
//! an error, whether the query is the fully bound membership form) is
//! therefore decided here, once.

use crate::service::{QueryService, ServiceAnswer, ServiceError, MAX_ADORNABLE_ARITY};
use crate::snapshot::Snapshot;
use crate::spec::{Arg, QuerySpec};
use rq_common::{ConstValue, Counters, Pred, Rows};
use rq_datalog::Program;
use std::sync::Arc;

/// One answered query text.
#[derive(Clone, Debug)]
pub struct TextAnswer {
    /// Whether the text binds every argument — the membership form,
    /// which front ends render as `yes`/`no` (`"holds"` over HTTP)
    /// rather than as rows.
    pub fully_bound: bool,
    /// The answer.
    pub answer: ServiceAnswer,
}

impl QueryService {
    /// Answer one query text on `snapshot`, inline
    /// ([`QueryService::query_on`]).
    pub fn answer_text(&self, snapshot: &Snapshot, text: &str) -> Result<TextAnswer, ServiceError> {
        let (fully_bound, spec) = parse_text(snapshot.program(), text)?;
        let answer = match spec {
            Some(spec) => self.query_on(snapshot, &spec)?,
            None => empty_answer(snapshot),
        };
        Ok(TextAnswer {
            fully_bound,
            answer,
        })
    }

    /// Answer `texts` on `snapshot` as one batch
    /// ([`QueryService::query_batch_on`]), one result per text in order;
    /// per-text errors stay in their slot, so one bad query cannot fail
    /// its neighbors.
    ///
    /// Everything happens on the one pinned snapshot — parse, evaluate
    /// and (in the caller) decode: a concurrent ingest between capture
    /// and any of the three must not hand back rows, or build specs,
    /// whose constants this snapshot's interner has never seen.
    pub fn answer_texts(
        &self,
        snapshot: &Arc<Snapshot>,
        texts: &[&str],
    ) -> Vec<Result<TextAnswer, ServiceError>> {
        let mut specs: Vec<QuerySpec> = Vec::new();
        // Per text: whether it is fully bound, and whether it put a
        // spec into `specs` (otherwise it is empty by construction).
        let parsed: Vec<Result<(bool, bool), ServiceError>> = texts
            .iter()
            .map(|text| {
                let (fully_bound, spec) = parse_text(snapshot.program(), text)?;
                Ok((fully_bound, spec.map(|spec| specs.push(spec)).is_some()))
            })
            .collect();
        let mut answers = self.query_batch_on(snapshot, &specs).into_iter();
        parsed
            .into_iter()
            .map(|slot| {
                let (fully_bound, evaluated) = slot?;
                let answer = if evaluated {
                    answers.next().expect("one answer per parsed spec")?
                } else {
                    empty_answer(snapshot)
                };
                Ok(TextAnswer {
                    fully_bound,
                    answer,
                })
            })
            .collect()
    }
}

/// Parse `text` on `program`: whether it is fully bound, and its spec —
/// `None` when it names a constant the program has never seen.  Such a
/// query is semantically empty, not an error, and is answered without
/// an evaluation; this is the one place that rule lives.
fn parse_text(program: &Program, text: &str) -> Result<(bool, Option<QuerySpec>), ServiceError> {
    let shape = QueryShape::parse(program, text)?;
    let spec = match shape.bind(program) {
        Ok(spec) => Some(spec),
        Err(ServiceError::UnknownConstant(_)) => None,
        Err(e) => return Err(e),
    };
    Ok((shape.fully_bound(), spec))
}

/// The answer that is empty by construction: no rows, nothing ran.
fn empty_answer(snapshot: &Snapshot) -> ServiceAnswer {
    ServiceAnswer {
        epoch: snapshot.epoch(),
        rows: Arc::new(Rows::empty()),
        converged: true,
        from_cache: false,
        route: None,
        counters: Counters::default(),
    }
}

/// A query text checked against the program's schema, its constants
/// not yet resolved: the binding pattern is known even when a bound
/// constant is not.
struct QueryShape<'a> {
    pred: Pred,
    args: Vec<&'a str>,
}

/// Uppercase- or `_`-led arguments are variables.
fn is_variable(arg: &str) -> bool {
    arg.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
}

impl<'a> QueryShape<'a> {
    /// Everything about `text` that does not depend on the data: it is
    /// `pred(arg, …, arg)` over a derived predicate at its arity.
    fn parse(program: &Program, text: &'a str) -> Result<Self, ServiceError> {
        let trimmed = text.trim();
        let malformed = || ServiceError::Malformed(trimmed.to_string());
        let open = trimmed.find('(').ok_or_else(malformed)?;
        let close = trimmed.rfind(')').ok_or_else(malformed)?;
        if close != trimmed.len() - 1 || open == 0 || close < open {
            return Err(malformed());
        }
        let name = trimmed[..open].trim();
        let args: Vec<&str> = trimmed[open + 1..close].split(',').map(str::trim).collect();
        if args
            .iter()
            .any(|a| a.is_empty() || a.contains(char::is_whitespace))
        {
            return Err(malformed());
        }
        let pred = program
            .pred_by_name(name)
            .ok_or_else(|| ServiceError::UnknownPredicate(name.to_string()))?;
        if !program.is_derived(pred) {
            return Err(ServiceError::NotDerived(name.to_string()));
        }
        if program.arity(pred) != args.len() {
            return Err(ServiceError::ArityMismatch {
                pred: name.to_string(),
                expected: program.arity(pred),
                got: args.len(),
            });
        }
        if args.len() > MAX_ADORNABLE_ARITY {
            return Err(ServiceError::Plan(format!(
                "`{name}` has arity {}; adornments support at most {MAX_ADORNABLE_ARITY} positions",
                args.len()
            )));
        }
        Ok(Self { pred, args })
    }

    /// Whether no argument is a variable (the membership form).
    fn fully_bound(&self) -> bool {
        !self.args.iter().any(|a| is_variable(a))
    }

    /// Resolve the constants against `program`'s interner; the only
    /// failure is [`ServiceError::UnknownConstant`].
    fn bind(&self, program: &Program) -> Result<QuerySpec, ServiceError> {
        let mut var_slots: Vec<&str> = Vec::new();
        let mut next_anon: usize = 0;
        let mut args: Vec<Arg> = Vec::with_capacity(self.args.len());
        for &raw in &self.args {
            if is_variable(raw) {
                let slot = if raw == "_" {
                    // Anonymous: a fresh slot every time (never constrains),
                    // drawn from the top so it cannot collide with named
                    // slots (arity is capped at 32 well below 200).
                    next_anon += 1;
                    255 - next_anon
                } else {
                    match var_slots.iter().position(|&v| v == raw) {
                        Some(i) => i,
                        None => {
                            var_slots.push(raw);
                            var_slots.len() - 1
                        }
                    }
                };
                args.push(Arg::Free(slot as u8));
                continue;
            }
            let value = match raw.parse::<i64>() {
                Ok(i) => ConstValue::Int(i),
                Err(_) => ConstValue::Str(raw.to_string()),
            };
            let c = program
                .consts
                .get(&value)
                .ok_or_else(|| ServiceError::UnknownConstant(raw.to_string()))?;
            args.push(Arg::Bound(c));
        }
        Ok(QuerySpec::new(self.pred, args))
    }
}

/// Parse any served query form against `program`:
///
/// * any arity: `cnx(hel, 540, D, AT)` mixes bound and free positions;
/// * lowercase/integer arguments are constants, uppercase or `_`-led
///   arguments are free variables;
/// * a variable name occurring at several positions constrains them to
///   be equal (`p(X, X)` is the diagonal); `_` is anonymous and never
///   constrains (`p(_, _)` stays all-pairs).
pub fn parse_serve_query(program: &Program, text: &str) -> Result<QuerySpec, ServiceError> {
    QueryShape::parse(program, text)?.bind(program)
}
