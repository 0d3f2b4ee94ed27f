//! The `Json`-tree implementation of the query endpoints that
//! [`super::respond`] replaced, kept as the reference the direct byte
//! encoder must match: `respond`'s bytes == this tree's
//! [`Json::encode`], for every request the differential tests throw at
//! both.  Nothing outside tests builds a `Json` node per answer row.

use rq_common::{obs, ConstInterner, ConstValue, Json};
use rq_service::{QueryService, QuerySpec, ServiceAnswer, ServiceError, Snapshot};

/// Status and body tree for `POST /query` and `POST /batch` (and the
/// routing errors around them).
pub fn handle(service: &QueryService, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    match (method, path) {
        ("POST", "/query") => match parse_json_body(body) {
            Ok(json) => query_endpoint(service, &json),
            Err(resp) => resp,
        },
        ("POST", "/batch") => match parse_json_body(body) {
            Ok(json) => batch_endpoint(service, &json),
            Err(resp) => resp,
        },
        (_, "/query" | "/batch") => error(405, "use POST"),
        _ => error(
            404,
            format!("no endpoint `{path}`; try /query /batch /ingest /stats /healthz /metrics"),
        ),
    }
}

fn error(status: u16, message: impl Into<String>) -> (u16, Json) {
    (status, Json::object([("error", Json::Str(message.into()))]))
}

fn parse_json_body(body: &[u8]) -> Result<Json, (u16, Json)> {
    let text = std::str::from_utf8(body).map_err(|_| error(400, "request body is not UTF-8"))?;
    Json::parse(text).map_err(|e| error(400, format!("request body is not JSON: {e}")))
}

fn query_endpoint(service: &QueryService, json: &Json) -> (u16, Json) {
    let Some(text) = json.get("query").and_then(Json::as_str) else {
        return error(400, "body must be {\"query\": \"pred(arg, …)\"}");
    };
    let trace = json.get("trace").and_then(Json::as_bool).unwrap_or(false);
    let snapshot = service.snapshot();
    let (result, spans) = if trace {
        obs::trace_start();
        let result = answer_one(service, &snapshot, text);
        (result, obs::trace_finish())
    } else {
        (answer_one(service, &snapshot, text), Vec::new())
    };
    match result {
        Ok(mut answer) => {
            if trace {
                if let Json::Object(pairs) = &mut answer {
                    pairs.push(("trace".to_string(), obs::trace_to_json(&spans)));
                }
            }
            (200, answer)
        }
        Err(e) => error(400, e.to_string()),
    }
}

fn batch_endpoint(service: &QueryService, json: &Json) -> (u16, Json) {
    let Some(texts) = json.get("queries").and_then(Json::as_array) else {
        return error(400, "body must be {\"queries\": [\"pred(arg, …)\", …]}");
    };
    let mut queries: Vec<String> = Vec::with_capacity(texts.len());
    for (i, t) in texts.iter().enumerate() {
        match t.as_str() {
            Some(text) => queries.push(text.to_string()),
            None => return error(400, format!("queries[{i}] is not a string")),
        }
    }
    let snapshot = service.snapshot();
    let parsed: Vec<Result<Option<QuerySpec>, ServiceError>> = queries
        .iter()
        .map(|text| match service.parse_query(text) {
            Ok(spec) => Ok(Some(spec)),
            Err(ServiceError::UnknownConstant(_)) => Ok(None),
            Err(e) => Err(e),
        })
        .collect();
    let specs: Vec<QuerySpec> = parsed
        .iter()
        .filter_map(|p| p.as_ref().ok().cloned().flatten())
        .collect();
    let mut answers = service.query_batch_on(&snapshot, &specs).into_iter();
    let items: Vec<Json> = queries
        .iter()
        .zip(&parsed)
        .map(|(text, slot)| match slot {
            Err(e) => Json::object([
                ("query", Json::Str(text.clone())),
                ("error", Json::Str(e.to_string())),
            ]),
            Ok(None) => empty_answer_json(text, &snapshot),
            Ok(Some(spec)) => match answers.next().expect("one answer per parsed spec") {
                Err(e) => Json::object([
                    ("query", Json::Str(text.clone())),
                    ("error", Json::Str(e.to_string())),
                ]),
                Ok(answer) => answer_json(
                    text,
                    spec.free_positions().is_empty(),
                    &answer,
                    &snapshot.program().consts,
                ),
            },
        })
        .collect();
    (
        200,
        Json::object([
            ("epoch", Json::Int(snapshot.epoch() as i64)),
            ("answers", Json::Array(items)),
        ]),
    )
}

fn answer_one(
    service: &QueryService,
    snapshot: &Snapshot,
    text: &str,
) -> Result<Json, ServiceError> {
    match service.parse_query(text) {
        Ok(spec) => {
            let answer = service.query_on(snapshot, &spec)?;
            Ok(answer_json(
                text,
                spec.free_positions().is_empty(),
                &answer,
                &snapshot.program().consts,
            ))
        }
        Err(ServiceError::UnknownConstant(_)) => Ok(empty_answer_json(text, snapshot)),
        Err(e) => Err(e),
    }
}

/// The JSON shape of one served answer, one node per row and per cell.
pub fn answer_json(
    text: &str,
    fully_bound: bool,
    answer: &ServiceAnswer,
    consts: &ConstInterner,
) -> Json {
    let rows: Vec<Json> = answer
        .rows
        .iter()
        .map(|row| {
            Json::Array(
                row.iter()
                    .map(|&c| match consts.value(c) {
                        ConstValue::Int(i) => Json::Int(*i),
                        _ => Json::Str(consts.display(c)),
                    })
                    .collect(),
            )
        })
        .collect();
    let mut pairs = vec![
        ("query", Json::Str(text.to_string())),
        ("epoch", Json::Int(answer.epoch as i64)),
        ("rows", Json::Array(rows)),
        ("converged", Json::Bool(answer.converged)),
        ("from_cache", Json::Bool(answer.from_cache)),
    ];
    if fully_bound {
        pairs.insert(2, ("holds", Json::Bool(answer.holds())));
    }
    Json::object(pairs)
}

fn empty_answer_json(text: &str, snapshot: &Snapshot) -> Json {
    let mut pairs = vec![
        ("query", Json::Str(text.to_string())),
        ("epoch", Json::Int(snapshot.epoch() as i64)),
        ("rows", Json::Array(Vec::new())),
        ("converged", Json::Bool(true)),
        ("from_cache", Json::Bool(false)),
    ];
    if binds_every_argument(text) {
        pairs.insert(2, ("holds", Json::Bool(false)));
    }
    Json::object(pairs)
}

/// Whether a query text binds every argument (no uppercase- or
/// `_`-led argument) — the membership form, whose empty answer is the
/// definitive `holds: false`.  The reference's own scan of the text:
/// the served path learns this from the service's parse.
fn binds_every_argument(text: &str) -> bool {
    let (Some(open), Some(close)) = (text.find('('), text.rfind(')')) else {
        return false;
    };
    if open + 1 > close {
        return false;
    }
    text[open + 1..close].split(',').all(|arg| {
        !matches!(
            arg.trim().chars().next(),
            Some(c) if c.is_ascii_uppercase() || c == '_'
        )
    })
}
