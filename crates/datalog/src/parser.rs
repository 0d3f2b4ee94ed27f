//! A hand-written recursive-descent parser for the textual Datalog syntax.
//!
//! Grammar (comments start with `%` and run to end of line):
//!
//! ```text
//! program  ::= clause*
//! clause   ::= atom ( ":-" body )? "."
//! body     ::= literal ("," literal)*
//! literal  ::= atom | term cmp term
//! atom     ::= ident "(" term ("," term)* ")"
//! term     ::= VARIABLE | ident | INTEGER
//! cmp      ::= "<" | "<=" | ">" | ">=" | "=" | "!="
//! ```
//!
//! Identifiers beginning with an uppercase letter or `_` are variables
//! (scoped to their clause); other identifiers are symbolic constants or
//! predicate names depending on position.  Integer literals are integer
//! constants.  This matches the paper's Prolog-like notation, e.g.
//! `sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).`

use crate::ast::{Atom, CmpOp, Literal, Program, Rule, Term};
use crate::db::MAX_ARITY;
use rq_common::{Const, FxHashMap, Pred, SourceInterner, Var};
use std::fmt;

/// A parse error with line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// A token.  Identifier and variable text is borrowed from the source,
/// so lexing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    Ident(&'a str),
    Variable(&'a str),
    Int(i64),
    LParen,
    RParen,
    Comma,
    Dot,
    Turnstile,
    Cmp(CmpOp),
    Eof,
}

pub(crate) struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(src: &'a str) -> Self {
        Self {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let b = *self.src.as_bytes().get(self.pos)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(b) = self.bump() {
                        if b == b'\n' {
                            break;
                        }
                    }
                }
                _ => return,
            }
        }
    }

    pub(crate) fn next_token(&mut self) -> Result<(Tok<'a>, usize, usize), ParseError> {
        self.skip_trivia();
        let (line, col) = (self.line, self.col);
        let Some(b) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = match b {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'.' => {
                self.bump();
                Tok::Dot
            }
            b':' => {
                self.bump();
                if self.peek() == Some(b'-') {
                    self.bump();
                    Tok::Turnstile
                } else {
                    return Err(self.error("expected `:-`"));
                }
            }
            b'<' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Le)
                } else {
                    Tok::Cmp(CmpOp::Lt)
                }
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Ge)
                } else {
                    Tok::Cmp(CmpOp::Gt)
                }
            }
            b'=' => {
                self.bump();
                Tok::Cmp(CmpOp::Eq)
            }
            b'!' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Cmp(CmpOp::Ne)
                } else {
                    return Err(self.error("expected `!=`"));
                }
            }
            b'-' | b'0'..=b'9' => {
                let start = self.pos;
                if b == b'-' {
                    self.bump();
                }
                while self.peek().is_some_and(|d| d.is_ascii_digit()) {
                    self.bump();
                }
                let s = &self.src[start..self.pos];
                if s == "-" {
                    return Err(self.error("lone `-`"));
                }
                let v: i64 = s
                    .parse()
                    .map_err(|_| self.error(format!("integer out of range: {s}")))?;
                Tok::Int(v)
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'')
                {
                    self.bump();
                }
                let s = &self.src[start..self.pos];
                if s.starts_with(|c: char| c.is_ascii_uppercase() || c == '_') {
                    Tok::Variable(s)
                } else {
                    Tok::Ident(s)
                }
            }
            _ => {
                // Every token so far was ASCII, so `pos` starts a character.
                let c = self.src[self.pos..]
                    .chars()
                    .next()
                    .expect("a byte was peeked");
                return Err(self.error(format!("unexpected character `{c}`")));
            }
        };
        Ok((tok, line, col))
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Tok<'a>,
    line: usize,
    col: usize,
    program: Program,
    /// Constants, interned by source slice; they become
    /// `program.consts` when the parse ends.
    consts: SourceInterner<'a>,
    /// The arguments of the atom being parsed.  A fact's go straight
    /// into `program.facts`, so a fact allocates nothing of its own.
    args: Vec<Term>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(src);
        let (tok, line, col) = lexer.next_token()?;
        Ok(Self {
            lexer,
            tok,
            line,
            col,
            program: Program::new(),
            consts: SourceInterner::new(),
            args: Vec::new(),
        })
    }

    fn error(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col,
            msg: msg.into(),
        }
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        let (tok, line, col) = self.lexer.next_token()?;
        self.tok = tok;
        self.line = line;
        self.col = col;
        Ok(())
    }

    fn expect(&mut self, tok: Tok<'a>, what: &str) -> Result<(), ParseError> {
        if self.tok == tok {
            self.advance()
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.tok)))
        }
    }

    fn parse_program(mut self) -> Result<Program, ParseError> {
        while self.tok != Tok::Eof {
            self.parse_clause()?;
        }
        self.program.consts = self.consts.finish();
        Ok(self.program)
    }

    /// One clause: either a fact or a rule.
    fn parse_clause(&mut self) -> Result<(), ParseError> {
        let mut vars: FxHashMap<&'a str, Var> = FxHashMap::default();
        let mut var_names: Vec<String> = Vec::new();
        let name = match self.tok {
            Tok::Ident(name) => name,
            other => return Err(self.error(format!("expected predicate name, found {other:?}"))),
        };
        self.advance()?;
        let pred = self.parse_args(name, &mut vars, &mut var_names)?;
        if self.tok == Tok::Dot {
            self.advance()?;
            // A fact: all arguments must be constants.
            let mut tuple = [Const::from_index(0); MAX_ARITY];
            for (slot, t) in tuple.iter_mut().zip(&self.args) {
                match t {
                    Term::Const(c) => *slot = *c,
                    Term::Var(_) => {
                        return Err(self.error("facts must be ground (no variables)"));
                    }
                }
            }
            self.program.add_fact(pred, &tuple[..self.args.len()]);
            return Ok(());
        }
        let head = Atom::new(pred, self.args.clone());
        self.expect(Tok::Turnstile, "`:-` or `.`")?;
        let mut body = Vec::new();
        loop {
            body.push(self.parse_literal(&mut vars, &mut var_names)?);
            if self.tok == Tok::Comma {
                self.advance()?;
            } else {
                break;
            }
        }
        self.expect(Tok::Dot, "`.`")?;
        self.program.add_rule(Rule {
            head,
            body,
            var_names,
        });
        Ok(())
    }

    fn parse_literal(
        &mut self,
        vars: &mut FxHashMap<&'a str, Var>,
        var_names: &mut Vec<String>,
    ) -> Result<Literal, ParseError> {
        // Lookahead: `ident (` is an atom; otherwise it must be a comparison.
        match self.tok {
            Tok::Ident(name) => {
                self.advance()?;
                if self.tok == Tok::LParen {
                    let atom = self.parse_atom_tail(name, vars, var_names)?;
                    Ok(Literal::Atom(atom))
                } else {
                    // A constant followed by a comparison operator.
                    let lhs = Term::Const(self.consts.intern_str(name));
                    self.parse_cmp_tail(lhs, vars, var_names)
                }
            }
            Tok::Variable(_) | Tok::Int(_) => {
                let lhs = self.parse_term(vars, var_names)?;
                self.parse_cmp_tail(lhs, vars, var_names)
            }
            other => Err(self.error(format!("expected literal, found {other:?}"))),
        }
    }

    fn parse_cmp_tail(
        &mut self,
        lhs: Term,
        vars: &mut FxHashMap<&'a str, Var>,
        var_names: &mut Vec<String>,
    ) -> Result<Literal, ParseError> {
        let op = match self.tok {
            Tok::Cmp(op) => op,
            _ => return Err(self.error("expected comparison operator")),
        };
        self.advance()?;
        let rhs = self.parse_term(vars, var_names)?;
        Ok(Literal::Cmp { op, lhs, rhs })
    }

    fn parse_atom_tail(
        &mut self,
        name: &str,
        vars: &mut FxHashMap<&'a str, Var>,
        var_names: &mut Vec<String>,
    ) -> Result<Atom, ParseError> {
        let pred = self.parse_args(name, vars, var_names)?;
        Ok(Atom::new(pred, self.args.clone()))
    }

    /// `( term, ... )` after predicate `name`, into `self.args`;
    /// returns the predicate.
    fn parse_args(
        &mut self,
        name: &str,
        vars: &mut FxHashMap<&'a str, Var>,
        var_names: &mut Vec<String>,
    ) -> Result<Pred, ParseError> {
        self.expect(Tok::LParen, "`(`")?;
        self.args.clear();
        loop {
            if self.args.len() == MAX_ARITY {
                // Binding patterns are one-bit-per-column masks; a wider
                // atom would alias its columns.
                return Err(self.error(format!(
                    "`{name}` has more than {MAX_ARITY} arguments, the most an atom may have"
                )));
            }
            let term = self.parse_term(vars, var_names)?;
            self.args.push(term);
            if self.tok == Tok::Comma {
                self.advance()?;
            } else {
                break;
            }
        }
        self.expect(Tok::RParen, "`)`")?;
        let pred = self.program.pred(name, self.args.len());
        if self.program.arity(pred) != self.args.len() {
            return Err(self.error(format!(
                "predicate `{name}` used with arity {} but declared with {}",
                self.args.len(),
                self.program.arity(pred)
            )));
        }
        Ok(pred)
    }

    fn parse_term(
        &mut self,
        vars: &mut FxHashMap<&'a str, Var>,
        var_names: &mut Vec<String>,
    ) -> Result<Term, ParseError> {
        let term = match self.tok {
            Tok::Variable(name) => {
                let v = *vars.entry(name).or_insert_with(|| {
                    let v = Var(var_names.len() as u32);
                    var_names.push(name.to_owned());
                    v
                });
                Term::Var(v)
            }
            Tok::Ident(name) => Term::Const(self.consts.intern_str(name)),
            Tok::Int(i) => Term::Const(self.consts.intern_int(i)),
            other => return Err(self.error(format!("expected term, found {other:?}"))),
        };
        self.advance()?;
        Ok(term)
    }
}

/// Parse a complete program from source text.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.parse_program()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;
    use rq_common::ConstValue;

    #[test]
    fn parses_same_generation() {
        let p = parse_program(
            "sg(X,Y) :- flat(X,Y).\n\
             sg(X,Y) :- up(X,X1), sg(X1,Y1), down(Y1,Y).\n\
             up(a,b). flat(b,c). down(c,d).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.facts.len(), 3);
        let sg = p.pred_by_name("sg").unwrap();
        assert!(p.is_derived(sg));
        let up = p.pred_by_name("up").unwrap();
        assert!(!p.is_derived(up));
        // Variable scoping: rule 2 has X, Y, X1, Y1.
        assert_eq!(p.rules[1].var_names, vec!["X", "Y", "X1", "Y1"]);
    }

    #[test]
    fn variables_are_clause_scoped() {
        let p = parse_program("a(X) :- b(X).\nc(X) :- d(X).\nb(k). d(k).").unwrap();
        // Both rules use Var(0) for their own X.
        assert_eq!(p.rules[0].head.args[0], Term::Var(Var(0)));
        assert_eq!(p.rules[1].head.args[0], Term::Var(Var(0)));
    }

    #[test]
    fn parses_integers_and_comparisons() {
        let p = parse_program(
            "cnx(S,DT,D,AT) :- flight(S,DT,D,AT).\n\
             cnx(S,DT,D,AT) :- flight(S,DT,D1,AT1), AT1 < DT1, is_deptime(DT1), cnx(D1,DT1,D,AT).\n\
             flight(hel, 900, ams, 1130).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 2);
        let rule = &p.rules[1];
        assert!(matches!(rule.body[1], Literal::Cmp { op: CmpOp::Lt, .. }));
        let (_, tuple) = p.facts.get(0).unwrap();
        assert_eq!(p.consts.value(tuple[1]), &ConstValue::Int(900));
    }

    #[test]
    fn rejects_nonground_fact() {
        let err = parse_program("up(a,X).").unwrap_err();
        assert!(err.msg.contains("ground"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let err = parse_program("p(a,b). p(a).").unwrap_err();
        assert!(err.msg.contains("arity"));
    }

    #[test]
    fn atoms_wider_than_max_arity_are_rejected() {
        let atom = |name: &str, arg: &str, n: usize| {
            let args: Vec<String> = (0..n).map(|i| format!("{arg}{i}")).collect();
            format!("{name}({})", args.join(","))
        };
        // A 33-column body atom: its column 32 has no bit in a
        // `ColMask`, so binding it would alias column 0.
        let rule = format!("p(X32,X0) :- {}.", atom("wide", "X", 33));
        let err = parse_program(&rule).unwrap_err();
        assert!(err.msg.contains("more than 32 arguments"), "{}", err.msg);
        // Facts go through the same check (ingest parses them too).
        assert!(parse_program(&format!("{}.", atom("wide", "c", 33))).is_err());
        // Exactly `MAX_ARITY` columns is fine.
        let src = format!(
            "p(X31,X0) :- {}. {}.",
            atom("w", "X", 32),
            atom("w", "c", 32)
        );
        let p = parse_program(&src).unwrap();
        assert_eq!(p.arity(p.pred_by_name("w").unwrap()), MAX_ARITY);
    }

    #[test]
    fn comments_and_whitespace() {
        let p = parse_program(
            "% the same generation program\n\
             sg(X,Y) :- flat(X,Y). % flat base case\n\
             \n\
             flat(a,b).",
        )
        .unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.facts.len(), 1);
    }

    #[test]
    fn underscore_starts_variable() {
        let p = parse_program("p(X) :- q(X, _Y). q(a,b).").unwrap();
        assert_eq!(p.rules[0].var_names, vec!["X", "_Y"]);
    }

    #[test]
    fn negative_integers() {
        let p = parse_program("t(-5).").unwrap();
        let (_, tuple) = p.facts.get(0).unwrap();
        assert_eq!(p.consts.value(tuple[0]), &ConstValue::Int(-5));
    }

    #[test]
    fn reports_the_whole_unexpected_character() {
        let err = parse_program("e(a, café).").unwrap_err();
        assert_eq!(err.msg, "unexpected character `é`");
        assert_eq!((err.line, err.col), (1, 9));
        let err = parse_program("% ünïcode in a comment\ne(😀).").unwrap_err();
        assert_eq!(err.msg, "unexpected character `😀`");
    }

    #[test]
    fn error_carries_position() {
        let err = parse_program("p(a)\nq(b).").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn all_cmp_ops_parse() {
        let p = parse_program(
            "r(X,Y) :- e(X,Y), X < Y, X <= Y, Y > X, Y >= X, X = X, X != Y.\ne(1,2).",
        )
        .unwrap();
        let ops: Vec<CmpOp> = p.rules[0]
            .body
            .iter()
            .filter_map(|l| match l {
                Literal::Cmp { op, .. } => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(
            ops,
            vec![
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne
            ]
        );
    }
}
