//! The symbolic expression language of PEVPM directives.
//!
//! Directive parameters are kept *symbolic* in `procnum`, `numprocs` and
//! user-defined parameters (paper §6: "important program and machine
//! parameters … are retained symbolically in PEVPM models, \[so\] those
//! models can be easily re-evaluated under different input and
//! environmental conditions"). This module provides the lexer, a Pratt
//! parser and an evaluator for that language.
//!
//! Grammar (C-like precedence):
//!
//! ```text
//! expr    := or
//! or      := and ('||' and)*
//! and     := cmp ('&&' cmp)*
//! cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//! add     := mul (('+'|'-') mul)*
//! mul     := unary (('*'|'/'|'%') unary)*
//! unary   := ('-'|'!') unary | atom
//! atom    := number | ident | ident '(' args ')' | '(' expr ')'
//! ```
//!
//! Booleans are represented as 1.0 / 0.0. Built-in functions: `min`, `max`,
//! `ceil`, `floor`, `log2`, `abs`, and `sizeof(<ctype>)` for the C type
//! sizes that appear in annotations like `xsize*sizeof(float)`.

use std::collections::HashMap;
use std::fmt;

/// A parsed expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal number.
    Num(f64),
    /// Variable reference, resolved against the environment at eval time.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call.
    Call(String, Vec<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder (C `%` semantics on truncated integers).
    Mod,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

/// Errors from parsing or evaluating expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression error: {}", self.message)
    }
}

impl std::error::Error for ExprError {}

fn err<T>(message: impl Into<String>) -> Result<T, ExprError> {
    Err(ExprError {
        message: message.into(),
    })
}

/// Variable bindings for evaluation. Keys are model and request parameter
/// names — input from outside the program since the daemon — so the map
/// keeps the standard library's collision-resistant hasher; the sweep loop
/// resolves variables by slot (the `lower` pass), never through this map.
pub type Env = HashMap<String, f64>;

/// Build an environment with the two standard PEVPM variables plus user
/// parameters.
pub fn standard_env(procnum: usize, numprocs: usize, params: &Env) -> Env {
    let mut env = params.clone();
    env.insert("procnum".into(), procnum as f64);
    env.insert("numprocs".into(), numprocs as f64);
    env
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Ident(String),
    Op(&'static str),
    LParen,
    RParen,
    Comma,
}

fn lex(src: &str) -> Result<Vec<Tok>, ExprError> {
    let mut toks = Vec::new();
    let b = src.as_bytes();
    let mut i = 0;
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_digit()
                        || b[i] == b'.'
                        || b[i] == b'e'
                        || b[i] == b'E'
                        || ((b[i] == b'+' || b[i] == b'-')
                            && i > start
                            && (b[i - 1] == b'e' || b[i - 1] == b'E')))
                {
                    i += 1;
                }
                let s = &src[start..i];
                match s.parse::<f64>() {
                    Ok(v) => toks.push(Tok::Num(v)),
                    Err(_) => return err(format!("bad number {s:?}")),
                }
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                toks.push(Tok::Ident(src[start..i].to_string()));
            }
            _ => {
                // Multi-char operators first.
                let two = if i + 1 < b.len() { &src[i..i + 2] } else { "" };
                let op2 = ["==", "!=", "<=", ">=", "&&", "||"]
                    .iter()
                    .find(|&&o| o == two);
                if let Some(&op) = op2 {
                    toks.push(Tok::Op(op));
                    i += 2;
                    continue;
                }
                let one = &src[i..i + 1];
                let op1 = ["+", "-", "*", "/", "%", "<", ">", "!"]
                    .iter()
                    .find(|&&o| o == one);
                match op1 {
                    Some(&op) => {
                        toks.push(Tok::Op(op));
                        i += 1;
                    }
                    None => return err(format!("unexpected character {c:?}")),
                }
            }
        }
    }
    Ok(toks)
}

// --------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_op(&mut self, ops: &[&'static str]) -> Option<&'static str> {
        if let Some(Tok::Op(o)) = self.peek() {
            if let Some(&hit) = ops.iter().find(|&&x| x == *o) {
                self.pos += 1;
                return Some(hit);
            }
        }
        None
    }

    fn parse_expr(&mut self) -> Result<Expr, ExprError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.parse_and()?;
        while self.eat_op(&["||"]).is_some() {
            let rhs = self.parse_and()?;
            lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.parse_cmp()?;
        while self.eat_op(&["&&"]).is_some() {
            let rhs = self.parse_cmp()?;
            lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ExprError> {
        let lhs = self.parse_add()?;
        if let Some(op) = self.eat_op(&["==", "!=", "<=", ">=", "<", ">"]) {
            let rhs = self.parse_add()?;
            let bop = match op {
                "==" => BinOp::Eq,
                "!=" => BinOp::Ne,
                "<=" => BinOp::Le,
                ">=" => BinOp::Ge,
                "<" => BinOp::Lt,
                ">" => BinOp::Gt,
                _ => unreachable!(),
            };
            return Ok(Expr::Binary(bop, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_add(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.parse_mul()?;
        while let Some(op) = self.eat_op(&["+", "-"]) {
            let rhs = self.parse_mul()?;
            let bop = if op == "+" { BinOp::Add } else { BinOp::Sub };
            lhs = Expr::Binary(bop, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, ExprError> {
        let mut lhs = self.parse_unary()?;
        while let Some(op) = self.eat_op(&["*", "/", "%"]) {
            let rhs = self.parse_unary()?;
            let bop = match op {
                "*" => BinOp::Mul,
                "/" => BinOp::Div,
                _ => BinOp::Mod,
            };
            lhs = Expr::Binary(bop, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, ExprError> {
        if self.eat_op(&["-"]).is_some() {
            return Ok(Expr::Unary(UnOp::Neg, Box::new(self.parse_unary()?)));
        }
        if self.eat_op(&["!"]).is_some() {
            return Ok(Expr::Unary(UnOp::Not, Box::new(self.parse_unary()?)));
        }
        self.parse_atom()
    }

    fn parse_atom(&mut self) -> Result<Expr, ExprError> {
        match self.bump() {
            Some(Tok::Num(v)) => Ok(Expr::Num(v)),
            Some(Tok::Ident(name)) => {
                if matches!(self.peek(), Some(Tok::LParen)) {
                    self.pos += 1; // '('
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Tok::RParen)) {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.bump() {
                                Some(Tok::Comma) => continue,
                                Some(Tok::RParen) => return Ok(Expr::Call(name, args)),
                                _ => return err("expected ',' or ')' in argument list"),
                            }
                        }
                    }
                    self.pos += 1; // ')'
                    return Ok(Expr::Call(name, args));
                }
                Ok(Expr::Var(name))
            }
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(e),
                    _ => err("expected ')'"),
                }
            }
            other => err(format!("unexpected token {other:?}")),
        }
    }
}

impl BinOp {
    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Binding strength for the pretty-printer (higher binds tighter).
    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 5,
        }
    }
}

impl Expr {
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent: u8) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Var(name) => f.write_str(name),
            Expr::Unary(op, e) => {
                match op {
                    UnOp::Neg => f.write_str("-")?,
                    UnOp::Not => f.write_str("!")?,
                }
                e.fmt_prec(f, 6)
            }
            Expr::Binary(op, a, b) => {
                let p = op.precedence();
                if p < parent {
                    f.write_str("(")?;
                }
                a.fmt_prec(f, p)?;
                write!(f, " {} ", op.symbol())?;
                // Left-associative: the right operand needs strictly higher
                // binding to avoid parens.
                b.fmt_prec(f, p + 1)?;
                if p < parent {
                    f.write_str(")")?;
                }
                Ok(())
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                f.write_str(")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

/// Parse an expression from source text.
pub fn parse(src: &str) -> Result<Expr, ExprError> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return err("empty expression");
    }
    let mut p = Parser { toks, pos: 0 };
    let e = p.parse_expr()?;
    if p.pos != p.toks.len() {
        return err(format!("trailing tokens after expression in {src:?}"));
    }
    Ok(e)
}

pub(crate) fn sizeof(arg: &Expr) -> Result<f64, ExprError> {
    let Expr::Var(ty) = arg else {
        return err("sizeof expects a type name");
    };
    match ty.as_str() {
        "char" | "int8_t" | "uint8_t" => Ok(1.0),
        "short" | "int16_t" | "uint16_t" => Ok(2.0),
        "int" | "float" | "int32_t" | "uint32_t" => Ok(4.0),
        "double" | "long" | "int64_t" | "uint64_t" | "size_t" => Ok(8.0),
        other => err(format!("sizeof: unknown type {other:?}")),
    }
}

impl Expr {
    /// Evaluate to a number under the given environment.
    pub fn eval(&self, env: &Env) -> Result<f64, ExprError> {
        match self {
            Expr::Num(v) => Ok(*v),
            Expr::Var(name) => env.get(name).copied().ok_or_else(|| ExprError {
                message: format!("unbound variable {name:?}"),
            }),
            Expr::Unary(op, e) => {
                let v = e.eval(env)?;
                Ok(match op {
                    UnOp::Neg => -v,
                    UnOp::Not => {
                        if v == 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                })
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logic first.
                match op {
                    BinOp::And => {
                        return Ok(if a.eval(env)? != 0.0 && b.eval(env)? != 0.0 {
                            1.0
                        } else {
                            0.0
                        })
                    }
                    BinOp::Or => {
                        return Ok(if a.eval(env)? != 0.0 || b.eval(env)? != 0.0 {
                            1.0
                        } else {
                            0.0
                        })
                    }
                    _ => {}
                }
                let x = a.eval(env)?;
                let y = b.eval(env)?;
                Ok(match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => {
                        if y == 0.0 {
                            return err("division by zero");
                        }
                        x / y
                    }
                    BinOp::Mod => {
                        let yi = y.trunc();
                        if yi == 0.0 {
                            return err("modulo by zero");
                        }
                        (x.trunc() as i64).rem_euclid(yi as i64) as f64
                    }
                    BinOp::Eq => (x == y) as u8 as f64,
                    BinOp::Ne => (x != y) as u8 as f64,
                    BinOp::Lt => (x < y) as u8 as f64,
                    BinOp::Le => (x <= y) as u8 as f64,
                    BinOp::Gt => (x > y) as u8 as f64,
                    BinOp::Ge => (x >= y) as u8 as f64,
                    BinOp::And | BinOp::Or => unreachable!(),
                })
            }
            Expr::Call(name, args) => {
                if name == "sizeof" {
                    if args.len() != 1 {
                        return err("sizeof takes exactly one argument");
                    }
                    return sizeof(&args[0]);
                }
                let vals: Result<Vec<f64>, _> = args.iter().map(|a| a.eval(env)).collect();
                let vals = vals?;
                match (name.as_str(), vals.as_slice()) {
                    ("min", [a, b]) => Ok(a.min(*b)),
                    ("max", [a, b]) => Ok(a.max(*b)),
                    ("ceil", [a]) => Ok(a.ceil()),
                    ("floor", [a]) => Ok(a.floor()),
                    ("abs", [a]) => Ok(a.abs()),
                    ("log2", [a]) => {
                        if *a <= 0.0 {
                            err("log2 of non-positive value")
                        } else {
                            Ok(a.log2())
                        }
                    }
                    _ => err(format!(
                        "unknown function {name:?} with {} args",
                        vals.len()
                    )),
                }
            }
        }
    }

    /// Evaluate as a boolean (non-zero = true).
    pub fn eval_bool(&self, env: &Env) -> Result<bool, ExprError> {
        Ok(self.eval(env)? != 0.0)
    }

    /// Evaluate as a non-negative integer (rounded).
    pub fn eval_usize(&self, env: &Env) -> Result<usize, ExprError> {
        let v = self.eval(env)?;
        if !v.is_finite() || v < -0.5 {
            return err(format!("expected a non-negative integer, got {v}"));
        }
        Ok(v.round() as usize)
    }

    /// The set of variables referenced by this expression (for model
    /// introspection and parameter checking).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(name, args) => {
                // sizeof's argument is a type name, not a variable.
                if name != "sizeof" {
                    for a in args {
                        a.collect_vars(out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str, bindings: &[(&str, f64)]) -> f64 {
        let env: Env = bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        parse(src).unwrap().eval(&env).unwrap()
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(ev("1 + 2 * 3", &[]), 7.0);
        assert_eq!(ev("(1 + 2) * 3", &[]), 9.0);
        assert_eq!(ev("10 - 4 - 3", &[]), 3.0);
        assert_eq!(ev("2 * 3 % 4", &[]), 2.0);
        assert_eq!(ev("-2 * 3", &[]), -6.0);
    }

    #[test]
    fn division_and_scientific_notation() {
        assert_eq!(ev("3.24 / 4", &[]), 0.81);
        assert_eq!(ev("1e-3 * 2", &[]), 0.002);
        assert_eq!(ev("2.5e2", &[]), 250.0);
    }

    #[test]
    fn variables_resolve() {
        assert_eq!(ev("procnum % 2 == 0", &[("procnum", 4.0)]), 1.0);
        assert_eq!(ev("procnum % 2 == 0", &[("procnum", 5.0)]), 0.0);
        assert_eq!(ev("3.24 / numprocs", &[("numprocs", 8.0)]), 0.405);
    }

    #[test]
    fn paper_annotation_expressions() {
        // The exact expressions from Figure 5.
        assert_eq!(ev("xsize*sizeof(float)", &[("xsize", 256.0)]), 1024.0);
        assert_eq!(ev("procnum != 0", &[("procnum", 0.0)]), 0.0);
        assert_eq!(
            ev(
                "procnum != numprocs-1",
                &[("procnum", 7.0), ("numprocs", 8.0)]
            ),
            0.0
        );
        assert_eq!(ev("procnum+1", &[("procnum", 3.0)]), 4.0);
        assert_eq!(ev("procnum-1", &[("procnum", 3.0)]), 2.0);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(ev("1 < 2 && 2 < 3", &[]), 1.0);
        assert_eq!(ev("1 < 2 && 2 > 3", &[]), 0.0);
        assert_eq!(ev("1 > 2 || 2 < 3", &[]), 1.0);
        assert_eq!(ev("!(1 == 1)", &[]), 0.0);
        assert_eq!(ev("3 >= 3", &[]), 1.0);
        assert_eq!(ev("3 <= 2", &[]), 0.0);
        assert_eq!(ev("1 != 2", &[]), 1.0);
    }

    #[test]
    fn modulo_is_euclidean_on_negatives() {
        // (procnum - 1) % numprocs must wrap for ring computations.
        assert_eq!(ev("(0 - 1) % 8", &[]), 7.0);
    }

    #[test]
    fn builtin_functions() {
        assert_eq!(ev("min(3, 5)", &[]), 3.0);
        assert_eq!(ev("max(3, 5)", &[]), 5.0);
        assert_eq!(ev("ceil(2.1)", &[]), 3.0);
        assert_eq!(ev("floor(2.9)", &[]), 2.0);
        assert_eq!(ev("abs(0-4)", &[]), 4.0);
        assert_eq!(ev("log2(8)", &[]), 3.0);
        assert_eq!(ev("sizeof(double)", &[]), 8.0);
        assert_eq!(ev("sizeof(char)", &[]), 1.0);
    }

    #[test]
    fn error_cases() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("foo(").is_err());
        assert!(parse("1 @ 2").is_err());
        assert!(parse("(1").is_err());
        assert!(parse("1 2").is_err(), "trailing tokens must error");

        let env = Env::default();
        assert!(parse("nope").unwrap().eval(&env).is_err());
        assert!(parse("1/0").unwrap().eval(&env).is_err());
        assert!(parse("5 % 0").unwrap().eval(&env).is_err());
        assert!(parse("log2(0)").unwrap().eval(&env).is_err());
        assert!(parse("sizeof(quux)").unwrap().eval(&env).is_err());
        assert!(parse("widget(1)").unwrap().eval(&env).is_err());
    }

    #[test]
    fn eval_usize_validates() {
        let env = Env::default();
        assert_eq!(parse("1000").unwrap().eval_usize(&env).unwrap(), 1000);
        assert_eq!(parse("3.6").unwrap().eval_usize(&env).unwrap(), 4);
        assert!(parse("0-5").unwrap().eval_usize(&env).is_err());
    }

    #[test]
    fn variables_are_reported() {
        let e = parse("procnum % 2 == 0 && xsize*sizeof(float) > numprocs").unwrap();
        assert_eq!(e.variables(), vec!["numprocs", "procnum", "xsize"]);
    }

    #[test]
    fn standard_env_binds_proc_vars() {
        let params: Env = [("xsize".to_string(), 256.0)].into_iter().collect();
        let env = standard_env(3, 16, &params);
        assert_eq!(env["procnum"], 3.0);
        assert_eq!(env["numprocs"], 16.0);
        assert_eq!(env["xsize"], 256.0);
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "procnum % 2 == 0 && procnum != numprocs - 1",
            "xsize*sizeof(float)",
            "min(a, b) + max(c, -d)",
            "!(a < b) || c >= 2",
            "10 - 4 - 3",
            "2 * (3 % 4)",
        ] {
            let e = parse(src).unwrap();
            let printed = e.to_string();
            let back = parse(&printed)
                .unwrap_or_else(|err| panic!("reprint of {src:?} -> {printed:?} fails: {err}"));
            assert_eq!(e, back, "{src:?} printed as {printed:?}");
        }
    }

    #[test]
    fn display_respects_associativity() {
        // 10 - (4 - 3) must keep its parens; (10 - 4) - 3 must not.
        let e = parse("10 - (4 - 3)").unwrap();
        assert_eq!(e.to_string(), "10 - (4 - 3)");
        let e = parse("10 - 4 - 3").unwrap();
        assert_eq!(e.to_string(), "10 - 4 - 3");
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let env = Env::default();
        // RHS divides by zero but LHS decides.
        assert_eq!(parse("0 && 1/0").unwrap().eval(&env).unwrap(), 0.0);
        assert_eq!(parse("1 || 1/0").unwrap().eval(&env).unwrap(), 1.0);
    }
}
