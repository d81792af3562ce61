//! The UDF intermediate representation.
//!
//! Real PStorM analyzes the Java bytecode of map/reduce functions with Soot
//! to obtain a control flow graph, and executes that same bytecode on the
//! cluster. We reproduce the essential property — *the CFG is extracted from
//! the code that actually runs* — by expressing map, combine, and reduce
//! functions in a small statement-level IR. The interpreter in
//! [`crate::interp`] executes the IR over records; the `staticanalysis`
//! crate derives the control flow graph from the very same IR.
//!
//! Control flow (`if`/`while`/`for`) is explicit in the IR; leaf
//! computations (tokenizing a line, arithmetic, building a pair) are opaque
//! builtins with per-invocation CPU weights, mirroring how a CFG treats a
//! straight-line bytecode block as a single vertex.

use crate::value::Value;

/// A binary operator in an expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// A built-in leaf operation. Each builtin has a fixed arity (checked by the
/// interpreter) and a CPU weight used for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `tokenize(text) -> list<text>`: whitespace tokenization.
    Tokenize,
    /// `split(text, sep) -> list<text>`: split on a separator string.
    Split,
    /// `lower(text) -> text`
    Lower,
    /// `len(text|list|map) -> int`
    Len,
    /// `index(list, i) -> value`
    Index,
    /// `concat(a, b) -> text`
    Concat,
    /// `to_text(v) -> text`
    ToText,
    /// `parse_int(text) -> int` (0 on failure)
    ParseInt,
    /// `parse_float(text) -> float` (0.0 on failure)
    ParseFloat,
    /// `make_pair(a, b) -> pair`
    MakePair,
    /// `first(pair) -> value`
    First,
    /// `second(pair) -> value`
    Second,
    /// `map_get(map, key) -> value` (Null when absent)
    MapGet,
    /// `contains(text, pattern) -> int(0|1)`
    Contains,
    /// `not_empty(v) -> int(0|1)`
    NotEmpty,
    /// `hash(v) -> int` (non-negative)
    Hash,
    /// `range(a, b) -> list<int>` of `a..b`
    Range,
    /// `min(a, b) -> value`, numeric
    Min,
    /// `max(a, b) -> value`, numeric
    Max,
    /// `substr(text, from, to) -> text` (byte indices, clamped)
    Substr,
    /// `sum(list) -> float`: numeric sum of a list.
    SumList,
    /// `sort(list) -> list`
    SortList,
    /// `keys(map) -> list<text>`
    MapKeys,
    /// `empty_list() -> list`
    EmptyList,
    /// `empty_map() -> map`
    EmptyMap,
}

impl Builtin {
    /// Number of arguments this builtin expects.
    pub fn arity(self) -> usize {
        use Builtin::*;
        match self {
            EmptyList | EmptyMap => 0,
            Tokenize | Lower | Len | ToText | ParseInt | ParseFloat | First | Second | NotEmpty
            | Hash | SumList | SortList | MapKeys => 1,
            Split | Index | Concat | MakePair | MapGet | Contains | Range | Min | Max => 2,
            Substr => 3,
        }
    }

    /// Base CPU weight per invocation, in abstract "ops". Some builtins add
    /// a data-dependent component at interpretation time (e.g. tokenization
    /// is linear in the input length).
    pub fn base_cost(self) -> u64 {
        use Builtin::*;
        match self {
            EmptyList | EmptyMap | First | Second | NotEmpty | Min | Max => 1,
            MakePair | ToText | ParseInt | ParseFloat | Len | Index | MapGet => 2,
            Concat | Substr | Contains | Lower | Hash => 3,
            Tokenize | Split | Range | SumList | MapKeys => 4,
            SortList => 8,
        }
    }
}

/// An expression in the UDF IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Const(Value),
    /// A local variable or UDF input parameter.
    Var(&'static str),
    /// A user-provided job parameter (e.g. the co-occurrence window size),
    /// looked up in [`crate::spec::JobSpec::params`].
    JobParam(&'static str),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A builtin call.
    Call(Builtin, Vec<Expr>),
}

/// A statement in the UDF IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `var = expr`
    Assign(&'static str, Expr),
    /// `var[key] += delta` where `var` is a map and `delta` is numeric;
    /// inserts the key if absent. This is the accumulation idiom of the
    /// "stripes" jobs.
    MapAdd(&'static str, Expr, Expr),
    /// `var.push(expr)` where `var` is a list.
    ListPush(&'static str, Expr),
    /// `context.write(key, value)` — emit an output record.
    Emit(Expr, Expr),
    /// Conditional branch.
    If {
        cond: Expr,
        then_branch: Vec<Stmt>,
        else_branch: Vec<Stmt>,
    },
    /// Pre-test loop.
    While { cond: Expr, body: Vec<Stmt> },
    /// Iteration over a list value. Lowered to the same CFG shape as
    /// `While` (a loop header with a back edge), matching how `javac`
    /// compiles `for` loops — the property that makes a `for`-based and a
    /// `while`-based word count produce the *same* CFG (§4.1.3).
    For {
        var: &'static str,
        iter: Expr,
        body: Vec<Stmt>,
    },
}

/// A user-defined function: a mapper, combiner, or reducer body.
///
/// Mappers are invoked with `key`/`value` bound to the input record;
/// reducers and combiners with `key` bound to the intermediate key and
/// `values` bound to the list of grouped values.
#[derive(Debug, Clone, PartialEq)]
pub struct Udf {
    /// The function's name (enters nothing; the *class* names in the job
    /// spec are the static features).
    pub name: String,
    /// The two input bindings, normally `["key", "value"]` or
    /// `["key", "values"]`. An array: a UDF with fewer has nothing to be
    /// invoked on, and the interpreter binds exactly two.
    pub params: [&'static str; 2],
    /// The statement body.
    pub body: Vec<Stmt>,
}

impl Udf {
    pub fn mapper(name: impl Into<String>, body: Vec<Stmt>) -> Self {
        Udf {
            name: name.into(),
            params: ["key", "value"],
            body,
        }
    }

    pub fn reducer(name: impl Into<String>, body: Vec<Stmt>) -> Self {
        Udf {
            name: name.into(),
            params: ["key", "values"],
            body,
        }
    }
}

/// Expression builder helpers, used throughout the benchmark job
/// definitions to keep UDF bodies readable.
pub mod build {
    use super::*;

    pub fn c_int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }
    pub fn c_float(f: f64) -> Expr {
        Expr::Const(Value::float(f))
    }
    pub fn c_text(s: &str) -> Expr {
        Expr::Const(Value::text(s))
    }
    pub fn var(name: &'static str) -> Expr {
        Expr::Var(name)
    }
    pub fn job_param(name: &'static str) -> Expr {
        Expr::JobParam(name)
    }
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    pub fn add(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Add, a, b)
    }
    pub fn sub(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Sub, a, b)
    }
    pub fn mul(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Mul, a, b)
    }
    pub fn div(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Div, a, b)
    }
    pub fn lt(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Lt, a, b)
    }
    pub fn le(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Le, a, b)
    }
    pub fn gt(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Gt, a, b)
    }
    pub fn eq(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Eq, a, b)
    }
    pub fn ne(a: Expr, b: Expr) -> Expr {
        bin(BinOp::Ne, a, b)
    }
    pub fn call(b: Builtin, args: Vec<Expr>) -> Expr {
        Expr::Call(b, args)
    }
    pub fn tokenize(e: Expr) -> Expr {
        call(Builtin::Tokenize, vec![e])
    }
    pub fn len(e: Expr) -> Expr {
        call(Builtin::Len, vec![e])
    }
    pub fn index(l: Expr, i: Expr) -> Expr {
        call(Builtin::Index, vec![l, i])
    }
    pub fn concat(a: Expr, b: Expr) -> Expr {
        call(Builtin::Concat, vec![a, b])
    }
    pub fn make_pair(a: Expr, b: Expr) -> Expr {
        call(Builtin::MakePair, vec![a, b])
    }
    pub fn first(p: Expr) -> Expr {
        call(Builtin::First, vec![p])
    }
    pub fn second(p: Expr) -> Expr {
        call(Builtin::Second, vec![p])
    }
    pub fn not_empty(e: Expr) -> Expr {
        call(Builtin::NotEmpty, vec![e])
    }
    pub fn assign(name: &'static str, e: Expr) -> Stmt {
        Stmt::Assign(name, e)
    }
    pub fn emit(k: Expr, v: Expr) -> Stmt {
        Stmt::Emit(k, v)
    }
    pub fn if_then(cond: Expr, then_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch: vec![],
        }
    }
    pub fn if_else(cond: Expr, then_branch: Vec<Stmt>, else_branch: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        }
    }
    pub fn while_loop(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }
    pub fn for_each(var: &'static str, iter: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var, iter, body }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_arities() {
        assert_eq!(Builtin::Tokenize.arity(), 1);
        assert_eq!(Builtin::Substr.arity(), 3);
        assert_eq!(Builtin::EmptyMap.arity(), 0);
    }

    #[test]
    fn builtin_costs_positive() {
        for b in [
            Builtin::Tokenize,
            Builtin::SortList,
            Builtin::First,
            Builtin::Hash,
        ] {
            assert!(b.base_cost() >= 1);
        }
    }

    #[test]
    fn builder_produces_expected_shapes() {
        use build::*;
        let e = add(c_int(1), var("x"));
        match e {
            Expr::Bin(BinOp::Add, a, b) => {
                assert_eq!(*a, Expr::Const(Value::Int(1)));
                assert_eq!(*b, Expr::Var("x"));
            }
            _ => panic!("unexpected shape"),
        }
    }

    #[test]
    fn udf_constructors_bind_conventional_params() {
        let m = Udf::mapper("M", vec![]);
        assert_eq!(m.params, ["key", "value"]);
        let r = Udf::reducer("R", vec![]);
        assert_eq!(r.params, ["key", "values"]);
    }
}
