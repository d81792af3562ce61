//! Interpreter for the UDF IR.
//!
//! Executes a mapper/combiner/reducer body over a record, collecting emitted
//! key-value pairs and an abstract operation count. The op count is the
//! bridge between code structure and cost: a UDF with a nested loop (word
//! co-occurrence) accrues quadratically more ops per record than a
//! single-loop UDF (word count), which is exactly the CPU-cost difference
//! the paper attributes to their differing control flow graphs (Fig. 4.3).
//!
//! An [`Interp`] is built once per UDF — variable names become slots of a
//! flat environment — and then invoked per record or per key group,
//! reusing that environment. Evaluating an expression only reads the
//! environment: a variable, a constant or a job parameter is handed on by
//! reference, a computed value owned, and a value is cloned (for the heap
//! variants of [`crate::value`], a reference-count bump) only where a
//! statement or builtin stores it.
//!
//! The pieces of a text are views until stored (DESIGN.md §25): `split`
//! and `tokenize` yield the text they were given and the spans of its
//! pieces, a variable or an operand holds that table where the UDF sees a
//! list of texts, `index` hands on "piece *i* of it", and the builtins
//! that only read a text read it where it lies. A piece becomes a
//! `Value::Text` of its own — one allocation — where something stores
//! it, and the list of them a `Value::List` where something needs the
//! list; [`Value`] itself knows nothing of this.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::ir::{BinOp, Builtin, Expr, Stmt, Udf};
use crate::value::{OrderedF64, Value, ValueType};

/// Hard cap on loop iterations per UDF invocation; exceeded only by buggy
/// job definitions, never by the shipped benchmarks.
const MAX_STEPS: u64 = 50_000_000;

/// Errors raised while interpreting a UDF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    UnknownVar(String),
    UnknownJobParam(String),
    TypeError {
        expected: &'static str,
        got: String,
    },
    ArityMismatch {
        builtin: String,
        expected: usize,
        got: usize,
    },
    DivisionByZero,
    StepLimitExceeded,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownVar(v) => write!(f, "unknown variable `{v}`"),
            InterpError::UnknownJobParam(p) => write!(f, "unknown job parameter `{p}`"),
            InterpError::TypeError { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            InterpError::ArityMismatch {
                builtin,
                expected,
                got,
            } => write!(f, "{builtin} expects {expected} args, got {got}"),
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::StepLimitExceeded => write!(f, "UDF exceeded the step limit"),
        }
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics accumulated across UDF invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Abstract CPU operations performed.
    pub ops: u64,
    /// Records emitted.
    pub records_out: u64,
    /// Serialized bytes emitted.
    pub bytes_out: u64,
}

impl ExecStats {
    pub fn merge(&mut self, other: ExecStats) {
        self.ops += other.ops;
        self.records_out += other.records_out;
        self.bytes_out += other.bytes_out;
    }
}

/// Where a UDF's emitted pairs go. `bytes` is the pair's serialized size,
/// which `Emit` has already computed for [`ExecStats::bytes_out`]; a sink
/// that needs per-pair sizes keeps it instead of measuring again, and one
/// that only needs the totals in [`ExecStats`] can drop the pair.
pub trait Sink {
    fn emit(&mut self, key: Value, value: Value, bytes: u64);
}

impl Sink for Vec<(Value, Value)> {
    fn emit(&mut self, key: Value, value: Value, _bytes: u64) {
        self.push((key, value));
    }
}

/// An expression with its variable names resolved to environment slots
/// and its job parameters looked up.
enum RExpr {
    Const(Value),
    Var {
        slot: usize,
        name: &'static str,
    },
    /// The parameter's value, or its name when the job does not set it
    /// (an error only if the expression is ever evaluated).
    JobParam(Result<Value, &'static str>),
    Bin(BinOp, Box<RExpr>, Box<RExpr>),
    /// A builtin with as many arguments as it takes.
    Call(Builtin, Vec<RExpr>),
    /// A builtin with `got` arguments where it takes another number: an
    /// error, if the expression is ever evaluated.
    BadCall {
        builtin: Builtin,
        got: usize,
    },
}

/// A statement over [`RExpr`]s; mirrors [`Stmt`] shape for shape, so op
/// accounting walks the same tree the CFG is derived from.
enum RStmt {
    Assign(usize, RExpr),
    MapAdd {
        slot: usize,
        name: &'static str,
        key: RExpr,
        delta: RExpr,
    },
    ListPush {
        slot: usize,
        name: &'static str,
        item: RExpr,
    },
    Emit(RExpr, RExpr),
    If {
        cond: RExpr,
        then_branch: Vec<RStmt>,
        else_branch: Vec<RStmt>,
    },
    While {
        cond: RExpr,
        body: Vec<RStmt>,
    },
    For {
        slot: usize,
        iter: RExpr,
        body: Vec<RStmt>,
    },
}

/// Assigns each distinct variable name of a UDF one slot.
struct Resolver<'p> {
    names: Vec<&'static str>,
    job_params: &'p BTreeMap<String, Value>,
}

impl Resolver<'_> {
    fn slot(&mut self, name: &'static str) -> usize {
        match self.names.iter().position(|n| *n == name) {
            Some(slot) => slot,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> RExpr {
        match e {
            Expr::Const(v) => RExpr::Const(v.clone()),
            Expr::Var(name) => RExpr::Var {
                slot: self.slot(name),
                name,
            },
            Expr::JobParam(name) => {
                RExpr::JobParam(self.job_params.get(*name).cloned().ok_or(*name))
            }
            Expr::Bin(op, a, b) => RExpr::Bin(*op, Box::new(self.expr(a)), Box::new(self.expr(b))),
            Expr::Call(builtin, args) if args.len() != builtin.arity() => RExpr::BadCall {
                builtin: *builtin,
                got: args.len(),
            },
            Expr::Call(builtin, args) => {
                RExpr::Call(*builtin, args.iter().map(|a| self.expr(a)).collect())
            }
        }
    }

    fn block(&mut self, block: &[Stmt]) -> Vec<RStmt> {
        block.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> RStmt {
        match s {
            Stmt::Assign(name, e) => RStmt::Assign(self.slot(name), self.expr(e)),
            Stmt::MapAdd(name, key, delta) => RStmt::MapAdd {
                slot: self.slot(name),
                name,
                key: self.expr(key),
                delta: self.expr(delta),
            },
            Stmt::ListPush(name, e) => RStmt::ListPush {
                slot: self.slot(name),
                name,
                item: self.expr(e),
            },
            Stmt::Emit(k, v) => RStmt::Emit(self.expr(k), self.expr(v)),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => RStmt::If {
                cond: self.expr(cond),
                then_branch: self.block(then_branch),
                else_branch: self.block(else_branch),
            },
            Stmt::While { cond, body } => RStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::For { var, iter, body } => RStmt::For {
                slot: self.slot(var),
                iter: self.expr(iter),
                body: self.block(body),
            },
        }
    }
}

/// A UDF ready to be invoked many times: variable names resolved to slots
/// once, and one environment reused by every invocation. The [`Udf`] it
/// was built from is left as it is — that IR is what `staticanalysis`
/// derives control flow graphs from.
pub struct Interp {
    body: Vec<RStmt>,
    /// Slots of the UDF's two input bindings.
    inputs: [usize; 2],
    /// One slot per variable name; `None` until assigned in the current
    /// invocation.
    env: Vec<Option<Slot>>,
    /// Every piece table a `split` or `tokenize` of this UDF has filled;
    /// one that nothing else holds any more is filled again by the next.
    tables: Vec<Rc<Pieces>>,
}

impl Interp {
    /// Resolve `udf` against the job's parameters.
    pub fn new(udf: &Udf, job_params: &BTreeMap<String, Value>) -> Self {
        let mut resolver = Resolver {
            names: Vec::new(),
            job_params,
        };
        let inputs = udf.params.map(|name| resolver.slot(name));
        let body = resolver.block(&udf.body);
        Interp {
            body,
            inputs,
            env: vec![None; resolver.names.len()],
            tables: Vec::new(),
        }
    }

    /// Invoke the UDF with its two inputs bound: an input record's key
    /// and value for a mapper, an intermediate key and the list of its
    /// grouped values for a combiner or reducer. Every other variable
    /// starts unassigned, whatever earlier invocations left behind.
    pub fn run(
        &mut self,
        first: Value,
        second: Value,
        out: &mut dyn Sink,
    ) -> Result<ExecStats, InterpError> {
        // Not `fill(None)`, which clones its argument into every slot: this
        // runs once per reducer call, 100 000 times an `analyze`.
        for slot in &mut self.env {
            *slot = None;
        }
        self.env[self.inputs[0]] = Some(Slot::Value(first));
        self.env[self.inputs[1]] = Some(Slot::Value(second));
        let mut frame = Frame {
            env: &mut self.env,
            out,
            meter: Meter {
                stats: ExecStats::default(),
                steps: 0,
                tables: &mut self.tables,
            },
        };
        frame.exec_block(&self.body).map_err(|e| *e)?;
        Ok(frame.meter.stats)
    }

    /// Take back the second input of the invocation that just returned, if
    /// the UDF left it bound: a caller that built a list for it can reuse
    /// the allocation once nothing else holds the list.
    pub fn take_second(&mut self) -> Option<Value> {
        self.env[self.inputs[1]].take().map(Slot::into_value)
    }
}

/// What `split` and `tokenize` yield, and a UDF sees as a list of texts:
/// the text they cut and where each piece lies in it. Reading a piece —
/// its length, its digits, the piece itself as the text of a further
/// split — reads the text where it lies; a piece becomes a `Value::Text`
/// of its own the first time something stores it, and the table keeps
/// that value, so a piece stored many times is one allocation shared.
#[derive(Clone, Default)]
struct Pieces {
    text: Arc<str>,
    pieces: Vec<Piece>,
}

#[derive(Clone)]
struct Piece {
    /// Where in the text the piece starts, and its length, in bytes.
    offset: usize,
    len: usize,
    stored: OnceCell<Value>,
}

impl Pieces {
    #[inline]
    fn len(&self) -> usize {
        self.pieces.len()
    }

    #[inline]
    fn str_of(&self, piece: &Piece) -> &str {
        // A piece is cut from `text`, so the range is always there.
        self.text
            .get(piece.offset..piece.offset + piece.len)
            .unwrap_or_default()
    }

    #[inline]
    fn str(&self, i: usize) -> &str {
        self.pieces.get(i).map_or("", |piece| self.str_of(piece))
    }

    /// Piece `i` as a value, `Null` past the end: made the first time it
    /// is asked for and kept, so that a piece read again and again —
    /// `index` in a loop — goes on being the one text it was made.
    #[inline]
    fn value(&self, i: usize) -> &Value {
        match self.pieces.get(i) {
            Some(piece) => piece.stored.get_or_init(|| self.text_of(piece)),
            None => &NULL,
        }
    }

    /// A text of the piece's own; the text it was cut from when the piece
    /// is all of it.
    #[inline(never)]
    fn text_of(&self, piece: &Piece) -> Value {
        if piece.len == self.text.len() {
            Value::Text(Arc::clone(&self.text))
        } else {
            Value::text(self.str_of(piece))
        }
    }

    /// The list the pieces stand for. Out of line: it is the rare arm of
    /// every place an operand becomes a value.
    #[inline(never)]
    fn to_list(&self) -> Value {
        Value::list((0..self.len()).map(|i| self.value(i).clone()).collect())
    }
}

/// What a variable holds: a value, or the pieces of a split text until
/// something needs the list of them.
#[derive(Clone)]
enum Slot {
    Value(Value),
    Pieces(Rc<Pieces>),
}

impl Slot {
    fn value_type(&self) -> ValueType {
        match self {
            Slot::Value(v) => v.value_type(),
            Slot::Pieces(_) => ValueType::List,
        }
    }

    fn into_value(self) -> Value {
        match self {
            Slot::Value(v) => v,
            Slot::Pieces(p) => p.to_list(),
        }
    }
}

/// What every interpreter step returns. Failures are rare and an
/// [`InterpError`] is several words wide: boxing it keeps the `Result` an
/// expression node hands back as small as the [`Value`] inside it.
type Eval<T> = Result<T, Box<InterpError>>;

/// What an expression evaluates to: a value borrowed from the
/// environment, the resolved UDF or the operand it is a part of, a value
/// computed and owned, the pieces of a split text, or one of them.
enum Operand<'a> {
    Borrowed(&'a Value),
    Owned(Value),
    Pieces(Rc<Pieces>),
    Piece(Rc<Pieces>, usize),
}

/// An operand as a builtin reads it, without storing it.
enum Read<'o> {
    Value(&'o Value),
    Pieces(&'o Pieces),
    Piece(&'o Pieces, usize),
}

impl Operand<'_> {
    #[inline]
    fn read(&self) -> Read<'_> {
        match self {
            Operand::Borrowed(v) => Read::Value(v),
            Operand::Owned(v) => Read::Value(v),
            Operand::Pieces(p) => Read::Pieces(p),
            Operand::Piece(p, i) => Read::Piece(p, *i),
        }
    }

    /// The operand, unless it is pieces or one of them.
    #[inline]
    fn plain(&self) -> Option<&Value> {
        match self.read() {
            Read::Value(v) => Some(v),
            _ => None,
        }
    }

    #[inline]
    fn as_text(&self) -> Option<&str> {
        match self.read() {
            Read::Value(v) => v.as_text(),
            Read::Pieces(_) => None,
            Read::Piece(p, i) => Some(p.str(i)),
        }
    }

    fn value_type(&self) -> ValueType {
        match self.read() {
            Read::Value(v) => v.value_type(),
            Read::Pieces(_) => ValueType::List,
            Read::Piece(..) => ValueType::Text,
        }
    }

    #[inline]
    fn is_truthy(&self) -> bool {
        match self.read() {
            Read::Value(v) => v.is_truthy(),
            Read::Pieces(p) => p.len() > 0,
            Read::Piece(p, i) => !p.str(i).is_empty(),
        }
    }

    /// The value the operand stands for, where a consumer compares,
    /// hashes or walks it: pieces as the list of them.
    #[inline]
    fn value(&self) -> Cow<'_, Value> {
        match self.read() {
            Read::Value(v) => Cow::Borrowed(v),
            Read::Pieces(p) => Cow::Owned(p.to_list()),
            Read::Piece(p, i) => Cow::Borrowed(p.value(i)),
        }
    }

    /// The value the operand stands for, where a consumer stores it.
    #[inline(always)]
    fn into_owned(self) -> Value {
        match self {
            Operand::Borrowed(v) => v.clone(),
            Operand::Owned(v) => v,
            Operand::Pieces(p) => p.to_list(),
            Operand::Piece(p, i) => p.value(i).clone(),
        }
    }

    /// What a variable assigned the operand holds: pieces stay pieces.
    #[inline]
    fn into_slot(self) -> Slot {
        match self {
            Operand::Pieces(p) => Slot::Pieces(p),
            other => Slot::Value(other.into_owned()),
        }
    }
}

impl fmt::Display for Operand<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.as_text() {
            Some(s) => f.write_str(s),
            None => self.value().fmt(f),
        }
    }
}

/// Stands in for the arguments a builtin does not take.
static NULL: Value = Value::Null;

/// What an invocation has spent and emitted so far, and the piece tables
/// it may fill: all that evaluating an expression writes.
struct Meter<'a> {
    stats: ExecStats,
    steps: u64,
    tables: &'a mut Vec<Rc<Pieces>>,
}

impl Meter<'_> {
    fn tick(&mut self, cost: u64) -> Eval<()> {
        self.steps += 1;
        self.stats.ops += cost;
        if self.steps > MAX_STEPS {
            fail(InterpError::StepLimitExceeded)
        } else {
            Ok(())
        }
    }

    /// The bounds of `range(from, to)`, refused when the range is longer
    /// than the steps this invocation has left: producing it is that many
    /// steps of work, and no loop could walk it within the limit anyway.
    /// Checked before anything is allocated for it.
    fn range_within_steps(&self, from: &Operand, to: &Operand) -> Eval<std::ops::Range<i64>> {
        let from = int_arg(from)?;
        let to = int_arg(to)?;
        let len = to.saturating_sub(from).max(0) as u64;
        if len > MAX_STEPS.saturating_sub(self.steps) {
            return fail(InterpError::StepLimitExceeded);
        }
        Ok(from..to)
    }

    /// The pieces `parts` of `text` — subslices of it — as a table: one
    /// that no variable or operand holds any more, filled again, or a new
    /// one. A UDF holds at most one table per variable and per operand in
    /// flight, so that is as many as there ever are.
    fn cut<'s>(
        &mut self,
        text: &Arc<str>,
        parts: impl Iterator<Item = &'s str>,
    ) -> Operand<'static> {
        let idle = self.tables.iter().position(|t| Rc::strong_count(t) == 1);
        let mut table = idle.map_or_else(Rc::default, |i| self.tables.swap_remove(i));
        // Unshared, so this is the table itself and copies nothing.
        let filled = Rc::make_mut(&mut table);
        filled.text = Arc::clone(text);
        filled.pieces.clear();
        let start = text.as_ptr().addr();
        filled.pieces.extend(parts.map(|part| Piece {
            offset: part.as_ptr().addr().wrapping_sub(start),
            len: part.len(),
            stored: OnceCell::new(),
        }));
        self.tables.push(Rc::clone(&table));
        Operand::Pieces(table)
    }
}

/// Evaluate `expr` against the environment `env`, which it only reads.
/// A leaf — a variable, a constant, a job parameter — is read where the
/// expression around it is evaluated; only an operator or a call is a
/// call of its own.
#[inline(always)]
fn eval<'a>(env: &'a [Option<Slot>], meter: &mut Meter, expr: &'a RExpr) -> Eval<Operand<'a>> {
    meter.tick(1)?;
    match expr {
        RExpr::Const(v) | RExpr::JobParam(Ok(v)) => Ok(Operand::Borrowed(v)),
        RExpr::Var { slot, name } => match &env[*slot] {
            Some(Slot::Value(v)) => Ok(Operand::Borrowed(v)),
            Some(Slot::Pieces(p)) => Ok(Operand::Pieces(Rc::clone(p))),
            None => unknown_var(name),
        },
        RExpr::Bin(op, a, b) => eval_bin(env, meter, *op, a, b),
        RExpr::Call(builtin, args) => eval_call(env, meter, *builtin, args),
        RExpr::JobParam(Err(name)) => unknown_job_param(name),
        RExpr::BadCall { builtin, got } => bad_call(*builtin, *got),
    }
}

fn eval_bin<'a>(
    env: &'a [Option<Slot>],
    meter: &mut Meter,
    op: BinOp,
    a: &'a RExpr,
    b: &'a RExpr,
) -> Eval<Operand<'a>> {
    let a = eval(env, meter, a)?;
    let b = eval(env, meter, b)?;
    eval_binop(op, &a.value(), &b.value()).map(Operand::Owned)
}

fn eval_call<'a>(
    env: &'a [Option<Slot>],
    meter: &mut Meter,
    builtin: Builtin,
    args: &'a [RExpr],
) -> Eval<Operand<'a>> {
    // No builtin takes more than three arguments.
    let mut vals = [
        Operand::Borrowed(&NULL),
        Operand::Borrowed(&NULL),
        Operand::Borrowed(&NULL),
    ];
    for (val, arg) in vals.iter_mut().zip(args) {
        *val = eval(env, meter, arg)?;
    }
    call_builtin(meter, builtin, vals)
}

/// The part of `whole` that `pick` selects (`Null` when it selects none):
/// borrowed from where a borrowed operand lives, cloned out of any other.
fn part_of<'a>(
    whole: Operand<'a>,
    pick: impl for<'v> FnOnce(&'v Value) -> Eval<Option<&'v Value>>,
) -> Eval<Operand<'a>> {
    Ok(match whole {
        Operand::Borrowed(v) => pick(v)?.map_or(Operand::Borrowed(&NULL), Operand::Borrowed),
        other => Operand::Owned(pick(&other.into_owned())?.cloned().unwrap_or(Value::Null)),
    })
}

/// Charge `b` for an operand, or a part of one, that it hands on rather
/// than computes.
fn handed_on<'a>(meter: &mut Meter, b: Builtin, operand: Operand<'a>) -> Eval<Operand<'a>> {
    meter.stats.ops += b.base_cost();
    Ok(operand)
}

fn call_builtin<'a>(meter: &mut Meter, b: Builtin, args: [Operand<'a>; 3]) -> Eval<Operand<'a>> {
    use Builtin::*;
    let mut extra_cost = 0u64;
    let [a0, a1, a2] = args;
    let result = match b {
        Tokenize => {
            let (text, s) = text_within(&a0)?;
            meter.stats.ops += b.base_cost() + s.len() as u64 / 8;
            return Ok(meter.cut(text, s.split_whitespace()));
        }
        Split => {
            let (text, s) = text_within(&a0)?;
            let sep = text_arg(&a1)?;
            meter.stats.ops += b.base_cost() + s.len() as u64 / 8;
            // A separator of one character is searched for as one.
            let mut chars = sep.chars();
            return Ok(match (chars.next(), chars.next()) {
                (None, _) => meter.cut(text, std::iter::once(s)),
                (Some(c), None) => meter.cut(text, s.split(c)),
                _ => meter.cut(text, s.split(sep)),
            });
        }
        Lower => {
            let s = text_arg(&a0)?;
            extra_cost = s.len() as u64 / 8;
            Value::text(s.to_lowercase())
        }
        Len => Value::Int(match a0.read() {
            Read::Value(Value::Text(s)) => s.len() as i64,
            Read::Piece(p, i) => p.str(i).len() as i64,
            Read::Value(Value::List(l)) => l.len() as i64,
            Read::Pieces(p) => p.len() as i64,
            Read::Value(Value::Map(m)) => m.len() as i64,
            Read::Value(other) => return type_err("text/list/map", other.value_type()),
        }),
        Index => {
            let i = usize::try_from(int_arg(&a1)?).unwrap_or(usize::MAX);
            let item = match a0 {
                Operand::Pieces(p) if i < p.len() => Operand::Piece(p, i),
                Operand::Pieces(_) => Operand::Borrowed(&NULL),
                list => part_of(list, |list| match list {
                    Value::List(l) => Ok(l.get(i)),
                    other => type_err("list", other.value_type()),
                })?,
            };
            return handed_on(meter, b, item);
        }
        Concat => Value::text(format!("{a0}{a1}")),
        ToText if a0.as_text().is_some() => return handed_on(meter, b, a0),
        ToText => Value::text(a0.to_string()),
        ParseInt => Value::Int(
            a0.as_text()
                .and_then(|s| s.trim().parse::<i64>().ok())
                .unwrap_or(0),
        ),
        ParseFloat => Value::float(
            a0.as_text()
                .and_then(|s| s.trim().parse::<f64>().ok())
                .unwrap_or(0.0),
        ),
        MakePair => Value::pair(a0.into_owned(), a1.into_owned()),
        First | Second => {
            let half = part_of(a0, |pair| match pair {
                Value::Pair(p) => Ok(Some(if b == First { &p.0 } else { &p.1 })),
                other => type_err("pair", other.value_type()),
            })?;
            return handed_on(meter, b, half);
        }
        MapGet => {
            let k = text_arg(&a1)?;
            let entry = part_of(a0, |map| match map {
                Value::Map(m) => Ok(m.get(k)),
                other => type_err("map", other.value_type()),
            })?;
            return handed_on(meter, b, entry);
        }
        Contains => {
            let s = text_arg(&a0)?;
            let pat = text_arg(&a1)?;
            extra_cost = s.len() as u64 / 16;
            Value::Int(s.contains(pat) as i64)
        }
        NotEmpty => Value::Int(a0.is_truthy() as i64),
        Hash => Value::Int(value_hash(&a0.value()) as i64),
        Range => {
            let range = meter.range_within_steps(&a0, &a1)?;
            extra_cost = range_extra_cost(&range);
            Value::list(range.map(Value::Int).collect())
        }
        Min => num_binary(&a0, &a1, f64::min)?,
        Max => num_binary(&a0, &a1, f64::max)?,
        Substr => {
            let s = text_arg(&a0)?;
            let from = int_arg(&a1)?.clamp(0, s.len() as i64) as usize;
            let to = int_arg(&a2)?.clamp(from as i64, s.len() as i64) as usize;
            // Indices are bytes; an index inside a multi-byte
            // character rounds down to the character's first byte.
            let from = s.floor_char_boundary(from);
            let to = s.floor_char_boundary(to);
            Value::text(&s[from..to])
        }
        SumList => match &*a0.value() {
            Value::List(l) => {
                extra_cost = l.len() as u64 / 4;
                let mut acc = 0.0;
                let mut all_int = true;
                for v in l.iter() {
                    all_int &= matches!(v, Value::Int(_));
                    match v.as_float() {
                        Some(x) => acc += x,
                        None => return type_err("number", v.value_type()),
                    }
                }
                if all_int {
                    Value::Int(acc as i64)
                } else {
                    Value::float(acc)
                }
            }
            other => return type_err("list", other.value_type()),
        },
        // Sorting a list a variable still holds sorts a copy of it.
        SortList => match a0.into_owned() {
            Value::List(mut l) => {
                extra_cost = (l.len() as u64).saturating_mul(4);
                Arc::make_mut(&mut l).sort();
                Value::List(l)
            }
            other => return type_err("list", other.value_type()),
        },
        MapKeys => match &*a0.value() {
            Value::Map(m) => {
                extra_cost = m.len() as u64 / 4;
                Value::list(m.keys().map(|k| Value::text(k.as_str())).collect())
            }
            other => return type_err("map", other.value_type()),
        },
        EmptyList => Value::list(vec![]),
        EmptyMap => Value::map(BTreeMap::new()),
    };
    meter.stats.ops += b.base_cost() + extra_cost;
    Ok(Operand::Owned(result))
}

/// One invocation context for a UDF: the environment its statements
/// write, where its pairs go, and what it has spent.
struct Frame<'a> {
    env: &'a mut [Option<Slot>],
    out: &'a mut dyn Sink,
    meter: Meter<'a>,
}

impl Frame<'_> {
    #[inline(always)]
    fn eval<'e>(&'e mut self, expr: &'e RExpr) -> Eval<Operand<'e>> {
        eval(self.env, &mut self.meter, expr)
    }

    fn exec_block(&mut self, block: &[RStmt]) -> Eval<()> {
        for stmt in block {
            self.exec(stmt)?;
        }
        Ok(())
    }

    /// One pass of a `for` body, with the loop variable set to `item`.
    fn iterate(&mut self, slot: usize, item: Value, body: &[RStmt]) -> Eval<()> {
        self.meter.tick(1)?;
        self.env[slot] = Some(Slot::Value(item));
        self.exec_block(body)
    }

    /// The variable a `MapAdd`/`ListPush` updates in place.
    fn assigned(&mut self, slot: usize, name: &'static str) -> Eval<&mut Slot> {
        match &mut self.env[slot] {
            Some(var) => Ok(var),
            None => unknown_var(name),
        }
    }

    fn exec(&mut self, stmt: &RStmt) -> Eval<()> {
        self.meter.tick(1)?;
        match stmt {
            RStmt::Assign(slot, e) => {
                let v = self.eval(e)?.into_slot();
                self.env[*slot] = Some(v);
                Ok(())
            }
            RStmt::MapAdd {
                slot,
                name,
                key,
                delta,
            } => {
                // Owned: the map it goes into is in the environment a
                // borrowed key would still be reading.
                let key = self.eval(key)?.into_owned();
                let d = self.eval(delta)?.plain().and_then(Value::as_float).ok_or(
                    InterpError::TypeError {
                        expected: "number",
                        got: "non-numeric delta".to_string(),
                    },
                )?;
                match self.assigned(*slot, name)? {
                    Slot::Value(Value::Map(m)) => {
                        // Preserve integer representation for whole numbers so
                        // "stripes" counters stay compact.
                        let bump = |cur: f64| {
                            let next = cur + d;
                            if next.fract() == 0.0 && next.abs() < i64::MAX as f64 {
                                Value::Int(next as i64)
                            } else {
                                Value::Float(OrderedF64(next))
                            }
                        };
                        let key: Cow<str> = match &key {
                            Value::Text(s) => Cow::Borrowed(s),
                            other => Cow::Owned(other.to_string()),
                        };
                        let m = Arc::make_mut(m);
                        match m.get_mut(&*key) {
                            Some(entry) => *entry = bump(entry.as_float().unwrap_or(0.0)),
                            None => {
                                m.insert(key.into_owned(), bump(0.0));
                            }
                        }
                        Ok(())
                    }
                    other => type_err("map", other.value_type()),
                }
            }
            RStmt::ListPush { slot, name, item } => {
                let v = self.eval(item)?.into_owned();
                let var = self.assigned(*slot, name)?;
                // A push to pieces is a push to the list they stand for.
                if let Slot::Pieces(p) = var {
                    *var = Slot::Value(p.to_list());
                }
                match var {
                    Slot::Value(Value::List(l)) => {
                        Arc::make_mut(l).push(v);
                        Ok(())
                    }
                    other => type_err("list", other.value_type()),
                }
            }
            RStmt::Emit(k, v) => {
                let k = self.eval(k)?.into_owned();
                let v = self.eval(v)?.into_owned();
                let bytes = k.serialized_size() + v.serialized_size();
                let stats = &mut self.meter.stats;
                stats.records_out += 1;
                stats.bytes_out += bytes;
                // Emitting costs serialization work proportional to size.
                stats.ops += 2;
                self.out.emit(k, v, bytes);
                Ok(())
            }
            RStmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.is_truthy() {
                    self.exec_block(then_branch)
                } else {
                    self.exec_block(else_branch)
                }
            }
            RStmt::While { cond, body } => {
                while self.eval(cond)?.is_truthy() {
                    self.exec_block(body)?;
                }
                Ok(())
            }
            // `for x in range(a, b)` walks the bounds without building the
            // list; steps and ops are those of evaluating the call.
            RStmt::For {
                slot,
                iter: RExpr::Call(Builtin::Range, bounds),
                body,
            } => {
                self.meter.tick(1)?;
                let from = eval(self.env, &mut self.meter, &bounds[0])?;
                let to = eval(self.env, &mut self.meter, &bounds[1])?;
                let range = self.meter.range_within_steps(&from, &to)?;
                self.meter.stats.ops += Builtin::Range.base_cost() + range_extra_cost(&range);
                for i in range {
                    self.iterate(*slot, Value::Int(i), body)?;
                }
                Ok(())
            }
            // Holding the list, or the pieces, keeps the iteration a
            // snapshot: a push to the same variable inside the body copies
            // on write. A loop visits a piece once and its variable dies
            // with the iteration, so it takes a text of its own: one kept
            // with the pieces would outlive its use by the rest of the
            // invocation, and be freed cold.
            RStmt::For { slot, iter, body } => match self.eval(iter)?.into_slot() {
                Slot::Value(Value::List(l)) => l
                    .iter()
                    .try_for_each(|item| self.iterate(*slot, item.clone(), body)),
                Slot::Pieces(p) => p
                    .pieces
                    .iter()
                    .try_for_each(|piece| self.iterate(*slot, p.text_of(piece), body)),
                other => type_err("list", other.value_type()),
            },
        }
    }
}

/// The data-dependent op cost of `range`: a quarter op per element.
fn range_extra_cost(range: &std::ops::Range<i64>) -> u64 {
    range.end.saturating_sub(range.start).max(0) as u64 / 4
}

#[inline]
fn text_arg<'o>(v: &'o Operand) -> Eval<&'o str> {
    match v.as_text() {
        Some(s) => Ok(s),
        None => type_err("text", v.value_type()),
    }
}

/// A text operand, and the shared string it lies in: itself, or the text
/// the piece was cut from.
fn text_within<'o>(v: &'o Operand) -> Eval<(&'o Arc<str>, &'o str)> {
    match v.read() {
        Read::Value(Value::Text(s)) => Ok((s, s)),
        Read::Piece(p, i) => Ok((&p.text, p.str(i))),
        _ => type_err("text", v.value_type()),
    }
}

#[inline]
fn int_arg(v: &Operand) -> Eval<i64> {
    match v.plain().and_then(Value::as_int) {
        Some(i) => Ok(i),
        None => type_err("int", v.value_type()),
    }
}

/// The `Err` for `error`. Out of line, like those below: a leaf of an
/// expression is evaluated where it is used, and carries none of this
/// along.
#[cold]
fn fail<T>(error: InterpError) -> Eval<T> {
    Err(error.into())
}

#[cold]
fn unknown_var<T>(name: &str) -> Eval<T> {
    fail(InterpError::UnknownVar(name.to_string()))
}

#[cold]
fn unknown_job_param<T>(name: &str) -> Eval<T> {
    fail(InterpError::UnknownJobParam(name.to_string()))
}

#[cold]
fn bad_call<T>(builtin: Builtin, got: usize) -> Eval<T> {
    fail(InterpError::ArityMismatch {
        builtin: format!("{builtin:?}"),
        expected: builtin.arity(),
        got,
    })
}

/// The `Err` for a type mismatch.
#[cold]
fn type_err<T>(expected: &'static str, got: ValueType) -> Eval<T> {
    fail(InterpError::TypeError {
        expected,
        got: format!("{got:?}"),
    })
}

fn num_binary(a: &Operand, b: &Operand, f: fn(f64, f64) -> f64) -> Eval<Value> {
    let number = |v: &Operand| match v.plain().and_then(Value::as_float) {
        Some(x) => Ok(x),
        None => type_err("number", v.value_type()),
    };
    let r = f(number(a)?, number(b)?);
    if matches!(
        (a.plain(), b.plain()),
        (Some(Value::Int(_)), Some(Value::Int(_)))
    ) {
        Ok(Value::Int(r as i64))
    } else {
        Ok(Value::float(r))
    }
}

fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Eval<Value> {
    use BinOp::*;
    match op {
        And => return Ok(Value::Int((a.is_truthy() && b.is_truthy()) as i64)),
        Or => return Ok(Value::Int((a.is_truthy() || b.is_truthy()) as i64)),
        Eq => return Ok(Value::Int((a == b) as i64)),
        Ne => return Ok(Value::Int((a != b) as i64)),
        Lt => return Ok(Value::Int((a < b) as i64)),
        Le => return Ok(Value::Int((a <= b) as i64)),
        Gt => return Ok(Value::Int((a > b) as i64)),
        Ge => return Ok(Value::Int((a >= b) as i64)),
        _ => {}
    }
    // Arithmetic: integer arithmetic when both sides are ints, float
    // otherwise. Text concatenation via Add.
    if let (Value::Text(x), Value::Text(y)) = (a, b) {
        if op == Add {
            return Ok(Value::text(format!("{x}{y}")));
        }
    }
    let (x, y) = match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(InterpError::TypeError {
                expected: "number",
                got: format!("{:?} {op:?} {:?}", a.value_type(), b.value_type()),
            }
            .into())
        }
    };
    let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    let r = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => {
            if y == 0.0 {
                return Err(InterpError::DivisionByZero.into());
            }
            x / y
        }
        Mod => {
            if y == 0.0 {
                return Err(InterpError::DivisionByZero.into());
            }
            x % y
        }
        _ => unreachable!("comparisons handled above"),
    };
    if both_int && matches!(op, Add | Sub | Mul | Mod) {
        Ok(Value::Int(r as i64))
    } else if both_int && op == Div {
        Ok(Value::Int((x as i64) / (y as i64)))
    } else {
        Ok(Value::float(r))
    }
}

fn hash_value(v: &Value, h: &mut u64) {
    fn mix(h: &mut u64, byte: u8) {
        *h ^= byte as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
    match v {
        Value::Null => mix(h, 0),
        Value::Int(i) => i.to_le_bytes().iter().for_each(|b| mix(h, *b)),
        Value::Float(f) => f.0.to_bits().to_le_bytes().iter().for_each(|b| mix(h, *b)),
        Value::Text(s) => s.as_bytes().iter().for_each(|b| mix(h, *b)),
        Value::Pair(p) => {
            hash_value(&p.0, h);
            hash_value(&p.1, h);
        }
        Value::List(l) => l.iter().for_each(|x| hash_value(x, h)),
        Value::Map(m) => {
            for (k, x) in m.iter() {
                k.as_bytes().iter().for_each(|b| mix(h, *b));
                hash_value(x, h);
            }
        }
    }
}

/// Deterministic non-negative hash of a value, exposed for partitioning.
pub fn value_hash(v: &Value) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    hash_value(v, &mut h);
    h >> 1
}

/// Run a mapper UDF over one input record. One-shot: resolves the UDF on
/// every call; a loop over records holds an [`Interp`] instead.
pub fn run_map(
    udf: &Udf,
    job_params: &BTreeMap<String, Value>,
    key: &Value,
    value: &Value,
    out: &mut Vec<(Value, Value)>,
) -> Result<ExecStats, InterpError> {
    Interp::new(udf, job_params).run(key.clone(), value.clone(), out)
}

/// Run a reducer/combiner UDF over one intermediate key group. One-shot,
/// like [`run_map`].
pub fn run_reduce(
    udf: &Udf,
    job_params: &BTreeMap<String, Value>,
    key: &Value,
    values: Vec<Value>,
    out: &mut Vec<(Value, Value)>,
) -> Result<ExecStats, InterpError> {
    Interp::new(udf, job_params).run(key.clone(), Value::list(values), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::build::*;
    use crate::ir::Builtin;

    fn no_params() -> BTreeMap<String, Value> {
        BTreeMap::new()
    }

    #[test]
    fn word_count_map_emits_one_pair_per_token() {
        let udf = Udf::mapper(
            "wc",
            vec![
                assign("tokens", tokenize(var("value"))),
                for_each("word", var("tokens"), vec![emit(var("word"), c_int(1))]),
            ],
        );
        let mut out = vec![];
        let stats = run_map(
            &udf,
            &no_params(),
            &Value::Int(0),
            &Value::text("the quick brown fox the"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(stats.records_out, 5);
        assert!(stats.ops > 5);
        assert_eq!(out[0].0, Value::text("the"));
    }

    #[test]
    fn sum_reducer_sums_group() {
        let udf = Udf::reducer(
            "sum",
            vec![
                assign("total", call(Builtin::SumList, vec![var("values")])),
                emit(var("key"), var("total")),
            ],
        );
        let mut out = vec![];
        run_reduce(
            &udf,
            &no_params(),
            &Value::text("w"),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            &mut out,
        )
        .unwrap();
        assert_eq!(out, vec![(Value::text("w"), Value::Int(6))]);
    }

    #[test]
    fn while_loop_counts() {
        let udf = Udf::mapper(
            "count",
            vec![
                assign("i", c_int(0)),
                while_loop(
                    lt(var("i"), c_int(4)),
                    vec![
                        emit(var("i"), c_int(1)),
                        assign("i", add(var("i"), c_int(1))),
                    ],
                ),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn nested_loops_cost_more_than_flat() {
        let flat = Udf::mapper(
            "flat",
            vec![for_each(
                "w",
                tokenize(var("value")),
                vec![emit(var("w"), c_int(1))],
            )],
        );
        let nested = Udf::mapper(
            "nested",
            vec![for_each(
                "w",
                tokenize(var("value")),
                vec![for_each(
                    "u",
                    tokenize(var("value")),
                    vec![emit(make_pair(var("w"), var("u")), c_int(1))],
                )],
            )],
        );
        let line = Value::text("a b c d e f g h");
        let mut out = vec![];
        let s1 = run_map(&flat, &no_params(), &Value::Null, &line, &mut out).unwrap();
        out.clear();
        let s2 = run_map(&nested, &no_params(), &Value::Null, &line, &mut out).unwrap();
        assert!(s2.ops > 4 * s1.ops, "nested {} flat {}", s2.ops, s1.ops);
    }

    #[test]
    fn map_add_accumulates() {
        let udf = Udf::mapper(
            "stripes",
            vec![
                assign("m", call(Builtin::EmptyMap, vec![])),
                Stmt::MapAdd("m", c_text("x"), c_int(2)),
                Stmt::MapAdd("m", c_text("x"), c_int(3)),
                emit(c_text("k"), var("m")),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        match &out[0].1 {
            Value::Map(m) => assert_eq!(m["x"], Value::Int(5)),
            other => panic!("expected map, got {other:?}"),
        }
    }

    #[test]
    fn unknown_var_is_an_error() {
        let udf = Udf::mapper("bad", vec![emit(var("nope"), c_int(1))]);
        let mut out = vec![];
        let err = run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap_err();
        assert_eq!(err, InterpError::UnknownVar("nope".to_string()));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let udf = Udf::mapper("div0", vec![emit(c_int(0), div(c_int(1), c_int(0)))]);
        let mut out = vec![];
        let err = run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap_err();
        assert_eq!(err, InterpError::DivisionByZero);
    }

    #[test]
    fn job_params_resolve() {
        let mut params = BTreeMap::new();
        params.insert("window".to_string(), Value::Int(3));
        let udf = Udf::mapper("p", vec![emit(c_text("w"), job_param("window"))]);
        let mut out = vec![];
        run_map(&udf, &params, &Value::Null, &Value::Null, &mut out).unwrap();
        assert_eq!(out[0].1, Value::Int(3));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let udf = Udf::mapper(
            "inf",
            vec![while_loop(c_int(1), vec![assign("x", c_int(0))])],
        );
        let mut out = vec![];
        let err = run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap_err();
        assert_eq!(err, InterpError::StepLimitExceeded);
    }

    #[test]
    fn builtins_roundtrip() {
        let udf = Udf::mapper(
            "b",
            vec![
                assign("p", make_pair(c_text("a"), c_int(7))),
                emit(first(var("p")), second(var("p"))),
                emit(
                    call(Builtin::Substr, vec![c_text("hello"), c_int(1), c_int(3)]),
                    call(Builtin::ParseInt, vec![c_text("42")]),
                ),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        assert_eq!(out[0], (Value::text("a"), Value::Int(7)));
        assert_eq!(out[1], (Value::text("el"), Value::Int(42)));
    }

    #[test]
    fn substr_floors_byte_indices_to_char_boundaries() {
        // "héllo": `é` is bytes 1..3, so index 2 falls inside it.
        let udf = Udf::mapper(
            "s",
            vec![
                emit(
                    call(Builtin::Substr, vec![var("value"), c_int(0), c_int(2)]),
                    call(Builtin::Substr, vec![var("value"), c_int(2), c_int(4)]),
                ),
                emit(
                    call(Builtin::Substr, vec![var("value"), c_int(2), c_int(2)]),
                    call(Builtin::Substr, vec![var("value"), c_int(-3), c_int(99)]),
                ),
            ],
        );
        let mut out = vec![];
        run_map(
            &udf,
            &no_params(),
            &Value::Null,
            &Value::text("héllo"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out[0], (Value::text("h"), Value::text("él")));
        assert_eq!(out[1], (Value::text(""), Value::text("héllo")));
    }

    #[test]
    fn a_range_longer_than_the_step_limit_is_refused_before_allocating() {
        let huge = || call(Builtin::Range, vec![c_int(0), c_int(1 << 40)]);
        let as_value = Udf::mapper("v", vec![assign("r", huge())]);
        let as_loop = Udf::mapper("l", vec![for_each("i", huge(), vec![])]);
        for udf in [as_value, as_loop] {
            let mut out = vec![];
            let err =
                run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap_err();
            assert_eq!(err, InterpError::StepLimitExceeded);
        }
    }

    #[test]
    fn looping_over_a_range_costs_what_building_its_list_costs() {
        let bounds = || call(Builtin::Range, vec![c_int(2), c_int(11)]);
        let direct = Udf::mapper(
            "d",
            vec![for_each("i", bounds(), vec![emit(var("i"), c_int(1))])],
        );
        let via_list = Udf::mapper(
            "l",
            vec![
                assign("r", bounds()),
                for_each("i", var("r"), vec![emit(var("i"), c_int(1))]),
            ],
        );
        let (mut out_d, mut out_l) = (vec![], vec![]);
        let d = run_map(
            &direct,
            &no_params(),
            &Value::Null,
            &Value::Null,
            &mut out_d,
        )
        .unwrap();
        let l = run_map(
            &via_list,
            &no_params(),
            &Value::Null,
            &Value::Null,
            &mut out_l,
        )
        .unwrap();
        assert_eq!(out_d, out_l);
        assert_eq!(out_d.len(), 9);
        // The detour is one more statement and one more variable read.
        assert_eq!(l.ops, d.ops + 2);
    }

    #[test]
    fn a_reused_interpreter_starts_every_invocation_unassigned() {
        let udf = Udf::mapper(
            "m",
            vec![
                if_then(var("key"), vec![assign("seen", c_int(1))]),
                emit(var("key"), var("seen")),
            ],
        );
        let mut interp = Interp::new(&udf, &no_params());
        let mut out = vec![];
        let first = interp.run(Value::Int(1), Value::Null, &mut out).unwrap();
        assert_eq!(out, vec![(Value::Int(1), Value::Int(1))]);
        // `seen` was assigned by the first record only.
        let err = interp
            .run(Value::Int(0), Value::Null, &mut out)
            .unwrap_err();
        assert_eq!(err, InterpError::UnknownVar("seen".to_string()));
        // Steps and stats are per invocation, too.
        let again = interp.run(Value::Int(1), Value::Null, &mut out).unwrap();
        assert_eq!(again, first);
    }

    #[test]
    fn a_push_inside_a_loop_over_the_same_list_does_not_extend_the_loop() {
        let udf = Udf::mapper(
            "p",
            vec![
                assign("l", call(Builtin::Range, vec![c_int(0), c_int(3)])),
                for_each("x", var("l"), vec![Stmt::ListPush("l", var("x"))]),
                emit(len(var("l")), c_int(0)),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        assert_eq!(out[0].0, Value::Int(6));
    }

    #[test]
    fn a_wrong_number_of_arguments_fails_where_the_call_is_evaluated() {
        // Resolving checks the arity; only evaluating the call raises it,
        // after the statements before it ran and before any argument is
        // looked at (`nope` is unbound).
        let udf = Udf::mapper(
            "a",
            vec![
                emit(c_int(1), c_int(1)),
                if_then(
                    var("key"),
                    vec![emit(
                        call(Builtin::Index, vec![var("nope")]),
                        call(Builtin::EmptyList, vec![c_int(0)]),
                    )],
                ),
            ],
        );
        let mut interp = Interp::new(&udf, &no_params());
        let mut out = vec![];
        let untaken = interp.run(Value::Int(0), Value::Null, &mut out).unwrap();
        assert_eq!((out.len(), untaken.records_out), (1, 1));
        let err = interp
            .run(Value::Int(1), Value::Null, &mut out)
            .unwrap_err();
        assert_eq!(
            err,
            InterpError::ArityMismatch {
                builtin: "Index".to_string(),
                expected: 2,
                got: 1,
            }
        );
        assert_eq!(out.len(), 2, "the emit before the bad call went out");
    }

    #[test]
    fn parts_of_a_variable_are_read_in_place_and_stored_by_value() {
        // `index`, `len`, `first` and `second` hand on parts of `l` and
        // `p` without copying them; what an `assign` or `emit` stores is
        // a value of its own, which the later push does not reach.
        let udf = Udf::mapper(
            "r",
            vec![
                assign("l", call(Builtin::Range, vec![c_int(0), c_int(3)])),
                assign("p", make_pair(var("l"), c_int(7))),
                assign("n", add(len(var("l")), index(var("l"), c_int(1)))),
                assign("q", first(var("p"))),
                emit(var("n"), second(var("p"))),
                emit(var("q"), index(var("l"), c_int(9))),
                Stmt::ListPush("l", var("n")),
                emit(var("l"), len(first(var("p")))),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        let ints = |v: &[i64]| Value::list(v.iter().map(|&i| Value::Int(i)).collect());
        assert_eq!(out[0], (Value::Int(4), Value::Int(7)));
        assert_eq!(out[1], (ints(&[0, 1, 2]), Value::Null));
        assert_eq!(out[2], (ints(&[0, 1, 2, 4]), Value::Int(3)));
    }

    #[test]
    fn sorting_a_variable_sorts_a_copy() {
        let udf = Udf::mapper(
            "s",
            vec![
                assign("l", call(Builtin::EmptyList, vec![])),
                Stmt::ListPush("l", c_int(2)),
                Stmt::ListPush("l", c_int(1)),
                emit(call(Builtin::SortList, vec![var("l")]), var("l")),
            ],
        );
        let mut out = vec![];
        run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out).unwrap();
        let ints = |v: &[i64]| Value::list(v.iter().map(|&i| Value::Int(i)).collect());
        assert_eq!(out[0], (ints(&[1, 2]), ints(&[2, 1])));
    }

    /// What a UDF sees of a split text: each row is a mapper body run over
    /// one line, with the pairs it emits (their `Debug` rendering, so an
    /// `Int` is not a `Float` and a list is not its text) and the whole of
    /// its [`ExecStats`], or the error it stops with.
    #[test]
    fn pieces_behave_as_the_list_they_stand_for() {
        type Expected = Result<(&'static str, [u64; 3]), InterpError>;
        let split = |text: Expr, sep: &str| call(Builtin::Split, vec![text, c_text(sep)]);
        let on = |b: Builtin, x: Expr| call(b, vec![x]);
        let to_text = |x: Expr| call(Builtin::ToText, vec![x]);
        let f_of_tokens = || assign("f", tokenize(var("value")));
        let type_error = |expected: &'static str, got: &str| {
            Err(InterpError::TypeError {
                expected,
                got: got.to_string(),
            })
        };
        let table: Vec<(&str, &str, Vec<Stmt>, Expected)> = vec![
            (
                "separators leading, trailing and doubled",
                " a  b ",
                vec![
                    assign("f", split(var("value"), " ")),
                    emit(var("f"), len(var("f"))),
                    emit(index(var("f"), c_int(0)), index(var("f"), c_int(1))),
                    emit(tokenize(var("value")), not_empty(index(var("f"), c_int(2)))),
                ],
                Ok((
                    "[(List([Text(\"\"), Text(\"a\"), Text(\"\"), Text(\"b\"), Text(\"\")]), Int(5)), (Text(\"\"), Text(\"a\")), (List([Text(\"a\"), Text(\"b\")]), Int(0))]",
                    [45, 3, 38],
                )),
            ),
            (
                "no separator found, and the empty separator",
                "nosep",
                vec![
                    assign("f", split(var("value"), ",")),
                    assign("e", split(var("value"), "")),
                    emit(var("f"), var("e")),
                    emit(index(var("e"), c_int(0)), len(var("e"))),
                    emit(split(c_text(""), ","), split(c_text(""), "")),
                ],
                Ok((
                    "[(List([Text(\"nosep\")]), List([Text(\"nosep\")])), (Text(\"nosep\"), Int(1)), (List([Text(\"\")]), List([Text(\"\")]))]",
                    [50, 3, 44],
                )),
            ),
            (
                "a multi-byte separator between multi-byte pieces",
                "é→ü→→ß",
                vec![
                    assign("m", split(var("value"), "→")),
                    emit(var("m"), len(index(var("m"), c_int(0)))),
                    emit(
                        call(
                            Builtin::Substr,
                            vec![index(var("m"), c_int(3)), c_int(1), c_int(2)],
                        ),
                        on(Builtin::Lower, index(var("m"), c_int(1))),
                    ),
                ],
                Ok((
                    "[(List([Text(\"é\"), Text(\"ü\"), Text(\"\"), Text(\"ß\")]), Int(2)), (Text(\"ß\"), Text(\"ü\"))]",
                    [44, 2, 28],
                )),
            ),
            (
                "a split and a tokenize of a piece",
                "k a,b,c 7",
                vec![
                    assign("f", split(var("value"), " ")),
                    assign("c", split(index(var("f"), c_int(1)), ",")),
                    emit(var("c"), index(var("c"), c_int(2))),
                    emit(
                        tokenize(index(var("f"), c_int(1))),
                        split(index(var("c"), c_int(1)), ""),
                    ),
                    emit(
                        on(Builtin::ParseInt, index(var("f"), c_int(2))),
                        on(Builtin::ParseFloat, index(var("f"), c_int(2))),
                    ),
                ],
                Ok((
                    "[(List([Text(\"a\"), Text(\"b\"), Text(\"c\")]), Text(\"c\")), (List([Text(\"a,b,c\")]), List([Text(\"b\")])), (Int(7), Float(OrderedF64(7.0)))]",
                    [73, 3, 44],
                )),
            ),
            (
                "tokenize of whitespace and of nothing",
                "  \t ",
                vec![
                    emit(tokenize(var("value")), tokenize(c_text(""))),
                    emit(
                        len(tokenize(var("value"))),
                        not_empty(tokenize(var("value"))),
                    ),
                    emit(
                        on(Builtin::SumList, tokenize(var("value"))),
                        index(tokenize(var("value")), c_int(0)),
                    ),
                ],
                Ok((
                    "[(List([]), List([])), (Int(0), Int(0)), (Int(0), Null)]",
                    [59, 3, 33],
                )),
            ),
            (
                "index below 0, past the end and by a Float",
                "a b c",
                vec![
                    f_of_tokens(),
                    emit(index(var("f"), c_int(-1)), index(var("f"), c_int(3))),
                    emit(index(var("f"), c_float(1.9)), index(var("f"), c_float(-0.5))),
                    emit(
                        index(var("f"), c_int(i64::MIN)),
                        index(var("f"), c_int(i64::MAX)),
                    ),
                ],
                Ok((
                    "[(Null, Null), (Text(\"b\"), Text(\"a\")), (Null, Null)]",
                    [46, 3, 8],
                )),
            ),
            (
                "the list of pieces as key and as value",
                "ab c",
                vec![f_of_tokens(), emit(var("f"), var("f"))],
                Ok((
                    "[(List([Text(\"ab\"), Text(\"c\")]), List([Text(\"ab\"), Text(\"c\")]))]",
                    [12, 1, 18],
                )),
            ),
            (
                "a piece as MapAdd key and pushed to a list",
                "a b",
                vec![
                    f_of_tokens(),
                    assign("acc", call(Builtin::EmptyMap, vec![])),
                    assign("l", call(Builtin::EmptyList, vec![])),
                    Stmt::MapAdd("acc", index(var("f"), c_int(0)), c_int(1)),
                    Stmt::MapAdd("acc", index(var("f"), c_int(0)), c_float(0.5)),
                    Stmt::MapAdd("acc", index(var("f"), c_int(2)), c_int(1)),
                    Stmt::MapAdd("acc", var("f"), c_int(1)),
                    Stmt::ListPush("l", index(var("f"), c_int(1))),
                    Stmt::ListPush("l", var("f")),
                    emit(var("l"), var("acc")),
                ],
                Ok((
                    "[(List([Text(\"b\"), List([Text(\"a\"), Text(\"b\")])]), Map({\"[a, b]\": Int(1), \"a\": Float(OrderedF64(1.5)), \"null\": Int(1)}))]",
                    [50, 1, 56],
                )),
            ),
            (
                "a loop over pieces is a snapshot",
                "a b c",
                vec![
                    f_of_tokens(),
                    for_each(
                        "p",
                        var("f"),
                        vec![
                            assign("n", len(var("f"))),
                            Stmt::ListPush("f", var("p")),
                            if_then(
                                eq(var("p"), c_text("b")),
                                vec![assign("f", split(var("value"), "b"))],
                            ),
                            emit(var("p"), var("n")),
                        ],
                    ),
                    emit(var("f"), len(var("f"))),
                ],
                Ok((
                    "[(Text(\"a\"), Int(3)), (Text(\"b\"), Int(4)), (Text(\"c\"), Int(2)), (List([Text(\"a \"), Text(\" c\"), Text(\"c\")]), Int(3))]",
                    [76, 4, 50],
                )),
            ),
            (
                "a copy is a copy",
                "a b",
                vec![
                    f_of_tokens(),
                    assign("g", var("f")),
                    Stmt::ListPush("g", c_text("z")),
                    emit(var("f"), var("g")),
                    emit(
                        eq(var("f"), var("g")),
                        eq(var("f"), split(var("value"), " ")),
                    ),
                    emit(
                        lt(var("f"), var("g")),
                        eq(index(var("f"), c_int(0)), c_text("a")),
                    ),
                ],
                Ok((
                    "[(List([Text(\"a\"), Text(\"b\")]), List([Text(\"a\"), Text(\"b\"), Text(\"z\")])), (Int(0), Int(1)), (Int(1), Int(1))]",
                    [44, 3, 50],
                )),
            ),
            (
                "sort, hash and to_text of the whole list",
                "b a b",
                vec![
                    f_of_tokens(),
                    emit(on(Builtin::SortList, var("f")), var("f")),
                    emit(
                        on(Builtin::Hash, var("f")),
                        on(Builtin::Hash, index(var("f"), c_int(1))),
                    ),
                    emit(to_text(var("f")), to_text(index(var("f"), c_int(0)))),
                    emit(
                        concat(var("f"), index(var("f"), c_int(1))),
                        add(index(var("f"), c_int(0)), index(var("f"), c_int(1))),
                    ),
                ],
                Ok((
                    "[(List([Text(\"a\"), Text(\"b\"), Text(\"b\")]), List([Text(\"b\"), Text(\"a\"), Text(\"b\")])), (Int(8041881893901685), Int(6319093600277820998)), (Text(\"[b, a, b]\"), Text(\"b\")), (Text(\"[b, a, b]a\"), Text(\"ba\"))]",
                    [89, 4, 62],
                )),
            ),
            (
                "texts read where they lie",
                "Ab 12 3.5 ",
                vec![
                    assign("f", split(var("value"), " ")),
                    emit(
                        on(Builtin::ParseInt, index(var("f"), c_int(1))),
                        on(Builtin::ParseFloat, index(var("f"), c_int(2))),
                    ),
                    emit(
                        call(
                            Builtin::Contains,
                            vec![index(var("f"), c_int(0)), index(var("f"), c_int(3))],
                        ),
                        call(
                            Builtin::Contains,
                            vec![index(var("f"), c_int(3)), index(var("f"), c_int(0))],
                        ),
                    ),
                    emit(
                        on(Builtin::Lower, index(var("f"), c_int(0))),
                        call(
                            Builtin::Substr,
                            vec![index(var("f"), c_int(2)), c_int(1), c_int(9)],
                        ),
                    ),
                    emit(
                        len(index(var("f"), c_int(2))),
                        not_empty(index(var("f"), c_int(3))),
                    ),
                    emit(
                        bin(
                            BinOp::And,
                            index(var("f"), c_int(0)),
                            index(var("f"), c_int(3)),
                        ),
                        bin(BinOp::Or, index(var("f"), c_int(3)), var("f")),
                    ),
                    emit(
                        call(
                            Builtin::MapGet,
                            vec![call(Builtin::EmptyMap, vec![]), index(var("f"), c_int(0))],
                        ),
                        call(
                            Builtin::MakePair,
                            vec![index(var("f"), c_int(0)), var("f")],
                        ),
                    ),
                ],
                Ok((
                    "[(Int(12), Float(OrderedF64(3.5))), (Int(1), Int(0)), (Text(\"ab\"), Text(\".5\")), (Int(3), Int(0)), (Int(0), Int(1)), (Null, Pair((Text(\"Ab\"), List([Text(\"Ab\"), Text(\"12\"), Text(\"3.5\"), Text(\"\")]))))]",
                    [143, 6, 89],
                )),
            ),
            (
                "parse_float of a list is 0.0, not an error",
                "1 2",
                vec![
                    f_of_tokens(),
                    emit(
                        on(Builtin::ParseFloat, var("f")),
                        on(Builtin::ParseInt, var("f")),
                    ),
                ],
                Ok((
                    "[(Float(OrderedF64(0.0)), Int(0))]",
                    [18, 1, 16],
                )),
            ),
            (
                "first of a list",
                "a b",
                vec![f_of_tokens(), emit(first(var("f")), c_int(0))],
                type_error("pair", "List"),
            ),
            (
                "sum of a list of texts",
                "1 2",
                vec![f_of_tokens(), emit(on(Builtin::SumList, var("f")), c_int(0))],
                type_error("number", "Text"),
            ),
            (
                "index of a piece",
                "a b",
                vec![
                    f_of_tokens(),
                    emit(index(index(var("f"), c_int(0)), c_int(0)), c_int(0)),
                ],
                type_error("list", "Text"),
            ),
            (
                "index by a piece",
                "1 2",
                vec![
                    f_of_tokens(),
                    emit(index(var("f"), index(var("f"), c_int(0))), c_int(0)),
                ],
                type_error("int", "Text"),
            ),
            (
                "split of a list",
                "a b",
                vec![f_of_tokens(), emit(split(var("f"), " "), c_int(0))],
                type_error("text", "List"),
            ),
            (
                "split by a list",
                "a b",
                vec![
                    f_of_tokens(),
                    emit(
                        call(Builtin::Split, vec![index(var("f"), c_int(0)), var("f")]),
                        c_int(0),
                    ),
                ],
                type_error("text", "List"),
            ),
            (
                "map_get of a list",
                "a b",
                vec![
                    f_of_tokens(),
                    emit(
                        call(Builtin::MapGet, vec![var("f"), index(var("f"), c_int(0))]),
                        c_int(0),
                    ),
                ],
                type_error("map", "List"),
            ),
            (
                "MapAdd into a list of pieces",
                "a b",
                vec![f_of_tokens(), Stmt::MapAdd("f", c_text("a"), c_int(1))],
                type_error("map", "List"),
            ),
            (
                "a loop over a piece",
                "a b",
                vec![
                    f_of_tokens(),
                    for_each("p", index(var("f"), c_int(0)), vec![]),
                ],
                type_error("list", "Text"),
            ),
            (
                "a range bounded by a list",
                "a b",
                vec![
                    f_of_tokens(),
                    for_each(
                        "i",
                        call(Builtin::Range, vec![c_int(0), var("f")]),
                        vec![],
                    ),
                ],
                type_error("int", "List"),
            ),
            (
                "substr of a list",
                "a b",
                vec![
                    f_of_tokens(),
                    emit(
                        call(Builtin::Substr, vec![var("f"), c_int(0), c_int(1)]),
                        c_int(0),
                    ),
                ],
                type_error("text", "List"),
            ),
            (
                "len of what index found past the end",
                "a b",
                vec![f_of_tokens(), emit(len(index(var("f"), c_int(2))), c_int(0))],
                type_error("text/list/map", "Null"),
            ),
            (
                "min of a piece and a number",
                "1 2",
                vec![
                    f_of_tokens(),
                    emit(
                        call(Builtin::Min, vec![index(var("f"), c_int(0)), c_int(1)]),
                        c_int(0),
                    ),
                ],
                type_error("number", "Text"),
            ),
            (
                "a list plus a number",
                "1 2",
                vec![f_of_tokens(), emit(add(var("f"), c_int(1)), c_int(0))],
                type_error("number", "List Add Int"),
            ),
            (
                "a piece times a piece",
                "1 2",
                vec![
                    f_of_tokens(),
                    emit(
                        mul(index(var("f"), c_int(0)), index(var("f"), c_int(1))),
                        c_int(0),
                    ),
                ],
                type_error("number", "Text Mul Text"),
            ),
            (
                "the step limit inside a loop over pieces",
                "a b",
                vec![
                    f_of_tokens(),
                    for_each(
                        "p",
                        var("f"),
                        vec![while_loop(var("p"), vec![assign("x", var("p"))])],
                    ),
                ],
                Err(InterpError::StepLimitExceeded),
            ),
        ];
        let mut wrong = Vec::new();
        for (name, line, body, expected) in table {
            let mut out = vec![];
            let got = run_map(
                &Udf::mapper(name, body),
                &no_params(),
                &Value::Null,
                &Value::text(line),
                &mut out,
            )
            .map(|s| (format!("{out:?}"), [s.ops, s.records_out, s.bytes_out]));
            let got = got
                .as_ref()
                .map(|(pairs, stats)| (pairs.as_str(), *stats))
                .map_err(Clone::clone);
            if got != expected {
                wrong.push(format!("{name}: {got:?}"));
            }
        }
        assert!(wrong.is_empty(), "rows that moved:\n{}", wrong.join("\n"));

        // A reducer that rebinds its second input to a split hands the
        // list of its pieces back.
        let rebinding = Udf::reducer(
            "r",
            vec![
                assign("values", split(var("key"), ",")),
                emit(var("key"), len(var("values"))),
            ],
        );
        let mut interp = Interp::new(&rebinding, &no_params());
        let mut out = vec![];
        interp
            .run(Value::text("a,b"), Value::list(vec![]), &mut out)
            .unwrap();
        assert_eq!(out, vec![(Value::text("a,b"), Value::Int(2))]);
        assert_eq!(
            interp.take_second(),
            Some(Value::list(vec![Value::text("a"), Value::text("b")]))
        );
        assert_eq!(interp.take_second(), None);
    }

    #[test]
    fn min_and_max_name_the_operand_that_is_not_a_number() {
        let run = |b: Builtin, x: Expr, y: Expr| {
            let udf = Udf::mapper("m", vec![emit(call(b, vec![x, y]), c_int(0))]);
            let mut out = vec![];
            run_map(&udf, &no_params(), &Value::Null, &Value::Null, &mut out)
                .map(|_| out.remove(0).0)
        };
        let not_a_number = |got: &str| {
            Err(InterpError::TypeError {
                expected: "number",
                got: got.to_string(),
            })
        };
        assert_eq!(
            run(Builtin::Max, c_int(1), c_text("x")),
            not_a_number("Text")
        );
        assert_eq!(
            run(Builtin::Min, c_float(1.5), var("key")),
            not_a_number("Null")
        );
        // Both wrong: the first, as operands are read in order.
        assert_eq!(
            run(Builtin::Max, c_text("x"), var("key")),
            not_a_number("Text")
        );
        assert_eq!(run(Builtin::Max, c_int(1), c_int(2)), Ok(Value::Int(2)));
        assert_eq!(
            run(Builtin::Min, c_int(1), c_float(2.0)),
            Ok(Value::float(1.0))
        );
    }

    #[test]
    fn an_operand_and_a_variable_are_as_wide_as_a_value() {
        // Every expression node hands an operand back and every
        // invocation clears the variables: neither may outgrow the value
        // it stands for (`value::tests::a_value_is_three_words`).
        assert_eq!(std::mem::size_of::<Operand>(), 24);
        assert_eq!(std::mem::size_of::<Eval<Operand>>(), 24);
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 24);
    }

    #[test]
    fn value_hash_is_deterministic_and_spreads() {
        let h1 = value_hash(&Value::text("alpha"));
        let h2 = value_hash(&Value::text("alpha"));
        let h3 = value_hash(&Value::text("beta"));
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
    }
}
