//! The workspace's one JSON codec, the record codec every wire message
//! is declared with, and the JSONL schema of [`TelemetryEvent`].
//!
//! The crate is deliberately dependency-free, so instead of a
//! serialization framework this module hand-rolls what the workspace
//! needs:
//!
//! * [`Value`] and [`parse`]: a never-panicking parser that keeps
//!   non-negative integer literals exact ([`Value::Int`]) and sorts
//!   object keys;
//! * [`push_str_lit`]: the one string escaper, shared by every
//!   canonical encoder (wire protocol, replay traces, telemetry);
//! * [`Value::to_pretty`] / [`Value::to_compact`]: writers, the pretty
//!   one in `serde_json::to_string_pretty`'s layout, so the committed
//!   `results/*.json` documents keep their bytes;
//! * [`Record`], [`Wire`] and [`schema!`](crate::schema): the record
//!   codec. A message type declares its fields once, in wire order,
//!   each with a kind, and that one list drives both [`encode`] and
//!   [`decode`];
//! * [`to_json`] / [`from_json`] / [`parse_jsonl`]: the event schema,
//!   where [`from_json`] inverts [`to_json`] exactly (property:
//!   `from_json(to_json(e)) == e`).
//!
//! # The record codec
//!
//! Each field has one of three kinds:
//!
//! * `req` — required: always written; decoding fails if it is absent;
//! * `def` / `def(x)` — defaulted: always written; absent decodes to
//!   `x` (or to the type's `Default`);
//! * `omit` — omitted when empty: `None`, `false`, `""` and `[]` are not
//!   written; absent decodes to that empty value.
//!
//! A fourth entry, `flat`, splices a nested record's fields into the
//! enclosing object. Decoding follows one rule: an absent field takes
//! its declared default (or is an error if required); a present field
//! of the wrong type, or out of range, is an error that names the
//! field; an unknown key is ignored.

use crate::{SchedulerMode, TelemetryEvent};
use std::fmt::Write as _;

/// A value that can be one field of a [`Record`].
pub trait Wire: Sized {
    /// Append the value's canonical JSON.
    fn write(&self, out: &mut String);
    /// Read the value back; the error says what was expected.
    fn read(v: &Value) -> Result<Self, String>;
    /// Whether an `omit` field holding this value is left off the wire.
    fn is_empty(&self) -> bool {
        false
    }
}

/// A JSON object whose fields are declared once, with [`schema!`](crate::schema).
pub trait Record: Sized {
    /// Write every field as `"key":value`, in wire order.
    fn write_fields(&self, w: &mut Writer<'_>);
    /// Read every declared field out of the object `obj`.
    fn read_fields(obj: &Value) -> Result<Self, String>;
}

/// Where a [`Record`] writes its fields: one object's body.
pub struct Writer<'a> {
    out: &'a mut String,
    first: bool,
}

impl Writer<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        // Keys are Rust identifiers: nothing to escape.
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// Write a `req` or `def` field.
    pub fn field<T: Wire>(&mut self, key: &str, x: &T) {
        self.key(key);
        x.write(self.out);
    }

    /// Write an `omit` field unless it is empty.
    pub fn omit<T: Wire>(&mut self, key: &str, x: &T) {
        if !x.is_empty() {
            self.field(key, x);
        }
    }

    /// Write an enum's tag field.
    pub fn tag(&mut self, key: &str, name: &str) {
        self.key(key);
        push_str_lit(self.out, name);
    }
}

/// Append `r` as one compact JSON object.
pub fn write_record<R: Record>(r: &R, out: &mut String) {
    out.push('{');
    r.write_fields(&mut Writer { out, first: true });
    out.push('}');
}

/// Read a [`Record`] from a parsed object.
pub fn read_record<R: Record>(v: &Value) -> Result<R, String> {
    match v {
        Value::Obj(_) => R::read_fields(v),
        _ => Err("expected an object".to_string()),
    }
}

/// Encode a record as one line of canonical JSON.
pub fn encode<R: Record>(r: &R) -> String {
    let mut out = String::with_capacity(96);
    write_record(r, &mut out);
    out
}

/// Decode one line into a record.
pub fn decode<R: Record>(line: &str) -> Result<R, String> {
    read_record(&parse(line).map_err(|e| e.to_string())?)
}

/// Read a `req` field.
pub fn read_req<T: Wire>(obj: &Value, key: &str) -> Result<T, String> {
    read_or(obj, key, || Err(format!("missing field '{key}'")))
}

/// Read a `def` or `omit` field: absent takes `default()`.
pub fn read_or<T: Wire>(
    obj: &Value,
    key: &str,
    default: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    match obj.get(key) {
        None => default(),
        Some(v) => T::read(v).map_err(|e| format!("field '{key}': {e}")),
    }
}

/// Read an enum's tag field.
pub fn read_tag<'a>(obj: &'a Value, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .as_str()
        .ok_or_else(|| format!("field '{key}': expected a string"))
}

/// Read a string that must be one of a fixed set of labels.
pub fn read_label<T>(v: &Value, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
    let s = v.as_str().ok_or("expected a string")?;
    parse(s).ok_or_else(|| format!("unknown value '{s}'"))
}

/// Declare the wire schema of a struct, or of an enum tagged by one
/// key, by listing each field once, in wire order, with its kind (see
/// the [module docs](crate::json#the-record-codec)). Implements
/// [`Record`] (and, for a struct, [`Wire`], so it can nest):
///
/// ```
/// # use ktelemetry::{json, schema};
/// #[derive(Debug, PartialEq)]
/// struct Hello { version: u64, peer: String, nonce: Option<u64> }
/// schema!(Hello { version: def(1), peer: req, nonce: omit });
///
/// #[derive(Debug, PartialEq)]
/// enum Msg { Ping {}, Hi(Hello) }
/// schema!(Msg by "msg" { Ping "ping" {}, Hi "hi" (flat) });
///
/// let hi = Msg::Hi(Hello { version: 2, peer: "a".into(), nonce: None });
/// assert_eq!(json::encode(&hi), r#"{"msg":"hi","version":2,"peer":"a"}"#);
/// let old: Msg = json::decode(r#"{"msg":"hi","peer":"a","extra":0}"#).unwrap();
/// assert_eq!(old, Msg::Hi(Hello { version: 1, peer: "a".into(), nonce: None }));
/// let err = json::decode::<Msg>(r#"{"msg":"hi","peer":7}"#).unwrap_err();
/// assert_eq!(err, "field 'peer': expected a string");
/// ```
#[macro_export]
macro_rules! schema {
    // How each kind writes and reads one field.
    (@write $w:ident, $key:expr, $x:expr, req) => { $w.field($key, $x) };
    (@write $w:ident, $key:expr, $x:expr, def) => { $w.field($key, $x) };
    (@write $w:ident, $key:expr, $x:expr, omit) => { $w.omit($key, $x) };
    (@write $w:ident, $key:expr, $x:expr, flat) => { $crate::json::Record::write_fields($x, $w) };
    (@read $obj:ident, $key:expr, req) => { $crate::json::read_req($obj, $key) };
    (@read $obj:ident, $key:expr, def) => { $crate::json::read_or($obj, $key, || Ok(Default::default())) };
    (@read $obj:ident, $key:expr, def($d:expr)) => { $crate::json::read_or($obj, $key, || Ok($d)) };
    (@read $obj:ident, $key:expr, omit) => { $crate::json::read_or($obj, $key, || Ok(Default::default())) };
    (@read $obj:ident, $key:expr, flat) => { $crate::json::Record::read_fields($obj) };
    // An enum variant's fields, as a pattern, as the encode body of
    // its match arm, and as the decoded constructor. A tuple variant
    // holds one record whose fields it splices in: `(flat)`.
    (@pat $v:ident $x:ident { $($f:ident: $kind:ident $(($d:expr))?),* $(,)? }) => { Self::$v { $($f),* } };
    (@pat $v:ident $x:ident (flat)) => { Self::$v($x) };
    (@body $w:ident $x:ident { $($f:ident: $kind:ident $(($d:expr))?),* $(,)? }) => {
        $( $crate::schema!(@write $w, stringify!($f), $f, $kind); )*
    };
    (@body $w:ident $x:ident (flat)) => { $crate::json::Record::write_fields($x, $w) };
    (@build $obj:ident $v:ident { $($f:ident: $kind:ident $(($d:expr))?),* $(,)? }) => {
        Self::$v { $( $f: $crate::schema!(@read $obj, stringify!($f), $kind $(($d))?)?, )* }
    };
    (@build $obj:ident $v:ident (flat)) => { Self::$v($crate::json::Record::read_fields($obj)?) };
    ($ty:ident { $($f:ident: $kind:ident $(($d:expr))?),* $(,)? }) => {
        impl $crate::json::Record for $ty {
            fn write_fields(&self, w: &mut $crate::json::Writer<'_>) {
                $( $crate::schema!(@write w, stringify!($f), &self.$f, $kind); )*
            }
            fn read_fields(obj: &$crate::json::Value) -> Result<Self, String> {
                Ok(Self { $( $f: $crate::schema!(@read obj, stringify!($f), $kind $(($d))?)?, )* })
            }
        }
        impl $crate::json::Wire for $ty {
            fn write(&self, out: &mut String) {
                $crate::json::write_record(self, out)
            }
            fn read(v: &$crate::json::Value) -> Result<Self, String> {
                $crate::json::read_record(v)
            }
        }
    };
    ($ty:ident by $tag:literal { $($v:ident $name:literal $body:tt),* $(,)? }) => {
        impl $crate::json::Record for $ty {
            fn write_fields(&self, w: &mut $crate::json::Writer<'_>) {
                match self {
                    $( $crate::schema!(@pat $v x $body) => {
                        w.tag($tag, $name);
                        $crate::schema!(@body w x $body);
                    } )*
                }
            }
            fn read_fields(obj: &$crate::json::Value) -> Result<Self, String> {
                match $crate::json::read_tag(obj, $tag)? {
                    $( $name => Ok($crate::schema!(@build obj $v $body)), )*
                    other => Err(format!("unknown {} '{}'", $tag, other)),
                }
            }
        }
    };
}

impl Wire for u64 {
    fn write(&self, out: &mut String) {
        push_u64(out, *self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected an unsigned integer".to_string())
    }
}

macro_rules! narrow_wire {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                push_u64(out, *self as u64);
            }
            fn read(v: &Value) -> Result<Self, String> {
                let n = u64::read(v)?;
                <$ty>::try_from(n).map_err(|_| format!("{n} overflows {}", stringify!($ty)))
            }
        }
    )*};
}

narrow_wire!(u16, u32, usize);

impl Wire for f64 {
    /// Rust's shortest round-trip `Display` form (`1` for `1.0`), the
    /// wire protocol's float format since v1.
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_f64().ok_or_else(|| "expected a number".to_string())
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a bool".to_string())
    }
    fn is_empty(&self) -> bool {
        !*self
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        push_str_lit(out, self);
    }
    fn read(v: &Value) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write(out);
        }
        out.push(']');
    }
    fn read(v: &Value) -> Result<Self, String> {
        let items = v.as_arr().ok_or("expected an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, x)| T::read(x).map_err(|e| format!("element {i}: {e}")))
            .collect()
    }
    fn is_empty(&self) -> bool {
        self.is_empty()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(x) => x.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &Value) -> Result<Self, String> {
        match v {
            Value::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
    fn is_empty(&self) -> bool {
        self.is_none()
    }
}

impl Wire for SchedulerMode {
    fn write(&self, out: &mut String) {
        push_str_lit(out, self.label());
    }
    fn read(v: &Value) -> Result<Self, String> {
        read_label(v, SchedulerMode::from_label)
    }
}

crate::schema!(TelemetryEvent by "event" {
    RunStart "run_start" { scheduler: req, jobs: req, categories: req },
    JobReleased "job_released" { t: req, job: req },
    StepStart "step_start" { t: req, active_jobs: req },
    StepEnd "step_end" { t: req, allotted: req, executed: req },
    JobCompleted "job_completed" { t: req, job: req, response: req },
    JobFirstAllot "job_first_allot" { t: req, job: req },
    JobExecSegment "job_exec_segment" { job: req, from: req, to: req, tasks: req },
    SloAlert "slo_alert" { t: req, mean_response_milli: req, threshold_milli: req },
    IdleSkip "idle_skip" { from: req, to: req },
    Decision "decision" {
        t: req, category: req, mode: req, jobs: req,
        desire: req, allotted: req, satisfied: req, deprived: req,
    },
    ModeTransition "mode_transition" { t: req, category: req, from: req, to: req, active_jobs: req },
    RrCycleComplete "rr_cycle_complete" { t: req, category: req, served: req },
    RunEnd "run_end" { makespan: req, busy_steps: req, idle_steps: req },
});

/// Encode one event as a single-line JSON object with an `"event"`
/// discriminator field.
pub fn to_json(event: &TelemetryEvent) -> String {
    encode(event)
}

/// Decode one JSONL line back into an event.
pub fn from_json(line: &str) -> Result<TelemetryEvent, String> {
    decode(line)
}

/// Parse a whole JSONL document (blank lines skipped), with the line
/// number attached to any error.
pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetryEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        out.push(from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// A parsed (or to-be-written) JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal, kept exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's fields in order: a struct's declaration order when
    /// built with [`Value::obj`], sorted by key when parsed or built
    /// with [`Value::map`].
    Obj(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// An object whose fields keep the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object with its keys sorted; a repeated key keeps its last
    /// value.
    pub fn map<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        let mut fields: Vec<(String, Value)> =
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, so among equal keys the last one stays last; the
        // survivor of each run of equal keys takes that last value.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Value::Obj(fields)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an unsigned integer: an integer literal, or an
    /// integral non-negative number up to 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact encoding: no whitespace, fields in stored order.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.push_compact(&mut out);
        out
    }

    /// Append [`Value::to_compact`]'s bytes to `out`.
    pub fn push_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// Pretty encoding in `serde_json::to_string_pretty`'s layout:
    /// two-space indent, `"key": value`, `[]`/`{}` when empty.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let newline = |out: &mut String, depth: usize| {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => push_u64(out, *n),
            Value::Num(x) => push_f64(out, *x),
            Value::Str(s) => push_str_lit(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = indent {
                        newline(out, d + 1);
                    }
                    item.write(out, indent.map(|d| d + 1));
                }
                if let Some(d) = indent {
                    newline(out, d);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(d) = indent {
                        newline(out, d + 1);
                    }
                    push_str_lit(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent.map(|d| d + 1));
                }
                if let Some(d) = indent {
                    newline(out, d);
                }
                out.push('}');
            }
        }
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// The field under `key`, or `null` when absent.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    /// The array element at `i`, or `null` when absent.
    fn index(&self, i: usize) -> &Value {
        self.as_arr().and_then(|a| a.get(i)).unwrap_or(&NULL)
    }
}

macro_rules! from_scalar {
    ($($ty:ty => $variant:ident as $inner:ty),*) => {$(
        impl From<$ty> for Value {
            fn from(x: $ty) -> Value {
                Value::$variant(x as $inner)
            }
        }
    )*};
}

from_scalar!(u16 => Int as u64, u32 => Int as u64, u64 => Int as u64, usize => Int as u64, f64 => Num as f64);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Clone + Into<Value>> From<&[T]> for Value {
    fn from(items: &[T]) -> Value {
        Value::Arr(items.iter().cloned().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(x: Option<T>) -> Value {
        x.map_or(Value::Null, Into::into)
    }
}

/// Append a JSON string literal (quoted, with escaping) to `out`.
pub fn push_str_lit(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a `u64` array (the canonical completions/ids encoding).
pub fn push_u64_arr(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64(out, *x);
    }
    out.push(']');
}

/// Append a `u64` in decimal without an intermediate allocation.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("ASCII digits"));
}

/// Append a float the way `serde_json` (ryu) prints it: the shortest
/// round-trip digits, plain notation for decimal exponents in
/// `-5..=16` (always with a fraction, `1.0`), scientific otherwise
/// (`1e20`, `1.5e-7`); `null` for non-finite values.
fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    // `{:e}` gives the shortest round-trip digits as `d.ddde±x`.
    let sci = format!("{:e}", x.abs());
    let (mantissa, exp) = sci.split_once('e').expect("LowerExp has an exponent");
    let digits: String = mantissa.chars().filter(|&c| c != '.').collect();
    let len = digits.len() as i32;
    // x = 0.digits × 10^point
    let point = exp.parse::<i32>().expect("LowerExp exponent") + 1;
    if x.is_sign_negative() {
        out.push('-');
    }
    if point >= len && point <= 16 {
        out.push_str(&digits);
        out.push_str(&"0".repeat((point - len) as usize));
        out.push_str(".0");
    } else if point > 0 && point <= 16 {
        out.push_str(&digits[..point as usize]);
        out.push('.');
        out.push_str(&digits[point as usize..]);
    } else if point > -5 && point <= 0 {
        out.push_str("0.");
        out.push_str(&"0".repeat(-point as usize));
        out.push_str(&digits);
    } else {
        out.push_str(&digits[..1]);
        if len > 1 {
            out.push('.');
            out.push_str(&digits[1..]);
        }
        out.push('e');
        out.push_str(&(point - 1).to_string());
    }
}

fn missing(key: &str) -> String {
    format!("missing or bad field '{key}'")
}

/// Read a required `u64` field from an object.
pub fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    v[key].as_u64().ok_or_else(|| missing(key))
}

/// Read a required string field from an object.
pub fn need_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v[key].as_str().ok_or_else(|| missing(key))
}

/// Read a required array field from an object.
pub fn need_arr<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v[key].as_arr().ok_or_else(|| missing(key))
}

/// Why a document failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts; deeper input is an
/// error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse one JSON document; trailing non-whitespace is an error. Never
/// panics: any input either parses or returns a [`ParseError`].
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nesting too deep"));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad keyword"))
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }

    /// One pass over the string: unescaped runs are copied as slices
    /// of the input, which is already valid UTF-8.
    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = hex.iter().fold(0, |acc, &h| {
                                acc * 16 + (h as char).to_digit(16).expect("hex digit")
                            });
                            self.pos += 4;
                            // Surrogate pairs are never written by this
                            // module; a lone surrogate becomes U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::map(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::RunStart {
                scheduler: "k-rad(K=2) \"quoted\" \\ tab\tü".into(),
                jobs: 12,
                categories: 2,
            },
            TelemetryEvent::JobReleased { t: 1, job: 3 },
            TelemetryEvent::StepStart {
                t: 4,
                active_jobs: 7,
            },
            TelemetryEvent::StepEnd {
                t: 4,
                allotted: vec![4, 0, 2],
                executed: vec![3, 0, 2],
            },
            TelemetryEvent::JobCompleted {
                t: 9,
                job: 3,
                response: 8,
            },
            TelemetryEvent::JobFirstAllot { t: 2, job: 3 },
            TelemetryEvent::JobExecSegment {
                job: 3,
                from: 2,
                to: 9,
                tasks: 14,
            },
            TelemetryEvent::SloAlert {
                t: 40,
                mean_response_milli: 9500,
                threshold_milli: 9000,
            },
            TelemetryEvent::IdleSkip { from: 9, to: 100 },
            TelemetryEvent::Decision {
                t: 4,
                category: 1,
                mode: SchedulerMode::Deq,
                jobs: 3,
                desire: 16,
                allotted: 8,
                satisfied: 1,
                deprived: 2,
            },
            TelemetryEvent::ModeTransition {
                t: 5,
                category: 0,
                from: SchedulerMode::Deq,
                to: SchedulerMode::RoundRobin,
                active_jobs: 9,
            },
            TelemetryEvent::RrCycleComplete {
                t: 8,
                category: 0,
                served: 6,
            },
            TelemetryEvent::RunEnd {
                makespan: 100,
                busy_steps: 10,
                idle_steps: 90,
            },
        ]
    }

    #[test]
    fn every_event_round_trips() {
        for e in all_events() {
            let line = to_json(&e);
            assert!(!line.contains('\n'), "single line: {line}");
            let back = from_json(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back, e, "round trip failed for {line}");
        }
    }

    #[test]
    fn jsonl_document_round_trips_with_blank_lines() {
        let events = all_events();
        let mut doc = String::new();
        for e in &events {
            doc.push_str(&to_json(e));
            doc.push('\n');
            doc.push('\n'); // blank lines are skipped
        }
        assert_eq!(parse_jsonl(&doc).unwrap(), events);
    }

    #[test]
    fn step_end_sample_is_plain_json() {
        let line = to_json(&TelemetryEvent::StepEnd {
            t: 3,
            allotted: vec![4, 2],
            executed: vec![3, 2],
        });
        assert_eq!(
            line,
            r#"{"event":"step_end","t":3,"allotted":[4,2],"executed":[3,2]}"#
        );
    }

    #[test]
    fn errors_are_reported_with_context() {
        assert!(from_json("{}").unwrap_err().contains("event"));
        assert!(from_json(r#"{"event":"nope"}"#)
            .unwrap_err()
            .contains("nope"));
        assert!(from_json(r#"{"event":"idle_skip","from":1}"#)
            .unwrap_err()
            .contains("to"));
        assert!(from_json("not json").is_err());
        assert!(parse_jsonl("{\"event\":\"x\"}\n")
            .unwrap_err()
            .contains("line 1"));
        let trailing = r#"{"event":"idle_skip","from":1,"to":2} extra"#;
        assert!(from_json(trailing).unwrap_err().contains("trailing"));
    }

    #[test]
    fn wrong_types_and_ranges_name_the_field() {
        for (line, field) in [
            (r#"{"event":"idle_skip","from":"1","to":2}"#, "from"),
            (
                r#"{"event":"run_start","scheduler":"x","jobs":1,"categories":70000}"#,
                "categories",
            ),
            (r#"{"event":"job_released","t":1,"job":4294967296}"#, "job"),
            (
                r#"{"event":"step_end","t":1,"allotted":[1,-1],"executed":[]}"#,
                "allotted",
            ),
            (
                r#"{"event":"rr_cycle_complete","t":1,"category":0,"served":null}"#,
                "served",
            ),
        ] {
            let err = from_json(line).unwrap_err();
            assert!(err.contains(&format!("field '{field}'")), "{line}: {err}");
        }
        // Unknown keys are ignored.
        assert_eq!(
            from_json(r#"{"event":"idle_skip","from":1,"to":2,"new_in_v9":[]}"#).unwrap(),
            TelemetryEvent::IdleSkip { from: 1, to: 2 }
        );
    }

    #[test]
    fn whitespace_tolerant() {
        let line = r#" { "event" : "idle_skip" , "from" : 1 , "to" : 2 } "#;
        assert_eq!(
            from_json(line).unwrap(),
            TelemetryEvent::IdleSkip { from: 1, to: 2 }
        );
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"cmd":"submit","jobs":[{"k":2,"categories":[0,1],"edges":[[0,1]]}],"watch":true,"x":null,"y":-1.5}"#).unwrap();
        assert_eq!(v["cmd"].as_str(), Some("submit"));
        assert_eq!(v["watch"].as_bool(), Some(true));
        assert_eq!(v["y"].as_f64(), Some(-1.5));
        assert_eq!(v["x"], Value::Null);
        assert_eq!(v["absent"], Value::Null);
        let jobs = need_arr(&v, "jobs").unwrap();
        assert_eq!(need_u64(&jobs[0], "k").unwrap(), 2);
        assert_eq!(jobs[0]["edges"][0][1].as_u64(), Some(1));
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let mut out = String::new();
        push_str_lit(&mut out, "a\"b\\c\nd\u{1}é");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001é\"");
        assert_eq!(parse(&out).unwrap().as_str(), Some("a\"b\\c\nd\u{1}é"));
        let escapes = parse(r#""\/\b\f\u00e9\ud800""#).unwrap();
        assert_eq!(escapes.as_str(), Some("/\u{8}\u{c}é\u{FFFD}"));
    }

    #[test]
    fn megabyte_multibyte_string_round_trips_in_one_pass() {
        // ~1.2 MB of 2-, 3- and 4-byte scalars with escapes between them.
        let text: String = "ü€😀\"\\\n".repeat(90_000);
        assert!(text.len() > 1_000_000);
        let mut line = String::from("{\"s\":");
        push_str_lit(&mut line, &text);
        line.push('}');
        let started = std::time::Instant::now();
        let back = parse(&line).unwrap();
        assert_eq!(back["s"].as_str(), Some(text.as_str()));
        // Quadratic decoding took about a second at this size.
        assert!(started.elapsed() < std::time::Duration::from_millis(500));
    }

    #[test]
    fn rejects_garbage_with_offsets() {
        for bad in r#"|{|[1,|"abc|{"a" 1}|tru|1e|{} x|"\u12"|"\x"|-"#.split('|') {
            let err = parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}: {err}");
        }
        assert_eq!(parse("[1, 2]x").unwrap_err().message, "trailing characters");
        let deep = "[".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn integers_stay_exact_and_u64_guards_hold() {
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Int(u64::MAX));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-2").unwrap().as_u64(), None);
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.0").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-2").unwrap().as_f64(), Some(-2.0));
    }

    #[test]
    fn objects_sort_keys_and_keep_the_last_duplicate() {
        let v = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"a":2,"b":3}"#);
        let built = Value::map([("z", Value::Int(1)), ("K", Value::Int(2))]);
        assert_eq!(built.to_compact(), r#"{"K":2,"z":1}"#);
        let ordered = Value::obj([("z", Value::Int(1)), ("K", Value::Int(2))]);
        assert_eq!(ordered.to_compact(), r#"{"z":1,"K":2}"#);
    }

    #[test]
    fn pretty_layout_matches_serde_json() {
        let v = Value::obj([
            ("id", Value::from("T0")),
            ("params", Value::map([("k", Value::from(2u64))])),
            ("rows", Value::from(vec![vec!["1", "x"]])),
            ("empty", Value::Arr(Vec::new())),
            ("none", Value::obj(Vec::<(String, Value)>::new())),
            ("passed", Value::Bool(true)),
        ]);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"id\": \"T0\",\n  \"params\": {\n    \"k\": 2\n  },\n  \"rows\": [\n    [\n      \"1\",\n      \"x\"\n    ]\n  ],\n  \"empty\": [],\n  \"none\": {},\n  \"passed\": true\n}"
        );
    }

    #[test]
    fn floats_print_like_ryu() {
        let cases = "1.2 1.0 0.0 -0.0 -2.5 100.0 1000000000000000.0 1e16 1.5e16 123456.789 \
                     0.001 0.0001 0.00001 1e-6 1.5e-7 1.7976931348623157e308";
        for want in cases.split_whitespace() {
            let x: f64 = want.parse().unwrap();
            assert_eq!(Value::Num(x).to_compact(), want);
            assert_eq!(parse(want).unwrap().as_f64(), Some(x));
        }
        assert_eq!(Value::Num(f64::NAN).to_compact(), "null");
    }
}
