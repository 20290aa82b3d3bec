//! The request decoder. One pass of the JSON [`Scanner`] fills a slot per
//! known key; the frame is then validated in the order its checks have
//! always run, so every answer is the one a decode through a `Json` tree
//! gives: a syntax error anywhere answers with id `""`, a duplicated key's
//! last value wins, and of several unknown keys the alphabetically first
//! is named, as a sorted map iterates them. Nothing the request does not
//! keep is copied, and the model is not even decoded: the scanner checks
//! its literal in the pass that finds its end, and the daemon looks its
//! program up by that literal ([`crate::ModelCache::get_or_parse_literal`]),
//! decoding it only to parse it on a miss.

use std::borrow::Cow;

use pevpm_obs::json::{num, Scanner, Str, Value};

use super::Request;
use crate::plan::{PlanError, PredictRequest};

/// Every key of a predict body: what [`parse_request`] reads and
/// `client::predict_body` writes, and nothing else. How parallel an
/// evaluation runs is not among them: that is the daemon's `--threads` /
/// `--conns`.
pub const PREDICT_BODY_KEYS: &str = "model table procs mode pingpong params seed reps quorum \
    precision min_reps max_reps antithetic max_steps max_virtual_secs";

/// What a `predict` or `batch` frame carries around its body or bodies.
const ENVELOPE_KEYS: &str = "op id";

/// What a `batch` frame carries besides its envelope.
const BATCH_KEYS: &str = "requests crn seed";

/// The keys a frame or a batch item may carry, each a slot of [`Fields`]
/// and spelled by [`KEYS`], in the same order.
#[derive(Clone, Copy)]
enum Key {
    Op,
    Id,
    Requests,
    Crn,
    Model,
    Table,
    Procs,
    Mode,
    Pingpong,
    Params,
    Seed,
    Reps,
    Quorum,
    Precision,
    MinReps,
    MaxReps,
    Antithetic,
    MaxSteps,
    MaxVirtualSecs,
}

const KEYS: [&str; 19] = [
    "op",
    "id",
    "requests",
    "crn",
    "model",
    "table",
    "procs",
    "mode",
    "pingpong",
    "params",
    "seed",
    "reps",
    "quorum",
    "precision",
    "min_reps",
    "max_reps",
    "antithetic",
    "max_steps",
    "max_virtual_secs",
];

impl Key {
    fn name(self) -> &'static str {
        KEYS[self as usize]
    }
}

/// The keys one kind of object may carry: an envelope list and a body
/// list, spelled out for the error that names them and as a mask over
/// [`KEYS`] (bit `i` for `KEYS[i]`) for the check every frame takes.
struct Accepted {
    envelope: &'static str,
    keys: &'static str,
    mask: u32,
}

impl Accepted {
    const fn new(envelope: &'static str, keys: &'static str) -> Self {
        Accepted {
            envelope,
            keys,
            mask: key_mask(envelope) | key_mask(keys),
        }
    }

    /// The accepted keys, in list order.
    fn names(&self) -> impl Iterator<Item = &'static str> {
        self.envelope
            .split_whitespace()
            .chain(self.keys.split_whitespace())
    }
}

/// A whole `predict` frame.
const PREDICT_FRAME: Accepted = Accepted::new(ENVELOPE_KEYS, PREDICT_BODY_KEYS);
/// One element of a batch's `requests`: a bare body, no envelope.
const BATCH_ITEM: Accepted = Accepted::new("", PREDICT_BODY_KEYS);
/// A `batch` frame around its items.
const BATCH_FRAME: Accepted = Accepted::new(ENVELOPE_KEYS, BATCH_KEYS);

const _: () = assert!(KEYS.len() <= u32::BITS as usize, "a key mask is a u32");

/// The bits of the [`KEYS`] that the whitespace-separated `list` names.
const fn key_mask(list: &str) -> u32 {
    let mut mask = 0;
    let mut k = 0;
    while k < KEYS.len() {
        if lists_word(list.as_bytes(), KEYS[k].as_bytes()) {
            mask |= 1 << k;
        }
        k += 1;
    }
    mask
}

/// Whether `word` is one of the whitespace-separated words of `list`.
const fn lists_word(list: &[u8], word: &[u8]) -> bool {
    let mut start = 0;
    while start < list.len() {
        let mut end = start;
        while end < list.len() && !list[end].is_ascii_whitespace() {
            end += 1;
        }
        if end - start == word.len() {
            let mut i = 0;
            while i < word.len() && list[start + i] == word[i] {
                i += 1;
            }
            if i == word.len() {
                return true;
            }
        }
        start = end + 1;
    }
    false
}

/// One object's members by key: the last of a duplicated key wins, as in
/// a map, and of the keys outside [`KEYS`] only the alphabetically first
/// is kept, the one an error names.
struct Fields<'a> {
    slots: [Option<Value<'a>>; KEYS.len()],
    unknown: Option<Cow<'a, str>>,
}

impl<'a> Fields<'a> {
    fn new() -> Self {
        Fields {
            slots: Default::default(),
            unknown: None,
        }
    }

    /// The members of `value` if it is an object; anything else has none.
    fn of(value: Value<'a>) -> Self {
        let mut fields = Fields::new();
        if let Value::Obj(members) = value {
            for (key, value) in members {
                fields.insert(key, value);
            }
        }
        fields
    }

    fn insert(&mut self, key: Cow<'a, str>, value: Value<'a>) {
        match KEYS.iter().position(|known| *known == key) {
            Some(slot) => self.slots[slot] = Some(value),
            None if self.unknown.as_ref().is_none_or(|first| key < *first) => {
                self.unknown = Some(key);
            }
            None => {}
        }
    }

    fn get(&self, key: Key) -> Option<&Value<'a>> {
        self.slots[key as usize].as_ref()
    }

    fn take(&mut self, key: Key) -> Option<Value<'a>> {
        self.slots[key as usize].take()
    }

    /// Refuse a key the decoder would not read: a misspelt `"rep"` must not
    /// quietly run one replication, as a misspelt `--rep` does not.
    fn reject_unknown(&self, what: &str, accepted: &Accepted) -> Result<(), PlanError> {
        let mut first = self.unknown.as_deref();
        for (i, (key, value)) in KEYS.iter().zip(&self.slots).enumerate() {
            if value.is_some() && accepted.mask & (1 << i) == 0 && first.is_none_or(|f| *key < f) {
                first = Some(*key);
            }
        }
        match first {
            None => Ok(()),
            Some(key) => Err(PlanError::usage(format!(
                "unknown field {key:?} in {what} (accepted: {})",
                accepted.names().collect::<Vec<_>>().join(" ")
            ))),
        }
    }
}

fn missing_string(key: Key) -> PlanError {
    PlanError::usage(format!("request missing string field {:?}", key.name()))
}

fn usize_field(v: &Fields, key: Key) -> Result<Option<usize>, PlanError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
            Ok(Some(*n as usize))
        }
        Some(_) => Err(PlanError::usage(format!(
            "field {:?} must be a small non-negative integer",
            key.name()
        ))),
    }
}

fn u64_field(v: &Fields, key: Key) -> Result<Option<u64>, PlanError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
        Some(_) => Err(PlanError::usage(format!(
            "field {:?} must be a non-negative integer",
            key.name()
        ))),
    }
}

fn bool_field(v: &Fields, key: Key) -> Result<bool, PlanError> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(PlanError::usage(format!(
            "field {:?} must be a boolean",
            key.name()
        ))),
    }
}

/// One predict body as the daemon evaluates it, borrowing from its frame.
#[derive(Debug)]
pub struct Body<'a> {
    /// The name of the table it is evaluated against.
    pub table: Cow<'a, str>,
    /// Its model's source, as the frame spells it.
    pub model: Str<'a>,
    /// The rest of the request; its `model_src` is left empty.
    pub req: PredictRequest,
}

impl Body<'_> {
    /// `(table, request)`, the model decoded into the request.
    fn into_owned(self) -> (String, PredictRequest) {
        let mut req = self.req;
        req.model_src = self.model.text().into_owned();
        (self.table.into_owned(), req)
    }
}

/// A decoded frame, borrowing from its text: a [`Request`] whose predict
/// bodies are still [`Body`]s.
#[derive(Debug)]
// Each variant is its `Request` namesake. A frame lives for one request;
// boxing its body, as `Request` does, would cost an allocation each.
#[allow(missing_docs, clippy::large_enum_variant)]
pub enum Frame<'a> {
    Predict { id: String, body: Body<'a> },
    Batch { id: String, items: Vec<Body<'a>> },
    Stats { id: String },
    Ping { id: String },
    Shutdown { id: String },
}

impl Frame<'_> {
    fn into_request(self) -> Request {
        match self {
            Frame::Predict { id, body } => {
                let (table, req) = body.into_owned();
                Request::Predict {
                    id,
                    table,
                    req: Box::new(req),
                }
            }
            Frame::Batch { id, items } => Request::Batch {
                id,
                items: items.into_iter().map(Body::into_owned).collect(),
            },
            Frame::Stats { id } => Request::Stats { id },
            Frame::Ping { id } => Request::Ping { id },
            Frame::Shutdown { id } => Request::Shutdown { id },
        }
    }
}

/// Decode one predict body: a whole `predict` frame ([`PREDICT_FRAME`])
/// or one element of a batch's `requests` ([`BATCH_ITEM`]).
fn predict_body<'a>(
    mut v: Fields<'a>,
    what: &str,
    accepted: &Accepted,
) -> Result<Body<'a>, PlanError> {
    v.reject_unknown(what, accepted)?;
    let model = match v.take(Key::Model) {
        Some(Value::Str(model)) => model,
        _ => return Err(missing_string(Key::Model)),
    };
    let table = match v.take(Key::Table) {
        None | Some(Value::Null) => Cow::Borrowed("default"),
        Some(Value::Str(s)) => s.text(),
        Some(_) => return Err(PlanError::usage("field \"table\" must be a string")),
    };
    let procs = usize_field(&v, Key::Procs)?
        .ok_or_else(|| PlanError::usage("request missing integer field \"procs\""))?;
    let mut req = PredictRequest::new(String::new(), procs);
    match v.get(Key::Mode) {
        None | Some(Value::Null) => {}
        Some(Value::Str(m)) => req.mode = m.text().into_owned(),
        Some(_) => return Err(PlanError::usage("field \"mode\" must be a string")),
    }
    req.pingpong = bool_field(&v, Key::Pingpong)?;
    if let Some(params) = v.get(Key::Params) {
        let Value::Obj(members) = params else {
            return Err(PlanError::usage(
                "field \"params\" must be an object of numbers",
            ));
        };
        // In name order, a repeated name's last value winning: bindings
        // apply in order, so this is what a request means. The sort is
        // stable, so of a run of equal names the last is the last sent.
        let mut named: Vec<(&str, &Value)> = members.iter().map(|(k, v)| (&**k, v)).collect();
        named.sort_by(|a, b| a.0.cmp(b.0));
        for (i, &(name, value)) in named.iter().enumerate() {
            if named.get(i + 1).is_some_and(|next| next.0 == name) {
                continue;
            }
            let Value::Num(n) = value else {
                return Err(PlanError::usage(format!("param {name:?} must be a number")));
            };
            req.params.push((name.to_string(), *n));
        }
    }
    if let Some(seed) = u64_field(&v, Key::Seed)? {
        req.seed = seed;
    }
    if let Some(reps) = usize_field(&v, Key::Reps)? {
        req.reps = reps;
    }
    req.quorum = usize_field(&v, Key::Quorum)?;
    req.precision = match v.get(Key::Precision) {
        None | Some(Value::Null) => None,
        Some(Value::Num(n)) if *n > 0.0 => Some(*n),
        Some(_) => {
            return Err(PlanError::usage(
                "field \"precision\" must be a positive number",
            ))
        }
    };
    req.min_reps = usize_field(&v, Key::MinReps)?;
    req.max_reps = usize_field(&v, Key::MaxReps)?;
    req.antithetic = bool_field(&v, Key::Antithetic)?;
    req.max_steps = u64_field(&v, Key::MaxSteps)?;
    req.max_virtual_secs = match v.get(Key::MaxVirtualSecs) {
        None | Some(Value::Null) => None,
        Some(Value::Num(n)) if *n >= 0.0 => Some(*n),
        Some(_) => {
            return Err(PlanError::usage(
                "field \"max_virtual_secs\" must be a non-negative number",
            ))
        }
    };
    Ok(Body { table, model, req })
}

/// A `batch` frame's items, common random numbers applied.
fn batch_items(mut v: Fields<'_>) -> Result<Vec<Body<'_>>, PlanError> {
    v.reject_unknown("batch frame", &BATCH_FRAME)?;
    let Some(Value::Arr(items)) = v.take(Key::Requests) else {
        return Err(PlanError::usage(
            "batch request missing array field \"requests\"",
        ));
    };
    let mut items = items
        .into_iter()
        .map(|item| predict_body(Fields::of(item), "batch item", &BATCH_ITEM))
        .collect::<Result<Vec<_>, _>>()?;
    if items.is_empty() {
        return Err(PlanError::usage("batch \"requests\" must be non-empty"));
    }
    // Common random numbers: `"crn": true` rewrites every item to one
    // shared base seed (the frame-level `"seed"` if given, else the first
    // item's), so what-if arms that differ only in parameters/tables are
    // compared on *paired* noise — the per-arm Monte-Carlo draws line up
    // one-to-one and the arm-difference variance collapses to the model
    // difference.
    if bool_field(&v, Key::Crn)? {
        let base = match u64_field(&v, Key::Seed)? {
            Some(seed) => seed,
            None => items[0].req.seed,
        };
        for item in &mut items {
            item.req.seed = base;
        }
    }
    Ok(items)
}

/// Parse one request frame. Errors carry the best-effort id so the server
/// can still address its refusal.
pub fn parse_request(text: &str) -> Result<Request, (String, PlanError)> {
    parse_frame(text).map(Frame::into_request)
}

/// [`parse_request`], each predict body left a [`Body`]: what the daemon
/// answers from.
pub fn parse_frame(text: &str) -> Result<Frame<'_>, (String, PlanError)> {
    let mut frame = Fields::new();
    let mut scanner = Scanner::new(text);
    // A document that is not an object has no members, so no "op".
    let scanned = scanner
        .members(|key, value| frame.insert(key, value))
        .and_then(|_| scanner.end());
    if let Err(e) = scanned {
        return Err((
            String::new(),
            PlanError::usage(format!("bad request JSON: {e}")),
        ));
    }
    // Even a malformed request is answered with its own id; a missing or
    // unusable one echoes as "".
    let id = match frame.get(Key::Id) {
        Some(Value::Str(id)) => id.text().into_owned(),
        Some(Value::Num(n)) => num(*n),
        _ => String::new(),
    };
    let op = match frame.take(Key::Op) {
        Some(Value::Str(op)) => op,
        _ => return Err((id, missing_string(Key::Op))),
    };
    match &*op.text() {
        "predict" => match predict_body(frame, "predict frame", &PREDICT_FRAME) {
            Ok(body) => Ok(Frame::Predict { id, body }),
            Err(e) => Err((id, e)),
        },
        "batch" => match batch_items(frame) {
            Ok(items) => Ok(Frame::Batch { id, items }),
            Err(e) => Err((id, e)),
        },
        "stats" => Ok(Frame::Stats { id }),
        "ping" => Ok(Frame::Ping { id }),
        "shutdown" => Ok(Frame::Shutdown { id }),
        other => Err((
            id,
            PlanError::usage(format!(
                "unknown op {other:?} (predict|batch|stats|ping|shutdown)"
            )),
        )),
    }
}

#[cfg(test)]
#[allow(dead_code)]
#[path = "../../tests/common/working_set.rs"]
mod working_set;

#[cfg(test)]
mod tests;
