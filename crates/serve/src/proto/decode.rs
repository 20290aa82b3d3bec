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
pub const PREDICT_BODY_KEYS: &str = "model table procs mode pingpong exact_quantiles params seed \
    reps quorum precision min_reps max_reps antithetic max_steps max_virtual_secs";

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
    ExactQuantiles,
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

const KEYS: [&str; 20] = [
    "op",
    "id",
    "requests",
    "crn",
    "model",
    "table",
    "procs",
    "mode",
    "pingpong",
    "exact_quantiles",
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
    req.exact_quantiles = bool_field(&v, Key::ExactQuantiles)?;
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
mod tests {
    use super::*;

    /// The decoder as it was: a `Json` tree first, then field by field.
    /// The scanner-fed decoder must answer every frame exactly as it does.
    mod reference {
        use pevpm_obs::json::{self, num, Json};

        use crate::plan::{PlanError, PredictRequest};
        use crate::proto::{Request, PREDICT_BODY_KEYS};

        const ENVELOPE_KEYS: &str = "op id";

        fn id_of(v: &Json) -> String {
            match v.get("id") {
                Some(Json::Str(s)) => s.clone(),
                Some(Json::Num(n)) => num(*n),
                _ => String::new(),
            }
        }

        fn str_field(v: &Json, key: &str) -> Result<String, PlanError> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| PlanError::usage(format!("request missing string field {key:?}")))
        }

        fn usize_field(v: &Json, key: &str) -> Result<Option<usize>, PlanError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                    Ok(Some(*n as usize))
                }
                Some(_) => Err(PlanError::usage(format!(
                    "field {key:?} must be a small non-negative integer"
                ))),
            }
        }

        fn u64_field(v: &Json, key: &str) -> Result<Option<u64>, PlanError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
                Some(_) => Err(PlanError::usage(format!(
                    "field {key:?} must be a non-negative integer"
                ))),
            }
        }

        fn bool_field(v: &Json, key: &str) -> Result<bool, PlanError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(PlanError::usage(format!("field {key:?} must be a boolean"))),
            }
        }

        fn reject_unknown_keys(
            v: &Json,
            what: &str,
            envelope: &str,
            keys: &str,
        ) -> Result<(), PlanError> {
            let Some(object) = v.as_object() else {
                return Ok(());
            };
            let accepted: Vec<&str> = [envelope, keys]
                .iter()
                .flat_map(|list| list.split_whitespace())
                .collect();
            match object.keys().find(|key| !accepted.contains(&key.as_str())) {
                None => Ok(()),
                Some(key) => Err(PlanError::usage(format!(
                    "unknown field {key:?} in {what} (accepted: {})",
                    accepted.join(" ")
                ))),
            }
        }

        fn parse_predict_body(
            v: &Json,
            what: &str,
            envelope: &str,
        ) -> Result<(String, PredictRequest), PlanError> {
            reject_unknown_keys(v, what, envelope, PREDICT_BODY_KEYS)?;
            let model = str_field(v, "model")?;
            let table = match v.get("table") {
                None | Some(Json::Null) => "default".to_string(),
                Some(Json::Str(s)) => s.clone(),
                Some(_) => return Err(PlanError::usage("field \"table\" must be a string")),
            };
            let procs = usize_field(v, "procs")?
                .ok_or_else(|| PlanError::usage("request missing integer field \"procs\""))?;
            let mut req = PredictRequest::new(model, procs);
            if let Some(Json::Str(m)) = v.get("mode") {
                req.mode = m.clone();
            } else if matches!(v.get("mode"), Some(j) if !matches!(j, Json::Null)) {
                return Err(PlanError::usage("field \"mode\" must be a string"));
            }
            req.pingpong = bool_field(v, "pingpong")?;
            req.exact_quantiles = bool_field(v, "exact_quantiles")?;
            if let Some(params) = v.get("params") {
                let obj = params.as_object().ok_or_else(|| {
                    PlanError::usage("field \"params\" must be an object of numbers")
                })?;
                for (k, pv) in obj {
                    let n = pv
                        .as_num()
                        .ok_or_else(|| PlanError::usage(format!("param {k:?} must be a number")))?;
                    req.params.push((k.clone(), n));
                }
            }
            if let Some(seed) = u64_field(v, "seed")? {
                req.seed = seed;
            }
            if let Some(reps) = usize_field(v, "reps")? {
                req.reps = reps;
            }
            req.quorum = usize_field(v, "quorum")?;
            req.precision = match v.get("precision") {
                None | Some(Json::Null) => None,
                Some(Json::Num(n)) if *n > 0.0 => Some(*n),
                Some(_) => {
                    return Err(PlanError::usage(
                        "field \"precision\" must be a positive number",
                    ))
                }
            };
            req.min_reps = usize_field(v, "min_reps")?;
            req.max_reps = usize_field(v, "max_reps")?;
            req.antithetic = bool_field(v, "antithetic")?;
            req.max_steps = u64_field(v, "max_steps")?;
            req.max_virtual_secs = match v.get("max_virtual_secs") {
                None | Some(Json::Null) => None,
                Some(Json::Num(n)) if *n >= 0.0 => Some(*n),
                Some(_) => {
                    return Err(PlanError::usage(
                        "field \"max_virtual_secs\" must be a non-negative number",
                    ))
                }
            };
            Ok((table, req))
        }

        pub(super) fn parse_request(text: &str) -> Result<Request, (String, PlanError)> {
            let v = json::parse(text).map_err(|e| {
                (
                    String::new(),
                    PlanError::usage(format!("bad request JSON: {e}")),
                )
            })?;
            let id = id_of(&v);
            let op = str_field(&v, "op").map_err(|e| (id.clone(), e))?;
            match op.as_str() {
                "predict" => {
                    let (table, req) = parse_predict_body(&v, "predict frame", ENVELOPE_KEYS)
                        .map_err(|e| (id.clone(), e))?;
                    Ok(Request::Predict {
                        id,
                        table,
                        req: Box::new(req),
                    })
                }
                "batch" => {
                    reject_unknown_keys(&v, "batch frame", ENVELOPE_KEYS, "requests crn seed")
                        .map_err(|e| (id.clone(), e))?;
                    let mut items = v
                        .get("requests")
                        .and_then(Json::as_array)
                        .ok_or_else(|| {
                            (
                                id.clone(),
                                PlanError::usage("batch request missing array field \"requests\""),
                            )
                        })?
                        .iter()
                        .map(|item| parse_predict_body(item, "batch item", ""))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| (id.clone(), e))?;
                    if items.is_empty() {
                        return Err((id, PlanError::usage("batch \"requests\" must be non-empty")));
                    }
                    let crn = bool_field(&v, "crn").map_err(|e| (id.clone(), e))?;
                    if crn {
                        let base = match u64_field(&v, "seed").map_err(|e| (id.clone(), e))? {
                            Some(s) => s,
                            None => items[0].1.seed,
                        };
                        for (_, req) in &mut items {
                            req.seed = base;
                        }
                    }
                    Ok(Request::Batch { id, items })
                }
                "stats" => Ok(Request::Stats { id }),
                "ping" => Ok(Request::Ping { id }),
                "shutdown" => Ok(Request::Shutdown { id }),
                other => Err((
                    id,
                    PlanError::usage(format!(
                        "unknown op {other:?} (predict|batch|stats|ping|shutdown)"
                    )),
                )),
            }
        }
    }

    /// Both decoders' answers to `frame`, which must be the same.
    fn agree(frame: &str) {
        assert_eq!(
            format!("{:?}", parse_request(frame)),
            format!("{:?}", reference::parse_request(frame)),
            "{frame}"
        );
    }

    #[test]
    fn keys_are_every_key_of_every_list() {
        let mut listed: Vec<&str> = [ENVELOPE_KEYS, BATCH_KEYS, PREDICT_BODY_KEYS]
            .iter()
            .flat_map(|list| list.split_whitespace())
            .collect();
        listed.sort_unstable();
        listed.dedup();
        let mut keys = KEYS.to_vec();
        keys.sort_unstable();
        assert_eq!(keys, listed);
    }

    #[test]
    fn each_accepted_mask_is_its_lists() {
        for accepted in [&PREDICT_FRAME, &BATCH_ITEM, &BATCH_FRAME] {
            let names: Vec<&str> = accepted.names().collect();
            let from_names = KEYS
                .iter()
                .enumerate()
                .filter(|(_, key)| names.contains(key))
                .fold(0, |mask, (i, _)| mask | 1 << i);
            assert_eq!(accepted.mask, from_names, "{names:?}");
            assert_eq!(
                accepted.mask.count_ones() as usize,
                names.len(),
                "{names:?}"
            );
        }
    }

    #[test]
    fn the_decoder_answers_as_the_json_tree_decoder_did() {
        let (_, set) = working_set::working_set(11, 192);
        for (_, frame) in &set {
            agree(frame);
        }
        // Every truncation of one frame, and seeded one-character edits.
        let frame = &set[0].1;
        for (end, _) in frame.char_indices() {
            agree(&frame[..end]);
        }
        let bounds: Vec<usize> = frame.char_indices().map(|(i, _)| i).collect();
        let edits = ["\"", "{", "}", "[", "]", ",", ":", "\\", "a", "0", " ", ""];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..300 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let at = bounds[(x % bounds.len() as u64) as usize];
            let with = edits[(x >> 32) as usize % edits.len()];
            let end = at + frame[at..].chars().next().map_or(0, char::len_utf8);
            agree(&format!("{}{with}{}", &frame[..at], &frame[end..]));
        }
        let body = "\"model\":\"m\",\"procs\":2";
        let deep = |levels: usize| {
            format!(
                "{{\"op\":\"predict\",\"id\":\"deep\",\"model\":{}1{}}}",
                "[".repeat(levels),
                "]".repeat(levels)
            )
        };
        let cases = [
            // Duplicated and reordered keys: the last duplicate wins.
            format!("{{\"procs\":3,{body},\"id\":\"a\",\"op\":\"predict\",\"procs\":4}}"),
            "{\"op\":\"predict\",\"op\":\"ping\",\"id\":\"x\"}".to_string(),
            "{\"id\":\"a\",\"op\":\"ping\",\"id\":7.5}".to_string(),
            format!("{{\"op\":\"predict\",\"id\":\"d\",\"procs\":\"x\",{body}}}"),
            format!("{{\"op\":\"predict\",\"id\":\"d\",{body},\"procs\":\"x\"}}"),
            format!("{{\"op\":\"predict\",\"id\":\"p\",{body},\"params\":{{\"b\":1,\"a\":\"x\",\"a\":2}}}}"),
            format!("{{\"op\":\"predict\",\"id\":\"p\",{body},\"params\":{{\"b\":\"x\",\"a\":\"y\"}}}}"),
            format!("{{\"op\":\"predict\",\"id\":\"p\",{body},\"params\":null}}"),
            // Two unknown keys, an escaped one, and known keys out of place.
            format!("{{\"op\":\"predict\",\"id\":\"u\",{body},\"zz\":1,\"rep\":2}}"),
            format!("{{\"op\":\"predict\",\"id\":\"u\",{body},\"\\u0061a\":1,\"b\":2}}"),
            format!("{{\"op\":\"predict\",\"id\":\"u\",{body},\"requests\":[],\"crn\":true,\"zeta\":0}}"),
            format!("{{\"op\":\"batch\",\"id\":\"u\",{body},\"requests\":[]}}"),
            "{\"op\":\"batch\",\"id\":\"u\",\"aaa\":1,\"model\":\"m\",\"requests\":[]}".to_string(),
            // Batches: items that are not bodies, crn with and without a seed.
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[1]}".to_string(),
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"requests\":[{{{body},\"id\":\"i\"}}]}}"),
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":[]}".to_string(),
            "{\"op\":\"batch\",\"id\":\"b\",\"requests\":{}}".to_string(),
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"requests\":[{{{body},\"seed\":5}},{{{body}}}]}}"),
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"crn\":true,\"seed\":9,\"requests\":[{{{body}}}]}}"),
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"crn\":\"yes\",\"requests\":[{{{body}}}]}}"),
            format!("{{\"op\":\"batch\",\"id\":\"b\",\"seed\":-1,\"requests\":[{{{body}}}]}}"),
            // Every field's wrong type.
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"table\":1}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"table\":null,\"mode\":null}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"mode\":1}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"pingpong\":1}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"seed\":1.5}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"reps\":4294967296}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"precision\":0}}"),
            format!("{{\"op\":\"predict\",\"id\":\"t\",{body},\"max_virtual_secs\":-1}}"),
            "{\"op\":\"predict\",\"id\":\"t\",\"model\":7,\"procs\":2}".to_string(),
            "{\"op\":\"predict\",\"id\":\"t\",\"model\":\"m\"}".to_string(),
            // 129-deep nesting, and 127 deep.
            deep(129),
            deep(127),
            // Lone surrogates in a value and in a key, and a pair.
            "{\"op\":\"ping\",\"id\":\"\\ud800\"}".to_string(),
            "{\"\\udc00\":1,\"op\":\"ping\"}".to_string(),
            "{\"op\":\"ping\",\"id\":\"\\ud83d\\ude00\"}".to_string(),
            // Roots that are not objects, and ids that are not strings.
            "[]".to_string(),
            "\"predict\"".to_string(),
            "42".to_string(),
            "null".to_string(),
            " ".to_string(),
            String::new(),
            "{\"op\":\"\\u0070ing\",\"id\":1e3}".to_string(),
            "{\"op\":\"ping\",\"id\":true}".to_string(),
            "{\"op\":\"warp\",\"id\":\"w\"}".to_string(),
            "{\"op\":3,\"id\":\"w\"}".to_string(),
            "{\"op\":\"ping\"} x".to_string(),
        ];
        for frame in &cases {
            agree(frame);
        }
    }

    /// Frames whose string literals put each escape kind, a two-byte
    /// character, a surrogate pair, a lone surrogate and each malformed
    /// escape at every byte alignment, mid-literal and right before the
    /// closing quote: as a model, as an id and as a key.
    fn escape_frames() -> Vec<String> {
        let pieces = [
            "\\\"",
            "\\\\",
            "\\n",
            "\\/",
            "\u{e9}",
            "\\u00e9",
            "\\ud83d\\ude00",
            "\\ud800",
            "\\ud800x",
            "\\udc00",
            "\\ud83d\\u0041",
            "\\x",
            "\\u12g4",
            "\\ud83d\\u12",
            "\\",
        ];
        let mut frames = Vec::new();
        for piece in pieces {
            for off in 0..8 {
                for (pre, post) in [(off, 9), (off, 0), (24 + off, 0), (24 + off, 17)] {
                    let lit = format!("{}{piece}{}", "x".repeat(pre), "y".repeat(post));
                    frames.push(format!(
                        "{{\"op\":\"predict\",\"id\":\"e\",\"model\":\"{lit}\",\"procs\":2}}"
                    ));
                    frames.push(format!("{{\"op\":\"ping\",\"id\":\"{lit}\"}}"));
                    frames.push(format!(
                        "{{\"op\":\"predict\",\"id\":\"k\",\"{lit}\":1,\"model\":\"m\",\"procs\":2}}"
                    ));
                }
            }
        }
        // Every truncation of one model literal holding every piece.
        let all: String = pieces.iter().take(11).copied().collect();
        let frame = format!("{{\"op\":\"predict\",\"id\":\"t\",\"model\":\"{all}\",\"procs\":2}}");
        for (end, _) in frame.char_indices() {
            frames.push(frame[..end].to_string());
        }
        frames.push(frame);
        frames
    }

    #[test]
    fn escapes_at_every_alignment_decode_as_pinned() {
        let mut answers = String::new();
        for frame in escape_frames() {
            agree(&frame);
            answers.push_str(&format!("{:?}\n", parse_request(&frame)));
        }
        // The answers as the decoder gave them before literals were
        // validated in one pass; any change in an answer or an error's
        // text or byte offset changes the digest.
        assert_eq!(
            format!("{:016x}", crate::fnv1a(answers.as_bytes())),
            "42a95e6cdeb6e04b"
        );
    }

    #[test]
    fn many_params_in_reverse_order_decode_in_n_log_n() {
        // 200 000 names, each twice, in descending order: a sorted insert
        // per name made this quadratic.
        let names: Vec<String> = (0..200_000).rev().map(|i| format!("p{i:06}")).collect();
        let params: Vec<String> = names
            .iter()
            .flat_map(|name| [format!("\"{name}\":0"), format!("\"{name}\":1")])
            .collect();
        let frame = format!(
            "{{\"op\":\"predict\",\"id\":\"p\",\"model\":\"m\",\"procs\":2,\"params\":{{{}}}}}",
            params.join(",")
        );
        let started = std::time::Instant::now();
        let Ok(Request::Predict { req, .. }) = parse_request(&frame) else {
            panic!("the frame decodes");
        };
        let took = started.elapsed();
        assert_eq!(req.params.len(), names.len());
        assert!(req.params.windows(2).all(|w| w[0].0 < w[1].0), "name order");
        assert!(req.params.iter().all(|(_, v)| *v == 1.0), "last value wins");
        assert!(took.as_secs() < 5, "{took:?}");
        agree(&frame);
    }
}
