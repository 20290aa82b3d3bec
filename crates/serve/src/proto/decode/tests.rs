use super::*;
use crate::plan::PlanErrorKind;

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
        if let Some(params) = v.get("params") {
            let obj = params
                .as_object()
                .ok_or_else(|| PlanError::usage("field \"params\" must be an object of numbers"))?;
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

#[test]
fn the_retired_quantile_knob_is_an_unknown_field_to_both_decoders() {
    // Every fitted cell is drawn by the histogram inverse CDF from its
    // rendered CDF, so there is no quantile mode to pick.
    let knob = "exact_quantiles";
    for value in ["true", "false"] {
        let body = format!("\"model\":\"m\",\"procs\":2,\"{knob}\":{value}");
        for (frame, what) in [
            (
                format!("{{\"op\":\"predict\",\"id\":\"x\",{body}}}"),
                "predict frame",
            ),
            (
                format!("{{\"op\":\"batch\",\"id\":\"x\",\"requests\":[{{{body}}}]}}"),
                "batch item",
            ),
        ] {
            let (id, e) = parse_request(&frame).unwrap_err();
            assert_eq!(
                (id.as_str(), e.kind),
                ("x", PlanErrorKind::Usage),
                "{frame}"
            );
            let named = format!("unknown field \"{knob}\" in {what} (accepted: ");
            assert!(e.message.starts_with(&named), "{frame}: {e}");
            agree(&frame);
        }
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
    // validated in one pass, less the retired quantile knob (a request
    // field, and a word of every accepted-keys list); any change in an
    // answer or an error's text or byte offset changes the digest.
    assert_eq!(
        format!("{:016x}", crate::fnv1a(answers.as_bytes())),
        "a4b6b3ef5b4971fb"
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
