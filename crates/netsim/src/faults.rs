//! Scenario-driven fault injection.
//!
//! The engine in [`network`](crate::network) produces frame drops
//! *emergently* (finite buffers overflow under contention). This module
//! adds **injected** faults on top — the degraded-machine scenarios the
//! robustness study sweeps over:
//!
//! - random per-frame loss with probability [`FaultPlan::loss_prob`]
//!   (cabling/duplex-mismatch style losses);
//! - per-link degradation ([`LinkDegrade`]): a node's NIC and switch port
//!   run at a fraction of the configured link rate (half-duplex fallback,
//!   flaky autonegotiation);
//! - time-windowed link flaps ([`LinkFlap`]): every frame entering or
//!   leaving a node while its link is down is lost;
//! - background cross-traffic bursts ([`Background`]): periodic transfers
//!   between nodes that occupy queues but are invisible to the MPI layer;
//! - per-node pause/slowdown windows ([`Pause`]): OS stalls that defer or
//!   slow a node's NIC for a time window.
//!
//! All injected randomness is drawn from the engine's existing RNG stream,
//! so a faulted run is bitwise reproducible from `(config, seed)`. The
//! layer is strictly pay-for-what-you-use: a plan whose faults never fire
//! leaves the event and RNG sequences *bitwise identical* to the healthy
//! machine's empty plan (property-tested in `tests/prop_faults.rs`).
//!
//! Plans are embedded in [`ClusterConfig::faults`](crate::ClusterConfig)
//! and can be loaded from a small TOML-subset scenario file via
//! [`FaultPlan::parse_toml`]; see `DESIGN.md` ("Fault model & degraded
//! operation") for the schema.

use crate::config::{ClusterConfig, NodeId};
use crate::time::Time;
use pevpm_obs::text::{self, LineError};
use std::fmt;

/// A fault plan that does not fit the cluster it is validated against.
/// (Syntax errors are [`LineError`]s from [`FaultPlan::parse_toml`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Human-readable description naming the offending section, entry and
    /// key.
    pub message: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for FaultError {}

fn invalid(message: String) -> FaultError {
    FaultError { message }
}

/// Sentinel for "required key not set" on node indices.
const NODE_UNSET: usize = usize::MAX;

/// Cap one node's NIC and switch-port rate at `rate_factor ×` link rate.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDegrade {
    /// Affected node.
    pub node: NodeId,
    /// Rate multiplier in `(0, 1]` (0.5 = half-duplex-style halving).
    pub rate_factor: f64,
}

impl Default for LinkDegrade {
    fn default() -> Self {
        LinkDegrade {
            node: NODE_UNSET,
            rate_factor: f64::NAN,
        }
    }
}

/// A node's link is down during `[from_secs, to_secs)`; frames entering
/// its NIC or egress port in the window are lost.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFlap {
    /// Affected node.
    pub node: NodeId,
    /// Window start, seconds of virtual time.
    pub from_secs: f64,
    /// Window end (exclusive), seconds of virtual time.
    pub to_secs: f64,
}

impl Default for LinkFlap {
    fn default() -> Self {
        LinkFlap {
            node: NODE_UNSET,
            from_secs: f64::NAN,
            to_secs: f64::NAN,
        }
    }
}

/// Periodic background cross-traffic: `count` transfers of `bytes` from
/// `src` to `dst`, the k-th starting at `start_secs + k × period_secs`.
///
/// Background transfers occupy NICs, fabrics, the trunk and ports like any
/// other traffic but produce no [`Completion`](crate::Completion) — the
/// protocol layer above never sees them.
#[derive(Debug, Clone, PartialEq)]
pub struct Background {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Payload bytes per burst.
    pub bytes: u64,
    /// Start of the first burst, seconds of virtual time.
    pub start_secs: f64,
    /// Seconds between burst starts (required when `count > 1`).
    pub period_secs: f64,
    /// Number of bursts.
    pub count: u64,
}

impl Default for Background {
    fn default() -> Self {
        Background {
            src: NODE_UNSET,
            dst: NODE_UNSET,
            bytes: 0,
            start_secs: 0.0,
            period_secs: 0.0,
            count: 1,
        }
    }
}

/// A per-node stall: during `[at_secs, at_secs + duration_secs)` the
/// node's NIC either defers all frames to the window end (`slowdown = 0`,
/// the default — a full pause) or serves them `slowdown ×` slower
/// (`slowdown ≥ 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Pause {
    /// Affected node.
    pub node: NodeId,
    /// Window start, seconds of virtual time.
    pub at_secs: f64,
    /// Window length, seconds.
    pub duration_secs: f64,
    /// `0` = full pause; `≥ 1` = service-time multiplier during the window.
    pub slowdown: f64,
}

impl Default for Pause {
    fn default() -> Self {
        Pause {
            node: NODE_UNSET,
            at_secs: f64::NAN,
            duration_secs: f64::NAN,
            slowdown: 0.0,
        }
    }
}

/// A deterministic, seedable fault-injection scenario.
///
/// The empty (default) plan is the healthy machine: it injects nothing,
/// and nothing on the network's path consults it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that any individual transmitted frame is lost on the
    /// wire, in `[0, 1)`. Drawn per frame from the engine RNG stream
    /// (only when positive, preserving the no-fault stream).
    pub loss_prob: f64,
    /// Per-link rate caps.
    pub degrade: Vec<LinkDegrade>,
    /// Link-down windows.
    pub flaps: Vec<LinkFlap>,
    /// Background cross-traffic bursts.
    pub background: Vec<Background>,
    /// Node pause/slowdown windows.
    pub pauses: Vec<Pause>,
}

impl FaultPlan {
    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.loss_prob == 0.0
            && self.degrade.is_empty()
            && self.flaps.is_empty()
            && self.background.is_empty()
            && self.pauses.is_empty()
    }

    /// Validate the plan against a cluster: node indices in range, rates
    /// and probabilities in their domains, windows well-formed. Errors
    /// name the offending section, entry and key.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), FaultError> {
        let nodes = cfg.nodes;
        let check_node = |section: &str, i: usize, key: &str, node: usize| {
            if node == NODE_UNSET {
                Err(invalid(format!("[[{section}]] #{i}: missing key `{key}`")))
            } else if node >= nodes {
                Err(invalid(format!(
                    "[[{section}]] #{i}: `{key}` = {node} out of range (cluster has {nodes} nodes)"
                )))
            } else {
                Ok(())
            }
        };
        if !(self.loss_prob >= 0.0 && self.loss_prob < 1.0) {
            return Err(invalid(format!(
                "`loss_prob` = {} must be in [0, 1) (a probability per transmitted frame)",
                self.loss_prob
            )));
        }
        for (i, d) in self.degrade.iter().enumerate() {
            let i = i + 1;
            check_node("degrade", i, "node", d.node)?;
            if d.rate_factor.is_nan() {
                return Err(invalid(format!(
                    "[[degrade]] #{i}: missing key `rate_factor`"
                )));
            }
            if !(d.rate_factor > 0.0 && d.rate_factor <= 1.0) {
                return Err(invalid(format!(
                    "[[degrade]] #{i}: `rate_factor` = {} must be in (0, 1]",
                    d.rate_factor
                )));
            }
        }
        for (i, fl) in self.flaps.iter().enumerate() {
            let i = i + 1;
            check_node("flap", i, "node", fl.node)?;
            if fl.from_secs.is_nan() {
                return Err(invalid(format!("[[flap]] #{i}: missing key `from`")));
            }
            if fl.to_secs.is_nan() {
                return Err(invalid(format!("[[flap]] #{i}: missing key `to`")));
            }
            if !(fl.from_secs >= 0.0 && fl.to_secs > fl.from_secs && fl.to_secs.is_finite()) {
                return Err(invalid(format!(
                    "[[flap]] #{i}: window [{}, {}) must satisfy 0 <= from < to",
                    fl.from_secs, fl.to_secs
                )));
            }
        }
        for (i, b) in self.background.iter().enumerate() {
            let i = i + 1;
            check_node("background", i, "src", b.src)?;
            check_node("background", i, "dst", b.dst)?;
            if b.src == b.dst {
                return Err(invalid(format!(
                    "[[background]] #{i}: `src` and `dst` must differ (node {})",
                    b.src
                )));
            }
            if b.bytes == 0 {
                return Err(invalid(format!(
                    "[[background]] #{i}: `bytes` must be >= 1"
                )));
            }
            if b.count == 0 {
                return Err(invalid(format!(
                    "[[background]] #{i}: `count` must be >= 1"
                )));
            }
            if !(b.start_secs >= 0.0 && b.start_secs.is_finite()) {
                return Err(invalid(format!(
                    "[[background]] #{i}: `start` = {} must be >= 0",
                    b.start_secs
                )));
            }
            if b.count > 1 && !(b.period_secs > 0.0 && b.period_secs.is_finite()) {
                return Err(invalid(format!(
                    "[[background]] #{i}: `period` = {} must be > 0 when count > 1",
                    b.period_secs
                )));
            }
        }
        for (i, p) in self.pauses.iter().enumerate() {
            let i = i + 1;
            check_node("pause", i, "node", p.node)?;
            if p.at_secs.is_nan() {
                return Err(invalid(format!("[[pause]] #{i}: missing key `at`")));
            }
            if p.duration_secs.is_nan() {
                return Err(invalid(format!("[[pause]] #{i}: missing key `duration`")));
            }
            if !(p.at_secs >= 0.0 && p.at_secs.is_finite()) {
                return Err(invalid(format!(
                    "[[pause]] #{i}: `at` = {} must be >= 0",
                    p.at_secs
                )));
            }
            if !(p.duration_secs > 0.0 && p.duration_secs.is_finite()) {
                return Err(invalid(format!(
                    "[[pause]] #{i}: `duration` = {} must be > 0",
                    p.duration_secs
                )));
            }
            if !(p.slowdown == 0.0 || p.slowdown >= 1.0) {
                return Err(invalid(format!(
                    "[[pause]] #{i}: `slowdown` = {} must be 0 (full pause) or >= 1",
                    p.slowdown
                )));
            }
        }
        Ok(())
    }

    /// Parse a scenario file written in the TOML subset described in
    /// `DESIGN.md`: top-level `key = value` pairs plus `[[degrade]]`,
    /// `[[flap]]`, `[[background]]` and `[[pause]]` arrays of tables with
    /// numeric values. `#` starts a comment. Errors carry the 1-based
    /// source line and name the offending key.
    ///
    /// Parsing checks syntax only; call [`FaultPlan::validate`] against
    /// the target cluster before use.
    pub fn parse_toml(src: &str) -> Result<FaultPlan, LineError> {
        let mut plan = FaultPlan::default();
        // The open `[[section]]`, "" before the first.
        let mut section = "";
        for line in text::lines(src) {
            let line = line.before_comment();
            if let Some(name) = line
                .text
                .strip_prefix("[[")
                .and_then(|s| s.strip_suffix("]]"))
            {
                section = match name.trim() {
                    "degrade" => {
                        plan.degrade.push(LinkDegrade::default());
                        "degrade"
                    }
                    "flap" => {
                        plan.flaps.push(LinkFlap::default());
                        "flap"
                    }
                    "background" => {
                        plan.background.push(Background::default());
                        "background"
                    }
                    "pause" => {
                        plan.pauses.push(Pause::default());
                        "pause"
                    }
                    other => {
                        return Err(line.err(format!(
                            "unknown section `[[{other}]]` (expected degrade, flap, background or pause)"
                        )))
                    }
                };
                continue;
            }
            if line.text.starts_with('[') {
                return Err(line.err(format!(
                    "`{}`: sections must be arrays of tables, e.g. `[[flap]]`",
                    line.text
                )));
            }
            let Some((key, value)) = line.binding() else {
                return Err(line.err(format!(
                    "`{}`: expected `key = value` or `[[section]]`",
                    line.text
                )));
            };
            let num = || line.parse::<f64>(key, value);
            let node = || line.parse::<usize>(key, value);
            let count = || line.parse::<u64>(key, value);
            let unknown = || line.err(format!("unknown key `{key}` in [[{section}]]"));
            match section {
                "degrade" => match (plan.degrade.last_mut(), key) {
                    (Some(d), "node") => d.node = node()?,
                    (Some(d), "rate_factor") => d.rate_factor = num()?,
                    _ => return Err(unknown()),
                },
                "flap" => match (plan.flaps.last_mut(), key) {
                    (Some(fl), "node") => fl.node = node()?,
                    (Some(fl), "from") => fl.from_secs = num()?,
                    (Some(fl), "to") => fl.to_secs = num()?,
                    _ => return Err(unknown()),
                },
                "background" => match (plan.background.last_mut(), key) {
                    (Some(b), "src") => b.src = node()?,
                    (Some(b), "dst") => b.dst = node()?,
                    (Some(b), "bytes") => b.bytes = count()?,
                    (Some(b), "start") => b.start_secs = num()?,
                    (Some(b), "period") => b.period_secs = num()?,
                    (Some(b), "count") => b.count = count()?,
                    _ => return Err(unknown()),
                },
                "pause" => match (plan.pauses.last_mut(), key) {
                    (Some(p), "node") => p.node = node()?,
                    (Some(p), "at") => p.at_secs = num()?,
                    (Some(p), "duration") => p.duration_secs = num()?,
                    (Some(p), "slowdown") => p.slowdown = num()?,
                    _ => return Err(unknown()),
                },
                _ => match key {
                    "loss_prob" => plan.loss_prob = num()?,
                    _ => {
                        return Err(line.err(format!(
                            "unknown top-level key `{key}` (expected `loss_prob`)"
                        )))
                    }
                },
            }
        }
        Ok(plan)
    }
}

/// What kind of injected fault an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transmitted frame was lost to random per-frame loss.
    InjectedLoss,
    /// A frame was lost because a link-flap window was active.
    FlapDrop,
    /// A frame was deferred (or slowed) by a pause window.
    Paused,
    /// A background cross-traffic burst entered the network.
    BackgroundStart,
}

impl FaultKind {
    /// Short label for traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::InjectedLoss => "injected_loss",
            FaultKind::FlapDrop => "flap_drop",
            FaultKind::Paused => "paused",
            FaultKind::BackgroundStart => "background_start",
        }
    }
}

/// One injected-fault occurrence, recorded by the engine for trace marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the occurrence.
    pub at: Time,
    /// Node the fault acted on (the sender for injected losses).
    pub node: NodeId,
    /// What happened.
    pub kind: FaultKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig::ideal(8)
    }

    #[test]
    fn default_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert!(p.validate(&cfg()).is_ok());
    }

    #[test]
    fn parses_full_scenario() {
        let src = "\
# robustness scenario
loss_prob = 0.01

[[degrade]]
node = 3
rate_factor = 0.5

[[flap]]
node = 2
from = 0.1   # seconds
to = 0.25

[[background]]
src = 0
dst = 5
bytes = 65536
start = 0.0
period = 0.01
count = 10

[[pause]]
node = 1
at = 0.05
duration = 0.02
";
        let p = FaultPlan::parse_toml(src).unwrap();
        assert_eq!(p.loss_prob, 0.01);
        assert_eq!(
            p.degrade,
            vec![LinkDegrade {
                node: 3,
                rate_factor: 0.5
            }]
        );
        assert_eq!(
            p.flaps,
            vec![LinkFlap {
                node: 2,
                from_secs: 0.1,
                to_secs: 0.25
            }]
        );
        assert_eq!(p.background[0].bytes, 65536);
        assert_eq!(p.background[0].count, 10);
        assert_eq!(p.pauses[0].slowdown, 0.0);
        assert!(!p.is_empty());
        assert!(p.validate(&cfg()).is_ok());
    }

    /// DESIGN.md's schema block is a scenario users copy verbatim: it must
    /// parse and validate, so the document and the parser cannot drift.
    #[test]
    fn design_md_scenario_parses_and_validates() {
        let design = include_str!("../../../DESIGN.md");
        let block = design
            .split("```toml\n")
            .nth(1)
            .and_then(|rest| rest.split("```").next())
            .expect("DESIGN.md has a ```toml block");
        let p = FaultPlan::parse_toml(block).unwrap_or_else(|e| panic!("{e}"));
        p.validate(&cfg()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            (
                p.degrade.len(),
                p.flaps.len(),
                p.background.len(),
                p.pauses.len()
            ),
            (1, 1, 1, 1),
            "the block shows every section"
        );
    }

    #[test]
    fn parse_errors_name_line_and_key() {
        let e = FaultPlan::parse_toml("loss_prob = banana").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("loss_prob"), "{e}");

        let e = FaultPlan::parse_toml("\n[[flop]]\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("flop"), "{e}");

        let e = FaultPlan::parse_toml("[[flap]]\nnoed = 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("noed"), "{e}");

        let e = FaultPlan::parse_toml("[flap]\n").unwrap_err();
        assert!(e.message.contains("[[flap]]"), "{e}");

        let e = FaultPlan::parse_toml("just some words\n").unwrap_err();
        assert!(e.message.contains("key = value"), "{e}");
    }

    #[test]
    fn validation_rejects_out_of_domain_values() {
        let c = cfg();
        let mut p = FaultPlan {
            loss_prob: 1.5,
            ..FaultPlan::default()
        };
        assert!(p.validate(&c).unwrap_err().message.contains("loss_prob"));
        p.loss_prob = 0.0;

        p.degrade = vec![LinkDegrade {
            node: 99,
            rate_factor: 0.5,
        }];
        let e = p.validate(&c).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        p.degrade = vec![LinkDegrade {
            node: 0,
            rate_factor: 0.0,
        }];
        assert!(p.validate(&c).is_err());
        p.degrade.clear();

        p.flaps = vec![LinkFlap {
            node: 0,
            from_secs: 0.3,
            to_secs: 0.2,
        }];
        assert!(p.validate(&c).is_err());
        p.flaps.clear();

        p.background = vec![Background {
            src: 1,
            dst: 1,
            bytes: 100,
            ..Background::default()
        }];
        assert!(p.validate(&c).unwrap_err().message.contains("differ"));
        p.background.clear();

        p.pauses = vec![Pause {
            node: 0,
            at_secs: 0.0,
            duration_secs: 0.1,
            slowdown: 0.5,
        }];
        assert!(p.validate(&c).unwrap_err().message.contains("slowdown"));
    }

    #[test]
    fn validation_reports_missing_required_keys() {
        let c = cfg();
        let p = FaultPlan::parse_toml("[[degrade]]\nnode = 1\n").unwrap();
        let e = p.validate(&c).unwrap_err();
        assert!(e.message.contains("rate_factor"), "{e}");
        let p = FaultPlan::parse_toml("[[flap]]\nfrom = 0.1\nto = 0.2\n").unwrap();
        let e = p.validate(&c).unwrap_err();
        assert!(e.message.contains("node"), "{e}");
    }
}
