//! Execution tracing: per-rank event timelines of measured runs.
//!
//! When enabled (`WorldConfig::record_trace`), every MPI call a rank makes
//! is recorded with its virtual start/end times. The resulting timelines
//! are the *measured* counterpart of PEVPM's per-directive loss
//! attribution (§5): they decompose a run into computation, send overhead
//! and blocked-waiting time, so predicted and measured loss breakdowns can
//! be compared — and they make "where does the time go?" questions
//! answerable for any rank program.

use pevpm_netsim::{FaultEvent, Time};
use pevpm_obs::chrome::{ChromeTrace, Span, PID_MEASURED};

/// Conventional pid for injected-fault marks (one thread row per node).
pub const PID_FAULTS: u32 = 3;

/// What kind of operation an event covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// `compute` / `compute_secs`.
    Compute,
    /// Blocking send (includes rendezvous blocking time).
    Send,
    /// Nonblocking send post.
    Isend,
    /// Blocking receive.
    Recv,
    /// Nonblocking receive post.
    Irecv,
    /// `wait` on a request.
    Wait,
}

/// One traced operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Operation kind.
    pub kind: TraceKind,
    /// Virtual time the call was made.
    pub start: Time,
    /// Virtual time the call returned.
    pub end: Time,
    /// Peer rank for point-to-point operations.
    pub peer: Option<usize>,
    /// Message size in bytes (0 for compute/wait).
    pub bytes: u64,
    /// True if the call was issued from inside a collective algorithm.
    pub in_collective: bool,
}

impl TraceEvent {
    /// Event duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end.since(self.start).as_secs_f64()
    }
}

/// Aggregated per-rank breakdown of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankBreakdown {
    /// Seconds spent in `compute`.
    pub compute: f64,
    /// Seconds spent in blocking sends + nonblocking send posts.
    pub send: f64,
    /// Seconds blocked in receives and waits.
    pub blocked: f64,
    /// Seconds inside collective operations (subset of the above).
    pub collective: f64,
    /// Number of point-to-point messages initiated.
    pub messages: u64,
}

impl RankBreakdown {
    /// Total accounted time.
    pub fn total(&self) -> f64 {
        self.compute + self.send + self.blocked
    }

    /// Fraction of accounted time spent communicating (send + blocked).
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total();
        if t <= 0.0 {
            0.0
        } else {
            (self.send + self.blocked) / t
        }
    }
}

/// Compute per-rank breakdowns from raw traces.
pub fn breakdown(traces: &[Vec<TraceEvent>]) -> Vec<RankBreakdown> {
    traces
        .iter()
        .map(|events| {
            let mut b = RankBreakdown::default();
            for e in events {
                let d = e.duration();
                match e.kind {
                    TraceKind::Compute => b.compute += d,
                    TraceKind::Send | TraceKind::Isend => {
                        b.send += d;
                        b.messages += 1;
                    }
                    TraceKind::Recv | TraceKind::Irecv | TraceKind::Wait => b.blocked += d,
                }
                if e.in_collective {
                    b.collective += d;
                }
            }
            b
        })
        .collect()
}

impl TraceKind {
    /// Lower-case operation name (Chrome-trace slice name / category).
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Compute => "compute",
            TraceKind::Send => "send",
            TraceKind::Isend => "isend",
            TraceKind::Recv => "recv",
            TraceKind::Irecv => "irecv",
            TraceKind::Wait => "wait",
        }
    }
}

/// Convert measured per-rank timelines into a Chrome `trace_event` trace,
/// under the workspace convention **pid 2 = "mpisim measured"** with one
/// thread row per rank. Merge with
/// `pevpm::trace_export::chrome_trace` output to view predicted and
/// measured timelines side by side in `chrome://tracing` / Perfetto.
pub fn chrome_trace(traces: &[Vec<TraceEvent>]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_process(PID_MEASURED, "mpisim measured");
    for (r, events) in traces.iter().enumerate() {
        trace.name_thread(PID_MEASURED, r as u32, &format!("rank {r}"));
        for e in events {
            let name = e.kind.name();
            let mut args = Vec::new();
            if let Some(p) = e.peer {
                args.push(("peer".to_string(), p.to_string()));
            }
            if e.bytes > 0 {
                args.push(("bytes".to_string(), e.bytes.to_string()));
            }
            trace.push(Span {
                pid: PID_MEASURED,
                tid: r as u32,
                name: if e.in_collective {
                    format!("{name} [coll]")
                } else {
                    name.to_string()
                },
                cat: name.to_string(),
                ts_us: e.start.as_secs_f64() * 1e6,
                dur_us: e.duration() * 1e6,
                args,
            });
        }
    }
    trace
}

/// Convert injected-fault occurrences into Chrome-trace marks under
/// **pid 3 = "fault injection"**, one thread row per affected node.
/// Merged alongside the predicted (pid 1) and measured (pid 2) timelines,
/// the marks show *when* the machine was being degraded — e.g. which
/// blocked-receive spans line up with a link-flap window.
pub fn fault_marks(events: &[FaultEvent]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    if events.is_empty() {
        return trace;
    }
    trace.name_process(PID_FAULTS, "fault injection");
    let mut named: Vec<usize> = events.iter().map(|e| e.node).collect();
    named.sort_unstable();
    named.dedup();
    for n in named {
        trace.name_thread(PID_FAULTS, n as u32, &format!("node {n}"));
    }
    for e in events {
        trace.push(Span {
            pid: PID_FAULTS,
            tid: e.node as u32,
            name: e.kind.name().to_string(),
            cat: "fault".to_string(),
            ts_us: e.at.as_secs_f64() * 1e6,
            dur_us: 0.0,
            args: Vec::new(),
        });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, start: u64, end: u64, coll: bool) -> TraceEvent {
        TraceEvent {
            kind,
            start: Time(start),
            end: Time(end),
            peer: Some(1),
            bytes: 8,
            in_collective: coll,
        }
    }

    #[test]
    fn breakdown_sums_by_kind() {
        let traces = vec![vec![
            ev(TraceKind::Compute, 0, 1_000_000_000, false),
            ev(TraceKind::Send, 1_000_000_000, 1_100_000_000, false),
            ev(TraceKind::Recv, 1_100_000_000, 1_600_000_000, false),
            ev(TraceKind::Wait, 1_600_000_000, 1_700_000_000, true),
        ]];
        let b = breakdown(&traces);
        assert!((b[0].compute - 1.0).abs() < 1e-12);
        assert!((b[0].send - 0.1).abs() < 1e-12);
        assert!((b[0].blocked - 0.6).abs() < 1e-12);
        assert!((b[0].collective - 0.1).abs() < 1e-12);
        assert_eq!(b[0].messages, 1);
        assert!((b[0].comm_fraction() - 0.7 / 1.7).abs() < 1e-12);
    }

    #[test]
    fn fault_marks_render_one_row_per_node() {
        use pevpm_netsim::{FaultKind, Time as NTime};
        let events = vec![
            FaultEvent {
                at: NTime(1_000_000),
                node: 2,
                kind: FaultKind::InjectedLoss,
            },
            FaultEvent {
                at: NTime(2_000_000),
                node: 2,
                kind: FaultKind::FlapDrop,
            },
            FaultEvent {
                at: NTime(0),
                node: 0,
                kind: FaultKind::BackgroundStart,
            },
        ];
        let t = fault_marks(&events);
        assert_eq!(t.len(), 3);
        let js = t.to_json();
        assert_eq!(pevpm_obs::chrome::validate(&js), Ok(3));
        assert!(js.contains("fault injection"));
        assert!(js.contains("injected_loss"));
        assert!(js.contains("node 2"));
        assert!(fault_marks(&[]).is_empty(), "no plan, no marks");
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = breakdown(&[vec![]]);
        assert_eq!(b[0], RankBreakdown::default());
        assert_eq!(b[0].comm_fraction(), 0.0);
    }

    #[test]
    fn chrome_export_is_schema_valid_and_carries_metadata() {
        let traces = vec![
            vec![
                ev(TraceKind::Compute, 0, 1_000_000, false),
                ev(TraceKind::Send, 1_000_000, 1_500_000, false),
            ],
            vec![ev(TraceKind::Recv, 0, 1_500_000, true)],
        ];
        let trace = chrome_trace(&traces);
        assert_eq!(trace.len(), 3);
        let js = trace.to_json();
        assert_eq!(pevpm_obs::chrome::validate(&js), Ok(3));
        assert!(js.contains("mpisim measured"));
        assert!(js.contains("rank 1"));
        assert!(js.contains("recv [coll]"));
        assert!(js.contains("\"peer\": \"1\""));
    }
}
