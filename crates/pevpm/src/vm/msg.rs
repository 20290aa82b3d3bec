//! What the engine's scoreboard holds per message in flight: the entry
//! ([`SbMsg`]) and, as its slab slot's side storage, its times in every
//! lane ([`MsgLanes`]).

use crate::model::MsgKind;
use pevpm_dist::CellParts;

/// A scoreboard entry: one message in flight, as every lane sees it. Its
/// times live in its slab slot's [`MsgLanes`], and pair identity and FIFO
/// position in the [`crate::scoreboard::PairFifo`] index.
#[derive(Debug, Clone, Copy)]
pub(super) struct SbMsg {
    pub(super) from: usize,
    pub(super) size: f64,
    pub(super) kind: MsgKind,
    pub(super) sender_blocked: bool,
    /// Whether `arrival` has been sampled yet (by a match phase).
    pub(super) arrived: bool,
}

/// A message's times in `W` replica lanes: the side storage of its slab
/// slot, written in place at post and at match and never moved. A slot
/// keeps it for its next message.
#[derive(Debug)]
pub(super) struct MsgLanes<'m, const W: usize> {
    pub(super) depart: [f64; W],
    /// The message's Monte-Carlo draw (probability coordinate). Shared by
    /// the sender-side cost and the transit-time lookup so that both land
    /// on the same mode of a multi-modal distribution.
    pub(super) u: [f64; W],
    /// What inverting `u` for the sender-side cost left behind: the match
    /// phase inverts again only in table cells the post did not touch.
    pub(super) parts: CellParts<'m, W>,
    pub(super) arrival: [f64; W],
}

impl<const W: usize> Default for MsgLanes<'_, W> {
    fn default() -> Self {
        MsgLanes {
            depart: [0.0; W],
            u: [0.0; W],
            parts: CellParts::default(),
            arrival: [0.0; W],
        }
    }
}
