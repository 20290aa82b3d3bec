//! Message, request and call types shared between the rank API and the
//! engine.

use bytes::Bytes;
use pevpm_netsim::{Dur, Time};

/// A message tag. High values are reserved for collectives.
pub type Tag = u64;

/// First tag reserved for internal collective algorithms; user tags must be
/// below this.
pub const COLLECTIVE_TAG_BASE: Tag = 1 << 40;

/// Wildcard accepted by receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcSel {
    /// Match a specific source rank.
    Rank(usize),
    /// Match any source (MPI_ANY_SOURCE).
    Any,
}

impl From<usize> for SrcSel {
    fn from(r: usize) -> Self {
        SrcSel::Rank(r)
    }
}

/// Tag selector for receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagSel {
    /// Match a specific tag.
    Tag(Tag),
    /// Match any tag (MPI_ANY_TAG).
    Any,
}

impl From<Tag> for TagSel {
    fn from(t: Tag) -> Self {
        TagSel::Tag(t)
    }
}

/// Envelope information returned with every received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgMeta {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Logical message size in bytes (may exceed the payload's length when
    /// the sender used `send_size`-style calls with synthetic sizes).
    pub bytes: u64,
}

/// Handle for a nonblocking operation.
///
/// The number is the key of the request's slot in the engine, which is
/// recycled once the request has been waited on (or tested complete);
/// the key's generation half makes a second `wait` on the same handle
/// fail rather than find the slot's next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Request(pub u64);

/// The MPI calls a rank makes of the engine.
#[derive(Debug)]
pub(crate) enum Call {
    /// Advance the rank's virtual clock by a computation time.
    Compute(Dur),
    /// Blocking standard-mode send.
    Send {
        dst: usize,
        tag: Tag,
        bytes: u64,
        payload: Bytes,
    },
    /// Nonblocking send; replies with a `Request`.
    Isend {
        dst: usize,
        tag: Tag,
        bytes: u64,
        payload: Bytes,
    },
    /// Blocking receive.
    Recv { src: SrcSel, tag: TagSel },
    /// Nonblocking receive; replies with a `Request`.
    Irecv { src: SrcSel, tag: TagSel },
    /// Block until the request completes.
    Wait { req: Request },
    /// Nonblocking completion test; replies immediately.
    Test { req: Request },
}

/// The engine's answers.
#[derive(Debug)]
pub(crate) enum Reply {
    /// Operation finished; the rank's clock is now `clock`.
    Ok { clock: Time },
    /// A nonblocking operation was posted.
    Posted { clock: Time, req: Request },
    /// A receive completed.
    Msg {
        clock: Time,
        meta: MsgMeta,
        payload: Bytes,
    },
    /// A `Test` result: `Some` if the request completed.
    TestResult {
        clock: Time,
        done: Option<Option<(MsgMeta, Bytes)>>,
    },
}

impl Reply {
    /// The reply that completes a blocking call at `clock`: the received
    /// message, or plain success for a send.
    pub(crate) fn done(clock: Time, msg: Option<(MsgMeta, Bytes)>) -> Reply {
        match msg {
            Some((meta, payload)) => Reply::Msg {
                clock,
                meta,
                payload,
            },
            None => Reply::Ok { clock },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_conversions() {
        assert_eq!(SrcSel::from(3), SrcSel::Rank(3));
        assert_eq!(TagSel::from(9u64), TagSel::Tag(9));
    }

    #[test]
    fn collective_tags_leave_user_space() {
        assert!(COLLECTIVE_TAG_BASE > u32::MAX as u64);
    }
}
