//! Messages, tags, and per-rank mailboxes.
//!
//! Payloads travel as `Vec<f64>`, like the collectives hub's; a
//! payload of `len` values costs `8 × len` bytes on the wire.
//! Matching follows MPI semantics: a receive names a source rank and a
//! tag; messages between a fixed (source, destination) pair are delivered
//! in send order (non-overtaking), which together with SPMD program order
//! makes matching deterministic.

use crate::{lock, wait_while};
use hetsim_cluster::time::SimTime;
use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::{Condvar, Mutex};

/// Message tag, used to disambiguate concurrent streams between the same
/// pair of ranks (pivot rows vs. result rows, say).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u32);

impl Tag {
    /// Conventional tag for bulk data distribution.
    pub const DATA: Tag = Tag(0);
}

/// A message in flight.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub source: usize,
    /// Matching tag.
    pub tag: Tag,
    /// Virtual time at which the sender started occupying the wire.
    /// A receiver already blocked at this point is idle-waiting (not
    /// transferring) until then — the trace layer splits the two.
    pub sent_at: SimTime,
    /// Virtual time at which the last byte arrives at the receiver.
    pub arrival: SimTime,
    /// Payload values.
    pub payload: Vec<f64>,
}

/// Mailbox: the inbound message queue of one rank.
///
/// One mailbox per rank; senders push, the owning rank blocks on
/// [`Mailbox::recv_matching`]. Per-(source, tag) order is preserved
/// because each sender pushes under the same lock in its program order.
#[derive(Debug, Default)]
pub struct Mailbox {
    inner: Mutex<VecDeque<Message>>,
    available: Condvar,
    aborted: AtomicBool,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Deposits a message and wakes any waiting receiver.
    pub fn push(&self, msg: Message) {
        let mut q = lock(&self.inner);
        q.push_back(msg);
        // notify_all: a single receiver thread owns this mailbox, but a
        // waiter may be matching on a different (source, tag) than the
        // message just pushed, so waking everyone is the safe choice.
        self.available.notify_all();
    }

    /// Blocks until a message from `source` with `tag` is available and
    /// removes the earliest such message.
    pub fn recv_matching(&self, source: usize, tag: Tag) -> Message {
        let mut pos = None;
        let mut q = wait_while(&self.available, lock(&self.inner), &self.aborted, |q| {
            pos = q.iter().position(|m| m.source == source && m.tag == tag);
            pos.is_none()
        });
        q.remove(pos.expect("the wait returns on a match")).expect("position is valid")
    }

    /// Wakes a receiver blocked here, and any later one, to unwind: a
    /// peer rank panicked, so the awaited message may never come.
    pub(crate) fn abort(&self) {
        crate::abort(&self.inner, &self.available, &self.aborted);
    }

    /// Number of queued messages (for diagnostics and leak checks).
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// True when no messages are queued — used by the runtime's
    /// end-of-program leak check.
    pub fn is_empty(&self) -> bool {
        lock(&self.inner).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn msg(source: usize, tag: Tag, arrival_s: f64) -> Message {
        Message {
            source,
            tag,
            sent_at: SimTime::from_secs(arrival_s * 0.5),
            arrival: SimTime::from_secs(arrival_s),
            payload: vec![arrival_s],
        }
    }

    #[test]
    fn mailbox_matches_source_and_tag() {
        let mb = Mailbox::new();
        mb.push(msg(1, Tag::DATA, 1.0));
        mb.push(msg(2, Tag::DATA, 2.0));
        mb.push(msg(1, Tag(1), 3.0));
        let got = mb.recv_matching(1, Tag(1));
        assert_eq!(got.arrival, SimTime::from_secs(3.0));
        assert_eq!(mb.len(), 2);
        assert_eq!(mb.recv_matching(2, Tag::DATA).arrival, SimTime::from_secs(2.0));
        assert_eq!(mb.recv_matching(1, Tag::DATA).arrival, SimTime::from_secs(1.0));
        assert!(mb.is_empty());
    }

    #[test]
    fn mailbox_preserves_per_pair_fifo() {
        let mb = Mailbox::new();
        mb.push(msg(1, Tag::DATA, 1.0));
        mb.push(msg(1, Tag::DATA, 2.0));
        mb.push(msg(1, Tag::DATA, 3.0));
        assert_eq!(mb.recv_matching(1, Tag::DATA).arrival, SimTime::from_secs(1.0));
        assert_eq!(mb.recv_matching(1, Tag::DATA).arrival, SimTime::from_secs(2.0));
        assert_eq!(mb.recv_matching(1, Tag::DATA).arrival, SimTime::from_secs(3.0));
        assert!(mb.is_empty());
    }

    #[test]
    fn recv_blocks_until_push() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv_matching(7, Tag(2)));
        // Give the receiver a chance to block, then deliver.
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(msg(7, Tag(2), 9.0));
        let got = handle.join().expect("receiver thread");
        assert_eq!(got.source, 7);
    }

    #[test]
    fn a_panicked_holder_leaves_the_mailbox_working() {
        let mb = Mailbox::new();
        let bug = std::panic::catch_unwind(|| {
            let _q = lock(&mb.inner);
            panic!("protocol bug while holding the mailbox");
        });
        assert!(bug.is_err() && mb.inner.is_poisoned());
        mb.push(msg(5, Tag::DATA, 4.0));
        assert_eq!(mb.recv_matching(5, Tag::DATA).arrival, SimTime::from_secs(4.0));
        assert!(mb.is_empty());
    }

    #[test]
    fn recv_skips_non_matching_messages() {
        let mb = Arc::new(Mailbox::new());
        mb.push(msg(3, Tag::DATA, 1.0));
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || mb2.recv_matching(4, Tag::DATA));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.push(msg(4, Tag::DATA, 2.0));
        assert_eq!(handle.join().unwrap().source, 4);
        // The non-matching message is still queued.
        assert_eq!(mb.len(), 1);
        assert_eq!(mb.recv_matching(3, Tag::DATA).arrival, SimTime::from_secs(1.0));
    }
}
