//! First-in first-out communication channels with an optional fault model.
//!
//! Section 2.2.1 of the paper models a distributed system as components that
//! communicate over FIFO message channels; Section 2.2.2 adds that *packet*
//! channels have an optionally-enabled fault model that can drop, duplicate
//! or reorder packets, or fail the link, while the OpenFlow channel between a
//! switch and the controller is reliable and in-order.
//!
//! The channel itself does not decide *when* faults happen — it only reports
//! which faulty transitions are currently enabled; the model checker chooses
//! among them like any other transition, so every fault interleaving is
//! explored systematically rather than sampled.
//!
//! Nor does it know *which* faults its link allows: a [`FaultModel`] is
//! configuration of the scenario, not state of the channel, so whoever
//! enumerates or applies a fault hands the model in. A channel is a queue
//! plus a `failed` bit — which is what lets the model checker keep no
//! channel at all where nothing is queued and nothing has failed.

use crate::fingerprint::{Fingerprint, Fnv64};
use std::collections::VecDeque;
use std::fmt;

/// Which fault classes are enabled on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultModel {
    /// Messages may be silently dropped.
    pub allow_drop: bool,
    /// Messages may be duplicated.
    pub allow_duplicate: bool,
    /// Adjacent messages may be reordered.
    pub allow_reorder: bool,
    /// The link itself may fail (the channel stops delivering).
    pub allow_link_failure: bool,
}

impl FaultModel {
    /// The reliable, in-order model used for the OpenFlow control channel and
    /// (by default, Section 5.2 "we disable optional packet drops and
    /// duplication") for packet channels too.
    pub const RELIABLE: FaultModel = FaultModel {
        allow_drop: false,
        allow_duplicate: false,
        allow_reorder: false,
        allow_link_failure: false,
    };

    /// A lossy model enabling every fault class.
    pub const LOSSY: FaultModel = FaultModel {
        allow_drop: true,
        allow_duplicate: true,
        allow_reorder: true,
        allow_link_failure: true,
    };

    /// True if at least one fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        self.allow_drop || self.allow_duplicate || self.allow_reorder || self.allow_link_failure
    }
}

/// A fault transition that is currently possible on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFault {
    /// Drop the message at the head of the queue.
    DropHead,
    /// Duplicate the message at the head of the queue.
    DuplicateHead,
    /// Swap the first two messages.
    ReorderHead,
    /// Fail the link: all queued and future messages are discarded.
    FailLink,
}

/// A FIFO channel carrying messages of type `T`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoChannel<T> {
    queue: VecDeque<T>,
    failed: bool,
}

impl<T> Default for FifoChannel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoChannel<T> {
    /// Creates an empty channel whose link is up.
    pub const fn new() -> Self {
        FifoChannel {
            queue: VecDeque::new(),
            failed: false,
        }
    }

    /// True if the link has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a message. Messages sent on a failed link are discarded,
    /// mirroring a down physical link.
    pub fn push(&mut self, msg: T) {
        if !self.failed {
            self.queue.push_back(msg);
        }
    }

    /// Dequeues the message at the head of the queue.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Peeks at the head of the queue.
    pub fn peek(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Mutable access to the head of the queue (used by the Byzantine
    /// message mutator to corrupt a message in flight).
    pub fn peek_mut(&mut self) -> Option<&mut T> {
        self.queue.front_mut()
    }

    /// Iterates over queued messages from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }

    /// Fails the link from outside the channel's own fault model: queued
    /// messages are discarded and future pushes are dropped until
    /// [`FifoChannel::restore`]. Models the connection to a crashed
    /// component (a crashed switch's control channel), which is why —
    /// unlike [`ChannelFault::FailLink`] — it does not require
    /// `allow_link_failure`.
    pub fn fail(&mut self) {
        self.failed = true;
        self.queue.clear();
    }

    /// Restores a failed link: the channel is empty and accepts messages
    /// again (messages sent while the link was down stay lost).
    pub fn restore(&mut self) {
        self.failed = false;
    }

    /// The fault transitions `model` enables right now, given the queue
    /// contents. The model checker schedules these alongside the ordinary
    /// deliver transitions.
    pub fn enabled_faults(&self, model: FaultModel) -> impl Iterator<Item = ChannelFault> {
        // A fault, whether the model allows it, and the messages it needs.
        let faults = [
            (ChannelFault::DropHead, model.allow_drop, 1),
            (ChannelFault::DuplicateHead, model.allow_duplicate, 1),
            (ChannelFault::ReorderHead, model.allow_reorder, 2),
            (ChannelFault::FailLink, model.allow_link_failure, 0),
        ];
        let (up, queued) = (!self.failed, self.queue.len());
        faults
            .into_iter()
            .filter(move |&(_, allowed, needs)| up && allowed && queued >= needs)
            .map(|(fault, ..)| fault)
    }

    /// Applies a fault transition. Panics if `model` does not allow the
    /// fault — the model checker only applies faults it obtained from
    /// [`FifoChannel::enabled_faults`] under the same model.
    pub fn apply_fault(&mut self, fault: ChannelFault, model: FaultModel)
    where
        T: Clone,
    {
        match fault {
            ChannelFault::DropHead => {
                assert!(model.allow_drop, "drop fault not enabled");
                self.queue.pop_front();
            }
            ChannelFault::DuplicateHead => {
                assert!(model.allow_duplicate, "duplicate fault not enabled");
                if let Some(head) = self.queue.front().cloned() {
                    self.queue.push_front(head);
                }
            }
            ChannelFault::ReorderHead => {
                assert!(model.allow_reorder, "reorder fault not enabled");
                if self.queue.len() >= 2 {
                    self.queue.swap(0, 1);
                }
            }
            ChannelFault::FailLink => {
                assert!(model.allow_link_failure, "link failure not enabled");
                self.failed = true;
                self.queue.clear();
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for FifoChannel<T> {
    fn fingerprint(&self, hasher: &mut Fnv64) {
        hasher.write_bool(self.failed);
        hasher.write_usize(self.queue.len());
        for m in &self.queue {
            m.fingerprint(hasher);
        }
    }
}

impl<T: fmt::Display> fmt::Display for FifoChannel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failed {
            return write!(f, "<failed link>");
        }
        write!(f, "[{} queued]", self.queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint_of;

    #[test]
    fn fifo_ordering() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        assert!(ch.is_empty());
        ch.push(1);
        ch.push(2);
        ch.push(3);
        assert_eq!(ch.len(), 3);
        assert_eq!(ch.peek(), Some(&1));
        assert_eq!(ch.pop(), Some(1));
        assert_eq!(ch.pop(), Some(2));
        assert_eq!(ch.pop(), Some(3));
        assert_eq!(ch.pop(), None);
    }

    #[test]
    fn reliable_channel_has_no_fault_transitions() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        ch.push(1);
        ch.push(2);
        assert_eq!(ch.enabled_faults(FaultModel::RELIABLE).count(), 0);
        assert!(!FaultModel::RELIABLE.any_enabled());
    }

    #[test]
    fn lossy_channel_exposes_faults_dependent_on_queue() {
        use ChannelFault::{DropHead, DuplicateHead, FailLink, ReorderHead};
        let lossy =
            |ch: &FifoChannel<u32>| ch.enabled_faults(FaultModel::LOSSY).collect::<Vec<_>>();
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        // Empty queue: only link failure is possible.
        assert_eq!(lossy(&ch), vec![FailLink]);
        ch.push(1);
        assert_eq!(lossy(&ch), vec![DropHead, DuplicateHead, FailLink]);
        ch.push(2);
        assert_eq!(
            lossy(&ch),
            vec![DropHead, DuplicateHead, ReorderHead, FailLink]
        );
        // A model allows what it allows, whatever is queued.
        let duplicates = FaultModel {
            allow_duplicate: true,
            ..FaultModel::RELIABLE
        };
        assert_eq!(
            ch.enabled_faults(duplicates).collect::<Vec<_>>(),
            vec![DuplicateHead]
        );
    }

    #[test]
    fn drop_duplicate_reorder_semantics() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        ch.push(1);
        ch.push(2);
        ch.apply_fault(ChannelFault::ReorderHead, FaultModel::LOSSY);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![2, 1]);
        ch.apply_fault(ChannelFault::DuplicateHead, FaultModel::LOSSY);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![2, 2, 1]);
        ch.apply_fault(ChannelFault::DropHead, FaultModel::LOSSY);
        assert_eq!(ch.iter().copied().collect::<Vec<_>>(), vec![2, 1]);
    }

    #[test]
    fn link_failure_discards_everything() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        ch.push(1);
        ch.apply_fault(ChannelFault::FailLink, FaultModel::LOSSY);
        assert!(ch.is_failed());
        assert!(ch.is_empty());
        ch.push(7);
        assert!(
            ch.is_empty(),
            "a failed link silently discards new messages"
        );
        assert_eq!(ch.enabled_faults(FaultModel::LOSSY).count(), 0);
    }

    #[test]
    fn external_fail_and_restore() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        ch.push(1);
        ch.fail();
        assert!(ch.is_failed());
        assert!(ch.is_empty());
        ch.push(2);
        assert!(ch.is_empty(), "pushes while failed are discarded");
        ch.restore();
        assert!(!ch.is_failed());
        ch.push(3);
        assert_eq!(ch.pop(), Some(3));
    }

    #[test]
    #[should_panic(expected = "drop fault not enabled")]
    fn applying_disabled_fault_panics() {
        let mut ch: FifoChannel<u32> = FifoChannel::new();
        ch.push(1);
        ch.apply_fault(ChannelFault::DropHead, FaultModel::RELIABLE);
    }

    #[test]
    fn fingerprint_covers_contents_and_failure() {
        let mut a: FifoChannel<u32> = FifoChannel::new();
        let mut b: FifoChannel<u32> = FifoChannel::new();
        a.push(1);
        b.push(2);
        assert_ne!(fingerprint_of(&a), fingerprint_of(&b));
        let mut c: FifoChannel<u32> = FifoChannel::new();
        c.push(1);
        let before = fingerprint_of(&c);
        c.apply_fault(ChannelFault::FailLink, FaultModel::LOSSY);
        assert_ne!(before, fingerprint_of(&c));
    }
}
