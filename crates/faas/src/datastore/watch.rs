//! Watch channels: prefix-scoped change feeds.

use std::sync::mpsc::{Receiver, Sender};

use super::kv::Revision;

/// What happened to a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchEventKind {
    /// The key was created or its value replaced.
    Put,
    /// The key was removed (explicitly or by lease expiry).
    Delete,
}

/// One change notification.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchEvent {
    /// Put or delete.
    pub kind: WatchEventKind,
    /// The affected key.
    pub key: String,
    /// The value after a put; empty for deletes.
    pub value: Vec<u8>,
    /// The store revision at which the change happened.
    pub revision: Revision,
}

/// Receiving half of a watch; events arrive in revision order.
#[derive(Debug)]
pub struct Watcher {
    pub(super) prefix: String,
    pub(super) rx: Receiver<WatchEvent>,
}

impl Watcher {
    /// The prefix this watcher subscribed to.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Pops the next pending event without blocking.
    pub fn try_next(&self) -> Option<WatchEvent> {
        self.rx.try_recv().ok()
    }

    /// Drains all pending events.
    pub fn drain(&self) -> Vec<WatchEvent> {
        std::iter::from_fn(|| self.try_next()).collect()
    }
}

/// Sending half, held by the store.
#[derive(Debug)]
pub(super) struct WatchSink {
    pub(super) prefix: String,
    pub(super) tx: Sender<WatchEvent>,
}

impl WatchSink {
    /// Delivers the event if the key matches; reports whether the receiver
    /// is still alive so dead watchers can be pruned.
    pub(super) fn offer(&self, event: &WatchEvent) -> bool {
        if !event.key.starts_with(&self.prefix) {
            return true;
        }
        self.tx.send(event.clone()).is_ok()
    }
}
