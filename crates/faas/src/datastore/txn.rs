//! Compare-and-swap transactions (etcd's `Txn`).

use super::kv::Revision;

/// A guard evaluated against the current store state.
#[derive(Debug, Clone, PartialEq)]
pub enum Compare {
    /// True iff the key exists.
    Exists(String),
    /// True iff the key is absent.
    NotExists(String),
    /// True iff the key exists with exactly this value.
    ValueEquals(String, Vec<u8>),
    /// True iff the key's last-modification revision equals this.
    ModRevisionEquals(String, Revision),
}

/// A mutation applied when the guards pass (or the `else` branch).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Write a key.
    Put(String, Vec<u8>),
    /// Remove a key.
    Delete(String),
}

/// Outcome of a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnResult {
    /// Whether all compares held (the `then` branch ran).
    pub succeeded: bool,
    /// The revision after the transaction (unchanged if no ops ran).
    pub revision: Revision,
}
