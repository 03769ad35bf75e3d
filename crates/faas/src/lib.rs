//! `gfaas-faas` — the FaaS framework substrate.
//!
//! The paper builds its three GPU components on top of an existing FaaS
//! platform (OpenFaaS on Kubernetes, with etcd as the metadata store —
//! Figs 1 and 2). This crate provides that platform surface:
//!
//! * [`datastore`] — an etcd-like versioned key-value store: monotone
//!   revisions, prefix ranges, compare-and-swap transactions, watches, and
//!   TTL leases. Single-process and mutex-serialised; consensus is
//!   orthogonal to everything the paper measures (DESIGN.md §2).
//! * [`function`] — function specs (the "Dockerfile" with the GPU-enable
//!   flag), invocations, and results.
//! * [`gateway`] — function CRUD and invocation routing. For GPU-enabled
//!   functions it performs the paper's interface replacement: the
//!   function's model-load/predict calls are redirected to a
//!   [`gateway::Dispatcher`] (the GPU scheduler) instead of executing in
//!   the container.
//! * [`watchdog`] — runs the function body in its container and records
//!   execution metrics to the datastore.
//! * [`container`] — container lifecycle and per-function scaling.
//! * [`mirror`] — a cluster [`gfaas_obs::Recorder`] that publishes GPU
//!   status, LRU lists, and request latencies into the datastore, as the
//!   paper's components do through etcd (Fig 2).

#![warn(missing_docs)]

pub mod container;
pub mod datastore;
pub mod function;
pub mod gateway;
pub mod mirror;
pub mod watchdog;

pub use datastore::{Datastore, Revision, WatchEvent};
pub use function::{FunctionSpec, Invocation, InvocationResult, Runtime};
pub use gateway::{Dispatcher, Gateway, GatewayError};
pub use mirror::DatastoreMirror;
