//! `graphprof-serve` — a continuous-profiling collection server with
//! remote kgmon control.
//!
//! The paper profiles one run of one program; its retrospective describes
//! profiling a *system that must not be taken down*, controlled by the
//! kgmon tool. This crate scales both ideas out over TCP, on `std::net`
//! alone:
//!
//! * **data plane** — many concurrent clients upload `gmon.out` blobs
//!   into named series ([`SeriesStore`]). Each upload is validated with
//!   the existing fallible parsers and linter, then folded into a running
//!   sum ([`ProfileAccumulator`](graphprof::ProfileAccumulator)), so the
//!   live aggregate is **byte-identical** to an offline `graphprof -s`
//!   over the same blobs in canonical (series, sequence-number) order —
//!   regardless of arrival order or client interleaving;
//! * **control plane** — [`KgmonVerb`] remotes the retrospective's kgmon
//!   verbs (on/off, moncontrol address ranges, extract, reset) to
//!   profiled VMs hosted inside the server;
//! * **wire** — a small length-prefixed, versioned frame protocol
//!   ([`frame`]) with one codec shared by server and clients; malformed
//!   input is rejected per-connection and never reaches the accept loop.
//!   Streaming clients can ship each window as an incremental delta
//!   against the last acknowledged one ([`DeltaUploader`]); the server
//!   reconstitutes the full window before folding, so delta uploads
//!   change wire bytes, never aggregates.
//!
//! See `docs/SERVER.md` for the frame layout, the verb set, the limits,
//! and the determinism contract.

pub mod client;
pub mod fault;
pub mod frame;
mod group;
pub mod proto;
pub mod server;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use client::{
    Client, ClientError, DeltaOutcome, DeltaUploader, ResilientClient, RetryPolicy, UploadMode,
};
pub use fault::{FaultPlan, FaultSpec};
pub use frame::{Frame, WireError, DEFAULT_MAX_PAYLOAD};
pub use proto::{KgmonVerb, MonRange, QueryKind, RegressScope, ReportFormat, Request, Response};
pub use server::{DrainSummary, Server, ServerConfig, ServerHandle};
pub use store::{CheckpointReport, RejectReason, SeriesStats, SeriesStore, StoreOptions};
pub use wal::{StoreRecovery, Wal, WalRecord, WalRecovery};
