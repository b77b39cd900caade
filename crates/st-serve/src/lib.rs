//! # st-serve
//!
//! The deployment layer of the PriSTI reproduction (the production-scale
//! direction named in ROADMAP.md): **checkpointing** — a versioned binary
//! format (`st-ckpt/1`) that round-trips a [`pristi_core::train::TrainedModel`]
//! bit-for-bit — and **serving** — a micro-batching, multi-worker
//! [`ImputeService`] whose replica pool shares one checkpoint via `Arc`,
//! coalesces concurrent imputation requests into batched reverse passes, and
//! sheds best-effort load under pressure ([`AdmissionTier`]) — all without
//! changing any request's results.
//!
//! Both halves lean on the workspace's determinism contract: checkpoint
//! round-trips reproduce in-memory imputations exactly, and batching is
//! invisible because every request owns an RNG stream keyed by its id and
//! the batched engine is slice-exact. Everything malformed — corrupt files,
//! wrong-shape windows, full queues, missed deadlines — is a typed
//! [`pristi_core::PristiError`], never a panic.
//!
//! Batched serving also rides the prior-cached inference path (DESIGN.md
//! §11): each coalesced batch builds one [`pristi_core::PriorCache`] — the
//! step-invariant attention weights, adaptive adjacency, and auxiliary
//! embedding, computed once per request — so every denoise step runs only
//! the noise-dependent half of the network.

#![deny(missing_docs)]

pub mod ckpt;
pub mod service;
pub mod stream;

pub use ckpt::{
    checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint, CKPT_MAGIC,
    CKPT_VERSION,
};
pub use service::{
    request_rng, AdmissionTier, FaultHook, ImputeRequest, ImputeService, ServeConfig,
};
pub use stream::{
    parse_cell, run_stream, stream_rng, StreamConfig, StreamServerConfig, StreamSession, StreamSummary, Tick,
    TickOutput,
};
