//! # st-serve
//!
//! The deployment layer of the PriSTI reproduction (the production-scale
//! direction named in ROADMAP.md): **checkpointing** — a versioned binary
//! format (`st-ckpt/1`) that round-trips a [`pristi_core::train::TrainedModel`]
//! bit-for-bit — and **serving** — a multi-worker [`ImputeService`] whose
//! replica pool shares one checkpoint via `Arc`, serves one request per
//! worker turn, and sheds best-effort load under pressure ([`AdmissionTier`]),
//! plus the sliding-window [`stream`] engine. Both JSONL modes of
//! `pristi serve` run on one pipelined front end ([`wire`]) — all without
//! changing any request's results.
//!
//! Both halves lean on the workspace's determinism contract: checkpoint
//! round-trips reproduce in-memory imputations exactly, and the worker count
//! is invisible because every request owns an RNG stream keyed by its id.
//! Everything malformed — corrupt files, wrong-shape windows, full queues,
//! missed deadlines, over-long lines — is a typed
//! [`pristi_core::PristiError`] or error line, never a panic.
//!
//! Serving rides the prior-cached inference path (DESIGN.md §11): each
//! request builds one [`pristi_core::PriorCache`] — the step-invariant
//! attention weights, adaptive adjacency, and auxiliary embedding — so every
//! denoise step runs only the noise-dependent half of the network.

#![deny(missing_docs)]

pub mod ckpt;
pub mod service;
pub mod stream;
pub mod wire;

pub use ckpt::{
    checkpoint_from_bytes, checkpoint_to_bytes, load_checkpoint, save_checkpoint, CKPT_MAGIC,
    CKPT_VERSION,
};
pub use service::{
    request_rng, AdmissionTier, FaultHook, ImputeRequest, ImputeService, ServeConfig,
};
pub use stream::{
    run_stream, stream_rng, StreamConfig, StreamServerConfig, StreamSession, StreamSummary, Tick,
    TickOutput,
};
pub use wire::{parse_cell, parse_request, run_requests, ParseFailure, PIPELINE_DEPTH};
