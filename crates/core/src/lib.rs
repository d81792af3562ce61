//! # pstorm — Profile Storage and Matching for feedback-based MapReduce tuning
//!
//! The paper's contribution: a profile **store** that organizes execution
//! profiles in an extensible column-family data model (Chapter 5), and a
//! profile **matcher** that serves accurate profiles even for previously
//! unseen jobs via multi-stage filtering and map/reduce profile
//! composition (Chapter 4). The [`daemon`] module wires both into the
//! Chapter-3 workflow: sample one map task → match → tune with the
//! Starfish-style CBO, or profile-and-store on a miss.
//!
//! * [`store`] — the Table 5.1 HBase data model over [`cfstore`], with
//!   pushdown filtering and min/max normalization maintenance.
//! * [`matcher`] — the Fig. 4.4 multi-stage matching workflow.
//! * [`daemon`] — the end-to-end PStorM daemon.
//! * [`service`] — the concurrent multi-tenant front-end over the
//!   daemon: bounded queue, admission control, per-tenant circuit
//!   breakers (DESIGN.md §14).
//! * [`codec`] — cell-value encodings for profiles and CFGs.
//!
//! Every subsystem records spans, counters, and events into a shared
//! deterministic [`obs::Registry`] when one is installed via
//! [`PStorM::set_obs`] (off by default); see DESIGN.md §10 and the
//! `trace_report` binary for the rendered per-submission span tree.

pub mod altmodels;
pub mod codec;
pub mod daemon;
pub mod explain;
pub mod extensions;
pub mod matcher;
pub mod service;
pub mod store;
pub mod workflow;

pub use altmodels::{OpenTsdbModel, PrefixModel, ProfileLayout, TwoTableModel};
pub use cfstore::{ReshardPhase, ReshardStatus, Topology};
pub use daemon::{DaemonError, PStorM, SubmissionOutcome, SubmissionReport};
pub use explain::{explain, Explanation};
pub use extensions::{statics_with_params, transfer_profile};
pub use matcher::{
    match_profile, MatchFailure, MatchResult, MatcherConfig, Side, SideMatch, SubmittedJob,
};
pub use service::{DeadLetter, ServiceConfig, ServiceOutcome, Ticket, TuningService};
pub use store::{
    ColumnarIndex, DynamicRow, NormalizationBounds, ProfileStore, ProfileStoreError, StoredStatics,
};
pub use workflow::{ChainReport, ChainStage};
