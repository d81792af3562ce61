//! # staticanalysis — static job features for PStorM-rs
//!
//! The Rust analogue of PStorM's Soot-based bytecode analysis: control
//! flow graph extraction from the UDF IR ([`mod@cfg`]) and the Table 4.3
//! static feature vectors ([`features`]). Because the CFG is derived from
//! the same IR the simulator interprets, the CFG↔CPU-cost correlation the
//! paper exploits (§4.1.3, Fig. 4.3) holds by construction.

pub mod cfg;
pub mod features;

pub use cfg::{Cfg, Node, NodeKind};
pub use features::{SideFeatures, StaticFeatures, MAP_CATEGORICAL, REDUCE_CATEGORICAL};
