#![warn(missing_docs)]

//! # sgcr-kvstore
//!
//! The process cache that couples the cyber side (virtual IEDs, PLCs, SCADA)
//! of the cyber range with the physical side (the power-flow simulator).
//!
//! The SG-ML paper connects virtual IEDs to the power system simulator through
//! a MySQL database used as *"a cache storing a set of key-value pairs, for
//! reading power grid measurements (voltages, power flow, etc.) and executing
//! control (e.g., opening/closing circuit breakers)"*. This crate reproduces
//! those semantics in-process: a concurrent, versioned key-value store. It
//! knows nothing of the power grid; the key grammar lives in
//! `sgcr_core::keymap`.
//!
//! Every write bumps a global version counter and stamps the entry with it,
//! so a deterministic consumer can keep a version cursor and act only on
//! entries written after it, instead of relying on wall-clock notification
//! timing.
//!
//! # Examples
//!
//! ```
//! use sgcr_kvstore::{ProcessStore, Value};
//!
//! let store = ProcessStore::new();
//! store.set("meas/S1/branch/L1/p_mw", Value::Float(12.5));
//! assert_eq!(store.get_float("meas/S1/branch/L1/p_mw"), Some(12.5));
//!
//! let cursor = store.version();
//! store.set("cmd/S1/cb/CB1/close", Value::Bool(false));
//! let command = store.entry("cmd/S1/cb/CB1/close").unwrap();
//! assert!(command.version > cursor); // written after the cursor: still to apply
//! assert_eq!(command.value, Value::Bool(false));
//! ```

mod store;
mod value;

pub use store::{Entry, ProcessStore};
pub use value::Value;
