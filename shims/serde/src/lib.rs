//! Offline stand-in for `serde`.
//!
//! [`Serialize`] and [`Deserialize`] are marker traits here: the workspace
//! derives them on plain-old-data config/counter structs but never drives
//! serde's data model (JSON output goes through the `serde_json` shim's
//! [`Value`](../serde_json/enum.Value.html) type directly). The derive
//! macros are always re-exported from the `serde_derive` shim (the real
//! crate gates them behind its `derive` feature, which no manifest here
//! enables).

// Vendored stand-in for an external crate: exempt from workspace lints.
#![allow(clippy::all)]
pub use serde_derive::{Deserialize, Serialize};

/// Marker: the type opted into serialization support.
pub trait Serialize {}

/// Marker: the type opted into deserialization support.
pub trait Deserialize {}
