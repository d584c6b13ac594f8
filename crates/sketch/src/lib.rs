//! # glp-sketch — frequency-estimation substrate for GLP
//!
//! The paper's high-degree optimization (§4.1) combines two shared-memory
//! resident structures to find the most frequent label (MFL) of a large
//! neighborhood in a single scan:
//!
//! * a [`BoundedHashTable`] holding exact counts for the first labels that
//!   fit (the HT of Procedure `SharedMemBigNodes`), and
//! * a [`CountMinSketch`] absorbing the overflow with only-overestimating
//!   counts (the CMS).
//!
//! If the best exact score in the HT is at least the best estimated score in
//! the CMS, the MFL is provably in the HT and no global memory is touched.
//! The [`theory`] module implements the paper's Lemma 1, Lemma 2 and
//! Theorem 1 bounds on how often the slow path is needed; the test suite
//! validates them by Monte-Carlo simulation.

#![forbid(unsafe_code)]

pub mod cms;
pub mod ht;
pub mod theory;

pub use cms::CountMinSketch;
pub use ht::{BoundedHashTable, InsertOutcome, Slot};
