//! Execution engines.
//!
//! * [`GpuEngine`] — single-GPU in-memory execution with the paper's
//!   degree-bucketed MFL kernels (§4).
//! * [`HybridEngine`] — CPU–GPU streaming for graphs that exceed device
//!   memory (§3.1): labels stay resident, CSR chunks stream over PCIe,
//!   transfers overlap compute.
//! * [`MultiGpuEngine`] — vertex-partitioned execution across several
//!   devices with per-iteration label exchange (§5.4).
//! * [`SequentialEngine`] — the asynchronous single-threaded oracle, and
//!   in [`bsp`](SequentialEngine::bsp) mode the synchronous host tier.
//!
//! The synchronous tiers share one iteration loop: [`drive`] runs the BSP
//! workflow once, each tier is a [`Backend`] of it ([`BspEngine`]) — the
//! baselines in `glp-baselines` and the simulated in-house cluster in
//! `glp-fraud` too — and fault recovery is the driver's policy:
//! [`ResilientEngine`] hands it a ladder of backends.
//!
//! All of them are driven through the [`Engine`] trait with a shared
//! [`RunOptions`], so callers swap engines without touching per-engine
//! config types.

mod bsp;
mod delta;
mod dispatch;
mod error;
mod gpu;
mod hybrid;
mod kernels;
mod multi;
mod options;
mod resilient;
mod sequential;

pub use bsp::{drive, Backend, Phase, ResilienceReport};
pub use delta::{replay_delta, DeltaReplay, MemoRecorder};
pub use dispatch::{Buckets, DegreeThresholds};
pub use error::EngineError;
pub use gpu::GpuEngine;
pub use hybrid::HybridEngine;
#[doc(hidden)]
pub use kernels::KernelShard;
pub use kernels::ShardStats;
pub use multi::MultiGpuEngine;
pub use options::{BarrierEvent, BarrierHook, Direction, FrontierMode, RunOptions};
pub use resilient::ResilientEngine;
pub use sequential::{SequentialBsp, SequentialEngine};

use crate::api::LpProgram;
use crate::report::LpRunReport;
use glp_graph::{Csr, Graph, Label, VertexId};
use glp_sketch::{BoundedHashTable, InsertOutcome};

/// The unified execution interface: one `run` entry point shared by every
/// engine and baseline in the workspace.
///
/// The program is taken as `&mut dyn LpProgram` so engines are
/// dyn-compatible themselves — benchmark harnesses hold a
/// `Box<dyn Engine>` and swap approaches at runtime. Concrete programs
/// coerce at the call site (`engine.run(&g, &mut prog, &opts)`).
///
/// Contracts every implementation upholds:
///
/// * results are **bit-identical** across engines and across
///   [`FrontierMode`]s for the same program and graph (the workspace tie
///   rule in [`BestLabel`] plus the dense fallback for programs without
///   [`sparse_activation`](crate::LpProgram::sparse_activation));
/// * `update_vertex` is invoked in ascending vertex order within an
///   iteration (BSP engines; the sequential engine follows its sweep
///   order);
/// * the returned report carries per-iteration `changed` and `active`
///   counts;
/// * on `Err`, no iteration was partially applied: the program's state is
///   that of the last *completed* barrier;
/// * a run's labels and report do not depend on what the engine ran
///   before: every run starts its devices from a clean clock and launch
///   log ([`Device::reset`](glp_gpusim::Device::reset)).
pub trait Engine {
    /// Engine display name (for reports and benchmark tables).
    fn name(&self) -> &'static str;

    /// Runs `prog` on `g` under `opts` until the program reports
    /// termination or `opts.max_iterations` is hit. Fails when the
    /// underlying device faults mid-run; see [`EngineError`] for the
    /// taxonomy and [`ResilientEngine`] for running under a recovery policy.
    fn run(
        &mut self,
        g: &Graph,
        prog: &mut dyn LpProgram,
        opts: &RunOptions,
    ) -> Result<LpRunReport, EngineError>;
}

/// An [`Engine`] whose `run` is [`drive`] over one [`Backend`] — what a
/// [`ResilientEngine`] ladder is made of. Every synchronous engine of the
/// workspace is one, the CPU baselines and the in-house cluster included.
/// The recovery policy re-drives a failed device phase on the next backend,
/// so the one engine with a loop of its own — the asynchronous sweep, which
/// has no barrier — cannot sit on a ladder: it does not implement this trait.
///
/// ```compile_fail
/// use glp_core::{ResilientEngine, SequentialEngine};
/// // The asynchronous sweep has no barrier to re-drive from.
/// ResilientEngine::new(vec![Box::new(SequentialEngine::new())]);
/// ```
pub trait BspEngine: Engine {
    /// The backend of one run over `g` under `opts`, borrowing the
    /// engine's devices.
    fn backend<'a>(&'a mut self, g: &Graph, opts: &RunOptions) -> Box<dyn Backend + 'a>;
}

/// Per-vertex outcome of the LabelPropagation phase: the winning label and
/// its score, or `None` for vertices with no speaking neighbors.
pub type Decision = Option<(Label, f64)>;

/// Running argmax under the workspace-wide deterministic tie rule:
/// highest score wins; on ties the vertex's *current* label is preferred
/// (classic LPA's stabilizer — without it synchronous LP two-cycles on
/// bipartite graphs and never converges), then the smaller label.
///
/// Every engine and baseline in the workspace funnels its winner selection
/// through this type, which is what makes their outputs bit-identical.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BestLabel {
    /// Winning label so far.
    pub label: Label,
    /// Its score.
    pub score: f64,
}

impl BestLabel {
    /// Offers a candidate to the running argmax. `current` is the vertex's
    /// own spoken label this round.
    #[inline]
    pub fn offer(slot: &mut Option<BestLabel>, label: Label, score: f64, current: Label) {
        if slot.is_none_or(|b| b.loses_to(label, score, current)) {
            *slot = Some(BestLabel { label, score });
        }
    }

    /// Whether the candidate `(label, score)` displaces `self` — the tie
    /// rule itself, for callers that keep the running best in registers
    /// rather than in an `Option`.
    #[inline]
    pub(crate) fn loses_to(self, label: Label, score: f64, current: Label) -> bool {
        // `|`/`&`, not `||`/`&&`: ties are the common case in LP, so the
        // short-circuit branches would be coin flips for the predictor.
        (score > self.score)
            | ((score == self.score)
                & (self.label != current)
                & ((label == current) | (label < self.label)))
    }

    /// Converts the slot into a [`Decision`].
    #[inline]
    pub fn into_decision(slot: Option<BestLabel>) -> Decision {
        slot.map(|b| (b.label, b.score))
    }
}

/// Scratch table for [`exact_mfl`], sized so no neighborhood of `g` can
/// fill it.
pub fn mfl_scratch(g: &Graph) -> BoundedHashTable {
    let csr = g.incoming();
    let max_deg = (0..g.num_vertices() as VertexId)
        .map(|v| csr.degree(v) as usize)
        .max()
        .unwrap_or(0);
    BoundedHashTable::new((2 * max_deg).max(16), u32::MAX)
}

/// The exact MFL of `v` on the host: per-label aggregation of its
/// in-neighbors' contributions in `ht` ([`mfl_scratch`]), then the shared
/// [`BestLabel`] tie rule. `spoken(u)` is the label `u` speaks — a frozen
/// array for the BSP tiers, the program's live state for the asynchronous
/// sweep. `ht` is left holding `v`'s label histogram, so a tier that prices
/// the scan reads [`occupied`](BoundedHashTable::occupied) off it.
#[inline]
pub fn exact_mfl(
    prog: &dyn LpProgram,
    csr: &Csr,
    ht: &mut BoundedHashTable,
    v: VertexId,
    spoken: impl Fn(VertexId) -> Label,
) -> Decision {
    ht.clear();
    let off = csr.offset(v);
    for (j, &u) in csr.neighbors(v).iter().enumerate() {
        let c = prog.load_neighbor(v, u, off + j as u64, spoken(u));
        match ht.insert_add(u64::from(c.label), c.weight) {
            InsertOutcome::Added { .. } => {}
            InsertOutcome::Full { .. } => unreachable!("scratch sized to 2x degree"),
        }
    }
    let current = spoken(v);
    let mut best: Option<BestLabel> = None;
    for (l, freq) in ht.iter() {
        let label = l as Label;
        BestLabel::offer(&mut best, label, prog.label_score(v, label, freq), current);
    }
    BestLabel::into_decision(best)
}

#[cfg(test)]
mod best_tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn higher_score_wins() {
        let mut s = None;
        BestLabel::offer(&mut s, 5, 1.0, 99);
        BestLabel::offer(&mut s, 9, 2.0, 99);
        assert_eq!(s.unwrap().label, 9);
    }

    #[test]
    fn tie_prefers_current_label() {
        let mut s = None;
        BestLabel::offer(&mut s, 5, 2.0, 7);
        BestLabel::offer(&mut s, 7, 2.0, 7);
        assert_eq!(s.unwrap().label, 7);
        // ...and the current label is not displaced by a smaller one.
        BestLabel::offer(&mut s, 3, 2.0, 7);
        assert_eq!(s.unwrap().label, 7);
    }

    #[test]
    fn tie_without_current_prefers_smaller() {
        let mut s = None;
        BestLabel::offer(&mut s, 9, 2.0, 99);
        BestLabel::offer(&mut s, 5, 2.0, 99);
        BestLabel::offer(&mut s, 6, 2.0, 99);
        assert_eq!(s.unwrap().label, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Offering a multiset of candidates in any order — repeated labels
        /// and score ties included, the vertex's current label among them
        /// or not — keeps its lexicographic max of (score, is the current
        /// label, smaller label). So does the chain of
        /// [`BestLabel::loses_to`] the packed kernel folds its window with
        /// from the first lane, which offers repeats and padding lanes.
        #[test]
        fn offer_keeps_the_lexicographic_max(
            scores in prop::collection::vec(0u8..3, 1..6),
            picks in prop::collection::vec(0usize..64, 1..12),
            current_offered in any::<bool>(),
            current_pick in 0usize..64,
        ) {
            // Distinct labels 10, 20, … with one score each — a label
            // scores the same wherever a vertex offers it — from three
            // values, so ties are common.
            let labels: Vec<(Label, f64)> = scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (10 * (i as Label + 1), f64::from(s) / 2.0))
                .collect();
            let offered: Vec<(Label, f64)> =
                picks.iter().map(|&p| labels[p % labels.len()]).collect();
            let current = if current_offered {
                offered[current_pick % offered.len()].0
            } else {
                // Between two offered labels, or past them all.
                10 * (current_pick % (labels.len() + 1)) as Label + 5
            };
            let reference = offered.iter().copied().max_by(|a, b| {
                a.1.total_cmp(&b.1)
                    .then((a.0 == current).cmp(&(b.0 == current)))
                    .then(b.0.cmp(&a.0))
            });

            let mut slot = None;
            for &(l, score) in &offered {
                BestLabel::offer(&mut slot, l, score, current);
            }
            prop_assert_eq!(BestLabel::into_decision(slot), reference);

            let (label, score) = offered[0];
            let mut chain = BestLabel { label, score };
            for &(l, score) in &offered[1..] {
                if chain.loses_to(l, score, current) {
                    chain = BestLabel { label: l, score };
                }
            }
            prop_assert_eq!(Some((chain.label, chain.score)), reference);
        }
    }
}

/// How the LabelPropagation kernels compute the MFL — the axis of the
/// Table 3 ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MflStrategy {
    /// Per-vertex hash tables in global memory (the `global` baseline of
    /// §5.3, the strategy of G-Hash).
    Global,
    /// Shared-memory CMS+HT for high-degree vertices (§4.1); every other
    /// vertex gets one warp with a shared hash table (`smem` in Table 3).
    Smem,
    /// `Smem` plus the one-warp-multi-vertices intrinsic schedule for
    /// low-degree vertices (§4.2; `smem+warp` in Table 3). The default.
    SmemWarp,
}
