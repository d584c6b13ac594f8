//! Roofline cost model: event counts → modeled seconds.
//!
//! `kernel_time = max(compute_time, memory_time) + launch_overhead`
//!
//! * compute_time — total warp-instruction cycles divided by the machine's
//!   sustained issue rate (`num_sms × issue_per_sm_cycle × clock`).
//! * memory_time — total 32-byte sectors moved divided by bandwidth.
//!   Coalescing was already applied when sectors were counted, so scattered
//!   access patterns show up here as extra sectors.
//!
//! Per-event cycle weights follow published Volta microbenchmarks
//! (Jia et al., "Dissecting the NVIDIA Volta GPU Architecture via
//! Microbenchmarking", 2018): shared-memory latency ~19 cycles but fully
//! pipelined (≈1 cycle/issue sustained, +1 per conflicting bank), shared
//! atomics ~4 cycles sustained, global atomics ~30 cycles plus
//! serialization on address conflicts, warp intrinsics 2 cycles. The
//! weights are constants: every device, and every host tier pricing a
//! frontier direction, reads the same model.

use crate::config::DeviceConfig;
use crate::counters::KernelCounters;

/// The DRAM transaction granule: a scattered lane-sized access still moves
/// a whole 32-byte sector (see `uncoalesced_traffic_costs_more_time`).
/// This 32-vs-4 asymmetry is what the direction-optimized frontier
/// crossover is derived from.
pub const SECTOR_BYTES: u64 = 32;

/// Cycles per plain warp instruction.
const ALU_CYCLES: f64 = 1.0;
/// Cycles per warp-wide shared-memory access (sustained, pipelined).
const SHARED_CYCLES: f64 = 1.0;
/// Extra cycles per bank-conflict serialization step.
const BANK_CONFLICT_CYCLES: f64 = 1.0;
/// Cycles per shared-memory atomic.
const SHARED_ATOMIC_CYCLES: f64 = 4.0;
/// Cycles per global atomic (beyond its memory sector): a read-modify-write
/// round trip is ~36 cycles for L2-resident atomics (Jia et al.), roughly
/// double once the line misses to DRAM — graph-scale per-vertex tables
/// mostly miss.
const GLOBAL_ATOMIC_CYCLES: f64 = 60.0;
/// Extra cycles per same-address conflict step within a warp.
const ATOMIC_CONFLICT_CYCLES: f64 = 10.0;
/// Cycles per warp intrinsic.
const INTRINSIC_CYCLES: f64 = 2.0;
/// Cycles per block-reduction step; a reduction takes
/// log2(threads_per_block) steps.
const REDUCTION_STEP_CYCLES: f64 = 2.0;

/// Total compute cycles implied by `c` on a device with
/// `threads_per_block` threads per block.
fn compute_cycles(c: &KernelCounters, threads_per_block: u32) -> f64 {
    let reduce_steps = f64::from(32 - (threads_per_block.max(2) - 1).leading_zeros());
    c.alu_instructions as f64 * ALU_CYCLES
        + c.shared_accesses as f64 * SHARED_CYCLES
        + c.shared_bank_conflicts as f64 * BANK_CONFLICT_CYCLES
        + c.shared_atomics as f64 * SHARED_ATOMIC_CYCLES
        + c.global_atomics as f64 * GLOBAL_ATOMIC_CYCLES
        + c.global_atomic_conflicts as f64 * ATOMIC_CONFLICT_CYCLES
        + c.warp_intrinsics as f64 * INTRINSIC_CYCLES
        + c.block_reductions as f64 * reduce_steps * REDUCTION_STEP_CYCLES
}

/// Modeled elapsed seconds for counters `c` on device `cfg`.
pub fn kernel_seconds(cfg: &DeviceConfig, c: &KernelCounters) -> f64 {
    let compute_cycles = compute_cycles(c, cfg.threads_per_block);
    let issue_rate = f64::from(cfg.num_sms) * cfg.issue_per_sm_cycle * cfg.clock_ghz * 1e9;
    let compute_s = compute_cycles / issue_rate;
    let mem_s = c.global_bytes() as f64 / (cfg.mem_bandwidth_gbps * 1e9);
    compute_s.max(mem_s) + c.kernel_launches as f64 * cfg.kernel_launch_us * 1e-6
}

/// Modeled seconds to move `bytes` across the host link (PCIe).
pub fn transfer_seconds(cfg: &DeviceConfig, bytes: u64) -> f64 {
    bytes as f64 / (cfg.pcie_gbps * 1e9)
}

/// Modeled DRAM bytes of a **push**-style frontier rebuild over `n`
/// vertices with `touched_edges` scatter marks (Σ out-degree of the
/// changed vertices): one coalesced pass over the change flags, a
/// coalesced walk of the changed vertices' out-adjacency, and one
/// whole [`SECTOR_BYTES`] sector per scattered bitmap mark — marks
/// land wherever the neighbor ids point, so the coalescer almost
/// never merges them.
pub fn push_frontier_bytes(n: u64, touched_edges: u64) -> u64 {
    4 * n + 4 * touched_edges + SECTOR_BYTES * touched_edges
}

/// Modeled DRAM bytes of a **pull**-style frontier rebuild over `n`
/// vertices scanning `scan_edges` in-adjacency entries (worst case the
/// whole edge set; the kernel early-exits at the first changed
/// in-neighbor): coalesced flag reads, coalesced CSR target reads,
/// and one sequential bitmap write — no scatter at all.
pub fn pull_frontier_bytes(n: u64, scan_edges: u64) -> u64 {
    4 * n + 4 * scan_edges + n.div_ceil(8)
}

/// The direction crossover: pull wins the next frontier rebuild iff
/// push's scattered sectors for `touched_edges` marks outweigh a full
/// coalesced scan of all `total_edges` in-edges. This reduces to roughly
/// `touched_edges > total_edges / 9` — the Beamer-style density
/// threshold, but *derived* from the same sector accounting the kernels
/// are charged with, so the `Auto` switch point and the measured kernel
/// times cannot drift apart. Bandwidth cancels (both candidates are
/// memory-bound passes on the same device), which is why this needs no
/// [`DeviceConfig`] and every tier — with a device or without — chooses
/// alike.
pub fn prefer_pull(n: u64, touched_edges: u64, total_edges: u64) -> bool {
    push_frontier_bytes(n, touched_edges) > pull_frontier_bytes(n, total_edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DeviceConfig {
        DeviceConfig::titan_v()
    }

    #[test]
    fn empty_counters_cost_only_launch_overhead() {
        let c = KernelCounters {
            kernel_launches: 1,
            ..Default::default()
        };
        let s = kernel_seconds(&cfg(), &c);
        assert!((s - 4e-6).abs() < 1e-12, "{s}");
    }

    #[test]
    fn memory_bound_kernel_times_by_bandwidth() {
        // 1 GB of sectors, negligible compute.
        let c = KernelCounters {
            global_read_sectors: (1u64 << 30) / 32,
            ..Default::default()
        };
        let s = kernel_seconds(&cfg(), &c);
        let expect = (1u64 << 30) as f64 / (652.8e9);
        assert!((s - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_times_by_issue_rate() {
        let c = KernelCounters {
            alu_instructions: 96_000_000_000, // 96G instructions
            ..Default::default()
        };
        let s = kernel_seconds(&cfg(), &c);
        // 96e9 cycles / (80 SMs * 1.2e9) = 1.0 s
        assert!((s - 1.0).abs() < 1e-9, "{s}");
    }

    #[test]
    fn uncoalesced_traffic_costs_more_time() {
        // Same logical reads: 32 lanes x 4 bytes. Coalesced = 4 sectors;
        // fully scattered = 32 sectors.
        let co = KernelCounters {
            global_read_sectors: 4_000_000,
            ..Default::default()
        };
        let sc = KernelCounters {
            global_read_sectors: 32_000_000,
            ..Default::default()
        };
        assert!(kernel_seconds(&cfg(), &sc) > 7.0 * kernel_seconds(&cfg(), &co));
    }

    #[test]
    fn direction_crossover_tracks_frontier_density() {
        let (n, edges) = (10_000u64, 80_000u64);
        // Sparse tail: a handful of scatter marks is far cheaper than
        // scanning every in-edge.
        assert!(!prefer_pull(n, 100, edges));
        // Saturated frontier: scattering a sector per edge loses to one
        // coalesced sweep of the CSR.
        assert!(prefer_pull(n, edges, edges));
        // The switch point sits near edges/9 — between edges/16 (push)
        // and edges/4 (pull) — and is monotone in the scatter volume.
        assert!(!prefer_pull(n, edges / 16, edges));
        assert!(prefer_pull(n, edges / 4, edges));
        assert!(
            push_frontier_bytes(n, edges / 4) > push_frontier_bytes(n, edges / 16),
            "push bytes must grow with the scatter volume"
        );
    }

    #[test]
    fn transfer_seconds_matches_pcie_rate() {
        let s = transfer_seconds(&cfg(), 12_000_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }
}
