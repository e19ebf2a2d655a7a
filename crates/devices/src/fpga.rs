//! The FPGA analytical model: tiled convolution engines (the paper's
//! Fig. 9/10 baseline), its Eq. (4) utilization, and the FCN batching
//! optimization of its Fig. 13.
//!
//! Unlike the GPU, the FPGA executes convolutions directly (no im2col
//! data duplication). A convolution engine unrolls `Tn` input and `Tm`
//! output feature maps; resource utilization (Eq. 4) depends only on
//! how evenly `N` and `M` divide — **not on the batch size**, which is
//! why the paper finds FPGA CONV energy-efficiency flat across batches.
//! FCN layers are memory-bound unless the batch loop of Fig. 13 reuses
//! each weight across the batch.

use crate::layers::{ConvShape, FcShape, LayerShape, NetworkShapes};
use crate::spec::FpgaSpec;
use serde::{Deserialize, Serialize};

/// A loop-tiling choice for the convolution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tiling {
    /// Output-feature-map unroll factor.
    pub tm: u32,
    /// Input-feature-map unroll factor.
    pub tn: u32,
}

impl Tiling {
    /// DSP slices consumed: `Tm x Tn` multipliers.
    pub fn dsp(&self) -> u32 {
        self.tm * self.tn
    }
}

/// Per-batch latency split for the FPGA model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FpgaBreakdown {
    /// Seconds in CONV layers for the whole batch.
    pub conv_s: f64,
    /// Seconds in FCN layers for the whole batch.
    pub fc_s: f64,
}

impl FpgaBreakdown {
    /// Total batch latency in seconds.
    pub fn total_s(&self) -> f64 {
        self.conv_s + self.fc_s
    }

    /// Fraction of the batch latency spent in FCN layers.
    pub fn fc_fraction(&self) -> f64 {
        if self.total_s() == 0.0 {
            0.0
        } else {
            self.fc_s / self.total_s()
        }
    }
}

/// The analytical model of an FPGA accelerator built from tiled
/// convolution engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaModel {
    spec: FpgaSpec,
    tiling: Tiling,
    /// Whether the FCN batch-reuse loop (paper Fig. 13) is implemented.
    fcn_batch_opt: bool,
}

impl FpgaModel {
    /// Creates a model with an explicit tiling.
    pub fn new(spec: FpgaSpec, tiling: Tiling, fcn_batch_opt: bool) -> Self {
        FpgaModel { spec, tiling, fcn_batch_opt }
    }

    /// VX690T-like model with a tiling auto-fitted to AlexNet and the
    /// batching optimization enabled.
    pub fn vx690t() -> Self {
        let spec = FpgaSpec::vx690t();
        let tiling = best_tiling(&NetworkShapes::alexnet().convs(), spec.dsp_total);
        FpgaModel::new(spec, tiling, true)
    }

    /// The underlying specification.
    pub fn spec(&self) -> &FpgaSpec {
        &self.spec
    }

    /// The tiling in use.
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    /// Returns a copy with the FCN batch optimization toggled.
    pub fn with_fcn_batch_opt(mut self, on: bool) -> Self {
        self.fcn_batch_opt = on;
        self
    }

    /// Paper Eq. (4): fraction of the `Tm x Tn` multiplier array doing
    /// useful work for a layer — batch-independent.
    pub fn conv_utilization(&self, shape: &ConvShape) -> f64 {
        let (tn, tm) = (self.tiling.tn as usize, self.tiling.tm as usize);
        let denom = tn * tm * shape.n.div_ceil(tn) * shape.m.div_ceil(tm);
        (shape.n * shape.m) as f64 / denom as f64
    }

    /// CONV-layer time for one sample: tile iterations × window cycles.
    pub fn conv_time_per_sample(&self, shape: &ConvShape) -> f64 {
        let (tn, tm) = (self.tiling.tn as usize, self.tiling.tm as usize);
        let cycles = (shape.n.div_ceil(tn) * shape.m.div_ceil(tm)) as u64
            * (shape.r * shape.c) as u64
            * (shape.k * shape.k) as u64;
        cycles as f64 / self.spec.freq_hz
    }

    /// FCN-layer time for a whole batch. Without the batch loop the
    /// weights stream from off-chip for **every** sample; with it they
    /// stream once per batch (paper Fig. 13/14).
    pub fn fc_time(&self, shape: &FcShape, batch: usize) -> f64 {
        let (tn, tm) = (self.tiling.tn as usize, self.tiling.tm as usize);
        let compute_cycles =
            (shape.input.div_ceil(tn) * shape.output.div_ceil(tm)) as u64 * batch as u64;
        let compute_s = compute_cycles as f64 / self.spec.freq_hz;
        let weight_bytes = shape.dw_elems() * 4;
        let act_bytes = 4 * (shape.input + shape.output) as u64 * batch as u64;
        let weight_loads = if self.fcn_batch_opt { 1 } else { batch as u64 };
        let mem_s = (weight_bytes * weight_loads + act_bytes) as f64 / self.spec.mem_bw;
        // Paper Eq. (12): Max(compute, memory).
        compute_s.max(mem_s)
    }

    /// Latency breakdown for one batch.
    pub fn batch_breakdown(&self, net: &NetworkShapes, batch: usize) -> FpgaBreakdown {
        let mut conv_s = 0.0;
        let mut fc_s = 0.0;
        for layer in &net.layers {
            match layer {
                LayerShape::Conv(c) => conv_s += self.conv_time_per_sample(c) * batch as f64,
                LayerShape::Fc(f) => fc_s += self.fc_time(f, batch),
            }
        }
        FpgaBreakdown { conv_s, fc_s }
    }

    /// Batch latency in seconds.
    pub fn batch_latency(&self, net: &NetworkShapes, batch: usize) -> f64 {
        self.batch_breakdown(net, batch).total_s()
    }

    /// Sustained throughput in images/second.
    pub fn throughput(&self, net: &NetworkShapes, batch: usize) -> f64 {
        batch as f64 / self.batch_latency(net, batch)
    }

    /// Board power: static plus dynamic scaled by the active-DSP
    /// fraction (tiling footprint × average array utilization).
    pub fn power(&self, net: &NetworkShapes, _batch: usize) -> f64 {
        let convs = net.convs();
        let avg_util = if convs.is_empty() {
            1.0
        } else {
            convs.iter().map(|c| self.conv_utilization(c)).sum::<f64>() / convs.len() as f64
        };
        let fraction = self.tiling.dsp() as f64 / self.spec.dsp_total as f64 * avg_util;
        self.spec.power_at(fraction)
    }

    /// Energy-efficiency in images/second/watt.
    pub fn perf_per_watt(&self, net: &NetworkShapes, batch: usize) -> f64 {
        self.throughput(net, batch) / self.power(net, batch)
    }
}

/// Searches the tiling space (`Tm·Tn ≤ dsp_budget`) for the choice that
/// minimizes total CONV time over the given layers — the per-network
/// design-space exploration of Zhang et al. that the paper builds on.
pub fn best_tiling(convs: &[ConvShape], dsp_budget: u32) -> Tiling {
    let mut best = Tiling { tm: 1, tn: 1 };
    let mut best_cycles = u64::MAX;
    let candidates: Vec<u32> = (0..=11).map(|p| 1u32 << p).collect();
    for &tm in &candidates {
        for &tn in &candidates {
            if tm * tn > dsp_budget {
                continue;
            }
            let t = Tiling { tm, tn };
            let cycles: u64 = convs
                .iter()
                .map(|s| {
                    (s.n.div_ceil(tn as usize) * s.m.div_ceil(tm as usize)) as u64
                        * (s.r * s.c * s.k * s.k) as u64
                })
                .sum();
            if cycles < best_cycles || (cycles == best_cycles && t.dsp() < best.dsp()) {
                best_cycles = cycles;
                best = t;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FpgaModel {
        FpgaModel::vx690t()
    }

    #[test]
    fn tiling_respects_budget() {
        let t = best_tiling(&NetworkShapes::alexnet().convs(), 3600);
        assert!(t.dsp() <= 3600);
        assert!(t.tm >= 1 && t.tn >= 1);
    }

    #[test]
    fn utilization_eq4_known_value() {
        // N=3, M=96, Tn=4, Tm=32: util = 288 / (4*32*1*3) = 0.75.
        let m = FpgaModel::new(FpgaSpec::vx690t(), Tiling { tm: 32, tn: 4 }, true);
        let shape = ConvShape { m: 96, n: 3, k: 11, r: 55, c: 55 };
        assert!((m.conv_utilization(&shape) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn conv_utilization_is_batch_independent() {
        // Eq. (4) has no batch term; the model reflects that: per-sample
        // conv time is constant so per-image efficiency never changes.
        let m = model();
        let net = NetworkShapes::alexnet();
        let t1 = m.batch_breakdown(&net, 1).conv_s;
        let t8 = m.batch_breakdown(&net, 8).conv_s;
        assert!((t8 / t1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fcn_batch_opt_amortizes_weights() {
        let with = model();
        let without = model().with_fcn_batch_opt(false);
        let fc = FcShape { input: 9216, output: 4096 };
        // Per-sample FCN cost without reuse is flat; with reuse it drops.
        let per_sample_with = with.fc_time(&fc, 32) / 32.0;
        let per_sample_without = without.fc_time(&fc, 32) / 32.0;
        assert!(per_sample_with < per_sample_without / 4.0);
        // At batch 1 the two coincide.
        assert_eq!(with.fc_time(&fc, 1), without.fc_time(&fc, 1));
    }

    #[test]
    fn fcn_memory_bound_without_batching() {
        let m = model().with_fcn_batch_opt(false);
        let fc = FcShape { input: 9216, output: 4096 };
        let weight_floor = (fc.dw_elems() * 4) as f64 / m.spec().mem_bw;
        assert!(m.fc_time(&fc, 1) >= weight_floor);
    }

    #[test]
    fn throughput_flat_with_batch_when_no_opt() {
        // Paper Fig. 23's NWS curve: no batching optimization → no
        // throughput gain from a looser latency budget.
        let m = model().with_fcn_batch_opt(false);
        let net = NetworkShapes::alexnet();
        let t1 = m.throughput(&net, 1);
        let t16 = m.throughput(&net, 16);
        assert!((t16 - t1).abs() / t1 < 0.02, "t1 {t1} vs t16 {t16}");
        // With the optimization, throughput improves.
        let opt = model();
        assert!(opt.throughput(&net, 16) > 1.2 * opt.throughput(&net, 1));
    }

    #[test]
    fn power_within_spec_envelope() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let p = m.power(&net, 8);
        assert!(p >= m.spec().static_power_w);
        assert!(p <= m.spec().static_power_w + m.spec().dynamic_power_w);
    }

    #[test]
    fn gpu_beats_fpga_on_efficiency_single_task() {
        // Paper characterization result (3): GPU energy-efficiency is
        // better than FPGA when one task runs alone.
        let fpga = model();
        let gpu = crate::gpu::GpuModel::tx1();
        let net = NetworkShapes::alexnet();
        for b in [1usize, 8, 32] {
            assert!(
                gpu.perf_per_watt(&net, b) > fpga.perf_per_watt(&net, b),
                "batch {b}"
            );
        }
    }

    #[test]
    fn vgg_slower_than_alexnet() {
        let m = model();
        assert!(
            m.batch_latency(&NetworkShapes::vgg16(), 1)
                > 3.0 * m.batch_latency(&NetworkShapes::alexnet(), 1)
        );
    }
}
