//! The mobile-GPU analytical model: the paper's Eqs. (2), (3), (5)–(9)
//! plus a co-running contention model.
//!
//! CONV layers are lowered to GEMM (im2col), so their achieved
//! performance is the compute roof scaled by block-level utilization
//! (Eqs. 2–3, 5). FCN layers become matrix–matrix products under
//! batching but are usually memory-bound, so they follow the roofline
//! of Eq. (6) with the compute-to-memory ratio of Eq. (8). The
//! resource model of Eq. (9) bounds the diagnosis batch size by device
//! memory.

use crate::layers::{ConvShape, FcShape, LayerShape, NetworkShapes};
use crate::spec::GpuSpec;
use serde::{Deserialize, Serialize};

/// Per-batch latency split into the paper's two layer classes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuBreakdown {
    /// Seconds spent in CONV layers for the whole batch.
    pub conv_s: f64,
    /// Seconds spent in FCN layers for the whole batch.
    pub fc_s: f64,
    /// Time-weighted average utilization (drives the power model).
    pub avg_utilization: f64,
}

impl GpuBreakdown {
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

/// The analytical model of a mobile GPU executing CNN layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    spec: GpuSpec,
}

impl GpuModel {
    /// Creates a model over a device specification.
    pub fn new(spec: GpuSpec) -> Self {
        GpuModel { spec }
    }

    /// TX1-like convenience constructor.
    pub fn tx1() -> Self {
        GpuModel::new(GpuSpec::tx1())
    }

    /// TX2-like convenience constructor.
    pub fn tx2() -> Self {
        GpuModel::new(GpuSpec::tx2())
    }

    /// The underlying specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Paper Eq. (2): thread blocks launched for a GEMM with an output
    /// of `rows x cols`.
    pub fn grid_size(&self, rows: u64, cols: u64) -> u64 {
        rows.div_ceil(self.spec.tile_m as u64).max(1)
            * cols.div_ceil(self.spec.tile_n as u64).max(1)
    }

    /// Paper Eq. (3): utilization of the GPU given a grid size — the
    /// tail effect of partially filled waves of `maxBlocks`.
    pub fn utilization(&self, grid: u64) -> f64 {
        if grid == 0 {
            return 0.0;
        }
        let max_blocks = self.spec.max_blocks as u64;
        grid as f64 / (max_blocks * grid.div_ceil(max_blocks)) as f64
    }

    /// Utilization of one CONV layer at a batch size (output matrix is
    /// `M x (R·C·B)`).
    pub fn conv_utilization(&self, shape: &ConvShape, batch: usize) -> f64 {
        self.utilization(
            self.grid_size(shape.m as u64, (shape.r * shape.c * batch) as u64),
        )
    }

    /// Paper Eq. (5): CONV-layer time for a whole batch.
    pub fn conv_time(&self, shape: &ConvShape, batch: usize) -> f64 {
        let ops = shape.ops() * batch as u64;
        let achieved = self.spec.peak_ops() * self.conv_utilization(shape, batch);
        ops as f64 / achieved
    }

    /// Utilization of one FCN layer at a batch size (output matrix is
    /// `out x B` after the batching transformation).
    pub fn fc_utilization(&self, shape: &FcShape, batch: usize) -> f64 {
        self.utilization(self.grid_size(shape.output as u64, batch as u64))
    }

    /// Paper Eqs. (6)–(8): FCN-layer time for a whole batch under the
    /// roofline of compute vs memory bandwidth.
    pub fn fc_time(&self, shape: &FcShape, batch: usize) -> f64 {
        let b = batch as u64;
        let ops = shape.ops() * b;
        let compute = self.spec.peak_ops() * self.fc_utilization(shape, batch);
        // Eq. (8): Din + Dw + Dout elements, 4 bytes each.
        let data_bytes =
            4 * (shape.input as u64 * b + shape.dw_elems() + shape.output as u64 * b);
        let ctm_rate = ops as f64 / data_bytes as f64 * self.spec.mem_bw;
        let achieved = compute.min(ctm_rate);
        ops as f64 / achieved
    }

    /// Latency breakdown of a whole network for one batch.
    pub fn batch_breakdown(&self, net: &NetworkShapes, batch: usize) -> GpuBreakdown {
        let mut conv_s = 0.0;
        let mut fc_s = 0.0;
        let mut util_time = 0.0;
        for layer in &net.layers {
            match layer {
                LayerShape::Conv(c) => {
                    let t = self.conv_time(c, batch);
                    conv_s += t;
                    util_time += t * self.conv_utilization(c, batch);
                }
                LayerShape::Fc(f) => {
                    let t = self.fc_time(f, batch);
                    fc_s += t;
                    // Memory-bound phases still keep part of the chip
                    // busy; attribute the roofline ratio as utilization.
                    let compute_t = f.ops() as f64 * batch as f64
                        / (self.spec.peak_ops() * self.fc_utilization(f, batch));
                    util_time += compute_t.min(t) * self.fc_utilization(f, batch);
                }
            }
        }
        let total = conv_s + fc_s;
        GpuBreakdown {
            conv_s,
            fc_s,
            avg_utilization: if total > 0.0 { (util_time / total).clamp(0.0, 1.0) } else { 0.0 },
        }
    }

    /// Batch latency in seconds.
    pub fn batch_latency(&self, net: &NetworkShapes, batch: usize) -> f64 {
        self.batch_breakdown(net, batch).total_s()
    }

    /// Sustained throughput in images/second at a batch size.
    pub fn throughput(&self, net: &NetworkShapes, batch: usize) -> f64 {
        batch as f64 / self.batch_latency(net, batch)
    }

    /// Board power while running the network at a batch size.
    pub fn power(&self, net: &NetworkShapes, batch: usize) -> f64 {
        self.spec.power_at(self.batch_breakdown(net, batch).avg_utilization)
    }

    /// Energy-efficiency in images/second/watt — the paper's
    /// performance-to-power ratio.
    pub fn perf_per_watt(&self, net: &NetworkShapes, batch: usize) -> f64 {
        self.throughput(net, batch) / self.power(net, batch)
    }

    /// Paper's Single-running time model use: the largest batch whose
    /// latency meets `t_user` seconds (the optimal batch maximizes
    /// perf/power subject to the latency constraint). Returns `None`
    /// when even batch 1 misses the deadline.
    pub fn optimal_batch(
        &self,
        net: &NetworkShapes,
        t_user: f64,
        max_batch: usize,
    ) -> Option<usize> {
        let mut best = None;
        for b in 1..=max_batch {
            if self.batch_latency(net, b) <= t_user {
                best = Some(b);
            }
        }
        best
    }

    /// Exhaustive search for the best perf/W under the latency
    /// constraint — the paper's brute-force "best case" baseline for
    /// its Fig. 21.
    pub fn brute_force_best(
        &self,
        net: &NetworkShapes,
        t_user: f64,
        max_batch: usize,
    ) -> Option<(usize, f64)> {
        (1..=max_batch)
            .filter(|&b| self.batch_latency(net, b) <= t_user)
            .map(|b| (b, self.perf_per_watt(net, b)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// Paper Eq. (9), the resource model: the largest batch whose peak
    /// layer working set (`Din + Dw + Dout`) fits in device memory.
    pub fn max_batch_under_ram(&self, net: &NetworkShapes, limit: usize) -> usize {
        let mut best = 0;
        'batch: for b in 1..=limit {
            for layer in &net.layers {
                let bytes = 4 * match layer {
                    LayerShape::Conv(c) => {
                        c.din_elems(b) + c.dw_elems() + c.dout_elems(b)
                    }
                    LayerShape::Fc(f) => {
                        (f.input * b) as u64 + f.dw_elems() + (f.output * b) as u64
                    }
                };
                if bytes > self.spec.ram_bytes {
                    break 'batch;
                }
            }
            best = b;
        }
        best
    }

    /// Co-running contention model (the paper's Fig. 16): the latency
    /// multiplier suffered by the inference task when the diagnosis
    /// network shares the GPU. The slowdown grows with the competing
    /// task's relative compute demand and saturates a little above 3×,
    /// matching the paper's measurement.
    pub fn corun_slowdown(
        &self,
        inference: &NetworkShapes,
        diagnosis: &NetworkShapes,
    ) -> f64 {
        let inf_ops = inference.total_ops().max(1) as f64;
        let diag_ops = diagnosis.total_ops() as f64;
        1.0 + (diag_ops / inf_ops).min(2.25)
    }

    /// Inference latency while co-running with a diagnosis task.
    pub fn corun_latency(
        &self,
        inference: &NetworkShapes,
        diagnosis: &NetworkShapes,
        batch: usize,
    ) -> f64 {
        self.batch_latency(inference, batch) * self.corun_slowdown(inference, diagnosis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GpuModel {
        GpuModel::tx1()
    }

    #[test]
    fn utilization_in_unit_interval_and_full_waves() {
        let m = model();
        assert_eq!(m.utilization(0), 0.0);
        assert_eq!(m.utilization(32), 1.0); // exactly one wave
        assert_eq!(m.utilization(64), 1.0);
        assert!((m.utilization(33) - 33.0 / 64.0).abs() < 1e-12); // tail wave
        for g in 1..200 {
            let u = m.utilization(g);
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn latency_increases_with_batch() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let mut last = 0.0;
        for b in [1usize, 2, 4, 8, 16, 32, 64] {
            let t = m.batch_latency(&net, b);
            assert!(t > last, "latency must grow with batch: {t} after {last}");
            last = t;
        }
    }

    #[test]
    fn perf_per_watt_improves_with_batch() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let ppw1 = m.perf_per_watt(&net, 1);
        let ppw32 = m.perf_per_watt(&net, 32);
        assert!(ppw32 > 1.5 * ppw1, "ppw1 {ppw1} vs ppw32 {ppw32}");
    }

    #[test]
    fn fc_dominates_at_small_batch() {
        // Paper Fig. 12: FCN layers are ~50% of AlexNet runtime at
        // batch 1-4 and shrink as batching amortizes the weights.
        let m = model();
        let net = NetworkShapes::alexnet();
        let frac1 = m.batch_breakdown(&net, 1).fc_fraction();
        let frac64 = m.batch_breakdown(&net, 64).fc_fraction();
        assert!(frac1 > 0.3, "fc fraction at b=1: {frac1}");
        assert!(frac64 < frac1 / 2.0, "fc fraction at b=64: {frac64}");
    }

    #[test]
    fn fc_time_is_memory_bound_at_batch_1() {
        let m = model();
        let fc = FcShape { input: 9216, output: 4096 };
        let t = m.fc_time(&fc, 1);
        // Pure weight transfer takes Dw*4/bw seconds; compute alone
        // would be far faster.
        let mem_floor = (fc.dw_elems() * 4) as f64 / m.spec().mem_bw;
        assert!(t >= mem_floor * 0.99, "t {t} < mem floor {mem_floor}");
    }

    #[test]
    fn optimal_batch_meets_deadline_and_is_maximal() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let t_user = 0.1; // 100 ms
        let b = m.optimal_batch(&net, t_user, 128).expect("some batch feasible");
        assert!(m.batch_latency(&net, b) <= t_user);
        if b < 128 {
            assert!(m.batch_latency(&net, b + 1) > t_user);
        }
        // Impossible deadline → None.
        assert_eq!(m.optimal_batch(&net, 1e-6, 128), None);
    }

    #[test]
    fn brute_force_best_is_at_least_time_model_choice() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let t_user = 0.2;
        let picked = m.optimal_batch(&net, t_user, 64).unwrap();
        let (best_b, best_ppw) = m.brute_force_best(&net, t_user, 64).unwrap();
        assert!(m.batch_latency(&net, best_b) <= t_user);
        assert!(best_ppw >= m.perf_per_watt(&net, picked) * 0.999);
    }

    #[test]
    fn ram_bounds_diagnosis_batch() {
        let m = model();
        let net = NetworkShapes::alexnet();
        let max_b = m.max_batch_under_ram(&net, 100_000);
        assert!(max_b > 64, "TX1-class RAM should hold >64 images: {max_b}");
        assert!(max_b < 100_000);
        // A tighter-memory device admits fewer.
        let mut small = *m.spec();
        small.ram_bytes /= 64;
        let max_small = GpuModel::new(small).max_batch_under_ram(&net, 100_000);
        assert!(max_small < max_b);
    }

    #[test]
    fn corun_slowdown_reaches_about_3x() {
        let m = model();
        let inf = NetworkShapes::alexnet();
        let diag = NetworkShapes::diagnosis_of(&inf, 9);
        let s = m.corun_slowdown(&inf, &diag);
        assert!(s > 2.0 && s <= 3.25, "slowdown {s}");
        assert!(m.corun_latency(&inf, &diag, 1) > m.batch_latency(&inf, 1));
    }

    #[test]
    fn tx2_dominates_tx1() {
        // Successor hardware: faster and more efficient at every batch
        // size — the sanity check for the cross-device ablation.
        let t1 = GpuModel::tx1();
        let t2 = GpuModel::tx2();
        let net = NetworkShapes::alexnet();
        for b in [1usize, 8, 64] {
            assert!(t2.batch_latency(&net, b) < t1.batch_latency(&net, b));
            assert!(t2.throughput(&net, b) > t1.throughput(&net, b));
        }
    }

    #[test]
    fn vgg_utilizes_resources_better_than_alexnet() {
        // Paper Fig. 21's explanation: VGG's layers saturate the GPU
        // even without batching, so batching gains are small.
        let m = model();
        let alex = NetworkShapes::alexnet();
        let vgg = NetworkShapes::vgg16();
        let gain = |net: &NetworkShapes| {
            m.perf_per_watt(net, 32) / m.perf_per_watt(net, 1)
        };
        assert!(gain(&alex) > gain(&vgg), "alex {} vgg {}", gain(&alex), gain(&vgg));
    }
}
