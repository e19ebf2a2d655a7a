//! The configuration planner: the paper's analytical models put to
//! work.
//!
//! Given the deployment constraints (availability, end-user latency
//! bound) and the network shapes, the planner chooses the working
//! mode, platform, and batch sizes:
//!
//! * **Single-running (GPU)** — the *time model* (Eqs. 5–8) picks the
//!   largest inference batch meeting the latency bound (maximum
//!   perf/W under the deadline, the paper's Fig. 21 method); the
//!   *resource model* (Eq. 9) picks the largest diagnosis batch that
//!   fits device memory.
//! * **Co-running (FPGA)** — Eqs. (10)–(14) configure the WSS Group +
//!   NWS pipeline and pick the largest batch meeting the latency
//!   bound.
//!
//! One entry point, [`plan`], prices batches from a [`CostSource`]:
//! those analytical models, or the per-image latencies the running
//! node measured (the online re-plan path).

use crate::error::CoreError;
use crate::modes::{select_mode, Availability, Platform, WorkingMode};
use crate::node::InferencePrecision;
use crate::Result;
use insitu_devices::{FpgaSpec, GpuModel, GpuSpec, NetworkShapes};
use insitu_fpga::WssNwsPipeline;
use insitu_telemetry::Histogram;
use serde::{Deserialize, Serialize};

/// Measured i8-vs-f32 trade-off a node feeds back to the planner.
///
/// The paper's FPGA PEs are fixed-point; running the deployed network
/// at [`InferencePrecision::I8`] trades a small accuracy delta for a
/// throughput gain. The caller measures both numbers on the node (i8
/// vs f32 stage time, held-out accuracy at each precision); they do not
/// come from the analytical model — the planner folds them into the
/// Eqs. (10)–(14) time model to decide whether the quantized
/// configuration still meets the user's deadline and what batch it
/// admits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantProfile {
    /// Measured i8 throughput multiplier over f32 (e.g. `1.8`).
    pub speedup: f64,
    /// Held-out accuracy change of i8 relative to f32, in fractional
    /// points (usually a small negative number).
    pub accuracy_delta: f32,
}

/// Per-stage costs *measured* on the running node, distilled from a
/// latency histogram — the closed-loop replacement for the static
/// device model.
///
/// Every fused stage records its per-image latency into the node's own
/// histogram for the precision it ran at;
/// [`MeasuredProfile::from_hist`] reads one of those into per-image
/// latency percentiles. [`plan`] over [`CostSource::Measured`] then
/// admits the largest batch whose **measured p90** per-image cost meets
/// the user deadline, instead of trusting Eqs. 5–14's assumed costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeasuredProfile {
    /// Median per-image stage latency, seconds.
    pub per_image_p50_s: f64,
    /// 90th-percentile per-image stage latency, seconds — what the
    /// admission decision uses (tail-aware, unlike a mean).
    pub per_image_p90_s: f64,
    /// Stage samples the profile distils.
    pub stages: u64,
}

impl MeasuredProfile {
    /// Distils a profile from a histogram of per-image stage latencies
    /// in nanoseconds. Returns `None` when it holds no samples (no
    /// stage ran at that precision, or the window just restarted).
    pub fn from_hist(per_image: &Histogram) -> Option<Self> {
        if per_image.is_empty() {
            return None;
        }
        Some(MeasuredProfile {
            per_image_p50_s: per_image.percentile(0.50) as f64 / 1e9,
            per_image_p90_s: per_image.percentile(0.90) as f64 / 1e9,
            stages: per_image.count(),
        })
    }
}

/// Telemetry label of a precision (`"f32"` / `"i8"`).
pub fn precision_label(precision: InferencePrecision) -> &'static str {
    match precision {
        InferencePrecision::F32 => "f32",
        InferencePrecision::I8 => "i8",
    }
}

/// Deployment constraints supplied by the end user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanRequest {
    /// Availability requirement for the inference task.
    pub availability: Availability,
    /// End-user latency bound for inference, in seconds.
    pub t_user: f64,
    /// Upper bound on batch sizes the search considers.
    pub max_batch: usize,
}

impl Default for PlanRequest {
    fn default() -> Self {
        PlanRequest { availability: Availability::Scheduled, t_user: 0.1, max_batch: 256 }
    }
}

/// The planner's decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodePlan {
    /// Chosen working mode.
    pub mode: WorkingMode,
    /// Chosen accelerator.
    pub platform: Platform,
    /// Inference batch size.
    pub inference_batch: usize,
    /// Diagnosis batch size (Single-running) or pipeline batch
    /// (Co-running).
    pub diagnosis_batch: usize,
    /// Predicted inference latency at the chosen batch, seconds.
    pub predicted_latency_s: f64,
    /// Predicted throughput, images/second.
    pub predicted_throughput: f64,
    /// Predicted energy-efficiency, images/second/watt (GPU path only;
    /// 0.0 for the FPGA pipeline where the paper optimizes throughput).
    pub predicted_perf_per_watt: f64,
    /// WSS group size (Co-running only; 0 otherwise).
    pub wss_group_size: usize,
    /// Precision the inference task should run at.
    pub precision: InferencePrecision,
    /// Expected accuracy change of the chosen precision vs f32, in
    /// fractional points (0.0 for f32 plans).
    pub accuracy_delta: f32,
}

impl NodePlan {
    /// One-line description for logs, instants and flight-recorder
    /// events, e.g. `CoRunning/Fpga bs=32 i8 (0.0123 s/batch)`.
    pub fn summary(&self) -> String {
        format!(
            "{}/{} bs={} {} ({:.4} s/batch)",
            self.mode,
            self.platform,
            self.inference_batch,
            precision_label(self.precision),
            self.predicted_latency_s
        )
    }
}

/// Where the planner's per-image costs come from: the analytical
/// device models or the node's own measurements. Both feed the same
/// input check, mode selection, WSS group sizing and plan assembly in
/// [`plan`]; only batch admission differs.
#[derive(Debug, Clone, Copy)]
pub enum CostSource<'a> {
    /// The paper's time and resource models. Single-running admits the
    /// largest GPU inference batch meeting the deadline (Eqs. 5–8) and
    /// the largest diagnosis batch fitting device memory (Eq. 9, over
    /// these `diagnosis` shapes); Co-running admits the largest
    /// WSS-NWS pipeline batch meeting it (Eqs. 10–14).
    Analytical {
        /// Shapes of the diagnosis network.
        diagnosis: &'a NetworkShapes,
    },
    /// Per-stage costs measured on the running node: the largest batch
    /// whose **measured p90** per-image latency fits the deadline is
    /// admitted. The latencies were recorded at the precision the node
    /// actually runs, so a quant profile marks the plan i8 without
    /// rescaling them. This is what the node's online re-plan path
    /// uses.
    Measured(&'a MeasuredProfile),
}

/// Plans a node configuration for the given constraints and inference
/// network, pricing batches with `costs`.
///
/// The mode and platform follow the paper's availability rule. An
/// optional measured [`QuantProfile`] makes a Co-running (FPGA) plan
/// i8 and carries its accuracy delta; under
/// [`CostSource::Analytical`] it also scales the pipeline's per-batch
/// latency by the measured speedup before the deadline check (a batch
/// is admissible iff its f32 latency is within `t_user × speedup`),
/// which can rescue an otherwise-infeasible deadline. Single-running
/// (GPU) plans stay f32: the quantized kernels model the FPGA's
/// fixed-point PEs, not the mobile GPU's floating-point ALUs.
///
/// # Errors
///
/// Returns [`CoreError::BadConfig`] for a bad request (a NaN or
/// non-positive `t_user`, a zero `max_batch`), a degenerate quant
/// profile (non-finite or non-positive speedup) or a degenerate
/// measured profile (non-finite or non-positive p90), and
/// [`CoreError::Infeasible`] when no batch size meets the latency
/// bound.
pub fn plan(
    request: &PlanRequest,
    inference: &NetworkShapes,
    costs: CostSource<'_>,
    quant: Option<&QuantProfile>,
) -> Result<NodePlan> {
    let t_user = request.t_user;
    let bad = |reason: String| Err(CoreError::BadConfig { reason });
    if t_user.is_nan() || t_user <= 0.0 {
        return bad(format!("deadline t_user must be > 0 s, got {t_user}"));
    }
    if request.max_batch == 0 {
        return bad("max_batch must be at least 1".into());
    }
    if let Some(q) = quant {
        if !(q.speedup.is_finite() && q.speedup > 0.0) {
            return bad(format!("quant profile speedup must be finite and > 0, got {}", q.speedup));
        }
    }
    if let CostSource::Measured(m) = costs {
        let p90 = m.per_image_p90_s;
        if !(p90.is_finite() && p90 > 0.0) {
            return bad(format!("measured per-image latency must be finite and > 0, got {p90}"));
        }
    }
    let (mode, platform) = select_mode(request.availability);
    // Co-running maps onto the WSS Group + NWS pipeline (Eqs. 10–14).
    let (convs, fcs) = (inference.convs(), inference.fcs());
    let pipeline = (platform == Platform::Fpga)
        .then(|| WssNwsPipeline::configure(FpgaSpec::vx690t(), &convs, &fcs));
    let quant = quant.filter(|_| pipeline.is_some());
    let infeasible = |what: String| CoreError::Infeasible {
        reason: format!("no {what} meets {t_user} s for `{}`", inference.name),
    };
    // Batch admission, the one step that depends on the cost source.
    let (
        inference_batch,
        diagnosis_batch,
        predicted_latency_s,
        predicted_throughput,
        predicted_perf_per_watt,
    ) = match (costs, &pipeline) {
        (CostSource::Measured(m), _) => {
            let per_image = m.per_image_p90_s;
            if per_image > t_user {
                return Err(infeasible(format!(
                    "batch at the measured p90 of {per_image:.6} s per image"
                )));
            }
            let batch = ((t_user / per_image).floor() as usize).clamp(1, request.max_batch);
            (batch, batch, batch as f64 * per_image, 1.0 / per_image, 0.0)
        }
        (CostSource::Analytical { diagnosis }, None) => {
            let gpu = GpuModel::new(GpuSpec::tx1());
            let batch = gpu
                .optimal_batch(inference, t_user, request.max_batch)
                .ok_or_else(|| infeasible("GPU batch".into()))?;
            (
                batch,
                gpu.max_batch_under_ram(diagnosis, request.max_batch).max(1),
                gpu.batch_latency(inference, batch),
                gpu.throughput(inference, batch),
                gpu.perf_per_watt(inference, batch),
            )
        }
        (CostSource::Analytical { .. }, Some(pipe)) => {
            let speedup = quant.map_or(1.0, |q| q.speedup);
            let point = pipe
                .best_under_latency(&convs, &fcs, t_user * speedup, request.max_batch)
                .ok_or_else(|| infeasible("pipeline batch".into()))?;
            let batch = point.batch;
            (batch, batch, point.latency_s / speedup, point.throughput * speedup, 0.0)
        }
    };
    Ok(NodePlan {
        mode,
        platform,
        inference_batch,
        diagnosis_batch,
        predicted_latency_s,
        predicted_throughput,
        predicted_perf_per_watt,
        wss_group_size: pipeline.map_or(0, |p| p.group_size),
        precision: if quant.is_some() { InferencePrecision::I8 } else { InferencePrecision::F32 },
        accuracy_delta: quant.map_or(0.0, |q| q.accuracy_delta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nets() -> (NetworkShapes, NetworkShapes) {
        let inf = NetworkShapes::alexnet();
        let diag = NetworkShapes::diagnosis_of(&inf, 9);
        (inf, diag)
    }

    /// The analytical planner over `diag` shapes.
    fn analytical(
        req: &PlanRequest,
        inf: &NetworkShapes,
        diag: &NetworkShapes,
        quant: Option<&QuantProfile>,
    ) -> Result<NodePlan> {
        plan(req, inf, CostSource::Analytical { diagnosis: diag }, quant)
    }

    #[test]
    fn scheduled_plan_uses_gpu_time_and_resource_models() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 0.1,
            max_batch: 128,
        };
        let plan = analytical(&req, &inf, &diag, None).unwrap();
        assert_eq!(plan.platform, Platform::MobileGpu);
        assert_eq!(plan.mode, WorkingMode::SingleRunning);
        assert!(plan.predicted_latency_s <= 0.1);
        assert!(plan.inference_batch >= 1);
        assert!(plan.diagnosis_batch >= plan.inference_batch); // RAM >> deadline bound
        assert!(plan.predicted_perf_per_watt > 0.0);
    }

    #[test]
    fn always_on_plan_uses_fpga_pipeline() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let plan = analytical(&req, &inf, &diag, None).unwrap();
        assert_eq!(plan.platform, Platform::Fpga);
        assert_eq!(plan.mode, WorkingMode::CoRunning);
        assert!(plan.predicted_latency_s <= 0.2);
        assert!(plan.wss_group_size >= 1);
    }

    #[test]
    fn impossible_deadline_is_infeasible() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 1e-9,
            max_batch: 16,
        };
        assert!(matches!(
            analytical(&req, &inf, &diag, None),
            Err(CoreError::Infeasible { .. })
        ));
    }

    #[test]
    fn quant_profile_boosts_fpga_throughput_and_records_delta() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let f32_plan = analytical(&req, &inf, &diag, None).unwrap();
        let profile = QuantProfile { speedup: 1.8, accuracy_delta: -0.007 };
        let i8_plan = analytical(&req, &inf, &diag, Some(&profile)).unwrap();
        assert_eq!(i8_plan.precision, InferencePrecision::I8);
        assert_eq!(i8_plan.accuracy_delta, -0.007);
        assert!(i8_plan.predicted_latency_s <= req.t_user + 1e-12);
        assert!(
            i8_plan.predicted_throughput > f32_plan.predicted_throughput,
            "i8 {} vs f32 {}",
            i8_plan.predicted_throughput,
            f32_plan.predicted_throughput
        );
        assert_eq!(f32_plan.precision, InferencePrecision::F32);
        assert_eq!(f32_plan.accuracy_delta, 0.0);
    }

    #[test]
    fn quant_profile_can_rescue_an_infeasible_deadline() {
        let (inf, diag) = nets();
        // Find a deadline tight enough that f32 fails but 4x i8 passes.
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 1e-4, max_batch: 64 };
        if analytical(&req, &inf, &diag, None).is_err() {
            let profile = QuantProfile { speedup: 1e3, accuracy_delta: -0.01 };
            let rescued = analytical(&req, &inf, &diag, Some(&profile));
            assert!(rescued.is_ok(), "large measured speedup should admit a batch");
        }
    }

    #[test]
    fn gpu_plans_stay_f32_even_with_a_profile() {
        let (inf, diag) = nets();
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user: 0.1,
            max_batch: 128,
        };
        let profile = QuantProfile { speedup: 2.0, accuracy_delta: -0.01 };
        let p = analytical(&req, &inf, &diag, Some(&profile)).unwrap();
        assert_eq!(p.platform, Platform::MobileGpu);
        assert_eq!(p.precision, InferencePrecision::F32);
        assert_eq!(p.accuracy_delta, 0.0);
        assert_eq!(p, analytical(&req, &inf, &diag, None).unwrap());
    }

    fn profile(per_image_s: f64) -> MeasuredProfile {
        MeasuredProfile {
            per_image_p50_s: per_image_s * 0.8,
            per_image_p90_s: per_image_s,
            stages: 10,
        }
    }

    /// One input check for both cost sources: a NaN, zero or negative
    /// deadline, a zero `max_batch` and a degenerate quant profile are
    /// all `BadConfig`, whichever source prices the batches.
    #[test]
    fn bad_requests_are_rejected_by_both_cost_sources() {
        let (inf, diag) = nets();
        let measured = profile(0.01);
        let ok = PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 64 };
        let bad_config = |req: &PlanRequest, source, quant: Option<&QuantProfile>| {
            matches!(plan(req, &inf, source, quant), Err(CoreError::BadConfig { .. }))
        };
        for availability in [Availability::AlwaysOn, Availability::Scheduled] {
            let ok = PlanRequest { availability, ..ok };
            let bad_requests = [
                PlanRequest { t_user: f64::NAN, ..ok },
                PlanRequest { t_user: 0.0, ..ok },
                PlanRequest { t_user: -1.0, ..ok },
                PlanRequest { max_batch: 0, ..ok },
            ];
            for source in
                [CostSource::Analytical { diagnosis: &diag }, CostSource::Measured(&measured)]
            {
                assert!(plan(&ok, &inf, source, None).is_ok(), "{ok:?} via {source:?}");
                for req in &bad_requests {
                    assert!(bad_config(req, source, None), "{req:?} via {source:?}");
                }
                for speedup in [0.0, -1.0, f64::NAN, f64::INFINITY] {
                    let q = QuantProfile { speedup, accuracy_delta: 0.0 };
                    assert!(bad_config(&ok, source, Some(&q)), "speedup {speedup} via {source:?}");
                }
            }
        }
    }

    #[test]
    fn measured_plan_admits_batch_from_p90() {
        let (inf, _) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.1, max_batch: 256 };
        let measured = |s| plan(&req, &inf, CostSource::Measured(&profile(s)), None).unwrap();
        let p = measured(0.01);
        assert_eq!(p.platform, Platform::Fpga);
        assert_eq!(p.mode, WorkingMode::CoRunning);
        assert_eq!(p.inference_batch, 10); // floor(0.1 / 0.01)
        assert!(p.predicted_latency_s <= req.t_user + 1e-12);
        assert!((p.predicted_throughput - 100.0).abs() < 1e-6);
        assert!(p.wss_group_size >= 1);
        // A slower node admits a smaller batch.
        assert!(measured(0.04).inference_batch < p.inference_batch);
        // max_batch caps the admission.
        let tiny = PlanRequest { max_batch: 4, ..req };
        let capped = plan(&tiny, &inf, CostSource::Measured(&profile(0.01)), None).unwrap();
        assert_eq!(capped.inference_batch, 4);
    }

    #[test]
    fn measured_plan_infeasible_and_degenerate() {
        let (inf, _) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.01, max_batch: 64 };
        assert!(matches!(
            plan(&req, &inf, CostSource::Measured(&profile(0.02)), None),
            Err(CoreError::Infeasible { .. })
        ));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                plan(&req, &inf, CostSource::Measured(&profile(bad)), None),
                Err(CoreError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn measured_plan_quant_marks_i8_on_fpga_only() {
        let (inf, _) = nets();
        let q = QuantProfile { speedup: 1.7, accuracy_delta: -0.005 };
        let measured = profile(0.01);
        let fpga =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.1, max_batch: 64 };
        let p = plan(&fpga, &inf, CostSource::Measured(&measured), Some(&q)).unwrap();
        assert_eq!(p.precision, InferencePrecision::I8);
        assert_eq!(p.accuracy_delta, -0.005);
        let gpu =
            PlanRequest { availability: Availability::Scheduled, t_user: 0.1, max_batch: 64 };
        let p = plan(&gpu, &inf, CostSource::Measured(&measured), Some(&q)).unwrap();
        assert_eq!(p.precision, InferencePrecision::F32);
        assert_eq!(p.accuracy_delta, 0.0);
        assert_eq!(p.wss_group_size, 0);
    }

    #[test]
    fn plan_summary_is_one_line() {
        let (inf, diag) = nets();
        let req =
            PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 128 };
        let s = analytical(&req, &inf, &diag, None).unwrap().summary();
        assert!(s.contains("CoRunning/Fpga"), "{s}");
        assert!(s.contains("bs="), "{s}");
        assert!(!s.contains('\n'));
    }

    /// An empty measurement window yields no profile.
    #[test]
    fn empty_snapshot_yields_no_profile() {
        assert!(MeasuredProfile::from_hist(&Histogram::new()).is_none());
    }

    #[test]
    fn looser_deadline_never_reduces_throughput() {
        let (inf, diag) = nets();
        let mut last = 0.0;
        for &t in &[0.05, 0.1, 0.2, 0.4] {
            let req = PlanRequest {
                availability: Availability::AlwaysOn,
                t_user: t,
                max_batch: 256,
            };
            let p = analytical(&req, &inf, &diag, None).unwrap();
            assert!(p.predicted_throughput >= last * 0.999);
            last = p.predicted_throughput;
        }
    }
}
