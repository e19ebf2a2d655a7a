//! Cross-crate integration: the analytical planner against the device
//! models and the FPGA pipeline.

use insitu::core::{
    plan, select_mode, Availability, CostSource, Platform, PlanRequest, WorkingMode,
};
use insitu::devices::{FpgaModel, GpuModel, NetworkShapes};
use insitu::fpga::{design_throughput, Design, WssNwsPipeline};

#[test]
fn planner_decisions_are_consistent_with_the_models() {
    let inference = NetworkShapes::alexnet();
    let diagnosis = NetworkShapes::diagnosis_of(&inference, 9);
    let costs = CostSource::Analytical { diagnosis: &diagnosis };
    let gpu = GpuModel::tx1();
    for &t_user in &[0.05, 0.1, 0.4] {
        let req = PlanRequest {
            availability: Availability::Scheduled,
            t_user,
            max_batch: 256,
        };
        let p = plan(&req, &inference, costs, None).unwrap();
        // The plan's prediction must match a direct model query.
        assert!((p.predicted_latency_s - gpu.batch_latency(&inference, p.inference_batch))
            .abs()
            < 1e-12);
        assert!(p.predicted_latency_s <= t_user);
        // Maximality: one more image would miss the deadline.
        if p.inference_batch < 256 {
            assert!(gpu.batch_latency(&inference, p.inference_batch + 1) > t_user);
        }
    }
}

#[test]
fn co_running_plan_matches_pipeline_model() {
    let inference = NetworkShapes::alexnet();
    let diagnosis = NetworkShapes::diagnosis_of(&inference, 9);
    let req = PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 256 };
    let costs = CostSource::Analytical { diagnosis: &diagnosis };
    let p = plan(&req, &inference, costs, None).unwrap();
    assert_eq!(p.platform, Platform::Fpga);
    let spec = insitu::devices::FpgaSpec::vx690t();
    let pipe = WssNwsPipeline::configure(spec, &inference.convs(), &inference.fcs());
    assert_eq!(p.wss_group_size, pipe.group_size);
    let direct = pipe
        .best_under_latency(&inference.convs(), &inference.fcs(), 0.2, 256)
        .unwrap();
    assert_eq!(p.inference_batch, direct.batch);
}

#[test]
fn mode_selection_rule() {
    assert_eq!(
        select_mode(Availability::Scheduled),
        (WorkingMode::SingleRunning, Platform::MobileGpu)
    );
    assert_eq!(
        select_mode(Availability::AlwaysOn),
        (WorkingMode::CoRunning, Platform::Fpga)
    );
}

#[test]
fn characterization_headlines_hold() {
    // The four characterization findings of the paper's Section IV.A:
    let gpu = GpuModel::tx1();
    let fpga = FpgaModel::vx690t();
    let net = NetworkShapes::alexnet();
    // (1)+(2): batching trades latency for efficiency.
    assert!(gpu.batch_latency(&net, 32) > gpu.batch_latency(&net, 1));
    assert!(gpu.perf_per_watt(&net, 32) > gpu.perf_per_watt(&net, 1));
    // (3): GPU beats FPGA when a single task runs …
    assert!(gpu.perf_per_watt(&net, 8) > fpga.perf_per_watt(&net, 8));
    // … but suffers under co-running while the FPGA partitions.
    let diag = NetworkShapes::diagnosis_of(&net, 9);
    assert!(gpu.corun_slowdown(&net, &diag) > 2.0);
    // (4): the weight-shared design is what makes the FPGA viable.
    let spec = insitu::devices::FpgaSpec::vx690t();
    let ours = design_throughput(Design::WssNws, spec, &net, 0.1, 256).unwrap();
    let ws = design_throughput(Design::Ws, spec, &net, 0.1, 256).unwrap();
    assert!(ours.throughput > 2.0 * ws.throughput);
}

#[test]
fn vgg_plans_need_looser_deadlines() {
    let vgg = NetworkShapes::vgg16();
    let diag = NetworkShapes::diagnosis_of(&vgg, 9);
    let costs = CostSource::Analytical { diagnosis: &diag };
    // A 30 fps deadline is infeasible for VGG-16 on a TX1-class GPU.
    let strict = PlanRequest {
        availability: Availability::Scheduled,
        t_user: 0.033,
        max_batch: 64,
    };
    assert!(plan(&strict, &vgg, costs, None).is_err());
    // A relaxed deadline plans fine.
    let relaxed = PlanRequest {
        availability: Availability::Scheduled,
        t_user: 1.0,
        max_batch: 64,
    };
    assert!(plan(&relaxed, &vgg, costs, None).is_ok());
}
