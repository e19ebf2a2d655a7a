//! Mode planner: pick the deployment configuration for an IoT node
//! from the paper's analytical models.
//!
//! Given an availability requirement and an end-user latency bound,
//! the planner chooses Single-running (mobile GPU, time + resource
//! models) or Co-running (FPGA, WSS-NWS pipeline model) and the batch
//! sizes. This example sweeps several deployments and prints the
//! decisions, then re-plans one of them from a measured latency
//! profile — the same planner over the other cost source, as the
//! node's online re-plan loop does.
//!
//! Run with: `cargo run --release --example mode_planner`

use insitu::core::{plan, Availability, CostSource, MeasuredProfile, PlanRequest};
use insitu::devices::NetworkShapes;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let inference = NetworkShapes::alexnet();
    let diagnosis = NetworkShapes::diagnosis_of(&inference, 9);
    let analytical = CostSource::Analytical { diagnosis: &diagnosis };
    println!(
        "planning for `{}` ({} conv + {} fc layers, {:.2} Gops/image)\n",
        inference.name,
        inference.convs().len(),
        inference.fcs().len(),
        inference.total_ops() as f64 / 1e9
    );
    println!(
        "{:<24} {:>8} {:>14} {:>10} {:>10} {:>12} {:>10}",
        "scenario", "T_user", "mode", "platform", "batch", "latency", "img/s"
    );
    let scenarios = [
        ("night-idle camera", Availability::Scheduled, 0.033),
        ("smart doorbell", Availability::Scheduled, 0.2),
        ("wildlife sanctuary", Availability::Scheduled, 1.0),
        ("24/7 surveillance", Availability::AlwaysOn, 0.05),
        ("24/7 traffic monitor", Availability::AlwaysOn, 0.2),
        ("24/7 anomaly detector", Availability::AlwaysOn, 0.8),
    ];
    for (name, availability, t_user) in scenarios {
        let request = PlanRequest { availability, t_user, max_batch: 256 };
        match plan(&request, &inference, analytical, None) {
            Ok(p) => println!(
                "{:<24} {:>6.0}ms {:>14} {:>10} {:>10} {:>9.1}ms {:>10.1}",
                name,
                t_user * 1e3,
                format!("{:?}", p.mode),
                format!("{:?}", p.platform),
                p.inference_batch,
                p.predicted_latency_s * 1e3,
                p.predicted_throughput
            ),
            Err(e) => println!("{name:<24} {:>6.0}ms  INFEASIBLE: {e}", t_user * 1e3),
        }
    }
    println!("\nDiagnosis batch sizes (Single-running) come from the Eq. 9 resource");
    println!("model; Co-running batches from the Eq. 13/14 pipeline model.");

    // A node that measured a 6 ms p90 per image re-admits its batch
    // from that measurement instead of the device model.
    let measured = MeasuredProfile { per_image_p50_s: 0.005, per_image_p90_s: 0.006, stages: 32 };
    let request = PlanRequest { availability: Availability::AlwaysOn, t_user: 0.2, max_batch: 256 };
    let p = plan(&request, &inference, CostSource::Measured(&measured), None)?;
    println!("\nre-planned from a measured 6 ms/image p90 at 200 ms: {}", p.summary());
    Ok(())
}
