//! Scaling study: how training time scales with the number of GPUs under
//! data parallelism (the paper's §III-D, generalized to any CNN in the
//! zoo), and how well Ceer predicts it without ever profiling the CNN.
//!
//! ```text
//! cargo run --release --example scaling_study -- [model] [samples]
//! ```

use ceer::gpusim::GpuModel;
use ceer::graph::models::{Cnn, CnnId};
use ceer::model::{Ceer, EstimateOptions, FitConfig};
use ceer::trainer::Trainer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let id = args
        .first()
        .and_then(|n| CnnId::all().iter().copied().find(|m| m.name().eq_ignore_ascii_case(n)))
        .unwrap_or(CnnId::InceptionV1);
    let samples: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6_400);

    println!("scaling study: {} over {samples} samples\n", id.name());

    // Fit Ceer once (the studied CNN may or may not be in its training set;
    // test-set CNNs demonstrate true generalization).
    let model = Ceer::fit(&FitConfig { iterations: 30, ..FitConfig::default() });

    let cnn = Cnn::build(id, 32);
    let graph = cnn.training_graph();
    let options = EstimateOptions::default();

    println!(
        "{:24} {:>5} {:>12} {:>12} {:>8} {:>10}",
        "GPU", "k", "observed(s)", "predicted(s)", "err", "speedup"
    );
    for &gpu in GpuModel::all() {
        let mut base = None;
        for k in 1..=4u32 {
            let observed = Trainer::new(gpu, k)
                .with_seed(1234)
                .profile_graph(&cnn, &graph, 15)
                .epoch_time_us(samples);
            let predicted = model.predict_epoch_us(&cnn, gpu, k, samples, &options);
            let base_time = *base.get_or_insert(observed);
            println!(
                "{:24} {:>5} {:>12.1} {:>12.1} {:>7.1}% {:>9.2}x",
                if k == 1 { gpu.to_string() } else { String::new() },
                k,
                observed / 1e6,
                predicted / 1e6,
                (predicted - observed).abs() / observed * 100.0,
                base_time / observed
            );
        }
    }
    println!(
        "\nNote the diminishing returns (§III-D of the paper): the jump from\n\
         1 to 2 GPUs helps far more than 3 to 4, because every extra GPU adds\n\
         synchronization overhead that grows with the model's parameter count."
    );
}
