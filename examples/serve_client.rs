//! Serve a fitted model over HTTP and talk to it with the blocking client:
//! fit, start the service on a free port, predict (twice, to show the
//! cache), ask for a recommendation, and read the metrics — then shut the
//! server down gracefully.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serve_client
//! ```

use ceer::model::{Ceer, EstimateOptions, FitConfig};
use ceer::serve::api::{PredictRequest, RecommendRequest};
use ceer::serve::{Client, EventedServer, ModelRegistry, ServerConfig};

fn main() {
    // 1. Fit a model (fewer iterations than the paper's 1,000 keep the
    //    example fast) and start serving it. Port 0 asks the OS for a free
    //    port; a deployment would pass a fixed one (`ceer serve` defaults
    //    to 8100).
    let model = Ceer::fit(&FitConfig { iterations: 20, ..FitConfig::default() });
    let config = ServerConfig { port: 0, ..ServerConfig::default() };
    let server = EventedServer::start(&config, ModelRegistry::from_model(model)).expect("bind");
    println!("serving on http://{}", server.addr());

    // 2. Predict over HTTP. The response is exactly what the library's
    //    estimator returns — and what `ceer predict --json` prints.
    let client = Client::new(server.addr());
    let request = PredictRequest {
        cnn: "resnet-101".to_string(),
        gpu: None,
        gpus: 2,
        batch: 32,
        samples: 1_200_000,
        options: EstimateOptions::default(),
    };
    let prediction = client.predict(&request).expect("predict");
    println!(
        "\n{} — batch {}/GPU on {} GPU(s), one epoch of {} samples:",
        prediction.cnn, prediction.batch, prediction.gpus, prediction.samples
    );
    for p in &prediction.predictions {
        println!(
            "  {:24} iteration {:>8.1} ms, epoch {:>6.2} h, ${:>6.2} on {}",
            p.gpu.to_string(),
            p.iteration_us / 1e3,
            p.epoch_us / 3.6e9,
            p.epoch_cost_usd,
            p.instance,
        );
    }

    // The same request again is answered from the LRU cache.
    client.predict(&request).expect("cached predict");

    // 3. Ask the recommender for the cheapest instance.
    let recommendation = client
        .recommend(&RecommendRequest {
            cnn: "resnet-101".to_string(),
            objective: None, // defaults to cost
            samples: 1_200_000,
            batch: 32,
            max_gpus: 4,
            epochs: 1,
            market: false,
            memory_fit: false,
        })
        .expect("recommend");
    let best = recommendation.best.expect("cost minimization is always feasible");
    println!(
        "\ncheapest instance: {} — predicted {:.2} h, ${:.2}",
        best.instance().name(),
        best.predicted_time_hours(),
        best.predicted_cost_usd()
    );

    // 4. The metrics endpoint shows what just happened.
    let metrics = client.metrics().expect("metrics");
    for (route, endpoint) in &metrics.endpoints {
        println!("{route:20} {} request(s), {} error(s)", endpoint.requests, endpoint.errors);
    }
    println!(
        "cache: {} hit(s), {} miss(es), hit rate {:.0}%",
        metrics.cache.hits,
        metrics.cache.misses,
        metrics.cache.hit_rate * 100.0
    );

    // 5. Graceful shutdown: stop accepting, drain, join the loop thread.
    server.shutdown();
    println!("\nserver stopped");
}
