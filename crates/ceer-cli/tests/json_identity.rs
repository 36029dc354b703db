//! `ceer predict --json` / `ceer recommend --json` stdout must be
//! byte-identical to the corresponding `ceer serve` response bodies: both
//! front ends evaluate through `ceer_serve::api` and serialize with the
//! same pretty writer. The server side runs the real `ceer serve` binary.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;

use ceer_core::recommend::Objective;
use ceer_core::{Ceer, CeerModel, EstimateOptions, FitConfig};
use ceer_graph::models::CnnId;
use ceer_serve::api::{self, PredictRequest, RecommendRequest};
use ceer_serve::Client;

fn model() -> &'static CeerModel {
    static MODEL: OnceLock<CeerModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        Ceer::fit(&FitConfig {
            cnns: vec![CnnId::Vgg11],
            iterations: 3,
            parallel_degrees: vec![1, 2],
            seed: 5,
            ..FitConfig::default()
        })
    })
}

/// The fitted model written once to a temp file for the CLI/server to load.
fn model_file() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path = std::env::temp_dir()
            .join(format!("ceer-cli-json-identity-{}.json", std::process::id()));
        std::fs::write(&path, serde_json::to_vec(model()).unwrap()).unwrap();
        path
    })
}

fn cli_stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ceer")).args(args).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A `ceer serve --port 0` child process, killed on drop.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
    /// Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl ServeProcess {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ceer"))
            .args(["serve", "--model", model_file().to_str().unwrap(), "--port", "0"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        // "ceer-serve listening on http://127.0.0.1:PORT (...)"
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .unwrap_or_else(|| panic!("no listening address in {line:?}"));
        ServeProcess { child, addr, _stdout: stdout }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn serve_body(path: &str, request_json: &str) -> String {
    let server = ServeProcess::spawn();
    let raw = Client::new(server.addr).request("POST", path, request_json.as_bytes()).unwrap();
    drop(server);
    assert_eq!(raw.status, 200, "body: {}", raw.body);
    raw.body
}

#[test]
fn predict_json_is_byte_identical_across_cli_library_and_server() {
    let request = PredictRequest {
        cnn: "vgg-11".to_string(),
        gpu: Some("t4".to_string()),
        gpus: 2,
        batch: 16,
        samples: 50_000,
        options: EstimateOptions::default(),
    };
    let expected =
        serde_json::to_string_pretty(&api::predict(model(), &request).unwrap()).unwrap() + "\n";

    let model_arg = model_file().to_str().unwrap();
    let stdout = cli_stdout(&[
        "predict",
        "--model",
        model_arg,
        "--cnn",
        "vgg-11",
        "--gpu",
        "t4",
        "--gpus",
        "2",
        "--batch",
        "16",
        "--samples",
        "50000",
        "--json",
    ]);
    assert_eq!(stdout, expected, "CLI stdout must match the library serialization byte-for-byte");

    let body = serve_body("/predict", &serde_json::to_string(&request).unwrap());
    assert_eq!(body, expected);
}

#[test]
fn recommend_json_is_byte_identical_across_cli_library_and_server() {
    let request = RecommendRequest {
        cnn: "VGG-11".to_string(),
        objective: Some(Objective::MinimizeTime),
        samples: 50_000,
        batch: 32,
        max_gpus: 2,
        epochs: 1,
        market: false,
        memory_fit: false,
    };
    let expected =
        serde_json::to_string_pretty(&api::recommend(model(), &request).unwrap()).unwrap() + "\n";

    let model_arg = model_file().to_str().unwrap();
    let stdout = cli_stdout(&[
        "recommend",
        "--model",
        model_arg,
        "--cnn",
        "vgg11",
        "--objective",
        "time",
        "--samples",
        "50000",
        "--max-gpus",
        "2",
        "--json",
    ]);
    assert_eq!(stdout, expected, "CLI stdout must match the library serialization byte-for-byte");

    let body = serve_body("/recommend", &serde_json::to_string(&request).unwrap());
    assert_eq!(body, expected);
}
