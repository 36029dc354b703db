//! `ceer serve` — run the concurrent prediction service.

use ceer_serve::{EventedServer, ModelRegistry, ServerConfig};

use crate::args::Args;

const HELP: &str = "\
ceer serve — serve predictions from a fitted model over HTTP (JSON API)

One loop thread serves every connection from epoll (Linux only):
nonblocking sockets, keep-alive connections. Requests are answered one at
a time on that thread, uncached /predict included.

OPTIONS:
    --model FILE        fitted model from `ceer fit` (required; re-read on
                        POST /reload)
    --host HOST         interface to bind (default 127.0.0.1)
    --port PORT         port to bind (default 8100; 0 picks a free port)
    --cache-capacity N  LRU prediction-cache entries (default 256; 0 disables)
    --data-dir DIR      persist reloads, pins, and online-learning state to
                        DIR (checksummed WAL + atomic snapshots); on start
                        the server recovers the newest valid snapshot plus
                        the WAL suffix, and GET /healthz reports what was
                        recovered. Inspect offline with `ceer durable`.

ROBUSTNESS:
    --read-timeout-ms N     longest gap between bytes a peer sends or
                            drains; a stalled request answers 408, an idle
                            or non-draining connection closes (default
                            5000; 0 disables)
    --request-timeout-ms N  total deadline for reading one request
                            (default 10000; 0 disables)
    --max-body-bytes N      largest accepted request body; bigger answers 413
                            (default 1048576)
    --max-pending N         open-connection cap; beyond it the server sheds
                            with 429 + Retry-After (default 128)

FAULT INJECTION (chaos testing):
    CEER_FAULT_PLAN     seeded fault plan, e.g.
                        \"serve.http.read=err@0.01;serve.dispatch=delay:5@0.1\"
    CEER_FAULT_SEED     seed for probabilistic triggers (default 0); the
                        same plan + seed replays the same fault schedule

ENDPOINTS:
    GET  /healthz, /readyz, /zoo, /catalog, /metrics
    POST /predict, /predict_batch, /recommend, /reload

`POST /predict` and `POST /recommend` take the same parameters as the
`predict`/`recommend` subcommands and answer with the exact bytes their
--json modes print. One spelling difference: `objective` takes the library
names (\"MinimizeCost\", \"MinimizeTime\", {\"MinTimeUnderHourlyBudget\":
{\"usd_per_hour\": ...}}, ...), not the CLI shorthands cost/time.";

pub(crate) fn run(args: &Args) -> Result<(), String> {
    if args.wants_help() {
        println!("{HELP}");
        return Ok(());
    }
    let model_path = args.require("--model")?;
    let host = args.opt("--host")?.unwrap_or_else(|| "127.0.0.1".to_string());
    let port = args.opt_parse("--port", 8100u16)?;
    let cache_capacity = args.opt_parse("--cache-capacity", 256usize)?;
    let defaults = ServerConfig::default();
    let read_timeout_ms = args.opt_parse("--read-timeout-ms", defaults.read_timeout_ms)?;
    let request_timeout_ms = args.opt_parse("--request-timeout-ms", defaults.request_timeout_ms)?;
    let max_body_bytes = args.opt_parse("--max-body-bytes", defaults.max_body_bytes)?;
    let max_pending = args.opt_parse("--max-pending", defaults.max_pending)?;
    let data_dir = args.opt("--data-dir")?.map(std::path::PathBuf::from);
    args.finish()?;
    // A typo'd fault plan must refuse to start, not silently inject nothing.
    let faults = ceer_faults::FaultPlan::from_env()?;
    if let Some(plan) = &faults {
        eprintln!("ceer-serve: fault injection active (seed {}): {plan}", plan.seed);
    }

    let registry = ModelRegistry::load(&model_path)?;
    let config = ServerConfig {
        host,
        port,
        cache_capacity,
        read_timeout_ms,
        request_timeout_ms,
        max_body_bytes,
        max_pending,
        data_dir,
        faults,
    };
    let server = EventedServer::start(&config, registry)?;
    println!(
        "ceer-serve listening on http://{} (1 loop thread, cache capacity {}, model \
         {model_path:?})",
        server.addr(),
        config.cache_capacity
    );
    println!(
        "endpoints: GET /healthz /readyz /zoo /catalog /metrics — POST /predict /predict_batch \
         /recommend /reload"
    );
    server.wait();
    Ok(())
}
