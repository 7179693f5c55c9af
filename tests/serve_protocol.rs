//! End-to-end protocol suite over a loopback `mis-serve` daemon.
//!
//! Covers the tentpole's contract surface: submit → poll → fetch
//! round-trips for beeping *and* message families (record-for-record
//! equal to solo `RunPlan` batches), typed rejections that leave the
//! connection usable, oversized/truncated frame handling, and the `watch`
//! status stream.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use beeping_mis::baselines::{
    GreedyLocalFactory, LubyMarkingFactory, LubyPriorityFactory, MessageEngine, MetivierFactory,
};
use beeping_mis::beeping::json::Json;
use beeping_mis::core::engine::{AlgorithmEngine, EngineRecord};
use beeping_mis::core::{Algorithm, RunPlan};
use beeping_mis::graph::generators;
use beeping_mis::serve::request::MAX_NODES;
use beeping_mis::serve::{ServeClient, ServeConfig, Server, ServerHandle};

fn spawn() -> ServerHandle {
    Server::spawn(ServeConfig::default().with_addr("127.0.0.1:0")).expect("spawn daemon")
}

fn client(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(handle.addr()).expect("connect")
}

fn request(family: &str, seed: u64, runs: usize) -> Json {
    let extra = if family == "constant" {
        r#", "p": 0.4"#
    } else {
        ""
    };
    Json::parse(&format!(
        r#"{{"graph": {{"generator": "grid2d", "rows": 4, "cols": 5}},
            "algorithm": {{"family": "{family}"{extra}}},
            "seed": "{seed}", "runs": {runs}}}"#
    ))
    .unwrap()
}

/// Asserts the daemon's record array equals a solo batch's records field
/// by field (seeds, rounds, MIS sizes, costs — full bit-identity on the
/// floats, since both sides render nothing in between).
fn assert_records_match<R: EngineRecord>(fetched: &Json, solo: &[R]) {
    let records = fetched
        .get("result")
        .and_then(|r| r.get("records"))
        .and_then(Json::as_arr)
        .expect("result.records");
    assert_eq!(records.len(), solo.len());
    for (json, record) in records.iter().zip(solo) {
        assert_eq!(
            json.get("seed").and_then(Json::as_u64_str),
            Some(record.seed())
        );
        assert_eq!(
            json.get("rounds").and_then(Json::as_f64),
            Some(f64::from(record.rounds()))
        );
        assert_eq!(
            json.get("mis_size").and_then(Json::as_f64),
            Some(record.mis_size() as f64)
        );
        assert_eq!(json.get("cost").and_then(Json::as_f64), Some(record.cost()));
        assert_eq!(
            json.get("bits_per_channel").and_then(Json::as_f64),
            Some(record.bits_per_channel())
        );
        assert_eq!(
            json.get("terminated").and_then(Json::as_bool),
            Some(record.terminated())
        );
    }
}

#[test]
fn beeping_round_trip_matches_solo_run_plan() {
    let handle = spawn();
    let mut c = client(&handle);
    let fetched = c.run_to_completion(&request("feedback", 11, 5)).unwrap();
    assert_eq!(fetched.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(fetched.get("cached"), Some(&Json::Bool(false)));

    let g = generators::grid2d(4, 5);
    let solo = RunPlan::new(Algorithm::feedback(), 5)
        .with_master_seed(11)
        .execute(&g);
    assert_records_match(&fetched, solo.records());
    handle.stop();
}

#[test]
fn message_round_trip_matches_solo_run_plan() {
    let handle = spawn();
    let mut c = client(&handle);
    let fetched = c
        .run_to_completion(&request("luby_priority", 3, 4))
        .unwrap();
    assert_eq!(fetched.get("ok"), Some(&Json::Bool(true)));

    let g = generators::grid2d(4, 5);
    let solo = RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 4)
        .with_master_seed(3)
        .execute(&g);
    assert_records_match(&fetched, solo.records());
    handle.stop();
}

#[test]
fn all_seven_families_round_trip_against_their_engines() {
    let handle = spawn();
    let mut c = client(&handle);
    let g = generators::grid2d(4, 5);
    for family in [
        "feedback",
        "sweep",
        "science",
        "constant",
        "luby_priority",
        "luby_marking",
        "metivier",
        "greedy_local",
    ] {
        let fetched = c.run_to_completion(&request(family, 21, 3)).unwrap();
        assert_eq!(fetched.get("ok"), Some(&Json::Bool(true)), "{family}");
        let plan = |alg: Algorithm| {
            RunPlan::for_engine(AlgorithmEngine::new(alg), 3)
                .with_master_seed(21)
                .execute(&g)
        };
        match family {
            "feedback" => assert_records_match(&fetched, plan(Algorithm::feedback()).records()),
            "sweep" => assert_records_match(&fetched, plan(Algorithm::sweep()).records()),
            "science" => assert_records_match(&fetched, plan(Algorithm::science()).records()),
            "constant" => {
                assert_records_match(&fetched, plan(Algorithm::constant(0.4)).records());
            }
            "luby_priority" => assert_records_match(
                &fetched,
                RunPlan::for_engine(MessageEngine::new(LubyPriorityFactory::new()), 3)
                    .with_master_seed(21)
                    .execute(&g)
                    .records(),
            ),
            "luby_marking" => assert_records_match(
                &fetched,
                RunPlan::for_engine(MessageEngine::new(LubyMarkingFactory::new()), 3)
                    .with_master_seed(21)
                    .execute(&g)
                    .records(),
            ),
            "metivier" => assert_records_match(
                &fetched,
                RunPlan::for_engine(MessageEngine::new(MetivierFactory::new()), 3)
                    .with_master_seed(21)
                    .execute(&g)
                    .records(),
            ),
            _ => assert_records_match(
                &fetched,
                RunPlan::for_engine(MessageEngine::new(GreedyLocalFactory::new()), 3)
                    .with_master_seed(21)
                    .execute(&g)
                    .records(),
            ),
        }
    }
    handle.stop();
}

#[test]
fn malformed_requests_get_typed_errors_and_the_connection_survives() {
    let handle = spawn();
    let mut c = client(&handle);
    let expect_code = |c: &mut ServeClient, line: &str, code: &str| {
        let reply = Json::parse(&c.raw_call(line).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some(code),
            "{line}"
        );
    };
    expect_code(&mut c, "this is not json", "bad_json");
    expect_code(&mut c, "{\"no_cmd\": 1}", "bad_request");
    expect_code(&mut c, "{\"cmd\": \"frobnicate\"}", "unknown_command");
    expect_code(&mut c, "{\"cmd\": \"submit\"}", "bad_request");
    let submit = |body: &str| format!("{{\"cmd\": \"submit\", \"request\": {body}}}");
    expect_code(
        &mut c,
        &submit(
            r#"{"graph": {"generator": "cycle", "n": 8}, "algorithm": {"family": "quantum"}, "runs": 1}"#,
        ),
        "unknown_algorithm",
    );
    expect_code(
        &mut c,
        &submit(
            r#"{"graph": {"generator": "moebius", "n": 8}, "algorithm": {"family": "feedback"}, "runs": 1}"#,
        ),
        "unknown_generator",
    );
    expect_code(
        &mut c,
        &submit(
            r#"{"graph": {"generator": "cycle", "n": 8}, "algorithm": {"family": "feedback"}, "runs": 0}"#,
        ),
        "empty_seed_range",
    );
    expect_code(
        &mut c,
        &submit(
            r#"{"graph": {"dimacs": "p edge 3 1\ne 2 2\n"}, "algorithm": {"family": "feedback"}, "runs": 1}"#,
        ),
        "bad_graph",
    );
    expect_code(
        &mut c,
        "{\"cmd\": \"status\", \"job\": \"999\"}",
        "unknown_job",
    );
    expect_code(
        &mut c,
        "{\"cmd\": \"fetch\", \"job\": \"999\"}",
        "unknown_job",
    );
    // After the whole burst, the same connection still serves.
    assert!(c.ping().unwrap());
    handle.stop();
}

#[test]
fn graphs_a_generator_or_the_node_cap_rejects_leave_the_connection_usable() {
    let handle = spawn();
    let mut c = client(&handle);
    let over_cap = format!(r#"{{"dimacs": "p edge {} 0\n"}}"#, MAX_NODES + 1);
    for graph in [
        r#"{"generator": "cycle", "n": 2}"#,
        r#"{"generator": "star", "n": 0}"#,
        r#"{"generator": "torus2d", "rows": 2, "cols": 8}"#,
        r#"{"generator": "torus2d", "rows": 8, "cols": 2}"#,
        &over_cap,
    ] {
        let line = format!(
            r#"{{"cmd": "submit", "request": {{"graph": {graph}, "algorithm": {{"family": "feedback"}}, "runs": 1}}}}"#
        );
        let reply = Json::parse(&c.raw_call(&line).unwrap()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{graph}");
        assert_eq!(
            reply
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_graph"),
            "{graph}"
        );
        assert!(
            c.ping().unwrap(),
            "{graph}: the connection stopped answering"
        );
    }
    handle.stop();
}

#[test]
fn oversized_frame_is_rejected_and_the_connection_survives() {
    let handle = Server::spawn(
        ServeConfig::default()
            .with_addr("127.0.0.1:0")
            .with_max_frame_bytes(256),
    )
    .unwrap();
    let mut c = client(&handle);
    let huge = format!("{{\"cmd\": \"ping\", \"pad\": \"{}\"}}", "x".repeat(4096));
    let reply = Json::parse(&c.raw_call(&huge).unwrap()).unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("frame_too_large")
    );
    assert!(c.ping().unwrap());
    handle.stop();
}

#[test]
fn truncated_frame_does_not_wedge_the_daemon() {
    let handle = spawn();
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(b"{\"cmd\": \"pi").unwrap();
        // Drop mid-frame: the daemon must discard the half frame silently.
    }
    let mut c = client(&handle);
    assert!(c.ping().unwrap());
    handle.stop();
}

#[test]
fn watch_streams_status_lines_until_done() {
    let handle = spawn();
    let mut c = client(&handle);
    let ack = c.submit(&request("feedback", 2, 6)).unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_owned();

    // Watch on a second raw connection (the stream has multiple lines).
    let raw = TcpStream::connect(handle.addr()).unwrap();
    let mut w = raw.try_clone().unwrap();
    writeln!(w, "{{\"cmd\": \"watch\", \"job\": \"{job}\"}}").unwrap();
    w.flush().unwrap();
    let mut lines = Vec::new();
    for line in BufReader::new(raw).lines() {
        let Ok(line) = line else { break };
        let doc = Json::parse(&line).unwrap();
        let state = doc.get("state").and_then(Json::as_str).unwrap().to_owned();
        lines.push(doc);
        if state == "done" || state == "error" {
            break;
        }
    }
    let last = lines.last().unwrap();
    assert_eq!(last.get("state").and_then(Json::as_str), Some("done"));
    assert_eq!(last.get("progress").and_then(Json::as_f64), Some(6.0));
    assert_eq!(last.get("total").and_then(Json::as_f64), Some(6.0));
    // The finished job fetches normally afterwards.
    let fetched = c.fetch(&job).unwrap();
    assert_eq!(fetched.get("ok"), Some(&Json::Bool(true)));
    handle.stop();
}

#[test]
fn fetch_before_completion_is_not_ready_not_a_hang() {
    let handle = spawn();
    let mut c = client(&handle);
    // A job large enough to still be queued/running when we fetch.
    let ack = c.submit(&request("sweep", 5, 8)).unwrap();
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_owned();
    let early = c.fetch(&job).unwrap();
    if early.get("ok") == Some(&Json::Bool(false)) {
        assert_eq!(
            early
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("not_ready")
        );
    }
    // Either way the job completes and fetches cleanly.
    c.wait(&job).unwrap();
    assert_eq!(c.fetch(&job).unwrap().get("ok"), Some(&Json::Bool(true)));
    handle.stop();
}

#[test]
fn shutdown_command_stops_the_daemon() {
    let handle = spawn();
    let mut c = client(&handle);
    let reply = c.shutdown().unwrap();
    assert_eq!(reply.get("stopping"), Some(&Json::Bool(true)));
    handle.join();
}
