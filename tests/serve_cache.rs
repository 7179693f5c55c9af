//! Cache determinism suite: the content-addressed store serves repeats
//! byte-identically with zero engine work, canonicalisation collapses
//! equivalent requests to one key, and differing backends/shard counts
//! produce distinct keys with identical outcome payloads (the backend and
//! sharding invariances of the engine stack, observed through the wire).

use beeping_mis::beeping::json::Json;
use beeping_mis::serve::{ServeClient, ServeConfig, Server, ServerHandle};

fn spawn() -> ServerHandle {
    Server::spawn(ServeConfig::default().with_addr("127.0.0.1:0")).expect("spawn daemon")
}

fn client(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(handle.addr()).expect("connect")
}

const BASE: &str = r#"{"graph": {"generator": "gnp", "n": 24, "p": 0.2, "graph_seed": "9"},
    "algorithm": {"family": "feedback"}, "seed": "42", "runs": 4}"#;

fn base_request() -> Json {
    Json::parse(BASE).unwrap()
}

/// The raw `result` bytes of a fetch line — everything after the
/// `"result":` splice point (payload plus the closing brace).
fn result_bytes(fetch_line: &str) -> &str {
    fetch_line
        .split_once("\"result\":")
        .expect("fetch line carries a result")
        .1
}

fn stats_of(c: &mut ServeClient) -> (u64, u64, u64, u64) {
    let reply = c.cache_stats().unwrap();
    let engine_runs = reply.get("engine_runs").and_then(Json::as_u64_str).unwrap();
    let stats = reply.get("stats").unwrap();
    let num = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap() as u64;
    (engine_runs, num("hits"), num("misses"), num("insertions"))
}

/// Submits, waits, and returns (ack, raw fetch line).
fn run_raw(c: &mut ServeClient, request: &Json) -> (Json, String) {
    let ack = c.submit(request).unwrap();
    assert_eq!(
        ack.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        request.render()
    );
    let job = ack.get("job").and_then(Json::as_str).unwrap().to_owned();
    c.wait(&job).unwrap();
    let line = c.fetch_line(&job).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");
    (ack, line)
}

#[test]
fn repeat_request_is_served_byte_identically_with_zero_engine_work() {
    let handle = spawn();
    let mut c = client(&handle);

    let (first_ack, first_line) = run_raw(&mut c, &base_request());
    assert_eq!(first_ack.get("cached"), Some(&Json::Bool(false)));
    let (engine_runs, hits, misses, insertions) = stats_of(&mut c);
    assert_eq!(engine_runs, 4, "four runs executed");
    assert_eq!((hits, misses, insertions), (0, 1, 1));

    let (second_ack, second_line) = run_raw(&mut c, &base_request());
    assert_eq!(second_ack.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(
        second_ack.get("state").and_then(Json::as_str),
        Some("done"),
        "cache hits are born done — no queue trip"
    );
    assert_eq!(second_ack.get("key"), first_ack.get("key"));
    // Byte-identical payload, zero additional engine runs.
    assert_eq!(result_bytes(&first_line), result_bytes(&second_line));
    let (engine_runs2, hits2, misses2, insertions2) = stats_of(&mut c);
    assert_eq!(engine_runs2, engine_runs, "no new engine work");
    assert_eq!((hits2, misses2, insertions2), (1, 1, 1));
    handle.stop();
}

#[test]
fn permuted_request_json_canonicalises_to_the_same_key() {
    let handle = spawn();
    let mut c = client(&handle);
    let (first_ack, first_line) = run_raw(&mut c, &base_request());

    // Same request, every object's keys in a different order, the seed
    // written as a number instead of a string.
    let permuted = Json::parse(
        r#"{"runs": 4, "seed": 42, "algorithm": {"family": "feedback"},
            "graph": {"p": 0.2, "graph_seed": 9, "generator": "gnp", "n": 24}}"#,
    )
    .unwrap();
    let (second_ack, second_line) = run_raw(&mut c, &permuted);
    assert_eq!(second_ack.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(second_ack.get("key"), first_ack.get("key"));
    assert_eq!(result_bytes(&first_line), result_bytes(&second_line));
    handle.stop();
}

#[test]
fn dimacs_upload_hits_the_generator_entry() {
    let handle = spawn();
    let mut c = client(&handle);
    let (first_ack, first_line) = run_raw(&mut c, &base_request());

    // Rebuild the same graph locally and upload it as DIMACS text: the
    // graph digest — not the spec — addresses the entry.
    let g = beeping_mis::serve::request::GraphSpec::Gnp {
        n: 24,
        p: 0.2,
        graph_seed: 9,
    }
    .build()
    .unwrap();
    let dimacs = beeping_mis::graph::io::to_dimacs(&g);
    let upload = Json::Obj(vec![
        (
            "graph".to_owned(),
            Json::Obj(vec![("dimacs".to_owned(), Json::Str(dimacs))]),
        ),
        (
            "algorithm".to_owned(),
            Json::Obj(vec![(
                "family".to_owned(),
                Json::Str("feedback".to_owned()),
            )]),
        ),
        ("seed".to_owned(), Json::u64_str(42)),
        ("runs".to_owned(), Json::Num(4.0)),
    ]);
    let (second_ack, second_line) = run_raw(&mut c, &upload);
    assert_eq!(second_ack.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(second_ack.get("key"), first_ack.get("key"));
    assert_eq!(result_bytes(&first_line), result_bytes(&second_line));
    handle.stop();
}

#[test]
fn differing_seed_ranges_get_distinct_keys() {
    let handle = spawn();
    let mut c = client(&handle);
    let variants = [
        BASE.to_owned(),
        BASE.replace("\"seed\": \"42\"", "\"seed\": \"43\""),
        BASE.replace("\"runs\": 4", "\"runs\": 5"),
    ];
    let mut keys = Vec::new();
    for text in &variants {
        let (ack, _) = run_raw(&mut c, &Json::parse(text).unwrap());
        assert_eq!(ack.get("cached"), Some(&Json::Bool(false)), "{text}");
        keys.push(ack.get("key").and_then(Json::as_str).unwrap().to_owned());
    }
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), variants.len());
    handle.stop();
}

#[test]
fn backends_get_distinct_keys_but_identical_payloads() {
    let handle = spawn();
    let mut c = client(&handle);
    let mut keys = Vec::new();
    let mut payloads = Vec::new();
    for backend in ["csr", "compressed", "disk"] {
        let text = format!(
            "{}}}",
            BASE.trim_end_matches('}').to_owned() + &format!(", \"backend\": \"{backend}\"")
        );
        let (ack, line) = run_raw(&mut c, &Json::parse(&text).unwrap());
        assert_eq!(ack.get("cached"), Some(&Json::Bool(false)), "{backend}");
        keys.push(ack.get("key").and_then(Json::as_str).unwrap().to_owned());
        payloads.push(result_bytes(&line).to_owned());
    }
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 3, "backend is part of the address");
    assert_eq!(payloads[0], payloads[1], "csr == compressed");
    assert_eq!(payloads[0], payloads[2], "csr == disk");
    handle.stop();
}

#[test]
fn beeping_shard_counts_get_distinct_keys_but_identical_payloads() {
    let handle = spawn();
    let mut c = client(&handle);
    // Counter-mode runs are shard-invariant; shards=1 must name counter
    // mode explicitly (plain shards=1 keeps the default stream rng).
    let one = BASE.replace(
        "\"runs\": 4",
        "\"runs\": 4, \"config\": {\"rng\": \"counter\", \"shards\": 1}",
    );
    let four = BASE.replace("\"runs\": 4", "\"runs\": 4, \"config\": {\"shards\": 4}");
    let (ack1, line1) = run_raw(&mut c, &Json::parse(&one).unwrap());
    let (ack4, line4) = run_raw(&mut c, &Json::parse(&four).unwrap());
    assert_ne!(ack1.get("key"), ack4.get("key"));
    assert_eq!(ack4.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(result_bytes(&line1), result_bytes(&line4));
    // An explicit stream rng survives a shard count: the sharded stream
    // run reproduces the unsharded default run under its own key.
    let stream_two = BASE.replace(
        "\"runs\": 4",
        "\"runs\": 4, \"config\": {\"rng\": \"stream\", \"shards\": 2}",
    );
    let (ack_base, line_base) = run_raw(&mut c, &base_request());
    let (ack2, line2) = run_raw(&mut c, &Json::parse(&stream_two).unwrap());
    assert_ne!(ack_base.get("key"), ack2.get("key"));
    assert_eq!(result_bytes(&line_base), result_bytes(&line2));
    handle.stop();
}

#[test]
fn message_shard_counts_get_distinct_keys_but_identical_payloads() {
    let handle = spawn();
    let mut c = client(&handle);
    let base = r#"{"graph": {"generator": "gnp", "n": 24, "p": 0.2, "graph_seed": "9"},
        "algorithm": {"family": "metivier"}, "seed": "42", "runs": 3"#;
    let one = format!("{base}}}");
    let three = format!("{base}, \"config\": {{\"shards\": 3}}}}");
    let (ack1, line1) = run_raw(&mut c, &Json::parse(&one).unwrap());
    let (ack3, line3) = run_raw(&mut c, &Json::parse(&three).unwrap());
    assert_ne!(ack1.get("key"), ack3.get("key"));
    assert_eq!(result_bytes(&line1), result_bytes(&line3));
    handle.stop();
}

#[test]
fn cache_directory_survives_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("mis-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let first_line;
    {
        let handle = Server::spawn(
            ServeConfig::default()
                .with_addr("127.0.0.1:0")
                .with_cache_dir(&dir),
        )
        .unwrap();
        let mut c = client(&handle);
        let (ack, line) = run_raw(&mut c, &base_request());
        assert_eq!(ack.get("cached"), Some(&Json::Bool(false)));
        first_line = line;
        handle.stop();
    }

    let handle = Server::spawn(
        ServeConfig::default()
            .with_addr("127.0.0.1:0")
            .with_cache_dir(&dir),
    )
    .unwrap();
    let mut c = client(&handle);
    let (ack, line) = run_raw(&mut c, &base_request());
    assert_eq!(
        ack.get("cached"),
        Some(&Json::Bool(true)),
        "restarted daemon serves the persisted entry"
    );
    assert_eq!(result_bytes(&first_line), result_bytes(&line));
    let (engine_runs, hits, _, _) = stats_of(&mut c);
    assert_eq!(engine_runs, 0, "no engine work after restart");
    assert_eq!(hits, 1);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
