//! Negative-path protocol tests: malformed frames, truncated JSON,
//! version-mismatched handshakes and mid-job disconnects must all produce
//! *typed* errors — never a panic, never a hang, never a wedged server.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use etcs_fleet::wire::{ShardClient, ShardServer, ShardServerConfig, WireError, PROTO_VERSION};
use etcs_obs::Obs;
use etcs_serve::{ServeConfig, Service};

fn spawn_shard(name: &str) -> ShardServer {
    let service = Service::new(ServeConfig {
        workers: 1,
        cache_capacity: 16,
        record_history: true,
        ..ServeConfig::default()
    });
    ShardServer::spawn(
        "127.0.0.1:0",
        service,
        ShardServerConfig {
            name: name.into(),
            ..ShardServerConfig::default()
        },
        Obs::disabled(),
    )
    .expect("bind an ephemeral port")
}

/// A raw line-speaking client, for driving the server off-protocol.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: std::net::SocketAddr) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        Raw {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        line
    }

    fn hello(&mut self) {
        self.send(&format!(
            "{{\"type\": \"hello\", \"proto\": {PROTO_VERSION}, \"cache_key\": \"{}\"}}",
            etcs_core::CACHE_KEY_VERSION
        ));
        let reply = self.recv();
        assert!(reply.contains("hello_ok"), "handshake failed: {reply}");
    }
}

#[test]
fn version_mismatched_hello_is_refused() {
    let server = spawn_shard("vm");
    let addr = server.addr();

    // Wrong protocol version.
    let mut raw = Raw::connect(addr);
    raw.send(&format!(
        "{{\"type\": \"hello\", \"proto\": 999, \"cache_key\": \"{}\"}}",
        etcs_core::CACHE_KEY_VERSION
    ));
    let reply = raw.recv();
    assert!(reply.contains("hello_err"), "got: {reply}");
    assert!(
        reply.contains("unsupported protocol version"),
        "got: {reply}"
    );

    // Wrong cache-key version: jobs could run, but cache entries must
    // never be shared across key versions, so the handshake refuses.
    let mut raw = Raw::connect(addr);
    raw.send(&format!(
        "{{\"type\": \"hello\", \"proto\": {PROTO_VERSION}, \"cache_key\": \"etcs-cache-key-v0\"}}"
    ));
    let reply = raw.recv();
    assert!(reply.contains("hello_err"), "got: {reply}");
    assert!(reply.contains("cache-key version mismatch"), "got: {reply}");

    server.kill();
    server.wait();
}

#[test]
fn client_types_the_version_mismatch() {
    // A fake "shard" from the future: speaks proto 2.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read hello");
        let mut writer = stream;
        writer
            .write_all(
                format!(
                    "{{\"type\": \"hello_err\", \"reason\": \"unsupported protocol version 1\", \
                     \"proto\": 2, \"cache_key\": \"{}\"}}\n",
                    etcs_core::CACHE_KEY_VERSION
                )
                .as_bytes(),
            )
            .expect("write");
    });
    let err = ShardClient::connect(&addr.to_string()).expect_err("must refuse");
    assert_eq!(
        err,
        WireError::VersionMismatch {
            field: "proto",
            ours: PROTO_VERSION.to_string(),
            theirs: "2".to_string(),
        }
    );
    fake.join().expect("fake shard");
}

#[test]
fn frames_before_hello_are_refused() {
    let server = spawn_shard("order");
    let mut raw = Raw::connect(server.addr());
    raw.send("{\"type\": \"stats\"}");
    let reply = raw.recv();
    assert!(reply.contains("hello_err"), "got: {reply}");
    assert!(reply.contains("expected a hello frame"), "got: {reply}");
    server.kill();
    server.wait();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let server = spawn_shard("mal");
    let mut raw = Raw::connect(server.addr());
    raw.hello();

    // Not JSON at all.
    raw.send("this is not json");
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"error\""), "got: {reply}");

    // JSON, but not a protocol frame.
    raw.send("{\"kind\": \"verify\"}");
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"error\""), "got: {reply}");
    assert!(reply.contains("no \\\"type\\\""), "got: {reply}");

    // Unknown frame type.
    raw.send("{\"type\": \"teleport\"}");
    let reply = raw.recv();
    assert!(reply.contains("unknown frame type"), "got: {reply}");

    // Truncated JSON (valid prefix of an object, cut mid-string).
    raw.send("{\"type\": \"job\", \"spec\": \"{\\\"kind\\\"");
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"error\""), "got: {reply}");

    // The connection is still fully functional after all that garbage.
    raw.send("{\"type\": \"stats\"}");
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"stats\""), "got: {reply}");

    server.kill();
    server.wait();
}

#[test]
fn deeply_nested_frame_gets_a_typed_error_and_the_shard_survives() {
    let server = spawn_shard("deep");
    let mut raw = Raw::connect(server.addr());
    raw.hello();

    // A million nested arrays: a parser without a depth cap overflows its
    // stack on this and aborts the whole shard process.
    raw.send(&"[".repeat(1 << 20));
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"error\""), "got: {reply}");
    assert!(reply.contains("nesting"), "got: {reply}");

    // The same connection and a fresh one both still serve.
    raw.send("{\"type\": \"stats\"}");
    let reply = raw.recv();
    assert!(reply.contains("\"type\": \"stats\""), "got: {reply}");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("reconnect");
    client.stats().expect("stats after the deep frame");

    server.kill();
    server.wait();
}

#[test]
fn disconnect_mid_job_leaves_the_server_serving() {
    let server = spawn_shard("dc");

    // Rude client: sends a job, hangs up before the answer.
    {
        let mut raw = Raw::connect(server.addr());
        raw.hello();
        raw.send(
            "{\"type\": \"job\", \"spec\": \"{\\\"id\\\": \\\"gone\\\", \\\"kind\\\": \
             \\\"verify\\\", \\\"scenario\\\": \\\"fixture:running_example\\\"}\"}",
        );
        // Drop both halves without reading: the server's reply write fails.
    }

    // And one that hangs up mid-frame (an unterminated line).
    {
        let mut raw = Raw::connect(server.addr());
        raw.hello();
        raw.writer
            .write_all(b"{\"type\": \"job\", \"spec")
            .expect("write partial frame");
        // Dropped: the server must treat the truncated frame as a close.
    }

    // A well-behaved client still gets full service.
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");
    let done = client
        .job("{\"id\": \"ok\", \"kind\": \"verify\", \"scenario\": \"fixture:running_example\"}")
        .expect("the server survived the rude clients");
    assert_eq!(done.status, "done");
    assert!(done.payload.is_some());

    server.kill();
    server.wait();
}

#[test]
fn shard_death_mid_job_is_a_typed_error_not_a_hang() {
    let server = spawn_shard("die");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");

    // Sever every socket, exactly as a crashed process would.
    server.kill();

    let err = client
        .job("{\"id\": \"j\", \"kind\": \"verify\", \"scenario\": \"fixture:running_example\"}")
        .expect_err("the shard is gone");
    assert!(
        matches!(err, WireError::Closed | WireError::Io(_)),
        "expected a typed connection error, got: {err:?}"
    );
    server.wait();
}

#[test]
fn invalid_job_specs_come_back_as_invalid_not_errors() {
    let server = spawn_shard("inv");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");
    let done = client
        .job("{\"id\": \"bad\", \"kind\": \"fly\", \"scenario\": \"fixture:running_example\"}")
        .expect("protocol-level success");
    assert_eq!(done.status, "invalid");
    assert!(done.key.is_none());
    assert!(done.payload.is_none());
    assert!(done.response.contains("unknown kind"));
    client.shutdown().expect("graceful shutdown");
    server.wait();
}

/// A file only the shard's host can read, holding a token that must never
/// travel back over the wire. Removed when dropped.
struct Secret(std::path::PathBuf);

impl Secret {
    fn new(name: &str) -> Secret {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, "SECRET_TOKEN=hunter2\n").expect("write the secret");
        Secret(path)
    }
}

impl Drop for Secret {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn a_job_frame_naming_a_file_is_invalid_and_reads_nothing() {
    let server = spawn_shard("nofile");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");
    let secret = Secret::new("job-secret.rail");
    let shipped = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/branch_line.rail"
    );
    for path in [secret.0.to_str().expect("utf-8 path"), shipped] {
        let spec = format!(
            "{{\"id\": \"leak\", \"kind\": \"verify\", \"scenario\": {}}}",
            etcs_obs::json::quote(&format!("file:{path}"))
        );
        let done = client.job(&spec).expect("protocol-level success");
        assert_eq!(done.status, "invalid", "{}", done.response);
        assert!(done.key.is_none() && done.payload.is_none());
        assert!(
            done.response.contains("read only from local input"),
            "{}",
            done.response
        );
        assert!(!done.response.contains("SECRET"), "{}", done.response);
        assert!(!done.response.contains("hunter2"), "{}", done.response);
    }
    // The shard still serves inline scenarios on the same connection.
    let done = client
        .job("{\"id\": \"ok\", \"kind\": \"verify\", \"scenario\": \"fixture:running_example\"}")
        .expect("job");
    assert_eq!(done.status, "done");
    client.shutdown().expect("graceful shutdown");
    server.wait();
}

#[test]
fn a_replan_open_record_naming_a_file_is_invalid_and_reads_nothing() {
    let server = spawn_shard("nofile-replan");
    let mut client = ShardClient::connect(&server.addr().to_string()).expect("connect");
    let secret = Secret::new("replan-secret.rail");
    let record = format!(
        "{{\"record\": \"open\", \"session\": \"s\", \"scenario\": {}}}",
        etcs_obs::json::quote(&format!("file:{}", secret.0.display()))
    );
    let response = client.replan(&record).expect("protocol-level success");
    assert!(response.contains("\"record\": \"error\""), "{response}");
    assert!(
        response.contains("read only from local input"),
        "{response}"
    );
    assert!(!response.contains("SECRET"), "{response}");
    assert!(!response.contains("hunter2"), "{response}");
    // No session was opened under that name.
    let response = client
        .replan("{\"record\": \"tick\", \"session\": \"s\"}")
        .expect("protocol-level success");
    assert!(response.contains("unknown session"), "{response}");
    client.shutdown().expect("graceful shutdown");
    server.wait();
}
