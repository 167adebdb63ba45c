//! The `/v1/score` error contract, pinned for both serving tiers:
//! every malformed body gets the same status and byte-identical body
//! from `pge serve` and `pge gateway`, and an empty array answers
//! `200 []`.

use pge::core::{train_pge, Detector, PgeConfig};
use pge::datagen::{generate_catalog, CatalogConfig};
use pge::gateway::GatewayConfig;
use pge::serve::ServeConfig;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Every malformed-body case and the exact answer it gets.
const CASES: &[(&[u8], u16, &str)] = &[
    (b"\xff\xfe[]", 400, r#"{"error":"body is not UTF-8"}"#),
    (b"[\"ok\", \"\xc3\"]", 400, r#"{"error":"body is not UTF-8"}"#),
    (
        b"{not json",
        400,
        r#"{"error":"invalid JSON at byte 1: expected '\"'"}"#,
    ),
    (
        b"[1,",
        400,
        r#"{"error":"invalid JSON at byte 3: unexpected end of input"}"#,
    ),
    (
        b"[{\"title\":\"chips",
        400,
        r#"{"error":"invalid JSON at byte 16: unterminated string"}"#,
    ),
    (
        b"[{\"title\":\"a\x01b\"}]",
        400,
        r#"{"error":"invalid JSON at byte 12: control character in string"}"#,
    ),
    (
        b"[{\"title\":\"a\\qb\"}]",
        400,
        r#"{"error":"invalid JSON at byte 13: bad escape"}"#,
    ),
    (
        b"[{\"title\":\"\\ud83d\"}]",
        400,
        r#"{"error":"invalid JSON at byte 17: lone surrogate"}"#,
    ),
    (
        b"[] []",
        400,
        r#"{"error":"invalid JSON at byte 3: trailing data"}"#,
    ),
    (
        b"{\"title\":\"a\",\"attr\":\"b\",\"value\":\"c\"}",
        400,
        r#"{"error":"expected a JSON array of {title, attr, value}"}"#,
    ),
    (
        b"\"chips\"",
        400,
        r#"{"error":"expected a JSON array of {title, attr, value}"}"#,
    ),
    (
        b"[{\"title\":\"a\",\"attr\":\"b\"}]",
        400,
        r#"{"error":"item 0: expected string fields title, attr, value"}"#,
    ),
    (
        b"[{\"title\":\"a\",\"attr\":\"b\",\"value\":\"c\"},{\"title\":3,\"attr\":\"b\",\"value\":\"c\"}]",
        400,
        r#"{"error":"item 1: expected string fields title, attr, value"}"#,
    ),
    (
        b"[{\"title\":\"a\",\"attr\":\"b\",\"value\":\"c\"},[\"a\",\"b\",\"c\"]]",
        400,
        r#"{"error":"item 1: expected string fields title, attr, value"}"#,
    ),
    (
        b"[{\"title\":\"a\",\"attr\":null,\"value\":\"c\"}]",
        400,
        r#"{"error":"item 0: expected string fields title, attr, value"}"#,
    ),
    (b"[]", 200, "[]"),
    (b" [ ] ", 200, "[]"),
];

/// POST `body` to `/v1/score` on a fresh connection; returns the
/// status and body of the answer.
fn post(addr: SocketAddr, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST /v1/score HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("recv");
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {response:?}"));
    let (_, body) = response.split_once("\r\n\r\n").expect("head ends");
    (status, body.to_string())
}

fn check_contract(tier: &str, addr: SocketAddr) {
    for (body, status, answer) in CASES {
        let got = post(addr, body);
        assert_eq!(
            got,
            (*status, answer.to_string()),
            "{tier}: body {:?}",
            String::from_utf8_lossy(body)
        );
    }
}

#[test]
fn serve_and_gateway_answer_malformed_bodies_identically() {
    let data = generate_catalog(&CatalogConfig {
        products: 60,
        labeled: 20,
        seed: 5,
        ..CatalogConfig::tiny()
    });
    let model = train_pge(
        &data,
        &PgeConfig {
            epochs: 1,
            ..PgeConfig::tiny()
        },
    )
    .model;
    let threshold = Detector::fit(&model, &data.graph, &data.valid).threshold;

    let serve = pge::serve::start(
        model.clone(),
        data.graph.clone(),
        threshold,
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("serve binds");
    check_contract("serve", serve.local_addr());
    serve.shutdown();

    let gateway = pge::gateway::start(
        model,
        data.graph.clone(),
        data.valid.clone(),
        threshold,
        GatewayConfig {
            addr: "127.0.0.1:0".into(),
            ..GatewayConfig::default()
        },
    )
    .expect("gateway binds");
    check_contract("gateway", gateway.local_addr());
    gateway.shutdown();
}
