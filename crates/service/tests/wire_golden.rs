//! Wire-bytes golden test: the exact `encode()` bytes of every `Request`
//! and `Response` variant, and the exact diagnostic of malformed
//! requests, pinned against the corpus in `golden/mod.rs`.
//!
//! The round-trip proptests prove `encode ∘ parse ∘ encode` is a fixed
//! point, which would still hold if the encoder and decoder changed key
//! order or spelling together; this file is what holds the bytes still.

mod golden;

use std::collections::BTreeSet;

use bitfusion_service::protocol::{Request, Response};

#[test]
fn every_request_variant_encodes_to_its_pinned_bytes() {
    let mut cmds = BTreeSet::new();
    for (request, wire) in golden::requests() {
        assert_eq!(request.encode(), wire, "{request:?}");
        assert_eq!(Request::parse(wire).unwrap(), request, "{wire}");
        cmds.insert(request.cmd());
    }
    assert_eq!(cmds.len(), 9, "every request variant is pinned: {cmds:?}");
}

#[test]
fn every_response_variant_encodes_to_its_pinned_bytes() {
    let mut replies = BTreeSet::new();
    for (response, wire) in golden::responses() {
        assert_eq!(response.encode(), wire, "{response:?}");
        assert_eq!(Response::parse(wire).unwrap(), response, "{wire}");
        replies.insert(response.reply());
    }
    assert_eq!(
        replies.len(),
        10,
        "every response variant is pinned: {replies:?}"
    );
}

#[test]
fn malformed_requests_answer_their_pinned_diagnostics() {
    for (line, diagnostic) in golden::REQUEST_ERRORS {
        assert_eq!(Request::parse(line).unwrap_err(), *diagnostic, "{line}");
    }
}
