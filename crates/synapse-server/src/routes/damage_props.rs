//! Damaged bytes for the request path: recorded `POST /campaigns`,
//! `POST /leases` and `GET …/aggregates?axis=…` requests, damaged by
//! the shared mutators and fed to a [`RequestParser`] in seeded chunks.
//! Each input parses or is an [`HttpError`] — the same one whole or in
//! chunks — and none panics; [`resolve`] answers a parsed request only
//! with a row of [`ROUTES`] whose shape its path has.

use std::panic::{catch_unwind, AssertUnwindSafe};

use synapse_campaign::CampaignSpec;

use super::{resolve, Request, ROUTES};
use crate::http::{HttpError, RequestParser};
use crate::job::LeaseRequest;

#[path = "../../../../vendor/serde_json/tests/support/mod.rs"]
mod support;

#[path = "../../../synapse-campaign/tests/damage/mod.rs"]
#[expect(
    clippy::string_slice,
    reason = "the mutators cut texts only where they found an ASCII byte or a char boundary"
)]
mod damage;

use damage::damage_json;
use support::Rng;

/// Damaged texts per recorded request.
const CASES: usize = 400;

/// Requests as `Client` writes them.
fn recorded() -> [String; 3] {
    let request = |method: &str, target: &str, body: &str| {
        format!(
            "{method} {target} HTTP/1.1\r\nHost: 127.0.0.1:8787\r\nContent-Length: {}\r\n\
             X-Synapse-Trace: t0123456789abcdef\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
    };
    let toml = include_str!("../../../../examples/campaign.toml");
    let spec = CampaignSpec::from_toml(toml).unwrap().validated().unwrap();
    let lease = serde_json::to_string(&LeaseRequest {
        spec,
        start: 16,
        end: 48,
    })
    .unwrap();
    [
        request("POST", "/campaigns?watch=1&record=1", toml),
        request("POST", "/leases", &lease),
        request(
            "GET",
            "/campaigns/c000000000000007/aggregates?axis=machine",
            "",
        ),
    ]
}

/// Feed `bytes` in chunks whose sizes `rng` draws (one chunk when it
/// is `None`), until the request completes or fails.
fn feed(bytes: &[u8], mut rng: Option<&mut Rng>) -> Result<Option<Request>, HttpError> {
    let mut parser = RequestParser::new();
    let mut at = 0;
    while at < bytes.len() {
        let n = rng.as_mut().map_or(bytes.len(), |rng| 1 + rng.below(64));
        let chunk = &bytes[at..bytes.len().min(at + n)];
        at += chunk.len();
        if let Some(request) = parser.feed(chunk)? {
            return Ok(Some(request));
        }
    }
    Ok(None)
}

/// Whether `path` has `shape`, `:id` matching any one segment.
fn has_shape(path: &str, shape: &str) -> bool {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let want: Vec<&str> = shape.split('/').skip(1).collect();
    segments.len() == want.len()
        && segments
            .iter()
            .zip(&want)
            .all(|(s, w)| *w == ":id" || s == w)
}

#[test]
fn damaged_requests_parse_or_fail_never_a_panic_and_route_only_to_their_rows() {
    let mut rng = Rng::new(0x4774);
    let mut tally = [0usize; 2];
    for clean in recorded() {
        let request = feed(clean.as_bytes(), None)
            .unwrap()
            .expect("a whole request");
        assert!(
            resolve(&request.method, request.path()).handler.is_some(),
            "{clean:?}"
        );
        for case in 0..CASES {
            let mut text = clean.clone();
            for _ in 0..1 + rng.below(3) {
                damage_json(&mut text, &mut rng);
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let whole = feed(text.as_bytes(), None);
                let chunked = feed(text.as_bytes(), Some(&mut rng));
                assert_eq!(
                    format!("{whole:?}"),
                    format!("{chunked:?}"),
                    "case {case}: chunks read differently"
                );
                let Ok(Some(request)) = whole else {
                    return false;
                };
                let (method, path) = (request.method.as_str(), request.path());
                let resolved = resolve(method, path);
                let rows: Vec<_> = ROUTES.iter().filter(|row| has_shape(path, row.1)).collect();
                assert_eq!(
                    resolved.allow,
                    rows.iter().map(|row| row.0).collect::<Vec<_>>(),
                    "{path:?}"
                );
                let served = rows.iter().any(|row| row.0 == method);
                assert_eq!(resolved.handler.is_some(), served, "{method} {path:?}");
                true
            }));
            let parsed = outcome.unwrap_or_else(|_| {
                let shown: String = text.chars().take(600).collect();
                panic!("case {case} panicked on {shown:?}")
            });
            tally[usize::from(parsed)] += 1;
        }
    }
    // Damage that misses the head still parses; the rest fails.
    assert!(tally.iter().all(|&n| n > CASES / 4), "{tally:?}");
}
