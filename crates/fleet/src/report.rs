//! Canonical fleet reports: per-session JSONL and the bucket summary.
//!
//! Both forms are *canonical*: a pure function of the sorted results,
//! with every nondeterministic quantity (wall-clock, thread
//! interleaving, journal record order) excluded. Two same-seed fleet
//! runs must produce byte-identical reports — that is the determinism
//! gate `scripts/check.sh --soak` enforces at 10k sessions.

use crate::{FleetOutcome, SessionResult};
use ldb_trace::push_json_str;

/// One session as one canonical JSON line.
pub fn session_json(r: &SessionResult) -> String {
    let mut out = String::with_capacity(192);
    out.push_str("{\"id\":");
    out.push_str(&r.id.to_string());
    out.push_str(",\"name\":");
    push_json_str(&mut out, &r.name);
    out.push_str(",\"outcome\":");
    push_json_str(&mut out, r.outcome.token());
    out.push_str(",\"attempts\":");
    out.push_str(&r.attempts.to_string());
    out.push_str(",\"retries\":");
    out.push_str(&r.retries.to_string());
    out.push_str(",\"bucket\":");
    match &r.bucket {
        Some(b) => push_json_str(&mut out, b),
        None => out.push_str("null"),
    }
    out.push_str(",\"health\":");
    match &r.health {
        Some(h) => out.push_str(&h.to_json()),
        None => out.push_str("null"),
    }
    out.push_str(",\"journal\":");
    match &r.journal {
        Some(j) => {
            out.push_str(&format!(
                "{{\"cmd_records\":{},\"commands_expected\":{},\"panic_records\":{},\
                 \"panics_expected\":{},\"consistent\":{}}}",
                j.cmd_records,
                j.commands_expected,
                j.panic_records,
                j.panics_expected,
                j.consistent()
            ));
        }
        None => out.push_str("null"),
    }
    out.push('}');
    out
}

/// The canonical per-session report: one JSON object per line, in
/// session-id order.
pub fn session_report(results: &[SessionResult]) -> String {
    let mut out = String::new();
    for r in results {
        out.push_str(&session_json(r));
        out.push('\n');
    }
    out
}

/// One bucket row of the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketRow {
    /// The 16-hex bucket id.
    pub bucket: String,
    /// Sessions in the bucket.
    pub count: usize,
    /// The bucket's outcome token (a bucket never mixes outcomes — the
    /// token is the key's first component).
    pub outcome: &'static str,
    /// Lowest session id in the bucket (the canonical exemplar).
    pub example_id: u64,
    /// That session's name.
    pub example_name: String,
    /// The human-readable canonical key the id hashes.
    pub key: String,
}

/// Group bucketed failures by bucket id, sorted by id.
pub fn bucket_rows(results: &[SessionResult]) -> Vec<BucketRow> {
    let mut rows: Vec<BucketRow> = Vec::new();
    for r in results {
        let Some(bucket) = &r.bucket else { continue };
        match rows.iter_mut().find(|row| row.bucket == *bucket) {
            Some(row) => {
                row.count += 1;
                if r.id < row.example_id {
                    row.example_id = r.id;
                    row.example_name = r.name.clone();
                }
            }
            None => rows.push(BucketRow {
                bucket: bucket.clone(),
                count: 1,
                outcome: r.outcome.token(),
                example_id: r.id,
                example_name: r.name.clone(),
                key: r.bucket_key.clone().unwrap_or_default(),
            }),
        }
    }
    rows.sort_by(|a, b| a.bucket.cmp(&b.bucket));
    rows
}

/// The canonical bucket summary: a totals header, one outcome-tally
/// line, then one line per bucket in bucket-id order.
pub fn bucket_report(results: &[SessionResult]) -> String {
    let mut tallies: Vec<(&'static str, usize)> = Vec::new();
    for r in results {
        let tok = r.outcome.token();
        match tallies.iter_mut().find(|(t, _)| *t == tok) {
            Some((_, n)) => *n += 1,
            None => tallies.push((tok, 1)),
        }
    }
    tallies.sort();
    let retries: u64 = results.iter().map(|r| u64::from(r.retries)).sum();
    let rows = bucket_rows(results);
    let mut out = format!(
        "fleet: {} sessions, {} buckets, {} retries\n",
        results.len(),
        rows.len(),
        retries
    );
    out.push_str("outcomes:");
    for (tok, n) in &tallies {
        out.push_str(&format!(" {tok}={n}"));
    }
    out.push('\n');
    for row in &rows {
        out.push_str(&format!(
            "bucket {} count {} example {} ({}) key {}\n",
            row.bucket, row.count, row.example_id, row.example_name, row.key
        ));
    }
    out
}

/// Outcome tallies as a map-like sorted vec (tests' convenience).
pub fn outcome_counts(results: &[SessionResult]) -> Vec<(FleetOutcome, usize)> {
    let mut counts: Vec<(FleetOutcome, usize)> = Vec::new();
    for r in results {
        match counts.iter_mut().find(|(o, _)| *o == r.outcome) {
            Some((_, n)) => *n += 1,
            None => counts.push((r.outcome, 1)),
        }
    }
    counts.sort_by_key(|(o, _)| *o);
    counts
}
