//! Crash bucketing: a stable hash over *typed* failure evidence.
//!
//! Triage at fleet scale lives or dies on the bucket function. Hashing
//! raw transcripts would scatter one defect across thousands of buckets
//! — every address, count, and seed differs per session — while hashing
//! too little would merge distinct defects. The canonical bucket key
//! therefore keeps exactly the evidence that is stable across arches,
//! layouts, seeds, and runs:
//!
//! - the fleet outcome token (`wire-lost`, `panic-quarantined`, …);
//! - the *kinds* of frame-walk stops in the transcript (`Cycle`,
//!   `DepthCap`, `BadFrame`, `WireError` — the typed [`WalkStop`]
//!   constructors, stripped of their payload), deduplicated in first-
//!   seen order;
//! - every `error:` / `fault:` transcript line with digit-bearing
//!   tokens normalized to `#` (addresses, line numbers, seeds, counts
//!   all vanish; the error *shape* remains);
//! - the names — never the values — of the session's nonzero health
//!   counters.
//!
//! The key is hashed with FNV-1a 64 ([`ldb_trace::fnv1a`], the same
//! hash as the module-cache key) to a 16-hex-digit bucket id. The
//! key itself rides along in reports so a human can read *why* two
//! sessions collided.
//!
//! [`WalkStop`]: ldb_core::WalkStop

use ldb_core::Health;
use ldb_trace::fnv1a;

/// Normalize one transcript line: any whitespace-separated token
/// containing a digit becomes `#`. `fault: SIGSEGV (code 0x10)` and
/// `fault: SIGSEGV (code 0x2c)` normalize identically; `error: no
/// symbol `x`` and `error: no symbol `y`` do not (names are kept —
/// they are typed evidence, not layout noise).
fn normalize_line(line: &str) -> String {
    line.split_whitespace()
        .map(|tok| if tok.chars().any(|c| c.is_ascii_digit()) { "#" } else { tok })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The typed walk-stop kind out of a `walk truncated: …` transcript
/// line: the [`WalkStop`](ldb_core::WalkStop) constructor name, i.e.
/// everything before the payload parenthesis.
fn walk_stop_kind(detail: &str) -> &str {
    detail.split(" (").next().unwrap_or(detail).trim()
}

/// The fixed health-counter vocabulary, in declaration order. Only the
/// *names* of nonzero counters enter the key: the counts vary with
/// schedule position, the set of touched counters is the failure's
/// shape.
fn health_markers(h: &Health) -> Vec<&'static str> {
    let pairs: [(&'static str, u64); 9] = [
        ("walks_truncated", h.walks_truncated),
        ("walk_cycles", h.walk_cycles),
        ("print_cycles", h.print_cycles),
        ("print_follow_caps", h.print_follow_caps),
        ("quarantined_commands", h.quarantined_commands),
        ("chaos_corruptions", h.chaos_corruptions),
        ("watchdog_timeouts", h.watchdog_timeouts),
        ("checkpoints_taken", h.checkpoints_taken),
        ("restores", h.restores),
    ];
    pairs.iter().filter(|(_, v)| *v > 0).map(|(name, _)| *name).collect()
}

/// Build the canonical bucket key for a failed session.
pub fn bucket_key(outcome_token: &str, transcript: &str, health: Option<&Health>) -> String {
    let mut walk_kinds: Vec<String> = Vec::new();
    let mut error_lines: Vec<String> = Vec::new();
    for line in transcript.lines() {
        if let Some(detail) = line.strip_prefix("walk truncated: ") {
            let kind = walk_stop_kind(detail).to_string();
            if !walk_kinds.contains(&kind) {
                walk_kinds.push(kind);
            }
        } else if line.starts_with("error: ") || line.starts_with("fault: ") {
            let norm = normalize_line(line);
            if !error_lines.contains(&norm) {
                error_lines.push(norm);
            }
        }
    }
    let mut key = String::new();
    key.push_str("outcome=");
    key.push_str(outcome_token);
    if !walk_kinds.is_empty() {
        key.push_str("|walks=");
        key.push_str(&walk_kinds.join(","));
    }
    for line in &error_lines {
        key.push('|');
        key.push_str(line);
    }
    if let Some(h) = health {
        let markers = health_markers(h);
        if !markers.is_empty() {
            key.push_str("|health=");
            key.push_str(&markers.join(","));
        }
    }
    key
}

/// Hash a canonical key to its 16-hex-digit bucket id.
pub fn bucket_id(key: &str) -> String {
    format!("{:016x}", fnv1a(key.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_tokens_normalize_but_names_survive() {
        assert_eq!(
            normalize_line("error: fetch at 0x1f3c failed after 4 retries"),
            "error: fetch at # failed after # retries"
        );
        assert_eq!(normalize_line("error: no symbol `total`"), "error: no symbol `total`");
    }

    #[test]
    fn same_defect_different_addresses_share_a_bucket() {
        let t1 = "(ldb) bt\n#0 main at 0x40\nwalk truncated: Cycle (vfp 0x7f00 already visited)\n";
        let t2 = "(ldb) bt\n#0 main at 0x88\nwalk truncated: Cycle (vfp 0x1200 already visited)\n";
        let h = Health { walks_truncated: 3, walk_cycles: 3, chaos_corruptions: 17, ..Health::default() };
        let h2 = Health { walks_truncated: 1, walk_cycles: 1, chaos_corruptions: 2, ..Health::default() };
        let k1 = bucket_key("script-error", t1, Some(&h));
        let k2 = bucket_key("script-error", t2, Some(&h2));
        assert_eq!(k1, k2, "payload-stripped keys must collide");
        assert_eq!(bucket_id(&k1), bucket_id(&k2));
        assert_eq!(bucket_id(&k1).len(), 16);
    }

    #[test]
    fn distinct_stop_kinds_split_buckets() {
        let cycle = "walk truncated: Cycle (vfp 0x10 already visited)\n";
        let cap = "walk truncated: DepthCap (64 frames)\n";
        assert_ne!(
            bucket_key("script-error", cycle, None),
            bucket_key("script-error", cap, None)
        );
    }

    #[test]
    fn outcome_token_always_splits() {
        assert_ne!(
            bucket_id(&bucket_key("wire-lost", "", None)),
            bucket_id(&bucket_key("wedged", "", None))
        );
    }
}
