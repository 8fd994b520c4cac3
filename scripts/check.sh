#!/bin/sh
# Repo-wide check: what CI runs, runnable locally too.
#
#   build (release)  — the tier-1 build
#   clippy           — lint gate; the whole workspace denies all warnings
#   test             — workspace suite, incl. tests/fault_injection.rs
#   robustness gate  — the artifact-corruption suite and the fuzz smoke,
#                      run by name so a filter can never silently drop them
#   replay-golden    — deterministic record/replay against the checked-in
#                      golden transcripts and journals, all architectures
#   chaos soak       — 200 seeded target-memory-corruption sessions across
#                      all architectures (MIPS both byte orders): no
#                      panics, typed truncation reasons, health accounting
#   daemon marathon  — ldbd with 104 simultaneous sessions (healthy +
#                      chaos + fault + wedged): zero cross-session
#                      interference, per-tenant health, graceful cap
#   daemon shutdown  — teardown mid-command: typed close reasons, idle
#                      eviction, no leaked threads, TCP quickstart
#   shared cache     — N same-binary tenants pay exactly one symbol-table
#                      compile (counted over the health verb); health
#                      polling cannot keep an idle tenant alive
#   daemon protocol  — escape/unescape round-trips (proptest), payload
#                      whitespace preserved, CRLF clients over real TCP
#   service-edge     — the hostile-client marathon (64 seeded chaos
#                      clients vs 16 healthy tenants), typed rejection /
#                      quarantine / shedding / drain gates, and proptest
#                      fuzz of arbitrary byte streams over real TCP
#   time-travel      — the reverse-execution differential harness
#                      (reverse-step;step and reverse-continue;continue
#                      round-trip to bit-identical machine state on every
#                      architecture, typed truncation past the oldest
#                      checkpoint) and the pinned reverse-session goldens
#   fleet smoke      — 64 supervised headless sessions (every script
#                      template × every architecture): outcome coverage,
#                      byte-identical reports across worker counts, retry
#                      policy, typed shedding, journal cross-check, and an
#                      end-to-end chaos-seed minimization
#   command parity   — every command-table row gives the same text through
#                      the REPL, `ldb --script`, and an ldbd tenant
#   benchmark smoke  — every perfbench workload, short, in both modes: a
#                      changed public call the benchmark makes fails here,
#                      not in the benchmark run
#
# `--soak` additionally runs the 10k-session fleet soak (release mode,
# two same-corpus passes, byte-identical bucket reports, zero leaked
# threads, one minimized chaos seed) — minutes, not seconds, so it is
# opt-in here and a scheduled job in CI rather than a per-push gate.
set -eu
cd "$(dirname "$0")/.."

soak=0
for arg in "$@"; do
    case "$arg" in
        --soak) soak=1 ;;
        *) echo "usage: $0 [--soak]" >&2; exit 2 ;;
    esac
done

cargo build --release
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
cargo test -q --test artifact_corruption
cargo test -q -p ldb-postscript --test fuzz
cargo test -q --test replay_golden
cargo test -q --test chaos_soak
cargo test -q --test daemon_marathon
cargo test -q --test daemon_shutdown
cargo test -q --test daemon_shared_cache
cargo test -q --test daemon_protocol
cargo test -q --test daemon_hostile_client
cargo test -q --test reverse_exec
cargo test -q --test reverse_golden
cargo test -q --test script_recovery
cargo test -q --test fleet_smoke
cargo test -q --test command_parity
python3 perfbench/test_smoke.py

if [ "$soak" = 1 ]; then
    cargo test -q --release --test fleet_soak -- --ignored --nocapture
fi
