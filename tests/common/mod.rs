//! Helpers shared by the integration tests that attach the way the
//! replay and reverse goldens do.

#![allow(dead_code)]

use std::time::Duration;

use ldb_suite::cc::driver::{program_load_plan, CompiledProgram};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{AttachOpts, Ldb, LdbError, ModuleTable, TableSource};
use ldb_suite::nub::{spawn, ClientConfig, NubConfig};

/// No-surprises wire policy: an in-process channel answers in
/// microseconds, so a long reply timeout means retransmission never
/// fires, and an event poll far above any simulated run time means the
/// keepalive ping fires exactly once per session — at attach, where the
/// nub's initial bare (legacy) announcement forces one poll timeout
/// before the ping upgrades the peer to envelopes. Every later stop
/// arrives in well under the poll, so the journal carries only traffic
/// the session itself caused, every run, on every machine.
pub fn quiet_client() -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_secs(2),
        retries: 4,
        backoff: Duration::from_millis(1),
        event_poll: Duration::from_millis(300),
        jitter_seed: 0,
    }
}

/// Spawn `p` under a nub paused at startup and attach `ldb` to it through
/// the eager load plan with the [`quiet_client`] policy.
pub fn attach_quiet(ldb: &mut Ldb, p: &CompiledProgram) -> Result<usize, LdbError> {
    let (frame, modules) = program_load_plan(p, PsMode::Deferred);
    let modules: Vec<ModuleTable> =
        modules.into_iter().map(|(name, ps)| ModuleTable { name, ps }).collect();
    let handle = spawn(&p.linked.image, NubConfig { wait_at_pause: true, ..Default::default() });
    let wire = handle.connect_channel().map_err(|e| LdbError::msg(format!("connect: {e}")))?;
    let source = TableSource::Plan { frame: &frame, modules: &modules };
    let opts = AttachOpts { client: quiet_client(), fault: None };
    ldb.attach(Box::new(wire), source, Some(handle), opts)
}
