//! The nub wire protocol (paper, Sec. 4.2).
//!
//! "The little-endian communication protocol between ldb and the nub has
//! been used on all combinations of host and target byte orders and has
//! been validated." Every frame is `[length: u32 LE][tag: u8][payload]`,
//! with all multi-byte payload fields little-endian *regardless* of host
//! and target byte order. The nub fetches values using the target's byte
//! order and ships them little-endian.
//!
//! The protocol deliberately does not mention breakpoints or
//! single-stepping: breakpoints are implemented entirely in the debugger
//! with fetches and stores. The one extension (from the paper's Sec. 7.1
//! future work) is a special *plant* store that the nub records, so a new
//! debugger can recover the overwritten instructions after a debugger
//! crash.

/// The largest block a [`Request::FetchBlock`] may ask for, in bytes.
/// Keeps a block reply comfortably inside the 1 MiB frame cap even after
/// envelope overhead, and bounds what a corrupted length field can make a
/// decoder allocate.
pub const MAX_BLOCK: u32 = 64 * 1024;

/// Signals the nub reports. Numbers follow UNIX conventions loosely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sig {
    /// Stopped at the startup pause (before `main`).
    Pause,
    /// Breakpoint trap.
    Trap,
    /// Bad memory access.
    Segv,
    /// Arithmetic fault (integer divide by zero).
    Fpe,
    /// Illegal instruction.
    Ill,
    /// Stopped because a debugger attached.
    Attach,
    /// Stopped after a single-stepped instruction (the Sec. 7.1 protocol
    /// extension; ldb works without it but uses it when present).
    Step,
}

impl Sig {
    /// Wire number.
    pub fn number(self) -> u8 {
        match self {
            Sig::Pause => 17,
            Sig::Trap => 5,
            Sig::Segv => 11,
            Sig::Fpe => 8,
            Sig::Ill => 4,
            Sig::Attach => 19,
            Sig::Step => 23,
        }
    }

    /// Inverse of [`Sig::number`].
    pub fn from_number(n: u8) -> Option<Sig> {
        Some(match n {
            17 => Sig::Pause,
            5 => Sig::Trap,
            11 => Sig::Segv,
            8 => Sig::Fpe,
            4 => Sig::Ill,
            19 => Sig::Attach,
            23 => Sig::Step,
            _ => return None,
        })
    }
}

/// Requests the debugger sends to the nub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Fetch `size` bytes (1, 2, 4, or 8) at `addr` in space `space`
    /// (`b'c'` or `b'd'`; the nub serves only code and data).
    Fetch {
        /// Space letter.
        space: u8,
        /// Target address.
        addr: u32,
        /// Value width.
        size: u8,
    },
    /// Store a value.
    Store {
        /// Space letter.
        space: u8,
        /// Target address.
        addr: u32,
        /// Value width.
        size: u8,
        /// The value, as a little-endian u64.
        value: u64,
    },
    /// A store used to plant a breakpoint; the nub records the original
    /// bytes so a future debugger can recover them.
    Plant {
        /// Target address.
        addr: u32,
        /// Instruction-unit width.
        size: u8,
        /// New instruction value.
        value: u64,
    },
    /// List recorded plants (address, size, original value).
    QueryPlants,
    /// Resume execution.
    Continue,
    /// Terminate the target.
    Kill,
    /// Break the connection, preserving target state.
    Detach,
    /// Execute exactly one instruction, then stop and notify (optional
    /// protocol extension).
    Step,
    /// Break the connection and let the target run free ("the nub may be
    /// told to continue execution instead", Sec. 4.2).
    DetachRun,
    /// Liveness probe: answered immediately with [`Reply::Running`] while
    /// the target executes, or re-announces the current stop. Lets a
    /// client distinguish a slow target from a dead wire.
    Ping,
    /// Fetch `len` raw bytes starting at `addr` in space `space`, in one
    /// round trip. The bulk-transfer counterpart of [`Request::Fetch`]:
    /// the debugger's cache layer fills whole lines with this instead of
    /// paying one transaction per word. `len` must be in
    /// `1..=`[`MAX_BLOCK`].
    FetchBlock {
        /// Space letter (`b'c'` or `b'd'`).
        space: u8,
        /// Target address of the first byte.
        addr: u32,
        /// Number of bytes to fetch.
        len: u32,
    },
    /// Execute at most `n` instructions, then stop and notify — the
    /// budgeted generalization of [`Request::Step`] that the debugger's
    /// checkpoint and reverse-execution machinery is built on. The target
    /// stops early at a breakpoint trap, fault, or exit; otherwise it
    /// stops with [`Sig::Step`] after exactly `n` retired instructions.
    /// `n == 0` re-announces the current stop (used to refresh state
    /// after a snapshot restore).
    StepN {
        /// Instruction budget.
        n: u64,
    },
    /// Capture the target's complete state (registers + dirty memory
    /// pages + output) into the nub's staging buffer, pristine of any
    /// planted breakpoints. Answered with [`Reply::Fetched`] carrying the
    /// serialized length; the debugger then pages it out with
    /// [`Request::ReadSnapshot`].
    TakeSnapshot,
    /// Read `len` bytes at `off` from the staged snapshot produced by
    /// [`Request::TakeSnapshot`]. `len` must be in `1..=`[`MAX_BLOCK`].
    /// Answered with [`Reply::Block`].
    ReadSnapshot {
        /// Byte offset into the staged snapshot.
        off: u32,
        /// Number of bytes to read.
        len: u32,
    },
    /// Append one chunk of a serialized snapshot to the nub's inbound
    /// staging buffer. `off` must equal the bytes staged so far (chunks
    /// arrive in order; the envelope layer already deduplicates
    /// retransmissions). An `off` of 0 starts a fresh upload.
    LoadSnapshot {
        /// Byte offset this chunk starts at.
        off: u32,
        /// The chunk (at most [`MAX_BLOCK`] bytes).
        bytes: Vec<u8>,
    },
    /// Decode the staged inbound snapshot (`len` bytes must have been
    /// staged) and restore the target to that state, re-planting any
    /// currently recorded breakpoints on top of the pristine image.
    CommitSnapshot {
        /// Expected total length, as a handshake against lost chunks.
        len: u32,
    },
    /// Ask for the target's retired-instruction count — its position on
    /// the deterministic execution timeline. Answered with
    /// [`Reply::Fetched`].
    QuerySteps,
}

/// Replies and notifications the nub sends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// A stop notification: signal, code, and the address of the context
    /// block holding the registers.
    Signal {
        /// Signal number.
        sig: u8,
        /// Auxiliary code (fault address, breakpoint code...).
        code: u32,
        /// Address of the context in the target's data space.
        context: u32,
    },
    /// Value fetched.
    Fetched {
        /// Value, little-endian.
        value: u64,
    },
    /// Store performed.
    Stored,
    /// Plants recorded: (addr, size, original value) triples.
    Plants(Vec<(u32, u8, u64)>),
    /// The target exited.
    Exited {
        /// Exit status.
        status: i32,
    },
    /// The request failed (bad address, bad space).
    Error {
        /// Error code: 1 = bad address, 2 = bad space, 3 = bad size,
        /// 4 = not stopped.
        code: u8,
    },
    /// The request was received and acted on, with nothing to report yet
    /// (Continue/Step acknowledgement in enveloped sessions, so a client
    /// can tell a lost resume request from a long-running target).
    Ack,
    /// Answer to [`Request::Ping`] while the target is executing.
    Running,
    /// Bytes fetched by [`Request::FetchBlock`]. Unlike [`Reply::Fetched`],
    /// the bytes are *raw target memory*, not a little-endian value; the
    /// `order` byte tells the client how the target assembles multi-byte
    /// values so it can reproduce word fetches bit-for-bit.
    Block {
        /// Target byte order: 0 = little-endian, 1 = big-endian.
        order: u8,
        /// The requested bytes, in target memory order.
        bytes: Vec<u8>,
    },
}

fn put_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

fn get_u32(b: &[u8], i: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(i..i + 4)?.try_into().ok()?))
}

fn get_u64(b: &[u8], i: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(i..i + 8)?.try_into().ok()?))
}

impl Request {
    /// A short stable name for logs and trace journals.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Fetch { .. } => "Fetch",
            Request::Store { .. } => "Store",
            Request::Plant { .. } => "Plant",
            Request::QueryPlants => "QueryPlants",
            Request::Continue => "Continue",
            Request::Kill => "Kill",
            Request::Detach => "Detach",
            Request::Step => "Step",
            Request::DetachRun => "DetachRun",
            Request::Ping => "Ping",
            Request::FetchBlock { .. } => "FetchBlock",
            Request::StepN { .. } => "StepN",
            Request::TakeSnapshot => "TakeSnapshot",
            Request::ReadSnapshot { .. } => "ReadSnapshot",
            Request::LoadSnapshot { .. } => "LoadSnapshot",
            Request::CommitSnapshot { .. } => "CommitSnapshot",
            Request::QuerySteps => "QuerySteps",
        }
    }

    /// Encode as a frame body (tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        match self {
            Request::Fetch { space, addr, size } => {
                v.push(1);
                v.push(*space);
                put_u32(&mut v, *addr);
                v.push(*size);
            }
            Request::Store { space, addr, size, value } => {
                v.push(2);
                v.push(*space);
                put_u32(&mut v, *addr);
                v.push(*size);
                put_u64(&mut v, *value);
            }
            Request::Plant { addr, size, value } => {
                v.push(3);
                put_u32(&mut v, *addr);
                v.push(*size);
                put_u64(&mut v, *value);
            }
            Request::QueryPlants => v.push(4),
            Request::Continue => v.push(5),
            Request::Kill => v.push(6),
            Request::Detach => v.push(7),
            Request::Step => v.push(8),
            Request::DetachRun => v.push(9),
            Request::Ping => v.push(10),
            Request::FetchBlock { space, addr, len } => {
                v.push(11);
                v.push(*space);
                put_u32(&mut v, *addr);
                put_u32(&mut v, *len);
            }
            Request::StepN { n } => {
                v.push(12);
                put_u64(&mut v, *n);
            }
            Request::TakeSnapshot => v.push(13),
            Request::ReadSnapshot { off, len } => {
                v.push(14);
                put_u32(&mut v, *off);
                put_u32(&mut v, *len);
            }
            Request::LoadSnapshot { off, bytes } => {
                v.push(15);
                put_u32(&mut v, *off);
                put_u32(&mut v, bytes.len() as u32);
                v.extend_from_slice(bytes);
            }
            // Tags 0x10–0x12 are reserved for envelope framing; the last
            // two bare tags skip over them.
            Request::CommitSnapshot { len } => {
                v.push(19);
                put_u32(&mut v, *len);
            }
            Request::QuerySteps => v.push(20),
        }
        v
    }

    /// Decode a frame body.
    pub fn decode(b: &[u8]) -> Option<Request> {
        match *b.first()? {
            1 => Some(Request::Fetch {
                space: *b.get(1)?,
                addr: get_u32(b, 2)?,
                size: *b.get(6)?,
            }),
            2 => Some(Request::Store {
                space: *b.get(1)?,
                addr: get_u32(b, 2)?,
                size: *b.get(6)?,
                value: get_u64(b, 7)?,
            }),
            3 => Some(Request::Plant {
                addr: get_u32(b, 1)?,
                size: *b.get(5)?,
                value: get_u64(b, 6)?,
            }),
            4 => Some(Request::QueryPlants),
            5 => Some(Request::Continue),
            6 => Some(Request::Kill),
            7 => Some(Request::Detach),
            8 => Some(Request::Step),
            9 => Some(Request::DetachRun),
            10 => Some(Request::Ping),
            11 => Some(Request::FetchBlock {
                space: *b.get(1)?,
                addr: get_u32(b, 2)?,
                len: get_u32(b, 6)?,
            }),
            12 => Some(Request::StepN { n: get_u64(b, 1)? }),
            13 => Some(Request::TakeSnapshot),
            14 => Some(Request::ReadSnapshot { off: get_u32(b, 1)?, len: get_u32(b, 5)? }),
            15 => {
                let off = get_u32(b, 1)?;
                let n = get_u32(b, 5)? as usize;
                // Never trust a length field: cap it and require the body
                // to actually hold n bytes before anything is allocated.
                if n > MAX_BLOCK as usize || b.len() < 9 + n {
                    return None;
                }
                Some(Request::LoadSnapshot { off, bytes: b[9..9 + n].to_vec() })
            }
            19 => Some(Request::CommitSnapshot { len: get_u32(b, 1)? }),
            20 => Some(Request::QuerySteps),
            _ => None,
        }
    }
}

impl Reply {
    /// A short stable name for logs and trace journals.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Reply::Signal { .. } => "Signal",
            Reply::Fetched { .. } => "Fetched",
            Reply::Stored => "Stored",
            Reply::Plants(_) => "Plants",
            Reply::Exited { .. } => "Exited",
            Reply::Error { .. } => "Error",
            Reply::Ack => "Ack",
            Reply::Running => "Running",
            Reply::Block { .. } => "Block",
        }
    }

    /// Encode as a frame body (tag + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        match self {
            Reply::Signal { sig, code, context } => {
                v.push(0x81);
                v.push(*sig);
                put_u32(&mut v, *code);
                put_u32(&mut v, *context);
            }
            Reply::Fetched { value } => {
                v.push(0x82);
                put_u64(&mut v, *value);
            }
            Reply::Stored => v.push(0x83),
            Reply::Plants(list) => {
                v.push(0x84);
                put_u32(&mut v, list.len() as u32);
                for (a, s, val) in list {
                    put_u32(&mut v, *a);
                    v.push(*s);
                    put_u64(&mut v, *val);
                }
            }
            Reply::Exited { status } => {
                v.push(0x85);
                put_u32(&mut v, *status as u32);
            }
            Reply::Error { code } => {
                v.push(0x86);
                v.push(*code);
            }
            Reply::Ack => v.push(0x87),
            Reply::Running => v.push(0x88),
            Reply::Block { order, bytes } => {
                v.push(0x89);
                v.push(*order);
                put_u32(&mut v, bytes.len() as u32);
                v.extend_from_slice(bytes);
            }
        }
        v
    }

    /// Decode a frame body.
    pub fn decode(b: &[u8]) -> Option<Reply> {
        match *b.first()? {
            0x81 => Some(Reply::Signal {
                sig: *b.get(1)?,
                code: get_u32(b, 2)?,
                context: get_u32(b, 6)?,
            }),
            0x82 => Some(Reply::Fetched { value: get_u64(b, 1)? }),
            0x83 => Some(Reply::Stored),
            0x84 => {
                let n = get_u32(b, 1)? as usize;
                // Never trust a length field: the body must actually hold
                // n entries before anything is allocated.
                if b.len() < 5 + n.checked_mul(13)? {
                    return None;
                }
                let mut list = Vec::with_capacity(n);
                let mut i = 5;
                for _ in 0..n {
                    let a = get_u32(b, i)?;
                    let s = *b.get(i + 4)?;
                    let val = get_u64(b, i + 5)?;
                    list.push((a, s, val));
                    i += 13;
                }
                Some(Reply::Plants(list))
            }
            0x85 => Some(Reply::Exited { status: get_u32(b, 1)? as i32 }),
            0x86 => Some(Reply::Error { code: *b.get(1)? }),
            0x87 => Some(Reply::Ack),
            0x88 => Some(Reply::Running),
            0x89 => {
                let order = *b.get(1)?;
                let n = get_u32(b, 2)? as usize;
                // Never trust a length field: cap it and require the body
                // to actually hold n bytes before anything is allocated.
                if n > MAX_BLOCK as usize || b.len() < 6 + n {
                    return None;
                }
                Some(Reply::Block { order, bytes: b[6..6 + n].to_vec() })
            }
            _ => None,
        }
    }
}

/// Frame tag opening an enveloped request.
pub const ENV_REQ: u8 = 0x10;
/// Frame tag opening an enveloped reply.
pub const ENV_REPLY: u8 = 0x11;
/// Frame tag opening an enveloped asynchronous notification.
pub const ENV_EVENT: u8 = 0x12;

/// FNV-1a over a frame, the envelope's integrity check. Not
/// cryptographic — it guards against wire corruption, not an adversary.
fn fnv32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The resilient session layer over bare protocol bodies.
///
/// A bare body (`[tag][payload]`, tag 1–10 or 0x81–0x88) is the paper's
/// original request or reply. On the wire it travels *enveloped*, as
/// `[env-tag][n: u32 LE][body][fnv1a: u32 LE]` where `n` is a request
/// sequence number (requests and their replies) or an event generation
/// number (notifications). The nub executes only enveloped requests; the
/// one bare frame it sends is the stop announcement to a freshly
/// connected peer. The envelope is what makes the session safe on a
/// faulty wire:
///
/// * the checksum turns corruption into a detectable decode failure,
/// * the sequence number pairs replies with requests, so duplicates and
///   stale retransmissions are recognized instead of desynchronizing the
///   stream, and
/// * the generation number deduplicates re-sent stop notifications.
///
/// Envelope tags 0x10–0x12 never collide with bare tags, so a bare frame
/// (or one corrupted to look like one) never decodes as an envelope.
#[derive(Debug, Clone, PartialEq)]
pub enum Envelope {
    /// A sequenced request.
    Req {
        /// Sequence number, increasing per transaction.
        seq: u32,
        /// The request proper.
        req: Request,
    },
    /// The reply to the request with the same `seq`.
    Reply {
        /// Sequence number copied from the request.
        seq: u32,
        /// The reply proper.
        reply: Reply,
    },
    /// An asynchronous notification (stop/exit), deduplicated by
    /// generation.
    Event {
        /// Generation number, increasing per distinct event.
        generation: u32,
        /// The notification payload.
        reply: Reply,
    },
}

fn seal(tag: u8, n: u32, body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(body.len() + 9);
    v.push(tag);
    put_u32(&mut v, n);
    v.extend_from_slice(body);
    let crc = fnv32(&v);
    put_u32(&mut v, crc);
    v
}

impl Envelope {
    /// Encode as a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Envelope::Req { seq, req } => seal(ENV_REQ, *seq, &req.encode()),
            Envelope::Reply { seq, reply } => seal(ENV_REPLY, *seq, &reply.encode()),
            Envelope::Event { generation, reply } => seal(ENV_EVENT, *generation, &reply.encode()),
        }
    }

    /// Decode a frame body. Returns `None` for non-envelope tags, short
    /// frames, checksum mismatches, and undecodable inner bodies — all of
    /// which a resilient peer treats as wire corruption.
    pub fn decode(b: &[u8]) -> Option<Envelope> {
        let tag = *b.first()?;
        if !(ENV_REQ..=ENV_EVENT).contains(&tag) || b.len() < 9 {
            return None;
        }
        let (payload, crc_bytes) = b.split_at(b.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if fnv32(payload) != crc {
            return None;
        }
        let n = get_u32(payload, 1)?;
        let body = &payload[5..];
        match tag {
            ENV_REQ => Some(Envelope::Req { seq: n, req: Request::decode(body)? }),
            ENV_REPLY => Some(Envelope::Reply { seq: n, reply: Reply::decode(body)? }),
            ENV_EVENT => Some(Envelope::Event { generation: n, reply: Reply::decode(body)? }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_round_trips() {
        let cases = [
            Request::Fetch { space: b'd', addr: 0x1234, size: 4 },
            Request::Store { space: b'c', addr: 0xffff_fff0, size: 8, value: u64::MAX },
            Request::Plant { addr: 0x2000, size: 1, value: 3 },
            Request::QueryPlants,
            Request::Continue,
            Request::Kill,
            Request::Detach,
            Request::Step,
            Request::DetachRun,
        ];
        for r in cases {
            assert_eq!(Request::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn reply_round_trips() {
        let cases = [
            Reply::Signal { sig: 5, code: 0x1010, context: 0x8000 },
            Reply::Fetched { value: 0x0102_0304_0506_0708 },
            Reply::Stored,
            Reply::Plants(vec![(0x1000, 4, 0xd), (0x1010, 1, 0x01)]),
            Reply::Exited { status: -1 },
            Reply::Error { code: 2 },
        ];
        for r in cases {
            assert_eq!(Reply::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn junk_decodes_to_none() {
        assert_eq!(Request::decode(&[]), None);
        assert_eq!(Request::decode(&[99]), None);
        assert_eq!(Reply::decode(&[0x82, 1, 2]), None);
    }

    #[test]
    fn block_frames_round_trip() {
        let req = Request::FetchBlock { space: b'd', addr: 0x4000, len: 64 };
        assert_eq!(Request::decode(&req.encode()), Some(req));
        for order in [0u8, 1] {
            let rep = Reply::Block { order, bytes: (0..64u8).collect() };
            assert_eq!(Reply::decode(&rep.encode()), Some(rep.clone()));
            let env = Envelope::Reply { seq: 9, reply: rep };
            assert_eq!(Envelope::decode(&env.encode()), Some(env));
        }
        // Empty blocks survive the codec too; the nub rejects len == 0 at
        // the service layer, not the codec.
        let empty = Reply::Block { order: 0, bytes: vec![] };
        assert_eq!(Reply::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn block_decode_rejects_lying_lengths() {
        // Claims 16 bytes but carries 4: must not decode (and must not
        // allocate for the claimed length first).
        let mut b = vec![0x89, 0, 16, 0, 0, 0];
        b.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(Reply::decode(&b), None);
        // Claims more than MAX_BLOCK: rejected outright even if a
        // malicious frame were long enough.
        let mut huge = vec![0x89, 0];
        huge.extend_from_slice(&(MAX_BLOCK + 1).to_le_bytes());
        assert_eq!(Reply::decode(&huge), None);
        // A full-size block at exactly MAX_BLOCK still fits in a frame.
        let max = Reply::Block { order: 1, bytes: vec![0xab; MAX_BLOCK as usize] };
        let frame = max.encode();
        assert!(frame.len() < 1 << 20);
        assert_eq!(Reply::decode(&frame), Some(max));
    }

    #[test]
    fn snapshot_frames_round_trip() {
        let cases = [
            Request::StepN { n: 0 },
            Request::StepN { n: u64::MAX },
            Request::TakeSnapshot,
            Request::ReadSnapshot { off: 0x1_0000, len: MAX_BLOCK },
            Request::LoadSnapshot { off: 0, bytes: vec![] },
            Request::LoadSnapshot { off: 7, bytes: (0..200u8).collect() },
            Request::CommitSnapshot { len: 0x1234 },
            Request::QuerySteps,
        ];
        for r in cases {
            assert_eq!(Request::decode(&r.encode()), Some(r.clone()));
            let env = Envelope::Req { seq: 42, req: r };
            assert_eq!(Envelope::decode(&env.encode()), Some(env));
        }
    }

    #[test]
    fn load_snapshot_decode_rejects_lying_lengths() {
        // Claims 16 payload bytes but carries 4: must not decode (and
        // must not allocate for the claimed length first).
        let mut b = vec![15, 0, 0, 0, 0, 16, 0, 0, 0];
        b.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(Request::decode(&b), None);
        // Claims more than MAX_BLOCK: rejected outright.
        let mut huge = vec![15, 0, 0, 0, 0];
        huge.extend_from_slice(&(MAX_BLOCK + 1).to_le_bytes());
        assert_eq!(Request::decode(&huge), None);
    }

    #[test]
    fn sig_numbers_round_trip() {
        for s in [Sig::Pause, Sig::Trap, Sig::Segv, Sig::Fpe, Sig::Ill, Sig::Attach, Sig::Step] {
            assert_eq!(Sig::from_number(s.number()), Some(s));
        }
        assert_eq!(Sig::from_number(0), None);
    }

    proptest! {
        /// Protocol validation: arbitrary fetch/store/plant parameters
        /// survive the little-endian codec (the paper validated its
        /// protocol with SPIN [13]; property testing is our analog).
        #[test]
        fn prop_fetch_store_roundtrip(space in prop::sample::select(vec![b'c', b'd']),
                                      addr: u32, size in prop::sample::select(vec![1u8,2,4,8]),
                                      value: u64) {
            let f = Request::Fetch { space, addr, size };
            prop_assert_eq!(Request::decode(&f.encode()), Some(f));
            let s = Request::Store { space, addr, size, value };
            prop_assert_eq!(Request::decode(&s.encode()), Some(s));
        }

        #[test]
        fn prop_signal_roundtrip(sig: u8, code: u32, context: u32) {
            let r = Reply::Signal { sig, code, context };
            prop_assert_eq!(Reply::decode(&r.encode()), Some(r));
        }

        #[test]
        fn prop_plants_roundtrip(list in prop::collection::vec((any::<u32>(), prop::sample::select(vec![1u8,2,4]), any::<u64>()), 0..8)) {
            let r = Reply::Plants(list);
            prop_assert_eq!(Reply::decode(&r.encode()), Some(r.clone()));
        }

        /// Block frames survive the codec for arbitrary contents, bare and
        /// enveloped alike.
        #[test]
        fn prop_block_roundtrip(space in prop::sample::select(vec![b'c', b'd']),
                                addr: u32, len in 1u32..=MAX_BLOCK, seq: u32,
                                order in 0u8..=1,
                                bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            let req = Request::FetchBlock { space, addr, len };
            prop_assert_eq!(Request::decode(&req.encode()), Some(req.clone()));
            let env = Envelope::Req { seq, req };
            prop_assert_eq!(Envelope::decode(&env.encode()), Some(env));
            let rep = Reply::Block { order, bytes };
            prop_assert_eq!(Reply::decode(&rep.encode()), Some(rep));
        }

        /// The decoder never panics on arbitrary bytes.
        #[test]
        fn prop_decoder_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = Request::decode(&bytes);
            let _ = Reply::decode(&bytes);
            let _ = Envelope::decode(&bytes);
        }

        /// Envelopes survive the codec with their numbering intact.
        #[test]
        fn prop_envelope_roundtrip(seq: u32, addr: u32, value: u64,
                                   size in prop::sample::select(vec![1u8,2,4,8])) {
            let req = Envelope::Req { seq, req: Request::Fetch { space: b'd', addr, size } };
            prop_assert_eq!(Envelope::decode(&req.encode()), Some(req));
            let rep = Envelope::Reply { seq, reply: Reply::Fetched { value } };
            prop_assert_eq!(Envelope::decode(&rep.encode()), Some(rep));
            let ev = Envelope::Event {
                generation: seq,
                reply: Reply::Signal { sig: 5, code: addr, context: addr ^ 0xffff },
            };
            prop_assert_eq!(Envelope::decode(&ev.encode()), Some(ev));
        }

        /// Any single flipped byte in an envelope is caught by the
        /// checksum: the frame decodes to `None`, never to a different
        /// well-formed envelope.
        #[test]
        fn prop_envelope_detects_corruption(seq: u32, value: u64, pos: usize, flip in 1u8..=255) {
            let frame = Envelope::Reply { seq, reply: Reply::Fetched { value } }.encode();
            let mut bad = frame.clone();
            let i = pos % bad.len();
            bad[i] ^= flip;
            prop_assert_eq!(Envelope::decode(&bad), None);
        }
    }

    #[test]
    fn every_request_and_reply_round_trips() {
        let reqs = [
            Request::QueryPlants,
            Request::Continue,
            Request::Kill,
            Request::Detach,
            Request::Step,
            Request::DetachRun,
            Request::Ping,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()), Some(r));
        }
        for r in [Reply::Ack, Reply::Running] {
            assert_eq!(Reply::decode(&r.encode()), Some(r));
        }
    }

    #[test]
    fn envelope_tags_never_collide_with_bare_frames() {
        // A bare request/reply body must not parse as an envelope and
        // vice versa, so both framings can share one wire.
        for r in [Request::Fetch { space: b'd', addr: 0x10, size: 4 }, Request::Ping] {
            assert_eq!(Envelope::decode(&r.encode()), None);
        }
        let env = Envelope::Req { seq: 7, req: Request::Continue }.encode();
        assert_eq!(Request::decode(&env), None);
        assert_eq!(Reply::decode(&env), None);
    }
}
