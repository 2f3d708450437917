//! The versioned binary codec for suite records and statistics.
//!
//! Synthesized suites are durable artifacts (the paper's runs took up to
//! a week per bound), so the on-disk encoding is explicit and versioned
//! rather than derived: LEB128 varints for integers, length-prefixed
//! UTF-8 for strings, and structure tags for enums. The encoding of an
//! execution goes through [`ExecParts`], the exact field decomposition
//! of [`Execution`] — decoding rebuilds a structurally equal value, so a
//! decoded witness prints byte-identically under
//! [`transform_litmus::format::print_elt`].
//!
//! Integrity is the store's job ([`crate::store`] frames every record
//! with an FNV-1a checksum); this module only promises that
//! `decode(encode(x)) == x` and that malformed bytes produce a
//! [`CodecError`] instead of a panic.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;
use transform_core::event::{Event, EventKind};
use transform_core::exec::{ExecParts, Execution, PairSet};
use transform_core::ids::{EventId, Pa, ThreadId, Va};
use transform_synth::programs::{PaRef, Program, SlotOp};
use transform_synth::{ShardStats, SuiteRecord, SuiteStats, SynthesizedElt};

/// The store's on-disk format version. Bump on any encoding change;
/// readers reject other versions and the cache resynthesizes.
pub const FORMAT_VERSION: u32 = 2;

/// A decoding failure: malformed, truncated, or out-of-range bytes, or
/// a frame written by another format version.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong.
    pub message: String,
    /// The format version of a frame another build wrote, which the
    /// store reports as [`StoreError::Version`](crate::StoreError::Version).
    pub(crate) found_version: Option<u32>,
}

impl CodecError {
    pub(crate) fn new(message: impl Into<String>) -> CodecError {
        CodecError {
            message: message.into(),
            found_version: None,
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.message)
    }
}

impl Error for CodecError {}

/// A running FNV-1a 64 state — the store's one checksum primitive,
/// shared by whole-buffer checksums ([`fnv1a64`]) and the incremental
/// trailer folds in [`crate::store`].
#[derive(Clone, Copy)]
pub struct Fnv64 {
    h: u64,
}

impl Fnv64 {
    /// The FNV-1a 64 offset basis.
    pub fn new() -> Fnv64 {
        Fnv64 {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.h
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// FNV-1a 64 over one byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Encodes a self-checking frame: `magic`, [`FORMAT_VERSION`], the
/// payload `body` writes, and an FNV-1a 64 trailer over all of it. Run
/// journals, run lists, the `/v1/index` body and the fleet messages
/// are frames.
pub(crate) fn seal_frame(magic: &[u8; 8], body: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    e.raw(magic);
    e.u32(FORMAT_VERSION);
    body(&mut e);
    let mut bytes = e.into_bytes();
    let checksum = fnv1a64(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Opens a [`seal_frame`] frame: checks the trailer, the magic and the
/// version, and returns a cursor over the payload. A version mismatch
/// records the version found in the error.
pub(crate) fn open_frame<'a>(
    bytes: &'a [u8],
    magic: &[u8; 8],
    what: &str,
) -> Result<Dec<'a>, CodecError> {
    if bytes.len() < magic.len() + 4 + 8 {
        return Err(CodecError::new(format!("{what} truncated")));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(CodecError::new(format!("{what} checksum mismatch")));
    }
    let mut d = Dec::new(body);
    if d.bytes(magic.len())? != magic {
        return Err(CodecError::new(format!("bad {what} magic")));
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(CodecError {
            found_version: Some(version),
            ..CodecError::new(format!(
                "{what} format version {version}, expected {FORMAT_VERSION}"
            ))
        });
    }
    Ok(d)
}

/// The one LEB128 decoder: pulls bytes from `next_byte` until the
/// continuation bit clears. [`Dec::varint`] and the store's buffered
/// file reader both build on this, so overflow handling cannot
/// diverge between them.
pub fn decode_varint<E>(
    mut next_byte: impl FnMut() -> Result<u8, E>,
    overflow: impl FnOnce() -> E,
) -> Result<u64, E> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = next_byte()?;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(overflow());
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// An append-only encode buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty buffer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one raw byte.
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a fixed-width little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fixed-width little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a usize as a varint.
    pub fn size(&mut self, v: usize) {
        self.varint(v as u64);
    }

    /// Appends a boolean as one byte.
    pub fn boolean(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) {
        self.size(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes without a length prefix (framing magic,
    /// already-encoded payloads).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// A cursor over encoded bytes.
pub struct Dec<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, at: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .bytes
            .get(self.at)
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        self.at += 1;
        Ok(b)
    }

    /// Reads a fixed-width little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let end = self
            .at
            .checked_add(4)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        let v = u32::from_le_bytes(self.bytes[self.at..end].try_into().expect("4 bytes"));
        self.at = end;
        Ok(v)
    }

    /// Reads a fixed-width little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let end = self
            .at
            .checked_add(8)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        let v = u64::from_le_bytes(self.bytes[self.at..end].try_into().expect("8 bytes"));
        self.at = end;
        Ok(v)
    }

    /// Reads an LEB128 varint.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        decode_varint(|| self.u8(), || CodecError::new("varint overflows u64"))
    }

    /// Reads a varint as a usize.
    pub fn size(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.varint()?).map_err(|_| CodecError::new("size out of range"))
    }

    /// Reads a varint as a usize, bounded to catch corrupted lengths
    /// before they turn into huge allocations.
    pub fn size_bounded(&mut self, max: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.size()?;
        if n > max {
            return Err(CodecError::new(format!(
                "{what} length {n} exceeds limit {max}"
            )));
        }
        Ok(n)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    /// Reads a boolean byte.
    pub fn boolean(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("invalid boolean byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = self.size_bounded(1 << 20, "string")?;
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        let s = std::str::from_utf8(&self.bytes[self.at..end])
            .map_err(|_| CodecError::new("invalid UTF-8 in string"))?
            .to_string();
        self.at = end;
        Ok(s)
    }
}

/// Sanity cap on collection lengths inside one record; a well-formed
/// bounded-synthesis artifact is far below this.
const MAX_LEN: usize = 1 << 16;

fn encode_slot_op(e: &mut Enc, op: SlotOp) {
    match op {
        SlotOp::Read { va, walk } => {
            e.u8(1);
            e.size(va);
            e.boolean(walk);
        }
        SlotOp::Write { va, walk } => {
            e.u8(2);
            e.size(va);
            e.boolean(walk);
        }
        SlotOp::Fence => e.u8(3),
        SlotOp::PteWrite { va, pa } => {
            e.u8(4);
            e.size(va);
            match pa {
                PaRef::Initial(i) => {
                    e.u8(0);
                    e.size(i);
                }
                PaRef::Fresh(k) => {
                    e.u8(1);
                    e.size(k);
                }
            }
        }
        SlotOp::Invlpg { va } => {
            e.u8(5);
            e.size(va);
        }
        SlotOp::TlbFlush => e.u8(6),
    }
}

fn decode_slot_op(d: &mut Dec<'_>) -> Result<SlotOp, CodecError> {
    Ok(match d.u8()? {
        1 => SlotOp::Read {
            va: d.size()?,
            walk: d.boolean()?,
        },
        2 => SlotOp::Write {
            va: d.size()?,
            walk: d.boolean()?,
        },
        3 => SlotOp::Fence,
        4 => {
            let va = d.size()?;
            let pa = match d.u8()? {
                0 => PaRef::Initial(d.size()?),
                1 => PaRef::Fresh(d.size()?),
                t => return Err(CodecError::new(format!("invalid PaRef tag {t}"))),
            };
            SlotOp::PteWrite { va, pa }
        }
        5 => SlotOp::Invlpg { va: d.size()? },
        6 => SlotOp::TlbFlush,
        t => return Err(CodecError::new(format!("invalid SlotOp tag {t}"))),
    })
}

/// Encodes an ELT program.
pub fn encode_program(e: &mut Enc, p: &Program) {
    e.size(p.threads.len());
    for thread in &p.threads {
        e.size(thread.len());
        for &op in thread {
            encode_slot_op(e, op);
        }
    }
    e.size(p.remap.len());
    for &((wt, ws), (it, is)) in &p.remap {
        e.size(wt);
        e.size(ws);
        e.size(it);
        e.size(is);
    }
    e.size(p.rmw.len());
    for &(t, s) in &p.rmw {
        e.size(t);
        e.size(s);
    }
}

/// Decodes an ELT program.
pub fn decode_program(d: &mut Dec<'_>) -> Result<Program, CodecError> {
    let num_threads = d.size_bounded(MAX_LEN, "threads")?;
    let mut threads = Vec::with_capacity(num_threads);
    for _ in 0..num_threads {
        let len = d.size_bounded(MAX_LEN, "slots")?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(decode_slot_op(d)?);
        }
        threads.push(row);
    }
    let remap_len = d.size_bounded(MAX_LEN, "remap")?;
    let mut remap = Vec::with_capacity(remap_len);
    for _ in 0..remap_len {
        remap.push(((d.size()?, d.size()?), (d.size()?, d.size()?)));
    }
    let rmw_len = d.size_bounded(MAX_LEN, "rmw")?;
    let mut rmw = Vec::with_capacity(rmw_len);
    for _ in 0..rmw_len {
        rmw.push((d.size()?, d.size()?));
    }
    Ok(Program {
        threads,
        remap,
        rmw,
    })
}

fn encode_event(e: &mut Enc, ev: &Event) {
    e.size(ev.thread.0);
    match ev.kind {
        EventKind::Read => e.u8(1),
        EventKind::Write => e.u8(2),
        EventKind::Fence => e.u8(3),
        EventKind::PteWrite { new_pa } => {
            e.u8(4);
            e.size(new_pa.0);
        }
        EventKind::Invlpg => e.u8(5),
        EventKind::TlbFlush => e.u8(6),
        EventKind::Ptw => e.u8(7),
        EventKind::DirtyBitWrite => e.u8(8),
    }
    match ev.va {
        Some(va) => {
            e.boolean(true);
            e.size(va.0);
        }
        None => e.boolean(false),
    }
}

fn decode_event(d: &mut Dec<'_>, id: u32) -> Result<Event, CodecError> {
    let thread = ThreadId(d.size()?);
    let kind = match d.u8()? {
        1 => EventKind::Read,
        2 => EventKind::Write,
        3 => EventKind::Fence,
        4 => EventKind::PteWrite {
            new_pa: Pa(d.size()?),
        },
        5 => EventKind::Invlpg,
        6 => EventKind::TlbFlush,
        7 => EventKind::Ptw,
        8 => EventKind::DirtyBitWrite,
        t => return Err(CodecError::new(format!("invalid EventKind tag {t}"))),
    };
    let va = if d.boolean()? {
        Some(Va(d.size()?))
    } else {
        None
    };
    Ok(Event {
        id: EventId(id),
        thread,
        kind,
        va,
    })
}

fn encode_pairs(e: &mut Enc, pairs: &PairSet) {
    e.size(pairs.len());
    for &(a, b) in pairs {
        e.varint(u64::from(a.0));
        e.varint(u64::from(b.0));
    }
}

fn decode_pairs(d: &mut Dec<'_>) -> Result<PairSet, CodecError> {
    let len = d.size_bounded(MAX_LEN, "pair set")?;
    let mut pairs = PairSet::new();
    for _ in 0..len {
        let a = u32::try_from(d.varint()?).map_err(|_| CodecError::new("event id out of range"))?;
        let b = u32::try_from(d.varint()?).map_err(|_| CodecError::new("event id out of range"))?;
        pairs.insert((EventId(a), EventId(b)));
    }
    Ok(pairs)
}

fn encode_id_map(e: &mut Enc, map: &BTreeMap<EventId, EventId>) {
    e.size(map.len());
    for (&k, &v) in map {
        e.varint(u64::from(k.0));
        e.varint(u64::from(v.0));
    }
}

fn decode_id_map(d: &mut Dec<'_>) -> Result<BTreeMap<EventId, EventId>, CodecError> {
    let len = d.size_bounded(MAX_LEN, "id map")?;
    let mut map = BTreeMap::new();
    for _ in 0..len {
        let k = u32::try_from(d.varint()?).map_err(|_| CodecError::new("event id out of range"))?;
        let v = u32::try_from(d.varint()?).map_err(|_| CodecError::new("event id out of range"))?;
        map.insert(EventId(k), EventId(v));
    }
    Ok(map)
}

/// Encodes an execution through its [`ExecParts`] decomposition.
pub fn encode_execution(e: &mut Enc, x: &Execution) {
    let parts = x.to_parts();
    e.size(parts.events.len());
    for (i, ev) in parts.events.iter().enumerate() {
        debug_assert_eq!(ev.id.index(), i, "event ids are dense");
        encode_event(e, ev);
    }
    e.size(parts.num_threads);
    e.size(parts.num_vas);
    e.size(parts.num_pas);
    e.size(parts.po.len());
    for row in &parts.po {
        e.size(row.len());
        for &id in row {
            e.varint(u64::from(id.0));
        }
    }
    encode_id_map(e, &parts.ghost_invoker);
    encode_id_map(e, &parts.rf);
    encode_pairs(e, &parts.co);
    encode_pairs(e, &parts.rmw);
    encode_pairs(e, &parts.remap);
    match &parts.co_pa {
        Some(co_pa) => {
            e.boolean(true);
            encode_pairs(e, co_pa);
        }
        None => e.boolean(false),
    }
}

/// Decodes an execution. The result is structurally identical to the
/// encoded one; well-formedness stays the caller's business
/// ([`Execution::analyze`]).
pub fn decode_execution(d: &mut Dec<'_>) -> Result<Execution, CodecError> {
    let num_events = d.size_bounded(MAX_LEN, "events")?;
    let mut events = Vec::with_capacity(num_events);
    for i in 0..num_events {
        events.push(decode_event(
            d,
            u32::try_from(i).map_err(|_| CodecError::new("event id out of range"))?,
        )?);
    }
    let num_threads = d.size()?;
    let num_vas = d.size()?;
    let num_pas = d.size()?;
    let po_rows = d.size_bounded(MAX_LEN, "po")?;
    let mut po = Vec::with_capacity(po_rows);
    for _ in 0..po_rows {
        let len = d.size_bounded(MAX_LEN, "po row")?;
        let mut row = Vec::with_capacity(len);
        for _ in 0..len {
            row.push(EventId(
                u32::try_from(d.varint()?).map_err(|_| CodecError::new("event id out of range"))?,
            ));
        }
        po.push(row);
    }
    let ghost_invoker = decode_id_map(d)?;
    let rf = decode_id_map(d)?;
    let co = decode_pairs(d)?;
    let rmw = decode_pairs(d)?;
    let remap = decode_pairs(d)?;
    let co_pa = if d.boolean()? {
        Some(decode_pairs(d)?)
    } else {
        None
    };
    Ok(Execution::from_parts(ExecParts {
        events,
        num_threads,
        num_vas,
        num_pas,
        po,
        ghost_invoker,
        rf,
        co,
        rmw,
        remap,
        co_pa,
    }))
}

/// Encodes one suite record (plan index + member).
pub fn encode_record(record: &SuiteRecord) -> Vec<u8> {
    let mut e = Enc::new();
    e.size(record.index);
    encode_program(&mut e, &record.elt.program);
    encode_execution(&mut e, &record.elt.witness);
    e.size(record.elt.violated.len());
    for name in &record.elt.violated {
        e.string(name);
    }
    e.into_bytes()
}

/// Decodes one suite record, requiring every byte to be consumed.
pub fn decode_record(bytes: &[u8]) -> Result<SuiteRecord, CodecError> {
    let mut d = Dec::new(bytes);
    let index = d.size()?;
    let program = decode_program(&mut d)?;
    let witness = decode_execution(&mut d)?;
    let violated_len = d.size_bounded(MAX_LEN, "violated")?;
    let mut violated = Vec::with_capacity(violated_len);
    for _ in 0..violated_len {
        violated.push(d.string()?);
    }
    if !d.at_end() {
        return Err(CodecError::new("trailing bytes after record"));
    }
    Ok(SuiteRecord {
        index,
        elt: SynthesizedElt {
            program,
            witness,
            violated,
        },
    })
}

/// Encodes one shard's work counters. The leading varint is the shard
/// ordinal of earlier builds, always written as 0.
pub fn encode_shard_stats(e: &mut Enc, s: &ShardStats) {
    e.size(0);
    e.size(s.items);
    e.size(s.executions);
    e.size(s.forbidden);
    e.size(s.minimal);
}

/// Decodes one shard's work counters, skipping the ordinal slot.
pub fn decode_shard_stats(d: &mut Dec<'_>) -> Result<ShardStats, CodecError> {
    d.size()?;
    Ok(ShardStats {
        items: d.size()?,
        executions: d.size()?,
        forbidden: d.size()?,
        minimal: d.size()?,
    })
}

/// Encodes a suite's statistics. The trailing shard list (earlier
/// builds wrote one shard per examine batch) holds one shard carrying
/// the totals, so every build reads the entry.
pub fn encode_suite_stats(e: &mut Enc, s: &SuiteStats) {
    e.size(s.programs);
    e.size(s.executions);
    e.size(s.forbidden);
    e.size(s.minimal);
    e.varint(s.elapsed.as_secs());
    e.u32(s.elapsed.subsec_nanos());
    e.boolean(s.timed_out);
    e.size(1);
    encode_shard_stats(e, &s.totals());
}

/// Decodes a suite's statistics from a shard list of any length,
/// summing the shards' plan items.
pub fn decode_suite_stats(d: &mut Dec<'_>) -> Result<SuiteStats, CodecError> {
    let programs = d.size()?;
    let executions = d.size()?;
    let forbidden = d.size()?;
    let minimal = d.size()?;
    let secs = d.varint()?;
    let nanos = d.u32()?;
    if nanos >= 1_000_000_000 {
        return Err(CodecError::new("subsecond nanos out of range"));
    }
    let timed_out = d.boolean()?;
    let mut items = 0usize;
    for _ in 0..d.varint()? {
        items = items
            .checked_add(decode_shard_stats(d)?.items)
            .ok_or_else(|| CodecError::new("shard plan items overflow"))?;
    }
    Ok(SuiteStats {
        programs,
        items,
        executions,
        forbidden,
        minimal,
        elapsed: Duration::new(secs, nanos),
        timed_out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use transform_core::figures;

    #[test]
    fn varints_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut e = Enc::new();
        for &v in &values {
            e.varint(v);
        }
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        for &v in &values {
            assert_eq!(d.varint().expect("decodes"), v);
        }
        assert!(d.at_end());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [0xff; 11];
        assert!(Dec::new(&bytes).varint().is_err());
    }

    #[test]
    fn figure_executions_round_trip_exactly() {
        for (name, x, _) in figures::all_figures() {
            let mut e = Enc::new();
            encode_execution(&mut e, &x);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            let decoded = decode_execution(&mut d).unwrap_or_else(|err| panic!("{name}: {err}"));
            assert!(d.at_end(), "{name}: trailing bytes");
            assert_eq!(decoded, x, "{name}");
        }
    }

    #[test]
    fn records_round_trip_with_program_and_violations() {
        let x = figures::fig10a_ptwalk2();
        let record = SuiteRecord {
            index: 42,
            elt: SynthesizedElt {
                program: Program::from_execution(&x),
                witness: x,
                violated: vec!["invlpg".into(), "tlb_causality".into()],
            },
        };
        let bytes = encode_record(&record);
        assert_eq!(decode_record(&bytes).expect("decodes"), record);
    }

    #[test]
    fn stats_round_trip() {
        let stats = SuiteStats {
            programs: 1234,
            items: 17,
            executions: 98765,
            forbidden: 432,
            minimal: 87,
            elapsed: Duration::new(3, 141_592_653),
            timed_out: false,
        };
        let mut e = Enc::new();
        encode_suite_stats(&mut e, &stats);
        let bytes = e.into_bytes();
        // The layout earlier builds decode: a shard count of 1, then the
        // one shard `(0, items, executions, forbidden, minimal)`.
        let mut tail = Enc::new();
        tail.size(1);
        for v in [0, 17, 98765, 432, 87] {
            tail.size(v);
        }
        assert!(bytes.ends_with(&tail.into_bytes()));
        let mut d = Dec::new(&bytes);
        let decoded = decode_suite_stats(&mut d).expect("decodes");
        assert!(d.at_end());
        assert_eq!(decoded.programs, stats.programs);
        assert_eq!(decoded.items, stats.items);
        assert_eq!(decoded.executions, stats.executions);
        assert_eq!(decoded.forbidden, stats.forbidden);
        assert_eq!(decoded.minimal, stats.minimal);
        assert_eq!(decoded.elapsed, stats.elapsed);
        // Earlier builds' per-batch shard lists decode to the sum of
        // their plan items; a sum that overflows is corrupt.
        let with_items = |items: &[usize]| {
            let mut e = Enc::new();
            encode_suite_stats(&mut e, &SuiteStats::default());
            let mut bytes = e.into_bytes();
            bytes.truncate(bytes.len() - 6); // the count and its one shard
            let mut e = Enc::new();
            e.raw(&bytes);
            e.size(items.len());
            for &items in items {
                let shard = ShardStats {
                    items,
                    ..ShardStats::default()
                };
                encode_shard_stats(&mut e, &shard);
            }
            decode_suite_stats(&mut Dec::new(&e.into_bytes())).map(|s| s.items)
        };
        assert_eq!(with_items(&[3, 0, 4]), Ok(7));
        assert_eq!(with_items(&[]), Ok(0));
        assert!(with_items(&[usize::MAX, 1]).is_err());
    }

    #[test]
    fn truncated_records_error_instead_of_panicking() {
        let x = figures::fig10a_ptwalk2();
        let record = SuiteRecord {
            index: 0,
            elt: SynthesizedElt {
                program: Program::from_execution(&x),
                witness: x,
                violated: vec!["invlpg".into()],
            },
        };
        let bytes = encode_record(&record);
        for cut in 0..bytes.len() {
            assert!(
                decode_record(&bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
