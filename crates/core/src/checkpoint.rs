//! Checkpoint/restore for long-horizon runs: schema-versioned snapshots
//! of the full simulation state.
//!
//! A checkpoint captures everything a run needs to continue exactly
//! where it stopped: the network (per-flit buffer occupancy, credits,
//! in-flight rate changes), every policy controller and laser governor,
//! the per-link RNG fault streams, the traffic source's RNG and cursors,
//! energy accounts, measurement statistics, telemetry retention state,
//! and the calendar's pending events. Resuming from a checkpoint is
//! **bit-identical** to never having stopped: replay counters match,
//! every `f64` matches by `.to_bits()`, and exported traces match
//! byte-for-byte. `CHECKPOINTS.md` specifies the format field by field
//! and the determinism contract; `tests/tests/checkpoint.rs` enforces it
//! with split-vs-unbroken differentials.
//!
//! The on-disk format is a small self-describing binary encoding of the
//! vendored [`serde::Value`] data model (JSON is unsuitable: checkpoint
//! state legitimately contains non-finite floats, e.g. `Summary::min`
//! of an empty summary, and floats must round-trip bit-exactly). Every
//! file starts with an 8-byte magic and a version word, so stale or
//! foreign files are rejected with a typed [`CheckpointError`] instead
//! of garbage state.
//!
//! One byte writer and one byte reader implement the codec, as a serde
//! token [`Sink`] and [`Source`]. [`crate::Experiment::save_at`] streams
//! engine state straight through the writer into the file, and
//! [`crate::Experiment::resume`] streams the file straight back into a
//! freshly built engine, so neither builds a [`Value`] tree of the sim.
//! [`Checkpoint`] is the inspection view: the same stream with the
//! `sim` and `source` sections held as trees.

use crate::config::SystemConfig;
use crate::sim::SimEvent;
use lumen_desim::Picos;
use serde::{Deserialize, Serialize, Sink, Source, Token, Value};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Checkpoint schema identifier, stored inside the file body. Bump the
/// trailing number when a field is added, removed, or changes meaning
/// (see `CHECKPOINTS.md` for the compatibility policy).
pub const CKPT_SCHEMA: &str = "lumen-ckpt/6";

/// File magic: identifies a lumen checkpoint before any decoding.
const MAGIC: &[u8; 8] = b"LUMENCK\n";

/// Container format version (the binary Value encoding), independent of
/// the logical [`CKPT_SCHEMA`].
const CONTAINER_VERSION: u32 = 1;

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — it is not a
    /// lumen checkpoint at all.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ended before the encoded tree was complete.
    Truncated,
    /// The byte stream decoded to something structurally invalid (an
    /// unknown tag, a non-UTF-8 string, an over-long length).
    Corrupt(String),
    /// The byte stream was well-formed but does not fit the checkpoint
    /// schema (a missing or out-of-order field, a wrong type or enum
    /// variant) or the resuming run (a per-link count, the fault plan's
    /// or telemetry's presence, the telemetry retention).
    Decode(serde::Error),
    /// The checkpoint is valid but belongs to a different experiment
    /// (configuration, topology, or horizon mismatch).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a lumen checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint container version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Decode(e) => write!(f, "checkpoint does not fit this run: {e}"),
            CheckpointError::Mismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::UnexpectedEof => CheckpointError::Truncated,
            _ => CheckpointError::Io(e),
        }
    }
}

/// A complete, resumable snapshot of an [`crate::Experiment`] run, as
/// an inspection view: the `sim` and `source` sections are [`Value`]
/// trees.
///
/// Checkpoints are written by [`crate::Experiment::save_at`] and read by
/// [`crate::Experiment::resume`]; the bench CLI exposes them as
/// `--checkpoint PATH@CYCLE` and `--resume PATH`. Those paths stream
/// engine state without this view; it exists to look inside a file and
/// to re-encode it, byte for byte. "Saved at cycle `c`" means the state
/// *after* processing core tick `c` and every event at time ≤ `c` router
/// cycles — including the already-scheduled tick `c + 1`, which rides
/// along in [`Checkpoint::pending`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The complete system configuration of the saved run. Resume
    /// validates it against the resuming experiment's configuration —
    /// a checkpoint only continues the run it came from.
    pub config: SystemConfig,
    /// Warmup horizon of the saved run, cycles.
    pub warmup_cycles: u64,
    /// Measurement horizon of the saved run, cycles.
    pub measure_cycles: u64,
    /// Time-series sampling period of the saved run.
    pub sample_every: Option<u64>,
    /// Core cycle the snapshot was taken at.
    pub cycle: u64,
    /// Events processed by the engine up to the snapshot. The resumed
    /// run's final event count is this plus its own processed events.
    pub events: u64,
    /// The calendar: every event still pending at the snapshot, in the
    /// engine's deterministic `(time, insertion-sequence)` drain order.
    pub pending: Vec<(Picos, SimEvent)>,
    /// The sim's mutable state ([`crate::PowerAwareSim`] internals), as
    /// a schema tree.
    pub sim: Value,
    /// The traffic source's mutable state (RNG, cursors, per-node
    /// generators), as a schema tree.
    pub source: Value,
}

impl Checkpoint {
    /// The writer's layout of this view.
    fn snapshot(&self) -> Snapshot<'_, Value> {
        Snapshot {
            head: Head {
                config: self.config.clone(),
                warmup_cycles: self.warmup_cycles,
                measure_cycles: self.measure_cycles,
                sample_every: self.sample_every,
                cycle: self.cycle,
                events: self.events,
            },
            pending: &self.pending,
            sim: &self.sim,
            source: &self.source,
        }
    }

    /// Encodes the checkpoint as the versioned binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_bytes(&self.snapshot())
    }

    /// Decodes a checkpoint from the versioned binary container,
    /// rejecting foreign, truncated, or corrupted input with a typed
    /// error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        Self::read(Reader::from_slice(bytes)?)
    }

    /// Writes the binary container to `path` atomically (via a sibling
    /// temp file + rename), so a crash mid-save never leaves a torn
    /// checkpoint where a valid one is expected.
    pub fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        self.snapshot().write_to(path)
    }

    /// Reads and decodes a checkpoint file.
    pub fn read_from(path: &Path) -> Result<Self, CheckpointError> {
        Self::read(Reader::open(path)?)
    }

    fn read<R: BufRead>(mut reader: Reader<R>) -> Result<Self, CheckpointError> {
        let head = reader.head()?;
        let pending = reader.section("pending", Vec::deserialize)?;
        let sim = reader.section("sim", Value::deserialize)?;
        let source = reader.section("source", Value::deserialize)?;
        reader.finish()?;
        Ok(Checkpoint {
            config: head.config,
            warmup_cycles: head.warmup_cycles,
            measure_cycles: head.measure_cycles,
            sample_every: head.sample_every,
            cycle: head.cycle,
            events: head.events,
            pending,
            sim,
            source,
        })
    }
}

/// The schema tree of the view (the logical format `CHECKPOINTS.md`
/// documents), through [`Serialize::serialize_value`].
impl Serialize for Checkpoint {
    fn serialize<S: Sink>(&self, out: &mut S) {
        self.snapshot().serialize(out)
    }
}

/// A checkpoint's header fields, everything before `pending`: what a
/// resume checks before it builds an engine.
pub(crate) struct Head {
    pub config: SystemConfig,
    pub warmup_cycles: u64,
    pub measure_cycles: u64,
    pub sample_every: Option<u64>,
    pub cycle: u64,
    pub events: u64,
}

/// One checkpoint in file order, as the writer streams it. The `sim`
/// section is generic: the engine path streams [`crate::PowerAwareSim`]
/// itself, the [`Checkpoint`] view its tree.
pub(crate) struct Snapshot<'a, Sim: ?Sized> {
    pub head: Head,
    pub pending: &'a [(Picos, SimEvent)],
    pub sim: &'a Sim,
    pub source: &'a Value,
}

impl<Sim: Serialize + ?Sized> Serialize for Snapshot<'_, Sim> {
    fn serialize<S: Sink>(&self, out: &mut S) {
        let head = &self.head;
        out.token(Token::Map(10));
        out.field("schema", CKPT_SCHEMA);
        out.field("config", &head.config);
        out.field("warmup_cycles", &head.warmup_cycles);
        out.field("measure_cycles", &head.measure_cycles);
        out.field("sample_every", &head.sample_every);
        out.field("cycle", &head.cycle);
        out.field("events", &head.events);
        out.field("pending", self.pending);
        out.field("sim", self.sim);
        out.field("source", self.source);
    }
}

impl<Sim: Serialize + ?Sized> Snapshot<'_, Sim> {
    /// Streams the container to `path` atomically: through a buffered
    /// writer into a sibling temp file, which is synced to disk and then
    /// renamed over `path`.
    pub(crate) fn write_to(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("ckpt-partial");
        let mut writer = Writer::new(BufWriter::with_capacity(BUFFER, File::create(&tmp)?));
        self.serialize(&mut writer);
        let file = writer.finish()?.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

/// The binary container of `value`, in memory.
pub(crate) fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut writer = Writer::new(Vec::new());
    value.serialize(&mut writer);
    writer.finish().expect("writing to memory cannot fail")
}

// --- the binary codec ------------------------------------------------------
//
// Tag byte then payload; lengths and integers are fixed-width u64 LE so
// the format needs no varint machinery. Floats are stored as raw IEEE
// bits (`to_bits`), which round-trips every value including NaN and the
// infinities `serde_json` rejects. A map entry is its key (u64 LE
// length, UTF-8 bytes) followed by its value.

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_U64: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_F64: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_SEQ: u8 = 6;
const TAG_MAP: u8 = 7;

/// Nesting bound for the decoder: real checkpoints nest a handful of
/// levels; anything deeper is corrupt input trying to blow the stack.
const MAX_DEPTH: usize = 64;

/// I/O buffer size for checkpoint files.
const BUFFER: usize = 1 << 16;

/// The one byte writer: the container header, then tokens in the binary
/// codec, into any [`Write`]. The first I/O error sticks; later tokens
/// are dropped and [`Writer::finish`] returns it.
struct Writer<W: Write> {
    out: W,
    error: Option<std::io::Error>,
}

impl<W: Write> Writer<W> {
    /// Starts a container on `out`: the magic and the version word.
    fn new(out: W) -> Self {
        let mut writer = Writer { out, error: None };
        writer.put(MAGIC);
        writer.put(&CONTAINER_VERSION.to_le_bytes());
        writer
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.error.is_none() {
            self.error = self.out.write_all(bytes).err();
        }
    }

    /// A tag byte and its 8-byte little-endian payload.
    fn word(&mut self, tag: u8, word: u64) {
        let mut buf = [tag; 9];
        buf[1..].copy_from_slice(&word.to_le_bytes());
        self.put(&buf);
    }

    /// A length-prefixed string.
    fn text(&mut self, s: &str) {
        self.put(&(s.len() as u64).to_le_bytes());
        self.put(s.as_bytes());
    }

    /// Flushes, returning the output or the first I/O error.
    fn finish(mut self) -> Result<W, CheckpointError> {
        match self.error.take() {
            Some(e) => Err(e.into()),
            None => {
                self.out.flush()?;
                Ok(self.out)
            }
        }
    }
}

impl<W: Write> Sink for Writer<W> {
    fn token(&mut self, token: Token<'_>) {
        match token {
            Token::Null => self.put(&[TAG_NULL]),
            Token::Bool(b) => self.put(&[TAG_BOOL, u8::from(b)]),
            Token::U64(n) => self.word(TAG_U64, n),
            Token::I64(n) => self.word(TAG_I64, n as u64),
            Token::F64(x) => self.word(TAG_F64, x.to_bits()),
            Token::Str(s) => {
                self.put(&[TAG_STR]);
                self.text(s);
            }
            Token::Seq(len) => self.word(TAG_SEQ, len as u64),
            Token::Map(len) => self.word(TAG_MAP, len as u64),
        }
    }

    fn key(&mut self, key: &str) {
        self.text(key);
    }
}

/// The one byte reader: checks the container header, then decodes the
/// binary codec from any [`BufRead`] as a token [`Source`]. It is
/// defensive: every length word is checked against the bytes actually
/// remaining (a corrupted length errors instead of attempting a huge
/// allocation), nesting is capped at [`MAX_DEPTH`], a non-UTF-8 string or
/// an unknown tag is corrupt, and [`Reader::finish`] rejects trailing
/// bytes.
pub(crate) struct Reader<R: BufRead> {
    input: R,
    /// Bytes not yet read.
    left: u64,
    /// Entries still to come in each open container, innermost last.
    open: Vec<usize>,
    /// The last string read.
    text: Vec<u8>,
    /// The codec failure behind the last error, if any: the [`Source`]
    /// interface carries a plain [`serde::Error`], and
    /// [`Reader::read`] restores the typed one.
    fault: Option<CheckpointError>,
}

impl Reader<BufReader<File>> {
    /// Opens a checkpoint file and checks its header.
    pub(crate) fn open(path: &Path) -> Result<Self, CheckpointError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Reader::new(BufReader::with_capacity(BUFFER, file), len)
    }
}

impl<'a> Reader<&'a [u8]> {
    /// Reads a checkpoint held in memory, after checking its header.
    pub(crate) fn from_slice(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        Reader::new(bytes, bytes.len() as u64)
    }
}

impl<R: BufRead> Reader<R> {
    /// Checks the magic and the version word of an input `len` bytes
    /// long.
    fn new(mut input: R, len: u64) -> Result<Self, CheckpointError> {
        let mut header = [0u8; 12];
        let header = &mut header[..len.min(12) as usize];
        input.read_exact(header)?;
        if header.len() < 12 {
            return Err(if header.starts_with(&MAGIC[..header.len().min(8)]) {
                CheckpointError::Truncated
            } else {
                CheckpointError::BadMagic
            });
        }
        if &header[..8] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..].try_into().expect("4 bytes"));
        if version != CONTAINER_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        Ok(Reader {
            input,
            left: len - 12,
            open: Vec::new(),
            text: Vec::new(),
            fault: None,
        })
    }

    /// Runs one streaming read, turning its error into the typed cause:
    /// the codec failure if there was one, else a schema mismatch.
    pub(crate) fn read<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, serde::Error>,
    ) -> Result<T, CheckpointError> {
        let result = read(self);
        result.map_err(|e| self.fault.take().unwrap_or(CheckpointError::Decode(e)))
    }

    /// Reads the root map's head and the header fields. The schema id
    /// is checked before anything else: a different id is a
    /// [`CheckpointError::Mismatch`] whatever follows it.
    pub(crate) fn head(&mut self) -> Result<Head, CheckpointError> {
        const TY: &str = "Checkpoint";
        let fields = self.read(|src| match src.token()? {
            Token::Map(n) => Ok(n),
            _ => Err(serde::Error::expected("map", TY)),
        })?;
        let schema: String = self.read(|src| src.field("schema", TY))?;
        if schema != CKPT_SCHEMA {
            return Err(CheckpointError::Mismatch(format!(
                "checkpoint schema {schema:?}, this build reads {CKPT_SCHEMA:?}"
            )));
        }
        if fields != 10 {
            return Err(CheckpointError::Decode(serde::Error::custom(format!(
                "expected 10 fields for {TY}, got {fields}"
            ))));
        }
        self.read(|src| {
            Ok(Head {
                config: src.field("config", TY)?,
                warmup_cycles: src.field("warmup_cycles", TY)?,
                measure_cycles: src.field("measure_cycles", TY)?,
                sample_every: src.field("sample_every", TY)?,
                cycle: src.field("cycle", TY)?,
                events: src.field("events", TY)?,
            })
        })
    }

    /// Reads the next root field, which must be `name`, with `read`.
    pub(crate) fn section<T>(
        &mut self,
        name: &str,
        read: impl FnOnce(&mut Self) -> Result<T, serde::Error>,
    ) -> Result<T, CheckpointError> {
        self.read(|src| {
            src.expect_key(name, "Checkpoint")?;
            read(src)
        })
    }

    /// Checks that nothing follows the root value.
    pub(crate) fn finish(self) -> Result<(), CheckpointError> {
        debug_assert!(self.open.is_empty(), "checkpoint read stopped mid-tree");
        if self.left > 0 {
            return Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes after the checkpoint tree",
                self.left
            )));
        }
        Ok(())
    }

    /// Records a codec failure; returns its stand-in for [`Source`].
    fn fail(&mut self, e: CheckpointError) -> serde::Error {
        let error = serde::Error::custom(e.to_string());
        self.fault = Some(e);
        error
    }

    fn corrupt(&mut self, msg: String) -> serde::Error {
        self.fail(CheckpointError::Corrupt(msg))
    }

    fn fill(&mut self, buf: &mut [u8]) -> Result<(), serde::Error> {
        if buf.len() as u64 > self.left {
            return Err(self.fail(CheckpointError::Truncated));
        }
        if let Err(e) = self.input.read_exact(buf) {
            return Err(self.fail(e.into()));
        }
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn word(&mut self) -> Result<u64, serde::Error> {
        let mut buf = [0u8; 8];
        self.fill(&mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// A length word, which can never exceed the bytes that remain:
    /// checking here turns a corrupted length into an error instead of
    /// an out-of-memory abort.
    fn len(&mut self) -> Result<usize, serde::Error> {
        let len = self.word()?;
        if len > self.left {
            return Err(self.corrupt(format!(
                "length {len} exceeds the {} remaining bytes",
                self.left
            )));
        }
        Ok(len as usize)
    }

    /// A length-prefixed UTF-8 string.
    fn text(&mut self) -> Result<&str, serde::Error> {
        let len = self.len()?;
        let mut text = std::mem::take(&mut self.text);
        text.resize(len, 0);
        let filled = self.fill(&mut text);
        self.text = text;
        filled?;
        if std::str::from_utf8(&self.text).is_err() {
            return Err(self.corrupt("string is not valid UTF-8".to_string()));
        }
        Ok(std::str::from_utf8(&self.text).expect("checked above"))
    }

    /// Counts one finished value against the open containers, closing
    /// every container it completes.
    fn end_value(&mut self) {
        while let Some(left) = self.open.last_mut() {
            *left -= 1;
            if *left > 0 {
                return;
            }
            self.open.pop();
        }
    }
}

impl<R: BufRead> Source for Reader<R> {
    fn token(&mut self) -> Result<Token<'_>, serde::Error> {
        if self.open.len() > MAX_DEPTH {
            return Err(self.corrupt(format!("nesting exceeds the maximum depth of {MAX_DEPTH}")));
        }
        let mut tag = [0u8];
        self.fill(&mut tag)?;
        let token = match tag[0] {
            TAG_NULL => Token::Null,
            TAG_BOOL => {
                let mut b = [0u8];
                self.fill(&mut b)?;
                match b[0] {
                    0 => Token::Bool(false),
                    1 => Token::Bool(true),
                    b => return Err(self.corrupt(format!("bool byte {b:#04x}"))),
                }
            }
            TAG_U64 => Token::U64(self.word()?),
            TAG_I64 => Token::I64(self.word()? as i64),
            TAG_F64 => Token::F64(f64::from_bits(self.word()?)),
            TAG_STR => {
                self.text()?;
                self.end_value();
                return Ok(Token::Str(
                    std::str::from_utf8(&self.text).expect("checked by text()"),
                ));
            }
            TAG_SEQ | TAG_MAP => {
                let len = self.len()?;
                if len > 0 {
                    self.open.push(len);
                } else {
                    self.end_value();
                }
                return Ok(if tag[0] == TAG_SEQ {
                    Token::Seq(len)
                } else {
                    Token::Map(len)
                });
            }
            other => return Err(self.corrupt(format!("unknown value tag {other:#04x}"))),
        };
        self.end_value();
        Ok(token)
    }

    fn key(&mut self) -> Result<&str, serde::Error> {
        self.text()
    }

    fn peek_null(&mut self) -> Result<bool, serde::Error> {
        let next = self.input.fill_buf().map(|buf| buf.first().copied());
        match next {
            Ok(Some(tag)) if self.left > 0 => Ok(tag == TAG_NULL),
            Ok(_) => Err(self.fail(CheckpointError::Truncated)),
            Err(e) => Err(self.fail(e.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            config: SystemConfig::paper_default(),
            warmup_cycles: 20_000,
            measure_cycles: 100_000,
            sample_every: Some(500),
            cycle: 60_000,
            events: 1_234_567,
            pending: vec![
                (Picos::from_ps(96_000_160), SimEvent::CoreTick),
                (Picos::from_ps(96_000_320), SimEvent::LaserDecision),
            ],
            sim: Value::Map(vec![(
                "floats".into(),
                Value::Seq(vec![
                    Value::F64(f64::NEG_INFINITY),
                    Value::F64(f64::NAN),
                    Value::F64(-0.0),
                    Value::F64(0.1 + 0.2),
                ]),
            )]),
            source: Value::Map(vec![("rng".into(), Value::U64(0xDEAD_BEEF))]),
        }
    }

    /// Compares floats by bits (NaN-safe) and everything else by value.
    fn value_bits_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            (Value::Seq(x), Value::Seq(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_bits_eq(a, b))
            }
            (Value::Map(x), Value::Map(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((ka, va), (kb, vb))| ka == kb && value_bits_eq(va, vb))
            }
            _ => a == b,
        }
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.config, ckpt.config);
        assert_eq!(back.cycle, ckpt.cycle);
        assert_eq!(back.events, ckpt.events);
        assert_eq!(back.pending, ckpt.pending);
        assert!(value_bits_eq(&back.sim, &ckpt.sim), "sim tree changed");
        assert!(value_bits_eq(&back.source, &ckpt.source));
        // Determinism of the encoding itself.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"not a checkpoint at all"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn every_truncation_point_rejected_without_panic() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated
                        | CheckpointError::BadMagic
                        | CheckpointError::Corrupt(_)
                ),
                "cut at {cut}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn corrupted_tag_rejected() {
        let mut bytes = sample().to_bytes();
        // The first tag after the 12-byte header is the root map.
        bytes[12] = 0xAB;
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Corrupt(_))
        ));
    }

    #[test]
    fn wrong_schema_string_rejected() {
        // The four previous schemas (`/2`'s time series carried a
        // `retention` entry; `/3`'s network config carried a routing
        // opt-in and every DVS controller its window length; `/4`'s
        // sources queued flits, not packets; `/5`'s links, routers,
        // controllers and fault plan carried copies of the configuration
        // and caches, and its routers a per-port shape), and a future one.
        for schema in [
            "lumen-ckpt/2",
            "lumen-ckpt/3",
            "lumen-ckpt/4",
            "lumen-ckpt/5",
            "lumen-ckpt/999",
        ] {
            let mut v = sample().serialize_value();
            if let Value::Map(entries) = &mut v {
                entries[0].1 = Value::Str(schema.to_string());
            }
            assert!(matches!(
                Checkpoint::from_bytes(&to_bytes(&v)),
                Err(CheckpointError::Mismatch(_))
            ));
        }
        // And a structurally wrong tree is a Decode error.
        let v = Value::Map(vec![("schema".into(), Value::Str(CKPT_SCHEMA.into()))]);
        assert!(matches!(
            Checkpoint::from_bytes(&to_bytes(&v)),
            Err(CheckpointError::Decode(_))
        ));
    }

    #[test]
    fn fields_out_of_declaration_order_rejected() {
        let mut v = sample().serialize_value();
        if let Value::Map(entries) = &mut v {
            entries.swap(3, 4);
        }
        let err = Checkpoint::from_bytes(&to_bytes(&v)).expect_err("out of order");
        assert!(matches!(err, CheckpointError::Decode(_)), "{err}");
        assert!(err.to_string().contains("declaration order"), "{err}");
    }

    #[test]
    fn nesting_beyond_the_cap_rejected() {
        let deep = |levels: usize| {
            let mut v = Value::Null;
            for _ in 0..levels {
                v = Value::Seq(vec![v]);
            }
            let mut ckpt = sample();
            ckpt.sim = v;
            ckpt.to_bytes()
        };
        // The sim tree sits at depth 1; its innermost null at depth 1 + levels.
        Checkpoint::from_bytes(&deep(MAX_DEPTH - 1)).expect("within the cap");
        assert!(matches!(
            Checkpoint::from_bytes(&deep(MAX_DEPTH)),
            Err(CheckpointError::Corrupt(msg)) if msg.contains("depth")
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("lumen-ckpt-test-{}.ckpt", std::process::id()));
        let ckpt = sample();
        ckpt.write_to(&path).expect("write");
        let back = Checkpoint::read_from(&path).expect("read");
        assert_eq!(back.to_bytes(), ckpt.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
