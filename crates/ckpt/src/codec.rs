//! Binary encode/decode of `ckpt_v2`.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic  89 4E 47 43 4B 50 54 0A  ("\x89NGCKPT\n")
//!      8     4  schema version (this module writes and reads 2)
//!     12     8  payload length in bytes (must equal file length - 24)
//!     20     4  CRC-32 (IEEE) of the payload bytes
//!     24     …  payload:
//!                 u64  config hash (recomputed and compared on load)
//!                 u64  seed
//!                 u64  sweep budget at capture time
//!                 u64  completed sweeps (the RNG stream position)
//!                 u64  vertex count
//!                 u8   flags: bit0 = track_violations,
//!                             bit1 = retired (the ever-swapped threshold
//!                               stop rule; a file with it set is refused),
//!                             bit2 = stop rule is Converged,
//!                             bit3 = track_diagnostics
//!                 u64  stop-rule parameter: `(min_ess << 32) | window`
//!                      under Converged, 0 for FixedSweeps
//!                 u64  m = edge count
//!                 m×u64    edge keys, in current slot order
//!                 ⌈m/8⌉×u8 ever-swapped flags, bit i of byte i/8,
//!                          padding bits zero
//!                 u64  iteration count (must equal completed sweeps)
//!                 per iteration: u64 attempted pairs, u64 successful
//!                 swaps, u64 ever-swapped-fraction bits (f64), u64 self
//!                 loops, u64 multi-edge extras, u64 degree-product-sum
//!                 bits (f64), u64 wedge-sketch bits (f64)
//!                 11×u64 accumulated swap metrics counters (sweeps,
//!                 proposals, accepts, rejects by 5 causes, grow retries,
//!                 serial fallbacks, fault events)
//! ```
//!
//! The magic's `0x89` first byte (borrowed from PNG's design) makes the
//! file detectably binary; the trailing `\n` catches text-mode newline
//! mangling. Every field the decoder touches is bounds-checked, every
//! failure is a typed [`GenError::CorruptCheckpoint`] carrying the byte
//! offset of the first invalid field — never a panic, never a
//! silently-wrong graph. Forward compatibility is strict: a file whose
//! version is not exactly 2 is rejected (a future writer that *extends*
//! the payload must bump the version, because older readers reject
//! trailing bytes). Version 2 widened the iteration records by the two
//! convergence observables and added the converged stop rule; version-1
//! files are rejected, not migrated (checkpoints are short-lived run
//! state, not archives).

use crate::crc32::crc32;
use crate::{Snapshot, SwapCounters};
use fault::GenError;
use graphcore::Edge;
use swap::{IterationStats, MixState, StopRule};

/// First eight bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"\x89NGCKPT\n";
/// Schema version this build writes and accepts.
pub const VERSION: u32 = 2;
/// Bytes before the payload: magic + version + payload length + CRC.
pub const HEADER_LEN: usize = 24;

const FLAG_TRACK_VIOLATIONS: u8 = 1 << 0;
/// Marked a run under the retired ever-swapped threshold stop rule.
const FLAG_RETIRED_THRESHOLD_RULE: u8 = 1 << 1;
const FLAG_CONVERGED_RULE: u8 = 1 << 2;
const FLAG_TRACK_DIAGNOSTICS: u8 = 1 << 3;
const ALL_FLAGS: u8 = FLAG_TRACK_VIOLATIONS | FLAG_CONVERGED_RULE | FLAG_TRACK_DIAGNOSTICS;
const COUNTER_FIELDS: usize = 11;
/// u64 fields per iteration record (see the layout above).
const ITER_FIELDS: usize = 7;

/// Serialize a snapshot to the `ckpt_v2` wire form.
pub fn encode(snap: &Snapshot) -> Vec<u8> {
    let st = &snap.state;
    let m = st.edges.len();
    let mut payload =
        Vec::with_capacity(8 * (8 + m + ITER_FIELDS * st.iterations.len() + COUNTER_FIELDS));
    payload.extend_from_slice(&st.config_hash().to_le_bytes());
    payload.extend_from_slice(&st.seed.to_le_bytes());
    payload.extend_from_slice(&st.sweep_budget.to_le_bytes());
    payload.extend_from_slice(&st.completed_sweeps.to_le_bytes());
    payload.extend_from_slice(&(st.num_vertices as u64).to_le_bytes());
    let (mut flags, rule_param) = match st.stop {
        StopRule::FixedSweeps => (0u8, 0u64),
        StopRule::Converged { min_ess, window } => (
            FLAG_CONVERGED_RULE,
            (u64::from(min_ess) << 32) | u64::from(window),
        ),
    };
    if st.track_violations {
        flags |= FLAG_TRACK_VIOLATIONS;
    }
    if st.track_diagnostics {
        flags |= FLAG_TRACK_DIAGNOSTICS;
    }
    payload.push(flags);
    payload.extend_from_slice(&rule_param.to_le_bytes());
    payload.extend_from_slice(&(m as u64).to_le_bytes());
    for e in &st.edges {
        payload.extend_from_slice(&e.key().to_le_bytes());
    }
    let mut bitset = vec![0u8; m.div_ceil(8)];
    for (i, &f) in st.swapped.iter().enumerate() {
        if f {
            bitset[i / 8] |= 1 << (i % 8);
        }
    }
    payload.extend_from_slice(&bitset);
    payload.extend_from_slice(&(st.iterations.len() as u64).to_le_bytes());
    for it in &st.iterations {
        payload.extend_from_slice(&it.attempted_pairs.to_le_bytes());
        payload.extend_from_slice(&it.successful_swaps.to_le_bytes());
        payload.extend_from_slice(&it.ever_swapped_fraction.to_bits().to_le_bytes());
        payload.extend_from_slice(&it.self_loops.to_le_bytes());
        payload.extend_from_slice(&it.multi_edges.to_le_bytes());
        payload.extend_from_slice(&it.deg_product_sum.to_bits().to_le_bytes());
        payload.extend_from_slice(&it.wedge_sketch.to_bits().to_le_bytes());
    }
    for c in snap.counters.as_array() {
        payload.extend_from_slice(&c.to_le_bytes());
    }

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Bounds-checked payload reader whose errors carry the *file* offset (the
/// header's 24 bytes included) of the field that failed.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    path: &'a str,
}

impl<'a> Cursor<'a> {
    fn file_offset(&self) -> u64 {
        (HEADER_LEN + self.pos) as u64
    }

    fn fail(&self, reason: impl Into<String>) -> GenError {
        GenError::corrupt_checkpoint(self.path, self.file_offset(), reason)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], GenError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.fail(format!(
                "truncated payload: {what} needs {n} bytes, {} remain",
                self.buf.len() - self.pos
            ))),
        }
    }

    fn u8(&mut self, what: &str) -> Result<u8, GenError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &str) -> Result<u64, GenError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64_unit(&mut self, what: &str) -> Result<f64, GenError> {
        let at = self.file_offset();
        let v = f64::from_bits(self.u64(what)?);
        if v.is_finite() && (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(GenError::corrupt_checkpoint(
                self.path,
                at,
                format!("{what} {v} outside [0, 1]"),
            ))
        }
    }

    /// An f64 field with no range constraint beyond finiteness (the
    /// convergence observables are unbounded wrapping-integer readouts).
    fn f64_finite(&mut self, what: &str) -> Result<f64, GenError> {
        let at = self.file_offset();
        let v = f64::from_bits(self.u64(what)?);
        if v.is_finite() {
            Ok(v)
        } else {
            Err(GenError::corrupt_checkpoint(
                self.path,
                at,
                format!("{what} is not finite"),
            ))
        }
    }
}

/// Parse and fully validate a `ckpt_v2` byte buffer. `path` is used only
/// for diagnostics (pass `""` for in-memory buffers).
pub fn decode(bytes: &[u8], path: &str) -> Result<Snapshot, GenError> {
    let fail = |offset: u64, reason: String| GenError::corrupt_checkpoint(path, offset, reason);
    if bytes.len() < HEADER_LEN {
        return Err(fail(
            bytes.len() as u64,
            format!(
                "truncated header: {} bytes, a checkpoint needs at least {HEADER_LEN}",
                bytes.len()
            ),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(fail(0, "bad magic: not a ckpt_v2 checkpoint file".into()));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(fail(
            8,
            format!("unsupported schema version {version}: this build reads version {VERSION}"),
        ));
    }
    let mut len8 = [0u8; 8];
    len8.copy_from_slice(&bytes[12..20]);
    let payload_len = u64::from_le_bytes(len8);
    let actual = (bytes.len() - HEADER_LEN) as u64;
    if payload_len != actual {
        return Err(fail(
            12,
            format!(
                "payload length mismatch: header claims {payload_len} bytes, file holds {actual}"
            ),
        ));
    }
    let stored_crc = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let payload = &bytes[HEADER_LEN..];
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(fail(
            20,
            format!("checksum mismatch: stored {stored_crc:#010x}, computed {computed:#010x}"),
        ));
    }

    let mut cur = Cursor {
        buf: payload,
        pos: 0,
        path,
    };
    let stored_hash = cur.u64("config hash")?;
    let seed = cur.u64("seed")?;
    let sweep_budget = cur.u64("sweep budget")?;
    let completed_sweeps = cur.u64("completed sweep count")?;
    let num_vertices_at = cur.file_offset();
    let num_vertices = cur.u64("vertex count")?;
    let num_vertices = usize::try_from(num_vertices).map_err(|_| {
        fail(
            num_vertices_at,
            format!("vertex count {num_vertices} overflows"),
        )
    })?;
    let flags_at = cur.file_offset();
    let flags = cur.u8("flags")?;
    if flags & FLAG_RETIRED_THRESHOLD_RULE != 0 {
        return Err(fail(
            flags_at,
            "the run uses the retired ever-swapped threshold stop rule, which this build \
             no longer resumes"
                .into(),
        ));
    }
    if flags & !ALL_FLAGS != 0 {
        return Err(fail(flags_at, format!("unknown flag bits {flags:#04x}")));
    }
    let track_violations = flags & FLAG_TRACK_VIOLATIONS != 0;
    let track_diagnostics = flags & FLAG_TRACK_DIAGNOSTICS != 0;
    let stop = if flags & FLAG_CONVERGED_RULE != 0 {
        // Parameter sanity (min_ess ≥ 1, window ≥ 2, …) is enforced by the
        // decoded state's validate() below.
        let param = cur.u64("converged rule parameters")?;
        StopRule::Converged {
            min_ess: (param >> 32) as u32,
            window: param as u32,
        }
    } else {
        let bits_at = cur.file_offset();
        if cur.u64("stop-rule parameter")? != 0 {
            return Err(fail(
                bits_at,
                "nonzero stop-rule parameter under the fixed-sweeps stop rule".into(),
            ));
        }
        StopRule::FixedSweeps
    };
    let m_at = cur.file_offset();
    let m64 = cur.u64("edge count")?;
    let m = usize::try_from(m64)
        .ok()
        .filter(|&m| {
            m.checked_mul(8)
                .is_some_and(|b| b <= cur.buf.len() - cur.pos)
        })
        .ok_or_else(|| {
            fail(
                m_at,
                format!("edge count {m64} exceeds the payload's capacity"),
            )
        })?;
    let mut edges = Vec::with_capacity(m);
    for i in 0..m {
        let at = cur.file_offset();
        let key = cur.u64("edge key")?;
        let e = Edge::from_key(key);
        if e.u() > e.v() || e.v() == u32::MAX {
            return Err(fail(at, format!("edge {i} has invalid key {key:#018x}")));
        }
        if e.v() as usize >= num_vertices {
            return Err(fail(
                at,
                format!(
                    "edge {i} endpoint {} exceeds the vertex count {num_vertices}",
                    e.v()
                ),
            ));
        }
        edges.push(e);
    }
    let bitset_at = cur.file_offset();
    let bitset = cur.take(m.div_ceil(8), "swap flag bitset")?;
    if m % 8 != 0 && bitset[m / 8] >> (m % 8) != 0 {
        return Err(fail(
            bitset_at + (m / 8) as u64,
            "nonzero padding bits in the swap flag bitset".into(),
        ));
    }
    let swapped: Vec<bool> = (0..m).map(|i| bitset[i / 8] >> (i % 8) & 1 == 1).collect();
    let n_iter_at = cur.file_offset();
    let n_iter64 = cur.u64("iteration count")?;
    if n_iter64 != completed_sweeps {
        return Err(fail(
            n_iter_at,
            format!(
                "iteration count {n_iter64} disagrees with the completed sweep count \
                 {completed_sweeps}"
            ),
        ));
    }
    let n_iter = usize::try_from(n_iter64)
        .ok()
        .filter(|&n| {
            n.checked_mul(8 * ITER_FIELDS)
                .is_some_and(|b| b <= cur.buf.len() - cur.pos)
        })
        .ok_or_else(|| {
            fail(
                n_iter_at,
                format!("iteration count {n_iter64} exceeds the payload's capacity"),
            )
        })?;
    let mut iterations = Vec::with_capacity(n_iter);
    for _ in 0..n_iter {
        iterations.push(IterationStats {
            attempted_pairs: cur.u64("attempted pairs")?,
            successful_swaps: cur.u64("successful swaps")?,
            ever_swapped_fraction: cur.f64_unit("ever-swapped fraction")?,
            self_loops: cur.u64("self loop count")?,
            multi_edges: cur.u64("multi-edge count")?,
            deg_product_sum: cur.f64_finite("degree-product sum")?,
            wedge_sketch: cur.f64_finite("wedge sketch")?,
        });
    }
    let mut counters = [0u64; COUNTER_FIELDS];
    for c in counters.iter_mut() {
        *c = cur.u64("metrics counter")?;
    }
    if cur.pos != cur.buf.len() {
        return Err(cur.fail(format!(
            "{} trailing bytes after the payload",
            cur.buf.len() - cur.pos
        )));
    }

    let state = MixState {
        num_vertices,
        edges,
        swapped,
        completed_sweeps,
        seed,
        sweep_budget,
        stop,
        track_violations,
        track_diagnostics,
        iterations,
    };
    // Semantic tamper check: the stored hash must match the hash of the
    // configuration actually decoded.
    let computed_hash = state.config_hash();
    if stored_hash != computed_hash {
        return Err(fail(
            HEADER_LEN as u64,
            format!(
                "config hash mismatch: stored {stored_hash:#018x}, configuration hashes to \
                 {computed_hash:#018x}"
            ),
        ));
    }
    state
        .validate()
        .map_err(|e| fail(HEADER_LEN as u64, e.to_string()))?;
    Ok(Snapshot {
        state,
        counters: SwapCounters::from_array(counters),
    })
}
