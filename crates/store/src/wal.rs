//! Write-ahead log framing and replay.
//!
//! The WAL is a sequence of **frames**, each carrying one atomic batch of
//! operations:
//!
//! ```text
//! +--------+--------+----------+-----------------+
//! | magic  | len    | crc32    | payload (len B) |
//! | 2 B    | 4 B LE | 4 B LE   |                 |
//! +--------+--------+----------+-----------------+
//! ```
//!
//! Replay stops at the first frame whose header or checksum is invalid *and*
//! after which no complete valid frame exists — that is a torn tail left by
//! a crash and is discarded (its exact byte count is reported), as in any
//! production WAL.  An invalid frame *followed by a later valid frame* is
//! genuine mid-log corruption: skipping it would silently drop committed
//! batches, so replay reports a typed [`StoreError::Corruption`] instead.
//!
//! Replay is **zero-copy** and **visiting**: [`replay_shared`] takes the
//! whole log image as one shared [`Bytes`] buffer, every decoded value is a
//! slice into it (no per-record allocation or copy), and each frame's
//! operations are handed to the caller as soon as its checksum has passed —
//! the log is never held a second time as owned operations, which is what
//! keeps recovery time and peak memory linear in the log size rather than
//! record count.

use crate::crc::crc32;
use crate::error::{StoreError, StoreResult};
use bytes::{BufMut, Bytes};
use std::ops::Range;

/// Frame magic: distinguishes frame starts from arbitrary garbage with high
/// probability and guards against replaying a file that is not a WAL.
pub const MAGIC: [u8; 2] = [0xB1, 0x0A];

/// Header bytes before the payload.
pub const HEADER_LEN: usize = 2 + 4 + 4;

/// Maximum payload accepted on replay; guards against a corrupted length
/// field causing an absurd allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// A single logical operation inside a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Insert or replace `key` in `space` with `value`.
    Put {
        space: u8,
        key: String,
        value: Bytes,
    },
    /// Remove `key` from `space`.
    Delete { space: u8, key: String },
}

impl WalOp {
    /// Borrowed view, for encoding without cloning.
    pub fn as_op_ref(&self) -> WalOpRef<'_> {
        match self {
            WalOp::Put { space, key, value } => WalOpRef::Put {
                space: *space,
                key,
                value,
            },
            WalOp::Delete { space, key } => WalOpRef::Delete { space: *space, key },
        }
    }

    /// `(space, key, value)` with `None` for a delete — the shape every
    /// map of entries-and-tombstones is built from.
    pub(crate) fn into_entry(self) -> (u8, String, Option<Bytes>) {
        match self {
            WalOp::Put { space, key, value } => (space, key, Some(value)),
            WalOp::Delete { space, key } => (space, key, None),
        }
    }
}

/// A borrowed operation: what [`encode_frame_into`] consumes.  Lets a
/// commit encode its owned [`WalOp`]s where they lie, and the run writer
/// encode a memtable entry without cloning it.
#[derive(Debug, Clone, Copy)]
pub enum WalOpRef<'a> {
    /// Insert or replace `key` in `space` with `value`.
    Put {
        space: u8,
        key: &'a str,
        value: &'a [u8],
    },
    /// Remove `key` from `space`.
    Delete { space: u8, key: &'a str },
}

/// Encode one batch of operations as a framed WAL record appended to
/// `out`, in place: the header is reserved, the payload written behind it,
/// then the op count, the length and the checksum patched in.  A caller
/// encoding many frames — a group commit — grows one buffer and copies
/// nothing twice.
pub fn encode_frame_into<'a>(out: &mut Vec<u8>, ops: impl IntoIterator<Item = WalOpRef<'a>>) {
    let frame = begin_frame(out);
    let mut count = 0u32;
    for op in ops {
        encode_op(out, op);
        count += 1;
    }
    end_frame(out, frame, count);
}

/// Open a frame at the end of `out`: the header and the op count are
/// reserved, to be patched by [`end_frame`].  Returns where the frame
/// starts.
pub(crate) fn begin_frame(out: &mut Vec<u8>) -> usize {
    let frame = out.len();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&[0; HEADER_LEN - MAGIC.len() + 4]);
    frame
}

/// Append one operation to the frame being built — the one op encoder,
/// shared by every frame the store writes (WAL, run block) and the
/// legacy snapshot's frames it still reads.
#[inline]
pub(crate) fn encode_op(out: &mut Vec<u8>, op: WalOpRef<'_>) {
    match op {
        WalOpRef::Put { space, key, value } => {
            out.reserve(10 + key.len() + value.len());
            out.put_u8(0);
            out.put_u8(space);
            out.put_u32_le(key.len() as u32);
            out.put_slice(key.as_bytes());
            out.put_u32_le(value.len() as u32);
            out.put_slice(value);
        }
        WalOpRef::Delete { space, key } => {
            out.put_u8(1);
            out.put_u8(space);
            out.put_u32_le(key.len() as u32);
            out.put_slice(key.as_bytes());
        }
    }
}

/// Close the frame [`begin_frame`] opened at `frame`, holding `ops`
/// operations: patch the op count, the payload length and its checksum.
pub(crate) fn end_frame(out: &mut [u8], frame: usize, ops: u32) {
    let payload = frame + HEADER_LEN;
    out[payload..payload + 4].copy_from_slice(&ops.to_le_bytes());
    let len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[frame + 2..frame + 6].copy_from_slice(&len.to_le_bytes());
    out[frame + 6..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Encode one batch of operations into a framed WAL record.
pub fn encode_frame(ops: &[WalOp]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, ops.iter().map(WalOp::as_op_ref));
    frame
}

/// Where one operation lies in the payload it was walked from: ranges,
/// not copies.
#[derive(Debug, Clone)]
pub(crate) struct OpAt {
    pub(crate) space: u8,
    pub(crate) key: Range<usize>,
    /// `None` for a delete.
    pub(crate) value: Option<Range<usize>>,
}

/// The one op parser: a walk over the payload of a frame whose checksum
/// has passed, one operation per [`OpWalk::next`], borrowing from the
/// payload instead of copying out of it.  It makes every check a payload
/// gets — the op count is there, no op header, key or value runs past the
/// end, every key is UTF-8, every tag is known, and no byte trails the
/// last op — each one as the walk reaches it.  The walk keeps positions
/// only, so its owner may hold the payload beside it.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpWalk {
    at: usize,
    left: usize,
}

fn corrupt(m: &str) -> StoreError {
    StoreError::Corruption(m.to_string())
}

impl OpWalk {
    /// Start a walk of `payload`: read its op count.
    pub(crate) fn new(payload: &[u8]) -> StoreResult<OpWalk> {
        match payload {
            [a, b, c, d, ..] => Ok(OpWalk {
                at: 4,
                left: u32::from_le_bytes([*a, *b, *c, *d]) as usize,
            }),
            _ => Err(corrupt("payload shorter than op count")),
        }
    }

    /// Operations the walk has yet to hand out.
    pub(crate) fn ops_left(&self) -> usize {
        self.left
    }

    /// The next operation, with its key as checked text; `Ok(None)` once
    /// the count is reached and nothing trails it.
    #[inline]
    pub(crate) fn next<'p>(&mut self, payload: &'p [u8]) -> StoreResult<Option<(OpAt, &'p str)>> {
        if self.left == 0 {
            if self.at != payload.len() {
                return Err(corrupt("trailing bytes in payload"));
            }
            return Ok(None);
        }
        // Each length is checked against what is left before it is used.
        let u32_at = |at: usize| {
            u32::from_le_bytes([
                payload[at],
                payload[at + 1],
                payload[at + 2],
                payload[at + 3],
            ])
        };
        let left = |at: usize| payload.len() - at;
        let at = self.at;
        if left(at) < 2 {
            return Err(corrupt("truncated op header"));
        }
        let (tag, space) = (payload[at], payload[at + 1]);
        if left(at + 2) < 4 {
            return Err(corrupt("truncated key length"));
        }
        let key_at = at + 6;
        let klen = u32_at(at + 2) as usize;
        if left(key_at) < klen {
            return Err(corrupt("truncated key"));
        }
        let key_end = key_at + klen;
        let key = std::str::from_utf8(&payload[key_at..key_end])
            .map_err(|_| corrupt("key is not utf-8"))?;
        let value = match tag {
            0 => {
                if left(key_end) < 4 {
                    return Err(corrupt("truncated value length"));
                }
                let value_at = key_end + 4;
                let vlen = u32_at(key_end) as usize;
                if left(value_at) < vlen {
                    return Err(corrupt("truncated value"));
                }
                Some(value_at..value_at + vlen)
            }
            1 => None,
            t => return Err(corrupt(&format!("unknown op tag {t}"))),
        };
        self.at = value.as_ref().map_or(key_end, |v| v.end);
        self.left -= 1;
        Ok(Some((
            OpAt {
                space,
                key: key_at..key_end,
                value,
            },
            key,
        )))
    }
}

/// Decode the payload at `log[start..start + len]` into `ops`, replacing
/// what it held: the [`OpWalk`], then each op owned.  Values are zero-copy
/// slices of `log`; keys are copied once into their owned `String` (they
/// become map keys and must own their bytes).
pub(crate) fn decode_payload(
    log: &Bytes,
    start: usize,
    len: usize,
    ops: &mut Vec<WalOp>,
) -> StoreResult<()> {
    let payload = &log.as_slice()[start..start + len];
    let mut walk = OpWalk::new(payload)?;
    ops.clear();
    ops.reserve(walk.ops_left().min(len / 2 + 1));
    while let Some((op, key)) = walk.next(payload)? {
        let key = key.to_string();
        ops.push(match op.value {
            Some(value) => WalOp::Put {
                space: op.space,
                key,
                value: log.slice(start + value.start..start + value.end),
            },
            None => WalOp::Delete {
                space: op.space,
                key,
            },
        });
    }
    Ok(())
}

/// Where a replay ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEnd {
    /// Number of bytes of valid log consumed; any torn tail is past this.
    pub valid_len: usize,
    /// Bytes discarded past `valid_len` (the torn tail's size; 0 when the
    /// whole image replayed).
    pub truncated_bytes: usize,
    /// True when a torn tail was discarded.
    pub torn_tail: bool,
}

/// A replay with every batch collected: the reference the visiting
/// [`replay_shared`] is held to by the tests.  Nothing in the engine
/// materialises a log this way.
#[derive(Debug)]
pub struct Replay {
    /// The decoded batches, in log order.
    pub batches: Vec<Vec<WalOp>>,
    /// Number of bytes of valid log consumed; any torn tail is past this.
    pub valid_len: usize,
    /// Bytes discarded past `valid_len` (the torn tail's size; 0 when the
    /// whole image replayed).
    pub truncated_bytes: usize,
    /// True when a torn tail was discarded.
    pub torn_tail: bool,
}

/// Validate the frame header at the start of `rest`: `(payload_len,
/// consumed)`, or `None` when the header, length or checksum is invalid.
pub(crate) fn parse_frame(rest: &[u8]) -> Option<(usize, usize)> {
    if rest.len() < HEADER_LEN || rest[..2] != MAGIC {
        return None;
    }
    let len = u32::from_le_bytes([rest[2], rest[3], rest[4], rest[5]]);
    let crc = u32::from_le_bytes([rest[6], rest[7], rest[8], rest[9]]);
    if len > MAX_PAYLOAD || rest.len() < HEADER_LEN + len as usize {
        return None;
    }
    let payload = &rest[HEADER_LEN..HEADER_LEN + len as usize];
    (crc32(payload) == crc).then_some((len as usize, HEADER_LEN + len as usize))
}

/// Classify the malformed region at `tail` (the log past the last valid
/// frame): `Ok(())` when it is a torn tail, `Err` when a complete valid
/// frame exists inside it (mid-log corruption).
///
/// The scan is memchr-style — it jumps between occurrences of the magic
/// byte pair instead of re-probing every offset — and the expensive CRC
/// verification of plausible-looking candidates is bounded by a linear
/// byte budget.  A crash-generated torn tail is a byte prefix of one
/// frame and essentially never contains CRC-plausible candidates, so the
/// budget is only ever exhausted by at-rest corruption patterns; in that
/// case we classify as corruption, the conservative direction (refuse to
/// silently drop possibly-committed batches).
fn classify_tail(off: usize, tail: &[u8]) -> StoreResult<()> {
    // CRC work allowed before giving up: a few full-tail passes.
    let mut crc_budget = tail.len().saturating_mul(4).max(64 * 1024);
    let mut probe = 1usize;
    while probe + HEADER_LEN <= tail.len() {
        // Jump to the next occurrence of the first magic byte.
        match tail[probe..].iter().position(|&b| b == MAGIC[0]) {
            Some(d) => probe += d,
            None => break,
        }
        if probe + HEADER_LEN > tail.len() {
            break;
        }
        if tail[probe + 1] != MAGIC[1] {
            probe += 1;
            continue;
        }
        // Plausible header?  Only then is a CRC check worth paying for.
        let len = u32::from_le_bytes([
            tail[probe + 2],
            tail[probe + 3],
            tail[probe + 4],
            tail[probe + 5],
        ]) as usize;
        if len <= MAX_PAYLOAD as usize && probe + HEADER_LEN + len <= tail.len() {
            if crc_budget < len {
                return Err(StoreError::Corruption(format!(
                    "invalid frame at byte {off} followed by {} bytes of \
                     repeated frame-like data: classification budget exhausted, \
                     refusing to drop possibly-committed batches",
                    tail.len()
                )));
            }
            crc_budget -= len;
            if parse_frame(&tail[probe..]).is_some() {
                return Err(StoreError::Corruption(format!(
                    "invalid frame at byte {off} followed by a valid frame at byte {}: \
                     mid-log corruption, refusing to drop committed batches",
                    off + probe
                )));
            }
        }
        probe += 2;
    }
    Ok(())
}

/// Replay a WAL byte image, zero-copy and frame by frame: each frame that
/// passes its checksum is decoded — every value a slice of `log` — and its
/// operations handed to `frame` before the next one is looked at.  The
/// vector is reused from frame to frame: `frame` drains it or takes it.
///
/// A malformed region at the very end of the image is treated as a torn
/// write and discarded, with the number of discarded bytes reported in
/// [`ReplayEnd::truncated_bytes`].  A malformed region *followed by a later
/// valid frame* indicates corruption of the middle of the log and produces
/// a typed [`StoreError::Corruption`], because silently skipping committed
/// batches would break atomicity and durability guarantees.  The frames
/// before it have been handed out by then: a caller that meets an error
/// discards what it built.
pub fn replay_shared<E: From<StoreError>>(
    log: &Bytes,
    mut frame: impl FnMut(&mut Vec<WalOp>) -> Result<(), E>,
) -> Result<ReplayEnd, E> {
    let mut ops = Vec::new();
    let mut off = 0usize;
    let image = log.as_slice();
    while off < image.len() {
        let Some((payload_len, consumed)) = parse_frame(&image[off..]) else {
            // Invalid frame.  If any complete valid frame exists later in
            // the image, this is mid-log corruption, not a torn tail: a
            // crash tears only the *last* write, so committed frames can
            // never follow the tear.
            classify_tail(off, &image[off..])?;
            return Ok(ReplayEnd {
                valid_len: off,
                truncated_bytes: image.len() - off,
                torn_tail: true,
            });
        };
        decode_payload(log, off + HEADER_LEN, payload_len, &mut ops)?;
        frame(&mut ops)?;
        off += consumed;
    }
    Ok(ReplayEnd {
        valid_len: off,
        truncated_bytes: 0,
        torn_tail: false,
    })
}

/// Replay a borrowed WAL byte image into a list of its batches — the
/// collecting form, with a loop of its own over the same frame checks, kept
/// as the tests' reference for [`replay_shared`].
pub fn replay(log: &[u8]) -> StoreResult<Replay> {
    let log = Bytes::copy_from_slice(log);
    let image = log.as_slice();
    let mut batches = Vec::new();
    let mut off = 0usize;
    while off < image.len() {
        match parse_frame(&image[off..]) {
            Some((payload_len, consumed)) => {
                let mut ops = Vec::new();
                decode_payload(&log, off + HEADER_LEN, payload_len, &mut ops)?;
                batches.push(ops);
                off += consumed;
            }
            None => {
                classify_tail(off, &image[off..])?;
                break;
            }
        }
    }
    Ok(Replay {
        batches,
        valid_len: off,
        truncated_bytes: image.len() - off,
        torn_tail: off < image.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Put {
                space: 1,
                key: "inst/1/task/a".into(),
                value: Bytes::from_static(b"{\"state\":\"running\"}"),
            },
            WalOp::Delete {
                space: 3,
                key: "old".into(),
            },
            WalOp::Put {
                space: 0,
                key: "tmpl/allvsall".into(),
                value: Bytes::from_static(b"..."),
            },
        ]
    }

    #[test]
    fn roundtrip_single_frame() {
        let frame = encode_frame(&sample_ops());
        let replay = replay(&frame).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.batches[0], sample_ops());
        assert_eq!(replay.valid_len, frame.len());
    }

    #[test]
    fn roundtrip_many_frames() {
        let mut log = Vec::new();
        for i in 0..50 {
            let ops = vec![WalOp::Put {
                space: (i % 4) as u8,
                key: format!("k{i}"),
                value: Bytes::from(vec![i as u8; i]),
            }];
            log.extend_from_slice(&encode_frame(&ops));
        }
        let replay = replay(&log).unwrap();
        assert_eq!(replay.batches.len(), 50);
        assert!(!replay.torn_tail);
    }

    /// The frame layout, spelled out: the payload first, into a buffer of
    /// its own, then the header over its length and checksum.  Encoding in
    /// place must leave the same bytes.
    fn frame_by_hand(ops: &[WalOp]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(ops.len() as u32).to_le_bytes());
        for op in ops {
            let (tag, space, key, value) = match op {
                WalOp::Put { space, key, value } => (0u8, *space, key, Some(value)),
                WalOp::Delete { space, key } => (1u8, *space, key, None),
            };
            payload.extend_from_slice(&[tag, space]);
            payload.extend_from_slice(&(key.len() as u32).to_le_bytes());
            payload.extend_from_slice(key.as_bytes());
            if let Some(value) = value {
                payload.extend_from_slice(&(value.len() as u32).to_le_bytes());
                payload.extend_from_slice(value);
            }
        }
        let mut frame = MAGIC.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn a_frame_encoded_in_place_is_the_frame_built_by_hand() {
        let ops = sample_ops();
        let oracle = frame_by_hand(&ops);
        assert_eq!(encode_frame(&ops), oracle);
        assert_eq!(encode_frame(&[]), frame_by_hand(&[]));
        // A second frame appends after the first, patched at its own
        // header, whatever the buffer already holds.
        let refs: Vec<WalOpRef<'_>> = ops.iter().map(WalOp::as_op_ref).collect();
        let mut out = b"earlier bytes".to_vec();
        let before = out.len();
        encode_frame_into(&mut out, refs.iter().copied());
        encode_frame_into(&mut out, refs.iter().copied());
        assert_eq!(out.len(), before + 2 * oracle.len());
        assert_eq!(&out[before..before + oracle.len()], oracle.as_slice());
        assert_eq!(&out[before + oracle.len()..], oracle.as_slice());
    }

    #[test]
    fn replay_shared_values_are_zero_copy_slices() {
        let big = vec![0xAB; 4096];
        let frame = encode_frame(&[WalOp::Put {
            space: 2,
            key: "fat".into(),
            value: Bytes::from(big.clone()),
        }]);
        let shared = Bytes::from(frame);
        let base = shared.as_slice().as_ptr() as usize;
        let end = base + shared.len();
        let mut frames = Vec::new();
        let replayed = replay_shared(&shared, |ops| {
            frames.push(std::mem::take(ops));
            Ok::<(), StoreError>(())
        })
        .unwrap();
        assert_eq!(
            (replayed.valid_len, replayed.torn_tail),
            (shared.len(), false)
        );
        let WalOp::Put { value, .. } = &frames[0][0] else {
            panic!("expected put");
        };
        assert_eq!(value.as_slice(), big.as_slice());
        // The decoded value points into the shared log image.
        let vptr = value.as_slice().as_ptr() as usize;
        assert!(
            vptr >= base && vptr + value.len() <= end,
            "value was copied out of the shared buffer"
        );
    }

    #[test]
    fn empty_batch_roundtrip() {
        let frame = encode_frame(&[]);
        let replay = replay(&frame).unwrap();
        assert_eq!(replay.batches, vec![Vec::<WalOp>::new()]);
    }

    #[test]
    fn torn_tail_is_discarded_at_every_cut_point() {
        let mut log = encode_frame(&sample_ops());
        let first_len = log.len();
        log.extend_from_slice(&encode_frame(&[WalOp::Delete {
            space: 2,
            key: "x".into(),
        }]));
        for cut in first_len + 1..log.len() {
            let replay = replay(&log[..cut]).unwrap();
            assert_eq!(replay.batches.len(), 1, "cut at {cut}");
            assert!(replay.torn_tail, "cut at {cut}");
            assert_eq!(replay.valid_len, first_len);
            assert_eq!(replay.truncated_bytes, cut - first_len);
        }
    }

    #[test]
    fn bitflip_in_tail_frame_is_torn_tail() {
        let mut log = encode_frame(&sample_ops());
        let n = log.len();
        log[n - 1] ^= 0x40;
        let replay = replay(&log).unwrap();
        assert_eq!(replay.batches.len(), 0);
        assert!(replay.torn_tail);
        assert_eq!(replay.truncated_bytes, n);
    }

    #[test]
    fn bitflip_mid_log_is_typed_corruption() {
        let mut log = encode_frame(&sample_ops());
        let first_len = log.len();
        log.extend_from_slice(&encode_frame(&sample_ops()));
        // Flip a payload byte of the first frame: it fails CRC, but the
        // intact second frame proves this is corruption rather than a torn
        // tail, and replay must refuse to silently drop committed batches.
        for off in [2, HEADER_LEN + 2, first_len - 1] {
            let mut bad = log.clone();
            bad[off] ^= 0x01;
            assert!(
                matches!(replay(&bad), Err(StoreError::Corruption(_))),
                "flip at byte {off} must be typed corruption"
            );
        }
    }

    #[test]
    fn large_torn_tail_of_repeated_magic_bytes_replays_linearly() {
        // Regression for the O(n²) corruption probe: a 1 MiB torn tail
        // consisting entirely of repeated MAGIC bytes.  Every even offset
        // is a candidate frame start, but each one's length field decodes
        // to ~0x0AB10AB1 (> MAX_PAYLOAD), so the scan must skip each in
        // O(1) and classify the whole region as a torn tail near-instantly.
        let mut log = encode_frame(&sample_ops());
        let first_len = log.len();
        let tail_len = 1 << 20;
        for _ in 0..tail_len / 2 {
            log.extend_from_slice(&MAGIC);
        }
        let start = std::time::Instant::now();
        let replay = replay(&log).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.batches.len(), 1);
        assert_eq!(replay.valid_len, first_len);
        assert_eq!(replay.truncated_bytes, tail_len);
        // Generous wall-clock bound: the linear scan takes microseconds;
        // the old per-offset re-probe took visibly long under slow CI.
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "corruption probe is not linear: took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn crc_plausible_header_spam_exhausts_budget_into_typed_corruption() {
        // A tail of many headers whose length fields are plausible (they
        // fit in the remaining bytes) but whose CRCs are wrong forces the
        // classifier to spend CRC work per candidate.  The linear budget
        // must cut this off with a typed corruption error — never a hang,
        // never a silent drop.
        let mut log = encode_frame(&sample_ops());
        let unit = 64usize;
        let repeats = 4096usize;
        let total = unit * repeats;
        for i in 0..repeats {
            let mut header = Vec::with_capacity(unit);
            header.extend_from_slice(&MAGIC);
            // Claim a payload spanning most of the remaining tail.
            let remaining = total - i * unit - HEADER_LEN;
            header.extend_from_slice(&(remaining as u32).to_le_bytes());
            header.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes()); // wrong CRC
            header.resize(unit, 0x55);
            log.extend_from_slice(&header);
        }
        let start = std::time::Instant::now();
        assert!(matches!(replay(&log), Err(StoreError::Corruption(_))));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "classification budget did not bound the probe: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn absurd_length_field_rejected() {
        let mut frame = encode_frame(&sample_ops());
        // Overwrite the length with something huge.
        frame[2..6].copy_from_slice(&(u32::MAX).to_le_bytes());
        let replay = replay(&frame).unwrap();
        assert_eq!(replay.batches.len(), 0);
        assert!(replay.torn_tail);
    }

    #[test]
    fn garbage_prefix_rejected() {
        let log = b"not a wal at all".to_vec();
        let replay = replay(&log).unwrap();
        assert!(replay.batches.is_empty());
        assert!(replay.torn_tail);
    }

    #[test]
    fn unknown_tag_is_corruption() {
        // Hand-build a payload with a bad tag.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(9); // bad tag
        payload.push(0);
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(b'k');
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert!(matches!(replay(&frame), Err(StoreError::Corruption(_))));
    }
}
