//! The History space's one writer, for both drivers: the stream of
//! `sev/{round}/{index}` records and the summary that covers a prefix of
//! it.
//!
//! A *round* is one commit that carries events: a barrier round of the
//! sharded engine, or a commit point of the serial runtime (the
//! persistence batch its events ride, or its end-of-step flush).
//! [`History::commit`] puts each event once, under its [`event_key`], into
//! the batch that commits the round — one WAL frame — and folds it into
//! the lifetime digest and the awareness index as it goes.  When the
//! cadence is due the same batch carries the summary of every round up to
//! and including this one, so a summary covers exactly what is at or
//! before the frame that holds it.  [`History::open`] reads it back: the
//! summary, then the stream's tail past it, in one pass.
//!
//! The records and the reader are [`crate::awareness`]'s.

use crate::awareness::{Awareness, ShardEvent, StreamSummary};
use crate::error::{EngineError, EngineResult};
use bioopera_store::{push_padded, Batch, Disk, Space, Store};

/// History-space prefix of the stream: the one history record the drivers
/// write, and what recovery, the digest and the awareness model all read.
pub(crate) const EVENT_PREFIX: &str = "sev/";

/// Default summary cadence: a commit that leaves this many events or more
/// past the last summary carries a new one.
pub(crate) const DEFAULT_ROLLUP_EVERY: u64 = 512;

/// Append `sev/{round:08}/`: where the keys of `round`'s events begin.
fn push_round(key: &mut String, round: u64) {
    key.push_str(EVENT_PREFIX);
    push_padded(key, round, 8);
    key.push('/');
}

/// Key of the `index`-th event committed in `round`.  Key order is commit
/// order, which every reader of the stream relies on: six digits hold the
/// first million events of a round (byte for byte the keys earlier
/// versions wrote), and past that a `~` — after every digit in ASCII —
/// opens a twenty-digit form that sorts behind them.  Built in one pass: a
/// round commits one of these per event.
pub(crate) fn event_key(round: u64, index: usize) -> String {
    let mut key = String::with_capacity(EVENT_PREFIX.len() + 8 + 1 + 6);
    push_round(&mut key, round);
    if index < 1_000_000 {
        push_padded(&mut key, index as u64, 6);
    } else {
        key.push('~');
        push_padded(&mut key, index as u64, 20);
    }
    key
}

/// The key every event of `round` sorts at or after, and every event of
/// an earlier round before.
pub(crate) fn round_start_key(round: u64) -> String {
    let mut key = String::with_capacity(EVENT_PREFIX.len() + 8 + 1);
    push_round(&mut key, round);
    key
}

/// The stream as one driver writes it: the awareness model over it, the
/// lifetime digest of what it committed, and the summary cadence.  (How
/// many events, and how many of each label, is the awareness index's to
/// say: it is fed by the same calls, event for event.)
pub(crate) struct History {
    awareness: Awareness,
    digest: u64,
    /// A commit that leaves this many events past the last summary
    /// carries a new one.
    every: u64,
    /// Events the newest summary covers.
    summarized: u64,
    /// `next_round` of the newest summary (0: none).
    summary_round: u64,
    /// The store holds `ev/` history a serial runtime wrote before it
    /// joined the stream, and no summary counts it yet: the next commit
    /// carries one whatever the cadence.
    upgrade_due: bool,
}

impl History {
    /// The history `store` holds, and the first round none of its records
    /// is at.  The summary seeds the digest and the awareness model with
    /// the rounds below its `next_round`, and only the tail past it is
    /// read: one pass that feeds both.  A summary without a digest (an
    /// earlier engine's) leaves the digest to be refolded from the
    /// stream's first record, once; so does no summary at all.  A store
    /// with no stream but `ev/` history is read as that layout, and the
    /// first commit summarises it.  An event that does not decode fails
    /// the open, named: it would silently drop out of the digest and the
    /// counts.
    pub(crate) fn open<D: Disk>(store: &Store<D>) -> EngineResult<(Self, u64)> {
        let summary = Awareness::stream_summary(store)?;
        let tail_round = summary.as_ref().map_or(0, StreamSummary::next_round);
        let (mut digest, start) = match summary.as_ref().and_then(StreamSummary::digest) {
            Some(digest) => (digest, round_start_key(tail_round)),
            None => (FNV_OFFSET, EVENT_PREFIX.to_string()),
        };
        let mut awareness = Awareness::from_summary(summary.as_ref());
        let mut next_round = tail_round;
        store.visit_prefix_from(Space::History, EVENT_PREFIX, &start, |key, bytes| {
            let event = decode_event(key, bytes)?;
            digest = fold(digest, &event, bytes)?;
            next_round = next_round.max(event.round + 1);
            if event.round >= tail_round {
                awareness.reobserve(event.time(), event.kind);
            }
            Ok::<(), EngineError>(())
        })?;
        let mut upgrade_due = false;
        if summary.is_none() && next_round == 0 {
            awareness = Awareness::open_tail(store)?;
            upgrade_due = !awareness.index().is_empty();
        }
        let history = History {
            digest,
            every: DEFAULT_ROLLUP_EVERY,
            summarized: awareness.index().summarized(),
            summary_round: tail_round,
            upgrade_due,
            awareness,
        };
        Ok((history, next_round))
    }

    /// Put `events` into `batch` as round `round` of the stream: each
    /// stored once, under its [`event_key`], and folded into the digest
    /// and the awareness index as it goes.  When the cadence is due — or
    /// the store's `ev/` history is not summarised yet — the summary of
    /// every round up to and including this one joins the batch.
    ///
    /// One batch is one WAL frame, and a crash keeps a frame whole or not
    /// at all: the history and the monitoring view over it cannot come
    /// apart, and what recovery refolds from `sev/` is what both held.
    /// The model runs ahead of the commit: a store that fails an append is
    /// poisoned, and a driver that ran ahead of it is never used again.
    pub(crate) fn commit(
        &mut self,
        batch: &mut Batch,
        round: u64,
        events: impl IntoIterator<Item = ShardEvent>,
        scratch: &mut String,
    ) -> EngineResult<()> {
        for (i, e) in events.into_iter().enumerate() {
            batch.put_record(Space::History, event_key(round, i), &e, scratch);
            self.digest = fold(self.digest, &e, scratch.as_bytes())?;
            self.awareness.observe(e.time(), e.kind);
        }
        let observed = self.awareness.index().len() as u64;
        if self.upgrade_due || observed - self.summarized >= self.every {
            // The digest now covers exactly the rounds below `round + 1`,
            // which is what the summary says it does.
            self.awareness
                .summary_into(batch, round + 1, self.digest, scratch);
            self.summarized = observed;
            self.summary_round = round + 1;
            self.upgrade_due = false;
        }
        Ok(())
    }

    /// Rolling FNV-1a digest of the committed stream (order-sensitive).
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// The awareness model over the stream.
    pub(crate) fn awareness(&self) -> &Awareness {
        &self.awareness
    }

    /// The first round the newest summary does not cover (0: none).
    pub(crate) fn summarized_round(&self) -> u64 {
        self.summary_round
    }

    /// Override the summary cadence (tests force tiny values to commit a
    /// summary with almost every round).
    pub(crate) fn set_every(&mut self, every: u64) {
        self.every = every.max(1);
    }
}

/// The committed stream of `store`, decoded, in commit order.
pub fn persisted_events<D: Disk>(store: &Store<D>) -> EngineResult<Vec<ShardEvent>> {
    let mut events = Vec::new();
    store.visit_prefix(Space::History, EVENT_PREFIX, |key, bytes| {
        events.push(decode_event(key, bytes)?);
        Ok::<(), EngineError>(())
    })?;
    Ok(events)
}

/// Decode the stream record at `key`.  The store is CRC-framed, so one
/// that does not decode is a format fault and is named.
fn decode_event(key: &str, bytes: &[u8]) -> EngineResult<ShardEvent> {
    serde_json::from_slice(bytes)
        .map_err(|e| EngineError::Internal(format!("corrupt history event {key}: {e}")))
}

/// Fold `e`, stored as `record`, into `digest`: its round, instance and
/// sequence number, its time if it carries one, then its kind.  The kind
/// is hashed where `record` holds it ([`encoded_kind`]), so it is encoded
/// once per event — for the store.
fn fold(digest: u64, e: &ShardEvent, record: &[u8]) -> EngineResult<u64> {
    let kind = encoded_kind(e, record).ok_or_else(|| {
        EngineError::Internal("history event record does not end in its kind".into())
    })?;
    debug_assert_eq!(
        Some(kind),
        serde_json::to_vec(&e.kind).ok().as_deref(),
        "the record's tail is a fresh encoding of its kind"
    );
    let mut h = fnv1a64(digest, &e.round.to_le_bytes());
    h = fnv1a64(h, &e.instance.to_le_bytes());
    h = fnv1a64(h, &e.seq.to_le_bytes());
    if let Some(at) = e.at {
        h = fnv1a64(h, &at.as_millis().to_le_bytes());
    }
    Ok(fnv1a64(h, kind))
}

/// The encoding of `e.kind` inside `record`, the encoding of `e`.  The
/// writer emits `{"round":R,"instance":I,"seq":S,"kind":K}`, with
/// `"at":[T],` before `"kind"` when the event has a time, so where `K`
/// starts follows from how many digits the integers take, and it runs to
/// the closing brace.  `None` if `record` is not laid out that way.
fn encoded_kind<'a>(e: &ShardEvent, record: &'a [u8]) -> Option<&'a [u8]> {
    const NAME: &[u8] = b",\"kind\":";
    let digits = |n: u64| n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let at =
        e.at.map_or(0, |t| r#","at":["#.len() + digits(t.as_millis()) + 1);
    let start = r#"{"round":"#.len()
        + digits(e.round)
        + r#","instance":"#.len()
        + digits(e.instance)
        + r#","seq":"#.len()
        + digits(e.seq)
        + at
        + NAME.len();
    let (head, kind) = record.split_at_checked(start)?;
    head.ends_with(NAME).then_some(kind)?.strip_suffix(b"}")
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub(crate) fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::awareness::EventKind;
    use crate::shard::router::splitmix64;
    use bioopera_cluster::SimTime;

    /// Round 0 of N submissions commits N `instance.start` events, and
    /// `{index:06}` alone put the millionth before the second.
    #[test]
    fn event_keys_sort_in_commit_order_past_a_million_events_a_round() {
        let indexes = [0usize, 999_999, 1_000_000, 10_000_000];
        let keys: Vec<String> = [0u64, 1]
            .iter()
            .flat_map(|r| indexes.iter().map(|i| event_key(*r, *i)))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // The keys already on disk are not respelled.
        assert_eq!(event_key(21, 999_999), "sev/00000021/999999");
        assert_eq!(
            event_key(21, 1_000_000),
            "sev/00000021/~00000000000001000000"
        );
        assert!(round_start_key(1) <= event_key(1, 0));
        assert!(event_key(0, usize::MAX) < round_start_key(1));
    }

    /// The digit writer's keys are `format!`'s, byte for byte: seeded
    /// rounds (past eight digits too) and indexes on both sides of 10⁶.
    #[test]
    fn event_keys_are_spelled_as_format_spells_them() {
        let mut rounds = vec![0u64, 7, 99_999_999, 100_000_000, u64::MAX];
        let mut indexes = vec![0usize, 5, 999_999, 1_000_000, 1_000_001, usize::MAX];
        let mut x = 24u64;
        for _ in 0..100 {
            x = splitmix64(x);
            rounds.push(x >> (x % 64));
            indexes.push((splitmix64(x) % 2_000_000) as usize);
        }
        for &round in &rounds {
            assert_eq!(round_start_key(round), format!("sev/{round:08}/"));
            for &index in &indexes {
                let spelled = if index < 1_000_000 {
                    format!("sev/{round:08}/{index:06}")
                } else {
                    format!("sev/{round:08}/~{index:020}")
                };
                assert_eq!(event_key(round, index), spelled);
            }
        }
    }

    /// The digest hashes each event's `kind` where the stored record
    /// holds it.  Over every `ShardEvent` of the codec golden — one per
    /// event kind, strings with quotes and escapes among them, and one
    /// with a time — that slice is a fresh encoding of the decoded `kind`,
    /// and the fold over the record is the fold that encodes `kind` itself.
    #[test]
    fn the_digest_hashes_the_kind_the_record_holds() {
        let golden = include_str!("../../harness/tests/golden/records.tsv");
        let mut digest = FNV_OFFSET;
        let mut reference = FNV_OFFSET;
        let (mut seen, mut timed) = (0, 0);
        for line in golden.lines() {
            let Some((name, record)) = line.split_once('\t') else {
                continue;
            };
            if !name.starts_with("ShardEvent/") {
                continue;
            }
            seen += 1;
            let event = decode_event(name, record.as_bytes()).unwrap();
            let kind = serde_json::to_vec(&event.kind).unwrap();
            assert_eq!(
                encoded_kind(&event, record.as_bytes()),
                Some(&kind[..]),
                "{name}"
            );
            digest = fold(digest, &event, record.as_bytes()).unwrap();
            for part in [event.round, event.instance, event.seq] {
                reference = fnv1a64(reference, &part.to_le_bytes());
            }
            if let Some(at) = event.at {
                timed += 1;
                reference = fnv1a64(reference, &at.as_millis().to_le_bytes());
            }
            reference = fnv1a64(reference, &kind);
        }
        assert_eq!((seen, timed), (40, 1), "one per event kind, one timed");
        assert_eq!(digest, reference);
        // A `kind` whose own text holds the member names, quotes and all.
        let tricky = ShardEvent {
            round: 7,
            instance: 3,
            seq: 1,
            at: None,
            kind: EventKind::TaskStart {
                instance: 3,
                path: r#"x,"at":[1],"kind":{"#.into(),
                node: "n".into(),
                job: 0,
                queue_ms: 0,
            },
        };
        let encode = |e: &ShardEvent| serde_json::to_vec(e).unwrap();
        let kind = serde_json::to_vec(&tricky.kind).unwrap();
        // The integers' widths place the slice: zero, and all twenty digits.
        for n in [0, 9, 10, u64::MAX] {
            for at in [None, Some(SimTime::from_millis(n))] {
                let e = ShardEvent {
                    round: n,
                    instance: n,
                    seq: n,
                    at,
                    ..tricky.clone()
                };
                assert_eq!(encoded_kind(&e, &encode(&e)), Some(&kind[..]));
            }
        }
        // A record laid out any other way is refused, not mis-sliced.
        assert_eq!(encoded_kind(&tricky, b"{\"round\":7}"), None);
        let spaced = String::from_utf8(encode(&tricky))
            .unwrap()
            .replace(":", ": ");
        assert_eq!(encoded_kind(&tricky, spaced.as_bytes()), None);
        let timed = ShardEvent {
            at: Some(SimTime::from_secs(1)),
            ..tricky.clone()
        };
        assert_eq!(encoded_kind(&timed, &encode(&tricky)), None);
    }
}
