//! The History space's open-time upgrade: an image an earlier engine left
//! is read once and rewritten into the current one — the `sev/` stream
//! and a `summary` carrying its digest — in **one batch, so one WAL
//! frame**: a crash keeps the old image or the new one, and the next open
//! upgrades again.  `Journal::open` runs
//! it, so every driver open does; after it the readers know one layout.
//!
//! | image (who wrote it) | what the upgrade does |
//! |---|---|
//! | a `summary` without `digest` (the sharded engine before its summary carried one) | refold the rounds it covers and rewrite it with its digest; the stream is unchanged |
//! | `ev/` twins beside a stream, and no summary counting them (the sharded engine before the summary) | delete the twins and `rollup`; the stream and its digest are unchanged |
//! | `ev/` history, with or without a stream continuing it (the serial runtime before it joined the stream, perhaps continued since) | the held `ev/` events become round 0 in sequence order and every round of the stream moves up by one; `ev/` and `rollup` go; the summary covers everything, its digest the rewritten stream |
//!
//! On a current image — nothing in History below `sev/`, where `ev/` and
//! `rollup` sort — it is an empty range visit, a point lookup and the
//! summary read the journal's open needs anyway, and it writes nothing.

use crate::awareness::{
    Awareness, AwarenessError, EventKind, HistoryEvent, RollupRecord, ShardEvent, StreamSummary,
    SUMMARY_KEY,
};
use crate::error::{EngineError, EngineResult};
use crate::history::{decode_event, event_key, fold, EVENT_PREFIX, FNV_OFFSET};
use bioopera_cluster::SimTime;
use bioopera_store::{Batch, Disk, Space, Store, StoreError};
use serde::{Content, DeError, Deserialize};

/// The serial runtime's event keys before the stream: `ev/{seq}`, ten
/// digits wide at first and twenty since.
const OLD_PREFIX: &str = "ev/";

/// Where the serial runtime kept the [`RollupRecord`] of a prefix of its
/// `ev/` history, in sequence numbers.
const ROLLUP_KEY: &str = "rollup";

/// The `summary` as any engine stored it: the earliest carried no digest.
#[derive(Deserialize)]
struct StoredSummary {
    next_round: u64,
    rollup: RollupRecord,
    digest: Option<u64>,
}

/// Rewrite `store`'s History space into the current layout if an earlier
/// engine left it otherwise, and return its summary.
pub(crate) fn upgrade<D: Disk>(store: &mut Store<D>) -> EngineResult<Option<StreamSummary>> {
    let mut old = Vec::new();
    store.visit_prefix(Space::History, OLD_PREFIX, |key, bytes| {
        let suffix = &key[OLD_PREFIX.len()..];
        let bad = || AwarenessError::BadKey { key: suffix.into() };
        old.push((
            suffix.parse::<u64>().map_err(|_| bad())?,
            key.to_string(),
            bytes.clone(),
        ));
        Ok::<(), AwarenessError>(())
    })?;
    let rollup: Option<RollupRecord> = Awareness::read_record(store, ROLLUP_KEY)?;
    let stored: Option<StoredSummary> = Awareness::read_record(store, SUMMARY_KEY)?;
    let current = old.is_empty() && rollup.is_none();
    if current && stored.as_ref().is_none_or(|s| s.digest.is_some()) {
        return Ok(stored.and_then(|s| {
            let (next_round, rollup, digest) = (s.next_round, s.rollup, s.digest?);
            Some(StreamSummary {
                next_round,
                rollup,
                digest,
            })
        }));
    }
    let retired = store.retention(Space::History);
    if !current && retired.is_some_and(|(_, below)| below.as_str() > EVENT_PREFIX) {
        return Err(AwarenessError::RetiredStream.into());
    }
    // The stream, and what is in the rounds the summary covers: how many
    // events, and their digest.
    let below = stored.as_ref().map_or(0, |s| s.next_round);
    let (mut stream, mut covered, mut digest) = (Vec::new(), 0u64, FNV_OFFSET);
    store.visit_prefix(Space::History, EVENT_PREFIX, |key, bytes| {
        let event = decode_event(key, bytes)?;
        if event.round < below {
            covered += 1;
            digest = fold(digest, &event, bytes)?;
        }
        stream.push((key.to_string(), event));
        Ok::<(), EngineError>(())
    })?;
    let mut batch = Batch::new();
    let mut scratch = String::new();
    for (_, key, _) in &old {
        batch.delete(Space::History, key.as_str());
    }
    if rollup.is_some() {
        batch.delete(Space::History, ROLLUP_KEY);
    }
    // Twins, unless a summary counts more than the stream: the serial
    // runtime's continuation counted its `ev/` events too.
    let twins = !stream.is_empty() && stored.as_ref().is_none_or(|s| s.rollup.base == covered);
    let summary = if current || twins {
        // The stream stays as it is, and the summary carries the digest of
        // the rounds it covers.
        stored.map(|s| {
            Awareness::seeded(Some(&s.rollup)).summary_into(
                &mut batch,
                s.next_round,
                digest,
                &mut scratch,
            )
        })
    } else {
        let mut events = old
            .iter()
            .map(|(seq, key, bytes)| Ok((*seq, decode_old(key, bytes)?)))
            .collect::<Result<Vec<_>, StoreError>>()?;
        events.sort_by_key(|(seq, _)| *seq);
        // The newest aggregates, and how many events of the rewritten
        // stream — a prefix of it — they cover.
        let (seed, covered) = match (&stored, &rollup) {
            (Some(s), _) => (Some(&s.rollup), events.len() + covered as usize),
            (None, Some(r)) => (Some(r), events.partition_point(|(seq, _)| *seq < r.base)),
            (None, None) => (None, 0),
        };
        // Every round moves up by one; a key no moved round is put under
        // again stays deleted (a later put in the batch wins).
        for (key, _) in &stream {
            batch.delete(Space::History, key.as_str());
        }
        let rewritten: Vec<ShardEvent> = events
            .into_iter()
            .enumerate()
            .map(|(i, (_, ev))| ShardEvent {
                round: 0,
                instance: ev.kind.instance().unwrap_or(0),
                seq: i as u64,
                at: Some(ev.at),
                kind: ev.kind,
            })
            .chain(stream.into_iter().map(|(_, e)| ShardEvent {
                round: e.round + 1,
                ..e
            }))
            .collect();
        let mut aggregate = Awareness::seeded(seed);
        for e in &rewritten[covered..] {
            aggregate.observe(e.time(), e.kind.clone());
        }
        let mut digest = FNV_OFFSET;
        for round in rewritten.chunk_by(|a, b| a.round == b.round) {
            for (i, e) in round.iter().enumerate() {
                batch.put_record(Space::History, event_key(e.round, i), e, &mut scratch);
                digest = fold(digest, e, scratch.as_bytes())?;
            }
        }
        let next_round = rewritten.last().map_or(1, |e| e.round + 1);
        Some(aggregate.summary_into(&mut batch, next_round, digest, &mut scratch))
    };
    store.apply(batch)?;
    Ok(summary)
}

/// Decode an `ev/` record.  Besides the typed `{at, kind}` it may have
/// either shape from before the typed taxonomy: a string `kind` with a
/// string `detail` beside it, or a string `kind` alone that names no unit
/// variant.  Both become [`EventKind::Legacy`] — here, and nowhere else.
/// A typed record with a `detail` is refused.
fn decode_old(key: &str, bytes: &[u8]) -> Result<HistoryEvent, StoreError> {
    serde_json::from_slice::<OldEvent>(bytes)
        .map(|old| old.0)
        .map_err(|e| StoreError::Codec(format!("{key}: {e}")))
}

/// An `ev/` record, read by [`decode_old`].
struct OldEvent(HistoryEvent);

impl Deserialize for OldEvent {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let Content::Map(entries) = c else {
            return Err(DeError::custom(format!(
                "expected history event map, found {c:?}"
            )));
        };
        let at: SimTime = serde::__field(entries, "at")?;
        let member = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let kind = member("kind").ok_or_else(|| DeError::custom("history event missing `kind`"))?;
        let kind = match (kind, member("detail")) {
            (Content::Str(kind), Some(Content::Str(detail))) => EventKind::Legacy {
                kind: kind.clone(),
                detail: detail.clone(),
            },
            (_, None) => EventKind::from_content(kind).or_else(|e| match kind {
                Content::Str(kind) => Ok(EventKind::Legacy {
                    kind: kind.clone(),
                    detail: String::new(),
                }),
                _ => Err(e),
            })?,
            (_, Some(other)) => {
                return Err(DeError::custom(format!(
                    "history event `detail` must be a string, found {other:?}"
                )))
            }
        };
        Ok(OldEvent(HistoryEvent { at, kind }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both pre-taxonomy shapes decode as `Legacy`, a typed record as its
    /// kind — a bare string that names a unit variant is that variant —
    /// and a typed record with a stray `detail` is refused.
    #[test]
    fn legacy_history_records_decode_as_before() {
        for (text, kind, detail) in [
            (
                r#"{"at":[1000],"kind":"task.end","detail":"A on n1"}"#,
                "task.end",
                "A on n1",
            ),
            (r#"{"at":[1000],"kind":"site.custom"}"#, "site.custom", ""),
            (
                r#"{ "detail" : "détail", "at" : [ 1000.0 ], "kind" : "k" }"#,
                "k",
                "détail",
            ),
        ] {
            let expected = HistoryEvent {
                at: SimTime::from_secs(1),
                kind: EventKind::Legacy {
                    kind: kind.into(),
                    detail: detail.into(),
                },
            };
            assert_eq!(decode_old("ev/1", text.as_bytes()).unwrap(), expected);
        }
        let typed = decode_old("ev/1", br#"{"at":[1000],"kind":"ClusterFailure"}"#).unwrap();
        assert_eq!(typed.kind, EventKind::ClusterFailure);
        let stray = br#"{"at":[1000],"kind":{"NodeCrash":{"node":"n"}},"detail":"x"}"#;
        let refused = decode_old("ev/1", stray).unwrap_err().to_string();
        assert!(refused.contains("ev/1"), "{refused}");
    }
}
