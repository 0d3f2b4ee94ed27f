//! Durability: the log/checkpoint payload codecs and recovery state.
//!
//! `rq-store` owns the *framing* (CRC-checked records, atomic
//! checkpoint install, torn-tail scanning); this module owns the
//! *payloads* — what one ingest, and one whole snapshot, look like as
//! bytes — plus the recovery bookkeeping the service reports through
//! `/stats` and `/metrics`.
//!
//! # Log records
//!
//! One record per published epoch, serializing the epoch's [`Delta`]
//! in **insertion order** (`Delta::ordered_rows`).  Order matters for
//! more than fidelity: replaying the rows through the normal ingest
//! path re-interns every constant and predicate at its first
//! occurrence, in the same order the crashed process interned them, so
//! a recovered service assigns *identical* interner ids and therefore
//! answers queries **byte-identically** through the wire stack (answer
//! rows sort by id).  Duplicate rows never intern anything new, so
//! only the delta needs to be logged.
//!
//! # Checkpoints
//!
//! A checkpoint captures one snapshot as a *delta against the program
//! file*: the interner extensions (predicates and constants appended
//! after parse, in id order) and the ingested facts appended to
//! `Program::facts`.  Restoring re-parses the program file, verifies
//! the rules fingerprint and base interner sizes, then replays the
//! extensions — which re-interns them at the same ids, preserving the
//! byte-identical-answers invariant across checkpoint+tail recovery.
//!
//! [`Delta`]: crate::snapshot::Delta

use rq_common::{Const, ConstValue, FxHashMap, Pred};
use rq_datalog::Program;
use rq_store::{ByteReader, ByteWriter, CodecError, FsyncPolicy, StorageBackend};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::snapshot::Snapshot;

/// How the service persists ingests (see [`crate::ServiceConfig`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Fsync policy for write-ahead-log appends.  [`FsyncPolicy::Always`]
    /// (the default) makes an acknowledged ingest survive power loss;
    /// [`FsyncPolicy::Never`] trades that for throughput (an OS crash
    /// can drop acknowledged tail records, which recovery then treats
    /// as a torn tail).
    pub fsync: FsyncPolicy,
    /// Install a compact checkpoint snapshot (and truncate the log up
    /// to it) every this many ingests.  `0` disables checkpointing —
    /// recovery then replays the whole log from epoch 0.
    pub checkpoint_interval: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::Always,
            checkpoint_interval: 16,
        }
    }
}

/// What one boot-time recovery found and did, reported through
/// [`crate::QueryService::recovery_report`], `/stats` and `/metrics`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the service recovered to (0 for a fresh store).
    pub recovered_epoch: u64,
    /// The checkpoint epoch recovery started from, if one was usable.
    pub checkpoint_epoch: Option<u64>,
    /// Log records replayed on top of the starting state.
    pub replayed_records: u64,
    /// Verified log records skipped because their epoch was already
    /// covered by the checkpoint (left behind when a crash landed
    /// between checkpoint install and log truncation — duplication is
    /// safe, loss would not be).
    pub skipped_duplicates: u64,
    /// Torn or corrupt trailing records dropped by the log scan
    /// (`0` or `1`: the scan stops at the first bad frame).
    pub dropped_records: u64,
    /// Bytes from the first unverifiable frame to the end of the log.
    pub dropped_bytes: u64,
    /// Whether a checkpoint blob existed but failed verification and
    /// was ignored (recovery then replays the log from scratch).
    pub checkpoint_dropped: bool,
}

/// Live durability counters for [`crate::stats::StatsReport`]: the
/// write-ahead-log/checkpoint totals plus the boot-time recovery
/// outcome.  `None` in the report means the service is not durable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Write-ahead-log records appended (one per published epoch).
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log, frame headers included.
    pub wal_bytes: u64,
    /// Checkpoint snapshots installed.
    pub checkpoints: u64,
    /// Checkpoint installs that failed (non-fatal: the records stay in
    /// the log and the next ingest retries).
    pub checkpoint_failures: u64,
    /// What boot-time recovery found and did.
    pub recovery: RecoveryReport,
}

/// The sizes of the freshly parsed program, before any ingest —
/// everything beyond these watermarks is checkpointed as an extension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BaseProfile {
    pub(crate) preds: usize,
    pub(crate) consts: usize,
    pub(crate) facts: usize,
}

impl BaseProfile {
    pub(crate) fn of(program: &Program) -> Self {
        Self {
            preds: program.preds.len(),
            consts: program.consts.len(),
            facts: program.facts.len(),
        }
    }
}

/// The service's handle on its storage backend.
#[derive(Debug)]
pub(crate) struct DurableStore {
    pub(crate) backend: Arc<dyn StorageBackend>,
    pub(crate) checkpoint_interval: u64,
    pub(crate) base: BaseProfile,
    /// Ingests since the last installed checkpoint (seeded with the
    /// replayed tail length at recovery, so a long tail checkpoints
    /// promptly instead of growing for another full interval).
    pub(crate) since_checkpoint: AtomicU64,
    pub(crate) report: RecoveryReport,
}

/// A decoded log record: the rule-set fingerprint it was written
/// under, and the delta rows in insertion order, resolved to names and
/// values (interner ids are process-local and never persisted as
/// authoritative in records).
#[derive(Debug)]
pub(crate) struct RecordPayload {
    pub(crate) fingerprint: u64,
    pub(crate) rows: Vec<(String, usize, Vec<ConstValue>)>,
}

/// One tagged constant value, as log records and checkpoints write it:
/// tag `0` and an `i64`, or tag `1` and a string.
fn put_value(w: &mut ByteWriter, v: &ConstValue) {
    match v {
        ConstValue::Int(i) => {
            w.put_u8(0);
            w.put_i64(*i);
        }
        ConstValue::Str(s) => {
            w.put_u8(1);
            w.put_str(s);
        }
    }
}

fn get_value(r: &mut ByteReader<'_>) -> Result<ConstValue, CodecError> {
    match r.u8()? {
        0 => Ok(ConstValue::Int(r.i64()?)),
        1 => Ok(ConstValue::Str(r.str()?.to_string())),
        t => Err(CodecError(format!("unknown constant tag {t}"))),
    }
}

/// Encode the built-but-unpublished snapshot's delta as one log-record
/// payload.  Layout: `fingerprint u64; n_preds u32; (name, arity u32)
/// per pred in first-appearance order; n_rows u32; (pred_idx u32,
/// arity u32, tagged values) per row in insertion order`.
pub(crate) fn encode_record(snap: &Snapshot) -> Vec<u8> {
    let program = snap.program();
    let rows = snap.delta().ordered_rows();
    let mut table: Vec<Pred> = Vec::new();
    let mut index: FxHashMap<Pred, u32> = FxHashMap::default();
    for (pred, _) in rows {
        index.entry(*pred).or_insert_with(|| {
            table.push(*pred);
            (table.len() - 1) as u32
        });
    }
    let mut w = ByteWriter::new();
    w.put_u64(snap.rules_fingerprint());
    w.put_u32(table.len() as u32);
    for &p in &table {
        w.put_str(program.pred_name(p));
        w.put_u32(program.arity(p) as u32);
    }
    w.put_u32(rows.len() as u32);
    for (pred, row) in rows {
        w.put_u32(index[pred]);
        w.put_u32(row.len() as u32);
        for &c in row {
            put_value(&mut w, program.consts.value(c));
        }
    }
    w.into_bytes()
}

/// Decode one log-record payload.  The payload already passed the
/// frame CRC, so a failure here means a codec-version mismatch, not
/// bit rot — callers treat it as a hard recovery error.
pub(crate) fn decode_record(payload: &[u8]) -> Result<RecordPayload, CodecError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.u64()?;
    let n_preds = r.u32()? as usize;
    // Capacity hints never exceed what the bytes left could encode, so
    // a hostile count cannot make the decoder allocate ahead of its
    // input (here: 8 bytes per table entry and per row, 5 per value).
    let mut table = Vec::with_capacity(n_preds.min(r.remaining() / 8));
    for _ in 0..n_preds {
        let name = r.str()?.to_string();
        let arity = r.u32()? as usize;
        table.push((name, arity));
    }
    let n_rows = r.u32()? as usize;
    let mut rows = Vec::with_capacity(n_rows.min(r.remaining() / 8));
    for _ in 0..n_rows {
        let idx = r.u32()? as usize;
        let (name, arity) = table
            .get(idx)
            .ok_or_else(|| CodecError(format!("row references predicate slot {idx}")))?;
        let len = r.u32()? as usize;
        if len != *arity {
            return Err(CodecError(format!(
                "row for `{name}` carries {len} values, arity is {arity}"
            )));
        }
        let mut values = Vec::with_capacity(len.min(r.remaining() / 5));
        for _ in 0..len {
            values.push(get_value(&mut r)?);
        }
        rows.push((name.clone(), *arity, values));
    }
    if !r.is_exhausted() {
        return Err(CodecError(format!(
            "{} trailing bytes after the last row",
            r.remaining()
        )));
    }
    Ok(RecordPayload { fingerprint, rows })
}

/// Encode one snapshot as a checkpoint payload: fingerprint, epoch, two
/// reserved words, the base-profile watermarks, a reserved id set, then
/// the interner/fact extensions beyond the base program in
/// id/insertion order.
///
/// **Reserved fields.**  The two words and the id set used to carry the
/// durability-tier revisions and low-durability predicate set, which
/// no longer exist.  There is no payload version (only the store's
/// `RQC1` frame magic), so the byte layout is frozen: this side writes
/// `0`, `0` and an empty set, [`restore_checkpoint`] reads whatever is
/// there with the same bounds checks and discards it, and a data
/// directory written by either layout recovers under the other.
pub(crate) fn encode_checkpoint(snap: &Snapshot, base: &BaseProfile) -> Vec<u8> {
    let program = snap.program();
    let mut w = ByteWriter::new();
    w.put_u64(snap.rules_fingerprint());
    w.put_u64(snap.epoch());
    w.put_u64(0);
    w.put_u64(0);
    w.put_u64(base.preds as u64);
    w.put_u64(base.consts as u64);
    w.put_u64(base.facts as u64);
    w.put_u32(0);
    w.put_u32((program.preds.len() - base.preds) as u32);
    for i in base.preds..program.preds.len() {
        let p = Pred::from_index(i);
        w.put_str(program.pred_name(p));
        w.put_u32(program.arity(p) as u32);
    }
    w.put_u32((program.consts.len() - base.consts) as u32);
    for i in base.consts..program.consts.len() {
        put_value(&mut w, program.consts.value(Const::from_index(i)));
    }
    w.put_u32((program.facts.len() - base.facts) as u32);
    for (pred, row) in program.facts.iter_from(base.facts) {
        w.put_u32(pred.0);
        w.put_u32(row.len() as u32);
        for c in row {
            w.put_u32(c.0);
        }
    }
    w.into_bytes()
}

/// Restore a checkpoint payload onto a freshly parsed `program`,
/// returning the extended program and the checkpoint's epoch.
///
/// Hard errors (the caller refuses to serve) when the checkpoint was
/// written under a different rule set or base program — recovering
/// onto changed rules would silently answer from stale derivations.
/// Structural violations (out-of-range ids, non-sequential interns)
/// mean the payload does not extend *this* program and are errors too.
pub(crate) fn restore_checkpoint(
    mut program: Program,
    payload: &[u8],
) -> Result<(Program, u64), String> {
    let mut r = ByteReader::new(payload);
    let dec = |e: CodecError| e.to_string();
    let fingerprint = r.u64().map_err(dec)?;
    let expected = crate::plan::rules_fingerprint(&program);
    if fingerprint != expected {
        return Err(format!(
            "checkpoint was written under a different rule set \
             (fingerprint {fingerprint:#018x}, program has {expected:#018x}); refusing to recover"
        ));
    }
    let epoch = r.u64().map_err(dec)?;
    // Reserved (see `encode_checkpoint`): two words, read and dropped.
    r.u64().map_err(dec)?;
    r.u64().map_err(dec)?;
    let base_preds = r.u64().map_err(dec)? as usize;
    let base_consts = r.u64().map_err(dec)? as usize;
    let base_facts = r.u64().map_err(dec)? as usize;
    if base_preds != program.preds.len()
        || base_consts != program.consts.len()
        || base_facts != program.facts.len()
    {
        return Err(format!(
            "the program file changed since the checkpoint \
             (base sizes {base_preds}/{base_consts}/{base_facts} preds/consts/facts, \
             program has {}/{}/{}); refusing to recover",
            program.preds.len(),
            program.consts.len(),
            program.facts.len()
        ));
    }
    // Reserved id set: only its largest member is kept, for the range
    // check below once the predicate table is complete.
    let mut reserved_max: Option<u32> = None;
    for _ in 0..r.u32().map_err(dec)? {
        reserved_max = reserved_max.max(Some(r.u32().map_err(dec)?));
    }
    let n_ext_preds = r.u32().map_err(dec)? as usize;
    for i in 0..n_ext_preds {
        let name = r.str().map_err(dec)?.to_string();
        let arity = r.u32().map_err(dec)? as usize;
        let p = program.pred(&name, arity);
        if p.index() != base_preds + i {
            return Err(format!(
                "checkpoint predicate `{name}` does not extend the program's \
                 predicate table (landed at id {}, expected {})",
                p.index(),
                base_preds + i
            ));
        }
    }
    if let Some(id) = reserved_max.filter(|&id| id as usize >= program.preds.len()) {
        return Err(format!(
            "checkpoint reserved set references predicate {id}, only {} known",
            program.preds.len()
        ));
    }
    let n_ext_consts = r.u32().map_err(dec)? as usize;
    for i in 0..n_ext_consts {
        let v = get_value(&mut r).map_err(dec)?;
        let c = program.consts.intern(v);
        if c.index() != base_consts + i {
            return Err(format!(
                "checkpoint constant does not extend the program's interner \
                 (landed at id {}, expected {})",
                c.index(),
                base_consts + i
            ));
        }
    }
    let n_ext_facts = r.u32().map_err(dec)? as usize;
    for _ in 0..n_ext_facts {
        let praw = r.u32().map_err(dec)?;
        if praw as usize >= program.preds.len() {
            return Err(format!(
                "checkpoint fact references predicate {praw}, only {} known",
                program.preds.len()
            ));
        }
        let pred = Pred(praw);
        let len = r.u32().map_err(dec)? as usize;
        if len != program.arity(pred) {
            return Err(format!(
                "checkpoint fact for `{}` carries {len} values, arity is {}",
                program.pred_name(pred),
                program.arity(pred)
            ));
        }
        let mut row = Vec::with_capacity(len.min(r.remaining() / 4));
        for _ in 0..len {
            let craw = r.u32().map_err(dec)?;
            if craw as usize >= program.consts.len() {
                return Err(format!(
                    "checkpoint fact references constant {craw}, only {} known",
                    program.consts.len()
                ));
            }
            row.push(Const(craw));
        }
        program.add_fact(pred, &row);
    }
    if !r.is_exhausted() {
        return Err(format!(
            "{} trailing bytes after the checkpoint payload",
            r.remaining()
        ));
    }
    Ok((program, epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotStore;
    use rq_datalog::parse_program;

    const SOURCE: &str = "tc(X,Y) :- e(X,Y).\n\
                          tc(X,Z) :- e(X,Y), tc(Y,Z).\n\
                          e(a,b). e(b,c).";

    #[test]
    fn record_round_trips_the_delta_in_order() {
        let program = parse_program(SOURCE).unwrap();
        let store = SnapshotStore::new(program);
        let snap = store.ingest("e(c,d). f(x). e(a,b).").unwrap();
        let payload = encode_record(&snap);
        let decoded = decode_record(&payload).unwrap();
        assert_eq!(decoded.fingerprint, snap.rules_fingerprint());
        // `e(a,b)` is a duplicate: not part of the delta.
        assert_eq!(
            decoded.rows,
            vec![
                (
                    "e".to_string(),
                    2,
                    vec![ConstValue::Str("c".into()), ConstValue::Str("d".into())]
                ),
                ("f".to_string(), 1, vec![ConstValue::Str("x".into())]),
            ]
        );
    }

    #[test]
    fn truncated_record_payload_is_an_error_not_a_panic() {
        let program = parse_program(SOURCE).unwrap();
        let store = SnapshotStore::new(program);
        let snap = store.ingest("e(c,d).").unwrap();
        let payload = encode_record(&snap);
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn checkpoint_round_trips_interners_facts_and_revisions() {
        let program = parse_program(SOURCE).unwrap();
        let base = BaseProfile::of(&program);
        let store = SnapshotStore::new(program);
        store.ingest("e(c,d). g(x,y,z).").unwrap();
        let snap = store.ingest("e(d,a).").unwrap();
        let payload = encode_checkpoint(&snap, &base);
        let (restored, epoch) =
            restore_checkpoint(parse_program(SOURCE).unwrap(), &payload).unwrap();
        assert_eq!(epoch, 2);
        // The two former revision words (bytes 16..32) are reserved and
        // written as zero.
        assert_eq!(payload[16..32], [0u8; 16]);
        let orig = snap.program();
        assert_eq!(restored.preds.len(), orig.preds.len());
        assert_eq!(restored.consts.len(), orig.consts.len());
        assert_eq!(restored.facts.len(), orig.facts.len());
        // Identical ids, not just identical contents.
        for i in 0..orig.consts.len() {
            let c = Const::from_index(i);
            assert_eq!(restored.consts.value(c), orig.consts.value(c));
        }
        for (a, b) in restored.facts.iter().zip(orig.facts.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn checkpoint_under_a_different_rule_set_is_refused() {
        let program = parse_program(SOURCE).unwrap();
        let base = BaseProfile::of(&program);
        let store = SnapshotStore::new(program);
        let snap = store.ingest("e(c,d).").unwrap();
        let payload = encode_checkpoint(&snap, &base);
        let other = parse_program("p(X,Y) :- q(X,Y).\nq(a,b).").unwrap();
        let err = restore_checkpoint(other, &payload).unwrap_err();
        assert!(err.contains("different rule set"), "{err}");
    }

    #[test]
    fn corrupt_checkpoint_payload_is_an_error_not_a_panic() {
        let program = parse_program(SOURCE).unwrap();
        let base = BaseProfile::of(&program);
        let store = SnapshotStore::new(program);
        let snap = store.ingest("e(c,d).").unwrap();
        let payload = encode_checkpoint(&snap, &base);
        for cut in 0..payload.len() {
            // Every truncation must fail loudly, never panic or
            // silently succeed with partial state.
            assert!(
                restore_checkpoint(parse_program(SOURCE).unwrap(), &payload[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    /// Checkpoints write constants with the log record's codec, so a
    /// constant tag the record refuses is refused on restore too.
    #[test]
    fn checkpoint_constant_with_an_unknown_tag_is_refused() {
        let program = parse_program(SOURCE).unwrap();
        let base = BaseProfile::of(&program);
        let store = SnapshotStore::new(program);
        let snap = store.ingest("e(c, zz_new).").unwrap();
        let mut payload = encode_checkpoint(&snap, &base);
        let mut needle = vec![1u8];
        needle.extend_from_slice(&6u32.to_le_bytes());
        needle.extend_from_slice(b"zz_new");
        let at = payload
            .windows(needle.len())
            .position(|w| w == needle.as_slice())
            .expect("the new constant is a checkpoint extension");
        restore_checkpoint(parse_program(SOURCE).unwrap(), &payload).unwrap();
        payload[at] = 2;
        let err = restore_checkpoint(parse_program(SOURCE).unwrap(), &payload).unwrap_err();
        assert!(err.contains("unknown constant tag 2"), "{err}");
    }

    // --- the codecs under hostile bytes (generative) -------------------

    use proptest::prelude::*;

    /// Random fact batches over a binary relation of the program, a
    /// fresh binary one and a fresh ternary one, mixing string and
    /// integer constants so every tag and every extension table shows
    /// up in the payloads.
    fn batches() -> impl Strategy<Value = Vec<String>> {
        let fact = (0usize..3, 0u32..6, 0u32..6, 0u32..2).prop_map(|(p, a, b, int)| {
            let c = |i: u32| match int {
                0 => format!("k{i}"),
                _ => i.to_string(),
            };
            match p {
                0 => format!("e({}, {}). ", c(a), c(b)),
                1 => format!("f({}, {}). ", c(a), c(b)),
                _ => format!("g({}, {}, {}). ", c(a), c(b), c(a + b)),
            }
        });
        let batch = proptest::collection::vec(fact, 1..5).prop_map(|facts| facts.concat());
        proptest::collection::vec(batch, 1..4)
    }

    /// Ingest `batches`; the last publish's record payload, the final
    /// checkpoint payload and the snapshot they describe.
    fn payloads(batches: &[String]) -> (Vec<u8>, Vec<u8>, Arc<Snapshot>) {
        let program = parse_program(SOURCE).unwrap();
        let base = BaseProfile::of(&program);
        let store = SnapshotStore::new(program);
        let snap = batches
            .iter()
            .map(|b| store.ingest(b).unwrap())
            .last()
            .expect("at least one batch");
        let record = encode_record(&snap);
        (record, encode_checkpoint(&snap, &base), snap)
    }

    fn same_program(a: &Program, b: &Program) {
        assert_eq!(a.preds.len(), b.preds.len());
        assert_eq!(a.consts.len(), b.consts.len());
        for i in 0..a.preds.len() {
            let p = Pred::from_index(i);
            assert_eq!((a.pred_name(p), a.arity(p)), (b.pred_name(p), b.arity(p)));
        }
        for i in 0..a.consts.len() {
            let c = Const::from_index(i);
            assert_eq!(a.consts.value(c), b.consts.value(c));
        }
        assert!(a.facts.iter().eq(b.facts.iter()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `encode → restore` / `encode → decode` round-trip, and every
        /// truncation of either payload is an error.
        #[test]
        fn payloads_round_trip_and_every_truncation_is_refused(batches in batches()) {
            let (record, checkpoint, snap) = payloads(&batches);
            let (restored, epoch) =
                restore_checkpoint(parse_program(SOURCE).unwrap(), &checkpoint).unwrap();
            prop_assert_eq!(epoch, snap.epoch());
            same_program(&restored, snap.program());
            let decoded = decode_record(&record).unwrap();
            prop_assert_eq!(decoded.fingerprint, snap.rules_fingerprint());
            prop_assert_eq!(decoded.rows.len(), snap.delta().total_rows());
            for cut in 0..record.len() {
                prop_assert!(decode_record(&record[..cut]).is_err(), "record cut at {}", cut);
            }
            for cut in 0..checkpoint.len() {
                let fresh = parse_program(SOURCE).unwrap();
                prop_assert!(
                    restore_checkpoint(fresh, &checkpoint[..cut]).is_err(),
                    "checkpoint cut at {}",
                    cut
                );
            }
        }

        /// A single flipped byte anywhere in a valid payload decodes or
        /// is refused — never a panic, never a runaway allocation.  (In
        /// production the frame CRC refuses it first.)
        #[test]
        fn single_byte_flips_never_panic(
            batches in batches(),
            at in 0usize..1 << 16,
            flip in 1u8..=255,
        ) {
            let (mut record, mut checkpoint, _) = payloads(&batches);
            let i = at % record.len();
            record[i] ^= flip;
            let _ = decode_record(&record);
            let i = at % checkpoint.len();
            checkpoint[i] ^= flip;
            let _ = restore_checkpoint(parse_program(SOURCE).unwrap(), &checkpoint);
        }

        /// Arbitrary bytes — bare, and behind a valid header so the
        /// fingerprint / base-profile gates do not shield the body.
        #[test]
        fn arbitrary_bytes_never_panic(junk in proptest::collection::vec(0u8..=255, 0..160)) {
            let _ = decode_record(&junk);
            let _ = restore_checkpoint(parse_program(SOURCE).unwrap(), &junk);
            let (record, checkpoint, _) = payloads(&["e(c,d).".to_string()]);
            let _ = decode_record(&[&record[..8], &junk[..]].concat());
            let behind_header = [&checkpoint[..56], &junk[..]].concat();
            let _ = restore_checkpoint(parse_program(SOURCE).unwrap(), &behind_header);
        }
    }

    #[test]
    fn hostile_counts_are_refused_without_allocating_for_them() {
        // Every count field claims u32::MAX entries over a payload that
        // ends right after it.  Capacity hints are capped by the bytes
        // left, so these are cheap errors, not multi-gigabyte requests.
        let (record, checkpoint, _) = payloads(&["e(c,d).".to_string()]);
        let max = u32::MAX.to_le_bytes();
        assert!(decode_record(&[&record[..8], &max[..]].concat()).is_err());
        // One table entry of arity u32::MAX, then one row claiming it.
        let mut w = ByteWriter::new();
        w.put_u64(0);
        w.put_u32(1);
        w.put_str("p");
        w.put_u32(u32::MAX);
        w.put_u32(1);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        assert!(decode_record(&w.into_bytes()).is_err());
        // The checkpoint's count fields: the reserved set (offset 56),
        // then the predicate extension table behind an empty set.
        for prefix in [&checkpoint[..56], &checkpoint[..60]] {
            let hostile = [prefix, &max[..]].concat();
            assert!(restore_checkpoint(parse_program(SOURCE).unwrap(), &hostile).is_err());
        }
    }

    #[test]
    fn parent_layout_checkpoint_restores_like_the_reserved_zero_one() {
        // Before the durability tiers were removed, the two reserved
        // words carried revision stamps and the reserved set the
        // low-durability predicate ids.  A payload in that layout —
        // non-zero words, non-empty set — must restore to the same
        // program and epoch as what this tree writes.
        let (_, checkpoint, snap) = payloads(&["e(c,d). g(x,y,z).".to_string(), "e(d,a).".into()]);
        let e = snap.program().pred_by_name("e").unwrap();
        let g = snap.program().pred_by_name("g").unwrap();
        let mut w = ByteWriter::new();
        w.put_u64(2); // the low-tier revision stamp
        w.put_u64(1); // the high-tier revision stamp
        let revisions = w.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u32(e.0);
        w.put_u32(g.0); // an extension predicate: checked after the table
        let low_set = w.into_bytes();
        let parent = [
            &checkpoint[..16],
            &revisions[..],
            &checkpoint[32..56],
            &low_set[..],
            &checkpoint[60..],
        ]
        .concat();
        assert_eq!(parent.len(), checkpoint.len() + 8);
        let (ours, ours_epoch) =
            restore_checkpoint(parse_program(SOURCE).unwrap(), &checkpoint).unwrap();
        let (theirs, theirs_epoch) =
            restore_checkpoint(parse_program(SOURCE).unwrap(), &parent).unwrap();
        assert_eq!(ours_epoch, theirs_epoch);
        same_program(&ours, &theirs);
        same_program(&theirs, snap.program());
        // The set's range check survives the fields' retirement.
        let mut bad = parent.clone();
        bad[64..68].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = restore_checkpoint(parse_program(SOURCE).unwrap(), &bad).unwrap_err();
        assert!(err.contains("reserved set"), "{err}");
    }
}
