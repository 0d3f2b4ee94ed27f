//! One shared rendering path for service counters.
//!
//! Every front end reports the same counter set from the same struct:
//! the REPL's `:stats` prints [`StatsReport`]'s [`std::fmt::Display`]
//! text, the HTTP API's `GET /stats` serializes
//! [`StatsReport::to_json`], and `GET /metrics` renders
//! [`StatsReport::export_prometheus`] — the same counters in
//! Prometheus text exposition format.  The three surfaces agree
//! because they render one report, but a new counter is still written
//! out by hand six times: its cell in `ServiceCounters`, its field
//! here, its read in [`crate::QueryService::stats_report`], and one
//! line each in `to_json`, `export_prometheus` and `Display`.

use crate::context::EpochContextStats;
use crate::durable::DurabilityStats;
use crate::plan::CacheStats;
use rq_common::{Json, Registry};

/// A point-in-time snapshot of every counter the service exposes.
///
/// Produced by [`crate::QueryService::stats_report`]; the fields are a
/// consistent-enough read for monitoring (each cache's counters are
/// read atomically, but no lock spans the caches).
#[derive(Clone, Debug, PartialEq)]
pub struct StatsReport {
    /// The current snapshot epoch.
    pub epoch: u64,
    /// Plan-cache hit/miss counters.
    pub plans: CacheStats,
    /// 1 once the service's §3 binary-chain plan is compiled, else 0.
    pub chain_programs: usize,
    /// Distinct §4 `(pred, adornment)` plans compiled.
    pub nary_plans: usize,
    /// Result-cache hit/miss/evict/dedup counters.
    pub results: CacheStats,
    /// Memoized result entries currently held.
    pub result_entries: usize,
    /// Approximate bytes charged to memoized results.
    pub result_bytes: u64,
    /// Evaluated answers the result cache did not admit (first sights
    /// past its admission allowance), service lifetime.
    pub result_refused: u64,
    /// The current epoch context's counters (machine memo, §4 probe
    /// memo, SCC routing, cross-epoch carries).
    pub context: EpochContextStats,
    /// Compact stores (columnar + CSR) built across every publish so
    /// far, read live from the registry counter.
    pub csr_builds: u64,
    /// Total microseconds publishes spent building compact stores.
    pub csr_build_micros: u64,
    /// Index probes served by a compact store, service lifetime.
    pub csr_probes: u64,
    /// Index probes that walked (or built) a hash-trie index, service
    /// lifetime.
    pub trie_probes: u64,
    /// Dirty plans whose warm memos were repaired in place at publish,
    /// service lifetime.
    pub delta_repairs: u64,
    /// Memo and probe rows added by in-place delta repair, service
    /// lifetime.
    pub delta_repaired_rows: u64,
    /// Dirty plans that fell back to cold re-derivation at publish,
    /// service lifetime.
    pub delta_fallback_cold: u64,
    /// Write-ahead-log/checkpoint totals and the boot-time recovery
    /// outcome; `None` when the service is purely in-memory.
    pub durability: Option<DurabilityStats>,
}

impl StatsReport {
    /// Serialize for the HTTP API's `GET /stats` — the same counters,
    /// same grouping, as the `Display` text.
    pub fn to_json(&self) -> Json {
        let int = |n: u64| Json::Int(n as i64);
        let memo = |hits: u64, misses: u64, entries: usize| {
            Json::object([
                ("hits", int(hits)),
                ("misses", int(misses)),
                ("entries", int(entries as u64)),
            ])
        };
        Json::object([
            ("epoch", int(self.epoch)),
            (
                "plan_cache",
                Json::object([
                    ("hits", int(self.plans.hits)),
                    ("misses", int(self.plans.misses)),
                    ("chain_programs", int(self.chain_programs as u64)),
                    ("nary_plans", int(self.nary_plans as u64)),
                ]),
            ),
            (
                "result_cache",
                Json::object([
                    ("hits", int(self.results.hits)),
                    ("misses", int(self.results.misses)),
                    ("evictions", int(self.results.evictions)),
                    ("deduped", int(self.results.deduped)),
                    ("entries", int(self.result_entries as u64)),
                    ("bytes", int(self.result_bytes)),
                    ("refused", int(self.result_refused)),
                ]),
            ),
            (
                "epoch_context",
                Json::object([
                    (
                        "probe_memo",
                        memo(
                            self.context.probe_hits,
                            self.context.probe_misses,
                            self.context.probe_entries,
                        ),
                    ),
                    (
                        "machine_memo",
                        memo(
                            self.context.eval_hits,
                            self.context.eval_misses,
                            self.context.eval_entries,
                        ),
                    ),
                    ("scc_served", int(self.context.scc_served)),
                    (
                        "carried",
                        Json::object([
                            ("machine_entries", int(self.context.eval_carried)),
                            ("probe_spaces", int(self.context.probe_spaces_carried)),
                        ]),
                    ),
                ]),
            ),
            (
                "storage",
                Json::object([
                    ("csr_builds", int(self.csr_builds)),
                    ("csr_build_micros", int(self.csr_build_micros)),
                    ("csr_probes", int(self.csr_probes)),
                    ("trie_probes", int(self.trie_probes)),
                ]),
            ),
            (
                "delta_repair",
                Json::object([
                    ("repairs", int(self.delta_repairs)),
                    ("repaired_rows", int(self.delta_repaired_rows)),
                    ("fallback_cold", int(self.delta_fallback_cold)),
                ]),
            ),
            (
                "durability",
                match &self.durability {
                    None => Json::Null,
                    Some(d) => Json::object([
                        (
                            "wal",
                            Json::object([
                                ("records", int(d.wal_records)),
                                ("bytes", int(d.wal_bytes)),
                                ("checkpoints", int(d.checkpoints)),
                                ("checkpoint_failures", int(d.checkpoint_failures)),
                            ]),
                        ),
                        (
                            "recovery",
                            Json::object([
                                ("epoch", int(d.recovery.recovered_epoch)),
                                (
                                    "checkpoint_epoch",
                                    d.recovery.checkpoint_epoch.map_or(Json::Null, int),
                                ),
                                ("replayed_records", int(d.recovery.replayed_records)),
                                ("skipped_duplicates", int(d.recovery.skipped_duplicates)),
                                ("dropped_records", int(d.recovery.dropped_records)),
                                ("dropped_bytes", int(d.recovery.dropped_bytes)),
                                (
                                    "checkpoint_dropped",
                                    Json::Bool(d.recovery.checkpoint_dropped),
                                ),
                            ]),
                        ),
                    ]),
                },
            ),
        ])
    }

    /// The third renderer: refresh the report-derived gauges on
    /// `registry` and render the whole registry in Prometheus text
    /// exposition format.
    ///
    /// The cache hit/miss counters are deliberately **not** copied
    /// here — the service adopted the caches' own
    /// [`rq_common::obs::Counter`] cells into the registry at
    /// construction (`rq_plan_cache_*_total`,
    /// `rq_result_cache_*_total`), so those families export live
    /// values with no transcription step.  Only point-in-time values
    /// (sizes, epoch, per-epoch memo counters that reset on publish)
    /// travel through this report as gauges.
    pub fn export_prometheus(&self, registry: &Registry) -> String {
        let gauge = |name, help, v: i64| registry.gauge(name, help).set(v);
        let clamp = |n: u64| n.min(i64::MAX as u64) as i64;
        gauge("rq_epoch", "Current snapshot epoch.", clamp(self.epoch));
        gauge(
            "rq_plan_cache_chain_programs",
            "Distinct §3 binary-chain programs compiled.",
            clamp(self.chain_programs as u64),
        );
        gauge(
            "rq_plan_cache_nary_plans",
            "Distinct §4 (pred, adornment) plans compiled.",
            clamp(self.nary_plans as u64),
        );
        gauge(
            "rq_result_cache_entries",
            "Memoized result entries currently held.",
            clamp(self.result_entries as u64),
        );
        gauge(
            "rq_result_cache_bytes",
            "Approximate bytes charged to memoized results.",
            clamp(self.result_bytes),
        );
        gauge(
            "rq_epoch_context_probe_hits",
            "This epoch's §4 probe-memo hits.",
            clamp(self.context.probe_hits),
        );
        gauge(
            "rq_epoch_context_probe_misses",
            "This epoch's §4 probe-memo misses.",
            clamp(self.context.probe_misses),
        );
        gauge(
            "rq_epoch_context_probe_entries",
            "This epoch's memoized §4 probe results.",
            clamp(self.context.probe_entries as u64),
        );
        gauge(
            "rq_epoch_context_machine_hits",
            "This epoch's machine-memo hits.",
            clamp(self.context.eval_hits),
        );
        gauge(
            "rq_epoch_context_machine_misses",
            "This epoch's machine-memo misses.",
            clamp(self.context.eval_misses),
        );
        gauge(
            "rq_epoch_context_machine_entries",
            "This epoch's memoized machine traversals.",
            clamp(self.context.eval_entries as u64),
        );
        gauge(
            "rq_epoch_context_scc_served",
            "This epoch's all-free queries served through the shared-SCC path.",
            clamp(self.context.scc_served),
        );
        gauge(
            "rq_epoch_context_machine_entries_carried",
            "Machine-memo entries inherited from the previous epoch.",
            clamp(self.context.eval_carried),
        );
        gauge(
            "rq_epoch_context_probe_spaces_carried",
            "Probe spaces inherited from the previous epoch.",
            clamp(self.context.probe_spaces_carried),
        );
        if let Some(d) = &self.durability {
            // The `rq_wal_*_total` counters are live registry cells;
            // only the boot-time recovery outcome travels as gauges.
            gauge(
                "rq_recovery_epoch",
                "Epoch boot-time recovery restored the service to.",
                clamp(d.recovery.recovered_epoch),
            );
            gauge(
                "rq_recovery_checkpoint_epoch",
                "Checkpoint epoch recovery started from (-1 = no checkpoint).",
                d.recovery.checkpoint_epoch.map_or(-1, clamp),
            );
            gauge(
                "rq_recovery_replayed_records",
                "Write-ahead-log records replayed at boot.",
                clamp(d.recovery.replayed_records),
            );
            gauge(
                "rq_recovery_skipped_duplicates",
                "Verified log records skipped as already checkpointed.",
                clamp(d.recovery.skipped_duplicates),
            );
            gauge(
                "rq_recovery_dropped_records",
                "Torn or corrupt trailing log records dropped at boot.",
                clamp(d.recovery.dropped_records),
            );
            gauge(
                "rq_recovery_dropped_bytes",
                "Unverifiable trailing log bytes dropped at boot.",
                clamp(d.recovery.dropped_bytes),
            );
            gauge(
                "rq_recovery_checkpoint_dropped",
                "Whether a checkpoint blob existed but failed verification.",
                i64::from(d.recovery.checkpoint_dropped),
            );
        }
        registry.render()
    }
}

impl std::fmt::Display for StatsReport {
    /// The `:stats` text of the serving REPL — one line per layer.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "epoch {}", self.epoch)?;
        writeln!(
            f,
            "plan cache:   {} hits / {} misses ({} chain program(s), {} §4 plan(s))",
            self.plans.hits, self.plans.misses, self.chain_programs, self.nary_plans,
        )?;
        writeln!(
            f,
            "result cache: {} hits / {} misses / {} evictions / {} deduped ({} entr(ies), ~{} bytes), {} refused",
            self.results.hits,
            self.results.misses,
            self.results.evictions,
            self.results.deduped,
            self.result_entries,
            self.result_bytes,
            self.result_refused,
        )?;
        writeln!(
            f,
            "epoch context: probe memo {} hits / {} misses ({} entr(ies)), machine memo {} hits / {} misses ({} entr(ies)), {} scc-served, carried {} machine entr(ies) / {} probe space(s)",
            self.context.probe_hits,
            self.context.probe_misses,
            self.context.probe_entries,
            self.context.eval_hits,
            self.context.eval_misses,
            self.context.eval_entries,
            self.context.scc_served,
            self.context.eval_carried,
            self.context.probe_spaces_carried,
        )?;
        writeln!(
            f,
            "storage:      {} csr build(s) ({} µs), probes {} csr / {} trie",
            self.csr_builds, self.csr_build_micros, self.csr_probes, self.trie_probes,
        )?;
        write!(
            f,
            "delta repair: {} repair(s) / {} row(s) patched / {} cold fallback(s)",
            self.delta_repairs, self.delta_repaired_rows, self.delta_fallback_cold,
        )?;
        if let Some(d) = &self.durability {
            write!(
                f,
                "\ndurability:   {} wal record(s) ({} bytes), {} checkpoint(s) / {} failure(s); recovered epoch {} ({} replayed, {} skipped, {} dropped)",
                d.wal_records,
                d.wal_bytes,
                d.checkpoints,
                d.checkpoint_failures,
                d.recovery.recovered_epoch,
                d.recovery.replayed_records,
                d.recovery.skipped_duplicates,
                d.recovery.dropped_records,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StatsReport {
        StatsReport {
            epoch: 3,
            plans: CacheStats {
                hits: 5,
                misses: 2,
                ..CacheStats::default()
            },
            chain_programs: 1,
            nary_plans: 2,
            results: CacheStats {
                hits: 10,
                misses: 4,
                evictions: 1,
                deduped: 3,
            },
            result_entries: 7,
            result_bytes: 1234,
            result_refused: 11,
            context: EpochContextStats {
                eval_hits: 6,
                eval_misses: 2,
                eval_entries: 4,
                probe_hits: 9,
                probe_misses: 3,
                probe_entries: 5,
                scc_served: 1,
                eval_carried: 2,
                probe_spaces_carried: 1,
            },
            csr_builds: 2,
            csr_build_micros: 150,
            csr_probes: 40,
            trie_probes: 8,
            delta_repairs: 3,
            delta_repaired_rows: 12,
            delta_fallback_cold: 1,
            durability: Some(DurabilityStats {
                wal_records: 9,
                wal_bytes: 640,
                checkpoints: 2,
                checkpoint_failures: 0,
                recovery: crate::durable::RecoveryReport {
                    recovered_epoch: 7,
                    checkpoint_epoch: Some(6),
                    replayed_records: 1,
                    skipped_duplicates: 2,
                    dropped_records: 1,
                    dropped_bytes: 33,
                    checkpoint_dropped: false,
                },
            }),
        }
    }

    #[test]
    fn display_covers_every_layer() {
        let text = report().to_string();
        assert!(text.contains("epoch 3"));
        assert!(text.contains("plan cache:   5 hits / 2 misses (1 chain program(s), 2 §4 plan(s))"));
        assert!(text.contains(
            "result cache: 10 hits / 4 misses / 1 evictions / 3 deduped (7 entr(ies), ~1234 bytes)"
        ));
        assert!(text.contains("probe memo 9 hits / 3 misses (5 entr(ies))"));
        assert!(text.contains("machine memo 6 hits / 2 misses (4 entr(ies))"));
        assert!(text.contains("1 scc-served"));
        assert!(text.contains("carried 2 machine entr(ies) / 1 probe space(s)"));
        assert!(text.contains("storage:      2 csr build(s) (150 µs), probes 40 csr / 8 trie"));
        assert!(text.contains("delta repair: 3 repair(s) / 12 row(s) patched / 1 cold fallback(s)"));
        assert!(text.contains(
            "durability:   9 wal record(s) (640 bytes), 2 checkpoint(s) / 0 failure(s); recovered epoch 7 (1 replayed, 2 skipped, 1 dropped)"
        ));
        // An in-memory service's report stays silent about durability.
        let mut memory = report();
        memory.durability = None;
        assert!(!memory.to_string().contains("durability:"));
    }

    #[test]
    fn json_mirrors_the_display_counters() {
        let json = report().to_json();
        assert_eq!(json.get("epoch").and_then(Json::as_i64), Some(3));
        let plans = json.get("plan_cache").unwrap();
        assert_eq!(plans.get("hits").and_then(Json::as_i64), Some(5));
        assert_eq!(plans.get("nary_plans").and_then(Json::as_i64), Some(2));
        let results = json.get("result_cache").unwrap();
        assert_eq!(results.get("deduped").and_then(Json::as_i64), Some(3));
        assert_eq!(results.get("bytes").and_then(Json::as_i64), Some(1234));
        let ctx = json.get("epoch_context").unwrap();
        assert_eq!(
            ctx.get("machine_memo")
                .unwrap()
                .get("hits")
                .and_then(Json::as_i64),
            Some(6)
        );
        assert_eq!(ctx.get("scc_served").and_then(Json::as_i64), Some(1));
        assert_eq!(
            ctx.get("carried")
                .unwrap()
                .get("probe_spaces")
                .and_then(Json::as_i64),
            Some(1)
        );
        let storage = json.get("storage").unwrap();
        assert_eq!(storage.get("csr_builds").and_then(Json::as_i64), Some(2));
        assert_eq!(storage.get("csr_probes").and_then(Json::as_i64), Some(40));
        assert_eq!(storage.get("trie_probes").and_then(Json::as_i64), Some(8));
        let repair = json.get("delta_repair").unwrap();
        assert_eq!(repair.get("repairs").and_then(Json::as_i64), Some(3));
        assert_eq!(repair.get("repaired_rows").and_then(Json::as_i64), Some(12));
        assert_eq!(repair.get("fallback_cold").and_then(Json::as_i64), Some(1));
        let durability = json.get("durability").unwrap();
        let wal = durability.get("wal").unwrap();
        assert_eq!(wal.get("records").and_then(Json::as_i64), Some(9));
        assert_eq!(wal.get("bytes").and_then(Json::as_i64), Some(640));
        assert_eq!(wal.get("checkpoints").and_then(Json::as_i64), Some(2));
        let recovery = durability.get("recovery").unwrap();
        assert_eq!(recovery.get("epoch").and_then(Json::as_i64), Some(7));
        assert_eq!(
            recovery.get("checkpoint_epoch").and_then(Json::as_i64),
            Some(6)
        );
        assert_eq!(
            recovery.get("replayed_records").and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(
            recovery.get("dropped_records").and_then(Json::as_i64),
            Some(1)
        );
        assert_eq!(recovery.get("checkpoint_dropped"), Some(&Json::Bool(false)));
        // An in-memory report serializes the section as null.
        let mut memory = report();
        memory.durability = None;
        assert_eq!(memory.to_json().get("durability"), Some(&Json::Null));
        // Round-trips through the shared codec.
        let round = Json::parse(&json.encode()).unwrap();
        assert_eq!(round, json);
    }

    #[test]
    fn prometheus_export_mirrors_the_report() {
        let registry = Registry::new();
        let text = report().export_prometheus(&registry);
        assert!(text.contains("# TYPE rq_epoch gauge\n"), "{text}");
        assert!(text.contains("rq_epoch 3\n"));
        assert!(text.contains("rq_plan_cache_chain_programs 1\n"));
        assert!(text.contains("rq_result_cache_entries 7\n"));
        assert!(text.contains("rq_result_cache_bytes 1234\n"));
        assert!(text.contains("rq_epoch_context_probe_hits 9\n"));
        assert!(text.contains("rq_epoch_context_scc_served 1\n"));
        assert!(text.contains("rq_epoch_context_probe_spaces_carried 1\n"));
        assert!(text.contains("rq_recovery_epoch 7\n"), "{text}");
        assert!(text.contains("rq_recovery_checkpoint_epoch 6\n"));
        assert!(text.contains("rq_recovery_replayed_records 1\n"));
        assert!(text.contains("rq_recovery_dropped_records 1\n"));
        assert!(text.contains("rq_recovery_dropped_bytes 33\n"));
        assert!(text.contains("rq_recovery_checkpoint_dropped 0\n"));
        // A second export refreshes the gauges in place instead of
        // duplicating families.
        let again = report().export_prometheus(&registry);
        assert_eq!(again.matches("\nrq_epoch 3\n").count(), 1);
    }

    #[test]
    fn refusals_rise_past_the_allowance_and_stay_zero_on_repeats() {
        let sources = crate::results::ADMISSION_ALLOWANCE + 100;
        let mut text = String::from("tc(X,Y) :- e(X,Y).\ntc(X,Z) :- e(X,Y), tc(Y,Z).\n");
        for i in 0..sources {
            text.push_str(&format!("e(s{i}, t{i}).\n"));
        }
        let query = |service: &crate::QueryService, i: usize| {
            let spec = service.parse_query(&format!("tc(s{i}, Y)")).unwrap();
            assert_eq!(service.query(&spec).unwrap().rows.len(), 1);
        };
        let repeated = crate::QueryService::from_source(&text).unwrap();
        for _ in 0..3 {
            for i in 0..100 {
                query(&repeated, i);
            }
        }
        assert_eq!(repeated.stats_report().result_refused, 0);
        let one_shot = crate::QueryService::from_source(&text).unwrap();
        for i in 0..sources {
            query(&one_shot, i);
        }
        let report = one_shot.stats_report();
        assert_eq!(report.result_refused, 100);
        let results = report.to_json().get("result_cache").unwrap().clone();
        assert_eq!(results.get("refused").and_then(Json::as_i64), Some(100));
        let text = one_shot.metrics_prometheus();
        assert!(
            text.contains("rq_result_cache_refused_total 100\n"),
            "{text}"
        );
        one_shot.ingest("e(z0, z1).").unwrap();
        let report = one_shot.stats_report();
        assert_eq!(report.result_refused, 100, "runs on across a publish");
    }
}
