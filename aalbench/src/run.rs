//! One run of one workload: set-up reps, timed passes, check pass, and —
//! traced — the layer replay; then the metrics.

use crate::check::{load_expected, moped_kinds, verdict_row, verdicts_agree, witness_replays};
use crate::measure::{cpu_ms, mean, median, peak_rss_mib, percentile};
use crate::replay::{ReplayCounts, Replayer};
use crate::trace::Tracer;
use crate::workloads::{
    generate, memory_nets, run_pass, set_up, DeltaOut, PassOut, Unit, Workload,
};
use aalwines::telemetry::millis;
use aalwines::{NetworkPrecomp, Outcome, Verifier};
use netmodel::Network;
use query::parse_query;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Wall-clock length of the timed-pass phase.
    pub seconds: f64,
    pub trace: bool,
    /// Whole passes run even when they do not fit in `seconds`.
    pub min_passes: usize,
    /// Set-up is repeated at least this often ...
    pub min_setup_reps: usize,
    /// ... and until this many seconds are spent on it (40 reps at most).
    pub setup_seconds: f64,
    /// Run the Moped baseline on every slot (`freeze`), not the subset.
    pub moped_every_slot: bool,
}

impl RunConfig {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            min_passes: 5,
            min_setup_reps: 3,
            setup_seconds: 4.0,
            moped_every_slot: false,
        }
    }

    /// The quick shape `--smoke`, `selftest` and `freeze` use.
    pub fn quick(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            min_passes: 2,
            min_setup_reps: 1,
            setup_seconds: 0.0,
            ..Self::new(workload, seed, seconds, trace)
        }
    }
}

const MAX_SETUP_REPS: usize = 40;
/// Fewer timed passes than this and the slot medians are thin: warn.
const THIN_PASSES: usize = 8;

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value)` in `spec::END_TO_END` order (untraced runs).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// `(name, value)` in `spec::PER_LAYER` order (traced runs).
    pub per_layer: Vec<(&'static str, f64)>,
    /// The check pass's verdict rows, one per slot (what `freeze` writes).
    pub rows: Vec<String>,
    /// "frozen" or "cross-engine".
    pub verdict_check: &'static str,
    pub setup_reps: usize,
    pub passes: usize,
    pub slots: usize,
    pub beyond_p90: usize,
    /// Human-readable findings: the first mismatches, warnings, the span table.
    pub notes: Vec<String>,
}

/// Per-slot state folded over the passes.
struct Slots {
    k: Vec<u32>,
    texts: Vec<String>,
    /// The rows every pass is held against: frozen, else the first pass's.
    /// A slot fails when both verdicts are decided and differ.
    reference: Option<Vec<String>>,
    latencies_ms: Vec<Vec<f64>>,
    engine_ms: Vec<Vec<f64>>,
    attempted: usize,
    failed: usize,
    /// Slot runs whose row differs from the reference without contradicting
    /// it: satisfied against inconclusive, or another weight.
    drifted: usize,
    notes: Vec<String>,
}

impl Slots {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// Fold one pass in; returns its verdict rows.
    fn fold(&mut self, pass: &PassOut, timed: bool) -> Vec<String> {
        assert_eq!(pass.slots.len(), self.k.len(), "every pass runs every slot");
        let mut rows = Vec::with_capacity(pass.slots.len());
        for (i, (latency, answer)) in pass.slots.iter().enumerate() {
            self.attempted += 1;
            let row = verdict_row(i, answer, self.k[i], &self.texts[i]);
            match &answer.outcome {
                Outcome::Error(e) => self.fail(format!("slot {i}: error: {e}")),
                Outcome::Aborted(reason) => self.fail(format!("slot {i}: aborted: {reason:?}")),
                outcome => {
                    if let Some(want) = self.reference.as_ref().map(|r| &r[i]) {
                        let want_kind = want.split('\t').nth(1).unwrap_or_default();
                        if !verdicts_agree(outcome.kind(), want_kind) {
                            self.fail(format!("slot {i}: got `{row}`, known answer `{want}`"));
                        } else if *want != row {
                            self.drifted += 1;
                        }
                    }
                }
            }
            if timed {
                self.latencies_ms[i].push(millis(*latency));
                self.engine_ms[i].push(millis(answer.stats.t_total));
            }
            rows.push(row);
        }
        if self.reference.is_none() {
            self.reference = Some(rows.clone());
        }
        rows
    }
}

pub fn execute(cfg: &RunConfig) -> RunResult {
    let workload = cfg.workload;
    let units = generate(workload, cfg.seed);
    let texts: Vec<String> = units
        .iter()
        .flat_map(Unit::slot_texts)
        .map(str::to_string)
        .collect();
    let k: Vec<u32> = texts
        .iter()
        .map(|t| {
            parse_query(t)
                .expect("generated queries parse")
                .max_failures
        })
        .collect();
    let n_slots = texts.len();

    let frozen = load_expected(workload, cfg.seed);
    let mut notes = Vec::new();
    let mut inputs_match = true;
    if let Some(rows) = &frozen {
        let same = rows.len() == n_slots
            && rows
                .iter()
                .zip(&texts)
                .all(|(row, text)| row.rsplit('\t').next() == Some(text.as_str()));
        if !same {
            inputs_match = false;
            notes.push(
                "the frozen file lists other queries than this seed generates: re-run `aalbench freeze`"
                    .to_string(),
            );
        }
    }
    let verdict_check = if frozen.is_some() {
        "frozen"
    } else {
        "cross-engine"
    };
    let mut slots = Slots {
        k,
        texts,
        reference: frozen.clone().filter(|_| inputs_match),
        latencies_ms: vec![Vec::new(); n_slots],
        engine_ms: vec![Vec::new(); n_slots],
        attempted: 0,
        failed: 0,
        drifted: 0,
        notes: Vec::new(),
    };

    let mut off = Tracer::new(false);
    let mut on = Tracer::new(cfg.trace);

    // ---- set-up reps ---------------------------------------------------
    let phase = Instant::now();
    let mut setup_s = Vec::new();
    let mut nets: Vec<Network> = Vec::new();
    while setup_s.len() < cfg.min_setup_reps
        || (phase.elapsed().as_secs_f64() < cfg.setup_seconds && setup_s.len() < MAX_SETUP_REPS)
    {
        let pre_cloned = memory_nets(&units);
        let (took, sessions) = set_up(workload, &units, pre_cloned, setup_s.len() as u32, &mut on);
        setup_s.push(took.as_secs_f64());
        nets = sessions.iter().map(|s| s.network().clone()).collect();
    }

    // ---- timed passes --------------------------------------------------
    // In a traced run every second pass records spans, so the same run
    // yields the traced and the untraced pass wall.
    let phase = Instant::now();
    let cpu_before = cpu_ms();
    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let mut verdicts_timed = 0usize;
    loop {
        let pass_started = Instant::now();
        let with_spans = cfg.trace && (plain.len() + traced.len()) % 2 == 1;
        let tracer = if with_spans { &mut on } else { &mut off };
        let pass = run_pass(workload, &units, &nets, tracer, None);
        slots.fold(&pass, true);
        verdicts_timed += pass.verdicts;
        if with_spans {
            traced.push(pass);
        } else {
            plain.push(pass);
        }
        let done = plain.len() + traced.len();
        let next_ends = phase.elapsed() + pass_started.elapsed();
        if done >= cfg.min_passes && next_ends.as_secs_f64() > cfg.seconds {
            break;
        }
    }
    let cpu_spent = cpu_ms() - cpu_before;
    let peak_rss = peak_rss_mib();
    let passes = plain.len() + traced.len();
    if passes < THIN_PASSES && cfg.min_passes >= 5 {
        notes.push(format!(
            "warning: only {passes} passes fit in {} s; slot medians are thin below {THIN_PASSES}",
            cfg.seconds
        ));
    }

    // ---- check pass ----------------------------------------------------
    let mut replay_failures = Vec::new();
    let check_k = slots.k.clone();
    let mut hook = |slot: usize, net: &Network, text: &str, answer: &aalwines::Answer| {
        if !witness_replays(net, answer, check_k[slot]) {
            replay_failures.push(format!("slot {slot}: witness does not replay: {text}"));
        }
    };
    let check = run_pass(workload, &units, &nets, &mut off, Some(&mut hook));
    let rows = slots.fold(&check, false);
    for failure in replay_failures {
        slots.fail(failure);
    }
    if frozen.is_none() || cfg.moped_every_slot {
        let moped = moped_kinds(&units, &nets, cfg.moped_every_slot);
        for (i, (moped, (_, answer))) in moped.iter().zip(&check.slots).enumerate() {
            if let Some(moped) = moped {
                if !verdicts_agree(answer.outcome.kind(), moped) {
                    slots.fail(format!(
                        "slot {i}: dual says {}, moped says {moped}: {}",
                        answer.outcome.kind(),
                        slots.texts[i]
                    ));
                }
            }
        }
    }

    // ---- metrics -------------------------------------------------------
    let slot_medians: Vec<f64> = slots.latencies_ms.iter().map(|l| median(l)).collect();
    let (p50, _) = percentile(&slot_medians, 0.5);
    let (p90, beyond_p90) = percentile(&slot_medians, 0.9);
    let first = plain.first().expect("at least one untraced pass");
    let decided = first
        .slots
        .iter()
        .filter(|(_, a)| a.outcome.is_conclusive())
        .count();
    let plain_wall_s = median(
        &plain
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );

    let mut result = RunResult {
        workload,
        seed: cfg.seed,
        correct: false,
        attempted: 0,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        rows,
        verdict_check,
        setup_reps: setup_s.len(),
        passes,
        slots: n_slots,
        beyond_p90,
        notes,
    };
    if cfg.trace {
        let layers = Layers {
            cfg,
            units: &units,
            nets: &nets,
            plain: &plain,
            traced: &traced,
            slot_medians: &slot_medians,
            slots: &slots,
            cpu_ms_per_verdict: cpu_spent / verdicts_timed as f64,
        };
        result.per_layer = layers.measure(&mut on, &mut result.notes);
        write_spans(&on, workload, cfg.seed, &mut result.notes);
    } else {
        result.end_to_end = vec![
            ("setup_s", median(&setup_s)),
            ("verdicts_per_s", first.verdicts as f64 / plain_wall_s),
            ("verdict_p50_ms", p50),
            ("verdict_p90_ms", p90),
            ("peak_rss_mb", peak_rss),
            ("decided_share", decided as f64 / n_slots as f64),
        ];
    }
    if slots.drifted > 0 {
        result.notes.push(format!(
            "{} slot runs differ from the known answer in precision only (satisfied/inconclusive or weight): \
             the engine's tie-breaking follows HashMap order, which changes per process",
            slots.drifted
        ));
    }
    result.attempted = slots.attempted;
    result.failed = slots.failed;
    result.correct = slots.failed == 0 && inputs_match;
    result.notes.append(&mut slots.notes);
    result
}

fn write_spans(tracer: &Tracer, workload: Workload, seed: u64, notes: &mut Vec<String>) {
    let dir = std::path::Path::new("target").join("aalbench");
    let path = dir.join(format!("{}.seed{seed}.trace.json", workload.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
    notes.push(format!(
        "{:<40} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    ));
    for (name, count, total, own) in tracer.table() {
        notes.push(format!("{name:<40} {count:>7} {total:>12.3} {own:>12.3}"));
    }
}

/// Everything the per-layer table is computed from.
struct Layers<'a> {
    cfg: &'a RunConfig,
    units: &'a [Unit],
    nets: &'a [Network],
    plain: &'a [PassOut],
    traced: &'a [PassOut],
    slot_medians: &'a [f64],
    slots: &'a Slots,
    cpu_ms_per_verdict: f64,
}

impl Layers<'_> {
    /// Replay the distinct queries layer by layer, then read every
    /// per-layer metric off the spans and the passes' public counters.
    fn measure(&self, tracer: &mut Tracer, notes: &mut Vec<String>) -> Vec<(&'static str, f64)> {
        let workload = self.cfg.workload;
        let opts = workload.verify_options();

        // The replay runs against the dataplane as set up (on
        // `resident_churn`: before the first delta).
        let mut counts = ReplayCounts::default();
        let mut precomp_bytes = 0usize;
        let mut slot = 0u32;
        for (unit, net) in self.units.iter().zip(self.nets) {
            let pre = Arc::new(NetworkPrecomp::new(net));
            precomp_bytes += pre.bytes_resident();
            let reference = Verifier::with_shared_precomp(net, Arc::clone(&pre)).without_cache();
            let replayer = Replayer {
                net,
                pre: &pre,
                reference: &reference,
                opts: &opts,
            };
            let mut seen = HashSet::new();
            for text in unit.slot_texts() {
                if seen.insert(text) {
                    replayer.replay(text, slot, tracer, &mut counts);
                }
                slot += 1;
            }
        }
        let per_query = |prefix: &str| tracer.total_ms(prefix) / counts.queries as f64;
        let replayed_ms = tracer.total_ms("replay");
        let layer_ms: f64 = [
            "query/",
            "engine/",
            "construction/",
            "reduction/",
            "poststar/",
            "shortest/",
            "lift/",
        ]
        .iter()
        .map(|p| tracer.total_ms(p))
        .sum();
        // `reference/verify` parses too, so the comparison is like for like.
        let coverage = layer_ms / tracer.total_ms("reference/verify");
        notes.push(format!(
            "replayed {} distinct queries: layer spans {:.1} ms, replay roots {:.1} ms, reference verify {:.1} ms",
            counts.queries,
            layer_ms,
            replayed_ms,
            tracer.total_ms("reference/verify")
        ));

        let setup = |prefix: &str| median(&tracer.per_root_ms("setup", prefix));
        let parse_ms = setup("formats/");
        let rules: usize = self.nets.iter().map(Network::num_rules).sum();
        let bytes_in: usize = self.units.iter().map(|u| u.source.bytes_in()).sum();

        // Pass-level counters come from the first untraced pass: every pass
        // of one process yields the same ones.
        let first = &self.plain[0];
        let (hits, misses) = first.slots.iter().fold((0, 0), |(h, m), (_, a)| {
            (h + a.stats.cache_hits, m + a.stats.cache_misses)
        });
        let hit_slots: Vec<f64> = first
            .slots
            .iter()
            .zip(self.slot_medians)
            .filter(|((_, a), _)| a.stats.cache_hits > 0 && a.stats.cache_misses == 0)
            .map(|(_, ms)| *ms)
            .collect();
        let per_delta =
            |f: &dyn Fn(&DeltaOut) -> f64| mean(&first.deltas.iter().map(f).collect::<Vec<_>>());
        let delta_ms = median(
            &self
                .plain
                .iter()
                .filter(|p| !p.deltas.is_empty())
                .map(|p| mean(&p.deltas.iter().map(|d| d.millis).collect::<Vec<_>>()))
                .collect::<Vec<_>>(),
        );

        let wall =
            |passes: &[PassOut]| median(&passes.iter().map(|p| millis(p.wall)).collect::<Vec<_>>());
        let (plain_wall, traced_wall) = (wall(self.plain), wall(self.traced));
        let overhead = if self.traced.is_empty() {
            0.0
        } else {
            traced_wall / plain_wall - 1.0
        };

        // Stream-only numbers: the same script sequentially on a fresh
        // session, and what a slot waited beyond the engine's own time.
        let (mut speedup, mut queue_wait, mut emit_us) = (0.0, 0.0, 0.0);
        if workload == Workload::StreamScale {
            let session = workload.session_builder().open(self.nets[0].clone());
            let started = Instant::now();
            for text in self.units[0].slot_texts() {
                session.verify_text(text).expect("generated queries parse");
            }
            speedup = millis(started.elapsed()) / plain_wall;
            let waits: Vec<f64> = self
                .slot_medians
                .iter()
                .zip(&self.slots.engine_ms)
                .map(|(latency, engine)| latency - median(engine))
                .collect();
            queue_wait = mean(&waits);
            let emitted: usize = self.traced.iter().map(|p| p.slots.len()).sum();
            let emit_ms: f64 = self.traced.iter().map(|p| millis(p.emit)).sum();
            emit_us = if emitted == 0 {
                0.0
            } else {
                emit_ms * 1e3 / emitted as f64
            };
        }

        let share = |part: usize, whole: usize| {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        };
        vec![
            ("formats.parse_ms", parse_ms),
            ("formats.bytes_in", bytes_in as f64),
            (
                "formats.rules_per_s",
                if parse_ms > 0.0 {
                    rules as f64 / (parse_ms / 1e3)
                } else {
                    0.0
                },
            ),
            ("netmodel.validate_ms", setup("netmodel/")),
            ("netmodel.rules", rules as f64),
            (
                "netmodel.bytes_resident",
                self.nets.iter().map(Network::bytes_resident).sum::<usize>() as f64,
            ),
            ("precomp.build_ms", setup("precomp/")),
            ("precomp.bytes_resident", precomp_bytes as f64),
            ("dplint.cold_lint_ms", setup("dplint/")),
            ("dplint.relinted_keys", per_delta(&|d| d.relinted as f64)),
            ("query.parse_us", per_query("query/parse_query") * 1e3),
            ("query.compile_ms", per_query("query/compile")),
            (
                "query.nfa_states",
                counts.nfa_states as f64 / counts.queries as f64,
            ),
            (
                "construction.over_ms",
                per_query("construction/build_with.over"),
            ),
            (
                "construction.under_ms",
                per_query("construction/build_with.under"),
            ),
            ("construction.rules", counts.rules as f64),
            ("construction.states", counts.states as f64),
            ("reduction.ms", per_query("reduction/")),
            (
                "reduction.removed_share",
                share(counts.removed, counts.rules),
            ),
            ("poststar.ms", per_query("poststar/")),
            ("poststar.transitions", counts.transitions as f64),
            ("poststar.pops", counts.pops as f64),
            (
                "poststar.peak_worklist_bytes",
                counts.peak_worklist_bytes as f64,
            ),
            ("shortest.ms", per_query("shortest/")),
            ("lift.ms", per_query("lift/")),
            (
                "lift.infeasible_share",
                share(counts.over_infeasible, counts.over_witnesses),
            ),
            ("under.runs_share", share(counts.under_runs, counts.queries)),
            ("cache.hit_share", share(hits, hits + misses)),
            ("cache.hit_ms", median(&hit_slots)),
            ("cache.bytes_resident", first.session_bytes as f64),
            (
                "cache.invalidated_per_delta",
                per_delta(&|d| d.invalidated as f64),
            ),
            (
                "cache.retained_per_delta",
                per_delta(&|d| d.retained as f64),
            ),
            ("session.open_ms", setup("session/open")),
            ("session.delta_ms", delta_ms),
            (
                "session.reverified_per_delta",
                per_delta(&|d| d.reverified as f64),
            ),
            ("stream.speedup_vs_seq", speedup),
            ("stream.queue_wait_ms", queue_wait),
            ("stream.peak_in_flight", first.peak_in_flight as f64),
            ("telemetry.emit_us", emit_us),
            ("proc.cpu_ms_per_verdict", self.cpu_ms_per_verdict),
            ("trace.coverage", coverage),
            ("trace.overhead_share", overhead),
        ]
    }
}
