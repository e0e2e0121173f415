//! The traced run's layer replay: one query, cache-less, through the
//! engine's public functions in the order `Verifier` calls them, with one
//! span per call. The counts come from the values those functions return.

use crate::trace::Tracer;
use aalwines::construction::{build_with, ApproxMode, NetworkPrecomp};
use aalwines::lift::{lift_run, trace_pairs};
use aalwines::quantities::StepMeasure;
use aalwines::{quick_decide, Engine, Verifier, VerifyOptions};
use netmodel::{feasible_failures, Network};
use pdaal::reduction::reduce;
use pdaal::witness::reconstruct_run;
use pdaal::{
    post_star_threaded, shortest_accepted_budgeted, Budget, MinTotal, MinVector, StateId,
    Unweighted, Weight,
};
use query::{compile, parse_query, CompiledQuery};

#[derive(Default)]
pub struct ReplayCounts {
    pub queries: usize,
    pub nfa_states: usize,
    pub rules: usize,
    pub states: usize,
    pub removed: usize,
    pub transitions: usize,
    pub pops: usize,
    pub peak_worklist_bytes: usize,
    /// Over-approximation witnesses found, and how many of them were
    /// rejected by the feasibility check.
    pub over_witnesses: usize,
    pub over_infeasible: usize,
    pub under_runs: usize,
}

enum Phase {
    Empty,
    Witness,
    Infeasible,
}

pub struct Replayer<'a> {
    pub net: &'a Network,
    pub pre: &'a NetworkPrecomp,
    /// The cache-less engine whose wall time the layer spans must add up to.
    pub reference: &'a Verifier<'a>,
    pub opts: &'a VerifyOptions,
}

impl Replayer<'_> {
    /// Replay `text`; returns the verdict kind the layers arrive at.
    pub fn replay(
        &self,
        text: &str,
        slot: u32,
        tracer: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> &'static str {
        let slot = Some(slot);
        counts.queries += 1;

        let reference = tracer.begin("reference/verify", slot);
        let parsed = parse_query(text).expect("generated queries parse");
        let reference_kind = self.reference.verify(&parsed, self.opts).outcome.kind();
        tracer.end(reference);

        let root = tracer.begin("replay", slot);
        let parsed = tracer
            .time("query/parse_query", slot, || parse_query(text))
            .expect("generated queries parse");
        let cq = tracer.time("query/compile", slot, || compile(&parsed, self.net));
        counts.nfa_states +=
            (cq.initial.num_states() + cq.path.num_states() + cq.final_.num_states()) as usize;
        let quick = tracer.time("engine/quick_decide", slot, || quick_decide(&cq, self.net));
        let kind = if quick.is_some() {
            "unsatisfied"
        } else {
            self.dual(&cq, slot, tracer, counts)
        };
        tracer.end(root);
        assert_eq!(
            kind, reference_kind,
            "the replayed layers reach the engine's verdict for {text}"
        );
        kind
    }

    fn dual(
        &self,
        cq: &CompiledQuery,
        slot: Option<u32>,
        tracer: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> &'static str {
        // The weight domains `Verifier` picks: unweighted over-phase with a
        // failure-guided under-phase, or the user's vector for both.
        let over = match &self.opts.weights {
            None => self.phase(cq, ApproxMode::Over, &|_| Unweighted, slot, tracer, counts),
            Some(spec) => self.phase::<MinVector>(
                cq,
                ApproxMode::Over,
                &|m| spec.weigh(m),
                slot,
                tracer,
                counts,
            ),
        };
        match over {
            Phase::Empty => return "unsatisfied",
            Phase::Witness => {
                counts.over_witnesses += 1;
                return "satisfied";
            }
            Phase::Infeasible => {
                counts.over_witnesses += 1;
                counts.over_infeasible += 1;
            }
        }
        counts.under_runs += 1;
        let under = match &self.opts.weights {
            None => self.phase(
                cq,
                ApproxMode::Under,
                &|m| MinTotal(m.failures),
                slot,
                tracer,
                counts,
            ),
            Some(spec) => self.phase::<MinVector>(
                cq,
                ApproxMode::Under,
                &|m| spec.weigh(m),
                slot,
                tracer,
                counts,
            ),
        };
        match under {
            Phase::Witness => "satisfied",
            _ => "inconclusive",
        }
    }

    fn phase<W: Weight + Send + Sync>(
        &self,
        cq: &CompiledQuery,
        mode: ApproxMode,
        weigh: &dyn Fn(&StepMeasure) -> W,
        slot: Option<u32>,
        tracer: &mut Tracer,
        counts: &mut ReplayCounts,
    ) -> Phase {
        let build = match mode {
            ApproxMode::Over => "construction/build_with.over",
            ApproxMode::Under => "construction/build_with.under",
        };
        let cons = tracer.time(build, slot, || build_with(self.pre, cq, mode, weigh));
        counts.rules += cons.pds.num_rules();
        counts.states += cons.pds.num_states() as usize;
        let (pds, removed) = tracer.time("reduction/reduce", slot, || {
            reduce(&cons.pds, &cons.initial, &cons.finals)
        });
        counts.removed += removed;

        let budget = Budget::unlimited();
        let (sat, stats) = tracer
            .time("poststar/post_star_threaded", slot, || {
                post_star_threaded(&pds, &cons.initial, &budget, 1)
            })
            .unwrap_or_else(|_| unreachable!("an unlimited budget does not abort"));
        counts.transitions += stats.transitions;
        counts.pops += stats.worklist_pops;
        counts.peak_worklist_bytes = counts.peak_worklist_bytes.max(stats.peak_worklist_bytes);

        let starts: Vec<(StateId, W)> = cons.finals.iter().map(|s| (*s, W::one())).collect();
        let found = tracer
            .time("shortest/shortest_accepted_budgeted", slot, || {
                shortest_accepted_budgeted(&sat, &starts, &cq.final_, &budget)
            })
            .unwrap_or_else(|_| unreachable!("an unlimited budget does not abort"));
        let Some(path) = found else {
            tracer.time("engine/drop", slot, || drop((cons, pds, sat)));
            return Phase::Empty;
        };
        let run = tracer.time("shortest/reconstruct_run", slot, || {
            reconstruct_run(&pds, &sat, &path.transitions, &path.word)
        });
        let trace = run.ok().and_then(|run| {
            tracer
                .time("lift/lift_run", slot, || {
                    lift_run(self.net, &pds, &cons.meta, &run)
                })
                .ok()
        });
        let failed = trace.and_then(|trace| {
            tracer.time("lift/feasible_failures", slot, || {
                feasible_failures(self.net, &trace_pairs(&trace))
            })
        });
        let phase = match failed {
            Some(failed) if failed.len() as u32 <= cq.max_failures => Phase::Witness,
            _ => Phase::Infeasible,
        };
        // Freeing the PDSs and the saturated automaton is part of a verdict.
        tracer.time("engine/drop", slot, || drop((cons, pds, sat)));
        phase
    }
}
