//! Mobility as a fault-plan dimension: seeded, serde-able movement
//! schedules that compile next to a [`crate::FaultPlan`].
//!
//! The dLTE argument (§4.2) stands or falls on what happens when UEs
//! *move* while the network is failing — the "handover storm". Like
//! [`crate::FaultPlan`], a [`MovePlan`] is plain data: all randomness
//! happens at generation time ([`MovePlan::commuter_mix`]), `compile`
//! yields a sorted timeline, and [`MovePlan::shrink_candidates`] gives the
//! fuzzer's repro shrinker strictly-simpler variants, so a minimized
//! moving-UE chaos case replays bit-for-bit from its JSON.
//!
//! The plan speaks in *AP indices* (`0..n_aps`); the topology layer maps
//! them onto each UE's cell list when it arms the schedule.

use dlte_sim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// One scheduled cell change: UE number `ue` moves to AP number `ap` at
/// `at_s` seconds of simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MoveSpec {
    pub ue: usize,
    pub at_s: f64,
    pub ap: usize,
}

/// A seeded population-movement schedule. The `seed` is provenance (plans
/// from [`MovePlan::commuter_mix`] record the seed that generated them);
/// replaying a plan uses only its `moves` list.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MovePlan {
    #[serde(default)]
    pub seed: u64,
    #[serde(default)]
    pub moves: Vec<MoveSpec>,
}

impl MovePlan {
    pub fn new(seed: u64) -> MovePlan {
        MovePlan {
            seed,
            moves: Vec::new(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Append a move (builder style).
    pub fn with(mut self, spec: MoveSpec) -> MovePlan {
        self.moves.push(spec);
        self
    }

    /// The timeline sorted by time, then UE, then target AP — a pure
    /// function of the *set* of moves, like `FaultPlan::compile`.
    pub fn compile(&self) -> Vec<(SimTime, MoveSpec)> {
        let mut out: Vec<(SimTime, MoveSpec)> =
            self.moves.iter().map(|&m| (at_time(m.at_s), m)).collect();
        out.sort_by_key(|&(t, m)| (t, m.ue, m.ap));
        out
    }

    /// One UE's schedule, sorted by time, as `(time, target AP)` pairs —
    /// exactly `compile()` filtered to `ue`, at the cost of one pass over
    /// the plan plus a sort of that UE's moves: with `ue` fixed, the
    /// `(t, ue, ap)` order is the `(t, ap)` order, and moves with equal
    /// keys yield equal pairs.
    pub fn schedule_for(&self, ue: usize) -> Vec<(SimTime, usize)> {
        let mut out: Vec<(SimTime, usize)> = self
            .moves
            .iter()
            .filter(|m| m.ue == ue)
            .map(|m| (at_time(m.at_s), m.ap))
            .collect();
        out.sort_unstable();
        out
    }

    /// Latest scheduled move (used to size run horizons).
    pub fn last_move_time(&self) -> SimTime {
        self.compile()
            .last()
            .map(|&(t, _)| t)
            .unwrap_or(SimTime::ZERO)
    }

    /// Strictly simpler plans, in a deterministic order: first the plan
    /// with each single move removed, then the plan with each UE's whole
    /// schedule removed (only when that sheds more than one move — the
    /// single-move case is already covered). Every candidate has strictly
    /// fewer moves, so greedy shrinking terminates.
    pub fn shrink_candidates(&self) -> Vec<MovePlan> {
        let mut out = Vec::new();
        for i in 0..self.moves.len() {
            let mut p = self.clone();
            p.moves.remove(i);
            out.push(p);
        }
        let mut ues: Vec<usize> = self.moves.iter().map(|m| m.ue).collect();
        ues.sort_unstable();
        ues.dedup();
        for ue in ues {
            if self.moves.iter().filter(|m| m.ue == ue).count() > 1 {
                let mut p = self.clone();
                p.moves.retain(|m| m.ue != ue);
                out.push(p);
            }
        }
        out
    }

    /// Generate a commuter-rush movement mix: each of `n_ues` UEs walks a
    /// seeded waypoint tour over `n_aps` APs, dwelling `dwell_min_s..
    /// dwell_max_s` per stop, with moves confined to `[start_s, end_s)`.
    /// All randomness happens here; the returned plan is plain data.
    pub fn commuter_mix(
        seed: u64,
        n_ues: usize,
        n_aps: usize,
        dwell_min_s: f64,
        dwell_max_s: f64,
        start_s: f64,
        end_s: f64,
    ) -> MovePlan {
        let mut plan = MovePlan::new(seed);
        if n_aps < 2 {
            return plan;
        }
        let root = SimRng::new(seed).fork("move-plan");
        for ue in 0..n_ues {
            let mut rng = root.fork_idx("ue", ue as u64);
            // Each UE starts at its home AP (ue % n_aps, the topology
            // convention) and hops to a uniformly-drawn *other* AP.
            let mut here = ue % n_aps;
            let mut t = start_s + rng.uniform(0.0, dwell_max_s.max(dwell_min_s));
            while t < end_s {
                let mut next = rng.index(n_aps - 1);
                if next >= here {
                    next += 1;
                }
                plan.moves.push(MoveSpec {
                    ue,
                    at_s: t,
                    ap: next,
                });
                here = next;
                t += rng.uniform(dwell_min_s, dwell_max_s.max(dwell_min_s));
            }
        }
        plan
    }
}

/// A move's simulated time: `at_s` seconds, negative times clamped to 0.
fn at_time(at_s: f64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(at_s.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_sorts_and_clamps() {
        let plan = MovePlan::new(1)
            .with(MoveSpec {
                ue: 1,
                at_s: 3.0,
                ap: 0,
            })
            .with(MoveSpec {
                ue: 0,
                at_s: -1.0,
                ap: 1,
            })
            .with(MoveSpec {
                ue: 0,
                at_s: 3.0,
                ap: 2,
            });
        let timeline = plan.compile();
        assert_eq!(timeline[0].0, SimTime::ZERO, "negative times clamp");
        assert_eq!(timeline[0].1.ue, 0);
        // Same instant orders by (ue, ap), not insertion.
        assert_eq!(timeline[1].1.ue, 0);
        assert_eq!(timeline[2].1.ue, 1);
        assert_eq!(plan.last_move_time(), SimTime::from_secs(3));
        assert_eq!(plan.schedule_for(1), vec![(SimTime::from_secs(3), 0)]);
    }

    #[test]
    fn commuter_mix_is_deterministic_and_in_window() {
        let a = MovePlan::commuter_mix(7, 4, 3, 0.5, 1.5, 2.0, 8.0);
        let b = MovePlan::commuter_mix(7, 4, 3, 0.5, 1.5, 2.0, 8.0);
        let c = MovePlan::commuter_mix(8, 4, 3, 0.5, 1.5, 2.0, 8.0);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, c, "different seed, different plan");
        assert!(!a.is_empty());
        for m in &a.moves {
            assert!((2.0..8.0).contains(&m.at_s), "move at {}", m.at_s);
            assert!(m.ap < 3);
        }
        // Consecutive moves of one UE never target the AP it sits on.
        for ue in 0..4 {
            let mut here = ue % 3;
            for (_, ap) in a.schedule_for(ue) {
                assert_ne!(ap, here, "self-move for ue {ue}");
                here = ap;
            }
        }
    }

    #[test]
    fn one_ap_generates_no_moves() {
        assert!(MovePlan::commuter_mix(1, 3, 1, 0.5, 1.0, 2.0, 8.0).is_empty());
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler_and_terminate() {
        let plan = MovePlan::commuter_mix(3, 3, 3, 0.4, 0.8, 2.0, 6.0);
        assert!(plan.moves.len() > 3);
        let candidates = plan.shrink_candidates();
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert!(c.moves.len() < plan.moves.len(), "strictly smaller");
        }
        // Greedy always-take-first shrinking reaches the empty plan.
        let mut current = plan;
        let mut rounds = 0;
        while let Some(next) = current.shrink_candidates().into_iter().next() {
            current = next;
            rounds += 1;
            assert!(rounds < 10_000, "shrinking did not terminate");
        }
        assert!(current.is_empty());
    }

    #[test]
    fn plan_serde_round_trips_and_defaults() {
        let plan = MovePlan::commuter_mix(5, 2, 3, 0.5, 1.0, 2.0, 6.0);
        let json = serde_json::to_string(&plan).unwrap();
        let back: MovePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        // Old documents without the field parse as the empty plan.
        let empty: MovePlan = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty, MovePlan::default());
    }

    /// `schedule_for` against its definition: the whole compiled
    /// timeline, filtered to one UE.
    mod schedule_equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Times on a half-second grid (with negatives) make same-instant
        /// moves across UEs common; the free draw covers the rest.
        fn arb_at_s() -> impl Strategy<Value = f64> {
            prop_oneof![(-4i32..8).prop_map(|k| f64::from(k) * 0.5), -5.0f64..10.0]
        }

        /// Moves of UEs `0..4`, plus copies of some of them (duplicate
        /// moves), in an arbitrary order.
        fn arb_plan() -> impl Strategy<Value = MovePlan> {
            (
                prop::collection::vec((0usize..4, arb_at_s(), 0usize..3), 0..24),
                prop::collection::vec(any::<usize>(), 0..6),
            )
                .prop_map(|(moves, dups)| {
                    let mut plan = MovePlan::new(0);
                    for (ue, at_s, ap) in moves {
                        plan = plan.with(MoveSpec { ue, at_s, ap });
                    }
                    for i in dups {
                        if !plan.moves.is_empty() {
                            let m = plan.moves[i % plan.moves.len()];
                            plan.moves.insert(i % (plan.moves.len() + 1), m);
                        }
                    }
                    plan
                })
        }

        proptest! {
            /// Equal for every UE, including UEs `4..6`, which never move.
            #[test]
            fn schedule_for_is_the_filtered_timeline(plan in arb_plan()) {
                let timeline = plan.compile();
                for ue in 0..6 {
                    let want: Vec<(SimTime, usize)> = timeline
                        .iter()
                        .filter(|&&(_, m)| m.ue == ue)
                        .map(|&(t, m)| (t, m.ap))
                        .collect();
                    prop_assert_eq!(plan.schedule_for(ue), want, "ue {} of {:?}", ue, plan);
                }
            }
        }
    }
}
