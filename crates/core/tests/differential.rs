//! Differential tests: the transpose-cached reachability engine and the
//! memoized CSP finder against the naive reference implementations kept in
//! [`gqs_core::reference`].
//!
//! Random digraphs and failure patterns come from a seeded SplitMix64 (see
//! `common`), so every run replays the same cases. These tests are the
//! safety net for the perf work: any divergence between the optimized and
//! the reference pipeline fails here before it can skew an experiment.

mod common;

use common::{
    bridge_raw, build, grid_raw, random_fail_prone, random_pattern, random_raw, ring_raw, RawGraph,
    SplitMix64,
};
use gqs_core::finder::{
    explain_unsolvable, find_gqs, find_qs_plus, find_threshold_gqs, gqs_exists,
    gqs_exists_brute_force, qs_plus_exists, Unsolvability,
};
use gqs_core::reference::{gqs_exists_naive, NaiveResidual};
use gqs_core::{FailProneSystem, NetworkGraph, ProcessId, ProcessSet};

/// `reach_from` agrees with the naive engine on random residual graphs,
/// in any query order (cache-independence).
#[test]
fn reach_from_matches_reference() {
    for case in 0..160 {
        let mut rng = SplitMix64::new(5_000 + case);
        let raw = random_raw(16, &mut rng);
        let g = build(&raw);
        let f = random_pattern(&raw, 0.2, 0.3, &mut rng);
        let fast = g.residual(&f);
        let slow = NaiveResidual::build(&g, &f);
        // Query in a scrambled order so cache-fill order varies by case.
        let mut order: Vec<usize> = (0..raw.n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range(0, i as u64) as usize);
        }
        for &p in &order {
            assert_eq!(
                fast.reach_from(ProcessId(p)),
                slow.reach_from(ProcessId(p)),
                "reach_from({p}) diverged (case {case})"
            );
        }
        // Second pass hits the cache; answers must not change.
        for &p in &order {
            assert_eq!(fast.reach_from(ProcessId(p)), slow.reach_from(ProcessId(p)));
        }
    }
}

/// The transpose-BFS `reach_to` agrees with the quadratic fixpoint.
#[test]
fn reach_to_matches_reference() {
    for case in 0..160 {
        let mut rng = SplitMix64::new(6_000 + case);
        let raw = random_raw(16, &mut rng);
        let g = build(&raw);
        let f = random_pattern(&raw, 0.2, 0.3, &mut rng);
        let fast = g.residual(&f);
        let slow = NaiveResidual::build(&g, &f);
        for p in 0..raw.n {
            assert_eq!(
                fast.reach_to(ProcessId(p)),
                slow.reach_to(ProcessId(p)),
                "reach_to({p}) diverged (case {case})"
            );
        }
    }
}

/// `reach_to_all` agrees with the reference on random target sets.
#[test]
fn reach_to_all_matches_reference() {
    for case in 0..160 {
        let mut rng = SplitMix64::new(7_000 + case);
        let raw = random_raw(12, &mut rng);
        let g = build(&raw);
        let f = random_pattern(&raw, 0.2, 0.3, &mut rng);
        let fast = g.residual(&f);
        let slow = NaiveResidual::build(&g, &f);
        for _ in 0..8 {
            let set: ProcessSet = (0..raw.n).filter(|_| rng.chance(0.35)).collect();
            assert_eq!(
                fast.reach_to_all(set),
                slow.reach_to_all(set),
                "reach_to_all({set}) diverged (case {case})"
            );
        }
        // The alive set itself and the empty set are the edge cases.
        assert_eq!(fast.reach_to_all(fast.alive()), slow.reach_to_all(slow.alive()));
        assert_eq!(fast.reach_to_all(ProcessSet::new()), ProcessSet::new());
    }
}

/// SCC decomposition agrees with the reference (same components, same
/// smallest-member order).
#[test]
fn sccs_match_reference() {
    for case in 0..160 {
        let mut rng = SplitMix64::new(8_000 + case);
        let raw = random_raw(16, &mut rng);
        let g = build(&raw);
        let f = random_pattern(&raw, 0.2, 0.3, &mut rng);
        let fast = g.residual(&f);
        let slow = NaiveResidual::build(&g, &f);
        assert_eq!(fast.sccs(), slow.sccs(), "sccs diverged (case {case})");
        // And interleaving reachability queries must not disturb them.
        for p in 0..raw.n {
            let _ = fast.reach_from(ProcessId(p));
        }
        assert_eq!(fast.sccs(), slow.sccs(), "sccs diverged after cache warm-up (case {case})");
    }
}

/// `is_strongly_connected` and `all_reach_all`, which answer per SCC,
/// agree with their per-pair definitions over the reference's
/// `reach_from`, at n = 5 and 40 (one word) and n = 130 (three words).
/// The queries are SCCs, unions of two SCCs, random sets and subsets of
/// an SCC, an SCC plus a dead vertex, and the empty set, each asked on a
/// cold residual and again on one whose caches `sccs()` has warmed.
#[test]
fn component_level_reachability_matches_per_pair_definition() {
    for (n, cases) in [(5usize, 60u64), (40, 16), (130, 6)] {
        for case in 0..cases {
            let mut rng = SplitMix64::new(15_000 + 100 * n as u64 + case);
            // Between half an edge and four edges per vertex on average, so
            // residuals hold a mix of large, small and singleton SCCs.
            let p = ((0.5 + rng.range(0, 35) as f64 / 10.0) / n as f64).min(1.0);
            let mut raw = RawGraph { n, edges: Vec::new() };
            for a in 0..n {
                for b in 0..n {
                    if a != b && rng.chance(p) {
                        raw.edges.push((a, b));
                    }
                }
            }
            let g = build(&raw);
            let f = random_pattern(&raw, 0.1, 0.2, &mut rng);
            let slow = NaiveResidual::build(&g, &f);
            let alive = slow.alive();
            let reach: Vec<ProcessSet> = (0..n).map(|q| slow.reach_from(ProcessId(q))).collect();
            let connected = |set: ProcessSet| {
                !set.is_empty()
                    && set.is_subset(alive)
                    && set.iter().all(|q| set.is_subset(reach[q.index()]))
            };
            let reaches = |from: ProcessSet, to: ProcessSet| {
                !from.is_empty()
                    && !to.is_empty()
                    && from.is_subset(alive)
                    && to.is_subset(alive)
                    && from.iter().all(|q| to.is_subset(reach[q.index()]))
            };

            let sccs = slow.sccs();
            let mut queries = vec![ProcessSet::new()];
            queries.extend(sccs.iter().take(6).copied());
            queries.extend(sccs.windows(2).take(3).map(|w| w[0] | w[1]));
            let biggest = sccs.iter().copied().max_by_key(|s| s.len()).unwrap_or_default();
            for _ in 0..3 {
                queries.push((0..n).map(ProcessId).filter(|_| rng.chance(0.3)).collect());
                queries.push(biggest.iter().filter(|_| rng.chance(0.5)).collect());
            }
            if let Some(dead) = f.faulty().first() {
                queries.push(biggest.with(dead));
            }

            let warm = g.residual(&f);
            let _ = warm.sccs();
            for &a in &queries {
                let want = connected(a);
                assert_eq!(g.residual(&f).is_strongly_connected(a), want, "cold scc({a}), n={n}");
                assert_eq!(warm.is_strongly_connected(a), want, "warm scc({a}), n={n}");
                for &b in &queries {
                    let want = reaches(a, b);
                    let cold = g.residual(&f).all_reach_all(a, b);
                    assert_eq!(cold, want, "cold all_reach_all({a}, {b}), n={n} case {case}");
                    assert_eq!(warm.all_reach_all(a, b), want, "warm all_reach_all, n={n}");
                }
            }
        }
    }
}

/// The memoized CSP finder, the naive pipeline, and the exhaustive oracle
/// agree on GQS existence for small random fail-prone systems.
#[test]
fn finder_matches_naive_and_brute_force() {
    for case in 0..200 {
        let mut rng = SplitMix64::new(9_000 + case);
        let raw = random_raw(6, &mut rng);
        let g = build(&raw);
        // Every graph is also checked under the empty fail-prone system,
        // which the random draw never yields.
        let empty = FailProneSystem::new(raw.n, []).expect("legal universe");
        for fp in [random_fail_prone(&raw, 4, 0.25, 0.3, &mut rng), empty] {
            let fast = gqs_exists(&g, &fp);
            assert_eq!(fast, find_gqs(&g, &fp).is_some(), "gqs_exists vs find_gqs (case {case})");
            assert_eq!(
                qs_plus_exists(&g, &fp),
                find_qs_plus(&g, &fp).is_some(),
                "qs_plus_exists vs find_qs_plus (case {case})"
            );
            assert_eq!(fast, gqs_exists_naive(&g, &fp), "optimized vs naive finder (case {case})");
            assert_eq!(
                fast,
                gqs_exists_brute_force(&g, &fp),
                "optimized finder vs exhaustive oracle (case {case})"
            );
            // find_gqs must agree with gqs_exists and return a valid witness.
            match find_gqs(&g, &fp) {
                Some(w) => {
                    assert!(fast, "witness produced for an unsolvable system (case {case})");
                    assert_eq!(w.per_pattern.len(), fp.len());
                }
                None => assert!(!fast, "no witness for a solvable system (case {case})"),
            }
        }
    }
}

/// A graph and a fail-prone system over different numbers of processes
/// admit no quorum system: every entry point says so, without panicking
/// in a residual graph, whether F is empty or not.
#[test]
fn finders_agree_on_mismatched_universes() {
    let empty_over_4 = FailProneSystem::new(4, []).expect("legal universe");
    let threshold_4_1 = FailProneSystem::threshold(4, 1).expect("legal threshold");
    let cases = [
        (NetworkGraph::complete(3), threshold_4_1.clone()),
        (NetworkGraph::complete(3), empty_over_4),
        (NetworkGraph::complete(5), threshold_4_1),
    ];
    for (g, fp) in &cases {
        let sizes = (g.len(), fp.universe());
        assert!(find_gqs(g, fp).is_none(), "find_gqs on {sizes:?}");
        assert!(!gqs_exists(g, fp), "gqs_exists on {sizes:?}");
        assert!(find_qs_plus(g, fp).is_none(), "find_qs_plus on {sizes:?}");
        assert!(!qs_plus_exists(g, fp), "qs_plus_exists on {sizes:?}");
        assert!(find_threshold_gqs(g, fp).is_none(), "find_threshold_gqs on {sizes:?}");
        assert!(!gqs_exists_brute_force(g, fp), "gqs_exists_brute_force on {sizes:?}");
        assert!(!gqs_exists_naive(g, fp), "gqs_exists_naive on {sizes:?}");
        assert_eq!(
            explain_unsolvable(g, fp),
            Some(Unsolvability::UniverseMismatch { graph: sizes.0, fail_prone: sizes.1 })
        );
    }
}

/// The multi-word engine agrees with the reference beyond the old
/// 128-process cap: reachability, SCCs and `reach_to_all` on random
/// digraphs with 129–260 processes (word counts 3 and 5, so every
/// word-boundary crossing in the word-bounded kernels is exercised).
#[test]
fn reachability_matches_reference_past_128_processes() {
    for (case, &n) in [129, 160, 192, 260].iter().enumerate() {
        let mut rng = SplitMix64::new(12_000 + case as u64);
        // Sparse enough that reachability is nontrivial, dense enough that
        // the naive quadratic fixpoint converges in a few rounds.
        let mut raw = RawGraph { n, edges: Vec::new() };
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.chance(0.03) {
                    raw.edges.push((a, b));
                }
            }
        }
        let g = build(&raw);
        let f = random_pattern(&raw, 0.1, 0.2, &mut rng);
        let fast = g.residual(&f);
        let slow = NaiveResidual::build(&g, &f);
        for p in 0..n {
            assert_eq!(
                fast.reach_from(ProcessId(p)),
                slow.reach_from(ProcessId(p)),
                "reach_from({p}) diverged at n={n}"
            );
            assert_eq!(
                fast.reach_to(ProcessId(p)),
                slow.reach_to(ProcessId(p)),
                "reach_to({p}) diverged at n={n}"
            );
        }
        assert_eq!(fast.sccs(), slow.sccs(), "sccs diverged at n={n}");
        for _ in 0..4 {
            let set: ProcessSet = (0..n).filter(|_| rng.chance(0.3)).collect();
            assert_eq!(
                fast.reach_to_all(set),
                slow.reach_to_all(set),
                "reach_to_all diverged at n={n}"
            );
        }
    }
}

/// GQS existence past the old cap: the memoized finder, the naive
/// pipeline, and (where the choice space is small enough) the exhaustive
/// oracle agree on systems with more than 128 processes.
///
/// The graphs have a ring backbone plus random chords, which keeps the
/// residuals to a handful of SCCs so the oracle's full cross product stays
/// tractable.
#[test]
fn finder_matches_naive_and_brute_force_past_128_processes() {
    for case in 0..8u64 {
        let mut rng = SplitMix64::new(13_000 + case);
        let n = 129 + rng.range(0, 60) as usize;
        let mut raw = RawGraph { n, edges: Vec::new() };
        for i in 0..n {
            raw.edges.push((i, (i + 1) % n));
        }
        for a in 0..n {
            for b in 0..n {
                if a != b && b != (a + 1) % n && rng.chance(0.02) {
                    raw.edges.push((a, b));
                }
            }
        }
        let g = build(&raw);
        let fp = random_fail_prone(&raw, 3, 0.03, 0.05, &mut rng);
        let fast = gqs_exists(&g, &fp);
        assert_eq!(fast, gqs_exists_naive(&g, &fp), "optimized vs naive finder (n={n})");
        let combos: usize = fp.patterns().map(|f| g.residual(f).sccs().len().max(1)).product();
        if combos <= 50_000 {
            assert_eq!(
                fast,
                gqs_exists_brute_force(&g, &fp),
                "optimized finder vs exhaustive oracle (n={n})"
            );
        }
        match find_gqs(&g, &fp) {
            Some(w) => {
                assert!(fast, "witness produced for an unsolvable system (n={n})");
                assert_eq!(w.per_pattern.len(), fp.len());
            }
            None => assert!(!fast, "no witness for a solvable system (n={n})"),
        }
    }
}

/// Structured topologies — rings, meshes, two cliques joined by a single
/// bridge — produce residual shapes (long detour paths, one-directional
/// cuts, hub bottlenecks) that random digraphs almost never hit. The
/// engine, the naive pipeline and the exhaustive oracle must agree on
/// all of them, at both the reachability and the finder layer.
#[test]
fn finder_matches_reference_on_structured_topologies() {
    for case in 0..60u64 {
        let mut rng = SplitMix64::new(14_000 + case);
        let n = 4 + (case as usize % 5); // 4..=8
        for raw in [ring_raw(n), grid_raw(n, 3), bridge_raw(n)] {
            let g = build(&raw);
            // Reachability layer first.
            let f = random_pattern(&raw, 0.15, 0.3, &mut rng);
            let fast = g.residual(&f);
            let slow = NaiveResidual::build(&g, &f);
            for p in 0..n {
                assert_eq!(fast.reach_from(ProcessId(p)), slow.reach_from(ProcessId(p)));
                assert_eq!(fast.reach_to(ProcessId(p)), slow.reach_to(ProcessId(p)));
            }
            assert_eq!(fast.sccs(), slow.sccs());
            // Finder layer: engine vs naive vs exhaustive oracle.
            let fp = random_fail_prone(&raw, 3, 0.2, 0.3, &mut rng);
            let verdict = gqs_exists(&g, &fp);
            assert_eq!(verdict, gqs_exists_naive(&g, &fp), "naive diverged (case {case}, n={n})");
            assert_eq!(
                verdict,
                gqs_exists_brute_force(&g, &fp),
                "oracle diverged (case {case}, n={n})"
            );
            match find_gqs(&g, &fp) {
                Some(w) => {
                    assert!(verdict, "witness for unsolvable system (case {case})");
                    assert_eq!(w.per_pattern.len(), fp.len());
                }
                None => assert!(!verdict, "no witness for solvable system (case {case})"),
            }
        }
    }
}

/// Duplicate patterns (which the solver collapses into one CSP variable)
/// never change the verdict.
#[test]
fn duplicated_patterns_do_not_change_the_verdict() {
    for case in 0..120 {
        let mut rng = SplitMix64::new(11_000 + case);
        let raw = random_raw(6, &mut rng);
        let g = build(&raw);
        let fp = random_fail_prone(&raw, 3, 0.25, 0.3, &mut rng);
        let baseline = gqs_exists(&g, &fp);
        // Repeat every pattern 2-3 times in shuffled positions.
        let mut patterns: Vec<_> = fp.patterns().cloned().collect();
        let extra: Vec<_> = fp.patterns().filter(|_| rng.chance(0.7)).cloned().collect();
        patterns.extend(extra);
        patterns.extend(fp.patterns().cloned());
        let dup = gqs_core::FailProneSystem::new(raw.n, patterns).unwrap();
        assert_eq!(
            gqs_exists(&g, &dup),
            baseline,
            "duplicating patterns changed the verdict (case {case})"
        );
        assert_eq!(gqs_exists(&g, &dup), gqs_exists_brute_force(&g, &dup));
    }
}
