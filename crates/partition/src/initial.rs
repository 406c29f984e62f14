//! Initial partitioning of the coarsest substrate: greedy growing (GHG on
//! hypergraphs, GGP on graphs — the same max-gain frontier growth) with
//! multiple random tries.

use fgh_sparse::IndexType;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::arena::{ArenaIndex, LevelArena};
use crate::coarsen::FREE;
use crate::config::InitialScheme;
use crate::engine::Substrate;
use crate::level::EngineStats;
use crate::refine::BisectionState;

/// Initial-partitioning tries per bisection at the coarsest level (the
/// best one is kept).
pub(crate) const INITIAL_TRIES: usize = 8;

/// Substrate-generic, arena-backed initial partitioning (the engine's
/// entry point): best of `tries` runs of `scheme`, each FM-refined with
/// up to `fm_passes` passes, by (balance penalty, cut). `coords[v]`, when
/// present, positions *local* vertex `v` for the geometric scheme — the
/// engine projects top-level coordinates down to the coarsest substrate
/// before calling this. Geometric/Auto without coordinates fall back to
/// GHG.
#[allow(clippy::too_many_arguments)]
pub(crate) fn initial_best_in<S: Substrate>(
    sub: &S,
    fixed: &[i8],
    targets: [f64; 2],
    epsilon: f64,
    scheme: InitialScheme,
    tries: usize,
    fm_passes: usize,
    coords: Option<&[(f32, f32)]>,
    rng: &mut impl Rng,
    arena: &mut LevelArena,
    stats: &mut EngineStats,
) -> Vec<u8> {
    let scheme = match (scheme, coords) {
        (InitialScheme::Geometric | InitialScheme::Auto, Some(_)) => InitialScheme::Geometric,
        (InitialScheme::Geometric | InitialScheme::Auto, None) => InitialScheme::Ghg,
        (other, _) => other,
    };
    let mut best: Option<(u64, u64, Vec<u8>)> = None;
    for _ in 0..tries.max(1) {
        // GHG grows side 1 on a live state (it needs gains); the other
        // schemes produce a plain side vector. Either way the try is then
        // refined and scored below.
        let side = match scheme {
            InitialScheme::Ghg => None,
            InitialScheme::Random => Some(random_sides(sub, fixed, targets, rng, arena)),
            InitialScheme::BinPacking => Some(bin_packing_sides(sub, fixed, targets, rng, arena)),
            // `scheme` is resolved above: Geometric only with coords
            // present, Auto never survives resolution.
            InitialScheme::Geometric => {
                let Some(coords) = coords else {
                    unreachable!("geometric scheme resolved without coords")
                };
                Some(crate::geometric::geometric_sides(
                    sub, coords, fixed, targets, arena,
                ))
            }
            InitialScheme::Auto => unreachable!("Auto resolves before dispatch"),
        };
        let mut st = match side {
            Some(side) => BisectionState::new_in(sub, side, fixed, targets, epsilon, arena),
            None => ghg_state(sub, fixed, targets, epsilon, rng, arena),
        };
        st.refine_in(
            rng,
            fm_passes,
            0,
            arena,
            stats,
            &fgh_trace::SpanHandle::noop(),
        );
        let key = (st.balance_penalty(), st.cut());
        let sides = st.into_sides_in(arena);
        if best
            .as_ref()
            .map(|(p, c, _)| key < (*p, *c))
            .unwrap_or(true)
        {
            if let Some((_, _, old)) = best.replace((key.0, key.1, sides)) {
                arena.give_u8(old);
            }
        } else {
            arena.give_u8(sides);
        }
    }
    match best {
        Some((_, _, sides)) => sides,
        // Unreachable (the loop runs at least once), but a seed split is
        // a safe fallback rather than a panic.
        None => seed_sides(sub, fixed, arena),
    }
}

/// Per-vertex starting side: fixed-1 vertices on side 1, the rest on 0.
pub(crate) fn seed_sides<S: Substrate>(sub: &S, fixed: &[i8], arena: &mut LevelArena) -> Vec<u8> {
    let n = sub.num_vertices();
    let mut side = arena.take_u8(n, 0);
    for v in 0..n {
        if fixed[v] == 1 {
            side[v] = 1;
        }
    }
    side
}

/// Random assignment: shuffle free vertices, fill side 1 to its target.
fn random_sides<S: Substrate>(
    sub: &S,
    fixed: &[i8],
    targets: [f64; 2],
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) -> Vec<u8> {
    let n = sub.num_vertices();
    let mut side = seed_sides(sub, fixed, arena);
    let mut order = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
    order.extend(
        (0..n)
            .map(S::Ix::from_index)
            .filter(|&v| fixed[v.index()] == FREE),
    );
    order.shuffle(rng);
    let target1 = targets[1].floor().max(0.0) as u64;
    let mut w1: u64 = (0..n)
        .filter(|&v| side[v] == 1)
        .map(|v| sub.vertex_weight(S::Ix::from_index(v)) as u64)
        .sum();
    for &v in order.iter() {
        if w1 >= target1 {
            break;
        }
        side[v.index()] = 1;
        w1 += sub.vertex_weight(v) as u64;
    }
    S::Ix::give_ids(arena, order);
    side
}

/// Weight-only greedy bin packing: heaviest free vertices first, each onto
/// the side with more remaining capacity (ties randomized by a shuffled
/// pre-pass), connectivity ignored.
fn bin_packing_sides<S: Substrate>(
    sub: &S,
    fixed: &[i8],
    targets: [f64; 2],
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) -> Vec<u8> {
    let n = sub.num_vertices();
    let mut side = seed_sides(sub, fixed, arena);
    let mut w = [0u64; 2];
    for v in 0..n {
        if fixed[v] != FREE {
            w[side[v] as usize] += sub.vertex_weight(S::Ix::from_index(v)) as u64;
        }
    }
    let mut order = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
    order.extend(
        (0..n)
            .map(S::Ix::from_index)
            .filter(|&v| fixed[v.index()] == FREE),
    );
    order.shuffle(rng);
    order.sort_by_key(|&v| std::cmp::Reverse(sub.vertex_weight(v)));
    for &v in order.iter() {
        // Fill toward proportional targets: pick the side with the larger
        // remaining gap.
        let gap0 = targets[0] - w[0] as f64;
        let gap1 = targets[1] - w[1] as f64;
        let s = usize::from(gap1 > gap0);
        side[v.index()] = s as u8; // lint: checked-cast — s is 0 or 1
        w[s] += sub.vertex_weight(v) as u64;
    }
    S::Ix::give_ids(arena, order);
    side
}

/// Greedy growing: start everything free on side 0 and pull max-gain
/// vertices across until side 1 reaches its target weight.
fn ghg_state<'a, S: Substrate>(
    sub: &'a S,
    fixed: &'a [i8],
    targets: [f64; 2],
    epsilon: f64,
    rng: &mut impl Rng,
    arena: &mut LevelArena,
) -> BisectionState<'a, S> {
    let n = sub.num_vertices();
    // Fixed vertices start on their side, everything else on side 0.
    let side = seed_sides(sub, fixed, arena);
    let mut st = BisectionState::new_in(sub, side, fixed, targets, epsilon, arena);

    // Grow side 1 until it reaches its target weight. Gains make the
    // growth cluster-shaped: vertices adjacent to side 1 have higher gain.
    let target1 = targets[1].floor().max(0.0) as u64;
    if st.weights()[1] < target1 {
        let mut buckets = S::Ix::take_buckets(arena, n, sub.max_gain_bound());
        let mut insert_order = S::Ix::take_ids(arena, 0, S::Ix::ZERO);
        insert_order.extend(
            (0..n)
                .map(S::Ix::from_index)
                .filter(|&v| fixed[v.index()] == FREE),
        );
        // Random seed bias: shuffle so ties (isolated vertices) vary.
        insert_order.shuffle(rng);
        for &v in insert_order.iter() {
            buckets.insert(v, st.gain(v));
        }
        while st.weights()[1] < target1 {
            let state = &st;
            let popped = buckets.pop_max_where(|u| state.sides()[u.index()] == 0);
            match popped {
                Some((v, _)) => st.apply_move(v, Some(&mut buckets)),
                None => break,
            }
        }
        S::Ix::give_buckets(arena, buckets);
        S::Ix::give_ids(arena, insert_order);
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::two_clusters;
    use fgh_hypergraph::Hypergraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn free(n: u32) -> Vec<i8> {
        vec![FREE; n as usize]
    }

    /// Best of `tries` GHG runs with `fm_passes` FM passes each.
    fn ghg_best(
        hg: &Hypergraph,
        fixed: &[i8],
        targets: [f64; 2],
        epsilon: f64,
        tries: usize,
        fm_passes: usize,
        rng: &mut SmallRng,
    ) -> Vec<u8> {
        initial_best_in(
            hg,
            fixed,
            targets,
            epsilon,
            InitialScheme::Ghg,
            tries,
            fm_passes,
            None,
            rng,
            &mut LevelArena::disabled(),
            &mut EngineStats::default(),
        )
    }

    #[test]
    fn ghg_produces_balanced_bisection() {
        let hg = two_clusters(20);
        let fixed = free(40);
        let sides = ghg_best(
            &hg,
            &fixed,
            [20.0, 20.0],
            0.05,
            4,
            4,
            &mut SmallRng::seed_from_u64(2),
        );
        let w1: usize = sides.iter().filter(|&&s| s == 1).count();
        assert!((15..=25).contains(&w1), "side 1 holds {w1} of 40");
        let st = BisectionState::new(&hg, sides, &fixed, [20.0, 20.0], 0.05);
        assert_eq!(st.balance_penalty(), 0);
        // The two-cluster structure should be found.
        assert_eq!(st.cut(), 1);
    }

    #[test]
    fn ghg_respects_fixed() {
        let hg = two_clusters(10);
        let mut fixed = free(20);
        fixed[0] = 1;
        fixed[15] = 0;
        let sides = ghg_best(
            &hg,
            &fixed,
            [10.0, 10.0],
            0.2,
            4,
            4,
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(sides[0], 1);
        assert_eq!(sides[15], 0);
    }

    #[test]
    fn ghg_on_netless_hypergraph() {
        // No nets: any balanced split works; GHG must still terminate.
        let hg = Hypergraph::from_nets(10, &[]).unwrap();
        let fixed = free(10);
        let sides = ghg_best(
            &hg,
            &fixed,
            [5.0, 5.0],
            0.0,
            2,
            2,
            &mut SmallRng::seed_from_u64(4),
        );
        let c1 = sides.iter().filter(|&&s| s == 1).count();
        assert_eq!(c1, 5);
    }

    #[test]
    fn ghg_single_vertex() {
        let hg = Hypergraph::from_nets(1, &[]).unwrap();
        let fixed = free(1);
        let sides = ghg_best(
            &hg,
            &fixed,
            [1.0, 0.0],
            0.0,
            1,
            1,
            &mut SmallRng::seed_from_u64(4),
        );
        assert_eq!(sides, vec![0]);
    }
}
