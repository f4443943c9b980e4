//! Hierarchical / LFR-like network generation (paper Section VI).
//!
//! The pipeline composes: each *layer* assigns vertices to disjoint groups
//! and receives a share `λ` of every member vertex's degree; running the
//! distribution generator independently per group and unioning the edges
//! yields a graph that retains the global degree distribution while
//! exhibiting the prescribed group structure. An LFR-style community
//! benchmark is the two-layer special case — communities with
//! `λ = 1 − μ` plus one global layer with `λ = μ`, where `μ` is the mixing
//! parameter.

use crate::{try_generate_from_distribution_with_workspace, GenError, GeneratorConfig};
use graphcore::{DegreeDistribution, Edge, EdgeList};
use parutil::rng::{mix64, Xoshiro256pp};
use swap::SwapWorkspace;

/// One level of a layered generation: a disjoint grouping of (a subset of)
/// the vertices plus the share of each member's degree spent in this layer.
#[derive(Clone, Debug)]
pub struct Layer {
    /// Group id per vertex; [`Layer::NOT_MEMBER`] marks vertices outside
    /// this layer.
    pub groups: Vec<u32>,
    /// Fraction of each member vertex's degree assigned to this layer. The
    /// λ values of the layers containing a vertex must sum to 1.
    pub lambda: f64,
}

impl Layer {
    /// Sentinel group id for vertices that are not part of a layer.
    pub const NOT_MEMBER: u32 = u32::MAX;
}

/// Errors from layered generation.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerError {
    /// A layer's group vector length differs from the vertex count.
    LengthMismatch {
        /// Index of the offending layer.
        layer: usize,
    },
    /// The λ shares of some vertex do not sum to 1.
    BadLambda {
        /// Offending vertex.
        vertex: u32,
        /// The observed λ sum.
        sum: f64,
    },
    /// Generating one group's subgraph failed.
    Group {
        /// Layer of the group.
        layer: usize,
        /// Group id within the layer.
        group: u32,
        /// The typed failure of the group's pipeline run.
        error: GenError,
    },
}

impl std::fmt::Display for LayerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::LengthMismatch { layer } => {
                write!(f, "layer {layer} has the wrong number of vertices")
            }
            Self::BadLambda { vertex, sum } => {
                write!(f, "vertex {vertex}: layer shares sum to {sum}, expected 1")
            }
            Self::Group {
                layer,
                group,
                error,
            } => write!(f, "layer {layer} group {group}: {error}"),
        }
    }
}

impl std::error::Error for LayerError {}

impl From<LayerError> for GenError {
    /// Layer-specification problems are input problems: map them to
    /// [`GenError::BadInput`] so the CLI (and any other pipeline caller)
    /// reports them under the `bad_input` error code. A group's own
    /// pipeline failure keeps its typed error.
    fn from(e: LayerError) -> Self {
        match e {
            LayerError::Group { error, .. } => error,
            other => GenError::bad_input(other.to_string()),
        }
    }
}

/// Output of [`generate_layered`].
#[derive(Clone, Debug)]
pub struct LayeredGraph {
    /// The union graph (simple; cross-layer duplicate edges are erased).
    pub graph: EdgeList,
    /// Stubs dropped to fix per-group parity or absorb clamping overflow —
    /// small relative to the total (reported so callers can judge).
    pub lost_stubs: u64,
    /// Edges removed because two layers generated the same vertex pair.
    pub duplicate_edges: u64,
}

/// Generate a layered graph: split each vertex's degree across the layers
/// by λ (largest-remainder rounding, clamped to `group size − 1` with
/// overflow pushed to later layers), generate every group independently
/// with the full pipeline, and union the results. Within a group, only
/// members with a positive share take part, so each share is clamped again
/// to that member count minus one; the excess counts as lost stubs. A
/// group whose pipeline run fails ends the whole run with
/// [`LayerError::Group`].
pub fn generate_layered(
    degrees: &[u32],
    layers: &[Layer],
    cfg: &GeneratorConfig,
) -> Result<LayeredGraph, LayerError> {
    let n = degrees.len();
    for (li, layer) in layers.iter().enumerate() {
        if layer.groups.len() != n {
            return Err(LayerError::LengthMismatch { layer: li });
        }
    }
    // Validate λ sums per vertex.
    for v in 0..n {
        let sum: f64 = layers
            .iter()
            .filter(|l| l.groups[v] != Layer::NOT_MEMBER)
            .map(|l| l.lambda)
            .sum();
        let member_count = layers
            .iter()
            .filter(|l| l.groups[v] != Layer::NOT_MEMBER)
            .count();
        if member_count > 0 && (sum - 1.0).abs() > 1e-9 {
            return Err(LayerError::BadLambda {
                vertex: v as u32,
                sum,
            });
        }
    }

    // Group sizes per layer (for clamping internal degrees).
    let group_sizes: Vec<Vec<u64>> = layers
        .iter()
        .map(|layer| {
            let max_group = layer
                .groups
                .iter()
                .filter(|&&g| g != Layer::NOT_MEMBER)
                .max()
                .map_or(0, |&g| g as usize + 1);
            let mut sizes = vec![0u64; max_group];
            for &g in &layer.groups {
                if g != Layer::NOT_MEMBER {
                    sizes[g as usize] += 1;
                }
            }
            sizes
        })
        .collect();

    // Split each vertex's degree across its layers.
    let mut split: Vec<Vec<u32>> = vec![vec![0; n]; layers.len()];
    let mut lost_stubs = 0u64;
    for v in 0..n {
        let member_layers: Vec<usize> = (0..layers.len())
            .filter(|&l| layers[l].groups[v] != Layer::NOT_MEMBER)
            .collect();
        if member_layers.is_empty() {
            lost_stubs += degrees[v] as u64;
            continue;
        }
        let d = degrees[v] as f64;
        // Largest-remainder apportionment of d over the member layers.
        // Ties in the fractional parts (ubiquitous: λ = 0.5 with odd d) are
        // broken by a per-(vertex, layer) hash — a fixed tie-break would
        // systematically favour one layer and bias the realized mixing.
        let quotas: Vec<f64> = member_layers
            .iter()
            .map(|&l| layers[l].lambda * d)
            .collect();
        let mut parts: Vec<u32> = quotas.iter().map(|&q| q as u32).collect();
        let assigned: u32 = parts.iter().sum();
        let mut order: Vec<usize> = (0..member_layers.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            (quotas[b] - quotas[b].floor())
                .total_cmp(&(quotas[a] - quotas[a].floor()))
                .then_with(|| {
                    mix64((v as u64) << 8 | b as u64).cmp(&mix64((v as u64) << 8 | a as u64))
                })
        });
        for k in 0..(degrees[v] - assigned) as usize {
            parts[order[k % order.len()]] += 1;
        }
        // Clamp to group capacity; push overflow to later member layers.
        let mut overflow = 0u32;
        for (k, &l) in member_layers.iter().enumerate() {
            let g = layers[l].groups[v] as usize;
            let cap = group_sizes[l][g].saturating_sub(1) as u32;
            let want = parts[k] + overflow;
            let take = want.min(cap);
            overflow = want - take;
            split[l][v] = take;
        }
        lost_stubs += overflow as u64;
    }

    // Generate every group of every layer and union the edges.
    let mut all_edges: Vec<Edge> = Vec::new();
    let mut ws = SwapWorkspace::new();
    for (li, layer) in layers.iter().enumerate() {
        for g in 0..group_sizes[li].len() as u32 {
            // Members with a positive degree share, sorted ascending by
            // degree: this order matches the canonical class layout of the
            // generated subgraph, giving the local→global id map.
            let mut members: Vec<(u32, u32)> = (0..n)
                .filter(|&v| layer.groups[v] == g && split[li][v] > 0)
                .map(|v| (split[li][v], v as u32))
                .collect();
            if members.len() < 2 {
                lost_stubs += members.iter().map(|&(d, _)| d as u64).sum::<u64>();
                continue;
            }
            // A share needs that many distinct partners among the members
            // that joined (zero-share vertices sit out).
            let cap = members.len() as u32 - 1;
            for m in members.iter_mut().filter(|m| m.0 > cap) {
                lost_stubs += u64::from(m.0 - cap);
                m.0 = cap;
            }
            members.sort_unstable();
            // Per-group parity fix: drop one stub from the largest member.
            let stub_sum: u64 = members.iter().map(|&(d, _)| d as u64).sum();
            if stub_sum % 2 == 1 {
                let last = members.last_mut().expect("members nonempty");
                last.0 -= 1;
                lost_stubs += 1;
                if last.0 == 0 {
                    members.pop();
                }
                members.sort_unstable();
                if members.len() < 2 {
                    lost_stubs += members.iter().map(|&(d, _)| d as u64).sum::<u64>();
                    continue;
                }
            }
            let local_dist = DegreeDistribution::from_pairs_relaxed(compress(&members))
                .expect("compressed pairs are sorted");
            let sub_seed = mix64(cfg.seed ^ mix64((li as u64) << 32 | g as u64));
            let sub_cfg = GeneratorConfig {
                seed: sub_seed,
                ..cfg.clone()
            };
            let sub = try_generate_from_distribution_with_workspace(&local_dist, &sub_cfg, &mut ws)
                .map_err(|error| LayerError::Group {
                    layer: li,
                    group: g,
                    error,
                })?;
            for e in sub.graph.edges() {
                let gu = members[e.u() as usize].1;
                let gv = members[e.v() as usize].1;
                all_edges.push(Edge::new(gu, gv));
            }
        }
    }

    let mut graph = EdgeList::from_edges(n, all_edges);
    let duplicate_edges = graph.erase_violations() as u64;
    Ok(LayeredGraph {
        graph,
        lost_stubs,
        duplicate_edges,
    })
}

/// Compress sorted `(degree, vertex)` members into `(degree, count)` pairs.
fn compress(members: &[(u32, u32)]) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = Vec::new();
    for &(d, _) in members {
        match out.last_mut() {
            Some((ld, c)) if *ld == d => *c += 1,
            _ => out.push((d, 1)),
        }
    }
    out
}

/// Configuration for LFR-like community benchmark generation.
#[derive(Clone, Debug)]
pub struct LfrConfig {
    /// The global degree distribution.
    pub distribution: DegreeDistribution,
    /// Mixing parameter μ: the target fraction of every vertex's edges that
    /// leave its community.
    pub mixing: f64,
    /// Smallest community size.
    pub community_size_min: u64,
    /// Largest community size.
    pub community_size_max: u64,
    /// Community-size power-law exponent (sizes ∝ s^−τ₂; LFR typically
    /// uses τ₂ ∈ [1, 2]).
    pub community_exponent: f64,
    /// Swap iterations per generated subgraph.
    pub swap_iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Output of [`generate_lfr`].
#[derive(Clone, Debug)]
pub struct LfrGraph {
    /// The benchmark graph (simple).
    pub graph: EdgeList,
    /// Community id per vertex.
    pub communities: Vec<u32>,
    /// Realized mixing: fraction of edges crossing communities.
    pub measured_mixing: f64,
    /// Stubs dropped for parity/capacity (small).
    pub lost_stubs: u64,
}

/// Generate an LFR-like community benchmark graph: power-law community
/// sizes, the configured global degree distribution, and expected mixing μ.
pub fn generate_lfr(cfg: &LfrConfig) -> Result<LfrGraph, LayerError> {
    assert!((0.0..=1.0).contains(&cfg.mixing), "mixing must be in [0,1]");
    assert!(cfg.community_size_min >= 2 && cfg.community_size_min <= cfg.community_size_max);
    let degrees_vec = cfg.distribution.expand();
    let degrees = degrees_vec.degrees();
    let n = degrees.len();
    let mut rng = Xoshiro256pp::new(mix64(cfg.seed ^ 0x1F12));

    // Sample power-law community sizes until they cover n vertices.
    let mut sizes: Vec<u64> = Vec::new();
    let mut covered = 0u64;
    while covered < n as u64 {
        let s = sample_powerlaw_size(
            cfg.community_size_min,
            cfg.community_size_max,
            cfg.community_exponent,
            &mut rng,
        )
        .min(n as u64 - covered)
        .max(1);
        sizes.push(s);
        covered += s;
    }
    // A trailing community of size 1 cannot host internal edges; merge it.
    if *sizes.last().expect("at least one community") < cfg.community_size_min && sizes.len() > 1 {
        let tail = sizes.pop().expect("nonempty");
        *sizes.last_mut().expect("nonempty") += tail;
    }

    // Random vertex-to-community assignment.
    let perm = parutil::permute::random_permutation(n, mix64(cfg.seed ^ 0xA551));
    let mut communities = vec![0u32; n];
    let mut cursor = 0usize;
    for (cid, &s) in sizes.iter().enumerate() {
        for _ in 0..s {
            communities[perm[cursor] as usize] = cid as u32;
            cursor += 1;
        }
    }

    let layers = [
        Layer {
            groups: communities.clone(),
            lambda: 1.0 - cfg.mixing,
        },
        Layer {
            groups: vec![0; n],
            lambda: cfg.mixing,
        },
    ];
    let gen_cfg = GeneratorConfig::new(cfg.seed).with_swap_iterations(cfg.swap_iterations);
    let layered = generate_layered(degrees, &layers, &gen_cfg)?;

    let crossing = layered
        .graph
        .edges()
        .iter()
        .filter(|e| communities[e.u() as usize] != communities[e.v() as usize])
        .count();
    let measured_mixing = if layered.graph.is_empty() {
        0.0
    } else {
        crossing as f64 / layered.graph.len() as f64
    };
    Ok(LfrGraph {
        graph: layered.graph,
        communities,
        measured_mixing,
        lost_stubs: layered.lost_stubs,
    })
}

/// Draw a community size from a truncated discrete power law via inverse
/// CDF on the continuous relaxation.
fn sample_powerlaw_size(min: u64, max: u64, exponent: f64, rng: &mut Xoshiro256pp) -> u64 {
    if min >= max {
        return min;
    }
    let r = rng.next_f64_open();
    let (a, b) = (min as f64, max as f64 + 1.0);
    let s = if (exponent - 1.0).abs() < 1e-9 {
        // 1/x density: inverse CDF is geometric interpolation.
        a * (b / a).powf(r)
    } else {
        let e = 1.0 - exponent;
        (a.powf(e) + r * (b.powf(e) - a.powf(e))).powf(1.0 / e)
    };
    (s as u64).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(u32, u64)]) -> DegreeDistribution {
        DegreeDistribution::from_pairs(pairs.to_vec()).unwrap()
    }

    #[test]
    fn layered_validation_errors() {
        let degrees = [2u32, 2, 2, 2];
        let bad_len = Layer {
            groups: vec![0; 3],
            lambda: 1.0,
        };
        assert_eq!(
            generate_layered(&degrees, &[bad_len], &GeneratorConfig::new(1)).unwrap_err(),
            LayerError::LengthMismatch { layer: 0 }
        );
        let bad_lambda = Layer {
            groups: vec![0; 4],
            lambda: 0.6,
        };
        assert!(matches!(
            generate_layered(&degrees, &[bad_lambda], &GeneratorConfig::new(1)),
            Err(LayerError::BadLambda { .. })
        ));
    }

    #[test]
    fn single_layer_equals_plain_generation_shape() {
        let degrees = vec![2u32; 60];
        let layer = Layer {
            groups: vec![0; 60],
            lambda: 1.0,
        };
        let out = generate_layered(&degrees, &[layer], &GeneratorConfig::new(3)).unwrap();
        assert!(out.graph.is_simple());
        // Expectation-matching: around 60 edges.
        let m = out.graph.len() as f64;
        assert!((m - 60.0).abs() < 20.0, "m = {m}");
    }

    #[test]
    fn two_group_layer_stays_within_groups() {
        let degrees = vec![3u32; 40];
        let mut groups = vec![0u32; 40];
        for g in groups.iter_mut().skip(20) {
            *g = 1;
        }
        let layer = Layer {
            groups: groups.clone(),
            lambda: 1.0,
        };
        let out = generate_layered(&degrees, &[layer], &GeneratorConfig::new(5)).unwrap();
        for e in out.graph.edges() {
            assert_eq!(
                groups[e.u() as usize],
                groups[e.v() as usize],
                "edge {e} crosses groups in a single-layer run"
            );
        }
    }

    #[test]
    fn non_member_vertices_get_no_edges() {
        let degrees = vec![2u32; 30];
        let mut groups = vec![0u32; 30];
        for g in groups.iter_mut().skip(20) {
            *g = Layer::NOT_MEMBER;
        }
        let layer = Layer {
            groups,
            lambda: 1.0,
        };
        let out = generate_layered(&degrees, &[layer], &GeneratorConfig::new(4)).unwrap();
        for e in out.graph.edges() {
            assert!(e.u() < 20 && e.v() < 20);
        }
        assert_eq!(out.lost_stubs, 20);
    }

    #[test]
    fn shares_are_clamped_to_the_members_that_join_the_group() {
        // One group of four, but the two zero-degree vertices sit out: the
        // group's sub-distribution has two members, so each degree-3 share
        // can use at most one partner.
        let degrees = [3u32, 3, 0, 0];
        let layer = Layer {
            groups: vec![0; 4],
            lambda: 1.0,
        };
        let out = generate_layered(&degrees, &[layer], &GeneratorConfig::new(1))
            .expect("clamped shares are servable");
        assert!(out.graph.is_simple());
        assert_eq!(out.lost_stubs, 4, "3 + 3 stubs clamp to 1 + 1");
        for e in out.graph.edges() {
            assert_eq!((e.u(), e.v()), (0, 1), "only vertices 0 and 1 joined");
        }
    }

    #[test]
    fn a_failing_group_is_a_typed_error() {
        let degrees = vec![2u32; 80];
        let groups: Vec<u32> = (0..80).map(|v| v / 40).collect();
        let layer = Layer {
            groups,
            lambda: 1.0,
        };
        let cfg = GeneratorConfig::new(1)
            .with_refine_rounds(3)
            .with_refine_tolerance(0.0);
        let err =
            generate_layered(&degrees, &[layer], &cfg).expect_err("tolerance 0 is unreachable");
        let LayerError::Group { layer, error, .. } = &err else {
            panic!("unexpected error: {err}");
        };
        assert_eq!(*layer, 0);
        assert_eq!(error.error_code(), "solver_not_converged");
        assert_eq!(GenError::from(err).error_code(), "solver_not_converged");
    }

    #[test]
    fn lfr_mixing_tracks_target() {
        let cfg = LfrConfig {
            distribution: dist(&[(4, 600), (8, 200), (16, 40)]),
            mixing: 0.3,
            community_size_min: 20,
            community_size_max: 80,
            community_exponent: 1.5,
            swap_iterations: 3,
            seed: 11,
        };
        let out = generate_lfr(&cfg).unwrap();
        assert!(out.graph.is_simple());
        assert_eq!(out.communities.len(), 840);
        // Community count is plausible.
        let num_comms = *out.communities.iter().max().unwrap() + 1;
        assert!((840 / 80..=840 / 20 + 1).contains(&(num_comms as u64)));
        // Measured mixing close to target (external edges occasionally land
        // inside a community, so allow generous slack downward).
        assert!(
            (out.measured_mixing - 0.3).abs() < 0.1,
            "measured {}",
            out.measured_mixing
        );
        // Degree distribution roughly preserved.
        let target_m = cfg.distribution.num_edges() as f64;
        let got_m = out.graph.len() as f64;
        assert!(
            (got_m - target_m).abs() / target_m < 0.2,
            "m {got_m} vs {target_m}"
        );
    }

    #[test]
    fn lfr_mixing_extremes() {
        let base = LfrConfig {
            distribution: dist(&[(4, 300), (8, 100)]),
            mixing: 0.0,
            community_size_min: 10,
            community_size_max: 40,
            community_exponent: 1.2,
            swap_iterations: 2,
            seed: 7,
        };
        let pure = generate_lfr(&base).unwrap();
        assert_eq!(pure.measured_mixing, 0.0, "μ=0 must have no crossings");

        let scrambled = generate_lfr(&LfrConfig {
            mixing: 1.0,
            ..base
        })
        .unwrap();
        // With μ=1 nearly every edge crosses (same-community hits are rare).
        assert!(
            scrambled.measured_mixing > 0.8,
            "measured {}",
            scrambled.measured_mixing
        );
    }

    #[test]
    fn lfr_deterministic() {
        let cfg = LfrConfig {
            distribution: dist(&[(4, 200)]),
            mixing: 0.25,
            community_size_min: 10,
            community_size_max: 30,
            community_exponent: 1.5,
            swap_iterations: 2,
            seed: 99,
        };
        let a = generate_lfr(&cfg).unwrap();
        let b = generate_lfr(&cfg).unwrap();
        assert_eq!(a.graph, b.graph);
        assert_eq!(a.communities, b.communities);
    }

    #[test]
    fn three_level_hierarchy() {
        // Vertices split degree across fine groups, coarse groups, and a
        // global level — the paper's generalized hierarchy.
        let n = 120usize;
        let degrees = vec![6u32; n];
        let fine: Vec<u32> = (0..n).map(|v| (v / 20) as u32).collect();
        let coarse: Vec<u32> = (0..n).map(|v| (v / 60) as u32).collect();
        let layers = [
            Layer {
                groups: fine.clone(),
                lambda: 0.5,
            },
            Layer {
                groups: coarse.clone(),
                lambda: 0.3,
            },
            Layer {
                groups: vec![0; n],
                lambda: 0.2,
            },
        ];
        let out = generate_layered(&degrees, &layers, &GeneratorConfig::new(21)).unwrap();
        assert!(out.graph.is_simple());
        let m = out.graph.len() as f64;
        let target = (n as f64 * 6.0) / 2.0;
        assert!((m - target).abs() / target < 0.25, "m {m} target {target}");
    }
}
