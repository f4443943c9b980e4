//! Online convergence diagnostics for mixing runs.
//!
//! The paper's empirical mixing criterion, the *ever-swapped fraction*
//! crossing a cutoff, is a coverage proxy, not a convergence criterion: a
//! chain in which nearly every edge has been rewired once can still be far
//! from uniform over the realization space, so the fraction is only
//! reported ([`crate::SwapStats::iterations_to_mix`]), never a stop rule.
//! Following the sampling-convergence discussion in Dutta–Fosdick–Clauset,
//! this module assesses mixing the way MCMC practice does: via the
//! autocorrelation of cheap scalar network observables along the chain.
//!
//! # Observables
//!
//! Each sweep appends one sample to four scalar series (recorded in
//! [`IterationStats`] when the run tracks diagnostics, which a
//! [`StopRule::Converged`](crate::StopRule::Converged) run does):
//!
//! * **degree-product sum** `Σ_{(u,v) ∈ E} d(u)·d(v)` — the unnormalized
//!   numerator of degree assortativity. Degrees are swap-invariant, so a
//!   committed swap moves the sum by an O(1) delta over the four edges it
//!   touches.
//! * **wedge sketch** `Σ_v W(v)²` with `W(v) = Σ_{u ∈ N(v)} s(u)` over a
//!   seed-derived ±1 vertex hash `s` — a linear sketch of the two-hop
//!   (wedge/triangle) structure. A committed swap adjusts four `W` entries
//!   by ±1 hash values: O(changes) per swap, one O(n) reduction per sweep.
//! * **ever-swapped fraction** — the legacy trajectory, kept as one series
//!   among several (it saturates, at which point it goes uninformative and
//!   is excluded).
//! * **accepted swaps per sweep** — the chain's acceptance trajectory.
//!
//! Both incremental observables use *wrapping* integer arithmetic and
//! commutative atomic accumulation, so they are exact (mod 2⁶⁴) functions
//! of the current edge multiset — independent of scheduling, pool size,
//! shard count, and resume cuts, and recomputable from a checkpoint's slots.
//!
//! # Stopping decision
//!
//! [`StopRule::Converged`](crate::StopRule::Converged)`{ min_ess, window }`
//! stops the run at the first sweep where, over the trailing `window`
//! samples of every series, the Geyer initial-positive-sequence estimator
//! yields an effective sample size of at least `min_ess` for **every
//! informative** series (constant series carry no signal and are excluded;
//! a window in which *all* series are constant never stops — a frozen chain
//! is not a mixed chain). The decision is a pure function of the per-sweep
//! stats series, so an interrupted-and-resumed run reproduces it exactly.

use crate::stats::IterationStats;
use crate::workspace::Slot;
use crate::SwapEdge;
use parutil::rng::mix64;
use std::sync::atomic::{AtomicI64, Ordering};

/// Salt of the ±1 vertex hash behind the wedge sketch: `s(v) = ±1` from
/// `mix64(seed ^ WEDGE_SALT ^ v)`. Seed-derived, so a resumed run (same
/// seed) sketches with the same hash.
const WEDGE_SALT: u64 = 0x57ED_6E5A_17C8_B3D1;

/// The names of the observable series, in the order the per-sweep
/// diagnostics ([`MixingDiagnostics::series`]) list them.
pub const SERIES_NAMES: [&str; 4] = [
    "deg_product_sum",
    "wedge_sketch",
    "ever_swapped_fraction",
    "successful_swaps",
];

/// Extract the four scalar observable series from per-sweep stats.
fn observable_series(window: &[IterationStats]) -> [Vec<f64>; 4] {
    [
        window.iter().map(|it| it.deg_product_sum).collect(),
        window.iter().map(|it| it.wedge_sketch).collect(),
        window.iter().map(|it| it.ever_swapped_fraction).collect(),
        window.iter().map(|it| it.successful_swaps as f64).collect(),
    ]
}

/// Effective sample size of a scalar series under the Geyer
/// initial-positive-sequence estimator.
///
/// Autocovariances `γ_k` are summed in adjacent pairs
/// `Γ_t = γ_{2t} + γ_{2t+1}`; the asymptotic variance accumulates
/// `-γ_0 + 2·Σ Γ_t` over the initial run of positive `Γ_t` (the longest
/// prefix that is provably nonnegative for a reversible chain), and
/// `ESS = n·γ_0 / σ²`, clamped to `[0, n]`. Returns `None` for a constant
/// series (`γ_0 = 0`): zero variance means the observable carries no
/// information about mixing over this window.
pub fn geyer_ess(series: &[f64]) -> Option<f64> {
    let n = series.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean = series.iter().sum::<f64>() / nf;
    let gamma = |k: usize| -> f64 {
        series[..n - k]
            .iter()
            .zip(&series[k..])
            .map(|(a, b)| (a - mean) * (b - mean))
            .sum::<f64>()
            / nf
    };
    let g0 = gamma(0);
    // The finiteness test also screens out NaN: a poisoned series is
    // uninformative, not converged.
    if !g0.is_finite() || g0 <= 0.0 {
        return None;
    }
    let mut sigma2 = -g0;
    let mut t = 0usize;
    while 2 * t + 1 < n {
        let big_gamma = gamma(2 * t) + gamma(2 * t + 1);
        if big_gamma <= 0.0 {
            break;
        }
        sigma2 += 2.0 * big_gamma;
        t += 1;
    }
    if sigma2 <= 0.0 {
        // Degenerate (can only happen via rounding): treat as uncorrelated.
        return Some(nf);
    }
    Some((nf * g0 / sigma2).clamp(0.0, nf))
}

/// The `StopRule::Converged` decision over the full per-sweep stats series
/// (prior segments included): `true` once the trailing `window` sweeps
/// exist, every informative observable series reaches `min_ess`, and the
/// last sweep reports zero violations (a run on simple input does not
/// track them, so it always reports zero).
///
/// A pure function of `(iterations, min_ess, window)`, so interrupt →
/// resume reproduces the identical stopping decision.
pub(crate) fn converged(iterations: &[IterationStats], min_ess: u32, window: u32) -> bool {
    let w = window as usize;
    if iterations.len() < w {
        return false;
    }
    let last = &iterations[iterations.len() - 1];
    if last.self_loops > 0 || last.multi_edges > 0 {
        return false;
    }
    let tail = &iterations[iterations.len() - w..];
    let mut informative = 0usize;
    for series in observable_series(tail) {
        if let Some(ess) = geyer_ess(&series) {
            if ess < f64::from(min_ess) {
                return false;
            }
            informative += 1;
        }
    }
    // All-constant window: a frozen chain is not a mixed chain.
    informative > 0
}

/// Incremental accumulators behind the two structural observables,
/// maintained inside the sweep loop when the run tracks diagnostics.
///
/// Built once per `run_until` invocation from the current slots (so a
/// resumed segment — and a grow-and-retry replay — reconstructs the exact
/// accumulator values: both observables are pure functions, mod 2⁶⁴, of
/// the current edge multiset). Updates are commutative wrapping adds on
/// atomics, so the per-sweep readouts are deterministic on any pool size.
pub(crate) struct DiagAccumulators {
    /// Swap-invariant vertex degrees of the run's graph.
    degrees: Vec<i64>,
    /// Seed-derived ±1 vertex hash.
    sign: Vec<i64>,
    /// `W(v) = Σ_{u ∈ N(v)} s(u)` over the current edge multiset.
    wedge: Vec<AtomicI64>,
    /// `Σ_{(u,v) ∈ E} d(u)·d(v)` over the current edge multiset.
    deg_product: AtomicI64,
}

impl DiagAccumulators {
    pub(crate) fn new<E: SwapEdge>(slots: &[Slot<E>], num_vertices: usize, seed: u64) -> Self {
        let mut degrees = vec![0i64; num_vertices];
        for s in slots {
            let (u, v) = s.edge.endpoints();
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let sign: Vec<i64> = (0..num_vertices as u64)
            .map(|v| {
                if mix64(seed ^ WEDGE_SALT ^ v) & 1 == 0 {
                    1
                } else {
                    -1
                }
            })
            .collect();
        let wedge: Vec<AtomicI64> = (0..num_vertices).map(|_| AtomicI64::new(0)).collect();
        let mut deg_product = 0i64;
        for s in slots {
            let (u, v) = s.edge.endpoints();
            let (u, v) = (u as usize, v as usize);
            wedge[u].fetch_add(sign[v], Ordering::Relaxed);
            wedge[v].fetch_add(sign[u], Ordering::Relaxed);
            deg_product = deg_product.wrapping_add(degrees[u].wrapping_mul(degrees[v]));
        }
        Self {
            degrees,
            sign,
            wedge,
            deg_product: AtomicI64::new(deg_product),
        }
    }

    #[inline]
    fn product_of<E: SwapEdge>(&self, e: &E) -> i64 {
        let (u, v) = e.endpoints();
        self.degrees[u as usize].wrapping_mul(self.degrees[v as usize])
    }

    #[inline]
    fn wedge_apply<E: SwapEdge>(&self, e: &E, flip: i64) {
        let (u, v) = e.endpoints();
        let (u, v) = (u as usize, v as usize);
        self.wedge[u].fetch_add(flip.wrapping_mul(self.sign[v]), Ordering::Relaxed);
        self.wedge[v].fetch_add(flip.wrapping_mul(self.sign[u]), Ordering::Relaxed);
    }

    /// Account for one committed swap replacing `(e, f)` with `(g, h)`:
    /// one wrapping delta on the degree-product sum, eight ±hash adds on
    /// the wedge table. All operations commute, so the accumulators are
    /// identical regardless of commit scheduling.
    #[inline]
    pub(crate) fn on_swap<E: SwapEdge>(&self, e: &E, f: &E, g: &E, h: &E) {
        let delta = self
            .product_of(g)
            .wrapping_add(self.product_of(h))
            .wrapping_sub(self.product_of(e))
            .wrapping_sub(self.product_of(f));
        self.deg_product.fetch_add(delta, Ordering::Relaxed);
        self.wedge_apply(e, -1);
        self.wedge_apply(f, -1);
        self.wedge_apply(g, 1);
        self.wedge_apply(h, 1);
    }

    /// The degree-product observable, as stored in [`IterationStats`].
    pub(crate) fn deg_product_sum(&self) -> f64 {
        self.deg_product.load(Ordering::Relaxed) as f64
    }

    /// The wedge-sketch observable `Σ_v W(v)²` (one serial O(n) wrapping
    /// reduction per sweep; deterministic by construction).
    pub(crate) fn wedge_sketch(&self) -> f64 {
        let mut acc = 0i64;
        for w in &self.wedge {
            let x = w.load(Ordering::Relaxed);
            acc = acc.wrapping_add(x.wrapping_mul(x));
        }
        acc as f64
    }
}

/// One observable series' diagnostic summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesDiagnostic {
    /// Series name (one of [`SERIES_NAMES`]).
    pub name: &'static str,
    /// Geyer ESS over the trailing window; `None` for a constant
    /// (uninformative) series.
    pub ess: Option<f64>,
}

/// Snapshot of the online convergence diagnostics of a mixing run — the
/// `mixing_diagnostics_v1` section of the `--metrics` document.
#[derive(Clone, Debug, PartialEq)]
pub struct MixingDiagnostics {
    /// Sweeps the diagnostics were computed from (the full series length).
    pub sweeps: usize,
    /// Trailing-window length the ESS estimates cover.
    pub window: u32,
    /// The ESS floor a converged stop requires.
    pub min_ess: u32,
    /// Per-series ESS estimates over the trailing window.
    pub series: Vec<SeriesDiagnostic>,
    /// Smallest ESS among informative series (`None` when every series is
    /// constant or the window has not filled).
    pub min_observed_ess: Option<f64>,
    /// Whether the converged rule would stop here (violations aside).
    pub converged: bool,
}

impl MixingDiagnostics {
    /// Compute the diagnostics over a per-sweep stats series. Usable under
    /// any stop rule (the CLI reports diagnostics for fixed-sweep runs
    /// too, with the given window/floor).
    pub fn from_iterations(iterations: &[IterationStats], min_ess: u32, window: u32) -> Self {
        let w = (window.max(2)) as usize;
        let filled = iterations.len() >= w;
        let series: Vec<SeriesDiagnostic> = if filled {
            let tail = &iterations[iterations.len() - w..];
            observable_series(tail)
                .iter()
                .zip(SERIES_NAMES)
                .map(|(s, name)| SeriesDiagnostic {
                    name,
                    ess: geyer_ess(s),
                })
                .collect()
        } else {
            SERIES_NAMES
                .iter()
                .map(|&name| SeriesDiagnostic { name, ess: None })
                .collect()
        };
        let min_observed_ess = series
            .iter()
            .filter_map(|s| s.ess)
            .min_by(|a, b| a.total_cmp(b));
        let converged =
            filled && min_observed_ess.is_some_and(|ess| ess >= f64::from(min_ess.max(1)));
        Self {
            sweeps: iterations.len(),
            window,
            min_ess,
            series,
            min_observed_ess,
            converged,
        }
    }

    /// Hand-rolled `mixing_diagnostics_v1` JSON (stable field order, no
    /// serde; non-finite and absent ESS values render as `null`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let num = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x}"),
            _ => "null".to_string(),
        };
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"schema\":\"mixing_diagnostics_v1\",\"sweeps\":{},\"window\":{},\"min_ess\":{},",
            self.sweeps, self.window, self.min_ess
        );
        json.push_str("\"series\":[");
        for (i, s) in self.series.iter().enumerate() {
            if i > 0 {
                json.push(',');
            }
            let _ = write!(json, "{{\"name\":\"{}\",\"ess\":{}}}", s.name, num(s.ess));
        }
        let _ = write!(
            json,
            "],\"min_observed_ess\":{},\"converged\":{}}}",
            num(self.min_observed_ess),
            self.converged
        );
        json
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::Edge;

    fn stats_with(values: &[(f64, f64, f64, u64)]) -> Vec<IterationStats> {
        values
            .iter()
            .map(|&(dp, ws, frac, swaps)| IterationStats {
                attempted_pairs: 10,
                successful_swaps: swaps,
                ever_swapped_fraction: frac,
                deg_product_sum: dp,
                wedge_sketch: ws,
                ..Default::default()
            })
            .collect()
    }

    /// A deterministic pseudo-random walk for exercising the estimator.
    fn noise(i: u64) -> f64 {
        (mix64(i ^ 0xA5A5) % 1000) as f64
    }

    #[test]
    fn ess_of_iid_series_is_near_n() {
        let series: Vec<f64> = (0..256).map(noise).collect();
        let ess = geyer_ess(&series).expect("informative series");
        assert!(ess > 64.0, "iid-ish series should have a large ESS: {ess}");
    }

    #[test]
    fn ess_of_correlated_series_is_small() {
        // A slow AR(1)-style walk: heavy autocorrelation, tiny ESS.
        let mut x = 0.0;
        let series: Vec<f64> = (0..256)
            .map(|i| {
                x = 0.98 * x + 0.02 * noise(i);
                x
            })
            .collect();
        let ess = geyer_ess(&series).expect("informative series");
        let iid = geyer_ess(&(0..256).map(noise).collect::<Vec<_>>()).unwrap();
        assert!(ess < iid / 4.0, "correlated {ess} vs iid {iid}");
    }

    #[test]
    fn ess_of_constant_series_is_none() {
        assert_eq!(geyer_ess(&[3.0; 64]), None);
        assert_eq!(geyer_ess(&[1.0]), None);
        assert_eq!(geyer_ess(&[]), None);
    }

    #[test]
    fn converged_needs_a_full_window() {
        let its = stats_with(&[(1.0, 2.0, 0.5, 1); 8]);
        assert!(!converged(&its, 1, 16), "window not filled");
    }

    #[test]
    fn all_constant_window_never_converges() {
        // A frozen chain: every observable constant. ESS is undefined
        // everywhere, which must read as "not converged", not "trivially
        // converged".
        let its = stats_with(&[(5.0, 7.0, 1.0, 0); 32]);
        assert!(!converged(&its, 1, 16));
    }

    #[test]
    fn informative_wiggly_window_converges_at_low_floor() {
        let its: Vec<IterationStats> = (0..64)
            .map(|i| IterationStats {
                attempted_pairs: 10,
                successful_swaps: 3 + (i % 3),
                ever_swapped_fraction: 1.0,
                deg_product_sum: noise(i),
                wedge_sketch: noise(i ^ 0xFF),
                ..Default::default()
            })
            .collect();
        assert!(converged(&its, 2, 32));
        let mut pending = its;
        pending.last_mut().unwrap().self_loops = 1;
        assert!(
            !converged(&pending, 2, 32),
            "violations pending must block the stop"
        );
    }

    #[test]
    fn diagnostics_json_shape() {
        let its = stats_with(&[(1.0, 2.0, 0.5, 1); 4]);
        let d = MixingDiagnostics::from_iterations(&its, 8, 16);
        assert_eq!(d.sweeps, 4);
        assert!(!d.converged, "window unfilled");
        let j = d.to_json();
        assert!(
            j.starts_with("{\"schema\":\"mixing_diagnostics_v1\""),
            "{j}"
        );
        for name in SERIES_NAMES {
            assert!(j.contains(&format!("\"name\":\"{name}\"")), "{j}");
        }
        assert!(j.contains("\"min_observed_ess\":null"), "{j}");
        assert!(j.contains("\"converged\":false"), "{j}");
    }

    #[test]
    fn accumulators_match_direct_recomputation_after_swaps() {
        // Maintain accumulators incrementally over a few hand-rolled swaps
        // and compare against building them fresh from the final slots.
        let edges = [
            Edge::new(0, 1),
            Edge::new(2, 3),
            Edge::new(4, 5),
            Edge::new(1, 2),
        ];
        let slots: Vec<Slot> = edges
            .iter()
            .map(|&edge| Slot {
                edge,
                swapped: false,
            })
            .collect();
        let acc = DiagAccumulators::new(&slots, 6, 99);
        // Swap {0,1},{2,3} -> {0,2},{1,3}; then {4,5},{1,2} -> {4,1},{5,2}.
        let (e, f, g, h) = (edges[0], edges[1], Edge::new(0, 2), Edge::new(1, 3));
        acc.on_swap(&e, &f, &g, &h);
        let (e2, f2, g2, h2) = (edges[2], edges[3], Edge::new(1, 4), Edge::new(2, 5));
        acc.on_swap(&e2, &f2, &g2, &h2);
        let final_slots: Vec<Slot> = [g, h, g2, h2]
            .iter()
            .map(|&edge| Slot {
                edge,
                swapped: true,
            })
            .collect();
        let fresh = DiagAccumulators::new(&final_slots, 6, 99);
        assert_eq!(acc.deg_product_sum(), fresh.deg_product_sum());
        assert_eq!(acc.wedge_sketch(), fresh.wedge_sketch());
    }
}
