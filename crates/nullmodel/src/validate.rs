//! Output validation: did the generated graph do what the paper promises?

use graphcore::metrics::{degree_ks_distance, per_degree_error, DistributionComparison};
use graphcore::{DegreeDistribution, EdgeList};

/// A structured check of one generated graph against its target
/// distribution.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// No self loops or multi-edges.
    pub is_simple: bool,
    /// Fig. 3's error triple (edge count, max degree, Gini).
    pub comparison: DistributionComparison,
    /// Mean absolute per-degree relative error (Fig. 2's curve, collapsed).
    pub mean_abs_degree_error: f64,
    /// Kolmogorov-Smirnov distance between the realized and target degree
    /// distributions (0 = identical CDFs).
    pub ks_distance: f64,
    /// Pooled chi-square p-value of the realized degree histogram against
    /// the target's expected class counts (`None` when the histogram
    /// collapses to fewer than two pooled cells). Informational — small
    /// values flag a *distributional* mismatch that the aggregate
    /// percentage errors can miss; exact-degree generators score 1.0.
    /// Deliberately not part of [`passes`](Self::passes): expectation-based
    /// generators have legitimately random histograms.
    pub chi_square_p: Option<f64>,
}

impl ValidationReport {
    /// Measure `graph` against `target`.
    pub fn measure(graph: &EdgeList, target: &DegreeDistribution) -> Self {
        let per_degree = per_degree_error(graph, target);
        let mean_abs_degree_error = if per_degree.is_empty() {
            0.0
        } else {
            per_degree.iter().map(|&(_, e)| e.abs()).sum::<f64>() / per_degree.len() as f64
        };
        let realized = graph.degree_distribution();
        Self {
            is_simple: graph.is_simple(),
            comparison: DistributionComparison::measure(graph, target),
            mean_abs_degree_error,
            ks_distance: degree_ks_distance(&realized, target),
            chi_square_p: degree_histogram_chi_square(&realized, target),
        }
    }

    /// `true` when the graph is simple and every aggregate error is within
    /// `tol_pct` percent (degree error within `tol_pct / 100` relative).
    pub fn passes(&self, tol_pct: f64) -> bool {
        self.is_simple
            && self.comparison.edge_count_pct.abs() <= tol_pct
            && self.comparison.max_degree_pct.abs() <= tol_pct
            && self.comparison.gini_pct.abs() <= tol_pct
            && self.mean_abs_degree_error <= tol_pct / 100.0
    }
}

/// Pooled Pearson chi-square of the realized per-degree vertex counts
/// against the target's class counts, over the union of the two degree
/// supports. Cells are pooled to an expected count of at least 5 (the
/// classical validity rule) by [`stattest::chi_square_pooled`].
fn degree_histogram_chi_square(
    realized: &DegreeDistribution,
    target: &DegreeDistribution,
) -> Option<f64> {
    use std::collections::BTreeMap;
    let mut cells: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
    for (&d, &c) in target.degrees().iter().zip(target.counts()) {
        cells.entry(d).or_default().1 += c as f64;
    }
    for (&d, &c) in realized.degrees().iter().zip(realized.counts()) {
        cells.entry(d).or_default().0 += c;
    }
    let observed: Vec<u64> = cells.values().map(|&(o, _)| o).collect();
    let expected: Vec<f64> = cells.values().map(|&(_, e)| e).collect();
    stattest::chi_square_pooled(&observed, &expected, 5.0).map(|t| t.p_value)
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simple: {} | edge err {:+.2}% | dmax err {:+.2}% | gini err {:+.2}% | mean |degree err| {:.4}",
            self.is_simple,
            self.comparison.edge_count_pct,
            self.comparison.max_degree_pct,
            self.comparison.gini_pct,
            self.mean_abs_degree_error
        )?;
        write!(f, " | ks {:.4}", self.ks_distance)?;
        match self.chi_square_p {
            Some(p) => write!(f, " | chi2 p {p:.4}"),
            None => write!(f, " | chi2 p n/a"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_generate_from_distribution, GeneratorConfig};

    #[test]
    fn perfect_realization_passes() {
        let d = DegreeDistribution::from_pairs(vec![(2, 50)]).unwrap();
        let g = generators::havel_hakimi(&d).unwrap();
        let r = ValidationReport::measure(&g, &d);
        assert!(r.is_simple);
        assert!(r.passes(0.01));
        assert_eq!(r.mean_abs_degree_error, 0.0);
        assert_eq!(r.ks_distance, 0.0);
        // A single degree class pools to one chi-square cell: no test.
        assert_eq!(r.chi_square_p, None);
    }

    #[test]
    fn exact_multiclass_realization_has_p_one() {
        let d = DegreeDistribution::from_pairs(vec![(1, 500), (2, 200), (5, 60)]).unwrap();
        let g = generators::havel_hakimi(&d).unwrap();
        let r = ValidationReport::measure(&g, &d);
        // Realized histogram equals the target exactly: chi2 = 0, p = 1.
        assert_eq!(r.chi_square_p, Some(1.0));
    }

    #[test]
    fn wildly_wrong_histogram_has_tiny_p() {
        let d = DegreeDistribution::from_pairs(vec![(1, 200), (4, 100)]).unwrap();
        // A graph realizing a very different histogram: all degree 2.
        let wrong = DegreeDistribution::from_pairs(vec![(2, 300)]).unwrap();
        let g = generators::havel_hakimi(&wrong).unwrap();
        let r = ValidationReport::measure(&g, &d);
        let p = r.chi_square_p.expect("multi-cell histogram");
        assert!(p < 1e-12, "p = {p}");
        assert!(format!("{r}").contains("chi2 p"));
    }

    #[test]
    fn pipeline_output_within_tolerance() {
        let d =
            DegreeDistribution::from_pairs(vec![(1, 500), (2, 200), (5, 60), (12, 10)]).unwrap();
        let out = try_generate_from_distribution(&d, &GeneratorConfig::new(17)).unwrap();
        let r = ValidationReport::measure(&out.graph, &d);
        assert!(r.is_simple);
        assert!(r.comparison.edge_count_pct.abs() < 15.0, "report: {r}");
    }

    #[test]
    fn display_renders() {
        let d = DegreeDistribution::from_pairs(vec![(2, 10)]).unwrap();
        let g = generators::havel_hakimi(&d).unwrap();
        let s = format!("{}", ValidationReport::measure(&g, &d));
        assert!(s.contains("simple: true"));
    }

    #[test]
    fn bad_graph_fails() {
        let d = DegreeDistribution::from_pairs(vec![(2, 10), (4, 5)]).unwrap();
        let empty = EdgeList::new(15);
        let r = ValidationReport::measure(&empty, &d);
        assert!(!r.passes(5.0));
    }
}
