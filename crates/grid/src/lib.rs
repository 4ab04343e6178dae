//! Cubed-sphere spectral-element (Gauss-Lobatto-Legendre) grid.
//!
//! CESM's spectral-element atmosphere (CAM-SE) discretizes the sphere with a
//! cubed-sphere grid of `ne × ne` elements per face, each carrying an
//! `np × np` tensor grid of GLL nodes. Nodes on element and face boundaries
//! are shared, so the number of unique horizontal points is
//!
//! ```text
//! npts(ne, np) = 6 · ne² · (np − 1)² + 2
//! ```
//!
//! which for the paper's `ne = 30`, `np = 4` configuration gives exactly the
//! 48,602 horizontal grid points quoted in Section 5.1 of Baker et al.
//! (HPDC'14).
//!
//! This crate builds that point set (equiangular gnomonic projection),
//! assigns each point its latitude, longitude and spherical area weight, and
//! provides the spatial orderings the rest of the workspace relies on
//! (latitude-major scan order for transform codecs, nearest-point queries
//! for analysis examples).

mod gll;
mod sphere;

pub use gll::{gll_nodes, gll_weights};
pub use sphere::{great_circle_distance, LatLon};

use std::collections::HashMap;

/// Grid resolution: cubed-sphere element count, nodes per element edge, and
/// the number of vertical levels carried by 3-D variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Elements along each cube-face edge (CAM-SE `ne`).
    pub ne: usize,
    /// GLL nodes along each element edge (CAM-SE `np`).
    pub np: usize,
    /// Vertical levels for 3-D fields.
    pub nlev: usize,
}

impl Resolution {
    /// The configuration used in the paper: `ne=30`, `np=4` (a 1-degree
    /// global grid, 48,602 horizontal points) with 30 vertical levels.
    pub fn paper() -> Self {
        Resolution { ne: 30, np: 4, nlev: 30 }
    }

    /// A reduced configuration for laptop-scale experiments and tests.
    /// `np` is fixed at 4 as in CAM-SE.
    pub fn reduced(ne: usize, nlev: usize) -> Self {
        Resolution { ne, np: 4, nlev }
    }

    /// Number of unique horizontal grid points: `6·ne²·(np−1)² + 2`.
    pub fn horiz_points(&self) -> usize {
        6 * self.ne * self.ne * (self.np - 1) * (self.np - 1) + 2
    }

    /// Number of points in a 3-D field (`horiz_points × nlev`).
    pub fn points_3d(&self) -> usize {
        self.horiz_points() * self.nlev
    }
}

impl Default for Resolution {
    fn default() -> Self {
        // Small enough that full 101-member ensemble sweeps finish quickly,
        // large enough that every codec sees realistic spatial structure.
        Resolution::reduced(8, 8)
    }
}

/// A horizontal grid point on the unit sphere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Latitude in radians, in `[-π/2, π/2]`.
    pub lat: f64,
    /// Longitude in radians, in `[0, 2π)`.
    pub lon: f64,
    /// Spherical area weight; weights over the grid sum to `4π`.
    pub area: f64,
}

/// The assembled cubed-sphere GLL grid.
///
/// Point storage order is deterministic for a given [`Resolution`]:
/// points are sorted by latitude, then longitude, which gives downstream
/// transform codecs a spatially coherent 1-D scan (neighbouring indices are
/// neighbouring latitudes).
#[derive(Debug, Clone)]
pub struct Grid {
    resolution: Resolution,
    points: Vec<GridPoint>,
    /// Row extents of the latitude-major 2-D embedding (see [`Grid::shape_2d`]).
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Build the grid for `resolution`.
    ///
    /// Construction enumerates all `6·ne²·np²` element nodes, dedupes shared
    /// edge/corner nodes, accumulates each node's area contribution from
    /// every element that touches it, and sorts points into latitude-major
    /// order.
    pub fn build(resolution: Resolution) -> Self {
        assert!(resolution.ne >= 1, "ne must be >= 1");
        assert!(
            (2..=8).contains(&resolution.np),
            "np must be in 2..=8 (CAM-SE uses np=4)"
        );
        assert!(resolution.nlev >= 1, "nlev must be >= 1");

        let ne = resolution.ne;
        let np = resolution.np;
        let nodes = gll_nodes(np);
        let weights = gll_weights(np);

        // Dedupe key: quantized position on the cube surface. We key on the
        // *cube* coordinates (face-independent canonical form) by quantizing
        // the unit-sphere direction, which is exact enough at any practical
        // resolution (adjacent GLL nodes at ne=240 are > 1e-4 apart).
        const Q: f64 = 1e9;
        let key = |v: [f64; 3]| -> (i64, i64, i64) {
            (
                (v[0] * Q).round() as i64,
                (v[1] * Q).round() as i64,
                (v[2] * Q).round() as i64,
            )
        };

        let mut index: HashMap<(i64, i64, i64), usize> = HashMap::new();
        let mut dirs: Vec<[f64; 3]> = Vec::new();
        let mut areas: Vec<f64> = Vec::new();

        let de = std::f64::consts::FRAC_PI_2 / ne as f64; // element width in angle
        for face in 0..6 {
            for ei in 0..ne {
                for ej in 0..ne {
                    for (ni, &xi) in nodes.iter().enumerate() {
                        for (nj, &eta) in nodes.iter().enumerate() {
                            let alpha =
                                -std::f64::consts::FRAC_PI_4 + (ei as f64 + (xi + 1.0) / 2.0) * de;
                            let beta =
                                -std::f64::consts::FRAC_PI_4 + (ej as f64 + (eta + 1.0) / 2.0) * de;
                            let dir = sphere::cube_to_sphere(face, alpha, beta);
                            // Equiangular metric: dA = (1+X²)(1+Y²)/δ³ dα dβ,
                            // X = tan α, Y = tan β, δ² = 1 + X² + Y².
                            let x = alpha.tan();
                            let y = beta.tan();
                            let delta2 = 1.0 + x * x + y * y;
                            let jac = (1.0 + x * x) * (1.0 + y * y) / delta2.powf(1.5);
                            let w = weights[ni] * weights[nj] * (de / 2.0) * (de / 2.0) * jac;
                            let k = key(dir);
                            match index.get(&k) {
                                Some(&p) => areas[p] += w,
                                None => {
                                    index.insert(k, dirs.len());
                                    dirs.push(dir);
                                    areas.push(w);
                                }
                            }
                        }
                    }
                }
            }
        }

        debug_assert_eq!(dirs.len(), resolution.horiz_points());

        let mut points: Vec<GridPoint> = dirs
            .iter()
            .zip(&areas)
            .map(|(d, &a)| {
                let ll = sphere::to_latlon(*d);
                GridPoint { lat: ll.lat, lon: ll.lon, area: a }
            })
            .collect();

        // Latitude-major, then longitude order: a deterministic, spatially
        // coherent scan used by every consumer of the grid.
        points.sort_by(|a, b| {
            (a.lat, a.lon)
                .partial_cmp(&(b.lat, b.lon))
                .expect("grid coordinates are finite")
        });

        let n = points.len();
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);

        Grid { resolution, points, rows, cols }
    }

    /// The resolution this grid was built for.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Number of horizontal points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff the grid has no points (never, for a valid resolution).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All grid points in latitude-major order.
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Latitude (radians) of point `i`.
    pub fn lat(&self, i: usize) -> f64 {
        self.points[i].lat
    }

    /// Longitude (radians) of point `i`.
    pub fn lon(&self, i: usize) -> f64 {
        self.points[i].lon
    }

    /// Spherical area weight of point `i`; all weights sum to `4π`.
    pub fn area(&self, i: usize) -> f64 {
        self.points[i].area
    }

    /// Area-weighted global mean of a horizontal field, skipping points
    /// where `mask` returns `false` (used to exclude special/fill values).
    pub fn weighted_mean<F>(&self, field: &[f32], mask: F) -> f64
    where
        F: Fn(usize) -> bool,
    {
        assert_eq!(field.len(), self.len(), "field length must match grid");
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, p) in self.points.iter().enumerate() {
            if mask(i) {
                num += p.area * field[i] as f64;
                den += p.area;
            }
        }
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Shape `(rows, cols)` of the dense 2-D embedding of the horizontal
    /// point list (`rows·cols ≥ len`, last row possibly partial). Because
    /// points are in latitude-major order, rows of the embedding are
    /// latitude bands — spatially coherent input for 2-D transform codecs.
    pub fn shape_2d(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Index of the grid point nearest to (`lat`, `lon`) in radians.
    ///
    /// Uses the latitude-major ordering to restrict the search to nearby
    /// latitude bands before falling back to great-circle comparison.
    pub fn nearest(&self, lat: f64, lon: f64) -> usize {
        let n = self.len();
        assert!(n > 0);
        // Binary search for the latitude, then scan a generous window.
        let pos = self
            .points
            .binary_search_by(|p| p.lat.partial_cmp(&lat).expect("finite"))
            .unwrap_or_else(|e| e);
        // Window spanning a few latitude bands each way.
        let band = 4 * self.cols.max(1);
        let lo = pos.saturating_sub(band);
        let hi = (pos + band).min(n);
        let target = LatLon { lat, lon };
        let mut best = lo;
        let mut best_d = f64::INFINITY;
        for i in lo..hi {
            let d = great_circle_distance(
                target,
                LatLon { lat: self.points[i].lat, lon: self.points[i].lon },
            );
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_resolution_point_count() {
        assert_eq!(Resolution::paper().horiz_points(), 48_602);
    }

    #[test]
    fn point_count_formula_small() {
        for ne in 1..5 {
            let r = Resolution::reduced(ne, 4);
            let g = Grid::build(r);
            assert_eq!(g.len(), 6 * ne * ne * 9 + 2, "ne={ne}");
        }
    }

    #[test]
    fn areas_sum_to_sphere() {
        let g = Grid::build(Resolution::reduced(4, 4));
        let total: f64 = g.points().iter().map(|p| p.area).sum();
        let sphere = 4.0 * std::f64::consts::PI;
        // GLL quadrature of the (non-polynomial) metric term converges
        // spectrally with ne; at ne=4 the relative error is ~1e-7.
        assert!(
            (total - sphere).abs() < 1e-6 * sphere,
            "total area {total} vs {sphere}"
        );
    }

    #[test]
    fn all_areas_positive() {
        let g = Grid::build(Resolution::reduced(3, 4));
        assert!(g.points().iter().all(|p| p.area > 0.0));
    }

    #[test]
    fn latitudes_sorted_and_in_range() {
        let g = Grid::build(Resolution::reduced(3, 4));
        let mut prev = f64::NEG_INFINITY;
        for p in g.points() {
            assert!(p.lat >= -std::f64::consts::FRAC_PI_2 - 1e-12);
            assert!(p.lat <= std::f64::consts::FRAC_PI_2 + 1e-12);
            assert!(p.lon >= 0.0 && p.lon < 2.0 * std::f64::consts::PI + 1e-12);
            assert!(p.lat >= prev);
            prev = p.lat;
        }
    }

    #[test]
    fn has_poles() {
        // The two "+2" points of the count formula are the cube corners
        // nearest the poles only for specific orientations; what we actually
        // guarantee is coverage: some point within one element width of each
        // pole.
        let g = Grid::build(Resolution::reduced(4, 4));
        let north = g.points().last().unwrap().lat;
        let south = g.points().first().unwrap().lat;
        assert!(north > 1.2, "northernmost point at {north}");
        assert!(south < -1.2, "southernmost point at {south}");
    }

    #[test]
    fn weighted_mean_of_constant_field() {
        let g = Grid::build(Resolution::reduced(2, 4));
        let field = vec![3.5f32; g.len()];
        let m = g.weighted_mean(&field, |_| true);
        assert!((m - 3.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_respects_mask() {
        let g = Grid::build(Resolution::reduced(2, 4));
        let mut field = vec![1.0f32; g.len()];
        // Poison half the points; mask them out.
        for v in &mut field[..g.len() / 2] {
            *v = 1e35;
        }
        let m = g.weighted_mean(&field, |i| i >= g.len() / 2);
        assert!((m - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_mean_empty_mask_is_zero() {
        let g = Grid::build(Resolution::reduced(2, 4));
        let field = vec![1.0f32; g.len()];
        assert_eq!(g.weighted_mean(&field, |_| false), 0.0);
    }

    #[test]
    fn shape_2d_covers_all_points() {
        let g = Grid::build(Resolution::reduced(5, 4));
        let (r, c) = g.shape_2d();
        assert!(r * c >= g.len());
        assert!((r - 1) * c < g.len(), "embedding has an entirely empty row");
    }

    #[test]
    fn nearest_recovers_exact_points() {
        let g = Grid::build(Resolution::reduced(3, 4));
        for &i in &[0usize, 7, g.len() / 2, g.len() - 1] {
            let p = g.points()[i];
            let j = g.nearest(p.lat, p.lon);
            let q = g.points()[j];
            // May land on a coincident-latitude twin; distance must be ~0.
            let d = great_circle_distance(
                LatLon { lat: p.lat, lon: p.lon },
                LatLon { lat: q.lat, lon: q.lon },
            );
            assert!(d < 1e-9, "point {i} -> {j}, distance {d}");
        }
    }

    #[test]
    fn nearest_equator_query() {
        let g = Grid::build(Resolution::reduced(4, 4));
        let i = g.nearest(0.0, std::f64::consts::PI);
        let d = great_circle_distance(
            LatLon { lat: 0.0, lon: std::f64::consts::PI },
            LatLon { lat: g.lat(i), lon: g.lon(i) },
        );
        // Must be within roughly one element diagonal.
        let elem = std::f64::consts::FRAC_PI_2 / 4.0;
        assert!(d < elem, "nearest equator point {d} rad away");
    }

    #[test]
    fn points_3d_count() {
        let r = Resolution::reduced(2, 5);
        assert_eq!(r.points_3d(), r.horiz_points() * 5);
    }

    #[test]
    #[should_panic(expected = "np must be")]
    fn rejects_bad_np() {
        Grid::build(Resolution { ne: 2, np: 1, nlev: 1 });
    }
}
