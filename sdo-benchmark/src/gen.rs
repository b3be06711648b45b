//! Seeded input generation: tables, windows and statement streams.
//!
//! Everything the engine sees in a run is produced here from `--seed`
//! with the harness's own generator, so a later change to the engine
//! (or to `sdo-datagen`) cannot move the benchmark's inputs.

use sdo_geom::{Geometry, Point, Polygon, Rect, Ring};

/// The data extent every workload generates into.
pub const EXTENT: Rect = Rect::new(0.0, 0.0, 1000.0, 500.0);

/// SplitMix64: small, fast, and fully specified here, so the same seed
/// gives the same inputs on every host and toolchain.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `(seed, stream)`, e.g. one per client.
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A simple polygon without holes, counterclockwise, closing edge
/// implicit. The oracle works on these vertex lists directly; the
/// engine receives the same vertices as a [`Geometry`].
pub type Poly = Vec<[f64; 2]>;

pub fn to_geometry(p: &Poly) -> Geometry {
    let ring = Ring::new(p.iter().map(|v| Point::new(v[0], v[1])).collect())
        .expect("generated polygons have at least three vertices");
    Geometry::Polygon(Polygon::from_exterior(ring))
}

pub fn rect_poly(r: &Rect) -> Poly {
    vec![[r.min_x, r.min_y], [r.max_x, r.min_y], [r.max_x, r.max_y], [r.min_x, r.max_y]]
}

/// `n` county-like polygons tiling [`EXTENT`]: a grid whose interior
/// corners and edge midpoints are jittered once and shared by the
/// adjacent cells, so neighbours touch along irregular borders.
pub fn counties(n: usize, rng: &mut Rng) -> Vec<Poly> {
    let aspect = EXTENT.width() / EXTENT.height();
    let rows = ((n as f64 / aspect).sqrt().ceil() as usize).max(1);
    let cols = n.div_ceil(rows);
    let (cw, ch) = (EXTENT.width() / cols as f64, EXTENT.height() / rows as f64);
    let mut jitter = |interior: bool, amp: f64| -> [f64; 2] {
        if interior {
            [rng.range(-cw, cw) * amp, rng.range(-ch, ch) * amp]
        } else {
            [0.0, 0.0]
        }
    };
    let mut corner = vec![vec![[0.0; 2]; rows + 1]; cols + 1];
    for (i, col) in corner.iter_mut().enumerate() {
        for (j, c) in col.iter_mut().enumerate() {
            let d = jitter(i > 0 && i < cols && j > 0 && j < rows, 0.25);
            *c = [EXTENT.min_x + i as f64 * cw + d[0], EXTENT.min_y + j as f64 * ch + d[1]];
        }
    }
    let mid = |a: [f64; 2], b: [f64; 2], d: [f64; 2]| {
        [(a[0] + b[0]) * 0.5 + d[0], (a[1] + b[1]) * 0.5 + d[1]]
    };
    // vmid[i][j]: midpoint of the edge corner(i,j) -> corner(i,j+1).
    let mut vmid = vec![vec![[0.0; 2]; rows]; cols + 1];
    for i in 0..=cols {
        for j in 0..rows {
            vmid[i][j] = mid(corner[i][j], corner[i][j + 1], jitter(i > 0 && i < cols, 0.1));
        }
    }
    // hmid[i][j]: midpoint of the edge corner(i,j) -> corner(i+1,j).
    let mut hmid = vec![vec![[0.0; 2]; rows + 1]; cols];
    for i in 0..cols {
        for j in 0..=rows {
            hmid[i][j] = mid(corner[i][j], corner[i + 1][j], jitter(j > 0 && j < rows, 0.1));
        }
    }
    let mut out = Vec::with_capacity(n);
    'cells: for j in 0..rows {
        for i in 0..cols {
            if out.len() == n {
                break 'cells;
            }
            out.push(vec![
                corner[i][j],
                hmid[i][j],
                corner[i + 1][j],
                vmid[i + 1][j],
                corner[i + 1][j + 1],
                hmid[i][j + 1],
                corner[i][j + 1],
                vmid[i][j],
            ]);
        }
    }
    out
}

/// `n` block-group-like polygons: star-shaped around uniformly placed
/// centres, `vertices.0..vertices.1` vertices each, radius sized so a
/// polygon overlaps a few of its neighbours.
pub fn block_groups(n: usize, vertices: (usize, usize), rng: &mut Rng) -> Vec<Poly> {
    let base_r = (EXTENT.width() * EXTENT.height() / n as f64).sqrt() * 0.7;
    (0..n)
        .map(|_| {
            let r0 = base_r * rng.range(0.5, 1.5);
            let margin = r0 * 1.5;
            let (cx, cy) = (
                rng.range(EXTENT.min_x + margin, EXTENT.max_x - margin),
                rng.range(EXTENT.min_y + margin, EXTENT.max_y - margin),
            );
            let nv = vertices.0 + rng.below(vertices.1 - vertices.0);
            // Radius wobble below 50 % keeps the ring single-valued in
            // the angle, hence simple.
            let harmonics: Vec<(f64, f64, f64)> = (2..6)
                .map(|k| (k as f64, rng.range(0.0, 0.11), rng.range(0.0, std::f64::consts::TAU)))
                .collect();
            (0..nv)
                .map(|i| {
                    let theta = i as f64 / nv as f64 * std::f64::consts::TAU;
                    let wobble: f64 =
                        harmonics.iter().map(|(k, a, phi)| a * (k * theta + phi).sin()).sum();
                    let r = r0 * (1.0 + wobble);
                    [cx + r * theta.cos(), cy + r * theta.sin()]
                })
                .collect()
        })
        .collect()
}

/// A square window of side `side` placed uniformly inside `within`.
pub fn window(within: &Rect, side: f64, rng: &mut Rng) -> Rect {
    let x = rng.range(within.min_x, within.max_x - side);
    let y = rng.range(within.min_y, within.max_y - side);
    Rect::new(x, y, x + side, y + side)
}

/// FNV-1a over the bit patterns of every coordinate: the "data hash"
/// recorded with each run and compared by the determinism tests.
pub fn data_hash(tables: &[&[Poly]]) -> u64 {
    let mut h = Fnv::default();
    for t in tables {
        h.write(&(t.len() as u64).to_le_bytes());
        for p in *t {
            h.write(&(p.len() as u64).to_le_bytes());
            for v in p {
                h.write(&v[0].to_bits().to_le_bytes());
                h.write(&v[1].to_bits().to_le_bytes());
            }
        }
    }
    h.0
}

/// FNV-1a, 64 bit.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_data_other_seed_other_data() {
        let make = |seed| {
            let mut rng = Rng::new(seed);
            let c = counties(60, &mut rng);
            let b = block_groups(200, (12, 30), &mut rng);
            data_hash(&[&c, &b])
        };
        assert_eq!(make(7), make(7));
        assert_ne!(make(7), make(8));
    }

    #[test]
    fn generated_polygons_are_valid_and_inside_the_extent() {
        let mut rng = Rng::new(3);
        let mut all = counties(50, &mut rng);
        all.extend(block_groups(100, (12, 30), &mut rng));
        for p in &all {
            let g = to_geometry(p);
            sdo_geom::validate::validate(&g).expect("valid polygon");
            assert!(EXTENT.contains_rect(&g.bbox()));
            // Counterclockwise as generated, so the engine keeps the
            // vertex order and results compare vertex for vertex.
            let Geometry::Polygon(poly) = &g else { unreachable!() };
            assert!(poly.exterior().signed_area() > 0.0);
        }
    }

    #[test]
    fn client_streams_differ() {
        assert_ne!(Rng::stream(1, 0).next_u64(), Rng::stream(1, 1).next_u64());
    }
}
