//! Seeded input generators. Every query is a pure function of
//! `(seed, index)`, so the output check can regenerate any part of a
//! stream instead of keeping it in memory.

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform in `[0, 1)` from the top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Small sequential generator for everything that is not a query.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    pub fn next_unit(&mut self) -> f64 {
        unit(self.next_u64())
    }
}

/// The `index`-th query of the never-repeating stream `seed`, as
/// `[c_1, c_2, r_1, r_2]` (lower corner and width of the range on the
/// two active attributes): corners
/// uniform, widths uniform in what is left of the domain (the
/// distribution the models are trained on). The low 32 mantissa bits of
/// `c_1` carry the index, so two indices below 2^32 can never produce
/// the same vector, whatever the hash does.
pub fn unique_query(seed: u64, index: u64) -> Vec<f64> {
    let h = splitmix64(seed ^ splitmix64(index));
    let u = [
        unit(h),
        unit(splitmix64(h ^ 1)),
        unit(splitmix64(h ^ 2)),
        unit(splitmix64(h ^ 3)),
    ];
    let c1 = f64::from_bits((u[0].to_bits() & !0xFFFF_FFFF) | (index & 0xFFFF_FFFF));
    let c2 = u[1];
    vec![c1, c2, u[2] * (1.0 - c1), u[3] * (1.0 - c2)]
}

/// `count` consecutive queries of stream `seed`, starting at `start`.
pub fn unique_batch(seed: u64, start: u64, count: usize) -> Vec<Vec<f64>> {
    (start..start + count as u64)
        .map(|i| unique_query(seed, i))
        .collect()
}

/// Zipf(s) ranks over a fixed universe, by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(universe: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for rank in 1..=universe {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Rank in `0..universe` (0 is the most popular).
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The Zipf-skewed stream: batch `b` of stream `seed` draws its ranks
/// from a generator seeded by `(seed, b)`, so any batch can be
/// regenerated on its own.
pub struct ZipfStream {
    seed: u64,
    zipf: Zipf,
    universe: Vec<Vec<f64>>,
}

impl ZipfStream {
    pub fn new(seed: u64, universe: usize, s: f64) -> ZipfStream {
        ZipfStream {
            seed,
            zipf: Zipf::new(universe, s),
            // Popularity rank i is universe query i: the universe is
            // itself a seeded never-repeating stream.
            universe: unique_batch(seed ^ 0x5A17_F00D, 0, universe),
        }
    }

    pub fn batch(&self, b: u64, count: usize) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(self.seed ^ splitmix64(b.wrapping_add(0xB47C)));
        (0..count)
            .map(|_| self.universe[self.zipf.sample(&mut rng)].clone())
            .collect()
    }
}
