//! Seeded workload generation: query pools, Zipf draws, per-client
//! operation sequences and drift placement. Everything here is a pure
//! function of the seed; the engine only ever sees the generated texts.

use webbase_webworld::data::{CONDITIONS, DURATIONS, MAKES, SAFETY_RATINGS, ZIPS};
use webbase_webworld::generate::{GenCorpus, GenRow, SiteSpec};

/// Closed-loop clients: each waits for its reply before sending again.
pub const CLIENTS: usize = 2;

/// Generations the drifting site cycles through: 0 (healthy) and the 12
/// scheduled mutations. Site state is a pure function of request and
/// generation, so cycling never caps the number of drift events.
pub const DRIFT_CYCLE: u64 = webbase_bench::DRIFT_GENERATIONS as u64 + 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperMix,
    Gen200Cold,
    PaperDrift,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PaperMix, Workload::Gen200Cold, Workload::PaperDrift];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMix => "paper-mix",
            Workload::Gen200Cold => "gen200-cold",
            Workload::PaperDrift => "paper-drift",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: a small, fully specified generator, so sequences stay
/// byte-identical for a seed whatever `rand` the workspace links.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ webbase_webworld::data::fnv(stream))
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

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf-like draws over ranks: rank `r` has weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    /// Cumulative weights, unnormalised.
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let cum = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        Zipf { cum }
    }

    /// A rank in `0..n`, for `0 < n <= ` the size given to `new`.
    pub fn draw(&self, n: usize, rng: &mut Rng) -> usize {
        let u = rng.unit() * self.cum[n - 1];
        self.cum[..n].partition_point(|&c| c <= u).min(n - 1)
    }
}

/// One benchmark operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Query the text at this index of the workload's text list.
    Read(usize),
    /// Set the drift clock to this generation, then refresh the host.
    Write(u64),
}

/// The parameters that shape a workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Texts in the workload's list (paper workloads).
    pub pool: usize,
    /// Operations in one round: client 0's, and each other client's.
    pub round: (usize, usize),
    /// Chance that a read introduces a text the client has not sent yet
    /// (its first occurrence, so a cold query); otherwise the read
    /// repeats one of the client's earlier texts.
    pub p_new: f64,
    /// Skew of repeats over a client's texts, earliest most popular.
    pub zipf_s: f64,
    /// Every `write_every`-th operation of client 0 is a write.
    pub write_every: Option<usize>,
}

pub fn shape(w: Workload) -> Shape {
    let base = Shape { pool: 0, round: (0, 0), p_new: 1.0, zipf_s: 1.0, write_every: None };
    match w {
        Workload::PaperMix => Shape { pool: 1000, round: (1500, 1500), p_new: 0.25, ..base },
        Workload::Gen200Cold => Shape { round: (100, 100), ..base },
        // Each client sends its 50 texts. Client 0 then runs four cycles
        // of three repeats and a write; client 1 sends 300 repeats. Repeats
        // are uniform, so their cost averages over the hot set rather than
        // over the few texts a seed happens to put first.
        Workload::PaperDrift => {
            Shape { pool: 100, round: (66, 350), zipf_s: 0.0, write_every: Some(4), ..base }
        }
    }
}

/// The paper's query shapes after plain make + price, which has only
/// ten texts and opens the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PaperShape {
    /// §1: the dependent join `WHERE price < bbprice`.
    Join,
    /// §6.2: the `payment :=` computed column.
    Payment,
    /// §7: make + model.
    MakeModel,
}

/// The shapes after the make+price texts, repeating: 9 joins, 9
/// payments and 2 make+model queries in every 20, interleaved so that
/// any stretch of the pool carries the same mix.
const SHAPE_PATTERN: [PaperShape; 20] = {
    use PaperShape::*;
    [
        Join, Payment, Join, Payment, MakeModel, Join, Payment, Join, Payment, Join, Payment, Join,
        Payment, MakeModel, Join, Payment, Join, Payment, Join, Payment,
    ]
};

fn paper_text(shape: PaperShape, rng: &mut Rng) -> String {
    let (make, models) = *rng.pick(MAKES);
    let year = 1988 + rng.below(10);
    let condition = rng.pick(CONDITIONS);
    match shape {
        PaperShape::Join => {
            let model = match rng.below(4) {
                0 => "model".to_string(),
                _ => format!("model='{}'", rng.pick(models)),
            };
            format!(
                "UsedCarUR(make='{make}', {model}, year >= {year}, price, bbprice, \
                 safety='{}', condition='{condition}') WHERE price < bbprice",
                rng.pick(SAFETY_RATINGS)
            )
        }
        PaperShape::Payment => format!(
            "UsedCarUR(make='{make}', model, year >= {year}, price, bbprice, rate, \
             zip='{}', duration={}, condition='{condition}', \
             payment := price * (1 + rate / 100 * duration / 12) / duration) \
             WHERE payment < 1000 AND price < bbprice",
            rng.pick(ZIPS),
            rng.pick(DURATIONS)
        ),
        PaperShape::MakeModel => {
            let model = rng.pick(models);
            if rng.below(3) == 0 {
                format!("UsedCarUR(make='{make}', model='{model}', year, price)")
            } else {
                format!("UsedCarUR(make='{make}', model='{model}', year >= {year}, price)")
            }
        }
    }
}

/// The used-car query pool: `n` distinct texts in the paper's four
/// shapes, built from the `webworld::data` constants. It opens with the
/// ten make+price queries in seeded order, then follows
/// [`SHAPE_PATTERN`], one pattern step per [`CLIENTS`] positions, so
/// each client's `j`-th new text has the same shape. A shape that has
/// run out of distinct texts yields a join or a payment query instead.
pub fn paper_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, "paper-pool");
    let mut makes: Vec<&str> = MAKES.iter().map(|(m, _)| *m).collect();
    rng.shuffle(&mut makes);
    let mut pool: Vec<String> =
        makes.iter().map(|m| format!("UsedCarUR(make='{m}', price)")).take(n).collect();
    let mut seen: std::collections::HashSet<String> = pool.iter().cloned().collect();
    for i in 0..n.saturating_sub(pool.len()) {
        let planned = SHAPE_PATTERN[(i / CLIENTS) % SHAPE_PATTERN.len()];
        let text = [planned, PaperShape::Join, PaperShape::Payment]
            .into_iter()
            .flat_map(|shape| std::iter::repeat_n(shape, 64))
            .map(|shape| paper_text(shape, &mut rng))
            .find(|t| !seen.contains(t))
            .expect("the join and payment shapes have thousands of distinct texts");
        seen.insert(text.clone());
        pool.push(text);
    }
    pool
}

/// One distinct structured-UR query over a generated site, with what
/// the relational oracle needs to answer it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenQuery {
    pub site: usize,
    pub cat: String,
    /// The section, on two-form sites.
    pub sub: Option<String>,
}

impl GenQuery {
    pub fn text(&self, spec: &SiteSpec) -> String {
        let mut bound = format!("{}='{}'", spec.attr("cat"), self.cat);
        if let Some(sub) = &self.sub {
            bound.push_str(&format!(", {}='{sub}'", spec.attr("sub")));
        }
        format!(
            "GenUR({bound}, {}, {}, {})",
            spec.attr("item"),
            spec.attr("qty"),
            spec.attr("price")
        )
    }

    /// The oracle's answer: `(item, qty, price)` per matching row, sorted.
    pub fn oracle(&self, spec: &SiteSpec) -> Vec<(String, i64, i64)> {
        let mut rows: Vec<_> = spec
            .oracle(&self.cat, self.sub.as_deref())
            .into_iter()
            .map(|r: &GenRow| (r.item.clone(), r.qty, r.price))
            .collect();
        rows.sort();
        rows.dedup();
        rows
    }
}

/// Every site × each category found in its rows, in seeded order; a
/// two-form site also binds a seeded section.
pub fn gen_queries(seed: u64, corpus: &GenCorpus) -> Vec<GenQuery> {
    let mut rng = Rng::new(seed, "gen-queries");
    let mut queries = Vec::new();
    for spec in &corpus.specs {
        let mut cats: Vec<&str> = Vec::new();
        for row in spec.rows() {
            if !cats.contains(&row.cat.as_str()) {
                cats.push(&row.cat);
            }
        }
        for cat in cats {
            let sub = spec.needs_sub().then(|| rng.pick(&spec.subs).clone());
            queries.push(GenQuery { site: spec.index, cat: cat.to_string(), sub });
        }
    }
    rng.shuffle(&mut queries);
    queries
}

/// The drift workload's hot texts: the same list for every seed (the
/// head of the pool at the standard dataset seed), so cold latency is
/// measured over one set of texts and each client repeats the same half
/// of it. The seed draws the repeats.
pub fn drift_pool() -> Vec<String> {
    paper_pool(webbase_bench::BENCH_SEED, shape(Workload::PaperDrift).pool)
}

/// Operation sequences, one per client.
///
/// Client `c` owns the texts at positions `c`, `c + CLIENTS`, … of the
/// workload's list and introduces them in order. Each read is, with
/// chance `p_new`, the client's next new text (while it has one), and
/// otherwise a Zipf draw over the texts the
/// client has sent so far. The share of first occurrences is thus fixed
/// by the seed, not by how far a run gets. In the drift workload, once
/// client 0 has introduced all its texts, every `write_every`-th of its
/// operations is a write, cycling the generation `g % DRIFT_CYCLE`.
#[derive(Debug, Clone)]
pub struct Sequence {
    client: usize,
    shape: Shape,
    rng: Rng,
    zipf: Zipf,
    /// Texts this client may introduce.
    supply: usize,
    introduced: usize,
    /// Operations since the last text was introduced.
    steady: usize,
    writes: u64,
}

impl Sequence {
    /// `texts` is the workload's text-list length.
    pub fn new(w: Workload, seed: u64, client: usize, texts: usize) -> Sequence {
        let shape = shape(w);
        let supply = texts.saturating_sub(client).div_ceil(CLIENTS);
        Sequence {
            client,
            shape,
            rng: Rng::new(seed, &format!("client-{client}")),
            zipf: Zipf::new(supply.max(1), shape.zipf_s),
            supply,
            introduced: 0,
            steady: 0,
            writes: 0,
        }
    }

    fn text(&self, j: usize) -> usize {
        j * CLIENTS + self.client
    }
}

impl Iterator for Sequence {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.client == 0 && self.introduced == self.supply {
            // Writes start once the client has introduced all its texts.
            self.steady += 1;
            if self.shape.write_every.is_some_and(|k| self.steady.is_multiple_of(k)) {
                self.writes += 1;
                return Some(Op::Write(self.writes % DRIFT_CYCLE));
            }
        }
        let fresh = self.rng.unit() < self.shape.p_new;
        if self.introduced < self.supply && (fresh || self.introduced == 0) {
            self.introduced += 1;
            return Some(Op::Read(self.text(self.introduced - 1)));
        }
        if self.introduced == 0 {
            return None;
        }
        let j = self.zipf.draw(self.introduced, &mut self.rng);
        Some(Op::Read(self.text(j)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(w: Workload, seed: u64, texts: &[String], n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for c in 0..CLIENTS {
            for op in Sequence::new(w, seed, c, texts.len()).take(n) {
                let line = match op {
                    Op::Read(t) => format!("{c} R {}\n", texts[t]),
                    Op::Write(g) => format!("{c} W {g}\n"),
                };
                out.extend_from_slice(line.as_bytes());
            }
        }
        out
    }

    #[test]
    fn equal_seeds_give_byte_identical_sequences() {
        let a = render(Workload::PaperMix, 7, &paper_pool(7, 1000), 1500);
        assert_eq!(a, render(Workload::PaperMix, 7, &paper_pool(7, 1000), 1500));
        assert_ne!(a, render(Workload::PaperMix, 8, &paper_pool(8, 1000), 1500));
        let a = render(Workload::PaperDrift, 7, &drift_pool(), 3000);
        assert_eq!(a, render(Workload::PaperDrift, 7, &drift_pool(), 3000));
        assert_ne!(a, render(Workload::PaperDrift, 8, &drift_pool(), 3000));
        let corpus = GenCorpus::generate(7, 12);
        let texts = |seed| -> Vec<String> {
            gen_queries(seed, &corpus).iter().map(|q| q.text(&corpus.specs[q.site])).collect()
        };
        let a = render(Workload::Gen200Cold, 7, &texts(7), 400);
        assert_eq!(a, render(Workload::Gen200Cold, 7, &texts(7), 400));
        assert_ne!(a, render(Workload::Gen200Cold, 9, &texts(9), 400));
    }

    #[test]
    fn cycling_drift_clock_visits_every_generation() {
        let pool = drift_pool();
        let k = shape(Workload::PaperDrift).write_every.expect("drift writes");
        let hot_ops = pool.len() / CLIENTS;
        let writes: Vec<u64> = Sequence::new(Workload::PaperDrift, 3, 0, pool.len())
            .take(hot_ops + k * 3 * DRIFT_CYCLE as usize)
            .filter_map(|op| match op {
                Op::Write(g) => Some(g),
                Op::Read(_) => None,
            })
            .collect();
        assert_eq!(writes.len(), 3 * DRIFT_CYCLE as usize);
        // Every generation, 0 included, recurs, and consecutive writes
        // always change the generation (each write is a drift event).
        for g in 0..DRIFT_CYCLE {
            assert_eq!(writes.iter().filter(|&&w| w == g).count(), 3, "generation {g}");
        }
        assert!(writes.windows(2).all(|w| w[0] != w[1]));
        assert_eq!(writes[0], 1, "the first write leaves the healthy generation");
        // Only client 0 writes.
        let other = Sequence::new(Workload::PaperDrift, 3, 1, pool.len()).take(1000);
        assert!(other.into_iter().all(|op| matches!(op, Op::Read(_))));
    }

    #[test]
    fn pools_are_distinct_and_sized() {
        let pool = paper_pool(11, 6000);
        assert_eq!(pool.len(), 6000);
        let set: std::collections::HashSet<_> = pool.iter().collect();
        assert_eq!(set.len(), pool.len());
        let corpus = GenCorpus::generate(11, 20);
        let qs = gen_queries(11, &corpus);
        let texts: std::collections::HashSet<String> =
            qs.iter().map(|q| q.text(&corpus.specs[q.site])).collect();
        assert_eq!(texts.len(), qs.len(), "generated texts must all differ");
    }

    #[test]
    fn all_distinct_sequences_never_repeat_a_text() {
        let n = 100;
        let mut seen = std::collections::HashSet::new();
        for c in 0..CLIENTS {
            for op in Sequence::new(Workload::Gen200Cold, 5, c, n).take(n / CLIENTS) {
                let Op::Read(t) = op else { panic!("no writes here") };
                assert!(seen.insert(t));
            }
        }
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn first_occurrences_keep_their_share_and_clients_stay_disjoint() {
        let pool = paper_pool(2, shape(Workload::PaperMix).pool);
        let mut owners = std::collections::HashMap::new();
        for c in 0..CLIENTS {
            let mut seen = std::collections::HashSet::new();
            let round = shape(Workload::PaperMix).round.0;
            let ops: Vec<Op> =
                Sequence::new(Workload::PaperMix, 2, c, pool.len()).take(round).collect();
            let mut new = 0;
            for op in &ops {
                let Op::Read(t) = *op else { panic!("paper-mix has no writes") };
                assert_eq!(*owners.entry(t).or_insert(c), c, "text {t} sent by two clients");
                new += usize::from(seen.insert(t));
            }
            let share = new as f64 / ops.len() as f64;
            assert!((share - 0.25).abs() < 0.03, "client {c}: first-occurrence share {share}");
        }
        // A drift client introduces its 50 texts, then only repeats them.
        let reads: std::collections::HashSet<usize> =
            Sequence::new(Workload::PaperDrift, 2, 1, 100)
                .take(2000)
                .map(|op| match op {
                    Op::Read(t) => t,
                    Op::Write(_) => panic!("client 1 never writes"),
                })
                .collect();
        assert_eq!(reads.len(), 50);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, "z");
        let mut hits = [0usize; 100];
        for _ in 0..20000 {
            hits[z.draw(100, &mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        assert!((0..1000).all(|_| z.draw(7, &mut rng) < 7));
    }
}
