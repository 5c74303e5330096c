//! Workload definitions and the seeded input generator.
//!
//! The generator is the only place the seed is used. It writes one
//! shared database (`db.fa`) and one request file per workload; the
//! measured run reads nothing else, so the program under test only
//! ever sees generated files and requests.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use aalign_bio::fasta::write_fasta;
use aalign_bio::synth::{random_protein, seeded_rng, swissprot_like_len, Level, PairSpec};
use aalign_bio::Sequence;
use rand::rngs::StdRng;
use rand::RngExt;

/// Hits kept per request.
pub const TOP_N: usize = 10;

/// Residues in the shared database, planted homologs included. Sized
/// so the slowest closed loop (search_long) still completes well over
/// the 100 requests per run that a p90 needs.
pub const DB_RESIDUES: usize = 220_000;

/// Open-loop arrival rate of serve_open, in arrivals per second. Fixed
/// here (never re-derived per run) at about a quarter of the daemon's
/// capacity on a 2-core AVX-512 host (≈ 60 requests/s). Nearer half, a
/// shared host's slow spells push the two client connections into
/// backlog and the tail doubles from run to run. Each arrival block of
/// [`BLOCK`] holds [`BLOCK_REPEATS`] duplicate bursts, so requests per
/// second are `SERVE_ARRIVALS_PER_S × (1 + BLOCK_REPEATS / BLOCK)`.
pub const SERVE_ARRIVALS_PER_S: f64 = 14.0;

/// serve_open arrivals are laid out in blocks of this many: one long
/// query, [`BLOCK_REPEATS`] bursts of two identical requests, and
/// short singles for the rest, in seeded order.
pub const BLOCK: usize = 20;
pub const BLOCK_REPEATS: usize = 4;

/// Sequences at least this long are the planted homologs of the long
/// queries (Q1000 and up); background lengths are drawn below it.
pub const LONG: usize = 1000;

/// The long homologs sit at fixed shares of the database,
/// `(2j + 1) / (2 × LONG_SLOTS)`, in a fixed length order. A contiguous
/// split into N ≤ 4 shards then gives every shard the same set of long
/// sequences, and so the same length envelope, on every seed: each
/// shard certifies its own envelope at launch, and with seeded
/// placement that cost moved with the seed. No shard boundary `i / N`
/// (N ≤ 4) falls near a slot.
const LONG_SLOTS: usize = 8;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchShort,
    SearchLong,
    ServeOpen,
    ShardSearch,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SearchShort,
        Workload::SearchLong,
        Workload::ServeOpen,
        Workload::ShardSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchShort => "search_short",
            Workload::SearchLong => "search_long",
            Workload::ServeOpen => "serve_open",
            Workload::ShardSearch => "shard_search",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Fixed per-request latency limit for `goodput_rps`.
    pub fn latency_limit_ms(self) -> f64 {
        match self {
            Workload::SearchShort => 100.0,
            Workload::SearchLong => 400.0,
            Workload::ServeOpen => 250.0,
            Workload::ShardSearch => 150.0,
        }
    }

    /// Distinct queries: (length, copies) pairs. serve_open's last
    /// entry is its long pool.
    fn pool(self) -> &'static [(usize, usize)] {
        match self {
            Workload::SearchShort => &[(48, 6), (60, 6), (72, 6), (84, 6), (96, 6), (110, 6)],
            Workload::SearchLong => &[(1000, 1), (1500, 1), (2000, 1), (3000, 1), (4000, 1)],
            Workload::ServeOpen => &[
                (48, 4),
                (64, 4),
                (96, 4),
                (128, 4),
                (192, 4),
                (282, 4),
                (1000, 2),
            ],
            Workload::ShardSearch => &[(282, 8)],
        }
    }
}

/// One request as the run reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Scheduled send time in µs from the start of the measured phase
    /// (open loop only; 0 in closed loops, which send back to back).
    pub due_us: u64,
    pub query_id: String,
    pub residues: String,
}

fn homolog_specs() -> [PairSpec; 4] {
    [
        PairSpec::new(Level::Hi, Level::Hi),
        PairSpec::new(Level::Hi, Level::Md),
        PairSpec::new(Level::Md, Level::Hi),
        PairSpec::new(Level::Md, Level::Md),
    ]
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..=i);
        v.swap(i, j);
    }
}

/// Everything the generator derives from a seed.
#[derive(Debug)]
pub struct Generated {
    pub db: Vec<Sequence>,
    /// Per workload (in [`Workload::ALL`] order), its requests.
    pub requests: Vec<Vec<Request>>,
}

fn text(s: &Sequence) -> String {
    String::from_utf8(s.text()).expect("protein text is ASCII")
}

/// Derive the database and every workload's requests from `seed`.
/// `seconds` sets the length of serve_open's arrival schedule.
pub fn generate(seed: u64, seconds: f64) -> Generated {
    let mut rng = seeded_rng(seed);
    let pools: Vec<Vec<Sequence>> = Workload::ALL
        .iter()
        .map(|w| {
            let mut pool = Vec::new();
            for &(len, copies) in w.pool() {
                for c in 0..copies {
                    let id = format!("{}-Q{len}-{c}", w.name());
                    pool.push(random_protein(&mut rng, id, len));
                }
            }
            pool
        })
        .collect();

    // One planted homolog per distinct query (Fig. 11 style: the
    // hi/md coverage × identity specs in turn), then swiss-prot-like
    // background up to the residue budget, then a seeded shuffle so
    // homologs spread over every shard.
    let specs = homolog_specs();
    let mut db: Vec<Sequence> = pools
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, q)| specs[i % specs.len()].generate(&mut rng, q).subject)
        .collect();
    let mut residues: usize = db.iter().map(Sequence::len).sum();
    while residues < DB_RESIDUES {
        let len = loop {
            let len = swissprot_like_len(&mut rng, 360.0, 20);
            if len < LONG {
                break len;
            }
        };
        db.push(random_protein(&mut rng, format!("sp{:06}", db.len()), len));
        residues += len;
    }
    shuffle(&mut rng, &mut db);
    let db = place_long(db);

    let requests = Workload::ALL
        .iter()
        .zip(&pools)
        .map(|(&w, pool)| match w {
            Workload::ServeOpen => open_schedule(&mut rng, pool, seconds),
            _ => closed_order(&mut rng, pool),
        })
        .collect();
    Generated { db, requests }
}

/// Move the long sequences to their fixed slots (see [`LONG_SLOTS`]):
/// longest and shortest alternate, so the long residues split evenly.
fn place_long(db: Vec<Sequence>) -> Vec<Sequence> {
    let n = db.len();
    let (mut long, mut out): (Vec<Sequence>, Vec<Sequence>) =
        db.into_iter().partition(|s| s.len() >= LONG);
    assert!(long.len() <= LONG_SLOTS, "more long homologs than slots");
    long.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut order = Vec::with_capacity(long.len());
    while !long.is_empty() {
        order.push(long.remove(0));
        if let Some(s) = long.pop() {
            order.push(s);
        }
    }
    // Slots rise with j, so each insert lands at its final index.
    for (j, s) in order.into_iter().enumerate() {
        out.insert((2 * j + 1) * n / (2 * LONG_SLOTS), s);
    }
    out
}

/// A closed loop cycles through its pool in a seeded order.
fn closed_order(rng: &mut StdRng, pool: &[Sequence]) -> Vec<Request> {
    let mut order: Vec<&Sequence> = pool.iter().collect();
    shuffle(rng, &mut order);
    order
        .into_iter()
        .map(|q| Request {
            due_us: 0,
            query_id: q.id().to_string(),
            residues: text(q),
        })
        .collect()
}

/// serve_open's Poisson schedule over `seconds`: `SERVE_ARRIVALS_PER_S ×
/// seconds` arrivals at seeded uniform times, laid out in seeded blocks
/// of [`BLOCK`] (one long query, [`BLOCK_REPEATS`] duplicate bursts,
/// short singles). Short queries cycle through a seeded order of the
/// pool.
fn open_schedule(rng: &mut StdRng, pool: &[Sequence], seconds: f64) -> Vec<Request> {
    #[derive(Clone, Copy)]
    enum Kind {
        Long,
        Burst,
        Single,
    }
    let (long, short): (Vec<&Sequence>, Vec<&Sequence>) =
        pool.iter().partition(|q| q.len() >= 1000);
    let mut short = short;
    shuffle(rng, &mut short);
    let (mut next_short, mut next_long) = (0usize, 0usize);
    let mut block: Vec<Kind> = Vec::new();
    let mut out = Vec::new();
    // A Poisson process with exactly `n` arrivals in [0, seconds) puts
    // them at `n` independent uniform times; fixing `n` keeps the
    // offered load the same on every seed.
    let n = (SERVE_ARRIVALS_PER_S * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..seconds)).collect();
    times.sort_by(f64::total_cmp);
    for t in times {
        if block.is_empty() {
            block.push(Kind::Long);
            block.extend(std::iter::repeat_n(Kind::Burst, BLOCK_REPEATS));
            block.extend(std::iter::repeat_n(Kind::Single, BLOCK - 1 - BLOCK_REPEATS));
            shuffle(rng, &mut block);
        }
        let kind = block.pop().expect("block refilled above");
        let (q, copies) = match kind {
            Kind::Long => {
                next_long += 1;
                (long[(next_long - 1) % long.len()], 1)
            }
            Kind::Burst | Kind::Single => {
                next_short += 1;
                let q = short[(next_short - 1) % short.len()];
                (q, if matches!(kind, Kind::Burst) { 2 } else { 1 })
            }
        };
        for _ in 0..copies {
            out.push(Request {
                due_us: (t * 1e6) as u64,
                query_id: q.id().to_string(),
                residues: text(q),
            });
        }
    }
    out
}

fn request_file(w: Workload) -> String {
    format!("requests-{}.tsv", w.name())
}

/// Write the generated inputs into `dir`.
pub fn write(g: &Generated, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let file = fs::File::create(dir.join("db.fa"))?;
    let mut w = io::BufWriter::new(file);
    write_fasta(&mut w, &g.db, 60)?;
    io::Write::flush(&mut w)?;
    for (wl, reqs) in Workload::ALL.iter().zip(&g.requests) {
        let mut s = String::new();
        for r in reqs {
            let _ = writeln!(s, "{}\t{}\t{}", r.due_us, r.query_id, r.residues);
        }
        fs::write(dir.join(request_file(*wl)), s)?;
    }
    Ok(())
}

/// Read a workload's requests back.
pub fn read_requests(dir: &Path, w: Workload) -> io::Result<Vec<Request>> {
    let path = dir.join(request_file(w));
    let body = fs::read_to_string(&path)?;
    body.lines()
        .map(|line| {
            let bad = || io::Error::other(format!("{}: malformed line {line:?}", path.display()));
            let mut f = line.split('\t');
            let (Some(due), Some(id), Some(res), None) = (f.next(), f.next(), f.next(), f.next())
            else {
                return Err(bad());
            };
            Ok(Request {
                due_us: due.parse().map_err(|_| bad())?,
                query_id: id.to_string(),
                residues: res.to_string(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(7, 2.0);
        let b = generate(7, 2.0);
        let c = generate(8, 2.0);
        assert_eq!(a.db, b.db);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.db, c.db);
        assert_ne!(a.requests[2], c.requests[2]);
        let total: usize = a.db.iter().map(Sequence::len).sum();
        assert!((DB_RESIDUES..DB_RESIDUES + 20_000).contains(&total));
    }

    #[test]
    fn shard_length_envelopes_do_not_depend_on_the_seed() {
        let envelopes = |seed| {
            let db = generate(seed, 1.0).db;
            [1, 2, 3, 4].map(|n: usize| {
                (0..n)
                    .map(|i| {
                        let shard = &db[i * db.len() / n..(i + 1) * db.len() / n];
                        shard.iter().map(Sequence::len).max().unwrap()
                    })
                    .collect::<Vec<_>>()
            })
        };
        let want = envelopes(1);
        assert_eq!(want[1], [4000, 2000]);
        for seed in 2..8 {
            assert_eq!(envelopes(seed), want, "seed {seed}");
        }
    }

    #[test]
    fn open_schedule_is_sorted_seeded_and_keeps_its_mix() {
        let g = generate(3, 10.0);
        let reqs = &g.requests[2];
        assert!(reqs.windows(2).all(|w| w[0].due_us <= w[1].due_us));
        assert!(reqs.last().unwrap().due_us < 10_000_000);
        // 14 arrivals/s over 10 s, 1.2 requests each.
        let arrivals = (SERVE_ARRIVALS_PER_S * 10.0).round() as usize;
        assert_eq!(reqs.len(), arrivals + arrivals / BLOCK * BLOCK_REPEATS);
        let long = reqs.iter().filter(|r| r.residues.len() >= 1000).count();
        let arrivals = reqs
            .windows(2)
            .filter(|w| w[0].due_us != w[1].due_us)
            .count()
            + 1;
        assert!(long * BLOCK <= arrivals + BLOCK && arrivals <= long * BLOCK + BLOCK);
        // Bursts are identical requests due at the same instant.
        let bursts = reqs
            .windows(2)
            .filter(|w| w[0].due_us == w[1].due_us && w[0].residues == w[1].residues)
            .count();
        assert_eq!(bursts, arrivals / BLOCK * BLOCK_REPEATS);
    }

    #[test]
    fn requests_round_trip_through_files() {
        let g = generate(11, 1.0);
        let dir = std::env::temp_dir().join(format!("perfbench-inputs-{}", std::process::id()));
        write(&g, &dir).unwrap();
        for (w, want) in Workload::ALL.iter().zip(&g.requests) {
            assert_eq!(&read_requests(&dir, *w).unwrap(), want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
