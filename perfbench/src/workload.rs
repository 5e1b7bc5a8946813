//! The benchmark's workloads: which corpus, which store, which traffic.

use datagen::{DblpConfig, DblpGenerator};
use std::path::Path;
use xmlstore::StoreOptions;

/// The read requests the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// E1 Query 1: each author with the titles of their articles.
    Titles = 0,
    /// E2: each author with the count of their articles (fused rollup).
    Count = 1,
    /// The journal → year → author lattice (fused cube).
    Cube = 2,
}

impl Query {
    pub const ALL: [Query; 3] = [Query::Titles, Query::Count, Query::Cube];

    pub fn name(self) -> &'static str {
        match self {
            Query::Titles => "titles",
            Query::Count => "count",
            Query::Cube => "cube",
        }
    }

    /// The XQuery text. Kept here rather than shared with the
    /// repository's experiment harness, so the benchmark's inputs only
    /// change when the benchmark does.
    pub fn text(self) -> &'static str {
        match self {
            Query::Titles => {
                r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/title }
    </authorpubs>
"#
            }
            Query::Count => {
                r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {count($t)} </authorpubs>
"#
            }
            Query::Cube => {
                r#"
    FOR $b IN document("bib.xml")//article
    CUBE BY $b/journal, $b/year, $b/author
    RETURN <pubs> {count($b/title)} </pubs>
"#
            }
        }
    }
}

/// Where a workload's store keeps its pages.
#[derive(Debug, Clone, Copy)]
pub enum StoreKind {
    /// In-memory page vector, the default 32 MB pool.
    Memory,
    /// Page file on disk with a pool of this many 8 KB pages.
    Paged { pool_pages: usize },
    /// Page file and write-ahead log on disk, the default 32 MB pool.
    Durable,
}

/// How a workload's writer runs.
#[derive(Debug, Clone, Copy)]
pub enum Writes {
    /// `cycles` insert → replace → delete cycles spread evenly over the
    /// run, each run between two reads in closed loop: an op is sent
    /// as soon as the last one is acknowledged, so it is due when it is
    /// sent and there is no rate to choose. No read overlaps a write.
    Spread { cycles: usize },
    /// Alongside the reader for the whole run: open loop at `rate` ops
    /// per second.
    OpenLoop { rate: f64 },
}

impl Writes {
    /// Whole cycles in the write script of a run of `seconds`.
    pub fn cycles(self, seconds: f64) -> usize {
        match self {
            Writes::Spread { cycles } => cycles,
            Writes::OpenLoop { rate } => {
                let ops_per_cycle = 3.0 + 3.0 / CHECKPOINT_EVERY as f64;
                ((seconds * rate / ops_per_cycle).floor() as usize).max(1)
            }
        }
    }

    pub fn describe(self) -> String {
        match self {
            Writes::Spread { cycles } => {
                format!("{cycles} closed-loop cycles spread between the reads")
            }
            Writes::OpenLoop { rate } => format!("open loop at {rate} ops/s alongside the reads"),
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Articles in the generated corpus.
    pub articles: usize,
    pub store: StoreKind,
    /// Requests of each [`Query`] in one shuffled block of the reader's
    /// closed loop.
    pub mix: [usize; 3],
    pub writes: Writes,
}

/// Commits between two CHECKPOINT ops in the write script.
pub const CHECKPOINT_EVERY: usize = 30;

/// Write cycles of a read workload: 150 commits, enough for a commit
/// p90.
const SPREAD_CYCLES: usize = 50;

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "group_read",
        articles: 15_000,
        store: StoreKind::Memory,
        mix: [1, 6, 1],
        writes: Writes::Spread {
            cycles: SPREAD_CYCLES,
        },
    },
    Spec {
        name: "paged_read",
        articles: 6_000,
        store: StoreKind::Paged { pool_pages: 90 },
        mix: [1, 6, 1],
        writes: Writes::Spread {
            cycles: SPREAD_CYCLES,
        },
    },
    Spec {
        name: "ingest_mix",
        articles: 30_000,
        store: StoreKind::Durable,
        mix: [1, 10, 1],
        // About a quarter of the closed-loop commit capacity at 30k
        // articles; perfbench/README.md records the measurement.
        writes: Writes::OpenLoop { rate: 10.0 },
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The flush policy every durable commit runs under.
pub const FLUSH_POLICY: &str = "group-commit fdatasync of the WAL per commit";

impl Spec {
    /// Store options with the page file (and log) at `page_file`.
    pub fn store_options(&self, page_file: &Path) -> StoreOptions {
        match self.store {
            StoreKind::Memory => StoreOptions {
                on_disk: false,
                ..StoreOptions::default()
            },
            StoreKind::Paged { pool_pages } => StoreOptions::default()
                .with_path(page_file)
                .with_pool_pages(pool_pages),
            StoreKind::Durable => StoreOptions::default().with_path(page_file).with_durable(),
        }
    }

    pub fn pool_pages(&self) -> usize {
        self.store_options(Path::new("unused")).pool_pages
    }
}

/// The generated corpus of `articles` articles for `seed`.
pub fn corpus(articles: usize, seed: u64) -> String {
    DblpGenerator::new(DblpConfig::sized(articles).with_seed(seed)).generate_xml()
}

/// The write script's documents: the inserted one-article document and
/// its replacement. Both have two authors and a six-word title, so the
/// bytes committed per op, the denominator of `write_amp`, barely vary
/// with the seed.
pub fn script_docs(seed: u64) -> (String, String) {
    let one_article = |k: u64| {
        let cfg = DblpConfig {
            articles: 1,
            author_pool: 40,
            ..DblpConfig::default()
        };
        DblpGenerator::new(cfg.with_seed(seed.wrapping_mul(0x9E37_79B9).wrapping_add(k)))
            .generate_xml()
    };
    let well_shaped = |doc: &String| {
        let title = doc
            .split("<title>")
            .nth(1)
            .and_then(|t| t.split("</title>").next());
        // Six words plus the generator's "No<idx>" ordinal.
        doc.matches("<author>").count() == 2
            && title.is_some_and(|t| t.split_whitespace().count() == 7)
    };
    let mut docs = (0..).map(one_article).filter(well_shaped);
    let insert = docs.next().expect("the generator yields every shape");
    let replacement = docs.next().expect("the generator yields every shape");
    (insert, replacement)
}

/// One op of the write script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert the script's first document.
    Insert,
    /// Replace the document the last insert created with the second.
    Replace,
    /// Delete the document the last replace created.
    Delete,
    Checkpoint,
}

impl WriteOp {
    pub fn is_commit(self) -> bool {
        self != WriteOp::Checkpoint
    }
}

/// `cycles` insert → replace → delete cycles, one `Vec` each, with a
/// checkpoint after every `checkpoint_every` commits. The delete leaves
/// the store at its base state again.
pub fn write_script(cycles: usize, checkpoint_every: usize) -> Vec<Vec<WriteOp>> {
    let mut commits = 0;
    (0..cycles)
        .map(|_| {
            let mut cycle = Vec::new();
            for op in [WriteOp::Insert, WriteOp::Replace, WriteOp::Delete] {
                cycle.push(op);
                commits += 1;
                if commits % checkpoint_every == 0 {
                    cycle.push(WriteOp::Checkpoint);
                }
            }
            cycle
        })
        .collect()
}

/// The reader's closed-loop request order: blocks holding `mix[q]`
/// requests of each query, each block shuffled by the seed.
pub fn read_order(seed: u64, mix: [usize; 3], blocks: usize) -> Vec<Query> {
    let mut rng = SplitMix(seed ^ 0x5245_4144);
    let mut out = Vec::new();
    for _ in 0..blocks {
        let mut block: Vec<Query> = Query::ALL
            .iter()
            .flat_map(|&q| std::iter::repeat_n(q, mix[q as usize]))
            .collect();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out
}

/// SplitMix64: the benchmark's own seeded sequence for the read
/// order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_whole_cycles_with_periodic_checkpoints() {
        let cycles = write_script(33, 4);
        assert_eq!(cycles.len(), 33);
        for cycle in &cycles {
            let commits: Vec<_> = cycle.iter().filter(|o| o.is_commit()).collect();
            assert_eq!(
                commits,
                [&WriteOp::Insert, &WriteOp::Replace, &WriteOp::Delete]
            );
        }
        let ops = cycles.concat();
        let commits = ops.iter().filter(|o| o.is_commit()).count();
        assert_eq!(commits, 99);
        let checkpoints = ops.iter().filter(|o| **o == WriteOp::Checkpoint).count();
        assert_eq!(checkpoints, 99 / 4);
    }

    #[test]
    fn an_open_loop_script_fits_its_run() {
        let writes = Writes::OpenLoop { rate: 10.0 };
        let ops = write_script(writes.cycles(35.0), CHECKPOINT_EVERY).concat();
        assert!(ops.len() <= 350, "{} ops", ops.len());
        assert!(ops.len() > 330, "{} ops", ops.len());
        assert_eq!(Writes::Spread { cycles: 7 }.cycles(35.0), 7);
    }

    #[test]
    fn script_documents_have_one_shape_for_every_seed() {
        for seed in 0..20 {
            let (a, b) = script_docs(seed);
            assert_ne!(a, b);
            for doc in [&a, &b] {
                assert_eq!(doc.matches("<article>").count(), 1, "{doc}");
                assert_eq!(doc.matches("<author>").count(), 2, "{doc}");
            }
        }
        assert_ne!(script_docs(1), script_docs(2));
    }

    #[test]
    fn read_order_keeps_the_mix_in_every_block() {
        let order = read_order(3, [1, 6, 1], 5);
        assert_eq!(order.len(), 40);
        for block in order.chunks(8) {
            let n = |q| block.iter().filter(|&&x| x == q).count();
            assert_eq!(
                (n(Query::Titles), n(Query::Count), n(Query::Cube)),
                (1, 6, 1)
            );
        }
        assert_ne!(read_order(3, [1, 6, 1], 5), read_order(4, [1, 6, 1], 5));
    }
}
