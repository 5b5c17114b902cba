//! Seeded relations, their bulk-built page files and the join oracle.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rsj_core::exec::JoinCursor;
use rsj_core::JoinPlan;
use rsj_datagen::presets::{scaled_world, TestId};
use rsj_datagen::{lines, synthetic};
use rsj_geom::Rect;
use rsj_rtree::bulk::{self, BulkConfig, BulkLayout};
use rsj_rtree::{DataId, RTree, RTreeParams};
use rsj_storage::{BufferPool, IoStats};

/// The paper's page size for every workload.
pub const PAGE_BYTES: usize = 4096;
/// The paper's 128 KB per-query buffer, in 4 KB pages.
pub const HANDLE_PAGES: usize = 32;

/// What a workload joins.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Skewed-cluster R × uniform S, `n` rectangles per side.
    ClusteredUniform { n: usize },
    /// Preset A (streets × rivers and railways) at `scale` of the paper's
    /// cardinalities, over the world shrunk to the same scale. The town
    /// layout is fixed, as in the preset (one geography, like the paper's
    /// California map); the seed draws the street detail and the rivers
    /// and railways.
    PresetA { scale: f64 },
}

/// The R and S items of one seed.
pub struct Relations {
    pub r: Vec<(Rect, DataId)>,
    pub s: Vec<(Rect, DataId)>,
}

/// The preset's town seed: every street relation shares its settlements.
const TOWN_SEED: u64 = 0xA0;

/// A SplitMix64-style hash of `seed` and `k`: seeds and picks derived from
/// the run's seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn items(objs: Vec<rsj_datagen::SpatialObject>) -> Vec<(Rect, DataId)> {
    objs.into_iter().map(|o| (o.mbr, DataId(o.id))).collect()
}

/// Generates both relations from the public generators and `seed`.
pub fn generate(shape: Shape, seed: u64) -> Relations {
    match shape {
        Shape::ClusteredUniform { n } => Relations {
            r: items(synthetic::clustered_rects(n, 400, 12.0, 3.0, mix(seed, 1))),
            s: items(synthetic::uniform_rects(n, 3.0, mix(seed, 2))),
        },
        Shape::PresetA { scale } => {
            let (nr, ns) = TestId::A.paper_cardinalities();
            let world = scaled_world(scale);
            let nr = ((nr as f64 * scale) as usize).max(1);
            let ns = ((ns as f64 * scale) as usize).max(1);
            Relations {
                r: items(lines::streets_paired(nr, TOWN_SEED, mix(seed, 4), &world)),
                s: items(lines::rivers_and_rails_in(ns, mix(seed, 5), &world)),
            }
        }
    }
}

/// The two page files of a workload, and what building them cost.
pub struct Built {
    pub r_path: PathBuf,
    pub s_path: PathBuf,
    pub r_items: Vec<(Rect, DataId)>,
    pub gen_s: f64,
    pub bulk_s: f64,
    pub pages: u32,
    pub height: u32,
}

/// One set-up: generate both relations, bulk-load and persist them.
pub fn build(shape: Shape, seed: u64, dir: &Path) -> Built {
    let t = Instant::now();
    let rel = generate(shape, seed);
    let gen_s = t.elapsed().as_secs_f64();
    let params = RTreeParams::for_page_size(PAGE_BYTES);
    let cfg = BulkConfig {
        workers: 1,
        ..BulkConfig::default()
    };
    let r_path = dir.join("r.rsj");
    let s_path = dir.join("s.rsj");
    let t = Instant::now();
    let (_, rs) = bulk::load_to_file(params, &rel.r, BulkLayout::Str, cfg, &r_path)
        .expect("bulk-load R to its page file");
    let (_, ss) = bulk::load_to_file(params, &rel.s, BulkLayout::Str, cfg, &s_path)
        .expect("bulk-load S to its page file");
    let bulk_s = t.elapsed().as_secs_f64();
    Built {
        r_path,
        s_path,
        r_items: rel.r,
        gen_s,
        bulk_s,
        pages: rs.pages + ss.pages,
        height: rs.height.max(ss.height),
    }
}

/// The query every workload runs: SJ4, the paper's winner.
pub fn plan() -> JoinPlan {
    JoinPlan::sj4()
}

/// Order-independent fingerprint of a pair multiset.
pub fn fingerprint<'a>(pairs: impl IntoIterator<Item = &'a (DataId, DataId)>) -> u64 {
    pairs.into_iter().fold(0u64, |acc, &(a, b)| {
        acc.wrapping_add(mix(a.0, b.0 ^ 0x5A5A))
    })
}

/// What a correct join of one seed returns, from an in-memory
/// `BufferPool` cursor of the same logical capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    pub pairs: u64,
    pub fingerprint: u64,
    /// Disk accesses, path-buffer hits and LRU hits of the join.
    pub io: IoStats,
    pub join_comparisons: u64,
    pub sort_comparisons: u64,
}

impl Oracle {
    pub fn compute(r: &RTree, s: &RTree) -> Oracle {
        let heights = [r.height() as usize, s.height() as usize];
        let pool = BufferPool::with_capacity_pages(HANDLE_PAGES, &heights);
        let mut cursor = JoinCursor::new(r, s, plan(), pool);
        let pairs: Vec<(DataId, DataId)> = (&mut cursor).collect();
        let st = cursor.stats();
        Oracle {
            pairs: pairs.len() as u64,
            fingerprint: fingerprint(&pairs),
            io: st.io,
            join_comparisons: st.join_comparisons,
            sort_comparisons: st.sort_comparisons,
        }
    }

    pub fn comparisons(&self) -> u64 {
        self.join_comparisons + self.sort_comparisons
    }

    /// Checks one answered join; `Err` names the first mismatch.
    pub fn check(
        &self,
        pairs: &[(DataId, DataId)],
        st: &rsj_core::JoinStats,
    ) -> Result<(), String> {
        let got = Oracle {
            pairs: pairs.len() as u64,
            fingerprint: fingerprint(pairs),
            io: st.io,
            join_comparisons: st.join_comparisons,
            sort_comparisons: st.sort_comparisons,
        };
        if got == *self && st.result_pairs == self.pairs {
            Ok(())
        } else {
            Err(format!(
                "join answer {got:?} differs from the oracle {self:?}"
            ))
        }
    }
}
