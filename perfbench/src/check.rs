//! Bit-exact correctness check.
//!
//! Once per distinct query, outside any timed phase, a reference top-k
//! is computed with the in-process engine on a different kernel path
//! than the default (striped scan at fixed 32-bit lanes), and every
//! reference hit is re-scored with the scalar sequential aligner. Every
//! timed response must then carry exactly the reference hits: same
//! database index, length and score, in the same order.

use std::collections::HashMap;

use aalign_bio::{SeqDatabase, Sequence};
use aalign_core::{AlignConfig, Aligner, Strategy, WidthPolicy};
use aalign_par::{EngineHandle, Hit, SearchOptions};

use crate::inputs::TOP_N;

/// Reference hit lists keyed by query id.
#[derive(Debug, Default)]
pub struct References {
    by_query: HashMap<String, Vec<Hit>>,
}

impl References {
    /// Compute references for every distinct query in `queries`.
    /// Fails when the scalar aligner disagrees with a reference score.
    pub fn compute(
        cfg: &AlignConfig,
        db: &SeqDatabase,
        queries: &[&Sequence],
        threads: usize,
    ) -> Result<Self, String> {
        let engine = EngineHandle::new(threads);
        let striped = Aligner::new(cfg.clone())
            .with_strategy(Strategy::StripedScan)
            .with_width(WidthPolicy::Fixed32);
        let scalar = Aligner::new(cfg.clone()).with_strategy(Strategy::Sequential);
        let opts = SearchOptions::new().top_n(TOP_N);
        let mut by_query = HashMap::new();
        for q in queries {
            if by_query.contains_key(q.id()) {
                continue;
            }
            let report = engine
                .search(&striped, q, db, &opts)
                .map_err(|e| format!("reference search for {}: {e}", q.id()))?;
            if report.partial {
                return Err(format!("reference search for {} was partial", q.id()));
            }
            for h in &report.hits {
                let out = scalar
                    .align(q, db.get(h.db_index))
                    .map_err(|e| format!("scalar re-score of {}: {e}", q.id()))?;
                if out.score != h.score {
                    return Err(format!(
                        "reference hit {} of {} scores {} striped but {} scalar",
                        h.db_index,
                        q.id(),
                        h.score,
                        out.score
                    ));
                }
            }
            by_query.insert(q.id().to_string(), report.hits);
        }
        Ok(Self { by_query })
    }

    /// The best reference hit of `query_id`.
    pub fn top(&self, query_id: &str) -> Option<Hit> {
        self.by_query.get(query_id)?.first().copied()
    }

    /// Check one response's hits against the reference of `query_id`.
    pub fn check(&self, query_id: &str, got: &[Hit]) -> Result<(), String> {
        let want = self
            .by_query
            .get(query_id)
            .ok_or_else(|| format!("no reference for {query_id}"))?;
        compare(got, want).map_err(|e| format!("{query_id}: {e}"))
    }
}

/// Exact comparison of two ranked hit lists.
pub fn compare(got: &[Hit], want: &[Hit]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} hits, reference has {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!(
                "rank {rank}: got (db {}, len {}, score {}), reference (db {}, len {}, score {})",
                g.db_index, g.len, g.score, w.db_index, w.len, w.score
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalign_bio::matrices::BLOSUM62;
    use aalign_bio::synth::{named_query, seeded_rng, swissprot_like_db};
    use aalign_core::GapModel;

    fn hit(db_index: usize, score: i32) -> Hit {
        Hit {
            db_index,
            len: 100 + db_index,
            score,
        }
    }

    #[test]
    fn one_changed_score_or_swapped_order_is_rejected() {
        let want = vec![hit(4, 90), hit(1, 70), hit(7, 70)];
        assert!(compare(&want, &want).is_ok());
        let mut score = want.clone();
        score[2].score += 1;
        assert!(compare(&score, &want).is_err());
        let mut order = want.clone();
        order.swap(1, 2);
        assert!(compare(&order, &want).is_err());
        assert!(compare(&want[..2], &want).is_err());
    }

    #[test]
    fn default_engine_matches_the_reference_and_a_tampered_list_does_not() {
        let cfg = AlignConfig::local(GapModel::affine(-10, -2), &BLOSUM62);
        let db = swissprot_like_db(4, 60);
        let q = named_query(&mut seeded_rng(9), 90);
        let refs = References::compute(&cfg, &db, &[&q], 2).unwrap();
        let engine = EngineHandle::new(2);
        let got = engine
            .search(
                &Aligner::new(cfg),
                &q,
                &db,
                &SearchOptions::new().top_n(TOP_N),
            )
            .unwrap()
            .hits;
        assert!(refs.check(q.id(), &got).is_ok());
        let mut bad = got.clone();
        bad[0].score -= 1;
        assert!(refs.check(q.id(), &bad).is_err());
        assert!(refs.check("unknown", &got).is_err());
    }
}
