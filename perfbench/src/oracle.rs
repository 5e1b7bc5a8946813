//! Reference answers for every read the benchmark sends.
//!
//! Answers come from a separately loaded in-memory store evaluated by
//! the legacy interpreter over the materializing plan: neither the
//! physical pipeline nor the fused rollup/cube kernels that the served
//! GROUPBY plan runs. A response is correct only when its bytes equal
//! one accepted answer for its query.
//!
//! The fused cube labels each output row with its lattice level in a
//! `<TAX_cube_level>` element that the composed per-level union does
//! not emit; cube responses are compared with those markers removed.

use crate::workload::Query;
use timber::{ExecMode, PlanMode, TimberDb};

/// Accepted answers per query: one per store state the workload's
/// readers may observe.
#[derive(Debug, Default)]
pub struct Oracle {
    answers: [Vec<String>; Query::ALL.len()],
}

impl Oracle {
    /// Accept `answer` for `query` (duplicates are kept once).
    pub fn accept(&mut self, query: Query, answer: String) {
        let slot = &mut self.answers[query as usize];
        if !slot.contains(&answer) {
            slot.push(answer);
        }
    }

    /// Whether `response` equals an accepted answer for `query`.
    pub fn check(&self, query: Query, response: &str) -> bool {
        let stripped;
        let response = if query == Query::Cube {
            stripped = strip_level_markers(response);
            &stripped
        } else {
            response
        };
        self.answers[query as usize].iter().any(|a| a == response)
    }

    /// Number of distinct accepted answers for `query`.
    pub fn states(&self, query: Query) -> usize {
        self.answers[query as usize].len()
    }

    /// Compute `db`'s current answer to every query and accept it.
    pub fn accept_state(&mut self, db: &TimberDb) -> timber::Result<()> {
        for q in Query::ALL {
            self.accept(q, reference_answer(db, q)?);
        }
        Ok(())
    }
}

/// `query`'s output on `db` by the reference path.
pub fn reference_answer(db: &TimberDb, query: Query) -> timber::Result<String> {
    let mut legacy = db.snapshot();
    legacy.set_exec_mode(ExecMode::Legacy);
    let result = legacy.query(query.text(), PlanMode::GroupByMaterialized)?;
    result.to_xml_on(legacy.store())
}

const LEVEL_OPEN: &str = "<TAX_cube_level>";
const LEVEL_CLOSE: &str = "</TAX_cube_level>";

/// `xml` without its `<TAX_cube_level>…</TAX_cube_level>` elements. An
/// unterminated marker is kept, so the comparison fails.
fn strip_level_markers(xml: &str) -> String {
    let mut out = String::with_capacity(xml.len());
    let mut rest = xml;
    while let Some(start) = rest.find(LEVEL_OPEN) {
        out.push_str(&rest[..start]);
        let marker = &rest[start..];
        match marker.find(LEVEL_CLOSE) {
            Some(end) => rest = &marker[end + LEVEL_CLOSE.len()..],
            None => {
                rest = marker;
                break;
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::StoreOptions;

    const BIB: &str = "<bib>\
        <article><title>T1</title><author>Ann</author><journal>J</journal><year>2001</year></article>\
        <article><title>T2</title><author>Ann</author><author>Bo</author><journal>J</journal><year>2002</year></article>\
        </bib>";

    #[test]
    fn a_corrupted_response_is_rejected() {
        let db = TimberDb::load_xml(BIB, &StoreOptions::in_memory()).unwrap();
        let mut oracle = Oracle::default();
        oracle.accept_state(&db).unwrap();
        for q in Query::ALL {
            let served = db.query(q.text(), PlanMode::GroupByRewrite).unwrap();
            let served = served.to_xml_on(db.store()).unwrap();
            assert!(oracle.check(q, &served), "{q:?} served bytes differ");
            let mut corrupt = served.clone().into_bytes();
            let last_digit = corrupt.iter().rposition(u8::is_ascii_digit).unwrap();
            corrupt[last_digit] ^= 0x01;
            assert!(!oracle.check(q, &String::from_utf8(corrupt).unwrap()));
            assert!(!oracle.check(q, &served[..served.len() - 1]));
        }
    }

    #[test]
    fn level_markers_are_stripped_whole() {
        let xml = "<r><TAX_cube_level>2</TAX_cube_level><a>x</a></r>";
        assert_eq!(strip_level_markers(xml), "<r><a>x</a></r>");
        assert_eq!(
            strip_level_markers("<r><TAX_cube_level>2"),
            "<r><TAX_cube_level>2"
        );
    }

    #[test]
    fn every_observable_state_is_accepted() {
        let db = TimberDb::load_xml(BIB, &StoreOptions::in_memory()).unwrap();
        let mut oracle = Oracle::default();
        oracle.accept_state(&db).unwrap();
        let before = db
            .query(Query::Count.text(), PlanMode::GroupByRewrite)
            .unwrap();
        let before = before.to_xml_on(db.store()).unwrap();
        let id = db
            .insert_xml("<bib><article><title>T3</title><author>Cy</author></article></bib>")
            .unwrap();
        oracle.accept_state(&db).unwrap();
        let after = db
            .query(Query::Count.text(), PlanMode::GroupByRewrite)
            .unwrap();
        let after = after.to_xml_on(db.store()).unwrap();
        db.delete_document(id).unwrap();
        assert_ne!(before, after);
        assert_eq!(oracle.states(Query::Count), 2);
        assert!(oracle.check(Query::Count, &before) && oracle.check(Query::Count, &after));
    }
}
