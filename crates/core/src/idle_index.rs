//! Algorithm 1's idle-GPU set, kept in scheduling order.
//!
//! Every scheduling round hands the policy "the list of idle GPUs (sorted
//! by frequency)" (§IV): more cache hits served first, then GPU id.
//! Sorting the fleet on every arrival would make a pass cost O(n log n)
//! in the fleet size, so the cluster driver keeps the online idle GPUs
//! ordered as they go idle and busy, and a round only copies the set.
//!
//! A GPU's key cannot change while it is idle: its hit count moves only
//! at completion and at scale-up, both before the GPU enters the set. So
//! every update is one binary search on a sorted `Vec`.
//!
//! The index is derived state. It is rebuilt from the units after a
//! rollback or a checkpoint restore, and it is never journaled or
//! serialised.

use std::cmp::Reverse;

use gfaas_gpu::GpuId;

use crate::gpu_manager::{GpuUnit, UnitState};

/// Algorithm 1's order key: more hits first, then the lower GPU id.
type Key = (Reverse<u64>, GpuId);

/// The online idle GPUs in Algorithm 1's order, plus the few of them
/// that still carry a local-queue backlog.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub(crate) struct IdleIndex {
    /// Every online idle GPU.
    ordered: Vec<Key>,
    /// The online idle GPUs whose local queue is non-empty, in the same
    /// order. Empty between passes: a pass serves every such backlog
    /// before it ends (Algorithm 1's local priority).
    backlog: Vec<Key>,
}

impl IdleIndex {
    /// The index of `units`, computed from scratch: the brute-force
    /// definition the incremental updates must agree with.
    pub(crate) fn of(units: &[GpuUnit]) -> Self {
        let mut idx = IdleIndex::default();
        idx.rebuild(units);
        idx
    }

    /// Recomputes the index from `units` in place, reusing its buffers
    /// (a lookahead fork rebuilds it on every rollback).
    pub(crate) fn rebuild(&mut self, units: &[GpuUnit]) {
        self.ordered.clear();
        self.backlog.clear();
        for u in units {
            if u.state == UnitState::Online && u.is_idle() {
                self.ordered.push(key(u));
                if !u.local_queue.is_empty() {
                    self.backlog.push(key(u));
                }
            }
        }
        self.ordered.sort_unstable();
        self.backlog.sort_unstable();
    }

    /// Online idle GPUs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ordered.len()
    }

    /// True iff no online GPU is idle.
    pub(crate) fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// True iff some online idle GPU has a local backlog.
    pub(crate) fn has_backlog(&self) -> bool {
        !self.backlog.is_empty()
    }

    /// Adds `unit`, which just became idle while online.
    pub(crate) fn insert(&mut self, unit: &GpuUnit) {
        let k = key(unit);
        let pos = self
            .ordered
            .binary_search(&k)
            .expect_err("GPU entered the idle set twice");
        self.ordered.insert(pos, k);
        self.note_backlog(unit);
    }

    /// Removes `unit`, which is about to leave the online idle set
    /// (dispatch or drain).
    pub(crate) fn remove(&mut self, unit: &GpuUnit) {
        let k = key(unit);
        let pos = self
            .ordered
            .binary_search(&k)
            .expect("GPU left an idle set it was not in");
        self.ordered.remove(pos);
        if let Ok(pos) = self.backlog.binary_search(&k) {
            self.backlog.remove(pos);
        }
    }

    /// Records that online idle `unit` may have gained a local backlog.
    /// A no-op for busy or offline units and for an empty queue.
    pub(crate) fn note_backlog(&mut self, unit: &GpuUnit) {
        if unit.state != UnitState::Online || !unit.is_idle() || unit.local_queue.is_empty() {
            return;
        }
        let k = key(unit);
        if let Err(pos) = self.backlog.binary_search(&k) {
            self.backlog.insert(pos, k);
        }
    }

    /// Writes one round's candidates into `out`, in Algorithm 1's order:
    /// every online idle GPU while the global queue has work, otherwise
    /// only those with a local backlog to serve.
    pub(crate) fn candidates(&self, global_work: bool, out: &mut Vec<GpuId>) {
        let src = if global_work {
            &self.ordered
        } else {
            &self.backlog
        };
        out.extend(src.iter().map(|&(_, g)| g));
    }
}

fn key(unit: &GpuUnit) -> Key {
    (Reverse(unit.hits), unit.id())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use gfaas_gpu::{GpuDevice, GpuSpec};
    use gfaas_sim::time::SimTime;

    fn units(hits: &[u64]) -> Vec<GpuUnit> {
        hits.iter()
            .enumerate()
            .map(|(i, &h)| {
                let mut u = GpuUnit::new(GpuDevice::new(GpuId(i as u16), GpuSpec::test(1000)));
                u.hits = h;
                u
            })
            .collect()
    }

    fn queue_one(u: &mut GpuUnit) {
        let r = Request::new(0, 0, gfaas_gpu::ModelId(0), 1, SimTime::ZERO);
        // gfaas-lint: allow(snap-mutate, test harness builds a standalone unit never owned by a journal)
        u.local_queue.push_back(r);
    }

    fn ids(idx: &IdleIndex, global_work: bool) -> Vec<u16> {
        let mut out = Vec::new();
        idx.candidates(global_work, &mut out);
        out.iter().map(|g| g.0).collect()
    }

    #[test]
    fn candidates_follow_hits_then_id() {
        let us = units(&[3, 7, 3, 0, 7]);
        let idx = IdleIndex::of(&us);
        assert_eq!(ids(&idx, true), vec![1, 4, 0, 2, 3]);
        assert_eq!(ids(&idx, false), Vec::<u16>::new());
    }

    #[test]
    fn incremental_updates_match_a_rebuild() {
        let mut us = units(&[5, 1, 9, 1]);
        let mut idx = IdleIndex::default();
        for u in &us {
            idx.insert(u);
        }
        assert_eq!(idx, IdleIndex::of(&us));
        idx.remove(&us[2]);
        us[2].state = UnitState::Draining;
        assert_eq!(idx, IdleIndex::of(&us));
        assert_eq!(ids(&idx, true), vec![0, 1, 3]);
        queue_one(&mut us[3]);
        idx.note_backlog(&us[3]);
        idx.note_backlog(&us[3]);
        assert_eq!(idx, IdleIndex::of(&us));
        assert_eq!(ids(&idx, false), vec![3]);
        idx.remove(&us[3]);
        assert!(!idx.has_backlog());
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn backlog_ignores_offline_units() {
        let mut us = units(&[0]);
        us[0].state = UnitState::Offline;
        queue_one(&mut us[0]);
        let mut idx = IdleIndex::default();
        idx.note_backlog(&us[0]);
        assert_eq!(idx, IdleIndex::of(&us));
        assert!(!idx.has_backlog());
    }
}
