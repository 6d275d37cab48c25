//! The free-vs-mesh handshake (DESIGN.md §3), as a model small enough to
//! enumerate: every interleaving of three lock-free frees, one mesh pair
//! and the slab recycling an id, over one-word bitmaps.
//!
//! The steps are the shared-memory accesses of the real code, one per
//! step, in program order:
//!
//! * a free (`GlobalHeap::with_object_bit` under `free_small`): read the
//!   page map; clear the bit in the bitmap of the id it named (done if it
//!   was set); else read the class's mesh epoch, and wait while it is odd;
//!   read the page map again — the same id is a double free, another id
//!   goes back to the clear;
//! * the mesher (`meshing::mesh_pair`, class and arena locks held): epoch
//!   to odd; take the source's word with `swap(0)`; set each taken bit in
//!   the destination (the copy rides on it); point the source's page at
//!   the destination; epoch to even;
//! * the slab: reissue the source's id to a new span, whose attach claims
//!   every slot — allowed once the destination is dead (the tombstone
//!   rule), which is never while an object of it is still to be freed.
//!
//! What must hold in every interleaving: each object is freed exactly
//! once, no free is mistaken for a double free, the bitmaps end with
//! exactly the unfreed objects set, and no free ever clears a bit of a
//! span that recycled an id. Three variants with one rule removed each
//! show the checker sees what the rule prevents.

use std::collections::HashSet;

/// Ids (indices into `State::words`): the mesh source and destination.
const SRC: usize = 0;
const DST: usize = 1;

/// The three objects freed: two in the source span (bits 0 and 1 of its
/// page), one in the destination span (bit 2 of its page). Nothing else
/// is live, so the destination dies with the last of them and the slab
/// does get to reissue the source's id.
const OBJECTS: [(usize, u64); 3] = [(SRC, 1 << 0), (SRC, 1 << 1), (DST, 1 << 2)];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Free {
    Lookup,
    Clear { id: usize },
    ReadEpoch { id: usize },
    Relookup { id: usize },
    Freed,
    RefusedAsDouble,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Mesher {
    EpochOdd,
    Take,
    Set { taken: u64 },
    Retarget,
    EpochEven,
    /// The variant without take-then-copy: zero the source only now.
    LateClear,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    epoch: u8,
    /// One-word bitmaps by id.
    words: [u64; 2],
    /// Which id each span's page names (index: the span the object was
    /// allocated in).
    page_map: [usize; 2],
    frees: [Free; 3],
    freed: [u8; 3],
    mesher: Mesher,
    /// The source's id has been reissued: every bit of its word belongs to
    /// a new span now.
    recycled: bool,
    cleared_recycled: bool,
}

#[derive(Clone, Copy)]
struct Rules {
    /// A free whose clear failed waits for an even epoch.
    wait_for_even: bool,
    /// The source's id is reissued only once the destination is dead.
    tombstones: bool,
    /// The mesher copies the bits it took with `swap(0)` (else: the bits a
    /// plain load saw, and it zeroes the source at the end).
    take_then_copy: bool,
}

const SOUND: Rules = Rules {
    wait_for_even: true,
    tombstones: true,
    take_then_copy: true,
};

impl State {
    fn initial() -> State {
        State {
            epoch: 0,
            words: [OBJECTS[0].1 | OBJECTS[1].1, OBJECTS[2].1],
            page_map: [SRC, DST],
            frees: [Free::Lookup; 3],
            freed: [0; 3],
            mesher: Mesher::EpochOdd,
            recycled: false,
            cleared_recycled: false,
        }
    }

    /// Every state one step of one actor leads to.
    fn successors(&self, rules: Rules) -> Vec<State> {
        let mut out = Vec::new();
        for (f, &(span, bit)) in OBJECTS.iter().enumerate() {
            let mut next = self.clone();
            next.frees[f] = match self.frees[f] {
                Free::Lookup => Free::Clear {
                    id: self.page_map[span],
                },
                Free::Clear { id } => {
                    if self.words[id] & bit != 0 {
                        next.words[id] &= !bit;
                        next.freed[f] += 1;
                        next.cleared_recycled |= id == SRC && self.recycled;
                        Free::Freed
                    } else {
                        Free::ReadEpoch { id }
                    }
                }
                Free::ReadEpoch { id } => {
                    if rules.wait_for_even && self.epoch % 2 == 1 {
                        continue; // spinning: not a step
                    }
                    Free::Relookup { id }
                }
                Free::Relookup { id } => {
                    let now = self.page_map[span];
                    if now == id {
                        Free::RefusedAsDouble
                    } else {
                        Free::Clear { id: now }
                    }
                }
                Free::Freed | Free::RefusedAsDouble => continue,
            };
            out.push(next);
        }
        let mut next = self.clone();
        next.mesher = match self.mesher {
            Mesher::EpochOdd => {
                next.epoch += 1;
                Mesher::Take
            }
            Mesher::Take => {
                let taken = self.words[SRC];
                if rules.take_then_copy {
                    next.words[SRC] = 0;
                }
                Mesher::Set { taken }
            }
            Mesher::Set { taken: 0 } => Mesher::Retarget,
            Mesher::Set { taken } => {
                let bit = taken & taken.wrapping_neg();
                assert_eq!(self.words[DST] & bit, 0, "pair was not disjoint");
                next.words[DST] |= bit;
                Mesher::Set { taken: taken & !bit }
            }
            Mesher::Retarget => {
                next.page_map[SRC] = DST;
                Mesher::EpochEven
            }
            Mesher::EpochEven => {
                next.epoch += 1;
                if rules.take_then_copy {
                    Mesher::Done
                } else {
                    Mesher::LateClear
                }
            }
            Mesher::LateClear => {
                next.words[SRC] = 0;
                Mesher::Done
            }
            Mesher::Done => self.mesher,
        };
        if next.mesher != self.mesher {
            out.push(next);
        }
        // The slab reissues the source's id; the new span's attach claims
        // every slot.
        let may_recycle = if rules.tombstones {
            self.words[DST] == 0
        } else {
            true
        };
        if self.mesher == Mesher::Done && !self.recycled && may_recycle {
            let mut next = self.clone();
            next.recycled = true;
            next.words[SRC] = u64::MAX;
            out.push(next);
        }
        out
    }

    /// What is wrong with a state no actor can step from, if anything.
    fn verdict(&self) -> Result<(), String> {
        if self.cleared_recycled {
            return Err("a free cleared a bit of a span that recycled the id".into());
        }
        for f in 0..3 {
            if self.frees[f] != Free::Freed {
                return Err(format!("free {f} ended as {:?}", self.frees[f]));
            }
            if self.freed[f] != 1 {
                return Err(format!("object {f} freed {} times", self.freed[f]));
            }
        }
        if self.mesher != Mesher::Done {
            return Err(format!("mesher stuck at {:?}", self.mesher));
        }
        if self.words[DST] != 0 {
            return Err(format!("destination ends with bits {:#b}", self.words[DST]));
        }
        if !self.recycled {
            return Err("the dead destination's tombstone was never released".into());
        }
        Ok(())
    }
}

/// Explores every interleaving (depth first, each state once) and returns
/// the number of distinct states and the first thing that went wrong.
fn explore(rules: Rules) -> (usize, Result<(), String>) {
    let mut seen = HashSet::new();
    let mut stack = vec![State::initial()];
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        if state.cleared_recycled {
            return (seen.len(), state.verdict());
        }
        let next = state.successors(rules);
        if next.is_empty() {
            if let Err(e) = state.verdict() {
                return (seen.len(), Err(format!("{e}\nin {state:?}")));
            }
        }
        stack.extend(next);
    }
    (seen.len(), Ok(()))
}

#[test]
fn every_interleaving_frees_each_object_exactly_once() {
    let (states, result) = explore(SOUND);
    assert!(states > 100, "the model is not interleaving: {states} states");
    result.unwrap();
}

#[test]
fn without_the_epoch_wait_a_free_is_mistaken_for_a_double_free() {
    let (_, result) = explore(Rules {
        wait_for_even: false,
        ..SOUND
    });
    let err = result.expect_err("the checker is blind to the window the epoch closes");
    assert!(err.contains("RefusedAsDouble"), "{err}");
}

#[test]
fn without_tombstones_a_stale_id_clears_a_recycled_bitmap() {
    let (_, result) = explore(Rules {
        tombstones: false,
        ..SOUND
    });
    let err = result.expect_err("the checker is blind to id reuse");
    assert!(err.contains("recycled"), "{err}");
}

#[test]
fn without_take_then_copy_a_freed_object_is_copied_as_live() {
    let (_, result) = explore(Rules {
        take_then_copy: false,
        ..SOUND
    });
    let err = result.expect_err("the checker is blind to a free between load and copy");
    assert!(
        err.contains("destination ends with bits") || err.contains("RefusedAsDouble"),
        "{err}"
    );
}
