//! The free-vs-mesh handshake (DESIGN.md §3), as a model small enough to
//! enumerate: every interleaving of three lock-free frees, one mesh batch
//! of two pairs and the slab recycling an id, over one-word bitmaps.
//!
//! The steps are the shared-memory accesses of the real code, one per
//! step, in program order:
//!
//! * a free (`GlobalHeap::with_object_bit` under `free_small`): read the
//!   page map; clear the bit in the bitmap of the id it named (done if it
//!   was set); else read the class's mesh epoch, and wait while it is odd;
//!   read the page map again — another id goes back to the clear, and so
//!   does the same id, once per epoch value: the bit gone twice with the
//!   epoch unchanged is a double free;
//! * the mesher (`meshing::mesh_batch`, class and arena locks held): epoch
//!   to odd; for each pair, take the source's word with `swap(0)` and set
//!   the taken bits in the destination (the copy rides on it); then for
//!   each pair, point the source's page at the destination — or, when the
//!   kernel refuses the pair's remap, clear the taken bits in the
//!   destination and set them in the source again; epoch to even;
//! * the slab: reissue the first source's id to a new span, whose attach
//!   claims every slot — allowed once its destination is dead (the
//!   tombstone rule), which is never while an object of it is still to be
//!   freed.
//!
//! What must hold in every interleaving, whether the second pair's remap
//! is refused or not: each object is freed exactly once, no free is
//! mistaken for a double free, the bitmaps end with exactly the unfreed
//! objects set, and no free ever clears a bit of a span that recycled an
//! id. Four variants with one rule removed each show the checker sees
//! what the rule prevents.

use std::collections::HashSet;

/// Ids (indices into `State::words`): the sources and destinations of the
/// batch's two pairs.
const SRC: [usize; 2] = [0, 2];
const DST: [usize; 2] = [1, 3];

/// The bit of the second destination's own object, which nobody frees.
const RESIDENT: u64 = 1 << 3;

/// The three objects freed: one in each source span (bits 0 and 1 of
/// their pages), one in the first destination span (bit 2 of its page).
/// Nothing else is live in the first pair, so its destination dies with
/// the last of them and the slab does get to reissue its source's id.
const OBJECTS: [(usize, u64); 3] = [(SRC[0], 1 << 0), (SRC[1], 1 << 1), (DST[0], 1 << 2)];

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Free {
    Lookup,
    /// `gone_at`: the epoch at which `id` was last seen without the bit.
    Clear {
        id: usize,
        gone_at: Option<u8>,
    },
    ReadEpoch {
        id: usize,
        gone_at: Option<u8>,
    },
    Relookup {
        id: usize,
        gone_at: Option<u8>,
        epoch: u8,
    },
    Freed,
    RefusedAsDouble,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Mesher {
    EpochOdd,
    Take {
        pair: usize,
    },
    Set {
        pair: usize,
        left: u64,
    },
    Retarget {
        pair: usize,
    },
    /// The refused pair: its taken bits leave the destination…
    RollBackDst,
    /// …and return to the source.
    RollBackSrc,
    EpochEven,
    /// The variant without take-then-copy: zero the sources only now.
    LateClear,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    epoch: u8,
    /// One-word bitmaps by id.
    words: [u64; 4],
    /// Which id each span's page names (index: the span the object was
    /// allocated in).
    page_map: [usize; 4],
    frees: [Free; 3],
    freed: [u8; 3],
    mesher: Mesher,
    /// What the batch took from each source.
    taken: [u64; 2],
    /// The first source's id has been reissued: every bit of its word
    /// belongs to a new span now.
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
    /// plain load saw, and it zeroes the sources at the end).
    take_then_copy: bool,
    /// A free that finds the same id under its page looks at the bit once
    /// more before it calls itself a double free.
    second_look: bool,
}

const SOUND: Rules = Rules {
    wait_for_even: true,
    tombstones: true,
    take_then_copy: true,
    second_look: true,
};

impl State {
    fn initial() -> State {
        State {
            epoch: 0,
            words: [OBJECTS[0].1, OBJECTS[2].1, OBJECTS[1].1, RESIDENT],
            page_map: [0, 1, 2, 3],
            frees: [Free::Lookup; 3],
            freed: [0; 3],
            mesher: Mesher::EpochOdd,
            taken: [0; 2],
            recycled: false,
            cleared_recycled: false,
        }
    }

    /// Every state one step of one actor leads to. `refused`: the kernel
    /// refuses the second pair's remap.
    fn successors(&self, rules: Rules, refused: bool) -> Vec<State> {
        let mut out = Vec::new();
        for (f, &(span, bit)) in OBJECTS.iter().enumerate() {
            let mut next = self.clone();
            next.frees[f] = match self.frees[f] {
                Free::Lookup => Free::Clear {
                    id: self.page_map[span],
                    gone_at: None,
                },
                Free::Clear { id, gone_at } => {
                    if self.words[id] & bit != 0 {
                        next.words[id] &= !bit;
                        next.freed[f] += 1;
                        next.cleared_recycled |= id == SRC[0] && self.recycled;
                        Free::Freed
                    } else {
                        Free::ReadEpoch { id, gone_at }
                    }
                }
                Free::ReadEpoch { id, gone_at } => {
                    if rules.wait_for_even && self.epoch % 2 == 1 {
                        continue; // spinning: not a step
                    }
                    Free::Relookup {
                        id,
                        gone_at,
                        epoch: self.epoch,
                    }
                }
                Free::Relookup { id, gone_at, epoch } => {
                    let now = self.page_map[span];
                    if now != id {
                        Free::Clear {
                            id: now,
                            gone_at: None,
                        }
                    } else if !rules.second_look || gone_at == Some(epoch) {
                        Free::RefusedAsDouble
                    } else {
                        Free::Clear {
                            id,
                            gone_at: Some(epoch),
                        }
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
                Mesher::Take { pair: 0 }
            }
            Mesher::Take { pair } => {
                next.taken[pair] = self.words[SRC[pair]];
                if rules.take_then_copy {
                    next.words[SRC[pair]] = 0;
                }
                Mesher::Set {
                    pair,
                    left: next.taken[pair],
                }
            }
            Mesher::Set { pair: 0, left: 0 } => Mesher::Take { pair: 1 },
            Mesher::Set { left: 0, .. } => Mesher::Retarget { pair: 0 },
            Mesher::Set { pair, left } => {
                let bit = left & left.wrapping_neg();
                assert_eq!(self.words[DST[pair]] & bit, 0, "pair was not disjoint");
                next.words[DST[pair]] |= bit;
                Mesher::Set {
                    pair,
                    left: left & !bit,
                }
            }
            Mesher::Retarget { pair: 0 } => {
                next.page_map[SRC[0]] = DST[0];
                if refused {
                    Mesher::RollBackDst
                } else {
                    Mesher::Retarget { pair: 1 }
                }
            }
            Mesher::Retarget { pair } => {
                next.page_map[SRC[pair]] = DST[pair];
                Mesher::EpochEven
            }
            Mesher::RollBackDst => {
                next.words[DST[1]] &= !self.taken[1];
                Mesher::RollBackSrc
            }
            Mesher::RollBackSrc => {
                next.words[SRC[1]] |= self.taken[1];
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
                next.words[SRC[0]] = 0;
                if !refused {
                    next.words[SRC[1]] = 0;
                }
                Mesher::Done
            }
            Mesher::Done => self.mesher,
        };
        if next.mesher != self.mesher {
            out.push(next);
        }
        // The slab reissues the first source's id; the new span's attach
        // claims every slot.
        let may_recycle = if rules.tombstones {
            self.words[DST[0]] == 0
        } else {
            true
        };
        if self.mesher == Mesher::Done && !self.recycled && may_recycle {
            let mut next = self.clone();
            next.recycled = true;
            next.words[SRC[0]] = u64::MAX;
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
        if self.words[DST[0]] != 0 || self.words[DST[1]] != RESIDENT || self.words[SRC[1]] != 0 {
            return Err(format!("the bitmaps end as {:?}", self.words));
        }
        if !self.recycled {
            return Err("the dead destination's tombstone was never released".into());
        }
        Ok(())
    }
}

/// Explores every interleaving (depth first, each state once) and returns
/// the number of distinct states and the first thing that went wrong.
fn explore(rules: Rules, refused: bool) -> (usize, Result<(), String>) {
    let mut seen = HashSet::new();
    let mut stack = vec![State::initial()];
    while let Some(state) = stack.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        if state.cleared_recycled {
            return (seen.len(), state.verdict());
        }
        let next = state.successors(rules, refused);
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
    for refused in [false, true] {
        let (states, result) = explore(SOUND, refused);
        assert!(
            states > 500,
            "the model is not interleaving: {states} states"
        );
        result.unwrap();
    }
}

#[test]
fn without_the_epoch_wait_a_free_is_mistaken_for_a_double_free() {
    let (_, result) = explore(
        Rules {
            wait_for_even: false,
            ..SOUND
        },
        false,
    );
    let err = result.expect_err("the checker is blind to the window the epoch closes");
    assert!(err.contains("RefusedAsDouble"), "{err}");
}

#[test]
fn without_tombstones_a_stale_id_clears_a_recycled_bitmap() {
    let (_, result) = explore(
        Rules {
            tombstones: false,
            ..SOUND
        },
        false,
    );
    let err = result.expect_err("the checker is blind to id reuse");
    assert!(err.contains("recycled"), "{err}");
}

#[test]
fn without_take_then_copy_a_freed_object_is_copied_as_live() {
    let (_, result) = explore(
        Rules {
            take_then_copy: false,
            ..SOUND
        },
        false,
    );
    let err = result.expect_err("the checker is blind to a free between load and copy");
    assert!(
        err.contains("the bitmaps end as") || err.contains("RefusedAsDouble"),
        "{err}"
    );
}

#[test]
fn without_the_second_look_a_rolled_back_pair_refuses_its_frees() {
    let rules = Rules {
        second_look: false,
        ..SOUND
    };
    // With every remap granted a free never meets the same id twice…
    explore(rules, false).1.unwrap();
    // …but a rollback puts the bit back under the id the free gave up on.
    let err = explore(rules, true)
        .1
        .expect_err("the checker is blind to a rollback");
    assert!(err.contains("RefusedAsDouble"), "{err}");
}
