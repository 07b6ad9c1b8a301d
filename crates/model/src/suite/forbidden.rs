//! Convertible tests whose target outcome is **forbidden** by x86-TSO
//! (lower group of Table II). Observing any of these targets on an x86
//! implementation — or in the TSO simulator — indicates a bug; the paper
//! uses them to show PerpLE produces no false positives.

use crate::test::{LitmusTest, TestBuilder};

fn build(b: &TestBuilder) -> LitmusTest {
    b.build().expect("suite test must be well-formed")
}

/// `lb` — load buffering (Figure 2 of the paper): both loads reading the
/// other thread's store needs load→store reordering, which TSO forbids.
pub fn lb() -> LitmusTest {
    let mut b = TestBuilder::new("lb");
    b.doc("load buffering: forbidden, TSO keeps load->store order");
    b.thread().load("EAX", "y").store("x", 1);
    b.thread().load("EAX", "x").store("y", 1);
    b.reg_cond(0, "EAX", 1).reg_cond(1, "EAX", 1);
    build(&b)
}

/// `mp` — message passing: TSO keeps stores in order and loads in order, so
/// observing the flag but not the data is forbidden.
pub fn mp() -> LitmusTest {
    let mut b = TestBuilder::new("mp");
    b.doc("message passing: flag observed without data is forbidden");
    b.thread().store("x", 1).store("y", 1);
    b.thread().load("EAX", "y").load("EBX", "x");
    b.reg_cond(1, "EAX", 1).reg_cond(1, "EBX", 0);
    build(&b)
}

/// `mp+fences` — message passing with both fences; forbidden a fortiori.
pub fn mp_fences() -> LitmusTest {
    let mut b = TestBuilder::new("mp+fences");
    b.doc("message passing with mfence on both sides");
    b.thread().store("x", 1).mfence().store("y", 1);
    b.thread().load("EAX", "y").mfence().load("EBX", "x");
    b.reg_cond(1, "EAX", 1).reg_cond(1, "EBX", 0);
    build(&b)
}

/// `mp+staleld` — message passing with a repeated data load: reading the
/// data and then its stale initial value violates coherence.
pub fn mp_staleld() -> LitmusTest {
    let mut b = TestBuilder::new("mp+staleld");
    b.doc("stale load after observing the data violates coherence");
    b.thread().store("x", 1).store("y", 1);
    b.thread()
        .load("EAX", "y")
        .load("EBX", "x")
        .load("ECX", "x");
    b.reg_cond(1, "EAX", 1)
        .reg_cond(1, "EBX", 1)
        .reg_cond(1, "ECX", 0);
    build(&b)
}

/// `amd5` — sb with mfences (AMD manual example 5): the fences drain the
/// store buffers, so both loads reading 0 is forbidden.
pub fn amd5() -> LitmusTest {
    let mut b = TestBuilder::new("amd5");
    b.doc("fenced store buffering: mfence forbids the 0,0 outcome");
    b.thread().store("x", 1).mfence().load("EAX", "y");
    b.thread().store("y", 1).mfence().load("EAX", "x");
    b.reg_cond(0, "EAX", 0).reg_cond(1, "EAX", 0);
    build(&b)
}

/// `amd5+staleld` — fenced sb with a repeated cross load whose second read
/// goes stale; forbidden by coherence.
pub fn amd5_staleld() -> LitmusTest {
    let mut b = TestBuilder::new("amd5+staleld");
    b.doc("fenced sb with a stale second read of x");
    b.thread().store("x", 1).mfence().load("EAX", "y");
    b.thread()
        .store("y", 1)
        .mfence()
        .load("EAX", "x")
        .load("EBX", "x");
    b.reg_cond(0, "EAX", 0)
        .reg_cond(1, "EAX", 1)
        .reg_cond(1, "EBX", 0);
    build(&b)
}

/// `amd10` — sb built from locked exchanges: XCHG drains the buffer, so the
/// 0,0 outcome is forbidden.
pub fn amd10() -> LitmusTest {
    let mut b = TestBuilder::new("amd10");
    b.doc("locked-exchange sb: XCHG acts as a fence");
    b.thread().xchg("EAX", "x", 1).load("EBX", "y");
    b.thread().xchg("EAX", "y", 1).load("EBX", "x");
    b.reg_cond(0, "EBX", 0).reg_cond(1, "EBX", 0);
    build(&b)
}

/// `n4` — coherence test: one thread reading the other's value and then its
/// own older value contradicts every write serialization.
pub fn n4() -> LitmusTest {
    let mut b = TestBuilder::new("n4");
    b.doc("single-location coherence: 2 then 1 contradicts ws");
    b.thread().store("x", 1).load("EAX", "x").load("EBX", "x");
    b.thread().store("x", 2).load("EAX", "x");
    b.reg_cond(0, "EAX", 2)
        .reg_cond(0, "EBX", 1)
        .reg_cond(1, "EAX", 2);
    build(&b)
}

/// `n5` — single-location cross reads: both threads reading the *other*
/// thread's value requires contradictory write serializations.
pub fn n5() -> LitmusTest {
    let mut b = TestBuilder::new("n5");
    b.doc("both threads read the other's store: contradictory ws");
    b.thread().store("x", 1).load("EAX", "x");
    b.thread().store("x", 2).load("EAX", "x");
    b.reg_cond(0, "EAX", 2).reg_cond(1, "EAX", 1);
    build(&b)
}

/// `iriw` — independent reads of independent writes: the two readers
/// disagreeing on store order is forbidden by TSO's total store order.
pub fn iriw() -> LitmusTest {
    let mut b = TestBuilder::new("iriw");
    b.doc("readers disagree on the order of independent writes");
    b.thread().store("x", 1);
    b.thread().store("y", 1);
    b.thread().load("EAX", "x").load("EBX", "y");
    b.thread().load("EAX", "y").load("EBX", "x");
    b.reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 0)
        .reg_cond(3, "EAX", 1)
        .reg_cond(3, "EBX", 0);
    build(&b)
}

/// `co-iriw` — coherence iriw: two readers disagreeing on the write
/// serialization of a single location.
pub fn co_iriw() -> LitmusTest {
    let mut b = TestBuilder::new("co-iriw");
    b.doc("readers disagree on the ws order of one location");
    b.thread().store("x", 1);
    b.thread().store("x", 2);
    b.thread().load("EAX", "x").load("EBX", "x");
    b.thread().load("EAX", "x").load("EBX", "x");
    b.reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 2)
        .reg_cond(3, "EAX", 2)
        .reg_cond(3, "EBX", 1);
    build(&b)
}

/// `wrc` — write-read causality: TSO's store atomicity forbids a third
/// thread missing a write whose effect it transitively observed.
pub fn wrc() -> LitmusTest {
    let mut b = TestBuilder::new("wrc");
    b.doc("write-read causality: transitive visibility is forbidden to fail");
    b.thread().store("x", 1);
    b.thread().load("EAX", "x").store("y", 1);
    b.thread().load("EAX", "y").load("EBX", "x");
    b.reg_cond(1, "EAX", 1)
        .reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 0);
    build(&b)
}

/// `rwc-fenced` — read-write causality with a fence in the writer-reader
/// thread; the fence drains P2's buffer before its load, forbidding the
/// causality violation that `rwc-unfenced` allows.
pub fn rwc_fenced() -> LitmusTest {
    let mut b = TestBuilder::new("rwc-fenced");
    b.doc("read-write causality with mfence: forbidden");
    b.thread().store("x", 1);
    b.thread().load("EAX", "x").load("EBX", "y");
    b.thread().store("y", 1).mfence().load("EAX", "x");
    b.reg_cond(1, "EAX", 1)
        .reg_cond(1, "EBX", 0)
        .reg_cond(2, "EAX", 0);
    build(&b)
}

/// `safe006` — fully fenced forwarding test (the "safe" companion of amd3):
/// fences force both stores visible before the cross loads.
pub fn safe006() -> LitmusTest {
    let mut b = TestBuilder::new("safe006");
    b.doc("fenced amd3: forwarding target becomes forbidden");
    b.thread()
        .store("x", 1)
        .mfence()
        .load("EAX", "x")
        .load("EBX", "y");
    b.thread()
        .store("y", 1)
        .mfence()
        .load("EAX", "y")
        .load("EBX", "x");
    b.reg_cond(0, "EAX", 1)
        .reg_cond(0, "EBX", 0)
        .reg_cond(1, "EAX", 1)
        .reg_cond(1, "EBX", 0);
    build(&b)
}

/// `safe007` — fenced three-thread PodWR cycle (safe companion of
/// podwr001).
pub fn safe007() -> LitmusTest {
    let mut b = TestBuilder::new("safe007");
    b.doc("fenced podwr001: all-zero target forbidden");
    b.thread().store("x", 1).mfence().load("EAX", "y");
    b.thread().store("y", 1).mfence().load("EAX", "z");
    b.thread().store("z", 1).mfence().load("EAX", "x");
    b.reg_cond(0, "EAX", 0)
        .reg_cond(1, "EAX", 0)
        .reg_cond(2, "EAX", 0);
    build(&b)
}

/// `safe012` — message passing observed by one reader with an auxiliary
/// second writer to the flag location.
pub fn safe012() -> LitmusTest {
    let mut b = TestBuilder::new("safe012");
    b.doc("mp core with an auxiliary writer thread (k_y = 2)");
    b.thread().store("x", 1).store("y", 1);
    b.thread().load("EAX", "y").load("EBX", "x");
    b.thread().store("y", 2).load("EAX", "x");
    b.reg_cond(1, "EAX", 1).reg_cond(1, "EBX", 0);
    build(&b)
}

/// `safe018` — fenced three-thread causality chain: x's store must be
/// visible once the chain through y and z is observed.
pub fn safe018() -> LitmusTest {
    let mut b = TestBuilder::new("safe018");
    b.doc("three-thread fenced causality chain");
    b.thread().store("x", 1).mfence().store("y", 1);
    b.thread().load("EAX", "y").mfence().store("z", 1);
    b.thread().load("EAX", "z").mfence().load("EBX", "x");
    b.reg_cond(1, "EAX", 1)
        .reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 0);
    build(&b)
}

/// `safe022` — message passing with a fence between the producer's stores.
pub fn safe022() -> LitmusTest {
    let mut b = TestBuilder::new("safe022");
    b.doc("mp with producer-side fence only");
    b.thread().store("x", 1).mfence().store("y", 1);
    b.thread().load("EAX", "y").load("EBX", "x");
    b.reg_cond(1, "EAX", 1).reg_cond(1, "EBX", 0);
    build(&b)
}

/// `safe024` — write-read causality with a fence in the relaying thread.
pub fn safe024() -> LitmusTest {
    let mut b = TestBuilder::new("safe024");
    b.doc("wrc with a relay-side fence");
    b.thread().store("x", 1);
    b.thread().load("EAX", "x").mfence().store("y", 1);
    b.thread().load("EAX", "y").mfence().load("EBX", "x");
    b.reg_cond(1, "EAX", 1)
        .reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 0);
    build(&b)
}

/// `safe027` — fenced iriw (safe companion of iriw).
pub fn safe027() -> LitmusTest {
    let mut b = TestBuilder::new("safe027");
    b.doc("iriw with fenced readers");
    b.thread().store("x", 1);
    b.thread().store("y", 1);
    b.thread().load("EAX", "x").mfence().load("EBX", "y");
    b.thread().load("EAX", "y").mfence().load("EBX", "x");
    b.reg_cond(2, "EAX", 1)
        .reg_cond(2, "EBX", 0)
        .reg_cond(3, "EAX", 1)
        .reg_cond(3, "EBX", 0);
    build(&b)
}

/// `safe028` — fenced sb with an auxiliary store-only thread.
pub fn safe028() -> LitmusTest {
    let mut b = TestBuilder::new("safe028");
    b.doc("fenced sb plus an independent store-only thread");
    b.thread().store("x", 1).mfence().load("EAX", "y");
    b.thread().store("y", 1).mfence().load("EAX", "x");
    b.thread().store("z", 1);
    b.reg_cond(0, "EAX", 0).reg_cond(1, "EAX", 0);
    build(&b)
}

/// `safe036` — sb with locked exchanges on scratch locations acting as
/// fences (safe companion of amd10).
pub fn safe036() -> LitmusTest {
    let mut b = TestBuilder::new("safe036");
    b.doc("sb with XCHG-on-scratch fences");
    b.thread()
        .store("x", 1)
        .xchg("EAX", "s", 1)
        .load("EBX", "y");
    b.thread()
        .store("y", 1)
        .xchg("EAX", "t", 1)
        .load("EBX", "x");
    b.reg_cond(0, "EBX", 0).reg_cond(1, "EBX", 0);
    build(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<LitmusTest> {
        vec![
            lb(),
            mp(),
            mp_fences(),
            mp_staleld(),
            amd5(),
            amd5_staleld(),
            amd10(),
            n4(),
            n5(),
            iriw(),
            co_iriw(),
            wrc(),
            rwc_fenced(),
            safe006(),
            safe007(),
            safe012(),
            safe018(),
            safe022(),
            safe024(),
            safe027(),
            safe028(),
            safe036(),
        ]
    }

    #[test]
    fn every_forbidden_test_builds() {
        for t in all() {
            assert!(t.target_outcome().is_some(), "{}", t.name());
            assert!(!t.doc().is_empty(), "{}", t.name());
        }
    }

    #[test]
    fn coherence_tests_use_two_writers() {
        for t in [n4(), n5(), co_iriw()] {
            let x = t.location_id("x").unwrap();
            assert_eq!(t.distinct_store_values(x).len(), 2, "{}", t.name());
        }
    }
}
