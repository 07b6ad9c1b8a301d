//! The polynomial **reads-from closure counter** ([`RfCounter`]).
//!
//! The exhaustive counter (Algorithm 1) enumerates all `N^{T_L}` frames
//! and evaluates every outcome on each — the "`N^{T_L}` wall" that caps
//! practical iteration counts for three-load tests. PerpLE's unique
//! stored values make a polynomial alternative possible: every loaded
//! value *names* its writer iteration (the observed reads-from partner),
//! so each frame-evaluable condition is a threshold on a per-iteration
//! **feature** — `fr_lower_bound` of the loaded value for fr/ws
//! conditions, `KMap::decode` of it for rf conditions — and an outcome's
//! frame predicate factors into per-coordinate validity plus pairwise
//! interval constraints between coordinates. Counting satisfying frames
//! then reduces to order-statistics sweeps (Fenwick trees over positions
//! or feature values) instead of a cross-product scan, in the spirit of
//! the polynomial reads-from consistency checkers of Roy et al. and
//! Tunç et al.
//!
//! # The compiled fragment
//!
//! [`RfCounter`] compiles every outcome's conditions into:
//!
//! * per-coordinate **unary** checks (self-referential rf/fr/ws
//!   conditions, decode feasibility, existential lower-bound
//!   feasibility), folded into a `valid` bitmap per coordinate;
//! * cross-coordinate **atoms** `feat_a(f_a) <= feat_b(f_b)` (frame-frame
//!   rf/fr/ws conditions, and existential variables eliminated pairwise:
//!   `max(lo) <= min(hi)` iff every `lo <= hi` pair holds).
//!
//! Coordinates are grouped into connected components over the atoms, and
//! each component is counted independently (counts multiply):
//!
//! * **singleton** — sum the valid bitmap, `O(N)`;
//! * **pair, single shared key** — one Fenwick sweep over one
//!   coordinate's positions: atoms comparing the other coordinate's
//!   features against the sweep position fold into activity intervals,
//!   and every remaining atom reads one shared attribute of the other
//!   coordinate (its position, or one data feature) bounded per sweep
//!   position — `O(N log N)`. Subsumes pure identity-sided shapes and
//!   the mixed identity/reads-from targets (n1, rwc, safe018/024, wrc);
//! * **pair, two-key dominance** (eliminated existentials in both
//!   orientations) — a value-indexed Fenwick dominance sweep,
//!   `O(N log N)`;
//! * **path** — three coordinates of which one pair shares no atom: both
//!   legs are pair sweeps over the shared centre coordinate, reporting
//!   partners per centre position, and the count is
//!   `Σ_c N_u(c) · N_w(c)` — `O(N log N)`;
//! * **cycle** — three coordinates, every pair coupled (the targets of
//!   podwr001, safe007 and the generated `PodWR-Fre`/`PodRW-Rfe` cycle
//!   families): one incremental sweep over `x` with a Fenwick tree over
//!   the `z`s active at `x`, walking only the `y`s that some active `z`
//!   could still close — `O(N log N)` plus `O(log N)` per visited
//!   `(x, y)` pair. Machine-produced buffers make that a few pairs per
//!   position (`podwr001`@10^5 in tens of milliseconds); the worst case,
//!   every pair visited, is `O(N^2 log N)` versus the exhaustive `N^3`.
//!
//! Every *target* outcome of the 34 convertible tests and of the generated
//! corpus's three-load-thread tests falls in this fragment, and so do the
//! full outcome sets of 29 of the 34 (asserted by
//! `no_target_outcome_needs_the_fallback` and
//! `every_outcome_counted_individually_matches_exhaustive` below, plus the
//! workspace differential suite). The exceptions are multi-variable
//! existential outcomes in the co-iriw, iriw, rfi015, safe012, and safe027
//! variety sets, whose two same-orientation data-data constraints form a
//! 3-D dominance problem, and two cycle outcomes of the generated
//! `PodRW-Rfe-Fre-PodWR-Fre-Rfe` family, whose data-data pair meets a
//! position bound from the third coordinate. Anything outside
//! the fragment triggers a **fallback** to the exhaustive scan: the
//! counts remain exact, the downgrade is recorded in
//! [`CountResult::downgraded`] and the `count_rf_fallbacks` metric —
//! mirroring the budget-expiry degradation path.
//!
//! # Semantics pinned to the exhaustive counter
//!
//! The differential suite (`tests/counter_equivalence.rs`) proves the
//! count bit-identical to [`ExhaustiveCounter`](crate::count::ExhaustiveCounter) for every outcome. Three
//! deliberate differences in the *policy* fields:
//!
//! * `frames_examined` reports the work the rf counter actually
//!   did, one unit per position of each sweep plus one per `(x, y)` pair
//!   a cycle sweep visits (singleton `N`, pair `2N`, path `4N`, cycle `N`
//!   plus the visited pairs), not `N^{T_L}` — that asymmetry *is* the
//!   speedup the benches measure. It is deterministic: both the
//!   polynomial path and the fallback scan run serially. The worst-case bound
//!   per component is `N + N^2` (a cycle visiting every pair), which an
//!   admission check can compute before counting.
//! * `frame_cap` is ignored on the polynomial path: the cap exists as a
//!   workaround for the `N^{T_L}` wall, and the rf counter answers the
//!   *uncapped* question exactly. (The fallback path honours the cap,
//!   exactly like the exhaustive counter it is.)
//! * a [`Budget`] bounds the **admitted iteration prefix**, not the
//!   closure: the counter admits iterations in deterministic
//!   1024-iteration blocks (`RF_POLL_INTERVAL`) while the budget lasts,
//!   then counts the admitted prefix `M` exactly. The truncated result equals the full
//!   rf/exhaustive count at `n = M` — a provable prefix, with
//!   `budget_expired` set iff `M < N`.

use std::time::Instant;

use perple_convert::{fr_lower_bound, IdxRef, KMap, PerpCond, PerpetualOutcome};
use perple_obs::metrics::{self as obs_metrics, Metric};
use perple_sim::Budget;

use crate::count::{exhaustive_scan, CountRequest, CountResult, Counter};

/// Iterations admitted per watchdog poll while sizing the budgeted
/// prefix; with a deterministic poll-limit [`Budget`] the admitted prefix
/// is an exact multiple of this interval on every machine (mirroring the
/// exhaustive counter's poll interval).
const RF_POLL_INTERVAL: u64 = 1024;

/// A per-iteration feature of one frame coordinate: the compiled form of
/// one side of a condition. Features are pure functions of the
/// coordinate's buffer and position, so they can be swept independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feat {
    /// The raw frame index itself.
    Identity,
    /// `fr_lower_bound(k, a, value_of(pos))` — the smallest writer
    /// iteration newer than the loaded value (fr conditions).
    FrLb {
        k: u64,
        a: u64,
        rpi: usize,
        slot: usize,
    },
    /// `KMap::decode(k, a, value_of(pos))` — the observed reads-from
    /// partner iteration (rf conditions). Decode failure yields 0 here; a
    /// paired [`Unary::DecodeOk`] excludes those positions entirely.
    Dec {
        k: u64,
        a: u64,
        rpi: usize,
        slot: usize,
    },
    /// `fr_lower_bound(kr, ar, kl*pos + al)` — the ws threshold: the
    /// smallest right-sequence iteration whose value exceeds this
    /// coordinate's left-sequence store.
    FrLbLin { kl: u64, al: u64, kr: u64, ar: u64 },
}

impl Feat {
    /// Evaluates the feature at position `pos` over the coordinate's
    /// buffer. Lower-bound features clamp to `m` — an always-failing
    /// sentinel, since every value they are compared against is at most
    /// `m - 1` — and `Dec` clamps to `m - 1`, matching the exhaustive
    /// evaluator's implicit `[0, N-1]` existential window.
    fn eval(self, buf: &[u64], pos: u64, m: u64) -> u64 {
        match self {
            Feat::Identity => pos,
            Feat::FrLb { k, a, rpi, slot } => {
                fr_lower_bound(k, a, buf[rpi * pos as usize + slot]).min(m)
            }
            Feat::Dec { k, a, rpi, slot } => {
                KMap::decode(k, a, buf[rpi * pos as usize + slot]).map_or(0, |d| d.min(m - 1))
            }
            Feat::FrLbLin { kl, al, kr, ar } => fr_lower_bound(kr, ar, kl * pos + al).min(m),
        }
    }
}

/// A check involving a single coordinate, folded into its `valid` bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unary {
    /// The rf load value must decode within its writer sequence.
    DecodeOk {
        k: u64,
        a: u64,
        rpi: usize,
        slot: usize,
    },
    /// `left(pos) <= right(pos)` (self-referential rf/fr/ws conditions,
    /// same-coordinate existential `lo <= hi` pairs).
    FeatLe(Feat, Feat),
    /// `feat(pos) <= m - 1` (existential lower bound against the default
    /// upper window edge).
    FeatLeMax(Feat),
}

/// One cross-coordinate constraint: `af(frame[ac]) <= bf(frame[bc])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Atom {
    ac: usize,
    af: Feat,
    bc: usize,
    bf: Feat,
}

impl Atom {
    /// Canonical role split: the *feature side* is the non-identity side
    /// (the `af` side when both are identity). Returns
    /// `(is_lower, feature_coord, feature)` where `is_lower` means
    /// `feat(frame[fc]) <= frame[ident]` and `!is_lower` means
    /// `frame[ident] <= feat(frame[fc])`.
    fn role(&self) -> (bool, usize, Feat) {
        if self.bf == Feat::Identity {
            (true, self.ac, self.af)
        } else {
            (false, self.bc, self.bf)
        }
    }

    fn identity_sided(&self) -> bool {
        self.af == Feat::Identity || self.bf == Feat::Identity
    }
}

/// The compiled form of one outcome.
#[derive(Debug, Clone)]
struct Plan {
    infeasible: bool,
    /// Unary checks per frame coordinate.
    unaries: Vec<Vec<Unary>>,
    /// Cross-coordinate atoms (deduplicated).
    atoms: Vec<Atom>,
}

/// Compiles an outcome's conditions into unaries and atoms. Total: every
/// condition form the converter emits maps onto the feature algebra; only
/// the *counting strategy* selection below can reject a shape.
fn compile(o: &PerpetualOutcome, tl: usize) -> Plan {
    let ne = o.exist_threads().len();
    let mut unaries: Vec<Vec<Unary>> = vec![Vec::new(); tl];
    let mut atoms: Vec<Atom> = Vec::new();
    // Existential contributions: lower bounds (fr/ws) and upper bounds
    // (rf decode) per variable, each tagged with its source coordinate.
    let mut lo_feats: Vec<Vec<(usize, Feat)>> = vec![Vec::new(); ne];
    let mut hi_feats: Vec<Vec<(usize, Feat)>> = vec![Vec::new(); ne];

    let push_unary = |unaries: &mut Vec<Vec<Unary>>, c: usize, u: Unary| {
        if !unaries[c].contains(&u) {
            unaries[c].push(u);
        }
    };
    let push_atom = |atoms: &mut Vec<Atom>, a: Atom| {
        if !atoms.contains(&a) {
            atoms.push(a);
        }
    };

    for cond in o.conds() {
        match cond {
            PerpCond::Ws { left, right } => {
                let IdxRef::Frame(lp) = left.writer else {
                    unreachable!("ws left side is a frame store")
                };
                let f = Feat::FrLbLin {
                    kl: left.k,
                    al: left.a,
                    kr: right.k,
                    ar: right.a,
                };
                match right.writer {
                    IdxRef::Frame(p) if p == lp => {
                        push_unary(&mut unaries, lp, Unary::FeatLe(f, Feat::Identity));
                    }
                    IdxRef::Frame(p) => push_atom(
                        &mut atoms,
                        Atom {
                            ac: lp,
                            af: f,
                            bc: p,
                            bf: Feat::Identity,
                        },
                    ),
                    IdxRef::Exist(e) => lo_feats[e].push((lp, f)),
                }
            }
            PerpCond::Rf { load, term } => {
                let l = load.frame_pos;
                let dec = Feat::Dec {
                    k: term.k,
                    a: term.a,
                    rpi: load.reads_per_iter,
                    slot: load.slot,
                };
                // A decode failure falsifies the whole frame regardless of
                // the writer side.
                push_unary(
                    &mut unaries,
                    l,
                    Unary::DecodeOk {
                        k: term.k,
                        a: term.a,
                        rpi: load.reads_per_iter,
                        slot: load.slot,
                    },
                );
                match term.writer {
                    IdxRef::Frame(p) if p == l => {
                        push_unary(&mut unaries, l, Unary::FeatLe(Feat::Identity, dec));
                    }
                    IdxRef::Frame(p) => push_atom(
                        &mut atoms,
                        Atom {
                            ac: p,
                            af: Feat::Identity,
                            bc: l,
                            bf: dec,
                        },
                    ),
                    IdxRef::Exist(e) => hi_feats[e].push((l, dec)),
                }
            }
            PerpCond::Fr { load, terms } => {
                let l = load.frame_pos;
                for term in terms {
                    let frlb = Feat::FrLb {
                        k: term.k,
                        a: term.a,
                        rpi: load.reads_per_iter,
                        slot: load.slot,
                    };
                    match term.writer {
                        IdxRef::Frame(p) if p == l => {
                            push_unary(&mut unaries, l, Unary::FeatLe(frlb, Feat::Identity));
                        }
                        IdxRef::Frame(p) => push_atom(
                            &mut atoms,
                            Atom {
                                ac: l,
                                af: frlb,
                                bc: p,
                                bf: Feat::Identity,
                            },
                        ),
                        IdxRef::Exist(e) => lo_feats[e].push((l, frlb)),
                    }
                }
            }
        }
    }

    // Eliminate each existential variable pairwise:
    // `max(0, lo...) <= min(m-1, hi...)` holds iff every individual
    // `lo <= hi` pair holds (including the default window edges). Default
    // lower 0 is vacuous against any upper; each explicit lower needs a
    // check against the default upper `m - 1` plus one per explicit upper
    // — a unary when both live on the same coordinate, an atom otherwise.
    for e in 0..ne {
        for &(c, lo) in &lo_feats[e] {
            push_unary(&mut unaries, c, Unary::FeatLeMax(lo));
            for &(c2, hi) in &hi_feats[e] {
                if c == c2 {
                    push_unary(&mut unaries, c, Unary::FeatLe(lo, hi));
                } else {
                    push_atom(
                        &mut atoms,
                        Atom {
                            ac: c,
                            af: lo,
                            bc: c2,
                            bf: hi,
                        },
                    );
                }
            }
        }
    }

    Plan {
        infeasible: o.is_infeasible(),
        unaries,
        atoms,
    }
}

/// One Fenwick sweep over the positions of coordinate `s` counting the
/// partners of each `s` position in coordinate `o`: atoms whose `o`-side
/// feature is compared against the raw `s` position fold into an
/// *activity interval* of `o` over the sweep, and every remaining atom
/// reads the **same** `o`-side attribute (`key`: the raw position, or one
/// data feature), bounded per `s` position by the atom's `s`-side value.
#[derive(Debug, Clone)]
struct Sweep {
    s: usize,
    o: usize,
    /// `(is_lower, feat)`: `feat(o) <= s_pos` when lower, else
    /// `s_pos <= feat(o)` — the activity window of `o`.
    activity: Vec<(bool, Feat)>,
    /// The shared `o`-side attribute the Fenwick indexes.
    key: Feat,
    /// `(is_lower, feat)`: `feat(s) <= key(o)` when lower, else
    /// `key(o) <= feat(s)` — folded into a per-`s` query interval.
    bounds: Vec<(bool, Feat)>,
}

/// A counting strategy for one connected component of coordinates.
#[derive(Debug, Clone)]
enum Strategy {
    /// An isolated coordinate: count its valid positions.
    Single { c: usize },
    /// A coordinate pair counted by one [`Sweep`]. Subsumes the
    /// pure-identity-sided shape (key = position) and mixed
    /// identity/reads-from shapes (key = a decode or fr-bound feature).
    PairSweep(Sweep),
    /// A coordinate pair coupled only through eliminated existentials
    /// (no identity side, two distinct keys), at most one atom per
    /// orientation: value-Fenwick dominance sweep.
    PairDominance {
        x: usize,
        y: usize,
        /// `lx(x) <= hy(y)`, if present.
        lx_hy: Option<(Feat, Feat)>,
        /// `ly(y) <= hx(x)`, if present.
        ly_hx: Option<(Feat, Feat)>,
    },
    /// Three coordinates of which one pair shares no atom: two sweeps over
    /// the same centre `s`, one per leg, whose per-position partner counts
    /// multiply.
    Path([Sweep; 2]),
    /// Three coordinates, every pair coupled: identity-sided atoms join
    /// `x` to `y` and `z`, and the `y`–`z` atoms only bound one key
    /// attribute of `z` by features of `y` (a [`Sweep`] from `y` without
    /// activity atoms). See [`count_cycle`].
    Cycle {
        x: usize,
        /// The `x`–`y` and `x`–`z` atoms.
        atoms: Vec<Atom>,
        yz: Sweep,
    },
}

/// Tries to express a pair component's atoms as one [`Sweep`] with sweep
/// coordinate `s`. Fails (`None`) when the non-activity atoms would need
/// more than one `o`-side key attribute.
fn classify_pair_sweep(atoms: &[Atom], s: usize, o: usize) -> Option<Sweep> {
    let mut activity = Vec::new();
    let mut key: Option<Feat> = None;
    let mut bounds = Vec::new();
    for a in atoms {
        // Orient the atom as (s-side feat, o-side feat, is s the lower side).
        let (sf, of, s_lower) = if a.ac == s {
            (a.af, a.bf, true)
        } else {
            (a.bf, a.af, false)
        };
        if sf == Feat::Identity {
            // A raw s position against an o-side feature: an activity
            // window of o over the sweep (covers identity-identity too).
            activity.push((!s_lower, of));
        } else {
            // The o side is the Fenwick key; every such atom must agree.
            if *key.get_or_insert(of) != of {
                return None;
            }
            bounds.push((s_lower, sf));
        }
    }
    Some(Sweep {
        s,
        o,
        activity,
        // A component has at least one atom, but an all-activity set
        // leaves the key free: position works (no bounds restrict it).
        key: key.unwrap_or(Feat::Identity),
        bounds,
    })
}

/// Selects the strategy of a three-coordinate component. When one pair
/// shares no atom it is a [`Strategy::Path`], provided both legs sweep
/// over the centre. Otherwise it is the first [`Strategy::Cycle`]
/// labelling that fits: `x`'s atoms identity-sided, the `y`–`z` atoms a
/// [`Sweep`] from `y` without activity atoms, and a `z` key other than
/// the position only when no feature of `x` bounds `z`'s position.
/// Anything else is `None`.
fn classify_triple(atoms: &[Atom], [a, b, c]: [usize; 3]) -> Option<Strategy> {
    let between = |u: usize, v: usize| -> Vec<Atom> {
        atoms
            .iter()
            .filter(|t| (t.ac == u && t.bc == v) || (t.ac == v && t.bc == u))
            .copied()
            .collect()
    };
    if let Some((centre, u, w)) = [(a, b, c), (b, a, c), (c, a, b)]
        .into_iter()
        .find(|&(_, u, w)| between(u, w).is_empty())
    {
        return Some(Strategy::Path([
            classify_pair_sweep(&between(centre, u), centre, u)?,
            classify_pair_sweep(&between(centre, w), centre, w)?,
        ]));
    }
    [
        (a, b, c),
        (a, c, b),
        (b, a, c),
        (b, c, a),
        (c, a, b),
        (c, b, a),
    ]
    .into_iter()
    .find_map(|(x, y, z)| {
        let yz = classify_pair_sweep(&between(y, z), y, z)?;
        let xz = between(x, z);
        let x_bounds_z = xz.iter().any(|t| t.role().1 == x);
        let atoms = [between(x, y), xz].concat();
        (atoms.iter().all(Atom::identity_sided)
            && yz.activity.is_empty()
            && (yz.key == Feat::Identity || !x_bounds_z))
            .then_some(Strategy::Cycle { x, atoms, yz })
    })
}

/// Groups coordinates into atom-connected components and selects a
/// polynomial strategy per component; `None` means some component's shape
/// is outside the fragment and the caller must fall back to exhaustive.
fn strategies(plan: &Plan, tl: usize) -> Option<Vec<Strategy>> {
    let mut parent: Vec<usize> = (0..tl).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for a in &plan.atoms {
        let (ra, rb) = (find(&mut parent, a.ac), find(&mut parent, a.bc));
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for c in 0..tl {
        groups.entry(find(&mut parent, c)).or_default().push(c);
    }

    let mut out = Vec::new();
    for coords in groups.into_values() {
        let atoms: Vec<Atom> = plan
            .atoms
            .iter()
            .filter(|a| coords.contains(&a.ac))
            .copied()
            .collect();
        match coords[..] {
            [c] => out.push(Strategy::Single { c }),
            [x, y] => {
                if let Some(s) =
                    classify_pair_sweep(&atoms, x, y).or_else(|| classify_pair_sweep(&atoms, y, x))
                {
                    out.push(Strategy::PairSweep(s));
                } else if atoms.iter().any(Atom::identity_sided) {
                    // Two-key shapes mixing identity and data sides:
                    // outside the fragment.
                    return None;
                } else {
                    let (mut lx_hy, mut ly_hx) = (None, None);
                    for a in &atoms {
                        let slot = if a.ac == x { &mut lx_hy } else { &mut ly_hx };
                        if slot.is_some() {
                            return None; // two atoms in one orientation
                        }
                        *slot = Some((a.af, a.bf));
                    }
                    out.push(Strategy::PairDominance { x, y, lx_hy, ly_hx });
                }
            }
            [x, y, z] => out.push(classify_triple(&atoms, [x, y, z])?),
            _ => return None, // four or more coupled coordinates
        }
    }
    Some(out)
}

/// Evaluates a coordinate's unary checks into its validity bitmap.
fn coord_valid(unaries: &[Unary], buf: &[u64], m: u64) -> Vec<bool> {
    (0..m)
        .map(|f| {
            unaries.iter().all(|u| match *u {
                Unary::DecodeOk { k, a, rpi, slot } => {
                    KMap::decode(k, a, buf[rpi * f as usize + slot]).is_some()
                }
                Unary::FeatLe(l, r) => l.eval(buf, f, m) <= r.eval(buf, f, m),
                Unary::FeatLeMax(l) => l.eval(buf, f, m) < m,
            })
        })
        .collect()
}

/// A Fenwick (binary indexed) tree over `0..len` with signed updates so
/// sweep deactivations can subtract.
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    fn add(&mut self, i: usize, v: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += v;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over `0..=i`.
    fn prefix(&self, i: usize) -> i64 {
        let mut i = i + 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over `lo..=hi` (0 when empty).
    fn range(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        let s = self.prefix(hi as usize)
            - if lo == 0 {
                0
            } else {
                self.prefix(lo as usize - 1)
            };
        debug_assert!(s >= 0, "negative interval count");
        s as u64
    }
}

/// Folds `(is_lower, feat)` bounds evaluated at `pos` into the window
/// `[lo, hi]`: a lower bound raises `lo`, an upper bound lowers `hi`.
fn window(
    bounds: &[(bool, Feat)],
    buf: &[u64],
    pos: u64,
    m: u64,
    (lo, hi): (u64, u64),
) -> (u64, u64) {
    bounds.iter().fold((lo, hi), |(lo, hi), &(is_lower, f)| {
        let v = f.eval(buf, pos, m);
        if is_lower {
            (lo.max(v), hi)
        } else {
            (lo, hi.min(v))
        }
    })
}

/// Runs one [`Sweep`]: each `o` is inserted at its key attribute value
/// while its activity window covers the sweep position, and each valid `s`
/// position queries the interval its bound atoms impose on that key.
/// Calls `emit(s_pos, partners)` once per valid `s` position, in order.
fn count_pair_sweep(
    sw: &Sweep,
    bufs: &[&[u64]],
    valid_s: &[bool],
    valid_o: &[bool],
    m: u64,
    mut emit: impl FnMut(u64, u64),
) {
    let (bs, bo) = (bufs[sw.s], bufs[sw.o]);
    // Activity interval [c, d] over the sweep per o position, plus the
    // key value each active o contributes.
    let mut act: Vec<(u64, u64)> = Vec::new(); // (first active s, key(o))
    let mut deact: Vec<(u64, u64)> = Vec::new(); // (first inactive s, key(o))
    for ov in 0..m {
        if !valid_o[ov as usize] {
            continue;
        }
        let (c, d) = window(&sw.activity, bo, ov, m, (0, m - 1));
        if c <= d {
            let kv = sw.key.eval(bo, ov, m);
            act.push((c, kv));
            deact.push((d + 1, kv));
        }
    }
    act.sort_unstable();
    deact.sort_unstable();

    // Key values live in 0..=m (lower-bound features clamp to m).
    let mut fen = Fenwick::new(m as usize + 1);
    let (mut ai, mut di) = (0usize, 0usize);
    for sv in 0..m {
        while ai < act.len() && act[ai].0 <= sv {
            fen.add(act[ai].1 as usize, 1);
            ai += 1;
        }
        while di < deact.len() && deact[di].0 <= sv {
            fen.add(deact[di].1 as usize, -1);
            di += 1;
        }
        if valid_s[sv as usize] {
            let (lo, hi) = window(&sw.bounds, bs, sv, m, (0, m));
            emit(sv, fen.range(lo, hi));
        }
    }
}

/// Counts valid `(x, y)` pairs under value dominance: at most one
/// `lx(x) <= hy(y)` atom and one `ly(y) <= hx(x)` atom. With both, a
/// merge sweep over `x` sorted by `hx` inserts `y`s sorted by `ly` into a
/// value-Fenwick keyed by `hy`; with one, a sorted-threshold count.
fn count_pair_dominance(
    lx_hy: Option<(Feat, Feat)>,
    ly_hx: Option<(Feat, Feat)>,
    (bx, by): (&[u64], &[u64]),
    valid_x: &[bool],
    valid_y: &[bool],
    m: u64,
) -> u64 {
    fn valid_positions(valid: &[bool], m: u64) -> impl Iterator<Item = u64> + '_ {
        (0..m).filter(move |&v| valid[v as usize])
    }
    match (lx_hy, ly_hx) {
        (Some((lxf, hyf)), Some((lyf, hxf))) => {
            // (hx, lx) per valid x, ascending by hx.
            let mut xs: Vec<(u64, u64)> = valid_positions(valid_x, m)
                .map(|xv| (hxf.eval(bx, xv, m), lxf.eval(bx, xv, m)))
                .collect();
            xs.sort_unstable();
            // (ly, hy) per valid y, ascending by ly.
            let mut ys: Vec<(u64, u64)> = valid_positions(valid_y, m)
                .map(|yv| (lyf.eval(by, yv, m), hyf.eval(by, yv, m)))
                .collect();
            ys.sort_unstable();
            // Feature values live in 0..=m (lower bounds clamp to m).
            let mut fen = Fenwick::new(m as usize + 1);
            let mut yi = 0usize;
            let mut total = 0u64;
            for &(hx, lx) in &xs {
                while yi < ys.len() && ys[yi].0 <= hx {
                    fen.add(ys[yi].1 as usize, 1);
                    yi += 1;
                }
                total += fen.range(lx, m); // inserted ys with hy >= lx
            }
            total
        }
        (Some((lxf, hyf)), None) => {
            let mut hys: Vec<u64> = valid_positions(valid_y, m)
                .map(|yv| hyf.eval(by, yv, m))
                .collect();
            hys.sort_unstable();
            valid_positions(valid_x, m)
                .map(|xv| {
                    let lx = lxf.eval(bx, xv, m);
                    (hys.len() - hys.partition_point(|&hy| hy < lx)) as u64
                })
                .sum()
        }
        (None, Some((lyf, hxf))) => {
            let mut lys: Vec<u64> = valid_positions(valid_y, m)
                .map(|yv| lyf.eval(by, yv, m))
                .collect();
            lys.sort_unstable();
            valid_positions(valid_x, m)
                .map(|xv| {
                    let hx = hxf.eval(bx, xv, m);
                    lys.partition_point(|&ly| ly <= hx) as u64
                })
                .sum()
        }
        // A component has at least one atom by construction; kept total
        // for safety: unconstrained pairs are a plain product.
        (None, None) => {
            valid_positions(valid_x, m).count() as u64 * valid_positions(valid_y, m).count() as u64
        }
    }
}

/// Counts valid `(x, y, z)` triples of a [`Strategy::Cycle`] in one sweep
/// over `x`; returns the count and the number of `(x, y)` pairs visited.
///
/// Every `x` atom bounds one coordinate's position by a feature of the
/// other, so each `y` and `z` has an `x`-window and each `x` a `y`-range
/// and a `z`-range. A `z` sits in a Fenwick over its key (the `yz` sweep's
/// key attribute) exactly while the sweep is inside its `x`-window. A `y`
/// is *admitted* while the sweep is inside its own `x`-window and inside
/// the hull of the `x`-windows of the `z`s its key range reaches: hulls
/// over key prefixes and suffixes bound that hull from outside, so no `y`
/// that could close a cycle is ever missed. Per valid `x`, the sweep walks
/// the admitted `y`s in `x`'s `y`-range and adds the Fenwick count of `z`s
/// in `y`'s key range cut by `x`'s `z`-range.
///
/// Real runs make the windows narrow bands around each position, so the
/// walk visits a few `y`s per `x`; adversarial buffers can make it visit
/// all `m^2` pairs, which is the `O(m^2 log m)` worst case.
fn count_cycle(
    x: usize,
    atoms: &[Atom],
    yz: &Sweep,
    bufs: &[&[u64]],
    [valid_x, valid_y, valid_z]: [&[bool]; 3],
    m: u64,
) -> (u64, u64) {
    let (y, z) = (yz.s, yz.o);
    let (bx, by, bz) = (bufs[x], bufs[y], bufs[z]);
    // Each atom's bound, by the coordinate its feature is on.
    let (mut x_y, mut x_z, mut y_x, mut z_x) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for a in atoms {
        let (is_lower, fc, f) = a.role();
        let ident = if fc == a.ac { a.bc } else { a.ac };
        let list = if fc == y {
            &mut y_x
        } else if fc == z {
            &mut z_x
        } else if ident == y {
            &mut x_y
        } else {
            &mut x_z
        };
        list.push((is_lower, f));
    }
    let full = (0, m - 1);
    let never = (u64::MAX, 0); // empty, and the identity of `hull`
    let hull = |(a, b): (u64, u64), (c, d): (u64, u64)| (a.min(c), b.max(d));
    let key = |zv: usize| yz.key.eval(bz, zv as u64, m) as usize;

    // Each z's x-window; invalid zs and empty windows never enter.
    let zwin: Vec<(u64, u64)> = (0..m)
        .map(|zv| match window(&z_x, bz, zv, m, full) {
            (c, d) if c <= d && valid_z[zv as usize] => (c, d),
            _ => never,
        })
        .collect();
    // Each y's key range (keys live in 0..=m), and the x-window in which
    // it can close a cycle: every key of e..=f lies in the prefix to f and
    // in the suffix from e, so both hulls of z windows bound it. One hull
    // array lives at a time.
    let krange = |yv: u64| window(&yz.bounds, by, yv, m, (0, m));
    let hulls = |suffix: bool| {
        let mut h = vec![never; m as usize + 1];
        for (zv, &w) in zwin.iter().enumerate() {
            h[key(zv)] = hull(h[key(zv)], w);
        }
        for i in 1..=m as usize {
            let (to, from) = if suffix {
                (m as usize - i, m as usize - i + 1)
            } else {
                (i, i - 1)
            };
            h[to] = hull(h[to], h[from]);
        }
        h
    };
    let pre = hulls(false);
    let mut ywin: Vec<(u64, u64)> = (0..m)
        .map(|yv| match krange(yv) {
            (e, f) if e <= f && valid_y[yv as usize] => window(&y_x, by, yv, m, pre[f as usize]),
            _ => never,
        })
        .collect();
    drop(pre);
    let suf = hulls(true);
    for (yv, w) in ywin.iter_mut().enumerate() {
        if w.0 <= w.1 {
            let (c, d) = suf[krange(yv as u64).0 as usize];
            *w = (w.0.max(c), w.1.min(d));
        }
    }
    drop(suf);

    // Enter/leave orders of the zs and ys with a non-empty window.
    let by_edges = |win: &[(u64, u64)]| {
        let mut enter: Vec<usize> = (0..win.len()).filter(|&i| win[i].0 <= win[i].1).collect();
        let mut leave = enter.clone();
        enter.sort_unstable_by_key(|&i| win[i].0);
        leave.sort_unstable_by_key(|&i| win[i].1);
        (enter, leave)
    };
    let (z_in, z_out) = by_edges(&zwin);
    let (y_in, y_out) = by_edges(&ywin);

    let mut fen = Fenwick::new(m as usize + 1);
    let mut admitted = std::collections::BTreeSet::new();
    let (mut zi, mut zo, mut yi, mut yo) = (0usize, 0usize, 0usize, 0usize);
    let (mut total, mut visited) = (0u64, 0u64);
    for xv in 0..m {
        while zi < z_in.len() && zwin[z_in[zi]].0 <= xv {
            fen.add(key(z_in[zi]), 1);
            zi += 1;
        }
        while zo < z_out.len() && zwin[z_out[zo]].1 < xv {
            fen.add(key(z_out[zo]), -1);
            zo += 1;
        }
        while yi < y_in.len() && ywin[y_in[yi]].0 <= xv {
            admitted.insert(y_in[yi]);
            yi += 1;
        }
        while yo < y_out.len() && ywin[y_out[yo]].1 < xv {
            admitted.remove(&y_out[yo]);
            yo += 1;
        }
        if !valid_x[xv as usize] {
            continue;
        }
        let (ya, yb) = window(&x_y, bx, xv, m, full);
        // Non-empty only when the key is the z position (classify_triple).
        let (za, zb) = window(&x_z, bx, xv, m, (0, m));
        if ya > yb || za > zb {
            continue;
        }
        for &yv in admitted.range(ya as usize..=yb as usize) {
            let (e, f) = krange(yv as u64);
            total += fen.range(e.max(za), f.min(zb));
            visited += 1;
        }
    }
    (total, visited)
}

/// Counts one component; returns its count and the work it did (the rf
/// analogue of "frames examined"): one unit per position of each sweep
/// (singletons `m`, pairs one sweep per side, paths two pair sweeps) plus,
/// for cycles, one per `(x, y)` pair visited. Deterministic.
fn count_component(strat: &Strategy, plan: &Plan, bufs: &[&[u64]], m: u64) -> (u64, u64) {
    let valid = |c: usize| coord_valid(&plan.unaries[c], bufs[c], m);
    match strat {
        Strategy::Single { c } => (valid(*c).iter().filter(|&&v| v).count() as u64, m),
        Strategy::PairSweep(sw) => {
            let mut total = 0u64;
            count_pair_sweep(sw, bufs, &valid(sw.s), &valid(sw.o), m, |_, n| total += n);
            (total, 2 * m)
        }
        Strategy::PairDominance { x, y, lx_hy, ly_hx } => {
            let (vx, vy) = (valid(*x), valid(*y));
            let n = count_pair_dominance(*lx_hy, *ly_hx, (bufs[*x], bufs[*y]), &vx, &vy, m);
            (n, 2 * m)
        }
        Strategy::Path([a, b]) => {
            let vs = valid(a.s);
            let mut partners = vec![0u64; m as usize];
            count_pair_sweep(a, bufs, &vs, &valid(a.o), m, |sv, n| {
                partners[sv as usize] = n
            });
            let mut total = 0u64;
            count_pair_sweep(b, bufs, &vs, &valid(b.o), m, |sv, n| {
                total = total.saturating_add(n.saturating_mul(partners[sv as usize]))
            });
            (total, 4 * m)
        }
        Strategy::Cycle { x, atoms, yz } => {
            let (vx, vy, vz) = (valid(*x), valid(yz.s), valid(yz.o));
            let (n, visited) = count_cycle(*x, atoms, yz, bufs, [&vx, &vy, &vz], m);
            (n, m.saturating_add(visited))
        }
    }
}

/// Reads-from edges walked per component: each atom's feature array is
/// scanned once per admitted iteration.
fn component_edges(s: &Strategy, m: u64) -> u64 {
    let sweep_atoms = |sw: &Sweep| sw.activity.len() + sw.bounds.len();
    let atoms = match s {
        Strategy::Single { .. } => 0,
        Strategy::PairSweep(sw) => sweep_atoms(sw),
        Strategy::Path([a, b]) => sweep_atoms(a) + sweep_atoms(b),
        Strategy::Cycle { atoms, yz, .. } => atoms.len() + sweep_atoms(yz),
        Strategy::PairDominance { lx_hy, ly_hx, .. } => {
            usize::from(lx_hy.is_some()) + usize::from(ly_hx.is_some())
        }
    };
    (atoms as u64).saturating_mul(m)
}

/// Sizes the admitted iteration prefix under a budget: iterations are
/// admitted in [`RF_POLL_INTERVAL`] blocks while the budget lasts. With a
/// poll-limit budget the prefix is exactly `min(n, polls * 1024)` on
/// every machine; the subsequent (cheap, polynomial) closure runs
/// unbudgeted over the prefix.
fn admitted_prefix(n: u64, budget: &Budget) -> (u64, bool) {
    let mut m = 0u64;
    while m < n {
        if budget.expired() {
            return (m, true);
        }
        m = (m + RF_POLL_INTERVAL).min(n);
    }
    (m, false)
}

/// [`Counter`] implementing the polynomial reads-from closure count; see
/// the module docs for the algorithm, the fallback rules, and the policy
/// fields' semantics.
#[derive(Debug, Clone, Copy)]
pub struct RfCounter<'a> {
    outcome: &'a PerpetualOutcome,
}

impl<'a> RfCounter<'a> {
    /// A counter for `outcome`.
    pub fn single(outcome: &'a PerpetualOutcome) -> Self {
        Self { outcome }
    }
}

impl Counter for RfCounter<'_> {
    fn scan(&self, req: &CountRequest<'_>) -> CountResult {
        let tl = req.bufs.len();
        let plan = compile(self.outcome, tl);
        let Some(strats) = strategies(&plan, tl) else {
            // Outside the polynomial fragment: run the exhaustive scan
            // ExhaustiveCounter runs, frame cap and budget included, and
            // record the downgrade.
            obs_metrics::add(Metric::CountRfFallbacks, 1);
            let mut r = exhaustive_scan(self.outcome, req);
            r.downgraded = true;
            return r;
        };

        let start = Instant::now();
        let (m, budget_expired) = match req.budget {
            Some(budget) => admitted_prefix(req.n, budget),
            None => (req.n, false),
        };

        // Components are independent by construction, so the outcome's
        // count is the product of its components' counts.
        let mut count = 0u64;
        let mut frames: u64 = 0;
        let mut edges: u64 = 0;
        if m > 0 && !plan.infeasible {
            count = 1;
            for s in &strats {
                let (n, work) = count_component(s, &plan, req.bufs, m);
                count = count.saturating_mul(n);
                frames = frames.saturating_add(work);
                edges = edges.saturating_add(component_edges(s, m));
            }
        }

        obs_metrics::add(Metric::CountRfEdgesWalked, edges);
        obs_metrics::add(Metric::CountRfClosureSteps, frames);

        CountResult {
            counts: vec![count],
            frames_examined: frames,
            wall: start.elapsed(),
            truncated: false,
            budget_expired,
            downgraded: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::ExhaustiveCounter;
    use perple_convert::Conversion;
    use perple_model::suite;

    /// Deterministic garbage buffers with the run layout (`rpi * n`
    /// values per load thread): arbitrary values exercising decode
    /// successes, decode failures, and stale/fresh fr thresholds.
    fn synthetic_bufs(conv: &Conversion, n: u64, salt: u64) -> Vec<Vec<u64>> {
        let perp = &conv.perpetual;
        perp.load_threads()
            .iter()
            .enumerate()
            .map(|(pos, t)| {
                let rpi = perp.reads_per_thread()[t.index()] as u64;
                (0..n * rpi)
                    .map(|i| {
                        let mut h = i
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(salt ^ (pos as u64).wrapping_mul(0xABCD));
                        h ^= h >> 33;
                        h % (3 * n + 7)
                    })
                    .collect()
            })
            .collect()
    }

    /// The corpus-coverage proof for the production counting path: every
    /// convertible test's *target* outcome compiles into the polynomial
    /// fragment (no fallback), and the counts match the exhaustive scan
    /// exactly on adversarial synthetic buffers.
    #[test]
    fn no_target_outcome_needs_the_fallback() {
        let n = 24u64;
        for test in suite::convertible() {
            let conv = Conversion::convert(&test).unwrap();
            let owned = synthetic_bufs(&conv, n, 0xBEEF);
            let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
            let req = CountRequest::new(&bufs, n);
            let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
            assert!(!rf.downgraded, "{} fell back to exhaustive", test.name());
            let exh = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
            assert_eq!(rf.counts, exh.counts, "{} counts differ", test.name());
        }
    }

    /// Every outcome of every convertible test, counted on pure garbage
    /// buffers: bit-equal counts corpus-wide,
    /// with the fallback set pinned — exactly the five tests whose
    /// multi-variable existential outcomes yield two independent
    /// data-data constraints in one orientation (a 3-D dominance problem
    /// the fragment deliberately excludes). Growing this set is a
    /// regression; shrinking it means the fragment widened — update the
    /// module docs too.
    #[test]
    fn every_outcome_counted_individually_matches_exhaustive() {
        let n = 16u64;
        let mut fell_back: Vec<String> = Vec::new();
        for test in suite::convertible() {
            let conv = Conversion::convert(&test).unwrap();
            let all = conv.all_outcomes(&test);
            let owned = synthetic_bufs(&conv, n, 0xBEEF);
            let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
            let req = CountRequest::new(&bufs, n);
            let mut test_fell_back = false;
            for (o, _) in &all {
                let rf = RfCounter::single(o).count(&req);
                let exh = ExhaustiveCounter::single(o).count(&req);
                assert_eq!(
                    rf.counts,
                    exh.counts,
                    "{} outcome {:?} counts differ",
                    test.name(),
                    o.label()
                );
                test_fell_back |= rf.downgraded;
            }
            if test_fell_back {
                fell_back.push(test.name().to_string());
            }
        }
        fell_back.sort_unstable();
        assert_eq!(
            fell_back,
            ["co-iriw", "iriw", "rfi015", "safe012", "safe027"],
            "the out-of-fragment set changed"
        );
    }

    #[test]
    fn rf_matches_exhaustive_per_outcome_across_salts() {
        for (name, n) in [("sb", 40u64), ("wrc", 24), ("podwr001", 14), ("mp", 48)] {
            let test = suite::by_name(name).unwrap();
            let conv = Conversion::convert(&test).unwrap();
            let all = conv.all_outcomes(&test);
            for salt in 0..6u64 {
                let owned = synthetic_bufs(&conv, n, salt);
                let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
                let req = CountRequest::new(&bufs, n);
                for (o, _) in &all {
                    let rf = RfCounter::single(o).count(&req);
                    let exh = ExhaustiveCounter::single(o).count(&req);
                    assert_eq!(rf.counts, exh.counts, "{name} salt {salt} {:?}", o.label());
                    assert!(!rf.downgraded, "{name} {:?}", o.label());
                }
            }
        }
    }

    #[test]
    fn target_counts_are_polynomial_and_repeatable() {
        for name in ["sb", "iriw", "podwr001"] {
            let test = suite::by_name(name).unwrap();
            let conv = Conversion::convert(&test).unwrap();
            let n = 20u64;
            let owned = synthetic_bufs(&conv, n, 7);
            let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
            let counter = RfCounter::single(&conv.target_exhaustive);
            let first = counter.count(&CountRequest::new(&bufs, n));
            assert!(!first.downgraded, "{name}");
            let again = counter.count(&CountRequest::new(&bufs, n));
            assert_eq!(first.counts, again.counts, "{name}");
            assert_eq!(first.frames_examined, again.frames_examined, "{name}");
        }
    }

    #[test]
    fn triple_work_model_beats_the_cubic_frame_space() {
        // The acceptance criterion's shape: a T_L = 3 test at N >= 100
        // must examine >= 10x fewer frames than the exhaustive scan.
        let test = suite::by_name("podwr001").unwrap();
        let conv = Conversion::convert(&test).unwrap();
        let n = 100u64;
        let owned = synthetic_bufs(&conv, n, 3);
        let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
        let req = CountRequest::new(&bufs, n);
        let rf = RfCounter::single(&conv.target_exhaustive).count(&req);
        let exh = ExhaustiveCounter::single(&conv.target_exhaustive).count(&req);
        assert_eq!(rf.counts, exh.counts);
        assert_eq!(exh.frames_examined, n * n * n);
        assert!(
            rf.frames_examined * 10 <= exh.frames_examined,
            "rf {} vs exhaustive {}",
            rf.frames_examined,
            exh.frames_examined
        );
        // One sweep over x plus the visited pairs, within the documented
        // `m + m^2` bound.
        assert!((n..=n + n * n).contains(&rf.frames_examined));
    }

    /// The shape of every outcome's plan among `outcomes`: one `"path"`,
    /// `"cycle"` (position key) or `"keyed cycle"` component, `"split"`
    /// into smaller components, or `"none"` (the fallback).
    fn triple_kinds<'o>(
        outcomes: impl IntoIterator<Item = &'o PerpetualOutcome>,
    ) -> std::collections::BTreeSet<&'static str> {
        outcomes
            .into_iter()
            .map(|o| {
                let plan = compile(o, 3);
                match strategies(&plan, 3).as_deref() {
                    Some([Strategy::Path(_)]) => "path",
                    Some([Strategy::Cycle { yz, .. }]) if yz.key == Feat::Identity => "cycle",
                    Some([Strategy::Cycle { .. }]) => "keyed cycle",
                    Some(_) => "split",
                    None => "none",
                }
            })
            .collect()
    }

    #[test]
    fn three_coordinate_components_classify_as_paths_and_cycles() {
        for name in ["podwr001", "safe007"] {
            let conv = Conversion::convert(&suite::by_name(name).unwrap()).unwrap();
            assert_eq!(
                triple_kinds([&conv.target_exhaustive]),
                ["cycle"].into(),
                "{name}"
            );
        }
        let generated: Vec<_> = perple_model::generate::generate_corpus(6, 4)
            .into_iter()
            .filter_map(|t| Conversion::convert(&t).ok().map(|c| (t, c)))
            .filter(|(_, c)| c.perpetual.load_thread_count() == 3)
            .collect();
        let targets = triple_kinds(generated.iter().map(|(_, c)| &c.target_exhaustive));
        assert_eq!(targets, ["cycle", "path"].into());
        let all: Vec<PerpetualOutcome> = generated
            .iter()
            .flat_map(|(t, c)| c.all_outcomes(t))
            .map(|(o, _)| o)
            .collect();
        assert_eq!(
            triple_kinds(&all),
            ["cycle", "keyed cycle", "none", "path", "split"].into()
        );
    }

    #[test]
    fn budget_admits_a_provable_iteration_prefix() {
        let test = suite::sb();
        let conv = Conversion::convert(&test).unwrap();
        let n = 3000u64;
        let owned = synthetic_bufs(&conv, n, 9);
        let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
        let budget = Budget::with_poll_limit(1);
        let part = RfCounter::single(&conv.target_exhaustive)
            .count(&CountRequest::new(&bufs, n).with_budget(&budget));
        assert!(part.budget_expired);
        // The truncated result equals the full count at n = 1024: same
        // buffers, iteration window shrunk to the admitted prefix.
        let prefix = RfCounter::single(&conv.target_exhaustive)
            .count(&CountRequest::new(&bufs, RF_POLL_INTERVAL));
        assert!(!prefix.budget_expired);
        assert_eq!(part.counts, prefix.counts);
        assert_eq!(part.frames_examined, prefix.frames_examined);
        // And an exhausted budget admits nothing.
        let dead = Budget::with_poll_limit(0);
        let zero = RfCounter::single(&conv.target_exhaustive)
            .count(&CountRequest::new(&bufs, n).with_budget(&dead));
        assert!(zero.budget_expired);
        assert_eq!(zero.counts, [0]);
        assert_eq!(zero.frames_examined, 0);
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let test = suite::sb();
        let conv = Conversion::convert(&test).unwrap();
        let n = 64u64;
        let owned = synthetic_bufs(&conv, n, 4);
        let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
        let plain = RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&bufs, n));
        let budget = Budget::unlimited();
        let budgeted = RfCounter::single(&conv.target_exhaustive)
            .count(&CountRequest::new(&bufs, n).with_budget(&budget));
        assert_eq!(plain.counts, budgeted.counts);
        assert!(!budgeted.budget_expired);
    }

    #[test]
    fn zero_iterations_are_degenerate() {
        let test = suite::sb();
        let conv = Conversion::convert(&test).unwrap();
        let bufs: Vec<&[u64]> = vec![&[], &[]];
        let r = RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&bufs, 0));
        assert_eq!(r.counts, [0]);
        assert_eq!(r.frames_examined, 0);
    }

    #[test]
    fn counting_feeds_the_rf_metrics() {
        let test = suite::by_name("podwr001").unwrap();
        let conv = Conversion::convert(&test).unwrap();
        let n = 16u64;
        let owned = synthetic_bufs(&conv, n, 1);
        let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
        let before = perple_obs::metrics::snapshot();
        let r = RfCounter::single(&conv.target_exhaustive).count(&CountRequest::new(&bufs, n));
        let delta = perple_obs::metrics::snapshot().delta_from(&before);
        assert!(delta.get("count_rf_closure_steps") >= r.frames_examined);
        assert!(delta.get("count_rf_edges_walked") > 0);
        assert_eq!(delta.get("count_rf_fallbacks"), 0);
    }

    /// Every shape three coordinates can take from the atom kinds below,
    /// counted through `strategies` + `count_component` and checked
    /// against a direct triple loop over the atoms themselves. The corpus
    /// only produces directed cycles; this also reaches the orientations
    /// where `y` bounds `x`, two-sided windows and data-data pairs.
    #[test]
    fn every_three_coordinate_shape_matches_a_direct_frame_loop() {
        let lo = Feat::FrLb {
            k: 1,
            a: 0,
            rpi: 1,
            slot: 0,
        };
        let hi = Feat::Dec {
            k: 1,
            a: 0,
            rpi: 1,
            slot: 0,
        };
        let id = Feat::Identity;
        let atom = |ac, af, bc, bf| Atom { ac, af, bc, bf };
        // The atom sets one pair (u, v) can carry.
        let options = |u: usize, v: usize| -> Vec<Vec<Atom>> {
            vec![
                vec![],
                vec![atom(u, lo, v, id)],
                vec![atom(v, id, u, hi)],
                vec![atom(v, lo, u, id)],
                vec![atom(u, id, v, hi)],
                vec![atom(u, lo, v, id), atom(v, id, u, hi)],
                vec![atom(u, lo, v, hi)],
                vec![atom(v, lo, u, hi)],
            ]
        };
        let m = 10u64;
        let banded: Vec<Vec<u64>> = (0..3u64)
            .map(|c| {
                (0..m)
                    .map(|i| (i + (i * 7 + c * 3) % 5).saturating_sub(2))
                    .collect()
            })
            .collect();
        let garbage: Vec<Vec<u64>> = (0..3u64)
            .map(|c| (0..m).map(|i| (i * 13 + c * 5 + i * i) % (m + 3)).collect())
            .collect();
        let (mut counted, mut single_sided) = (0, 0);
        for (i, a01) in options(0, 1).into_iter().enumerate() {
            for (j, a02) in options(0, 2).into_iter().enumerate() {
                for (k, a12) in options(1, 2).into_iter().enumerate() {
                    let plan = Plan {
                        infeasible: false,
                        unaries: vec![Vec::new(); 3],
                        atoms: [a01.clone(), a02.clone(), a12].concat(),
                    };
                    let Some(strats) = strategies(&plan, 3) else {
                        assert!(
                            [i, j, k].iter().any(|&o| o == 0 || o > 5),
                            "shape {i}{j}{k} fell out of the fragment"
                        );
                        continue;
                    };
                    counted += 1;
                    single_sided += usize::from([i, j, k].iter().all(|&o| (1..=5).contains(&o)));
                    for owned in [&banded, &garbage] {
                        let bufs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
                        let fast: u64 = strats
                            .iter()
                            .map(|s| count_component(s, &plan, &bufs, m).0)
                            .product();
                        let mut slow = 0u64;
                        for f in (0..m * m * m).map(|n| [n % m, n / m % m, n / (m * m)]) {
                            slow += u64::from(plan.atoms.iter().all(|a| {
                                a.af.eval(bufs[a.ac], f[a.ac], m)
                                    <= a.bf.eval(bufs[a.bc], f[a.bc], m)
                            }));
                        }
                        assert_eq!(fast, slow, "shape {i}{j}{k}");
                    }
                }
            }
        }
        assert_eq!(single_sided, 125, "every single-sided shape is counted");
        assert!(counted > 300, "{counted} shapes counted");
    }

    #[test]
    fn the_fenwick_tree_counts_interval_sums() {
        let mut f = Fenwick::new(8);
        f.add(0, 1);
        f.add(3, 2);
        f.add(7, 1);
        assert_eq!(f.range(0, 7), 4);
        assert_eq!(f.range(1, 3), 2);
        assert_eq!(f.range(4, 6), 0);
        assert_eq!(f.range(5, 2), 0, "empty interval");
        f.add(3, -2);
        assert_eq!(f.range(0, 7), 2);
    }
}
