"""Unit and differential tests for the CDCL clause machinery.

Three layers, matching :mod:`repro.core.clauses`:

* :func:`one_uip` — pure conflict resolution; pinned on hand-built
  implication graphs and fuzzed for its structural invariants (exactly
  one literal at the conflict level, correct assertion level, level-0
  conflicts collapse to an objective core);
* :class:`CdclRefuter` — every completed refutation must be *sound*:
  the chronological CTRLJUST search fails the same question, and the
  reported core is a subset of the objectives that is itself refutable;
* :class:`ClauseDB` — subset (subsumption) lookup, idempotent insert
  and deterministic eviction.

The deadline-taint rule for blame no-goods (enforced centrally in
``LearnedNogoods.record_blame``) gets its regression test here too.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clauses import CdclRefuter, ClauseDB, one_uip
from repro.core.ctrljust import CtrlJust, JustStatus
from repro.core.nogoods import LearnedNogoods, blame_key
from repro.mini.machine import build_minipipe

N_FRAMES = 4


@pytest.fixture(scope="module")
def mini():
    return build_minipipe()


@pytest.fixture(scope="module")
def unrolled(mini):
    return mini.controller.unroll(N_FRAMES)


# ----------------------------------------------------------------------
# one_uip: pinned examples
# ----------------------------------------------------------------------
def test_one_uip_keeps_single_literal_at_conflict_level():
    # Level 1 decision (var 1), level 2 decision (var 2) forcing var 3;
    # the conflict mentions 1 and 3.  Var 3 is already the only literal
    # at the conflict level, so it is the UIP and no resolution runs.
    level_of = {1: 1, 2: 2, 3: 2}
    pos_of = {1: 0, 2: 1, 3: 2}
    reason_of = {1: None, 2: None, 3: (((2, 0),), frozenset())}
    learned, obj, assertion = one_uip(
        {1: 0, 3: 1}, {(9, 1)}, level_of, pos_of, reason_of
    )
    assert learned == ((1, 0), (3, 1))  # (level, pos)-sorted, UIP last
    assert obj == frozenset({(9, 1)})
    assert assertion == 1


def test_one_uip_resolves_forced_literal_to_its_reason():
    # Vars 2 (decision) and 3 (forced by 2, importing objective (8, 1))
    # both sit at the conflict level: 3 resolves away, leaving the
    # decision as the UIP and folding 3's reason objective into the cut.
    level_of = {2: 2, 3: 2}
    pos_of = {2: 1, 3: 2}
    reason_of = {2: None, 3: (((2, 0),), frozenset({(8, 1)}))}
    learned, obj, assertion = one_uip(
        {2: 0, 3: 1}, {(9, 1)}, level_of, pos_of, reason_of
    )
    assert learned == ((2, 0),)
    assert obj == frozenset({(8, 1), (9, 1)})
    assert assertion == 0


def test_one_uip_level0_conflict_yields_objective_core():
    # Every conflict literal is forced at level 0, so resolution runs to
    # the empty external set and returns an unsat core of assumptions.
    level_of = {1: 0}
    pos_of = {1: 0}
    reason_of = {1: ((), frozenset({(5, 1)}))}
    learned, obj, assertion = one_uip(
        {1: 1}, {(6, 0)}, level_of, pos_of, reason_of
    )
    assert learned == ()
    assert obj == frozenset({(5, 1), (6, 0)})
    assert assertion == 0


def test_one_uip_pure_objective_conflict():
    learned, obj, assertion = one_uip({}, {(7, 1), (8, 0)}, {}, {}, {})
    assert learned == ()
    assert obj == frozenset({(7, 1), (8, 0)})
    assert assertion == 0


# ----------------------------------------------------------------------
# one_uip: fuzzed structural invariants
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_one_uip_invariants(data):
    """Random trails: the cut is 1-UIP and asserting by construction."""
    level_of: dict[int, int] = {}
    pos_of: dict[int, int] = {}
    reason_of: dict[int, tuple | None] = {}
    trail: list[int] = []
    var = 0
    for level in range(data.draw(st.integers(1, 4)) + 1):
        for k in range(data.draw(st.integers(0 if level else 1, 3))):
            var += 1
            level_of[var] = level
            pos_of[var] = len(trail)
            if level > 0 and k == 0:
                reason_of[var] = None  # the level's decision
            else:
                # Forced: antecedents only from earlier trail positions.
                ante = data.draw(st.lists(
                    st.sampled_from(trail), max_size=2, unique=True,
                )) if trail else []
                obj = (
                    frozenset({(100 + data.draw(st.integers(0, 3)), 1)})
                    if data.draw(st.booleans()) else frozenset()
                )
                reason_of[var] = (tuple((a, 0) for a in ante), obj)
            trail.append(var)
    conflict_vars = data.draw(st.lists(
        st.sampled_from(trail), min_size=1, max_size=4, unique=True,
    ))
    ext = {v: 0 for v in conflict_vars}
    obj0 = frozenset({(200, 1)})
    learned, obj, assertion = one_uip(ext, obj0, level_of, pos_of,
                                      reason_of)
    assert obj0 <= obj  # resolution only ever adds assumptions
    conflict_level = max(level_of[v] for v in ext)
    if conflict_level == 0:
        assert learned == () and assertion == 0
        return
    levels = [level_of[v] for v, _ in learned]
    # Exactly one literal at the conflict level: the UIP.
    assert levels.count(conflict_level) == 1
    assert all(lv <= conflict_level for lv in levels)
    assert assertion == max(
        (lv for lv in levels if lv < conflict_level), default=0
    )
    assert assertion < conflict_level
    # Sorted (level, pos): the UIP is the last entry.
    keys = [(level_of[v], pos_of[v]) for v, _ in learned]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# CdclRefuter: soundness against the chronological oracle
# ----------------------------------------------------------------------
def _ctrl_objective_space(mini, unrolled):
    """All (instance, value) ctrl-signal literals at frame 1."""
    compiled = unrolled.network.compiled()
    out = []
    for name in mini.controller.ctrl_signals:
        inst = unrolled.instance(1, name)
        for value in compiled.domains[compiled.index[inst]]:
            out.append((inst, value))
    return out


def test_refuter_proofs_match_chronological_failures(mini, unrolled):
    """Every completed refutation is a question CTRLJUST also fails,
    and the reported core is an unjustifiable objective subset."""
    space = _ctrl_objective_space(mini, unrolled)
    singles = [
        lit for lit in space
        if CdclRefuter(unrolled.network, [lit], conflict_limit=64)
        .run().refuted
    ]
    assert singles  # MiniPipe has singleton-unjustifiable ctrl literals
    refuted = [[lit] for lit in singles]
    for pair in itertools.combinations(space, 2):
        if pair[0][0] == pair[1][0]:
            continue  # same instance twice is not a well-formed question
        result = CdclRefuter(
            unrolled.network, list(pair), conflict_limit=64,
        ).run()
        if result.refuted:
            assert set(result.core) <= set(pair)
            refuted.append(list(pair))
    assert len(refuted) > len(singles)  # pair-level conflicts exist too
    for objectives in refuted[:6]:
        chrono = CtrlJust(unrolled).justify(objectives)
        assert chrono.status is JustStatus.FAILURE
        assert not chrono.deadline_hit


def test_refuter_never_refutes_a_justifiable_question(mini, unrolled):
    """SAT questions fall through: the probe reports nothing to refute,
    and the chronological search still succeeds after the probe."""
    space = _ctrl_objective_space(mini, unrolled)
    checked = 0
    for lit in space:
        chrono = CtrlJust(unrolled).justify([lit])
        refutation = CdclRefuter(
            unrolled.network, [lit], conflict_limit=400,
        ).run()
        if chrono.status is JustStatus.SUCCESS:
            assert not refutation.refuted, lit
            checked += 1
        # The full pipeline (probe + search) agrees with the oracle.
        piped = CtrlJust(unrolled, refute_conflicts=400).justify([lit])
        assert piped.status is chrono.status
    assert checked > 0


def test_refuter_core_seeds_clause_db_for_supersets(mini, unrolled):
    """A refuted core certifies every superset question in the window."""
    space = _ctrl_objective_space(mini, unrolled)
    lit = next(
        lit for lit in space
        if CdclRefuter(unrolled.network, [lit], conflict_limit=64)
        .run().refuted
    )
    result = CdclRefuter(unrolled.network, [lit], conflict_limit=64).run()
    db = ClauseDB()
    frame_items = tuple(
        ((1, inst.split(":", 1)[1]), value) for inst, value in result.core
    )
    assert db.add(N_FRAMES, frame_items, lbd=result.lbd)
    other = ((2, "unrelated"), 1)
    assert db.lookup(N_FRAMES, frame_items + (other,)) == frozenset(
        frame_items
    )


# ----------------------------------------------------------------------
# ClauseDB: subsumption lookup and eviction
# ----------------------------------------------------------------------
def test_clause_db_subsumption_and_idempotence():
    db = ClauseDB()
    ab = (((0, "a"), 1), ((1, "b"), 0))
    assert db.add(4, ab, lbd=2) is True
    assert db.add(4, ab, lbd=2) is False  # idempotent
    superset = ab + (((2, "c"), 1),)
    assert db.lookup(4, superset) == frozenset(ab)
    assert db.lookup(5, superset) is None  # window size is part of the key
    assert db.lookup(4, ab[:1]) is None  # proper subsets never match
    assert db.stats() == {
        "hits": 1, "misses": 2, "records": 1, "added": 1, "evicted": 0,
    }
    assert db.add(4, (), lbd=1) is False  # empty certificates are refused


def test_clause_db_eviction_drops_worst_lbd_first():
    db = ClauseDB(max_certs=2)
    keep_small = (((0, "a"), 1),)
    keep_good = (((0, "a"), 1), ((1, "b"), 0))
    drop = (((3, "d"), 1), ((4, "e"), 0), ((5, "f"), 1))
    assert db.add(4, keep_good, lbd=2)
    assert db.add(4, keep_small, lbd=1)
    assert db.add(4, drop, lbd=3)  # over capacity: worst (lbd, size) goes
    assert len(db) == 2 and db.evicted == 1
    assert db.lookup(4, drop) is None
    assert db.lookup(4, keep_good) == frozenset(keep_good)
    assert db.lookup(4, keep_small) == frozenset(keep_small)


# ----------------------------------------------------------------------
# Satellite regression: deadline taint is enforced inside record_blame
# ----------------------------------------------------------------------
def test_record_blame_taint_rule_is_centralized():
    items = (((1, "alu_op"), 1),)
    key = blame_key(4, items, items, set(), 0, (2000, 500))
    store = LearnedNogoods()
    store.record_blame(key, [items[0]], 42, cdcl=(1, 1, 0, 0, 1),
                       deadline_hit=True)
    assert store.lookup_blame(key) is None  # tainted: nothing stored
    store.record_blame(key, [items[0]], 42, cdcl=(1, 1, 0, 0, 1))
    assert store.lookup_blame(key) == ((items[0],), 42, (1, 1, 0, 0, 1))
