"""Conflict-driven clause learning for CTRLJUST: refute, don't exhaust.

The chronological PODEM search in :mod:`repro.core.ctrljust` spends almost
all of its budget on *unjustifiable* objective sets: a doomed window is
only abandoned after the whole variant/backtrack budget (or the per-error
deadline) is burned.  This module adds the standard SAT machinery that
turns those give-ups into millisecond *proofs*:

* :class:`CdclRefuter` — a conflict-driven search over the **external**
  (CPI/STS) signals in the fanin cone of the objectives, run as a
  refutation-first probe before the chronological search.  Objectives are
  level-0 assumptions (driven objectives are cut exactly like CTRLJUST's
  CTI overrides, so the :class:`ImplicationSession` classifies them
  justified/conflicting for free).  Each session conflict is explained by
  walking the implication graph (the session's fixpoint invariant makes
  the graph implicit — see ``ImplicationSession.antecedent_literals``),
  a **1-UIP** conflict no-good is derived (:func:`one_uip`), the search
  **backjumps** to its assertion level, and the clause prunes the rest of
  the run.  A conflict at decision level 0 closes the proof: expanding
  the remaining forced literals yields a subset of the objectives — an
  unsatisfiable **core** — and the question is refuted outright.

* :class:`ClauseDB` — the persistent store of those cores.  A core is an
  *unjustifiability certificate*: any later objective set that contains
  it (same window size, absolute frames) is unjustifiable without any
  search at all, which generalizes the exact-match
  :class:`~repro.core.nogoods.LearnedNogoods` keys to whole families of
  objective supersets.  Certificates are indexed by a witness literal for
  subset lookup, bounded by a deterministic size/LBD eviction policy, and
  kept warm across campaign-service requests (``repro.service.cache``).

Soundness and transparency contract (enforced by differential tests):

* The refuter only ever *fails* a question — a completed UNSAT proof is a
  FAILURE the chronological search would also reach, and SAT or
  budget-exhausted probes fall through to the unchanged chronological
  search.  Detected/aborted outcomes are therefore byte-identical with
  learning on or off; only effort counters move.
* Within one run the refuter is a pure function of the question: learned
  clauses start empty per run and certificates are consulted *before*
  the search, never during it — so whether a question refutes does not
  depend on mutable cross-question state, which keeps the PR-5 no-good
  on/off counter identity intact.
* Deadline-tainted probes (``deadline_hit``) never store certificates,
  mirroring the PathCache taint rule.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from repro.controller.implication import ImplicationSession

#: ((frame, name), value) literals, the cross-run certificate alphabet
#: (same shape as the no-good keys in :mod:`repro.core.nogoods`).
CertItems = tuple[tuple[tuple[int, str], int], ...]


# ----------------------------------------------------------------------
# 1-UIP derivation (pure; unit-tested directly)
# ----------------------------------------------------------------------
def one_uip(ext_lits, obj_lits, level_of, pos_of, reason_of):
    """Resolve a conflicting literal set down to its 1-UIP no-good.

    ``ext_lits`` maps external var id -> assigned value for the conflict's
    external antecedents; ``obj_lits`` is the set of (id, value) objective
    assumptions already implicated.  ``level_of`` / ``pos_of`` give each
    external's decision level and trail position, and ``reason_of`` maps a
    *forced* external to its reason ``(ext_lits_tuple, obj_lits_frozenset)``
    (decisions map to ``None``).

    Returns ``(learned_ext, learned_obj, assertion_level)``:

    * at a conflict level > 0: ``learned_ext`` keeps exactly one literal —
      the first unique implication point — at the conflict level, plus
      every lower-level literal, ordered (level, position);
    * at conflict level 0 every external is forced, so resolution runs to
      the empty external set: ``learned_ext == ()`` and ``learned_obj`` is
      an unsatisfiable **core** of the objective assumptions.
    """
    lits = dict(ext_lits)
    obj = set(obj_lits)
    if not lits:
        return (), frozenset(obj), 0
    conflict_level = max(level_of[v] for v in lits)
    if conflict_level == 0:
        while lits:
            var = max(lits, key=lambda v: pos_of[v])
            r_ext, r_obj = reason_of[var]
            del lits[var]
            obj |= r_obj
            for v, value in r_ext:
                if v != var:
                    lits[v] = value
        return (), frozenset(obj), 0
    while True:
        at_level = [v for v in lits if level_of[v] == conflict_level]
        if len(at_level) <= 1:
            break
        # The decision is first on its level, so with >1 literal at the
        # conflict level the latest one is always forced (has a reason).
        var = max(at_level, key=lambda v: pos_of[v])
        r_ext, r_obj = reason_of[var]
        del lits[var]
        obj |= r_obj
        for v, value in r_ext:
            if v != var and v not in lits:
                lits[v] = value
    learned = tuple(sorted(
        lits.items(), key=lambda kv: (level_of[kv[0]], pos_of[kv[0]])
    ))
    assertion = max(
        (level_of[v] for v in lits if level_of[v] < conflict_level),
        default=0,
    )
    return learned, frozenset(obj), assertion


@dataclass
class Refutation:
    """Outcome of one :class:`CdclRefuter` run."""

    refuted: bool = False
    #: Unsatisfiable subset of the objectives, as (instance, value) pairs;
    #: only set when ``refuted``.
    core: tuple = ()
    #: LBD of the closing conflict (1 for an assumption core).
    lbd: int = 1
    conflicts: int = 0
    learned: int = 0
    backjumps: int = 0
    #: The probe hit the caller's deadline: never learn from it.
    deadline_hit: bool = False


class CdclRefuter:
    """One refutation probe for one CTRLJUST justification question.

    Decision variables are the external signals in the fanin cone of the
    objectives; multi-valued domains are handled by per-variable forbidden
    sets (a learned no-good forbids one value, and when all but one value
    of a domain is forbidden the remainder is forced with the forbidding
    clauses as its combined reason).
    """

    def __init__(
        self,
        network,
        objectives,
        conflict_limit: int = 400,
        deadline: float | None = None,
    ) -> None:
        self.compiled = network.compiled()
        self.objectives = list(objectives)
        self.conflict_limit = conflict_limit
        self.deadline = deadline
        self.session = ImplicationSession(self.compiled)
        index = self.compiled.index
        #: (id, value) objective literals; driven ones are session cuts.
        self.obj_lit_of: dict[int, int] = {}
        self.override_ids: set[int] = set()
        self._obj_ids = [index[inst] for inst, _ in self.objectives]
        # Decision variables: externals in the objectives' fanin cone.
        cone_exts: set[int] = set()
        seen: set[int] = set(self._obj_ids)
        stack = list(self._obj_ids)
        inputs_of = self.compiled.inputs_of
        is_driven = self.compiled.is_driven
        while stack:
            out = stack.pop()
            if is_driven[out]:
                for i in inputs_of[out]:
                    if i not in seen:
                        seen.add(i)
                        stack.append(i)
            else:
                cone_exts.add(out)
        self.decision_vars = sorted(cone_exts)
        # Goal-directed decision order: externals ranked by breadth-first
        # distance from the objectives.  The conflicts that close a
        # refutation live near the objectives, so deciding goal-near
        # variables first concentrates the learned clauses on the core
        # instead of wandering the far end of the cone.
        rank: dict[int, int] = {}
        order = deque(self._obj_ids)
        ranked: set[int] = set(self._obj_ids)
        next_rank = 0
        while order:
            out = order.popleft()
            if is_driven[out]:
                for i in inputs_of[out]:
                    if i not in ranked:
                        ranked.add(i)
                        order.append(i)
            elif out not in rank:
                rank[out] = next_rank
                next_rank += 1
        self._rank = rank
        # Assignment state.
        self.assigns: dict[int, int] = {}
        self.level_of: dict[int, int] = {}
        self.pos_of: dict[int, int] = {}
        self.reason_of: dict[int, tuple | None] = {}
        self._pos = 0
        #: Per level: (assigned var list, applied forbid list).
        self.levels: list[tuple[list[int], list[tuple[int, int]]]] = [
            ([], [])
        ]
        self.forbidden: dict[int, dict[int, tuple]] = {}
        #: Learned within-run clauses as (ext_lits, obj_lits); indexed by
        #: every external variable they mention (evaluate-on-touch).
        self.clauses: list[tuple] = []
        self.watch: dict[int, list[int]] = {}
        self.activity: dict[int, int] = {}
        self.stats = Refutation()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> Refutation:
        conflict = self._assume_objectives()
        while True:
            if conflict is not None:
                self.stats.conflicts += 1
                if self._past_deadline():
                    self.stats.deadline_hit = True
                    return self.stats
                if self.stats.conflicts > self.conflict_limit:
                    return self.stats
                conflict = self._resolve_conflict(conflict)
                if self.stats.refuted:
                    return self.stats
                continue
            if self._satisfied():
                return self.stats  # a model exists: nothing to refute
            var = self._pick_variable()
            if var is None:
                return self.stats  # cannot decide further: give up
            if (
                self.stats.conflicts % 16 == 0
                and self._past_deadline()
            ):
                self.stats.deadline_hit = True
                return self.stats
            value = self._pick_value(var)
            self.levels.append(([], []))
            conflict = self._assign(var, value, None)

    # ------------------------------------------------------------------
    # Level-0 assumptions
    # ------------------------------------------------------------------
    def _assume_objectives(self):
        index = self.compiled.index
        is_driven = self.compiled.is_driven
        for inst, want in self.objectives:
            out = index[inst]
            self.obj_lit_of[out] = want
            if is_driven[out]:
                self.override_ids.add(out)
                self.session.assume(inst, want)
                if self.session.has_conflict:
                    return self._session_conflict()
            else:
                # An external objective is a forced level-0 assignment
                # whose reason is the assumption itself.
                reason = ((), frozenset({(out, want)}))
                conflict = self._assign(out, want, reason)
                if conflict is not None:
                    return conflict
        return None

    # ------------------------------------------------------------------
    # Assignment, clause propagation, forbidden-value forcing
    # ------------------------------------------------------------------
    def _assign(self, var: int, value: int, reason):
        """Assign external ``var``; returns a conflict or ``None``.

        A conflict is ``(ext_lits_dict, obj_lits_set)`` — the no-good that
        just fired.  Propagation is a worklist over the learned clauses
        touching each newly assigned variable; the session's own cone
        propagation runs inside ``assume`` and is checked first.
        """
        pending = [(var, value, reason)]
        while pending:
            var, value, reason = pending.pop()
            if var in self.assigns:
                if self.assigns[var] == value:
                    continue
                # Forced to two different values: both reasons conflict.
                ext = dict(reason[0]) if reason else {}
                ext.pop(var, None)
                prior = self.reason_of.get(var)
                if prior:
                    for v, val in prior[0]:
                        if v != var:
                            ext[v] = val
                obj = set(reason[1]) if reason else set()
                if prior:
                    obj |= prior[1]
                ext[var] = self.assigns[var]
                return ext, obj
            self.assigns[var] = value
            level = len(self.levels) - 1
            self.level_of[var] = level
            self.pos_of[var] = self._pos
            self._pos += 1
            self.reason_of[var] = reason
            self.levels[-1][0].append(var)
            self.session.assume(self.compiled.names[var], value)
            if self.session.has_conflict:
                return self._session_conflict()
            for ci in self.watch.get(var, ()):
                verdict = self._clause_verdict(self.clauses[ci])
                if verdict is None:
                    continue
                kind, payload = verdict
                if kind == "conflict":
                    return payload
                forced = self._forbid(payload[0], payload[1],
                                      self.clauses[ci])
                if forced is None:
                    continue
                if forced[0] == "conflict":
                    return forced[1]
                pending.append(forced[1])
        return None

    def _clause_verdict(self, clause):
        """Evaluate a no-good against the current assignment.

        Returns ``None`` (dormant or can no longer fire), ``("conflict",
        lits)`` when every literal matches, or ``("unit", (var, value))``
        when exactly one external literal is unassigned.
        """
        ext_lits, obj_lits = clause
        unassigned = None
        for var, value in ext_lits:
            got = self.assigns.get(var)
            if got is None:
                if unassigned is not None:
                    return None
                unassigned = (var, value)
            elif got != value:
                return None
        if unassigned is None:
            return "conflict", (dict(ext_lits), set(obj_lits))
        return "unit", unassigned

    def _forbid(self, var: int, value: int, clause):
        """Forbid ``value`` for unassigned ``var`` (no-good ``clause``).

        Returns ``None``, ``("assign", (var, forced_value, reason))`` when
        the domain collapses to one value, or ``("conflict", lits)`` when
        it wipes out.
        """
        got = self.assigns.get(var)
        if got is not None:
            if got == value:
                return "conflict", (dict(clause[0]), set(clause[1]))
            return None
        per_var = self.forbidden.setdefault(var, {})
        if value in per_var:
            return None
        per_var[value] = clause
        self.levels[-1][1].append((var, value))
        allowed = [
            v for v in self.compiled.domains[var] if v not in per_var
        ]
        if allowed and len(allowed) > 1:
            return None
        # Combine the forbidding clauses of every ruled-out value.
        ext: dict[int, int] = {}
        obj: set = set()
        for ruled_out, source in per_var.items():
            for v, val in source[0]:
                if v != var:
                    ext[v] = val
            obj |= source[1]
        if not allowed:
            return "conflict", (ext, obj)
        reason = (tuple(sorted(ext.items())), frozenset(obj))
        return "assign", (var, allowed[0], reason)

    # ------------------------------------------------------------------
    # Conflict analysis and backjumping
    # ------------------------------------------------------------------
    def _session_conflict(self):
        """Explain a session conflict as (ext lits, objective lits).

        The conflicting objective's cone computed a concrete value other
        than the assumption; walking antecedents through the implicit
        implication graph bottoms out at assigned externals and at other
        objective cuts (whose decided value feeds the cone).
        """
        cid = min(self.session.conflicting_ids)
        ext: dict[int, int] = {}
        obj: set = {(cid, self.obj_lit_of[cid])}
        seen: set[int] = set()
        stack = [i for i, _ in self.session.antecedent_literals(cid)]
        values = self.session.values
        is_driven = self.compiled.is_driven
        while stack:
            i = stack.pop()
            if i in seen or values[i] is None:
                continue
            seen.add(i)
            if not is_driven[i]:
                if i in self.assigns:
                    ext[i] = self.assigns[i]
            elif i in self.override_ids:
                obj.add((i, self.obj_lit_of[i]))
            else:
                stack.extend(
                    j for j, _ in self.session.antecedent_literals(i)
                )
        return ext, obj

    def _resolve_conflict(self, conflict):
        """Learn from one conflict; returns a follow-up conflict or None."""
        ext_lits, obj_lits = conflict
        learned_ext, learned_obj, assertion = one_uip(
            ext_lits, obj_lits, self.level_of, self.pos_of, self.reason_of
        )
        if not learned_ext:
            self.stats.refuted = True
            names = self.compiled.names
            self.stats.core = tuple(sorted(
                (names[i], value) for i, value in learned_obj
            ))
            self.stats.lbd = 1
            return None
        levels = {self.level_of[v] for v, _ in learned_ext}
        self.stats.lbd = max(1, len(levels))
        clause = (learned_ext, learned_obj)
        ci = len(self.clauses)
        self.clauses.append(clause)
        self.stats.learned += 1
        for var, _ in learned_ext:
            self.watch.setdefault(var, []).append(ci)
            self.activity[var] = self.activity.get(var, 0) + 1
        conflict_level = len(self.levels) - 1
        if conflict_level - assertion > 1:
            self.stats.backjumps += 1
        self._backjump(assertion)
        # The clause is asserting at its backjump level: every literal but
        # the UIP (the deepest entry of the (level, pos)-sorted clause,
        # unassigned after the jump) still matches — forbid its value now.
        uip_var, uip_value = learned_ext[-1]
        forced = self._forbid(uip_var, uip_value, clause)
        if forced is None:
            return None
        if forced[0] == "conflict":
            return forced[1]
        return self._assign(*forced[1])

    def _backjump(self, to_level: int) -> None:
        while len(self.levels) - 1 > to_level:
            assigned, forbids = self.levels.pop()
            for var, value in reversed(forbids):
                del self.forbidden[var][value]
            for var in reversed(assigned):
                self.session.retract()
                del self.assigns[var]
                del self.level_of[var]
                del self.pos_of[var]
                del self.reason_of[var]

    # ------------------------------------------------------------------
    # Heuristics and termination checks
    # ------------------------------------------------------------------
    def _satisfied(self) -> bool:
        justified = self.session.justified_ids
        return all(out in justified for out in self.override_ids)

    def _pick_variable(self):
        """Highest-activity unassigned external; goal-near wins ties."""
        best = None
        best_key = None
        activity = self.activity
        rank = self._rank
        far = 1 << 30
        for var in self.decision_vars:
            if var in self.assigns:
                continue
            key = (-activity.get(var, 0), rank.get(var, far))
            if best_key is None or key < best_key:
                best, best_key = var, key
        return best

    def _pick_value(self, var: int) -> int:
        per_var = self.forbidden.get(var, ())
        for value in self.compiled.domains[var]:
            if value not in per_var:
                return value
        # Unreachable: a wiped domain conflicts inside _forbid first.
        return self.compiled.domains[var][0]

    def _past_deadline(self) -> bool:
        return (
            self.deadline is not None
            and time.process_time() > self.deadline
        )


# ----------------------------------------------------------------------
# Persistent certificate database
# ----------------------------------------------------------------------
@dataclass
class ClauseDB:
    """Cross-run store of unjustifiability certificates.

    A certificate is the final conflict clause of a completed refutation:
    a subset of the objective assumptions (absolute ``(frame, name)``
    literals, keyed by window size) that is unjustifiable on its own.  Any
    justification question whose objective set is a *superset* of a
    stored certificate is refuted instantly — subsumption lookup replaces
    the exact-match blame keys' whole-set comparison.

    Lookup walks the query's literals and checks only certificates
    *witnessed* by that literal (each certificate is indexed under its
    smallest literal), so the cost is proportional to the query size, not
    the store size — the watched-literal scheme adapted to subset tests.

    Eviction is deterministic (worst ``(lbd, size)`` first, oldest among
    ties) and ignores hit recency on purpose: the store's contents must be
    a pure function of the insertion sequence so differential arms that
    skip redundant recomputation still converge to identical databases.
    """

    max_certs: int = 4096

    #: (n_frames, frozenset(items)) -> (size, lbd, seq).
    _certs: dict = field(default_factory=dict)
    #: (n_frames, witness item) -> [cert key, ...] in insertion order.
    _witness: dict = field(default_factory=dict)
    _seq: int = 0

    hits: int = 0
    misses: int = 0
    added: int = 0
    evicted: int = 0

    def __len__(self) -> int:
        return len(self._certs)

    def stats(self) -> dict[str, int]:
        """Hit/miss/occupancy counters (read by the campaign service)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "records": len(self._certs),
            "added": self.added,
            "evicted": self.evicted,
        }

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------
    def lookup(self, n_frames: int, items: CertItems):
        """The first stored certificate subsumed by ``items``, or None."""
        query = frozenset(items)
        for lit in sorted(query):
            for key in self._witness.get((n_frames, lit), ()):
                _, cert = key
                if cert <= query:
                    self.hits += 1
                    return cert
        self.misses += 1
        return None

    def add(self, n_frames: int, items: CertItems, lbd: int = 1) -> bool:
        """Store one certificate; idempotent; returns True when new."""
        if not items:
            return False
        cert = frozenset(items)
        key = (n_frames, cert)
        if key in self._certs:
            return False
        self._certs[key] = (len(cert), lbd, self._seq)
        self._seq += 1
        self._witness.setdefault((n_frames, min(cert)), []).append(key)
        self.added += 1
        while len(self._certs) > self.max_certs:
            self._evict_one()
        return True

    def _evict_one(self) -> None:
        worst = max(
            self._certs.items(),
            key=lambda kv: (kv[1][1], kv[1][0], -kv[1][2]),
        )[0]
        del self._certs[worst]
        n_frames, cert = worst
        bucket = self._witness.get((n_frames, min(cert)))
        if bucket:
            bucket.remove(worst)
            if not bucket:
                del self._witness[(n_frames, min(cert))]
        self.evicted += 1
