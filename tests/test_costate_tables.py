"""Figure 5's transfer functions against their stated rules, exhaustively.

Each function in ``repro.core.costates`` is compared with an independent
statement of its docstring's rule, written over the meaning of the states
(controlled, unknown, known uncontrollable, closed), on every tuple of
input states with up to three inputs.
"""

import itertools

from repro.core.costates import (
    CState,
    OState,
    add_c_forward,
    add_o_backward,
    and_c_forward,
    and_o_backward,
    branch_c_from_stem,
    mux_c_forward,
    mux_o_backward,
    net_o_from_sinks,
)

C_STATES = tuple(CState)
O_STATES = tuple(OState)


def controlled(s):
    return s is CState.C4


def unknown(s):
    return s is CState.C1


def uncontrollable(s):
    """Known not controllable: C2 (decisions still open) or C3."""
    return s in (CState.C2, CState.C3)


def closed(s):
    """The value is determined: C3 or C4."""
    return s in (CState.C3, CState.C4)


def tuples(states, most=3, least=1):
    for n in range(least, most + 1):
        yield from itertools.product(states, repeat=n)


def test_add_c_forward():
    # One controlled input controls the output; else one unknown input
    # leaves it unknown; else it is uncontrollable, open iff a fanin is.
    for ins in tuples(C_STATES):
        if any(map(controlled, ins)):
            want = CState.C4
        elif any(map(unknown, ins)):
            want = CState.C1
        else:
            want = CState.C3 if all(map(closed, ins)) else CState.C2
        assert add_c_forward(ins) is want, ins


def test_and_c_forward():
    # All inputs must be controlled; an output that cannot be is known
    # uncontrollable as soon as one input is, and open unless every input
    # is closed.
    for ins in tuples(C_STATES):
        if all(map(controlled, ins)):
            want = CState.C4
        elif all(map(closed, ins)):
            want = CState.C3
        elif any(map(uncontrollable, ins)):
            want = CState.C2
        else:
            want = CState.C1
        assert and_c_forward(ins) is want, ins


def test_mux_c_forward():
    # The output tracks the selected input; with the select open it is
    # known uncontrollable (select still open: C2) only when every data
    # input is, else unknown.
    for ins in tuples(C_STATES):
        for selected in (None, *range(len(ins))):
            if selected is not None:
                want = ins[selected]
            elif all(map(uncontrollable, ins)):
                want = CState.C2
            else:
                want = CState.C1
            assert mux_c_forward(ins, selected) is want, (ins, selected)


def test_add_o_backward():
    # Observable through an observable output once every side input is
    # closed; never through an unobservable one.
    for out in O_STATES:
        for sides in tuples(C_STATES, most=2, least=0):
            if out is OState.O2:
                want = OState.O2
            elif out is OState.O3 and all(map(closed, sides)):
                want = OState.O3
            else:
                want = OState.O1
            assert add_o_backward(out, sides) is want, (out, sides)


def test_and_o_backward():
    # A known-uncontrollable side input blocks observation; every side
    # input controlled lets an observable output through.
    for out in O_STATES:
        for sides in tuples(C_STATES, most=2, least=0):
            if out is OState.O2 or any(map(uncontrollable, sides)):
                want = OState.O2
            elif out is OState.O3 and all(map(controlled, sides)):
                want = OState.O3
            else:
                want = OState.O1
            assert and_o_backward(out, sides) is want, (out, sides)


def test_mux_o_backward():
    # Observable iff the output is and the select routes this input; a
    # select routing another input blocks it.
    for out in O_STATES:
        for n in range(1, 4):
            for selected in (None, *range(n)):
                for index in range(n):
                    routed_away = selected is not None and selected != index
                    if out is OState.O2 or routed_away:
                        want = OState.O2
                    elif out is OState.O3 and selected == index:
                        want = OState.O3
                    else:
                        want = OState.O1
                    assert mux_o_backward(out, selected, index) is want, (
                        out, selected, index)


def test_net_o_from_sinks():
    # A stem is observable through any one branch, unobservable when no
    # branch is (a stem with no branch included).
    for sinks in tuples(O_STATES, least=0):
        if OState.O3 in sinks:
            want = OState.O3
        elif all(s is OState.O2 for s in sinks):
            want = OState.O2
        else:
            want = OState.O1
        assert net_o_from_sinks(sinks) is want, sinks


def test_branch_c_from_stem():
    # The chosen branch tracks the stem; the others cannot be controlled
    # while the choice stands (C2, or C3 when the stem is determined
    # uncontrollable); an unassigned choice grants no control yet.
    for stem in C_STATES:
        for n in range(1, 4):
            for choice in (None, *range(n)):
                for index in range(n):
                    if choice is None:
                        want = CState.C1 if controlled(stem) else stem
                    elif choice == index:
                        want = stem
                    else:
                        want = CState.C3 if stem is CState.C3 else CState.C2
                    assert branch_c_from_stem(stem, choice, index) is want, (
                        stem, choice, index)
