"""DLX with branch prediction: equivalence and predictor behaviour.

The predictor is purely micro-architectural, so the ISA specification is
the same ``DlxSpec``; the fundamental property is that the predicted
machine still matches it on every program.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dlx import DlxEnv, DlxSpec, Instruction, MNEMONICS, build_dlx


@pytest.fixture(scope="module")
def dlx_bp():
    return build_dlx(branch_prediction=True)


def check(dlx_bp, program, init_regs=None, init_memory=None):
    spec = DlxSpec().run(program, init_regs, init_memory)
    impl = DlxEnv(dlx_bp).run(program, init_regs, init_memory)
    assert impl.events == spec.events, (
        f"impl {impl.events} != spec {spec.events} for "
        f"{[str(i) for i in program]}"
    )
    return spec


def test_model_has_predictor(dlx_bp):
    controller = dlx_bp.controller
    assert "pred" in controller.network.signals
    assert "redirect_forward" in controller.cti_signals
    assert "redirect_back" in controller.cti_signals
    assert "branch_taken" not in controller.cti_signals
    assert DlxEnv(dlx_bp).branch_prediction


def test_plain_programs_unchanged(dlx_bp):
    program = [
        Instruction("ADDI", rs=0, rt=1, imm=5),
        Instruction("ADD", rs=1, rt=1, rd=2),
        Instruction("SW", rs=0, rt=2, imm=0x40),
        Instruction("LW", rs=0, rt=3, imm=0x40),
    ]
    spec = check(dlx_bp, program)
    assert ("reg", 3, 10) in spec.events


def test_first_branch_predicted_not_taken(dlx_bp):
    # Predictor resets to 0: the first taken branch mispredicts (squash 2)
    # but the architectural outcome is the spec's.
    program = [
        Instruction("BEQZ", rs=0),               # taken (r0 == 0)
        Instruction("ADDI", rs=0, rt=1, imm=1),  # skipped
        Instruction("ADDI", rs=0, rt=2, imm=2),  # skipped
        Instruction("ADDI", rs=0, rt=3, imm=3),
    ]
    spec = check(dlx_bp, program)
    assert spec.events == [("reg", 3, 3)]


def test_second_taken_branch_is_predicted(dlx_bp):
    # After one taken branch trains the predictor, the next taken branch
    # costs no squash — and the outcome still matches the spec.
    program = [
        Instruction("BEQZ", rs=0),               # taken: trains pred=1
        Instruction("ADDI", rs=0, rt=1, imm=1),  # skipped
        Instruction("ADDI", rs=0, rt=2, imm=2),  # skipped
        Instruction("BEQZ", rs=0),               # taken: predicted
        Instruction("ADDI", rs=0, rt=3, imm=3),  # skipped
        Instruction("ADDI", rs=0, rt=4, imm=4),  # skipped
        Instruction("ADDI", rs=0, rt=5, imm=5),
    ]
    spec = check(dlx_bp, program)
    assert spec.events == [("reg", 5, 5)]


def test_mispredicted_taken_rewinds(dlx_bp):
    # Train the predictor taken, then a NOT-taken branch: the fetch ran
    # ahead on the wrong path and must rewind (redirect_back).
    program = [
        Instruction("BEQZ", rs=0),               # taken: pred := 1
        Instruction("ADDI", rs=0, rt=1, imm=1),  # skipped
        Instruction("ADDI", rs=0, rt=2, imm=2),  # skipped
        Instruction("ADDI", rs=0, rt=6, imm=6),  # executes; r6 != 0
        Instruction("BNEZ", rs=0),               # NOT taken; predicted taken
        Instruction("ADDI", rs=0, rt=7, imm=7),  # must still execute!
        Instruction("ADDI", rs=0, rt=8, imm=8),  # must still execute!
    ]
    spec = check(dlx_bp, program)
    assert ("reg", 7, 7) in spec.events
    assert ("reg", 8, 8) in spec.events


def test_branch_with_load_use_stall(dlx_bp):
    program = [
        Instruction("SW", rs=0, rt=1, imm=0x10),
        Instruction("LW", rs=0, rt=2, imm=0x10),
        Instruction("BEQZ", rs=2),               # load-use on the branch
        Instruction("ADDI", rs=0, rt=3, imm=3),
        Instruction("ADDI", rs=0, rt=4, imm=4),
        Instruction("ADDI", rs=0, rt=5, imm=5),
    ]
    check(dlx_bp, program, init_regs=[0, 0] + [0] * 30)


def test_back_to_back_branches(dlx_bp):
    init = [0, 9] + [0] * 30
    program = [
        Instruction("BEQZ", rs=0),               # taken
        Instruction("BNEZ", rs=1),               # skipped
        Instruction("ADDI", rs=0, rt=2, imm=2),  # skipped
        Instruction("BNEZ", rs=1),               # taken, now predicted
        Instruction("ADDI", rs=0, rt=3, imm=3),  # skipped
        Instruction("ADDI", rs=0, rt=4, imm=4),  # skipped
        Instruction("ADDI", rs=0, rt=5, imm=5),
    ]
    spec = check(dlx_bp, program, init)
    assert spec.events == [("reg", 5, 5)]


def test_branch_squashed_when_fetched_does_not_steer_fetch(dlx_bp):
    # The taken BNEZ r2 trains the predictor taken.  The next branch,
    # BNEZ r0, is predicted taken when it is fetched, but JAL is in ID
    # then and squashes it in the same cycle: it must not skip the LW.
    program = [
        Instruction("BNEZ", rs=2),
        Instruction("BEQZ"),
        Instruction("SGTI"),
        Instruction("JAL"),
        Instruction("BNEZ"),
        Instruction("LW"),
    ]
    init = [0, 0, 3616877285] + [0] * 29
    spec = check(dlx_bp, program, init)
    assert spec.events == [("reg", 31, 0), ("load", 0, 2)]


OPS = list(MNEMONICS.values())
instruction_strategy = st.builds(
    Instruction,
    op=st.sampled_from(OPS),
    rs=st.integers(0, 31),
    rt=st.integers(0, 31),
    rd=st.integers(0, 31),
    imm=st.integers(0, 0xFFFF),
)


@settings(max_examples=40, deadline=None)
@given(
    program=st.lists(instruction_strategy, max_size=10),
    seeds=st.lists(st.integers(0, 0xFFFFFFFF), min_size=8, max_size=8),
)
def test_spec_impl_equivalence_random_bp(dlx_bp, program, seeds):
    """Branch prediction must never change the architectural outcome."""
    init = [0] * 32
    for i, seed in enumerate(seeds):
        init[1 + i] = seed
    spec = DlxSpec().run(program, init)
    impl = DlxEnv(dlx_bp).run(program, init)
    assert impl.events == spec.events


def test_tg_works_on_bp_machine(dlx_bp):
    """The pipeframe TG runs unchanged on the predicted machine — the new
    tertiary signals are just more CTIs."""
    from repro.core.tg import TestGenerator, TGStatus
    from repro.errors import BusSSLError

    generator = TestGenerator(dlx_bp, deadline_seconds=20)
    result = generator.generate(BusSSLError("alu_add.y", 0, 0))
    assert result.status is TGStatus.DETECTED
