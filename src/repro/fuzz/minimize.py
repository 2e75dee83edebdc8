"""Automatic failing-sequence minimization (delta debugging).

A diverging fuzz case is rarely a good bug report: the biased-random
generator produces 10-30 instruction programs of which usually one or two
matter.  This module shrinks any diverging ``(program, init_regs)`` pair to
a locally-minimal reproducer with the classic two-phase recipe:

1. **ddmin over instructions** — Zeller/Hildebrandt delta debugging on the
   instruction list: try ever-finer subsets and complements, keeping any
   reduction that still satisfies the divergence predicate, until removing
   any single remaining instruction loses the divergence (1-minimality).
2. **operand-field reduction** — for every surviving instruction, try to
   zero each operand field (register specifiers, immediate) one at a time;
   then try to zero each bound initial register.  Every candidate change is
   re-validated against the predicate, so the result is always a genuine
   reproducer.

The predicate is an arbitrary callable ``predicate(program) -> bool`` that
must hold on the input program; the minimizer never assumes monotonicity —
a non-monotone predicate merely means the result is locally rather than
globally minimal (the delta-debugging guarantee).

The final reproducer can be rendered as a ready-to-paste pytest case with
:func:`emit_pytest_case`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import BusOrderError, BusSSLError, ModuleSubstitutionError
from repro.machines import machine_adapter

#: Operand fields the field-reduction phase tries to zero, in order.
_OPERAND_FIELDS = ("rs", "rt", "rd", "rs1", "rs2", "imm")


def ddmin(items: Sequence, predicate: Callable[[list], bool]) -> list:
    """Minimize ``items`` to a 1-minimal sublist still satisfying
    ``predicate`` (classic ddmin).

    ``predicate(list(items))`` must be true; the returned list is a
    subsequence of ``items`` on which the predicate holds and from which no
    single element can be removed without losing it.
    """
    items = list(items)
    if not predicate(items):
        raise ValueError("predicate does not hold on the full input")
    n = 2
    while len(items) >= 2:
        chunk = max(1, len(items) // n)
        subsets = [items[i:i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        # Try each subset alone, then each complement.
        for i, subset in enumerate(subsets):
            if predicate(subset):
                items = subset
                n = 2
                reduced = True
                break
            complement = [
                item for j, s in enumerate(subsets) if j != i for item in s
            ]
            if complement and predicate(complement):
                items = complement
                n = max(n - 1, 2)
                reduced = True
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(n * 2, len(items))
    return items


def reduce_operand_fields(
    program: Sequence, predicate: Callable[[list], bool]
) -> list:
    """Zero every operand field that is not needed to keep the predicate.

    Works on any frozen-dataclass instruction type (MiniPipe and DLX both
    qualify): each of the fields in ``_OPERAND_FIELDS`` that the type
    defines is tried at 0, one instruction at a time, keeping changes that
    preserve the predicate.
    """
    program = list(program)
    for index in range(len(program)):
        for name in _OPERAND_FIELDS:
            instruction = program[index]
            if not hasattr(instruction, name):
                continue
            if getattr(instruction, name) == 0:
                continue
            candidate = list(program)
            try:
                candidate[index] = dataclasses.replace(
                    instruction, **{name: 0}
                )
            except ValueError:  # field constraints (should not happen at 0)
                continue
            if predicate(candidate):
                program = candidate
    return program


def reduce_init_regs(
    init_regs: Sequence[int],
    predicate: Callable[[list], bool],
) -> list[int]:
    """Zero every initial register value the predicate does not need.

    ``predicate`` here takes the *register list* (the program is fixed by
    the caller's closure).
    """
    regs = list(init_regs)
    for index in range(len(regs)):
        if regs[index] == 0:
            continue
        candidate = list(regs)
        candidate[index] = 0
        if predicate(candidate):
            regs = candidate
    return regs


@dataclass
class MinimizedCase:
    """A locally-minimal reproducer."""

    program: list
    init_regs: list[int]
    original_length: int
    predicate_calls: int


def minimize_case(
    program: Sequence,
    init_regs: Sequence[int],
    diverges: Callable[[list, list[int]], bool],
) -> MinimizedCase:
    """Run the full two-phase minimization.

    ``diverges(program, init_regs)`` is the divergence oracle; it must hold
    on the input pair.
    """
    calls = 0

    def counted(prog: list, regs: list[int]) -> bool:
        nonlocal calls
        calls += 1
        return diverges(prog, regs)

    regs = list(init_regs)
    reduced = ddmin(list(program), lambda p: counted(p, regs))
    reduced = reduce_operand_fields(reduced, lambda p: counted(p, regs))
    regs = reduce_init_regs(regs, lambda r: counted(reduced, r))
    return MinimizedCase(
        program=reduced,
        init_regs=regs,
        original_length=len(program),
        predicate_calls=calls,
    )


# ---------------------------------------------------------------------------
# Error specs: a stable one-line form for CLI flags and reports
# ---------------------------------------------------------------------------
def error_to_spec(error) -> str:
    """Serialize an error model as a ``class:...`` spec string."""
    if isinstance(error, BusSSLError):
        return f"bus-ssl:{error.net}:{error.bit}:{error.stuck}"
    if isinstance(error, ModuleSubstitutionError):
        return f"mse:{error.module}:{error.module_type}"
    if isinstance(error, BusOrderError):
        return f"boe:{error.module}"
    raise ValueError(f"unsupported error type {type(error).__name__}")


def parse_error_spec(spec: str, netlist=None):
    """Parse a ``class:...`` spec string back into an error model.

    ``mse:MODULE`` (without an explicit type) needs ``netlist`` to resolve
    the module's type name.
    """
    parts = spec.split(":")
    kind = parts[0]
    if kind == "bus-ssl":
        if len(parts) != 4:
            raise ValueError(f"bad bus-ssl spec {spec!r} "
                             "(want bus-ssl:NET:BIT:STUCK)")
        return BusSSLError(parts[1], int(parts[2]), int(parts[3]))
    if kind == "mse":
        if len(parts) == 3:
            return ModuleSubstitutionError(parts[1], parts[2])
        if len(parts) == 2:
            if netlist is None:
                raise ValueError("mse:MODULE needs a netlist to infer the "
                                 "module type (or use mse:MODULE:TYPE)")
            module = netlist.module(parts[1])
            return ModuleSubstitutionError(parts[1], type(module).__name__)
        raise ValueError(f"bad mse spec {spec!r} (want mse:MODULE[:TYPE])")
    if kind == "boe":
        if len(parts) != 2:
            raise ValueError(f"bad boe spec {spec!r} (want boe:MODULE)")
        return BusOrderError(parts[1])
    raise ValueError(f"unknown error class {kind!r} in {spec!r}")


def _error_constructor_source(error) -> str:
    if isinstance(error, BusSSLError):
        return f"BusSSLError({error.net!r}, {error.bit}, {error.stuck})"
    if isinstance(error, ModuleSubstitutionError):
        return (f"ModuleSubstitutionError({error.module!r}, "
                f"{error.module_type!r})")
    if isinstance(error, BusOrderError):
        return f"BusOrderError({error.module!r})"
    raise ValueError(f"unsupported error type {type(error).__name__}")


def _instruction_source(instruction) -> str:
    args = [repr(instruction.op)]
    for name in _OPERAND_FIELDS:
        if hasattr(instruction, name) and getattr(instruction, name) != 0:
            args.append(f"{name}={getattr(instruction, name)}")
    return f"Instruction({', '.join(args)})"


def emit_pytest_case(
    machine: str,
    program: Sequence,
    init_regs: Sequence[int],
    error=None,
    provenance: str = "",
) -> str:
    """Render a minimized case as a standalone, ready-to-paste pytest file.

    With ``error`` the test asserts the planted error is *detected* (a
    conformance regression test); without it the test asserts spec ==
    implementation (a fault-free oracle bug reproducer — the assertion
    documents the expected behaviour and fails while the bug exists).
    """
    vehicle = machine_adapter(machine)
    build = vehicle.reproducer_build
    lines = [
        '"""Auto-generated by repro.fuzz — minimized failing sequence.',
        "",
        f"machine: {machine}",
    ]
    if error is not None:
        lines.append(f"error:   {error.describe()} "
                     f"(spec {error_to_spec(error)})")
    if provenance:
        lines.append(f"origin:  {provenance}")
    lines += ['"""', ""]
    imports = (vehicle.detects_imports if error is not None
               else vehicle.equivalence_imports)
    lines += [f"from {module} import {names}"
              for module, names in imports.items()]
    if error is not None:
        lines.append(
            f"from repro.errors import {type(error).__name__}"
        )
    lines += ["", ""]
    lines.append("def test_fuzz_reproducer():")
    lines.append("    program = [")
    for instruction in program:
        lines.append(f"        {_instruction_source(instruction)},")
    lines.append("    ]")
    lines.append(f"    init_regs = {list(init_regs)!r}")
    if error is not None:
        lines.append(f"    error = {_error_constructor_source(error)}")
        lines.append(f"    assert detects({build}, program, error, "
                     "init_regs)")
    else:
        lines += ["    " + line.format(build=build)
                  for line in vehicle.equivalence_checks]
    return "\n".join(lines) + "\n"
