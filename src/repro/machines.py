"""The test vehicles: everything specific to one machine, in one table.

TG is machine-independent (paper §III, §VI): it reads a processor model
and hands its test to an ISA-level check on the vehicle.  What is
specific to a vehicle is a small fixed set of facts, and one
:class:`Machine` per name owns them:

* how to build the processor model, and its random-program generator;
* the ISA specification and the environments that run programs on the
  implementation, one scalar run or one lane per program;
* how a TG test becomes a program (``realize``) and whether a program
  detects an error (``detects``, ``batch_detects``);
* the campaign: its error list, TG exposure comparator, defaults,
  checkpoint codec, CLI command and title;
* the source lines of a fuzz reproducer.

The campaign classes, the fuzzer, the conformance matrix, the reproducer
emitter, the CLI and the service look machines up here
(:func:`machine_adapter`) and never branch on a machine's name, so a new
vehicle is one more machine in :data:`_TABLE`.

Vehicle modules are imported on first use, so the table is cheap to
import and needs no numpy.  Functions are looked up in their modules at
every call, never stored on a machine, so a wrapper installed on a module
attribute (the benchmark's span tracer) sees each call.
"""

from __future__ import annotations

import importlib
from typing import Any


class _Lazy:
    """A machine attribute read from a module at each access."""

    def __init__(self, module: str, name: str) -> None:
        self.module, self.name = module, name

    def __get__(self, machine, owner=None):
        return getattr(importlib.import_module(self.module), self.name)


class Machine:
    """One test vehicle; the subclasses below fill in the facts."""

    name: str
    #: The CLI subcommand that runs the machine's campaign, its help, and
    #: the Table-1 title; a machine without a campaign has no command.
    command: str | None = None
    command_help = ""
    title: str | None = None
    #: Campaign defaults: TG CPU seconds per error, the 1-in-N error
    #: sample, and SSL bits enumerated per bus (None: every bit; the
    #: conformance matrix samples the same bits).
    deadline = 10.0
    sample = 1
    max_bits_per_net: int | None = None
    #: Datapath stages whose buses the campaign's errors sit on.
    campaign_stages: frozenset
    #: TG's exposure check (None: raw DPO comparison).
    exposure_comparator = None
    #: A reproducer's builder call; what it imports (module -> names) to
    #: check a planted error, and to compare the implementation with the
    #: specification; and that comparison, ``{build}`` the builder call.
    reproducer_build: str
    detects_imports: dict[str, str]
    equivalence_imports: dict[str, str]
    equivalence_checks: tuple[str, ...]

    def spec_outcome(self, program, init_regs) -> dict:
        """The specification's run of ``program``, in canonical form."""
        return self.canonical(self.spec().run(program, init_regs))

    def impl_outcomes(
        self, processor, programs, regs, error=None, lanes: int = 0
    ) -> list[tuple[dict, Any]]:
        """``(canonical outcome, trace)`` of each program on the
        implementation, with ``error`` planted when given: one lane per
        program when ``lanes``, else one scalar run per program."""
        hooks = {}
        if error is not None:
            injector, module_overrides = error.hooks(processor.datapath)
            hooks = {"injector": injector,
                     "module_overrides": module_overrides}
        outcomes = []
        if lanes:
            env = self.lane_env(processor, len(programs), **hooks)
            for run in env.run(programs, regs):
                run.raise_failure()
                outcomes.append((self.canonical(run.result), run.trace))
            return outcomes
        for program, init_regs in zip(programs, regs):
            env = self.scalar_env(processor, **hooks)
            result = env.run(program, init_regs)
            outcomes.append((self.canonical(result), env.trace))
        return outcomes

    def nontrivial_count(self, program) -> int:
        """Instructions in ``program`` other than NOP."""
        nop = self.nop
        return sum(1 for instruction in program if instruction != nop)


class _Mini(Machine):
    name = "mini"
    command = "minipipe"
    command_help = "run the MiniPipe campaign"
    title = "MiniPipe bus SSL campaign"
    # Execute and write-back.
    campaign_stages = frozenset({1, 2})
    build = _Lazy("repro.mini.machine", "build_minipipe")
    generator_cls = _Lazy("repro.baselines.random_gen", "RandomMiniGenerator")
    spec = _Lazy("repro.mini.spec", "MiniSpec")
    scalar_env = _Lazy("repro.mini.spec", "MiniEnv")
    lane_env = _Lazy("repro.mini.lanes", "BatchMiniEnv")
    nop = _Lazy("repro.mini.isa", "NOP")
    realized_to_dict = _Lazy("repro.campaign.serialize",
                             "realized_mini_to_dict")
    realized_from_dict = _Lazy("repro.campaign.serialize",
                               "realized_mini_from_dict")
    reproducer_build = "build_minipipe()"
    detects_imports = {
        "repro.mini": "build_minipipe",
        "repro.mini.isa": "Instruction",
        "repro.mini.spec": "detects",
    }
    equivalence_imports = {
        "repro.mini": "build_minipipe",
        "repro.mini.isa": "Instruction",
        "repro.mini.spec": "MiniEnv, MiniSpec",
    }
    equivalence_checks = (
        "spec = MiniSpec().run(program, init_regs)",
        "impl = MiniEnv({build}).run(program, init_regs)",
        "assert impl.writes == spec.writes",
        "assert impl.registers == spec.registers",
    )

    @staticmethod
    def canonical(result) -> dict:
        return {
            "writes": [list(w) for w in result.writes],
            "registers": list(result.registers),
        }

    def realize(self, processor, test):
        from repro.mini import realize

        return realize.realize(test)

    def detects(self, processor, realized, error) -> bool:
        from repro.mini import spec

        return spec.detects(
            processor, realized.program, error, realized.init_regs
        )

    def batch_detects(self, processor, program, errors, init_regs,
                      golden=None) -> list[bool]:
        from repro.mini import spec

        return spec.batch_detects(
            processor, program, errors, init_regs, golden=golden
        )

    def detects_realized(self, processor, realized, errors) -> list[bool]:
        return self.batch_detects(
            processor, realized.program, errors, realized.init_regs
        )


class _Dlx(Machine):
    name = "dlx"
    command = "table1"
    command_help = "run the Table-1 campaign"
    title = "Test generation for bus SSL errors"
    deadline = 20.0
    sample = 6
    max_bits_per_net = 4
    generator_cls = _Lazy("repro.baselines.random_gen", "RandomDlxGenerator")
    spec = _Lazy("repro.dlx.spec", "DlxSpec")
    scalar_env = _Lazy("repro.dlx.env", "DlxEnv")
    lane_env = _Lazy("repro.dlx.lanes", "BatchDlxEnv")
    nop = _Lazy("repro.dlx.isa", "NOP")
    exposure_comparator = _Lazy("repro.dlx.env", "dlx_exposure_comparator")
    realize = _Lazy("repro.dlx.realize", "realize")
    realized_to_dict = _Lazy("repro.campaign.serialize",
                             "realized_dlx_to_dict")
    realized_from_dict = _Lazy("repro.campaign.serialize",
                               "realized_dlx_from_dict")
    reproducer_build = "build_dlx()"
    detects_imports = {
        "repro.dlx": "build_dlx",
        "repro.dlx.env": "detects",
        "repro.dlx.isa": "Instruction",
    }
    equivalence_imports = {
        "repro.dlx": "build_dlx",
        "repro.dlx.env": "DlxEnv",
        "repro.dlx.isa": "Instruction",
        "repro.dlx.spec": "DlxSpec",
    }
    equivalence_checks = (
        "spec = DlxSpec().run(program, init_regs)",
        "impl = DlxEnv({build}).run(program, init_regs)",
        "assert impl.events == spec.events",
        "assert impl.registers == spec.registers",
    )
    branch_prediction = False

    def build(self):
        from repro.dlx import machine

        return machine.build_dlx(branch_prediction=self.branch_prediction)

    @property
    def campaign_stages(self) -> frozenset:
        from repro.dlx.datapath import STAGE_EX, STAGE_MEM, STAGE_WB

        return frozenset({STAGE_EX, STAGE_MEM, STAGE_WB})

    @staticmethod
    def canonical(result) -> dict:
        return {
            "events": [list(event) for event in result.events],
            "registers": list(result.registers),
            "memory": sorted(
                (addr, word) for addr, word in result.memory.words.items()
            ),
        }

    def detects(self, processor, realized, error) -> bool:
        from repro.dlx import env

        return env.detects(
            processor, realized.program, error,
            realized.init_regs, realized.init_memory,
        )

    def batch_detects(self, processor, program, errors, init_regs,
                      golden=None) -> list[bool]:
        from repro.dlx import env

        return env.batch_detects(
            processor, program, errors, init_regs, golden=golden
        )

    def detects_realized(self, processor, realized, errors) -> list[bool]:
        from repro.dlx import env

        return env.batch_detects(
            processor, realized.program, errors,
            realized.init_regs, realized.init_memory,
        )


class _DlxBp(_Dlx):
    """The DLX with its one-bit branch predictor; it runs no campaign."""

    name = "dlx_bp"
    command = None
    title = None
    branch_prediction = True
    reproducer_build = "build_dlx(branch_prediction=True)"


_TABLE: dict[str, Machine] = {
    machine.name: machine for machine in (_Mini(), _Dlx(), _DlxBp())
}
#: Every machine name, in table order.
MACHINES = tuple(_TABLE)


def machine_adapter(name: str) -> Machine:
    """The machine called ``name``."""
    try:
        return _TABLE[name]
    except KeyError:
        raise ValueError(f"unknown machine {name!r}") from None
