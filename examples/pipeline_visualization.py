#!/usr/bin/env python
"""Watch the pipeline work: hazards, squashes and branch prediction.

Runs a short hazard-rich DLX program on the base machine and on the
branch-predicted variant, rendering cycle-by-cycle pipeline activity with
``repro.analysis.render_pipeline_trace``.  You can see the load-use stall
bubble, the two squashed slots after a mispredicted branch, and the
predictor removing the squash on the second taken branch.

Run:  python examples/pipeline_visualization.py
"""

from repro.analysis import render_pipeline_trace
from repro.dlx import DlxEnv, Instruction, MNEMONICS, build_dlx

PROGRAM = [
    Instruction("ADDI", rs=0, rt=1, imm=8),    # r1 = 8
    Instruction("SW", rs=0, rt=1, imm=0x40),   # mem[0x40] = 8
    Instruction("LW", rs=0, rt=2, imm=0x40),   # r2 = 8
    Instruction("ADD", rs=2, rt=1, rd=3),      # load-use: stalls one cycle
    Instruction("BEQZ", rs=0),                 # taken: squashes two slots
    Instruction("ADDI", rs=0, rt=4, imm=99),   # squashed
    Instruction("ADDI", rs=0, rt=5, imm=99),   # squashed
    Instruction("BEQZ", rs=0),                 # taken again
    Instruction("ADDI", rs=0, rt=6, imm=99),   # squashed (skipped w/ pred)
    Instruction("ADDI", rs=0, rt=7, imm=99),   # squashed (skipped w/ pred)
    Instruction("ADDI", rs=0, rt=8, imm=1),
]


def run_and_render(processor, title: str) -> None:
    """Drive the machine through its environment shim and show the trace
    the run kept (``DlxEnv.trace``)."""
    env = DlxEnv(processor)
    result = env.run(PROGRAM)
    columns = [
        ("op_id", "ctl", None),
        ("stall", "ctl", None),
        ("if_id_clear", "ctl", None),
        ("fwd_a", "ctl", None),
        ("fwd_b", "ctl", None),
        ("alu_mux.y", "dp", None),
        ("wb_value_o", "dp", None),
    ]
    print(f"\n=== {title} ===")
    print(render_pipeline_trace(env.trace, columns,
                                decoders={"op_id": MNEMONICS}))
    print(f"architectural events: {result.events}")
    print(f"cycles: {len(env.trace.cycles)}")


def main() -> None:
    print("Program:")
    for instruction in PROGRAM:
        print(f"  {instruction}")
    run_and_render(build_dlx(), "predict-not-taken DLX")
    run_and_render(
        build_dlx(branch_prediction=True), "DLX with 1-bit branch predictor"
    )


if __name__ == "__main__":
    main()
