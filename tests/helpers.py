"""Shared fixtures: small datapaths used across the core-engine tests."""

from repro.datapath import DatapathBuilder


def build_toy_pipeline():
    """A 2-stage toy datapath.

    Stage 0 (execute): opb = mux(alusrc: b, const 4); sum = a + opb;
    conj = a & opb; ex_out = mux(op: sum, conj); STS eq = (a == b).
    Stage 1 (write-back): r = DPR(ex_out); out(DPO) = mux(wbsel: r, c).
    """
    b = DatapathBuilder("toy")
    b.set_stage(0)
    a = b.input("a", 8)
    bb = b.input("b", 8)
    alusrc = b.ctrl("alusrc", 1)
    op = b.ctrl("op", 1)
    four = b.const("four", 8, 4)
    opb = b.mux("opbmux", alusrc, bb, four)
    total = b.add("alu_add", a, opb)
    conj = b.and_("alu_and", a, opb)
    ex_out = b.mux("exmux", op, total, conj)
    b.status("eq", b.eq("cmp", a, bb))
    b.set_stage(1)
    r = b.register("r_exmem", ex_out)
    c = b.input("c", 8)
    wbsel = b.ctrl("wbsel", 1)
    out = b.mux("wbmux", wbsel, r, c)
    b.output("out", out)
    return b.build()


def build_linear_chain():
    """in(DPI) -> add const -> register -> xor const -> out(DPO)."""
    b = DatapathBuilder("chain")
    b.set_stage(0)
    x = b.input("x", 8)
    k1 = b.const("k1", 8, 3)
    s = b.add("a1", x, k1)
    b.set_stage(1)
    q = b.register("r1", s)
    k2 = b.const("k2", 8, 0x55)
    y = b.xor("x1", q, k2)
    b.output("out", y)
    return b.build()


def build_masking_datapath():
    """A datapath whose propagation path runs through an AND side input.

    out(DPO) = (a + k) & m, where m is a DPI: observation of the adder
    output requires controlling m (AND-class side input).
    """
    b = DatapathBuilder("masker")
    b.set_stage(0)
    a = b.input("a", 8)
    m = b.input("m", 8)
    k = b.const("k", 8, 1)
    s = b.add("adder", a, k)
    y = b.and_("masker", s, m)
    b.output("out", y)
    return b.build()


def batched_lane_values(sim, frames):
    """Stage one external frame per lane on a ``BatchedDatapathSimulator``
    (a missing or ``None`` external is unknown on that lane), run its
    kernel, and return every lane's net values as the scalar simulators'
    ``evaluate_partial`` dict (``None`` where unknown)."""
    for i, name in sim.compiled.ext_pairs:
        sim.stage(i, [frame.get(name) for frame in frames])
    sim.run_partial()
    return [
        {
            name: int(sim.values[i][lane]) if sim.known[i][lane] else None
            for i, name in enumerate(sim.compiled.names)
        }
        for lane in range(sim.n_lanes)
    ]
