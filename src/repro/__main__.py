"""Command-line entry points: ``python -m repro <command>``.

Commands:

* ``stats``                     — print the DLX model statistics
* ``table1 [--sample N] [--dropping] [--jobs N] [--checkpoint PATH]
  [--resume] [--json OUT]``     — run the Table-1 campaign (1-in-N sample)
* ``generate NET BIT STUCK``    — generate a test for one bus SSL error
* ``minipipe [--sample N] [--dropping] [--jobs N] [--checkpoint PATH]
  [--resume] [--json OUT]``     — run the MiniPipe campaign
* ``fuzz [--machine M] [--iters N] [--seed S] [--jobs N] [--lanes N]
  [--budget 60s] [--plant SPEC] [--matrix] [--baseline PATH]
  [--report-dir DIR]``
  — differential fuzzing of the spec-vs-implementation oracle and/or the
  error-model conformance matrix (see ``docs/FUZZING.md``)
* ``serve [--host H] [--port P] [--state-dir DIR] ...`` — run the
  persistent campaign service: campaigns/fuzzing over HTTP with warm
  cross-request caches (see ``docs/SERVICE.md``)

Campaign flags (``table1`` and ``minipipe``):

* ``--jobs N``        shard the error list across N worker processes
  (default 1 = every error in this process)
* ``--checkpoint PATH``  append one JSONL record per completed error so a
  killed run can be resumed
* ``--resume``        skip errors already present in ``--checkpoint``
* ``--json OUT``      write a machine-readable run report (config, per-
  error outcomes, structured event stream) — atomically
* ``--dropping``      error simulation / fault dropping (composes with
  ``--jobs``: finished tests drop errors from the undispatched tail)
* ``--profile``       record per-phase TG timings (DPTRACE / CTRLJUST /
  DPRELAX / cosim) as ``error-profile`` events plus one
  ``profile-summary``, visible in the progress feed and the ``--json``
  report
* ``--remote URL``    submit the campaign to a running ``repro serve``
  instance instead of executing locally; progress streams back live and
  ``--json`` receives the server's (identical) run report

Ctrl-C during a local campaign stops it cooperatively: in-flight errors
finish and are checkpointed, a ``campaign-interrupted`` event is
emitted, and the command exits 130 (resume with ``--resume``).

Live per-error progress is rendered on stderr; stdout carries the Table-1
summary.
"""

from __future__ import annotations

import argparse
import os
import sys


def cmd_stats(_args) -> int:
    from repro.dlx import build_dlx

    stats = build_dlx().statistics()
    width = max(len(k) for k in stats) + 2
    for key, value in stats.items():
        print(f"{key:<{width}}{value}")
    return 0


def _run_campaign_command(args, target: str, title: str | None) -> int:
    import signal

    from repro.campaign.events import EventLog, EventStream, ProgressRenderer
    from repro.campaign.orchestrator import (
        CampaignOrchestrator,
        OrchestratorConfig,
        campaign_run_to_dict,
    )

    if args.remote:
        from repro.service.client import run_remote_campaign

        return run_remote_campaign(args, target, title)
    try:
        config = OrchestratorConfig(
            target=target,
            jobs=args.jobs,
            deadline_seconds=args.deadline,
            error_simulation=args.dropping,
            checkpoint_path=args.checkpoint,
            resume=args.resume,
            profile=args.profile,
        )
        if config.resume:
            from repro.campaign.checkpoint import CampaignCheckpoint

            CampaignCheckpoint.load(config.checkpoint_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    events.subscribe(ProgressRenderer(sys.stderr))
    orchestrator = CampaignOrchestrator(config, events=events)

    from repro.service.jobs import select_campaign_errors

    errors = select_campaign_errors(
        orchestrator.campaign, target, {"sample": args.sample}
    )
    print(f"Running {len(errors)} bus SSL errors "
          f"(deadline {args.deadline:.0f}s/error, {args.jobs} job(s), "
          f"error simulation {'on' if args.dropping else 'off'}) ...")

    # First Ctrl-C stops cooperatively: in-flight errors finish and are
    # checkpointed, one campaign-interrupted event is emitted, and the
    # command exits 130.  A second Ctrl-C falls back to the previous
    # (default) handler and kills the run the old way.
    def _on_sigint(signum, frame):
        orchestrator.interrupt()
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)

    try:
        previous_handler = signal.signal(signal.SIGINT, _on_sigint)
    except ValueError:  # not the main thread (e.g. under a test runner)
        previous_handler = None
    try:
        report = orchestrator.run(errors)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGINT, previous_handler)
    print(report.table1(title) if title else report.table1())
    if args.dropping:
        dropped = sum(1 for o in report.outcomes if o.dropped_by)
        print(f"(fault dropping skipped TG for {dropped} errors)")
    if args.json:
        from repro.campaign.serialize import save_json

        try:
            save_json(
                campaign_run_to_dict(config, report, log.events), args.json
            )
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote JSON run report to {args.json}")
    if report.interrupted:
        resumable = (" — resume with --checkpoint/--resume"
                     if config.checkpoint_path else "")
        print(f"campaign interrupted{resumable}", file=sys.stderr)
        return 130
    return 0


def cmd_table1(args) -> int:
    return _run_campaign_command(args, target="dlx", title=None)


def cmd_minipipe(args) -> int:
    return _run_campaign_command(
        args, target="mini", title="MiniPipe bus SSL campaign"
    )


def cmd_generate(args) -> int:
    from repro.campaign.orchestrator import check_deadline
    from repro.core.tg import TestGenerator, TGStatus
    from repro.dlx import build_dlx, detects
    from repro.dlx.env import dlx_exposure_comparator
    from repro.dlx.realize import RealizationError, realize
    from repro.errors import BusSSLError

    try:
        check_deadline(args.deadline)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    dlx = build_dlx()
    error = BusSSLError(args.net, args.bit, args.stuck)
    generator = TestGenerator(
        dlx, exposure_comparator=dlx_exposure_comparator,
        deadline_seconds=args.deadline,
    )
    result = generator.generate(error)
    print(f"{error.describe()}: {result.status.value} "
          f"({result.attempts} attempts, {result.backtracks} backtracks)")
    if result.status is not TGStatus.DETECTED:
        return 1
    try:
        realized = realize(dlx, result.test)
    except RealizationError as exc:
        print(f"realization failed: {exc}")
        return 1
    for instruction in realized.program:
        print(f"  {instruction}")
    nonzero = {f"r{i}": hex(v) for i, v in enumerate(realized.init_regs) if v}
    if nonzero:
        print(f"initial registers: {nonzero}")
    if realized.init_memory:
        print(f"initial memory: "
              f"{ {hex(a): hex(v) for a, v in realized.init_memory.items()} }")
    ok = detects(dlx, realized.program, error,
                 realized.init_regs, realized.init_memory)
    print("ISA-level detection:", "yes" if ok else "NO")
    return 0 if ok else 1


def cmd_serve(args) -> int:
    from repro.service.server import serve_main

    return serve_main(args)


def _parse_budget(text: str) -> float:
    """Parse a wall-clock budget: '45', '60s', '2m', '1.5h'."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0}
    scale = units.get(text[-1:].lower())
    number = text[:-1] if scale else text
    scale = scale or 1.0
    try:
        seconds = float(number) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r} (want e.g. 45, 60s, 2m, 1.5h)"
        ) from None
    if seconds <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return seconds


def cmd_fuzz(args) -> int:
    import json

    from repro.campaign.events import EventLog, EventStream, ProgressRenderer
    from repro.campaign.serialize import save_json
    from repro.fuzz import (
        FuzzConfig,
        MatrixConfig,
        compare_matrices,
        machine_adapter,
        matrix_artifact,
        run_fuzz,
        run_matrix,
    )

    events = EventStream()
    log = EventLog()
    events.subscribe(log)
    events.subscribe(ProgressRenderer(sys.stderr))
    report_dir = args.report_dir
    os.makedirs(report_dir, exist_ok=True)
    exit_code = 0

    if not args.matrix:
        try:
            config = FuzzConfig(
                machine=args.machine, iters=args.iters, seed=args.seed,
                length=args.length, jobs=args.jobs,
                budget_seconds=args.budget, plant=args.plant,
                max_minimize=args.max_minimize, lanes=args.lanes,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            report = run_fuzz(config, events=events, report_dir=report_dir)
        except ValueError as exc:  # e.g. a bad --plant spec
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report_path = os.path.join(report_dir, "fuzz_report.json")
        save_json(report.to_dict(machine_adapter(args.machine).build()),
                  report_path)
        n = len(report.divergences)
        if args.plant:
            if n == 0:
                print(f"planted {args.plant}: NOT detected in "
                      f"{report.iterations} iterations")
                exit_code = 1
            else:
                smallest = min(
                    (m["n_instructions"] for m in report.minimized),
                    default=None,
                )
                print(f"planted {args.plant}: detected in {n}/"
                      f"{report.iterations} iterations; smallest "
                      f"reproducer {smallest} instruction(s)")
        elif n:
            print(f"FUZZ FAILURE: {n} spec/implementation divergence(s) "
                  f"in {report.iterations} iterations — minimized "
                  f"reproducers in {report_dir}")
            exit_code = 1
        else:
            print(f"fuzz[{args.machine}]: {report.iterations} iterations, "
                  "0 divergences")
        print(f"wrote fuzz report to {report_path}")

    if args.matrix:
        machines = [m.strip() for m in args.matrix_machines.split(",")]
        try:
            configs = [
                MatrixConfig(
                    machine=machine, programs=args.matrix_programs,
                    length=args.length, seed=args.seed,
                    sample=args.matrix_sample,
                    max_bits_per_net=4 if machine.startswith("dlx") else None,
                    lanes=args.lanes,
                )
                for machine in machines
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        fragments = {
            config.machine: run_matrix(config, events=events)
            for config in configs
        }
        artifact = matrix_artifact(fragments)
        matrix_path = os.path.join(report_dir, "conformance_matrix.json")
        save_json(artifact, matrix_path)
        print(f"wrote conformance matrix to {matrix_path}")
        if args.baseline:
            try:
                with open(args.baseline, encoding="utf-8") as handle:
                    baseline = json.load(handle)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read baseline: {exc}",
                      file=sys.stderr)
                return 2
            regressions = compare_matrices(baseline, artifact)
            if regressions:
                print(f"MATRIX REGRESSIONS vs {args.baseline}:")
                for line in regressions:
                    print(f"  {line}")
                exit_code = 1
            else:
                print(f"no detectability regressions vs {args.baseline}")

    if args.json:
        try:
            save_json({"kind": "fuzz-run",
                       "events": log.to_dicts()}, args.json)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote event log to {args.json}")
    return exit_code


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dropping", action="store_true",
                        help="enable error simulation / fault dropping")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = serial)")
    parser.add_argument("--checkpoint", metavar="PATH", default=None,
                        help="append per-error JSONL records to PATH")
    parser.add_argument("--resume", action="store_true",
                        help="skip errors already in --checkpoint")
    parser.add_argument("--json", metavar="OUT", default=None,
                        help="write a machine-readable run report to OUT")
    parser.add_argument("--profile", action="store_true",
                        help="record per-phase TG timings in the event "
                             "stream / --json report")
    parser.add_argument("--remote", metavar="URL", default=None,
                        help="submit to a running campaign service "
                             "(repro serve) instead of running locally; "
                             "streams the same live progress")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print DLX model statistics")

    p_table1 = sub.add_parser("table1", help="run the Table-1 campaign")
    p_table1.add_argument("--sample", type=int, default=6,
                          help="run every Nth error (default 6; 1 = all)")
    p_table1.add_argument("--deadline", type=float, default=20.0)
    _add_campaign_flags(p_table1)

    p_gen = sub.add_parser("generate", help="target one bus SSL error")
    p_gen.add_argument("net", help="datapath net name, e.g. alu_add.y")
    p_gen.add_argument("bit", type=int)
    p_gen.add_argument("stuck", type=int, choices=(0, 1))
    p_gen.add_argument("--deadline", type=float, default=30.0)

    p_mini = sub.add_parser("minipipe", help="run the MiniPipe campaign")
    p_mini.add_argument("--sample", type=int, default=1,
                        help="run every Nth error (default 1 = all)")
    p_mini.add_argument("--deadline", type=float, default=10.0)
    _add_campaign_flags(p_mini)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing / conformance matrix for the oracle",
    )
    p_fuzz.add_argument("--machine", default="mini",
                        choices=("mini", "dlx", "dlx_bp"),
                        help="machine to fuzz (default mini)")
    p_fuzz.add_argument("--iters", type=int, default=200,
                        help="fuzz iterations (default 200)")
    p_fuzz.add_argument("--seed", type=int, default=1)
    p_fuzz.add_argument("--length", type=int, default=12,
                        help="instructions per random program (default 12)")
    p_fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default 1 = in-process)")
    p_fuzz.add_argument("--budget", type=_parse_budget, default=None,
                        metavar="TIME",
                        help="wall-clock budget, e.g. 60s / 2m "
                             "(default: run all iterations)")
    p_fuzz.add_argument("--plant", metavar="SPEC", default=None,
                        help="plant an error model, e.g. "
                             "bus-ssl:alu_add.y:0:1, mse:alu_add, "
                             "boe:opa_mux — divergences become expected "
                             "detections")
    p_fuzz.add_argument("--lanes", type=int, default=None, metavar="N",
                        help="batched-kernel lane width: omit for auto "
                             "(batched when numpy is available), 0 for the "
                             "scalar kernels, N>=1 to batch N programs per "
                             "kernel call (reports are byte-identical at "
                             "any width)")
    p_fuzz.add_argument("--max-minimize", type=int, default=5,
                        help="minimize at most N diverging cases "
                             "(default 5)")
    p_fuzz.add_argument("--report-dir", metavar="DIR", default="fuzz-report",
                        help="directory for the JSON report and minimized "
                             "reproducers (default fuzz-report)")
    p_fuzz.add_argument("--matrix", action="store_true",
                        help="run the error-model conformance matrix "
                             "instead of the differential fuzzer")
    p_fuzz.add_argument("--matrix-machines", default="mini",
                        metavar="M[,M...]",
                        help="comma-separated machines for --matrix "
                             "(default mini)")
    p_fuzz.add_argument("--matrix-programs", type=int, default=16,
                        help="random programs per error — the detection "
                             "budget (default 16)")
    p_fuzz.add_argument("--matrix-sample", type=int, default=1,
                        help="keep every Nth enumerated error "
                             "(default 1 = all)")
    p_fuzz.add_argument("--baseline", metavar="PATH", default=None,
                        help="compare the matrix against a baseline "
                             "artifact; exit 1 on detectability "
                             "regressions")
    p_fuzz.add_argument("--json", metavar="OUT", default=None,
                        help="also write the structured event log to OUT")

    p_serve = sub.add_parser(
        "serve",
        help="run the persistent campaign service (HTTP/JSON; see "
             "docs/SERVICE.md)",
    )
    from repro.service.server import add_serve_arguments

    add_serve_arguments(p_serve)

    args = parser.parse_args(argv)
    handler = {
        "stats": cmd_stats,
        "table1": cmd_table1,
        "generate": cmd_generate,
        "minipipe": cmd_minipipe,
        "fuzz": cmd_fuzz,
        "serve": cmd_serve,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
