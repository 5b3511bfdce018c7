"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``optimize <primitive>`` — run Algorithm 1 on a library primitive and
  print the binned/tuned options; ``--run-dir``/``--resume`` checkpoint
  the sweep so a killed run restarts without re-simulating,
* ``flow <circuit> [--flavor ...]`` — run the hierarchical flow on one of
  the paper's circuits and print the measured metrics (same
  checkpointing flags),
* ``render <primitive>`` — generate a layout variant and write SVG +
  extracted SPICE to disk,
* ``verify <target>`` — statically verify layouts and netlists (DRC +
  connectivity + ERC + constraint/symmetry lint + the electrical
  audit); target is a primitive, ``all``, or a benchmark circuit.
  ``--severity`` picks the failure threshold, ``--waivers`` a lint
  baseline and ``--format json`` machine-readable output; ``--emag``,
  ``--antenna`` and ``--symmetry-geo`` toggle the static EM/IR,
  antenna/density and geometric-symmetry audits (all default on).
  Exits nonzero when any unwaived violation at or above the threshold
  is found,
* ``profile <target>`` — run a primitive optimization (or a circuit
  flow) and print the solver-kernel profile: per-phase
  timings (device eval / stamp / factor / solve), Newton iteration and
  factorization counts, stacked-solve counts and transient step and
  retried-step counts,
* ``ingest <file.sp>`` — parse a raw SPICE netlist, recognize analog
  primitives (diff pairs, mirrors, cascodes, cross-coupled pairs, ...)
  by subgraph matching, emit matching/symmetry constraints and report
  coverage/ambiguities as ``TOPO-*`` lint findings; ``--format json``
  prints a byte-deterministic machine-readable summary,
* ``list`` — list the primitive library and the benchmark circuits.

``flow`` also accepts ``--netlist <file.sp>`` instead of a circuit
name: the netlist is ingested and every recognized primitive with a
library binding is optimized by the flow (no measurement testbench, so
metrics are skipped).

``optimize`` and ``flow`` share the runtime flags ``--run-dir`` (the
checkpoint journals, the only state a run keeps on disk),
``--resume`` (needs ``--run-dir``) and ``--retries`` (≥ 0).
``--bins``, ``--fins``, ``--max-wires`` and ``verify --variants`` must
be ≥ 1.  Out-of-range values are usage errors.  The in-memory
evaluation cache is always on, and the MNA linear-solver backend is not
a flag either: it follows the system size
(:data:`repro.spice.kernel.SPARSE_MIN_SIZE`).
"""

from __future__ import annotations

import argparse
import sys

from repro import HierarchicalFlow, PrimitiveOptimizer, Technology
from repro.primitives import PrimitiveLibrary
from repro.reporting import format_table
from repro.runtime.policy import DEFAULT_RETRIES

CIRCUITS = {
    "csamp": "CommonSourceAmpCircuit",
    "ota": "FiveTransistorOta",
    "strongarm": "StrongArmComparator",
    "vco": "RingOscillatorVco",
}


def _build_circuit(name: str, tech: Technology):
    import repro.circuits as circuits

    try:
        cls = getattr(circuits, CIRCUITS[name])
    except KeyError:
        raise SystemExit(
            f"unknown circuit {name!r}; choose from {', '.join(CIRCUITS)}"
        )
    return cls(tech)


def cmd_list(args: argparse.Namespace) -> int:
    """List the primitive library and the benchmark circuits."""
    library = PrimitiveLibrary()
    print("Primitives:")
    for name in library.names():
        print(f"  {name}")
    print("\nCircuits:")
    for name in CIRCUITS:
        print(f"  {name}")
    return 0


def _at_least(cast, bound):
    """An argparse ``type`` accepting ``cast`` values >= ``bound``;
    anything else is a usage error."""

    def parse(text: str):
        value = cast(text)
        if not value >= bound:
            raise argparse.ArgumentTypeError(f"must be >= {bound}, got {text}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid <name> value"
    return parse


def cmd_optimize(args: argparse.Namespace) -> int:
    """Run Algorithm 1 on a library primitive and print the options."""
    tech = Technology.default()
    library = PrimitiveLibrary()
    primitive = library.create(args.primitive, tech, base_fins=args.fins)
    optimizer = PrimitiveOptimizer(
        n_bins=args.bins,
        max_wires=args.max_wires,
        retries=args.retries,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    from repro.runtime import graceful_shutdown

    with graceful_shutdown(run_dir=args.run_dir):
        report = optimizer.optimize(primitive)
    rows = []
    for result in report.tuned:
        o = result.option
        rows.append(
            [
                f"({o.base.nfin}, {o.base.nf}, {o.base.m})",
                o.pattern,
                f"{o.aspect_ratio:.2f}",
                f"{o.cost:.2f}",
            ]
        )
    print(
        format_table(
            ["(nfin, nf, m)", "pattern", "aspect", "cost"],
            rows,
            title=f"{args.primitive} ({args.fins} fins): "
            f"{report.total_simulations} simulations",
        )
    )
    if report.cached_evaluations:
        print(f"resumed: {report.cached_evaluations} evaluations from checkpoint")
    if report.cache_stats.get("hits"):
        print(
            f"cache: {report.cache_stats['hits']} evaluations answered "
            f"from content cache"
        )
    if report.failures:
        print(f"absorbed: {report.failures.summary()}")
    return 0


def cmd_flow(args: argparse.Namespace) -> int:
    """Run the hierarchical flow on a benchmark circuit or a netlist."""
    tech = Technology.default()
    if (args.circuit is None) == (args.netlist is None):
        raise SystemExit("flow needs a circuit name or --netlist, not both")
    if args.netlist is not None:
        from repro.ingest import IngestedCircuit
        from repro.ingest.pipeline import ingest_file

        ingested = ingest_file(args.netlist, tech=tech, validate=False)
        circuit = IngestedCircuit(ingested, tech)
        if not circuit.bindings():
            raise SystemExit(
                f"{args.netlist}: no recognized primitive has a library "
                f"binding; nothing to optimize (run `repro ingest` for "
                f"details)"
            )
        if circuit.skipped:
            print(f"skipped (no library binding): "
                  f"{', '.join(circuit.skipped)}")
        target = args.netlist
        measure = False
    else:
        circuit = _build_circuit(args.circuit, tech)
        target = args.circuit
        measure = args.circuit != "vco"  # the VCO needs a control sweep
    flow = HierarchicalFlow(
        tech,
        n_bins=args.bins,
        max_wires=args.max_wires,
        retries=args.retries,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    from repro.runtime import graceful_shutdown

    with graceful_shutdown(run_dir=args.run_dir):
        result = flow.run(circuit, flavor=args.flavor, measure=measure)
    print(f"{target} / {args.flavor}: "
          f"modeled runtime {result.modeled_runtime:.0f}s, "
          f"wall {result.wall_time:.1f}s")
    for key, value in result.metrics.items():
        print(f"  {key} = {value:.6g}")
    if result.reconciled:
        print("  reconciled routes: "
              + ", ".join(f"{n}={r.wires}" for n, r in result.reconciled.items()))
    if result.failures:
        print(f"  absorbed: {result.failures.summary()}")
    return 0


def _render_profile(profile: dict, title: str) -> str:
    """Solver-profile counter table (see ``SolverStats.as_dict``)."""
    rows = [
        ["device eval time", f"{profile.get('device_eval_s', 0.0):.3f} s"],
        ["stamp time", f"{profile.get('stamp_s', 0.0):.3f} s"],
        ["factor time", f"{profile.get('factor_s', 0.0):.3f} s"],
        ["solve time", f"{profile.get('solve_s', 0.0):.3f} s"],
        ["newton iterations", str(profile.get("newton_iterations", 0))],
        ["linear solves", str(profile.get("solves", 0))],
        ["factorizations", str(profile.get("factorizations", 0))],
        ["tran steps accepted", str(profile.get("tran_steps", 0))],
        ["tran steps rejected", str(profile.get("tran_rejected", 0))],
        ["stacked solve calls", str(profile.get("batched_solves", 0))],
        ["stacked solve members", str(profile.get("batch_members", 0))],
        ["stacked solve fallbacks", str(profile.get("batch_fallbacks", 0))],
    ]
    for kind, count in profile.get("analyses", {}).items():
        rows.append([f"{kind} analyses", str(count)])
    for backend, count in profile.get("backends", {}).items():
        rows.append([f"{backend} backend solves", str(count)])
    return format_table(["counter", "value"], rows, title=title)


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile the solver kernel across one optimization or flow run.

    Every evaluation executes in this process — sweeps on the stacked
    engine — so the kernel counters cover the whole run.
    """
    tech = Technology.default()
    if args.target in CIRCUITS:
        circuit = _build_circuit(args.target, tech)
        flow = HierarchicalFlow(
            tech,
            n_bins=args.bins,
            max_wires=args.max_wires,
        )
        result = flow.run(circuit, measure=args.target != "vco")
        profile = result.solver_profile
    else:
        library = PrimitiveLibrary()
        if args.target not in library:
            raise SystemExit(
                f"unknown target {args.target!r}; choose a primitive "
                f"(see `repro list`) or a circuit ({', '.join(CIRCUITS)})"
            )
        primitive = library.create(args.target, tech, base_fins=args.fins)
        optimizer = PrimitiveOptimizer(
            n_bins=args.bins,
            max_wires=args.max_wires,
        )
        report = optimizer.optimize(primitive)
        profile = report.solver_profile
    if not profile:
        print(f"{args.target}: no solver activity recorded")
        return 1
    print(_render_profile(profile, title=f"solver profile: {args.target}"))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    """Render a primitive layout to SVG and SPICE files."""
    from pathlib import Path

    from repro.io import layout_to_svg, write_spice

    tech = Technology.default()
    library = PrimitiveLibrary()
    primitive = library.create(args.primitive, tech, base_fins=args.fins)
    base = primitive.variants()[0]
    layout = primitive.generate(base, args.pattern)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.primitive}_{base.nfin}x{base.nf}x{base.m}_{args.pattern.lower()}"
    (outdir / f"{tag}.svg").write_text(layout_to_svg(layout))
    circuit = primitive.extract(layout, base).build_circuit()
    (outdir / f"{tag}.sp").write_text(write_spice(circuit))
    print(f"wrote {outdir / tag}.svg and .sp "
          f"({layout.width / 1000:.1f} x {layout.height / 1000:.1f} um)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Statically verify layouts and netlists: DRC + connectivity +
    ERC + constraints.

    Targets: a library primitive (every sizing variant x feasible
    pattern, bounded by ``--variants``), ``all`` (every primitive — ERC
    on the schematic plus the geometric passes when the primitive
    generates layouts), or a benchmark circuit (runs the flow and
    verifies the assembled placement).  Violations matching the waiver
    baseline (``--waivers``, default ``.reprolint.toml`` when present)
    are marked waived and ignored by the exit code.  Exits 1 when any
    unwaived violation at or above ``--severity`` is found.
    """
    import json

    from repro.cellgen.patterns import available_patterns
    from repro.primitives.base import MosPrimitive
    from repro.verify import load_waivers, verify_circuit, verify_layout

    tech = Technology.default()
    waivers = load_waivers(args.waivers)
    as_json = args.format == "json"
    reports = []

    if args.target in CIRCUITS:
        circuit = _build_circuit(args.target, tech)
        flow = HierarchicalFlow(
            tech, n_bins=2, max_wires=args.max_wires, waivers=waivers
        )
        result = flow.run(circuit, flavor=args.flavor, measure=False)
        assert result.verification is not None
        reports.append(result.verification)
    else:
        library = PrimitiveLibrary()
        names = library.names() if args.target == "all" else [args.target]
        for name in names:
            if name not in library:
                raise SystemExit(
                    f"unknown target {name!r}; choose a primitive "
                    f"(see `repro list`), a circuit "
                    f"({', '.join(CIRCUITS)}), or 'all'"
                )
            try:
                primitive = library.create(name, tech, base_fins=args.fins)
            except TypeError:
                primitive = None
            if primitive is not None and args.erc:
                erc_report = verify_circuit(
                    primitive.schematic_circuit(), waivers=waivers
                )
                erc_report.target = f"{name} (schematic ERC)"
                reports.append(erc_report)
            if not isinstance(primitive, MosPrimitive):
                # Passive primitives synthesize netlists, not layouts.
                if args.target != "all" and primitive is None:
                    raise SystemExit(
                        f"{name!r} does not generate layouts; nothing to "
                        f"verify"
                    )
                continue
            for base in primitive.variants()[: args.variants]:
                matched = list(primitive.matched_group())
                counts = {
                    t.name: base.m * t.m_ratio
                    for t in primitive.templates()
                    if t.name in matched
                }
                for pattern in available_patterns(matched, counts):
                    layout = primitive.generate(base, pattern, verify=False)
                    report = verify_layout(
                        layout,
                        tech,
                        spec=primitive.cell_spec(base),
                        constraints=args.constraints,
                        waivers=waivers,
                        emag=args.emag,
                        antenna=args.antenna,
                        symmetry_geo=args.symmetry_geo,
                    )
                    report.target = (
                        f"{name} ({base.nfin}x{base.nf}x{base.m}, {pattern})"
                    )
                    reports.append(report)

    if not reports:
        raise SystemExit(
            f"nothing verified for {args.target!r} (check --variants)"
        )
    failed = False
    if as_json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    for report in reports:
        bad = report.fails(args.severity)
        failed = failed or bad
        if not as_json:
            if bad or args.verbose:
                print(report.render_text(max_per_rule=args.max_per_rule))
            else:
                print(report.summary())
    return 1 if failed else 0


def cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest a raw SPICE netlist: recognize primitives, emit constraints.

    Parses the netlist (``.subckt`` hierarchy, continuation lines and
    engineering suffixes included), canonicalizes it into a device
    graph, recognizes analog primitives by deterministic subgraph
    matching, emits matching/symmetry constraints, validates them
    against the cell generator, and reports coverage gaps and
    ambiguities as ``TOPO-*`` findings (plus schematic ERC).  Output is
    byte-deterministic: repeated runs emit identical text.  Exits 1 when
    any unwaived violation at or above ``--severity`` is found.
    """
    import json

    from repro.ingest.pipeline import ingest_file
    from repro.verify import load_waivers

    tech = Technology.default()
    waivers = load_waivers(args.waivers)
    result = ingest_file(
        args.netlist, tech=tech, waivers=waivers,
        validate=args.validate,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        summary = result.to_dict()
        print(f"ingest: {result.source}")
        print(f"  circuit {summary['circuit']}: "
              f"{summary['n_elements']} elements "
              f"({summary['n_mos']} MOS), {summary['n_nets']} nets, "
              f"ports: {' '.join(summary['ports']) or '-'}")
        print(f"  recognized {len(result.primitives)} primitives, "
              f"coverage {100.0 * result.coverage:.1f}%")
        for prim in result.primitives:
            devices = ", ".join(name for _, name in prim.match.devices)
            line = f"    {prim.name}: {devices}"
            if prim.binding is not None:
                line += (f" -> {prim.binding.family}"
                         f"(base_fins={prim.binding.base_fins}"
                         + (f", ratio={prim.binding.ratio}"
                            if prim.binding.ratio != 1 else "")
                         + ")")
            print(line)
            if prim.spec is not None and prim.spec.symmetric_pairs:
                pairs = ", ".join(
                    f"({a}, {b})" for a, b in prim.spec.symmetric_pairs
                )
                print(f"      symmetric: {pairs}")
        if result.recognition.uncovered:
            print("  uncovered: "
                  + ", ".join(result.recognition.uncovered))
        print(f"  {result.report.summary()}")
        if result.report.violations:
            print(result.report.render_text(max_per_rule=args.max_per_rule))
    return 1 if result.report.fails(args.severity) else 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _at_least(int, 1)

    sub.add_parser("list", help="list primitives and circuits")

    def add_runtime_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--run-dir",
            default=None,
            help="directory for sweep-checkpoint journals",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="resume from the journals in --run-dir",
        )
        p.add_argument(
            "--retries",
            type=_at_least(int, 0),
            default=DEFAULT_RETRIES,
            help="retries per failed evaluation",
        )

    p_opt = sub.add_parser("optimize", help="run Algorithm 1 on a primitive")
    p_opt.add_argument("primitive")
    p_opt.add_argument("--fins", type=positive, default=96)
    p_opt.add_argument("--bins", type=positive, default=3)
    p_opt.add_argument("--max-wires", type=positive, default=5)
    add_runtime_args(p_opt)

    p_flow = sub.add_parser("flow", help="run the hierarchical flow")
    p_flow.add_argument(
        "circuit", nargs="?", default=None, choices=sorted(CIRCUITS),
        help="benchmark circuit (omit when using --netlist)",
    )
    p_flow.add_argument(
        "--netlist",
        default=None,
        metavar="FILE.SP",
        help="ingest a raw SPICE netlist and run the flow on its "
        "recognized primitives (measurement is skipped)",
    )
    p_flow.add_argument(
        "--flavor",
        default="this_work",
        choices=["this_work", "conventional", "manual"],
    )
    p_flow.add_argument("--bins", type=positive, default=2)
    p_flow.add_argument("--max-wires", type=positive, default=5)
    add_runtime_args(p_flow)

    p_verify = sub.add_parser(
        "verify",
        help="statically verify layouts and netlists "
        "(DRC + connectivity + ERC + constraints)",
    )
    p_verify.add_argument(
        "target",
        help="primitive name, circuit name, or 'all'",
    )
    p_verify.add_argument("--fins", type=positive, default=96)
    p_verify.add_argument(
        "--variants",
        type=positive,
        default=2,
        help="sizing variants to check per primitive",
    )
    p_verify.add_argument(
        "--flavor",
        default="conventional",
        choices=["this_work", "conventional", "manual"],
        help="flow flavor when verifying a circuit",
    )
    p_verify.add_argument("--max-wires", type=positive, default=5)
    p_verify.add_argument(
        "--erc",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run electrical-rule checks on schematic netlists",
    )
    p_verify.add_argument(
        "--constraints",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the constraint/symmetry analyzer on layouts",
    )
    p_verify.add_argument(
        "--emag",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the static EM / IR-drop audit on layouts",
    )
    p_verify.add_argument(
        "--antenna",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the antenna-ratio / metal-density audit on layouts",
    )
    p_verify.add_argument(
        "--symmetry-geo",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the geometric symmetry-realization audit on layouts",
    )
    p_verify.add_argument(
        "--severity",
        default="error",
        choices=["error", "warning"],
        help="exit nonzero on unwaived violations at or above this "
        "severity (default: error)",
    )
    p_verify.add_argument(
        "--waivers",
        default=None,
        metavar="PATH",
        help="waiver baseline file (default: .reprolint.toml when present)",
    )
    p_verify.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report output format",
    )
    p_verify.add_argument(
        "--verbose",
        action="store_true",
        help="print full reports even when clean",
    )
    p_verify.add_argument("--max-per-rule", type=int, default=5)

    p_ingest = sub.add_parser(
        "ingest",
        help="parse a raw SPICE netlist, recognize primitives and emit "
        "lint constraints",
    )
    p_ingest.add_argument("netlist", help="path to a .sp netlist file")
    p_ingest.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="output format (json is byte-deterministic)",
    )
    p_ingest.add_argument(
        "--validate",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="generate each emitted constraint spec and run the CONST "
        "checks against it",
    )
    p_ingest.add_argument(
        "--severity",
        default="error",
        choices=["error", "warning"],
        help="exit nonzero on unwaived violations at or above this "
        "severity (default: error)",
    )
    p_ingest.add_argument(
        "--waivers",
        default=None,
        metavar="PATH",
        help="waiver baseline file (default: .reprolint.toml when present)",
    )
    p_ingest.add_argument("--max-per-rule", type=int, default=5)

    p_prof = sub.add_parser(
        "profile",
        help="run an optimization or flow and print the solver-kernel "
        "profile",
    )
    p_prof.add_argument(
        "target",
        help="primitive name or circuit name",
    )
    p_prof.add_argument("--fins", type=positive, default=96)
    p_prof.add_argument("--bins", type=positive, default=2)
    p_prof.add_argument("--max-wires", type=positive, default=5)

    p_render = sub.add_parser("render", help="render a primitive layout")
    p_render.add_argument("primitive")
    p_render.add_argument("--fins", type=positive, default=96)
    p_render.add_argument("--pattern", default="ABAB")
    p_render.add_argument("--outdir", default="out")

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.run_dir:
        parser.error("--resume requires --run-dir")
    handlers = {
        "list": cmd_list,
        "optimize": cmd_optimize,
        "flow": cmd_flow,
        "profile": cmd_profile,
        "render": cmd_render,
        "verify": cmd_verify,
        "ingest": cmd_ingest,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
