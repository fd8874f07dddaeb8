"""Command-line interface.

Subcommands
-----------
exact            closed-form Escobar constants for disks and regular polygons
construct        build a named tuple family (equal, inscribed, corner, stripe)
optimize         numerical upper bound for I_k via the search engines
conjecture-scan  table comparing regular polygons against the disk
symmetry-audit   structural + Monte-Carlo audit of cap symmetrization
render           SVG picture of a domain and an optional tuple

One table, ``_COMMANDS``, holds each command's name, help line, argument
builder and handler.  ``main`` builds the full parser, with every command,
for help and errors (``escobar -h``, ``--version``, an argv whose first word
names no command), and otherwise a parser with only the command that argv
names; both give the same namespace, output and exit code.

Exit codes: 0 success, 2 usage error, 3 invalid input/geometry.  A search
has no work limit to exceed: its grid is at most 5000 points.  Every ``--out`` file gets a ``<out>.manifest.json`` sidecar with
SHA-256 digests, the configuration echo, seed, version, and wall-clock time.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict
from typing import Optional

from . import __version__
from .constructions import (
    corner_tuple,
    equal_boundary_tuple,
    inscribed_kgon_tuple,
    stripe_tuple,
)
from .errors import (
    EscobarError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
)
from .exact import disk_dominance_check, ik_exact
from .geometry import (
    domain_from_json,
    domain_to_json,
    make_disk,
    make_polygon,
    make_regular_polygon,
)
from .manifest import write_manifest
from .regions import eta_partial, tuple_from_json, tuple_to_json
from .render import render_svg
from .search import SearchConfig, estimate_ik, report_to_json
from .symmetry import audit_symmetrization


def _parse_int_range(text: str) -> list[int]:
    """Accepts '4', '2..8', or '2,3,5'; other text, or one that names no
    integer, raises InvalidParameterError quoting it."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise InvalidParameterError(
            f"expected an integer, a range 'a..b' or a list 'a,b,c', got {text!r}"
        ) from None
    if not values:
        raise InvalidParameterError(f"empty range: {text!r}")
    return values


def _add_domain_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--domain", metavar="FILE", help="domain JSON file")
    g.add_argument(
        "--disk",
        nargs="?",
        const=1.0,
        type=float,
        metavar="RADIUS",
        help="round disk (default radius 1)",
    )
    g.add_argument("--ngon", type=int, metavar="N", help="regular N-gon, circumradius 1")
    g.add_argument(
        "--rect", nargs=2, type=float, metavar=("W", "H"), help="axis-aligned rectangle"
    )


def _load_domain(args):
    if getattr(args, "domain", None):
        with open(args.domain) as f:
            data = json.load(f)
        return domain_from_json(data)
    if getattr(args, "disk", None) is not None:
        return make_disk(args.disk)
    if getattr(args, "ngon", None) is not None:
        return make_regular_polygon(args.ngon)
    if getattr(args, "rect", None):
        w, h = args.rect
        return make_polygon([(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)])
    raise InvalidParameterError(
        "no domain given (use --domain FILE, --disk, --ngon N, or --rect W H)"
    )


def _write_text(path: str, text: str, outputs: list[str]) -> None:
    with open(path, "w") as f:
        f.write(text)
    outputs.append(path)


def _write_json(path: str, data, outputs: list[str]) -> None:
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    outputs.append(path)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_exact(args, outputs: list[str]) -> int:
    domain = _load_domain(args)
    rows = []
    for k in _parse_int_range(args.k):
        bound = ik_exact(domain, k)
        rows.append((k, bound))
        print(f"I_{k} = {bound}")
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["k", "value", "kind", "provenance"])
            for k, bound in rows:
                w.writerow([k, f"{bound.value:.12g}", bound.kind.value, bound.provenance])
        outputs.append(args.out)
    return 0


def _cmd_construct(args, outputs: list[str]) -> int:
    if args.family == "inscribed":
        if args.ngon is None:
            raise InvalidParameterError("--family inscribed needs --ngon N")
        tc = inscribed_kgon_tuple(args.ngon, args.k)
        domain = tc.domain
    else:
        domain = _load_domain(args)
        if args.family == "equal":
            tc = equal_boundary_tuple(domain, args.k, args.offset)
        elif args.family == "corner":
            corner = args.corner
            if corner is None:
                corner = domain.sharpest_corner
                if corner is None:
                    raise NotApplicableError("domain has no strictly convex corner")
            tc = corner_tuple(domain, corner, args.k, args.epsilon)
        elif args.family == "stripe":
            tc = stripe_tuple(domain, args.k, args.height)
        else:  # pragma: no cover - argparse restricts choices
            raise InvalidParameterError(f"unknown family {args.family!r}")
    etas = [eta_partial(domain, r) for r in tc.regions]
    value = max(etas)
    for i, e in enumerate(etas):
        print(f"region {i}: eta = {e:.12g}")
    print(f"max eta = {value:.12g}")
    if args.out:
        payload = {
            "domain": domain_to_json(domain),
            "family": args.family,
            "k": args.k,
            "etas": etas,
            "max_eta": value,
        }
        payload.update(tuple_to_json(tc))
        _write_json(args.out, payload, outputs)
    if args.render:
        _write_text(args.render, render_svg(domain, tc), outputs)
    return 0


def _cmd_optimize(args, outputs: list[str]) -> int:
    domain = _load_domain(args)
    config = SearchConfig(
        grid_points=args.grid,
        families=tuple(args.families.split(",")),
        restarts=args.restarts,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    report = estimate_ik(domain, args.k, config)
    print(
        f"I_{args.k} <= {report.value:.12g} [{report.kind.value}] "
        f"via {report.method} ({report.evaluations} evaluations)"
    )
    if report.cross_label:
        print(f"cross-check: {report.cross_label}")
    if args.out:
        payload = {
            "domain": domain_to_json(domain),
            "k": args.k,
        }
        payload.update(report_to_json(report))
        _write_json(args.out, payload, outputs)
    if args.render and report.witness is not None:
        _write_text(args.render, render_svg(domain, report.witness), outputs)
    return 0


def _cmd_scan(args, outputs: list[str]) -> int:
    rows = []
    for n in _parse_int_range(args.n_range):
        if n < 3:
            raise InvalidParameterError(f"polygon order must be >= 3, got {n}")
        ks = _parse_int_range(args.k_range) if args.k_range else range(2, n)
        for k in ks:
            if not 1 <= k < n:
                continue
            ok, dn, dk = disk_dominance_check(n, k, tol=args.tol)
            rows.append(
                [
                    n,
                    k,
                    f"{dn.value:.12g}",
                    dn.kind.value,
                    f"{dk.value:.12g}",
                    "true" if ok else "false",
                ]
            )
    header = ["n", "k", "bound_dn", "kind", "ik_disk", "satisfied"]
    if args.out:
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
        outputs.append(args.out)
    else:
        w = csv.writer(sys.stdout)
        w.writerow(header)
        w.writerows(rows)
    bad = sum(1 for r in rows if r[-1] == "false")
    print(f"# {len(rows)} pairs scanned, {bad} violations", file=sys.stderr)
    return 0


def _cmd_symmetry_audit(args, outputs: list[str]) -> int:
    report = audit_symmetrization(args.ngon, trials=args.trials, seed=args.seed)
    print(f"symmetrization audit for the regular {report.n}-gon")
    print(
        f"  random caps: {report.trials} trials, "
        f"{report.inequality_violations} violations, "
        f"worst slack {report.worst_slack:.3e}"
    )
    print(
        f"  crossover at {report.crossover_ratio:.12g} side lengths "
        f"(in (1, 1.5]: {'yes' if report.crossover_in_range else 'NO'})"
    )
    print(f"  profiles nonincreasing: {'yes' if report.monotone_ok else 'NO'}")
    print(f"  equal-split envelope: {'yes' if report.envelope_ok else 'NO'}")
    print(f"overall: {'OK' if report.ok else 'FAIL'}")
    if args.out:
        payload = asdict(report)
        payload["ok"] = report.ok
        _write_json(args.out, payload, outputs)
    return 0


def _cmd_render(args, outputs: list[str]) -> int:
    tc = None
    if args.tuple:
        with open(args.tuple) as f:
            data = json.load(f)
        if not isinstance(data, dict):  # "domain" in a string tests a substring
            raise InvalidGeometryError("tuple JSON must be an object with a 'regions' list")
        if "domain" in data:
            domain = domain_from_json(data["domain"])
        else:
            domain = _load_domain(args)
        if "witness" in data:
            data = data["witness"]  # an optimize report
        tc = tuple_from_json(domain, data)
    else:
        domain = _load_domain(args)
    svg = render_svg(domain, tc, width=args.width)
    if args.out:
        _write_text(args.out, svg, outputs)
    else:
        sys.stdout.write(svg)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _exact_args(p: argparse.ArgumentParser) -> None:
    _add_domain_args(p)
    p.add_argument("--k", required=True, help="k value, range 'a..b', or list 'a,b,c'")
    p.add_argument("--out", help="write a CSV table here")


def _construct_args(p: argparse.ArgumentParser) -> None:
    _add_domain_args(p)
    p.add_argument(
        "--family",
        required=True,
        choices=["equal", "inscribed", "corner", "stripe"],
    )
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--offset", type=float, help="equal: first cut arclength")
    p.add_argument("--corner", type=int, help="corner: vertex index (default sharpest)")
    p.add_argument("--epsilon", type=float, default=1e-6, help="corner: schedule scale")
    p.add_argument("--height", type=float, help="stripe: stripe height")
    p.add_argument("--out", help="write tuple JSON here")
    p.add_argument("--render", help="write an SVG here")


def _optimize_args(p: argparse.ArgumentParser) -> None:
    _add_domain_args(p)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--grid", type=int, help="force this enumeration grid size")
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-7)
    p.add_argument(
        "--families",
        default="caps,corner-strips",
        help="comma list of search families",
    )
    p.add_argument("--out", help="write a JSON report here")
    p.add_argument("--render", help="write the witness SVG here")


def _scan_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-range", required=True, help="polygon orders, e.g. '4..12'")
    p.add_argument("--k-range", help="restrict k (default 2..n-1)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="write the CSV here (default stdout)")


def _symmetry_audit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ngon", type=int, required=True)
    p.add_argument("--trials", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a JSON report here")


def _render_args(p: argparse.ArgumentParser) -> None:
    _add_domain_args(p)
    p.add_argument("--tuple", help="tuple JSON produced by construct/optimize")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--out", help="write the SVG here (default stdout)")


#: Each command's help line, argument builder and handler, in the order
#: ``escobar -h`` lists them.
_COMMANDS = {
    "exact": ("closed-form values for disks/regular polygons", _exact_args, _cmd_exact),
    "construct": ("build a named tuple family", _construct_args, _cmd_construct),
    "optimize": ("numerical upper bound for I_k", _optimize_args, _cmd_optimize),
    "conjecture-scan": ("regular polygons vs the disk, k < n", _scan_args, _cmd_scan),
    "symmetry-audit": (
        "audit cap symmetrization on an n-gon", _symmetry_audit_args, _cmd_symmetry_audit
    ),
    "render": ("SVG picture of a domain / tuple", _render_args, _cmd_render),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``escobar`` parser, with every command or only ``command``.

    Without ``command`` every command is registered: this is the parser for
    ``escobar -h``, ``--version`` and any argv whose first word names no
    command, so help and errors list them all.  With a command, only that
    one is registered, and the commands' metavar is set to the full list, so
    a usage line the top-level parser prints reads the same.  Both parse an
    argv that starts with ``command`` to the same namespace, with the same
    output and exit code.
    """
    parser = argparse.ArgumentParser(
        prog="escobar",
        description="Escobar isoperimetric constants of planar domains",
    )
    parser.add_argument("--version", action="version", version=f"escobar {__version__}")
    # an explicit metavar would rename the action in the full parser's errors
    # ("argument command: invalid choice"), so only the one-command parser sets it
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_args, handler) in _COMMANDS.items():
        if command is None or name == command:
            p = sub.add_parser(name, help=help_text)
            add_args(p)
            p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    t0 = time.monotonic()
    outputs: list[str] = []
    try:
        rc = args.func(args, outputs)
    except (EscobarError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if rc == 0 and outputs:
        primary = getattr(args, "out", None) or outputs[0]
        config = {
            key: value
            for key, value in vars(args).items()
            if key != "func" and not callable(value)
        }
        write_manifest(
            primary,
            command=args.command,
            config=config,
            seed=getattr(args, "seed", None),
            version=__version__,
            outputs=outputs,
            wall_clock_seconds=time.monotonic() - t0,
        )
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
