"""Command-line front end.

JSON in and out everywhere except region scans, which are CSV.  Exit
codes: 0 success, 1 I/O failure, 2 domain error, 3 internal-consistency
error, 64 usage.  All randomness is seeded, so identical argv plus seed
give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import DomainError, InternalConsistencyError, NonCommutingInputError
# every default the parser prints; limits imports no numpy
from .limits import (
    BERGER_MAXDEG,
    BERGER_TOL,
    COMMUTATIVITY_TOL,
    DEFAULT_KMAX,
    DEFAULT_LADDER,
    DEFAULT_LEVEL,
    DEFAULT_SCAN_LEVEL,
    DEFAULT_SEED,
    DEFAULT_WINDOW,
    PSD_TOL,
    QUASINORMAL_LEVEL,
    QUASINORMAL_WINDOW,
    STAMPFLI_COUNT,
    TARGETS,
)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    from .serialize import dumps

    _emit(dumps(obj), out)


def _load_diagram(path: str):
    from .serialize import diagram_from_obj, load_json

    return diagram_from_obj(load_json(path))


def _triple(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers a,b,c")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r} as numbers") from None


def _nonneg(convert, what: str):
    """argparse type: convert(text) if it is finite and >= 0, else a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}") from None
        if not 0 <= value < math.inf:  # also refuses NaN
            raise argparse.ArgumentTypeError(f"must be a {what}, got {text!r}")
        return value

    return parse


_nonneg_int = _nonneg(int, "non-negative integer")
_tolerance = _nonneg(float, "finite non-negative number")


def _usage_error(prog: str, message: str) -> int:
    """Write the one-line usage message and return the usage exit code."""
    sys.stderr.write(f"{prog}: error: {message} (see --help)\n")
    return 64


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 64, not 2, with a one-line message."""

    def error(self, message):
        raise SystemExit(_usage_error(self.prog, message))

    def _get_values(self, action, arg_strings):
        if action.nargs is None and arg_strings == ["--"]:  # "--flag=--" would parse as []
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_transform(args) -> int:
    if args.kind == "spherical" and args.tol is not None:
        # the spherical guard's cut is fixed, so a tolerance would be ignored
        return _usage_error("aluthge-lab transform", "--tol applies only to --kind toral")
    from .diagrams import commutativity_residual
    from .serialize import diagram_to_obj
    from .transforms import spherical_transform, toral_transform

    W = _load_diagram(args.input)
    w = args.window
    source = diagram_to_obj(W)
    if args.kind == "spherical":
        out_diag = spherical_transform(W, window=w)
        resid, _ = commutativity_residual(out_diag, w)
        report = {"transform": "spherical", "window": w, "input": source,
                  "commutativity_residual": resid}
    else:
        res = toral_transform(W, window=w, tol=COMMUTATIVITY_TOL if args.tol is None else args.tol)
        if args.out and not res.commutes:
            raise NonCommutingInputError(
                "refusing to write a non-commuting toral candidate "
                f"(direct residual {res.direct_residual:.3e} at {res.direct_witness})"
            )
        out_diag = res.diagram
        report = {"transform": "toral", "window": w, "input": source,
                  "commutes": res.commutes,
                  "condition_residual": res.condition_residual,
                  "direct_residual": res.direct_residual}
    A, B = out_diag.weight_arrays(w + 1, w + 1)
    report["alpha"] = A
    report["beta"] = B
    _emit_json(report, args.out)
    return 0


def _cmd_hypo(args) -> int:
    from .positivity import full_hypo_report

    W = _load_diagram(args.input)
    report = full_hypo_report(W, args.level, kmax=args.kmax, tol=args.tol)
    obj = {
        "N": args.level,
        "joint": report.joint,
        "componentwise": list(report.componentwise),
        "joint_min_eig": report.joint_min_eig,
        "k_hypo": {str(k): v for k, v in report.k_hypo.items()},
        "levels": {str(k): v for k, v in report.levels.items()},
    }
    if report.worst_witness is not None:
        k, M = report.worst_witness
        obj["worst_witness"] = {"k": list(k), "matrix": M}
    _emit_json(obj, args.out)
    return 0


def _cmd_khypo(args) -> int:
    from .positivity import k_hyponormal_verdict

    W = _load_diagram(args.input)
    level = args.level if args.level is not None else 4 * args.k + 2
    v = k_hyponormal_verdict(W, args.k, level, tol=args.tol)
    _emit_json({"k": args.k, "N": level, "is_psd": v.is_psd,
                "min_eigenvalue": v.min_eigenvalue, "dim": v.dim, "tol": v.tol},
               args.out)
    return 0


def _cmd_quasinormal(args) -> int:
    from .measures import quasinormal_completion, quasinormality_routes
    from .serialize import diagram_to_obj, load_json, omega_from_obj

    if args.action == "complete":
        om = omega_from_obj(load_json(args.omega))
        W = quasinormal_completion(om, args.constant)
        w = args.window
        A, B = W.weight_arrays(w + 1, w + 1)
        _emit_json({"diagram": diagram_to_obj(W), "window": w, "alpha": A, "beta": B},
                   args.out)
    else:
        W = _load_diagram(args.input)
        r = quasinormality_routes(W, window=args.window, N=args.level)
        flags = (r["constant_sum"], r["fixed_point"], r["interior_diagonal"])
        r["agree"] = len(set(flags)) == 1
        _emit_json(r, args.out)
    return 0


def _cmd_stampfli(args) -> int:
    from .measures import stampfli
    from .serialize import omega_to_obj

    d = stampfli(*args.triple)
    _emit_json({
        "a": d.a, "b": d.b, "c": d.c,
        "phi0": d.phi0, "phi1": d.phi1,
        "atoms": {"s0": d.s0, "s1": d.s1, "rho0": d.rho0, "rho1": d.rho1},
        "weights": d.weights.prefix(args.count),
        "omega": omega_to_obj(d.weights),
    }, args.out)
    return 0


def _cmd_berger(args) -> int:
    from .measures import (berger_atomic_verify, quasinormal2_measure, quasinormal_completion,
                           stampfli)
    from .serialize import load_json, measure_from_obj

    if args.triple is not None:
        data = stampfli(*args.triple)
        W = quasinormal_completion(data.weights, data.phi1)
        mu = quasinormal2_measure(*args.triple)
    else:
        if not (args.input and args.measure):
            raise DomainError("need either --triple or both --input and --measure")
        W = _load_diagram(args.input)
        mu = measure_from_obj(load_json(args.measure))
    err = berger_atomic_verify(W, mu, args.maxdeg)
    _emit_json({
        "maxdeg": args.maxdeg,
        "max_rel_error": err,
        "tol": args.tol,
        "pass": err <= args.tol,
        "atoms": [list(a) for a in mu.atoms],
    }, args.out)
    return 0


def _cmd_regions(args) -> int:
    from .regions import classify, crossing_q, region_scan

    if args.action == "q":
        _emit_json({"q": crossing_q()}, args.out)
    elif args.action == "classify":
        rep = classify(args.x, args.y, N=args.level, kmax=args.kmax)
        _emit_json({
            "x": rep.x, "y": rep.y,
            "curves": {"s": rep.curves.s, "h": rep.curves.h,
                       "CA": rep.curves.CA, "PA": rep.curves.PA},
            "closed_form": rep.closed,
            "numeric": rep.numeric,
            "k_hypo": {str(k): v for k, v in rep.k_hypo.items()},
        }, args.out)
    else:
        lines = region_scan(args.grid, N=args.level, ladder=args.ladder)
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_probe_continuity(args) -> int:
    from .transforms import continuity_probe

    W = _load_diagram(args.input)
    probe = continuity_probe(W, args.level, args.n)
    _emit_json({
        "N": probe.N,
        "n": probe.n,
        "lemma_re4": probe.bound_report,
        "all_hold": probe.all_hold,
    }, args.out)
    return 0


def _cmd_reproduce(args) -> int:
    from .reproduce import run_target

    # each target's text is what a run of that target alone prints
    targets = [t for name in args.targets for t in (TARGETS if name == "all" else (name,))]
    text = "".join("\n\n".join(r.table() for r in run_target(t, seed=args.seed)) + "\n"
                   for t in targets)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built once per process: parse_args leaves it unchanged."""
    p = _Parser(prog="aluthge-lab",
                description="Numerical lab for toral and spherical Aluthge "
                            "transforms of 2-variable weighted shifts.")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, window=None, level=None, tol=None):
        if window is not None:
            sp.add_argument("--window", "-w", type=_nonneg_int, default=window,
                            help=f"evaluation window (default {window})")
        if level is not None:
            sp.add_argument("--level", "-N", dest="level", type=_nonneg_int, default=level,
                            help=f"truncation level (default {level})")
        if tol is not None:
            sp.add_argument("--tol", type=_tolerance, default=tol,
                            help=f"tolerance override (default {tol:g})")
        sp.add_argument("--out", "-o", help="write output to this path instead of stdout")

    sp = sub.add_parser("transform", help="apply a transform to a diagram")
    sp.add_argument("--kind", choices=("toral", "spherical"), required=True)
    sp.add_argument("--input", required=True, help="diagram JSON path")
    sp.add_argument("--tol", type=_tolerance, default=None,
                    help=f"cut of the toral candidate's commutativity verdict (default "
                         f"{COMMUTATIVITY_TOL:g}); refused with --kind spherical")
    common(sp, window=DEFAULT_WINDOW)
    sp.set_defaults(func=_cmd_transform)

    sp = sub.add_parser("hypo", help="joint and componentwise hyponormality report")
    sp.add_argument("--input", required=True)
    sp.add_argument("--kmax", type=_nonneg_int, default=DEFAULT_KMAX,
                    help=f"highest order to test (default {DEFAULT_KMAX})")
    common(sp, level=DEFAULT_LEVEL, tol=PSD_TOL)
    sp.set_defaults(func=_cmd_hypo)

    sp = sub.add_parser("khypo", help="k-hyponormality verdict at one order")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--tol", type=_tolerance, default=PSD_TOL)
    sp.add_argument("--level", "-N", dest="level", type=_nonneg_int, default=None,
                    help="truncation level (default 4k+2)")
    sp.add_argument("--out", "-o")
    sp.set_defaults(func=_cmd_khypo)

    sp = sub.add_parser("quasinormal", help="constant-sum completions and detection")
    qsub = sp.add_subparsers(dest="action", required=True, parser_class=_Parser)
    spc = qsub.add_parser("complete", help="complete a zeroth row to constant alpha^2+beta^2")
    spc.add_argument("--omega", required=True, help="weight sequence JSON path")
    spc.add_argument("--constant", "-C", type=float, required=True)
    common(spc, window=QUASINORMAL_WINDOW)
    spc.set_defaults(func=_cmd_quasinormal)
    spk = qsub.add_parser("check", help="run the three quasinormality detections")
    spk.add_argument("--input", required=True)
    common(spk, window=QUASINORMAL_WINDOW, level=QUASINORMAL_LEVEL)
    spk.set_defaults(func=_cmd_quasinormal)

    sp = sub.add_parser("stampfli", help="two-atom measure with prescribed first weights")
    sp.add_argument("--triple", type=_triple, required=True, metavar="a,b,c")
    sp.add_argument("--count", type=_nonneg_int, default=STAMPFLI_COUNT,
                    help=f"weights to print (default {STAMPFLI_COUNT})")
    sp.add_argument("--out", "-o")
    sp.set_defaults(func=_cmd_stampfli)

    sp = sub.add_parser("berger", help="verify an atomic Berger measure")
    bsub = sp.add_subparsers(dest="action", required=True, parser_class=_Parser)
    spv = bsub.add_parser("verify", help="compare diagram moments against a measure")
    spv.add_argument("--triple", type=_triple, default=None, metavar="a,b,c",
                     help="canonical completion and measure for this triple")
    spv.add_argument("--input", help="diagram JSON (with --measure)")
    spv.add_argument("--measure", help="measure JSON (with --input)")
    spv.add_argument("--maxdeg", type=_nonneg_int, default=BERGER_MAXDEG)
    spv.add_argument("--tol", type=_tolerance, default=BERGER_TOL)
    spv.add_argument("--out", "-o")
    spv.set_defaults(func=_cmd_berger)

    sp = sub.add_parser("regions", help="threshold curves for the corner family")
    rsub = sp.add_subparsers(dest="action", required=True, parser_class=_Parser)
    spq = rsub.add_parser("q", help="crossing point of the CA and s curves")
    spq.add_argument("--out", "-o")
    spq.set_defaults(func=_cmd_regions)
    spc = rsub.add_parser("classify", help="closed-form and numerical verdicts at (x, y)")
    spc.add_argument("--x", type=float, required=True)
    spc.add_argument("--y", type=float, required=True)
    spc.add_argument("--kmax", type=_nonneg_int, default=DEFAULT_KMAX)
    common(spc, level=DEFAULT_SCAN_LEVEL)
    spc.set_defaults(func=_cmd_regions)
    sps = rsub.add_parser("scan", help="CSV scan over a y-grid with an x-ladder per row")
    sps.add_argument("--grid", type=int, required=True)
    sps.add_argument("--ladder", type=int, default=DEFAULT_LADDER)
    common(sps, level=DEFAULT_SCAN_LEVEL)
    sps.set_defaults(func=_cmd_regions)

    sp = sub.add_parser("probe-continuity", help="regularization bounds at one n")
    sp.add_argument("--input", required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp, level=DEFAULT_LEVEL)
    sp.set_defaults(func=_cmd_probe_continuity)

    sp = sub.add_parser("reproduce", help="run named experiment suites")
    sp.add_argument("targets", nargs="+", choices=(*TARGETS, "all"), metavar="target",
                    help=f"targets to run in order, in one process: {', '.join(TARGETS)}, "
                         "or all (each of those in turn)")
    sp.add_argument("--seed", type=_nonneg_int, default=DEFAULT_SEED,
                    help=f"generator seed for the property suites (default {DEFAULT_SEED})")
    sp.add_argument("--out", "-o")
    sp.set_defaults(func=_cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
