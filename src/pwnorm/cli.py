"""Batch command-line front-end.

One invocation runs one command against a config (space expression) and
optionally a vector file, prints a human-readable report, and can write
the same results as a CSV row.  All floating-point output uses 15
significant digits; CSV output is byte-stable for fixed inputs and seed.

Vector files hold one entry per line::

    1 1 : 0.5            # point (1,1) with coefficient 0.5
    block 2 1 2 3 51 : 0.25   # template (2,1), coord 2 runs 3..51

Exit codes: 0 success, 2 parse/validation errors, 3 capacity errors,
4 file I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Sequence

from . import norms
from .config import build_space, build_weight, format_node, parse_config
from .envelope import distortion_certificate, envelope_norm_exact, has_envelope_property
from .errors import CapacityError, ParseError, PwnormError, ValidationError
from .experiments import rosenthal_mc, yn_default_params, yn_report
from .norms import family_norm
from .spaces import classify_rosenthal
from .vectors import ConstantBlock, SparseVector
from .weights import PowerDecay

__all__ = ["main", "read_vector", "read_variables", "fmt"]

COMMANDS = (
    "norm",
    "envelope",
    "distortion",
    "classify",
    "check-envelope-property",
    "experiment-yn",
    "experiment-rosenthal",
)


def fmt(v: float) -> str:
    return "%.15g" % (v,)


# ---------------------------------------------------------------------------
# input files

def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def read_vector(path: str, arity: int) -> SparseVector:
    """Parse a vector file into a sparse vector of the given arity."""
    entries: list[tuple[tuple[int, ...], float]] = []
    blocks: list[ConstantBlock] = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            if ":" not in line:
                raise ParseError(f"{path}:{no}: missing ':' before the value")
            left, _, right = line.partition(":")
            toks = left.split()
            try:
                value = float(right.strip())
            except ValueError:
                raise ParseError(f"{path}:{no}: bad value {right.strip()!r}") from None
            if toks and toks[0] == "block":
                body = toks[1:]
                if len(body) != arity + 3:
                    raise ParseError(
                        f"{path}:{no}: block lines need {arity} template coordinates "
                        "plus running_coord lo hi"
                    )
                try:
                    nums = [int(t) for t in body]
                except ValueError:
                    raise ParseError(f"{path}:{no}: block coordinates must be integers") from None
                tmpl, (rc, lo, hi) = nums[:arity], nums[arity:]
                blocks.append(
                    ConstantBlock(
                        template=tuple(tmpl), running_coord=rc, lo=lo, hi=hi, coeff=value
                    )
                )
            else:
                if len(toks) != arity:
                    raise ParseError(
                        f"{path}:{no}: expected {arity} coordinates, got {len(toks)}"
                    )
                try:
                    idx = tuple(int(t) for t in toks)
                except ValueError:
                    raise ParseError(f"{path}:{no}: coordinates must be integers") from None
                entries.append((idx, value))
    if not entries and not blocks:
        raise ParseError(f"{path}: no entries")
    return SparseVector(arity=arity, entries=tuple(entries), blocks=tuple(blocks))


def read_variables(path: str) -> list[tuple[float, float]]:
    """Parse an `a q`-per-line variables file for the moment experiment."""
    out: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for no, raw in enumerate(fh, 1):
            line = _strip(raw)
            if not line:
                continue
            toks = line.split()
            if len(toks) != 2:
                raise ParseError(f"{path}:{no}: expected 'amplitude probability'")
            try:
                out.append((float(toks[0]), float(toks[1])))
            except ValueError:
                raise ParseError(f"{path}:{no}: bad number") from None
    if not out:
        raise ParseError(f"{path}: no variables")
    return out


# ---------------------------------------------------------------------------
# output

def _write_csv(path: str, header: Sequence[str], row: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerow(row)


def _need(args, what: str, flag: str):
    v = getattr(args, what)
    if v is None:
        raise ValidationError(f"command {args.command!r} requires {flag}")
    return v


def _load_family(args):
    with open(_need(args, "config", "--config"), "r", encoding="utf-8") as fh:
        p, expr = parse_config(fh.read())
    return float(p), expr, build_space(float(p), expr)


# ---------------------------------------------------------------------------
# commands

def _cmd_norm(args) -> int:
    p, expr, family = _load_family(args)
    x = read_vector(_need(args, "vector", "--vector"), family.arity)
    r = family_norm(x, family)
    print(f"norm = {fmt(r.value)}")
    print(f"argmax member: {r.argmax_member}")
    print(f"members evaluated: {r.candidates_evaluated}")
    if args.out:
        _write_csv(
            args.out,
            ["command", "space", "p", "norm", "argmax_member"],
            ["norm", format_node(expr), fmt(p), fmt(r.value), r.argmax_member],
        )
    return 0


def _cmd_envelope(args) -> int:
    p, expr, family = _load_family(args)
    x = read_vector(_need(args, "vector", "--vector"), family.arity)
    r, assignment = envelope_norm_exact(x, family)
    print(f"envelope norm = {fmt(r.value)}")
    print(f"assignment: {assignment.label()}")
    print(f"assignments searched: {r.candidates_evaluated}")
    if args.out:
        _write_csv(
            args.out,
            ["command", "space", "p", "norm", "argmax_member"],
            ["envelope", format_node(expr), fmt(p), fmt(r.value), assignment.label()],
        )
    return 0


def _cmd_distortion(args) -> int:
    p, expr, family = _load_family(args)
    x = read_vector(_need(args, "vector", "--vector"), family.arity)
    rep = distortion_certificate(x, family)
    print(f"given norm   = {fmt(rep.given_norm)}")
    print(f"envelope lb  = {fmt(rep.envelope_lb)}")
    print(f"ratio        = {fmt(rep.ratio)}")
    print(f"distance lb  = {fmt(rep.distance_lb)}")
    if args.out:
        _write_csv(
            args.out,
            ["command", "space", "p", "given_norm", "envelope_lb", "ratio", "distance_lb"],
            [
                "distortion",
                format_node(expr),
                fmt(p),
                fmt(rep.given_norm),
                fmt(rep.envelope_lb),
                fmt(rep.ratio),
                fmt(rep.distance_lb),
            ],
        )
    return 0


def _cmd_classify(args) -> int:
    with open(_need(args, "config", "--config"), "r", encoding="utf-8") as fh:
        p, expr = parse_config(fh.read())
    if expr.name != "xp":
        raise ValidationError(
            "classify decides two-member families; use a config with space = xp(w)"
        )
    w = build_weight(expr.args[0], "space.xp.w")
    c = classify_rosenthal(w, float(p))
    print(f"type: {c.tag.value}")
    if c.detail:
        print(f"because: {c.detail}")
    if args.out:
        _write_csv(
            args.out,
            ["command", "space", "p", "tag", "detail"],
            ["classify", format_node(expr), fmt(float(p)), c.tag.value, c.detail],
        )
    return 0


def _cmd_check_envelope(args) -> int:
    p, expr, family = _load_family(args)
    x = read_vector(_need(args, "vector", "--vector"), family.arity)
    support = x.support(cap=norms.MAX_SUPPORT)
    check = has_envelope_property(family, support, max_members=args.cap_members)
    if check.holds:
        kind = "exhaustively" if check.exhaustive else "on sampled refinements"
        print(f"envelope property holds {kind} ({check.checked} refinements checked)")
    else:
        Q, labels = check.counterexample
        print("envelope property FAILS; counterexample refinement:")
        for cell, lbl in zip(Q.cells, labels):
            print(f"  cells {list(cell)} <- member {lbl}")
    if args.out:
        ce = ""
        if check.counterexample is not None:
            Q, labels = check.counterexample
            ce = " | ".join(
                f"{list(cell)}<-{lbl}" for cell, lbl in zip(Q.cells, labels)
            )
        _write_csv(
            args.out,
            ["command", "space", "p", "holds", "exhaustive", "checked", "counterexample"],
            [
                "check-envelope-property",
                format_node(expr),
                fmt(p),
                str(check.holds).lower(),
                str(check.exhaustive).lower(),
                str(check.checked),
                ce,
            ],
        )
    return 0


def _cmd_experiment_yn(args) -> int:
    p = 4.0
    w = PowerDecay(0.25)
    n = args.n
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            p_raw, expr = parse_config(fh.read())
        p = float(p_raw)
        if expr.name == "yn":
            if n is None:
                n = int(expr.args[0])
            w = build_weight(expr.args[1], "space.yn.w")
    if n is None:
        n = 3
    params = yn_default_params(p=p, n=n, eps=args.eps, w=w)
    rep = yn_report(params)
    print(f"n = {params.n}, p = {fmt(params.p)}, eps = {fmt(params.eps)}")
    print(f"m = {params.m}, K = {params.K}")
    for lbl, s in zip(rep.labels, rep.sums):
        print(f"  {lbl}: {fmt(s)}")
    print(f"given norm  = {fmt(rep.given_norm)}")
    print(f"envelope lb = {fmt(rep.envelope_lb)}")
    print(f"ratio       = {fmt(rep.ratio)}")
    print(f"distance lb = {fmt(rep.distance_lb)}")
    if args.out:
        header = (
            ["n", "p", "eps", "m", "K"]
            + [f"S_{i}" for i in range(len(rep.sums))]
            + ["given_norm", "envelope_lb", "ratio", "distance_lb"]
        )
        row = (
            [
                str(params.n),
                fmt(params.p),
                fmt(params.eps),
                ";".join(str(v) for v in params.m),
                ";".join(str(v) for v in params.K),
            ]
            + [fmt(s) for s in rep.sums]
            + [fmt(rep.given_norm), fmt(rep.envelope_lb), fmt(rep.ratio), fmt(rep.distance_lb)]
        )
        _write_csv(args.out, header, row)
    return 0


def _cmd_experiment_rosenthal(args) -> int:
    p = 4.0
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            p_raw, _ = parse_config(fh.read())
        p = float(p_raw)
    if args.vector:
        variables = read_variables(args.vector)
    else:
        n = args.n if args.n is not None else 10
        variables = [(1.0, 1.0)] * n
    res = rosenthal_mc(variables, p, args.samples, args.seed)
    print(f"N = {len(variables)}, p = {fmt(p)}, samples = {res.samples}, seed = {res.seed}")
    print(f"lhs estimate = {fmt(res.lhs_est)} (stderr {fmt(res.stderr)})")
    print(f"rhs exact    = {fmt(res.rhs)}")
    print(f"ratio        = {fmt(res.ratio)}")
    if args.out:
        _write_csv(
            args.out,
            ["N", "p", "samples", "seed", "lhs_est", "stderr", "rhs", "ratio"],
            [
                str(len(variables)),
                fmt(p),
                str(res.samples),
                str(res.seed),
                fmt(res.lhs_est),
                fmt(res.stderr),
                fmt(res.rhs),
                fmt(res.ratio),
            ],
        )
    return 0


_DISPATCH = {
    "norm": _cmd_norm,
    "envelope": _cmd_envelope,
    "distortion": _cmd_distortion,
    "classify": _cmd_classify,
    "check-envelope-property": _cmd_check_envelope,
    "experiment-yn": _cmd_experiment_yn,
    "experiment-rosenthal": _cmd_experiment_rosenthal,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pwnorm",
        description="Partition-weight norm evaluation, envelopes, and experiments.",
    )
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--config", help="space-expression config file")
    ap.add_argument("--vector", help="vector file (or 'a q' variables file)")
    ap.add_argument("--out", help="write results as CSV to this file")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--cap-members", type=int, default=8,
        help="max restricted members an exhaustive check-envelope-property glues",
    )
    ap.add_argument("--eps", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--samples", type=int, default=10**6)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, PwnormError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
