"""Batch command-line front-end.

One invocation runs one command against a config (space expression) and
optionally a vector file, prints a human-readable report, and can write
the same results as CSV rows: one row, or for the experiments one row per
case (``--eps``, ``--n`` and ``--samples`` take lists).  All
floating-point output uses 15 significant digits; CSV output is
byte-stable for fixed inputs and seed.

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
from .envelope import (
    DEFAULT_CHECK_MEMBERS, distortion_certificate, envelope_norm_exact, has_envelope_property,
)
from .errors import CapacityError, ParseError, PwnormError, ValidationError
from .experiments import rosenthal_mc, yn_default_params, yn_report
from .norms import family_norm
from .spaces import classify_rosenthal
from .vectors import ConstantBlock, SparseVector
from .weights import PowerDecay

__all__ = ["main", "read_vector", "read_variables", "fmt"]


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

def _space_csv(args, p: float, expr, **fields: str) -> tuple[list[str], list[list[str]]]:
    """The CSV header and one row of a command on a config's space: the
    command, the space and p, then the fields."""
    header = ["command", "space", "p", *fields]
    return header, [[args.command, format_node(expr), fmt(p), *fields.values()]]


def _need(args, what: str, flag: str):
    v = getattr(args, what)
    if v is None:
        raise ValidationError(f"command {args.command!r} requires {flag}")
    return v


def _read_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        p, expr = parse_config(fh.read())
    return float(p), expr


def _load_vector(args):
    """p, expression and family of --config, and --vector at the family's arity."""
    p, expr = _read_config(_need(args, "config", "--config"))
    family = build_space(p, expr)
    return p, expr, family, read_vector(_need(args, "vector", "--vector"), family.arity)


# ---------------------------------------------------------------------------
# commands

Report = tuple[list[str], list[str], list[list[str]]]  # stdout lines, CSV header, CSV rows


def _cmd_norm(args) -> Report:
    p, expr, family, x = _load_vector(args)
    r = family_norm(x, family)
    lines = [
        f"norm = {fmt(r.value)}",
        f"argmax member: {r.argmax_member}",
        f"members evaluated: {r.candidates_evaluated}",
    ]
    return lines, *_space_csv(args, p, expr, norm=fmt(r.value), argmax_member=r.argmax_member)


def _cmd_envelope(args) -> Report:
    p, expr, family, x = _load_vector(args)
    r, assignment = envelope_norm_exact(x, family)
    lines = [
        f"envelope norm = {fmt(r.value)}",
        f"assignment: {assignment.label()}",
        f"assignments searched: {r.candidates_evaluated}",
    ]
    return lines, *_space_csv(args, p, expr, norm=fmt(r.value), argmax_member=assignment.label())


def _cmd_distortion(args) -> Report:
    p, expr, family, x = _load_vector(args)
    rep = distortion_certificate(x, family)
    lines = [
        f"given norm   = {fmt(rep.given_norm)}",
        f"envelope lb  = {fmt(rep.envelope_lb)}",
        f"ratio        = {fmt(rep.ratio)}",
        f"distance lb  = {fmt(rep.distance_lb)}",
    ]
    return lines, *_space_csv(
        args, p, expr, given_norm=fmt(rep.given_norm), envelope_lb=fmt(rep.envelope_lb),
        ratio=fmt(rep.ratio), distance_lb=fmt(rep.distance_lb),
    )


def _cmd_classify(args) -> Report:
    p, expr = _read_config(_need(args, "config", "--config"))
    if expr.name != "xp":
        raise ValidationError(
            "classify decides two-member families; use a config with space = xp(w)"
        )
    c = classify_rosenthal(build_weight(expr.args[0], "space.xp.w"), p)
    lines = [f"type: {c.tag.value}"] + ([f"because: {c.detail}"] if c.detail else [])
    return lines, *_space_csv(args, p, expr, tag=c.tag.value, detail=c.detail)


def _cmd_check_envelope(args) -> Report:
    p, expr, family, x = _load_vector(args)
    support = x.support(cap=norms.MAX_SUPPORT)
    check = has_envelope_property(family, support, max_members=args.cap_members)
    if check.holds:
        kind = "exhaustively" if check.exhaustive else "on sampled refinements"
        lines = [f"envelope property holds {kind} ({check.checked} refinements checked)"]
        picks = []
    else:
        Q, labels = check.counterexample
        picks = list(zip(Q.cells, labels))
        lines = ["envelope property FAILS; counterexample refinement:"]
        lines += [f"  cells {list(cell)} <- member {lbl}" for cell, lbl in picks]
    return lines, *_space_csv(
        args, p, expr, holds=str(check.holds).lower(), exhaustive=str(check.exhaustive).lower(),
        checked=str(check.checked),
        counterexample=" | ".join(f"{list(cell)}<-{lbl}" for cell, lbl in picks),
    )


def _cmd_experiment_yn(args) -> Report:
    if len(args.n or ()) > 1:
        raise ValidationError("experiment-yn takes one --n: its S_0..S_{2^n-1} columns depend on n")
    p = 4.0
    w = PowerDecay(0.25)
    n = args.n[0] if args.n else None
    if args.config:
        p, expr = _read_config(args.config)
        if expr.name == "yn":
            if n is None:
                n = int(expr.args[0])
            w = build_weight(expr.args[1], "space.yn.w")
    lines, rows = [], []
    for eps in args.eps:
        rep = yn_report(yn_default_params(p=p, n=3 if n is None else n, eps=eps, w=w))
        params = rep.params
        lines += [
            f"n = {params.n}, p = {fmt(params.p)}, eps = {fmt(params.eps)}",
            f"m = {params.m}, K = {params.K}",
            *(f"  {lbl}: {fmt(s)}" for lbl, s in zip(rep.labels, rep.sums)),
            f"given norm  = {fmt(rep.given_norm)}",
            f"envelope lb = {fmt(rep.envelope_lb)}",
            f"ratio       = {fmt(rep.ratio)}",
            f"distance lb = {fmt(rep.distance_lb)}",
        ]
        rows.append(
            [str(params.n), fmt(params.p), fmt(params.eps)]
            + [";".join(map(str, params.m)), ";".join(map(str, params.K))]
            + [fmt(v) for v in rep.sums]
            + [fmt(v) for v in (rep.given_norm, rep.envelope_lb, rep.ratio, rep.distance_lb)]
        )
    header = (
        ["n", "p", "eps", "m", "K"]
        + [f"S_{i}" for i in range(len(rep.sums))]
        + ["given_norm", "envelope_lb", "ratio", "distance_lb"]
    )
    return lines, header, rows


def _cmd_experiment_rosenthal(args) -> Report:
    p = _read_config(args.config)[0] if args.config else 4.0
    if args.vector:
        if args.n is not None:
            raise ValidationError("--n is not read by experiment-rosenthal with --vector")
        cases = [read_variables(args.vector)]
    else:
        cases = [[(1.0, 1.0)] * n for n in (args.n or [10])]
    lines, rows = [], []
    for variables in cases:
        for samples in args.samples:
            res = rosenthal_mc(variables, p, samples, args.seed)
            lines += [
                f"N = {len(variables)}, p = {fmt(p)}, samples = {res.samples}, seed = {res.seed}",
                f"lhs estimate = {fmt(res.lhs_est)} (stderr {fmt(res.stderr)})",
                f"rhs exact    = {fmt(res.rhs)}",
                f"ratio        = {fmt(res.ratio)}",
            ]
            rows.append(
                [str(len(variables)), fmt(p), str(res.samples), str(res.seed)]
                + [fmt(v) for v in (res.lhs_est, res.stderr, res.rhs, res.ratio)]
            )
    header = ["N", "p", "samples", "seed", "lhs_est", "stderr", "rhs", "ratio"]
    return lines, header, rows


COMMANDS = {
    "norm": _cmd_norm,
    "envelope": _cmd_envelope,
    "distortion": _cmd_distortion,
    "classify": _cmd_classify,
    "check-envelope-property": _cmd_check_envelope,
    "experiment-yn": _cmd_experiment_yn,
    "experiment-rosenthal": _cmd_experiment_rosenthal,
}


# the flags each command reads besides --command and --out; any other
# flag given is refused rather than silently ignored
READS = {
    "norm": {"config", "vector"},
    "envelope": {"config", "vector"},
    "distortion": {"config", "vector"},
    "classify": {"config"},
    "check-envelope-property": {"config", "vector", "cap_members"},
    "experiment-yn": {"config", "n", "eps"},
    "experiment-rosenthal": {"config", "vector", "n", "samples", "seed"},
}

DEFAULTS = {
    "config": None,
    "vector": None,
    "out": None,
    "seed": 0,
    "cap_members": DEFAULT_CHECK_MEMBERS,
    "eps": [1.0],
    "n": None,
    "samples": [10**6],
}


def _build_parser() -> argparse.ArgumentParser:
    # flags left out are absent from the namespace, so the given ones show
    ap = argparse.ArgumentParser(
        prog="pwnorm",
        description="Partition-weight norm evaluation, envelopes, and experiments.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--config", help="space-expression config file")
    ap.add_argument("--vector", help="vector file (or 'a q' variables file)")
    ap.add_argument("--out", help="write results as CSV to this file")
    ap.add_argument("--seed", type=int)
    ap.add_argument(
        "--cap-members", type=int,
        help="max restricted members an exhaustive check-envelope-property glues",
    )
    # the experiments write one row per case: per eps for experiment-yn,
    # per (n or --vector, sample count) for experiment-rosenthal
    ap.add_argument("--eps", type=float, nargs="+")
    ap.add_argument("--n", type=int, nargs="+")
    ap.add_argument("--samples", type=int, nargs="+")
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    given = vars(_build_parser().parse_args(argv))
    args = argparse.Namespace(**{**DEFAULTS, **given})
    try:
        for dest in given:
            if dest not in READS[args.command] | {"command", "out"}:
                flag = "--" + dest.replace("_", "-")
                raise ValidationError(f"{flag} is not read by {args.command}")
        lines, header, rows = COMMANDS[args.command](args)
        print("\n".join(lines))
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(header)
                w.writerows(rows)
        return 0
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
