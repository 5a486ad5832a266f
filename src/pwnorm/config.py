"""Space-expression configs.

A config is a small text document declaring the exponent once and a
space expression built from named nodes::

    p = 4
    space = xp(power_decay(0.25))

Grammar (comments run from ``#`` to end of line)::

    config  :=  stmt stmt            # one 'p', one 'space', either order
    stmt    :=  NAME '=' value
    value   :=  NUMBER | node | list
    node    :=  NAME [ '(' args ')' ]
    args    :=  arg { ',' arg }
    arg     :=  [ NAME '=' ] value
    list    :=  '[' value { ',' value } ']'

Numbers are nonnegative decimals with optional exponent.  Keyword
arguments are resolved against each node's parameter list at parse time,
so the AST is purely positional and ``print_config`` / ``parse_config``
round-trip exactly.

Each node and its parameters are declared once, in ``SPACE_NODES`` and
``WEIGHT_NODES``.  Text nests at most ``MAX_NESTING`` levels of nodes
and lists.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .families import Family
from .spaces import (
    OrdinalDesc,
    envelope_family,
    lp_sum,
    make_admissible,
    make_l2,
    make_lp,
    make_rosenthal_xp,
    make_schechtman,
    make_sum_l2_lp,
    make_Yn,
    p2w_sum,
    tensor_family,
    xp_alpha,
)
from .weights import (
    Constant,
    CoordinateLift,
    Explicit,
    Geometric,
    Interleave,
    Min,
    One,
    PowerDecay,
    Product,
    Weight,
)

__all__ = [
    "ConfigNode",
    "parse_config",
    "print_config",
    "format_node",
    "build_space",
    "build_weight",
    "SPACE_NODES",
    "WEIGHT_NODES",
    "MAX_NESTING",
]


@dataclass(frozen=True)
class ConfigNode:
    name: str
    args: tuple = ()


# A cap on the levels of nodes and lists in a config, and on the r + q*L
# levels of an xp_alpha family; configs in use nest about 6 levels.
MAX_NESTING = 64


def _xp_alpha(p: float, q: int, r: int, L: int) -> Family:
    if r + q * L > MAX_NESTING:
        raise ValidationError(f"nests r + q*L = {r + q * L} levels, more than {MAX_NESTING}")
    return xp_alpha(p, OrdinalDesc(q, r, L))


# name -> (builder, parameters as (name, kind) pairs, minimum argument count,
# variadic).  A kind is "number", "natK" (an integer >= K), "weight", "space"
# or "[kind]", a list of these.  Space builders take p first.  A variadic
# node's arguments are the items of its one list parameter.
SPACE_NODES = {
    "lp": (make_lp, (), 0, False),
    "l2": (make_l2, (("w", "weight"),), 1, False),
    "sum_l2_lp": (make_sum_l2_lp, (("w", "weight"),), 1, False),
    "xp": (make_rosenthal_xp, (("w", "weight"),), 1, False),
    "schechtman": (make_schechtman, (("w", "weight"), ("w2", "weight")), 2, False),
    "yn": (make_Yn, (("n", "nat1"), ("w", "weight")), 2, False),
    "p2w_sum": (lambda p, children, W: p2w_sum(children, W),
                (("children", "[space]"), ("W", "weight")), 2, False),
    "lp_sum": (lambda p, children: lp_sum(children), (("children", "[space]"),), 1, False),
    "tensor": (lambda p, left, right: tensor_family(left, right),
               (("left", "space"), ("right", "space")), 2, False),
    "xp_alpha": (_xp_alpha, (("q", "nat0"), ("r", "nat0"), ("L", "nat1")), 3, False),
    "envelope": (lambda p, inner: envelope_family(inner), (("inner", "space"),), 1, False),
    "admissible": (lambda p, *args: make_admissible(*args),
                   (("inner", "space"), ("w", "weight")), 1, False),
}

WEIGHT_NODES = {
    "one": (One, (), 0, False),
    "const": (Constant, (("c", "number"),), 1, False),
    "power_decay": (PowerDecay, (("alpha", "number"),), 1, False),
    "geometric": (Geometric, (("ratio", "number"),), 1, False),
    "explicit": (Explicit, (("head", "[number]"), ("tail", "weight")), 2, False),
    "interleave": (Interleave, (("even", "weight"), ("odd", "weight")), 2, False),
    "lift": (CoordinateLift, (("positions", "[nat1]"), ("inner", "weight")), 2, False),
    "product": (Product, (("factor", "[weight]"),), 1, True),
    "min": (Min, (("factor", "[weight]"),), 1, True),
}

# the parser's view: name -> (parameter names, minimum argument count, variadic)
_ALL_NODES = {
    name: (tuple(param for param, _ in params), min_args, variadic)
    for name, (_, params, min_args, variadic) in {**SPACE_NODES, **WEIGHT_NODES}.items()
}


# ---------------------------------------------------------------------------
# tokenizing / parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t\r]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<nl>\n)"
    r"|(?P<number>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[()\[\],=])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "sym" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"line {line}, column {col}: unexpected character {text[i]!r}")
        kind = m.lastgroup
        s = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(_Token(kind, s, line, col))
            col += len(s)
        i = m.end()
    toks.append(_Token("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, tok: _Token, msg: str) -> ParseError:
        return ParseError(f"line {tok.line}, column {tok.col}: {msg}")

    def expect_sym(self, s: str) -> _Token:
        t = self.next()
        if t.kind != "sym" or t.text != s:
            raise self.fail(t, f"expected {s!r}, got {t.text!r}" if t.text else f"expected {s!r}")
        return t

    def parse_number(self, tok: _Token) -> int | float:
        if re.fullmatch(r"[0-9]+", tok.text):
            return int(tok.text)
        return float(tok.text)

    def parse_value(self, depth: int):
        t = self.next()
        if t.kind == "number":
            return self.parse_number(t)
        if depth > MAX_NESTING and (t.kind == "name" or t.text == "["):
            raise self.fail(t, f"nested deeper than {MAX_NESTING} levels of nodes and lists")
        if t.kind == "name":
            return self.parse_node(t, depth)
        if t.kind == "sym" and t.text == "[":
            items = [self.parse_value(depth + 1)]
            while True:
                nxt = self.next()
                if nxt.kind == "sym" and nxt.text == "]":
                    return tuple(items)
                if nxt.kind == "sym" and nxt.text == ",":
                    items.append(self.parse_value(depth + 1))
                    continue
                raise self.fail(nxt, "expected ',' or ']' in list")
        raise self.fail(t, "expected a number, node, or list" + (f", got {t.text!r}" if t.text else ""))

    def parse_node(self, name_tok: _Token, depth: int) -> ConfigNode:
        name = name_tok.text
        if name not in _ALL_NODES:
            raise self.fail(name_tok, f"unknown node {name!r}")
        params, min_args, variadic = _ALL_NODES[name]
        positional: list = []
        keyword: dict[str, object] = {}
        if self.peek().kind == "sym" and self.peek().text == "(":
            self.next()
            if self.peek().kind == "sym" and self.peek().text == ")":
                raise self.fail(self.peek(), f"{name}: empty argument list (omit the parentheses)")
            while True:
                if (
                    self.peek().kind == "name"
                    and self.toks[self.pos + 1].kind == "sym"
                    and self.toks[self.pos + 1].text == "="
                ):
                    key_tok = self.next()
                    self.next()  # '='
                    if variadic:
                        raise self.fail(key_tok, f"{name} takes no keyword arguments")
                    if key_tok.text not in params:
                        raise self.fail(key_tok, f"{name} has no parameter {key_tok.text!r}")
                    if key_tok.text in keyword:
                        raise self.fail(key_tok, f"duplicate keyword {key_tok.text!r}")
                    keyword[key_tok.text] = self.parse_value(depth + 1)
                else:
                    if keyword:
                        raise self.fail(
                            self.peek(), "positional argument after keyword argument"
                        )
                    positional.append(self.parse_value(depth + 1))
                nxt = self.next()
                if nxt.kind == "sym" and nxt.text == ")":
                    break
                if not (nxt.kind == "sym" and nxt.text == ","):
                    raise self.fail(nxt, "expected ',' or ')' in argument list")
        return self.resolve(name_tok, name, params, min_args, variadic, positional, keyword)

    def resolve(self, tok, name, params, min_args, variadic, positional, keyword) -> ConfigNode:
        if variadic:
            if len(positional) < min_args:
                raise self.fail(tok, f"{name} needs at least {min_args} argument(s)")
            return ConfigNode(name, tuple(positional))
        if len(positional) > len(params):
            raise self.fail(
                tok, f"{name} takes at most {len(params)} argument(s), got {len(positional)}"
            )
        slots: dict[str, object] = dict(zip(params, positional))
        for k, v in keyword.items():
            if k in slots:
                raise self.fail(tok, f"{name}: parameter {k!r} given twice")
            slots[k] = v
        filled = []
        for q, pname in enumerate(params):
            if pname in slots:
                if len(filled) < q:
                    missing = params[len(filled)]
                    raise self.fail(tok, f"{name}: missing argument {missing!r}")
                filled.append(slots[pname])
        if len(filled) < min_args:
            raise self.fail(
                tok, f"{name} needs {'at least ' if len(params) > min_args else ''}"
                f"{min_args} argument(s), got {len(filled)}"
            )
        return ConfigNode(name, tuple(filled))


def parse_config(text: str) -> tuple[int | float, ConfigNode]:
    """Parse a config into (p, expression); both statements required."""
    pz = _Parser(text)
    p_val: int | float | None = None
    space: ConfigNode | None = None
    for _ in range(2):
        t = pz.next()
        if t.kind == "eof":
            missing = "space" if p_val is not None else "p"
            raise pz.fail(t, f"missing '{missing} = ...' statement")
        if t.kind != "name" or t.text not in ("p", "space"):
            raise pz.fail(t, "expected a 'p = ...' or 'space = ...' statement")
        pz.expect_sym("=")
        if t.text == "p":
            if p_val is not None:
                raise pz.fail(t, "duplicate 'p' statement")
            num = pz.next()
            if num.kind != "number":
                raise pz.fail(num, "p must be a number")
            p_val = pz.parse_number(num)
        else:
            if space is not None:
                raise pz.fail(t, "duplicate 'space' statement")
            name_tok = pz.next()
            if name_tok.kind != "name":
                raise pz.fail(name_tok, "space must be a node expression")
            space = pz.parse_node(name_tok, 1)
    tail = pz.next()
    if tail.kind != "eof":
        raise pz.fail(tail, "unexpected trailing input")
    if p_val is None:
        raise ParseError("missing 'p = ...' statement")
    if space is None:
        raise ParseError("missing 'space = ...' statement")
    if not (float(p_val) > 2.0):
        raise ValidationError(f"p: exponent must be > 2, got {p_val}")
    if space.name not in SPACE_NODES:
        raise ValidationError(f"space: {space.name!r} is a weight node, not a space")
    return p_val, space


# ---------------------------------------------------------------------------
# canonical printing

def _format_value(v) -> str:
    if isinstance(v, ConfigNode):
        return format_node(v)
    if isinstance(v, tuple):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def format_node(node: ConfigNode) -> str:
    if not node.args:
        return node.name
    return node.name + "(" + ", ".join(_format_value(a) for a in node.args) + ")"


def print_config(p: int | float, space: ConfigNode) -> str:
    return f"p = {_format_value(p)}\nspace = {format_node(space)}\n"


# ---------------------------------------------------------------------------
# semantic construction

def _convert(v, kind: str, path: str, p: float | None):
    """One argument checked and built by its kind; errors name it by path."""
    if kind.startswith("["):
        if not isinstance(v, tuple):
            raise ValidationError(f"{path}: expected a list")
        return tuple(_convert(x, kind[1:-1], f"{path}[{i + 1}]", p) for i, x in enumerate(v))
    if kind == "space":
        return build_space(p, v, path)
    if kind == "weight":
        return build_weight(v, path)
    if kind == "number":
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{path}: expected a number")
        return float(v)
    minimum = int(kind[3:])
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}: expected an integer")
    if v < minimum:
        raise ValidationError(f"{path}: expected an integer >= {minimum}, got {v}")
    return v


def _build(node, path: str, kind: str, p: float | None = None):
    """Build a space or weight node from its table entry.  A builder's
    error that names no path below ``path`` gets ``path.node:`` in front."""
    if not isinstance(node, ConfigNode):
        raise ValidationError(f"{path}: expected a node expression")
    table = SPACE_NODES if kind == "space" else WEIGHT_NODES
    if node.name not in table:
        raise ValidationError(f"{path}: {node.name!r} is not a {kind} node")
    builder, params, _, variadic = table[node.name]
    here = f"{path}.{node.name}"
    try:
        args = [
            _convert(v, param_kind, f"{here}.{param}", p)
            for (param, param_kind), v in zip(params, (node.args,) if variadic else node.args)
        ]
        return builder(*args) if p is None else builder(p, *args)
    except ValidationError as exc:
        if str(exc).startswith((f"{here}.", f"{path}:")):
            raise
        raise ValidationError(f"{here}: {exc}") from exc


def build_weight(node, path: str) -> Weight:
    return _build(node, path, "weight")


def build_space(p: float, node, path: str = "space") -> Family:
    return _build(node, path, "space", float(p))
