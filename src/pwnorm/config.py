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

Space nodes: lp, l2(w), sum_l2_lp(w), xp(w), schechtman(w, w2),
yn(n, w), p2w_sum(children, W), lp_sum(children), tensor(left, right),
xp_alpha(q, r, L), envelope(inner), admissible(inner[, w]).

Weight nodes: one, const(c), power_decay(alpha), geometric(ratio),
explicit(head, tail), interleave(even, odd), lift(positions, inner),
product(...), min(...).
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
]


@dataclass(frozen=True)
class ConfigNode:
    name: str
    args: tuple = ()


# name -> (parameter names, minimum argument count, variadic)
SPACE_NODES = {
    "lp": ((), 0, False),
    "l2": (("w",), 1, False),
    "sum_l2_lp": (("w",), 1, False),
    "xp": (("w",), 1, False),
    "schechtman": (("w", "w2"), 2, False),
    "yn": (("n", "w"), 2, False),
    "p2w_sum": (("children", "W"), 2, False),
    "lp_sum": (("children",), 1, False),
    "tensor": (("left", "right"), 2, False),
    "xp_alpha": (("q", "r", "L"), 3, False),
    "envelope": (("inner",), 1, False),
    "admissible": (("inner", "w"), 1, False),
}

WEIGHT_NODES = {
    "one": ((), 0, False),
    "const": (("c",), 1, False),
    "power_decay": (("alpha",), 1, False),
    "geometric": (("ratio",), 1, False),
    "explicit": (("head", "tail"), 2, False),
    "interleave": (("even", "odd"), 2, False),
    "lift": (("positions", "inner"), 2, False),
    "product": (("factors",), 1, True),
    "min": (("factors",), 1, True),
}

_ALL_NODES = {**SPACE_NODES, **WEIGHT_NODES}


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

    def parse_value(self):
        t = self.next()
        if t.kind == "number":
            return self.parse_number(t)
        if t.kind == "name":
            return self.parse_node(t)
        if t.kind == "sym" and t.text == "[":
            items = [self.parse_value()]
            while True:
                nxt = self.next()
                if nxt.kind == "sym" and nxt.text == "]":
                    return tuple(items)
                if nxt.kind == "sym" and nxt.text == ",":
                    items.append(self.parse_value())
                    continue
                raise self.fail(nxt, "expected ',' or ']' in list")
        raise self.fail(t, "expected a number, node, or list" + (f", got {t.text!r}" if t.text else ""))

    def parse_node(self, name_tok: _Token) -> ConfigNode:
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
                    keyword[key_tok.text] = self.parse_value()
                else:
                    if keyword:
                        raise self.fail(
                            self.peek(), "positional argument after keyword argument"
                        )
                    positional.append(self.parse_value())
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
            space = pz.parse_node(name_tok)
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

def _wrap(path: str, exc: Exception) -> ValidationError:
    return ValidationError(f"{path}: {exc}")


def _num(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    return float(v)


def _nat(v, path: str, minimum: int = 0) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValidationError(f"{path}: expected an integer")
    if v < minimum:
        raise ValidationError(f"{path}: expected an integer >= {minimum}, got {v}")
    return v


def _node(v, path: str) -> ConfigNode:
    if not isinstance(v, ConfigNode):
        raise ValidationError(f"{path}: expected a node expression")
    return v


def _list(v, path: str) -> tuple:
    if not isinstance(v, tuple):
        raise ValidationError(f"{path}: expected a list")
    return v


def build_weight(node, path: str) -> Weight:
    node = _node(node, path)
    if node.name not in WEIGHT_NODES:
        raise ValidationError(f"{path}: {node.name!r} is not a weight node")
    here = f"{path}.{node.name}"
    a = node.args
    try:
        if node.name == "one":
            return One()
        if node.name == "const":
            return Constant(_num(a[0], f"{here}.c"))
        if node.name == "power_decay":
            return PowerDecay(_num(a[0], f"{here}.alpha"))
        if node.name == "geometric":
            return Geometric(_num(a[0], f"{here}.ratio"))
        if node.name == "explicit":
            head = tuple(
                _num(v, f"{here}.head[{i + 1}]")
                for i, v in enumerate(_list(a[0], f"{here}.head"))
            )
            return Explicit(head, build_weight(a[1], f"{here}.tail"))
        if node.name == "interleave":
            return Interleave(
                build_weight(a[0], f"{here}.even"), build_weight(a[1], f"{here}.odd")
            )
        if node.name == "lift":
            positions = tuple(
                _nat(v, f"{here}.positions[{i + 1}]", 1)
                for i, v in enumerate(_list(a[0], f"{here}.positions"))
            )
            return CoordinateLift(positions, build_weight(a[1], f"{here}.inner"))
        if node.name == "product":
            return Product(
                tuple(build_weight(v, f"{here}.factor[{i + 1}]") for i, v in enumerate(a))
            )
        if node.name == "min":
            return Min(
                tuple(build_weight(v, f"{here}.factor[{i + 1}]") for i, v in enumerate(a))
            )
    except ValidationError as exc:
        if str(exc).startswith(f"{here}.") or str(exc).startswith(f"{path}:"):
            raise
        raise _wrap(here, exc) from exc
    raise ValidationError(f"{path}: unhandled weight node {node.name!r}")  # pragma: no cover


def build_space(p: float, node, path: str = "space") -> Family:
    p = float(p)
    node = _node(node, path)
    if node.name not in SPACE_NODES:
        raise ValidationError(f"{path}: {node.name!r} is not a space node")
    here = f"{path}.{node.name}"
    a = node.args
    try:
        if node.name == "lp":
            return make_lp(p)
        if node.name == "l2":
            return make_l2(p, build_weight(a[0], f"{here}.w"))
        if node.name == "sum_l2_lp":
            return make_sum_l2_lp(p, build_weight(a[0], f"{here}.w"))
        if node.name == "xp":
            return make_rosenthal_xp(p, build_weight(a[0], f"{here}.w"))
        if node.name == "schechtman":
            return make_schechtman(
                p, build_weight(a[0], f"{here}.w"), build_weight(a[1], f"{here}.w2")
            )
        if node.name == "yn":
            return make_Yn(p, _nat(a[0], f"{here}.n", 1), build_weight(a[1], f"{here}.w"))
        if node.name == "p2w_sum":
            children = [
                build_space(p, ch, f"{here}.children[{i + 1}]")
                for i, ch in enumerate(_list(a[0], f"{here}.children"))
            ]
            return p2w_sum(children, build_weight(a[1], f"{here}.W"))
        if node.name == "lp_sum":
            children = [
                build_space(p, ch, f"{here}.children[{i + 1}]")
                for i, ch in enumerate(_list(a[0], f"{here}.children"))
            ]
            return lp_sum(children)
        if node.name == "tensor":
            return tensor_family(
                build_space(p, a[0], f"{here}.left"), build_space(p, a[1], f"{here}.right")
            )
        if node.name == "xp_alpha":
            desc = OrdinalDesc(
                _nat(a[0], f"{here}.q", 0),
                _nat(a[1], f"{here}.r", 0),
                _nat(a[2], f"{here}.L", 1),
            )
            return xp_alpha(p, desc)
        if node.name == "envelope":
            return envelope_family(build_space(p, a[0], f"{here}.inner"))
        if node.name == "admissible":
            inner = build_space(p, a[0], f"{here}.inner")
            if len(a) > 1:
                return make_admissible(inner, build_weight(a[1], f"{here}.w"))
            return make_admissible(inner)
    except ValidationError as exc:
        if str(exc).startswith(f"{here}.") or str(exc).startswith(f"{path}:"):
            raise
        raise _wrap(here, exc) from exc
    raise ValidationError(f"{path}: unhandled space node {node.name!r}")  # pragma: no cover
