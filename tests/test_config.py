import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwnorm.config import (
    MAX_NESTING,
    ConfigNode,
    build_space,
    build_weight,
    parse_config,
    print_config,
)
from pwnorm.errors import ParseError, ValidationError
from pwnorm.spaces import (
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
from pwnorm.weights import (
    Constant,
    CoordinateLift,
    Explicit,
    Geometric,
    Interleave,
    Min,
    One,
    PowerDecay,
    Product,
)

CANONICAL = [
    "p = 4\nspace = lp\n",
    "p = 4.0\nspace = xp(power_decay(0.25))\n",
    "p = 2.5\nspace = p2w_sum([lp, xp(geometric(0.5))], const(0.7))\n",
    "p = 4\nspace = admissible(l2(lift([2], power_decay(0.5))), min(one, const(0.9)))\n",
    "p = 3\nspace = xp_alpha(1, 2, 4)\n",
    "p = 4\nspace = yn(3, explicit([0.9, 0.2], power_decay(1.0)))\n",
    "p = 4\nspace = tensor(envelope(lp), lp_sum([lp, sum_l2_lp(one)]))\n",
    "p = 4\nspace = schechtman(interleave(one, const(0.5)), product(one, geometric(0.25)))\n",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_print_parse_roundtrip_on_canonical_text(text):
    p, node = parse_config(text)
    assert print_config(p, node) == text


def test_parse_normalizes_format():
    text = "p=4e0 # exponent\n  space  =  xp( power_decay( .25 ) )  # comment\n"
    p, node = parse_config(text)
    assert p == 4.0 and isinstance(p, float)
    assert print_config(p, node) == "p = 4.0\nspace = xp(power_decay(0.25))\n"
    assert parse_config(print_config(p, node)) == (p, node)


def test_statement_order_is_free():
    a = parse_config("p = 4\nspace = lp\n")
    b = parse_config("space = lp\np = 4\n")
    assert a == b


def test_keywords_resolve_to_positional():
    _, pos = parse_config("p = 4\nspace = xp(power_decay(0.25))\n")
    _, kw = parse_config("p = 4\nspace = xp(w = power_decay(alpha = 0.25))\n")
    assert kw == pos
    _, mixed = parse_config("p = 4\nspace = schechtman(one, w2 = const(0.5))\n")
    assert mixed == ConfigNode(
        "schechtman", (ConfigNode("one"), ConfigNode("const", (0.5,)))
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("p = 4\nspace = xp(bogus(0.5))\n", "line 2, column 12: unknown node 'bogus'"),
        ("p = 4\n", "line 2, column 1: missing 'space = ...' statement"),
        ("space = lp\n", "line 2, column 1: missing 'p = ...' statement"),
        ("p = 4\nspace = lp\nq = 1\n", "line 3, column 1: unexpected trailing input"),
        ("p = 4\nspace = l2(const(-0.5))\n", "line 2, column 18: unexpected character '-'"),
        ("p = 4\nspace = xp(foo=one)\n", "line 2, column 12: xp has no parameter 'foo'"),
        ("p = 4\nspace = xp(w=one, w=one)\n", "line 2, column 19: duplicate keyword 'w'"),
        (
            "p = 4\nspace = schechtman(w=one, one)\n",
            "line 2, column 27: positional argument after keyword argument",
        ),
        (
            "p = 4\nspace = schechtman(one, w=one)\n",
            "line 2, column 9: schechtman: parameter 'w' given twice",
        ),
        (
            "p = 4\nspace = product(a=one)\n",
            "line 2, column 17: product takes no keyword arguments",
        ),
        (
            "p = 4\nspace = xp_alpha(q=1, L=4)\n",
            "line 2, column 9: xp_alpha: missing argument 'r'",
        ),
        (
            "p = 4\nspace = lp()\n",
            "line 2, column 12: lp: empty argument list (omit the parentheses)",
        ),
        (
            "p = 4\nspace = lp(1)\n",
            "line 2, column 9: lp takes at most 0 argument(s), got 1",
        ),
        ("p = lp\nspace = lp\n", "line 1, column 5: p must be a number"),
        ("p = 4\np = 5\n", "line 2, column 1: duplicate 'p' statement"),
        ("p = 4\nspace = 5\n", "line 2, column 9: space must be a node expression"),
    ],
)
def test_parse_errors_carry_positions(text, message):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("p = 2\nspace = lp\n", "p: exponent must be > 2, got 2"),
        ("p = 4\nspace = one\n", "space: 'one' is a weight node, not a space"),
    ],
)
def test_parse_semantic_rejections(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config(text)


# --- building ------------------------------------------------------------------

BUILD_CASES = [
    ("lp", make_lp(4.0)),
    ("l2(power_decay(0.25))", make_l2(4.0, PowerDecay(0.25))),
    ("sum_l2_lp(const(0.5))", make_sum_l2_lp(4.0, Constant(0.5))),
    ("xp(power_decay(0.25))", make_rosenthal_xp(4.0, PowerDecay(0.25))),
    (
        "schechtman(power_decay(0.25), geometric(0.5))",
        make_schechtman(4.0, PowerDecay(0.25), Geometric(0.5)),
    ),
    ("yn(3, power_decay(0.25))", make_Yn(4.0, 3, PowerDecay(0.25))),
    (
        "p2w_sum([admissible(lp), admissible(lp)], const(0.7))",
        p2w_sum(
            [make_admissible(make_lp(4.0)), make_admissible(make_lp(4.0))], Constant(0.7)
        ),
    ),
    (
        "lp_sum([admissible(lp), admissible(lp)])",
        lp_sum([make_admissible(make_lp(4.0)), make_admissible(make_lp(4.0))]),
    ),
    ("tensor(lp, lp)", tensor_family(make_lp(4.0), make_lp(4.0))),
    ("xp_alpha(1, 2, 4)", xp_alpha(4.0, OrdinalDesc(1, 2, 4))),
    (
        "envelope(xp(explicit([0.5], one)))",
        envelope_family(make_rosenthal_xp(4.0, Explicit((0.5,), One()))),
    ),
    ("admissible(l2(power_decay(0.25)))", make_admissible(make_l2(4.0, PowerDecay(0.25)))),
]


@pytest.mark.parametrize("expr,expected", BUILD_CASES, ids=[c[0] for c in BUILD_CASES])
def test_build_space_dispatch(expr, expected):
    p, node = parse_config(f"p = 4\nspace = {expr}\n")
    assert build_space(p, node) == expected


def test_build_weight_dispatch():
    cases = [
        ("one", One()),
        ("const(0.5)", Constant(0.5)),
        ("const(1)", Constant(1.0)),
        ("power_decay(0.25)", PowerDecay(0.25)),
        ("geometric(0.5)", Geometric(0.5)),
        ("explicit([0.9, 0.2], power_decay(1.0))", Explicit((0.9, 0.2), PowerDecay(1.0))),
        ("interleave(one, const(0.5))", Interleave(One(), Constant(0.5))),
        ("lift([2], power_decay(0.5))", CoordinateLift((2,), PowerDecay(0.5))),
        ("product(one, geometric(0.25))", Product((One(), Geometric(0.25)))),
        ("min(one, const(0.5))", Min((One(), Constant(0.5)))),
    ]
    for expr, expected in cases:
        _, node = parse_config(f"p = 4\nspace = xp({expr})\n")
        assert build_weight(node.args[0], "w") == expected


@pytest.mark.parametrize(
    "expr,message",
    [
        ("xp(lp)", "space.xp.w: 'lp' is not a weight node"),
        ("tensor(one, lp)", "space.tensor.left: 'one' is not a space node"),
        ("l2(const(1.5))", "space.l2.w.const: constant weight must lie in (0, 1], got 1.5"),
        ("xp_alpha(1, 0, 0)", "space.xp_alpha.L: expected an integer >= 1, got 0"),
        ("xp(explicit(0.5, one))", "space.xp.w.explicit.head: expected a list"),
        (
            "xp(lift([0], one))",
            "space.xp.w.lift.positions[1]: expected an integer >= 1, got 0",
        ),
        (
            "p2w_sum([lp, l2(power_decay(0.25))], one)",
            "space.p2w_sum: child 1 is not admissible",
        ),
        (
            "p2w_sum([lp, xp(const(2.0))], one)",
            "space.p2w_sum.children[2].xp.w.const: constant weight must lie in (0, 1], got 2.0",
        ),
    ],
)
def test_build_errors_carry_node_paths(expr, message):
    p, node = parse_config(f"p = 4\nspace = {expr}\n")
    with pytest.raises(ValidationError) as exc:
        build_space(p, node)
    assert str(exc.value).startswith(message)


def test_build_space_rejects_overflowing_p():
    p, node = parse_config("p = 1e400\nspace = lp\n")
    with pytest.raises(ValidationError, match="space.lp: exponent p must be finite"):
        build_space(p, node)


def test_build_space_rejects_weight_node_directly():
    with pytest.raises(ValidationError, match="'one' is not a space node"):
        build_space(4.0, ConfigNode("one"))


@pytest.mark.parametrize("expr", ["xp_alpha(0, 40, 1)", "xp_alpha(8, 0, 4)", "xp_alpha(0, 64, 1)"])
def test_xp_alpha_builds_each_stage_once(expr):
    start = time.process_time()
    build_space(*parse_config(f"p = 4\nspace = {expr}\n"))
    assert time.process_time() - start < 2.0


def test_nesting_limit_counts_nodes_and_lists():
    at_limit = "envelope(" * (MAX_NESTING - 1) + "lp" + ")" * (MAX_NESTING - 1)
    assert build_space(*parse_config(f"p = 4\nspace = {at_limit}\n")).arity == 1
    for opener, closer in (("envelope(", ")"), ("lp_sum([", "])")):
        n = MAX_NESTING // len(re.findall(r"[(\[]", opener))
        with pytest.raises(ParseError) as exc:
            parse_config(f"p = 4\nspace = {opener * n}lp{closer * n}\n")
        assert str(exc.value) == (
            f"line 2, column {9 + len(opener) * n}: nested deeper than 64 levels of nodes and lists"
        )


# --- randomized round-trip --------------------------------------------------------

_floats = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False)
_alphas = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)


def _weight_leaf():
    return st.one_of(
        st.just(ConfigNode("one")),
        st.builds(lambda c: ConfigNode("const", (c,)), _floats),
        st.builds(lambda a: ConfigNode("power_decay", (a,)), _alphas),
        st.builds(lambda r: ConfigNode("geometric", (r,)), _floats),
    )


def _weight_extend(children):
    heads = st.lists(_floats, min_size=1, max_size=3).map(tuple)
    positions = st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=2, unique=True
    ).map(tuple)
    factor_lists = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(lambda h, t: ConfigNode("explicit", (h, t)), heads, children),
        st.builds(lambda e, o: ConfigNode("interleave", (e, o)), children, children),
        st.builds(lambda ps, i: ConfigNode("lift", (ps, i)), positions, children),
        st.builds(lambda fs: ConfigNode("product", fs), factor_lists),
        st.builds(lambda fs: ConfigNode("min", fs), factor_lists),
    )


weight_asts = st.recursive(_weight_leaf(), _weight_extend, max_leaves=6)


def _space_leaf():
    w = weight_asts
    return st.one_of(
        st.just(ConfigNode("lp")),
        st.builds(lambda x: ConfigNode("l2", (x,)), w),
        st.builds(lambda x: ConfigNode("sum_l2_lp", (x,)), w),
        st.builds(lambda x: ConfigNode("xp", (x,)), w),
        st.builds(lambda a, b: ConfigNode("schechtman", (a, b)), w, w),
        st.builds(
            lambda n, x: ConfigNode("yn", (n, x)), st.integers(min_value=2, max_value=4), w
        ),
        st.builds(
            lambda q, r, L: ConfigNode("xp_alpha", (q, r, L)),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=1, max_value=4),
        ),
    )


def _space_extend(children):
    w = weight_asts
    child_lists = st.lists(children, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(lambda cs, W: ConfigNode("p2w_sum", (cs, W)), child_lists, w),
        st.builds(lambda cs: ConfigNode("lp_sum", (cs,)), child_lists),
        st.builds(lambda a, b: ConfigNode("tensor", (a, b)), children, children),
        st.builds(lambda c: ConfigNode("envelope", (c,)), children),
        st.builds(lambda c: ConfigNode("admissible", (c,)), children),
        st.builds(lambda c, x: ConfigNode("admissible", (c, x)), children, w),
    )


space_asts = st.recursive(_space_leaf(), _space_extend, max_leaves=5)

_p_values = st.one_of(
    st.integers(min_value=3, max_value=9),
    st.floats(min_value=2.01, max_value=12.0, allow_nan=False),
)


@settings(max_examples=200)
@given(p=_p_values, node=space_asts)
def test_roundtrip_random_ast(p, node):
    text = print_config(p, node)
    assert parse_config(text) == (p, node)
