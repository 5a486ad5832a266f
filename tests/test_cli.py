import csv
import re
import shlex
from pathlib import Path

import pytest

from pwnorm.cli import fmt, main, read_variables, read_vector
from pwnorm.config import build_space, parse_config
from pwnorm.envelope import distortion_certificate, envelope_norm_exact
from pwnorm.errors import ParseError
from pwnorm.experiments import rosenthal_mc, yn_default_params, yn_report
from pwnorm.norms import family_norm
from pwnorm.spaces import classify_rosenthal
from pwnorm.vectors import ConstantBlock, SparseVector
from pwnorm.weights import PowerDecay

XP_CFG = "p = 4\nspace = xp(power_decay(0.25))\n"
CONST_CFG = "p = 4\nspace = xp(const(0.5))\n"
ENV_CFG = "p = 4\nspace = envelope(xp(const(0.5)))\n"


def _file(tmp_path, text, name):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def _cfg(tmp_path, text=XP_CFG):
    return _file(tmp_path, text, "space.cfg")


def _vec(tmp_path, text="1 : 1\n2 : 1\n"):
    return _file(tmp_path, text, "x.vec")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _x12():
    return SparseVector(arity=1, entries=(((1,), 1.0), ((2,), 1.0)))


# --- vector / variables files ----------------------------------------------------


def test_read_vector_entries_blocks_comments(tmp_path):
    path = _file(
        tmp_path,
        "# header comment\n"
        "\n"
        "1 2 : 0.5   # an entry\n"
        "block 2 1 2 3 51 : 0.25\n",
        "v.vec",
    )
    x = read_vector(path, 2)
    assert x == SparseVector(
        arity=2,
        entries=(((1, 2), 0.5),),
        blocks=(
            ConstantBlock(template=(2, 1), running_coord=2, lo=3, hi=51, coeff=0.25),
        ),
    )


@pytest.mark.parametrize(
    "text,arity,snippet",
    [
        ("1 1 : 0.5\n", 1, "expected 1 coordinates, got 2"),
        ("1 : x\n", 1, "bad value 'x'"),
        ("1 0.5\n", 1, "missing ':'"),
        ("block 2 1 2 3 : 0.25\n", 2, "block lines need 2 template coordinates"),
        ("1.5 : 0.5\n", 1, "coordinates must be integers"),
        ("block 2 1 2 a 51 : 0.25\n", 2, "block coordinates must be integers"),
        ("# nothing here\n", 1, "no entries"),
    ],
)
def test_read_vector_errors(tmp_path, text, arity, snippet):
    path = _file(tmp_path, text, "bad.vec")
    with pytest.raises(ParseError, match=r".*" + snippet.replace("(", r"\(").replace(")", r"\)")):
        read_vector(path, arity)


def test_read_variables(tmp_path):
    path = _file(tmp_path, "2.0 0.25\n# c\n\n1.0 1.0\n", "vars.txt")
    assert read_variables(path) == [(2.0, 0.25), (1.0, 1.0)]


@pytest.mark.parametrize(
    "text,snippet",
    [
        ("1.0\n", "expected 'amplitude probability'"),
        ("a b\n", "bad number"),
        ("", "no variables"),
    ],
)
def test_read_variables_errors(tmp_path, text, snippet):
    path = _file(tmp_path, text, "vars.txt")
    with pytest.raises(ParseError, match=snippet):
        read_variables(path)


# --- norm / envelope / distortion ---------------------------------------------


def test_norm_command(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(
        ["--command", "norm", "--config", _cfg(tmp_path), "--vector", _vec(tmp_path),
         "--out", out]
    )
    assert rc == 0
    p, expr = parse_config(XP_CFG)
    expected = family_norm(_x12(), build_space(p, expr))
    captured = capsys.readouterr().out.splitlines()
    assert captured[0] == f"norm = {fmt(expected.value)}"
    assert captured[1] == f"argmax member: {expected.argmax_member}"
    header, row = _rows(out)
    assert header == ["command", "space", "p", "norm", "argmax_member"]
    assert row == ["norm", "xp(power_decay(0.25))", "4", fmt(expected.value), "()"]


def test_envelope_command(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(
        ["--command", "envelope", "--config", _cfg(tmp_path, CONST_CFG),
         "--vector", _vec(tmp_path), "--out", out]
    )
    assert rc == 0
    p, expr = parse_config(CONST_CFG)
    res, assignment = envelope_norm_exact(_x12(), build_space(p, expr))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"envelope norm = {fmt(res.value)}"
    assert lines[1] == f"assignment: {assignment.label()}"
    _, row = _rows(out)
    assert row == [
        "envelope", "xp(const(0.5))", "4", fmt(res.value), "assign[discrete,discrete]",
    ]


def test_distortion_command(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(
        ["--command", "distortion", "--config", _cfg(tmp_path, CONST_CFG),
         "--vector", _vec(tmp_path), "--out", out]
    )
    assert rc == 0
    p, expr = parse_config(CONST_CFG)
    rep = distortion_certificate(_x12(), build_space(p, expr))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"given norm   = {fmt(rep.given_norm)}"
    assert lines[3] == f"distance lb  = {fmt(rep.distance_lb)}"
    header, row = _rows(out)
    assert header == [
        "command", "space", "p", "given_norm", "envelope_lb", "ratio", "distance_lb",
    ]
    assert row[3:] == [
        fmt(rep.given_norm), fmt(rep.envelope_lb), fmt(rep.ratio), fmt(rep.distance_lb),
    ]


@pytest.mark.parametrize(
    "alpha, vector, witness",
    [
        ("0.3", "2 : 1\n3 : 0.5\n5 : 0.25\n", "assign[discrete,discrete,discrete]"),
        ("0.1", "2 : 1\n3 : 0.3\n5 : 0.3\n", "assign[discrete,(),()]"),
    ],
)
def test_envelope_of_a_space_is_searched_as_the_space(tmp_path, alpha, vector, witness):
    vec = _vec(tmp_path, vector)
    inner = f"p = 4\nspace = xp(power_decay({alpha}))\n"
    env = f"p = 4\nspace = envelope(xp(power_decay({alpha})))\n"
    rows = {}
    for name, text in (("inner", inner), ("env", env)):
        cfg = _file(tmp_path, text, f"{name}.cfg")
        for command in ("envelope", "distortion"):
            out = str(tmp_path / f"{name}-{command}.csv")
            assert main(["--command", command, "--config", cfg, "--vector", vec, "--out", out]) == 0
            rows[name, command] = _rows(out)[1]
    assert rows["env", "envelope"][3:] == rows["inner", "envelope"][3:]
    assert rows["env", "envelope"][4] == witness
    p, expr = parse_config(env)
    x = read_vector(vec, 1)
    family = build_space(p, expr)
    value = family_norm(x, family).value
    assert envelope_norm_exact(x, family)[0].value == value
    assert rows["env", "envelope"][3] == fmt(value)
    assert rows["env", "distortion"][3:] == [fmt(value), fmt(value), "1", "1"]
    assert rows["env", "distortion"][4] == rows["inner", "distortion"][4]


def test_norm_command_with_blocks(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = 4\nspace = tensor(lp, lp)\n")
    vec = _file(tmp_path, "block 2 1 2 3 51 : 0.25\n", "b.vec")
    rc = main(["--command", "norm", "--config", cfg, "--vector", vec])
    assert rc == 0
    expected = (49 * 0.25**4) ** 0.25
    line = capsys.readouterr().out.splitlines()[0]
    assert line == f"norm = {fmt(expected)}"


# --- classify / property check ---------------------------------------------------


def test_classify_command(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(["--command", "classify", "--config", _cfg(tmp_path), "--out", out])
    assert rc == 0
    c = classify_rosenthal(PowerDecay(0.25), 4.0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"type: {c.tag.value}"
    _, row = _rows(out)
    assert row[:3] == ["classify", "xp(power_decay(0.25))", "4"]
    assert row[3] == c.tag.value


def test_classify_requires_xp_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = 4\nspace = lp\n")
    rc = main(["--command", "classify", "--config", cfg])
    assert rc == 2
    assert "classify decides two-member families" in capsys.readouterr().err


def test_check_envelope_property_failing(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(
        ["--command", "check-envelope-property", "--config", _cfg(tmp_path, CONST_CFG),
         "--vector", _vec(tmp_path), "--out", out]
    )
    assert rc == 0
    outl = capsys.readouterr().out.splitlines()
    assert outl[0] == "envelope property FAILS; counterexample refinement:"
    assert outl[1] == "  cells [(1,)] <- member discrete"
    assert outl[2] == "  cells [(2,)] <- member ()"
    header, row = _rows(out)
    assert header == [
        "command", "space", "p", "holds", "exhaustive", "checked", "counterexample",
    ]
    assert row[3:] == ["false", "true", "2", "[(1,)]<-discrete | [(2,)]<-()"]


def test_check_envelope_property_holding(tmp_path, capsys):
    rc = main(
        ["--command", "check-envelope-property", "--config", _cfg(tmp_path, ENV_CFG),
         "--vector", _vec(tmp_path)]
    )
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "envelope property holds exhaustively (4 refinements checked)"


def test_check_envelope_property_caps_support_before_building_it(tmp_path, capsys):
    rc = main(
        ["--command", "check-envelope-property", "--config", _cfg(tmp_path, ENV_CFG),
         "--vector", _vec(tmp_path, "block 1 1 1 1000000000 : 1\n")]
    )
    assert rc == 3
    assert capsys.readouterr().err == (
        "capacity error: support size 1000000000 exceeds cap 65536\n"
    )


# --- experiments -----------------------------------------------------------------


def test_experiment_yn_default(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(["--command", "experiment-yn", "--out", out])
    assert rc == 0
    rep = yn_report(yn_default_params())
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n = 3, p = 4, eps = 1"
    assert lines[1] == "m = (16, 16, 16), K = (49, 49, 49)"
    header, row = _rows(out)
    assert header == (
        ["n", "p", "eps", "m", "K"]
        + [f"S_{i}" for i in range(8)]
        + ["given_norm", "envelope_lb", "ratio", "distance_lb"]
    )
    assert row[:5] == ["3", "4", "1", "16;16;16", "49;49;49"]
    assert row[5:13] == [fmt(s) for s in rep.sums]
    assert row[13] == fmt(rep.given_norm)


def test_experiment_yn_n_flag(tmp_path):
    out = str(tmp_path / "r.csv")
    assert main(["--command", "experiment-yn", "--n", "2", "--out", out]) == 0
    header, row = _rows(out)
    assert header[5:9] == ["S_0", "S_1", "S_2", "S_3"]
    assert len(header) == 5 + 4 + 4
    assert row[0] == "2"


def test_experiment_yn_reads_yn_config(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = 4\nspace = yn(3, power_decay(0.25))\n")
    rc = main(["--command", "experiment-yn", "--config", cfg])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n = 3, p = 4, eps = 1"
    rep = yn_report(yn_default_params())
    assert lines[-4] == f"given norm  = {fmt(rep.given_norm)}"


def test_experiment_rosenthal(tmp_path, capsys):
    out = str(tmp_path / "r.csv")
    rc = main(
        ["--command", "experiment-rosenthal", "--n", "3", "--samples", "10000",
         "--out", out]
    )
    assert rc == 0
    res = rosenthal_mc([(1.0, 1.0)] * 3, 4.0, 10000, 0)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N = 3, p = 4, samples = 10000, seed = 0"
    assert lines[1] == f"lhs estimate = {fmt(res.lhs_est)} (stderr {fmt(res.stderr)})"
    header, row = _rows(out)
    assert header == ["N", "p", "samples", "seed", "lhs_est", "stderr", "rhs", "ratio"]
    assert row == [
        "3", "4", "10000", "0",
        fmt(res.lhs_est), fmt(res.stderr), fmt(res.rhs), fmt(res.ratio),
    ]


def test_experiment_rosenthal_variables_file(tmp_path, capsys):
    vars_path = _file(tmp_path, "2.0 0.25\n1.0 1.0\n", "vars.txt")
    rc = main(
        ["--command", "experiment-rosenthal", "--vector", vars_path,
         "--samples", "10000", "--seed", "7"]
    )
    assert rc == 0
    res = rosenthal_mc([(2.0, 0.25), (1.0, 1.0)], 4.0, 10000, 7)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N = 2, p = 4, samples = 10000, seed = 7"
    assert lines[3] == f"ratio        = {fmt(res.ratio)}"


# --- CSV byte stability ------------------------------------------------------------


def test_csv_outputs_are_byte_stable(tmp_path):
    argv_sets = [
        ["--command", "norm", "--config", _cfg(tmp_path), "--vector", _vec(tmp_path)],
        ["--command", "experiment-yn"],
        ["--command", "experiment-rosenthal", "--n", "4", "--samples", "10000"],
    ]
    for i, argv in enumerate(argv_sets):
        a = str(tmp_path / f"a{i}.csv")
        b = str(tmp_path / f"b{i}.csv")
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


# --- lists of cases ----------------------------------------------------------------


def _csv_of(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize(
    "command, flag, values, fixed",
    [
        ("experiment-yn", "--eps", ["1.0", "0.5", "0.1"], ["--n", "3"]),
        ("experiment-rosenthal", "--n", ["1", "2", "5"], ["--samples", "10000", "--seed", "3"]),
        ("experiment-rosenthal", "--samples", ["10000", "40000"], ["--n", "4"]),
    ],
    ids=["yn-eps", "rosenthal-n", "rosenthal-samples"],
)
def test_list_csv_is_the_single_value_rows(tmp_path, capsys, command, flag, values, fixed):
    argv = ["--command", command, *fixed]
    many = _csv_of(tmp_path, "many.csv", argv + [flag, *values])
    many_out = capsys.readouterr().out
    singles = [_csv_of(tmp_path, f"{v}.csv", argv + [flag, v]) for v in values]
    header = singles[0].splitlines(keepends=True)[0]
    assert many == header + "".join(one.splitlines(keepends=True)[1] for one in singles)
    assert many_out == capsys.readouterr().out


def test_rosenthal_rows_are_cases_then_sample_counts(tmp_path, capsys):
    vars_path = _file(tmp_path, "2.0 0.25\n1.0 1.0\n", "vars.txt")
    out = str(tmp_path / "r.csv")
    argv = ["--command", "experiment-rosenthal", "--n", "1", "2", "--samples", "10000", "40000"]
    assert main(argv + ["--out", out]) == 0
    rows = _rows(out)[1:]
    assert [(r[0], r[2]) for r in rows] == [
        ("1", "10000"), ("1", "40000"), ("2", "10000"), ("2", "40000"),
    ]
    # a constant |sum| (N = 1 with q = 1) has standard error 0 at any sample count
    assert [r[5] for r in rows[:2]] == ["0", "0"]
    assert main(argv[:2] + argv[5:] + ["--vector", vars_path, "--out", out]) == 0
    assert [r[0] for r in _rows(out)[1:]] == ["2", "2"]
    # --n is not read once --vector gives the case
    assert main(argv + ["--vector", vars_path, "--out", out]) == 2
    assert capsys.readouterr().err == "error: --n is not read by experiment-rosenthal with --vector\n"


def test_experiment_yn_takes_one_n(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["--command", "experiment-yn", "--n", "2", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: experiment-yn takes one --n: its S_0..S_{2^n-1} columns depend on n\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["experiment-rosenthal", "--vector", "VARS", "--n", "1", "2", "--eps", "0.5"], "--eps"),
        (["experiment-yn", "--samples", "5"], "--samples"),
        (["norm", "--config", "CFG", "--vector", "VEC", "--eps", "0.5"], "--eps"),
        (["norm", "--config", "CFG", "--vector", "VEC", "--cap-members", "3"], "--cap-members"),
        (["classify", "--config", "CFG", "--seed", "3"], "--seed"),
        (["envelope", "--seed", "1", "--n", "2", "--config", "CFG"], "--seed"),
    ],
    ids=["rosenthal-eps", "yn-samples", "norm-eps", "norm-cap", "classify-seed", "first-given"],
)
def test_unread_flags_are_refused(tmp_path, capsys, argv, flag):
    files = {"VARS": _file(tmp_path, "1.0 1.0\n", "vars.txt"), "CFG": _cfg(tmp_path),
             "VEC": _vec(tmp_path)}
    out = tmp_path / "r.csv"
    argv = ["--command"] + [files.get(a, a) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {flag} is not read by {argv[1]}\n")
    assert not out.exists()


def test_readme_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    config = re.search(r"```\n(p = .*?)```", readme, re.S).group(1)
    assert "p2w_sum([admissible(xp(power_decay(0.25))), admissible(lp)], const(0.7))" in config
    build_space(*parse_config(config))
    commands = [
        shlex.split(line) for line in readme.splitlines()
        if line.startswith("pwnorm --command experiment-")
    ]
    assert [argv[2] for argv in commands] == ["experiment-yn", "experiment-rosenthal"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        # argparse keeps the last --samples, so this one keeps the run short
        small = ["--samples", "10000", "40000"] if argv[2] == "experiment-rosenthal" else []
        assert main(argv[1:] + small) == 0


# --- exit codes --------------------------------------------------------------------


def test_exit_code_2_on_config_parse_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = $\n")
    rc = main(["--command", "norm", "--config", cfg, "--vector", _vec(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("parse error:")


def test_exit_code_2_on_validation_error(tmp_path, capsys):
    cfg = _cfg(tmp_path, "p = 2\nspace = lp\n")
    rc = main(["--command", "norm", "--config", cfg, "--vector", _vec(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


_TOO_DEEP = "parse error: line 2, column 585: nested deeper than 64 levels of nodes and lists"
_XP_TOO_DEEP = "error: space.xp_alpha: nests r + q*L = 1500 levels, more than 64"


@pytest.mark.parametrize(
    "space, message",
    [
        ("envelope(" * 250 + "lp" + ")" * 250, _TOO_DEEP),
        ("envelope(" * 3000 + "lp" + ")" * 3000, _TOO_DEEP),
        ("xp_alpha(0, 1500, 1)", _XP_TOO_DEEP),
        ("xp_alpha(1500, 0, 1)", _XP_TOO_DEEP),
    ],
    ids=["envelope-250", "envelope-3000", "xp_alpha-r", "xp_alpha-q"],
)
def test_exit_code_2_on_deep_nesting(tmp_path, capsys, space, message):
    cfg = _cfg(tmp_path, f"p = 4\nspace = {space}\n")
    rc = main(["--command", "norm", "--config", cfg, "--vector", _vec(tmp_path)])
    assert (rc, capsys.readouterr().err) == (2, message + "\n")


def test_exit_code_2_on_bad_vector(tmp_path, capsys):
    vec = _file(tmp_path, "1 2 : 0.5\n", "bad.vec")
    rc = main(["--command", "norm", "--config", _cfg(tmp_path), "--vector", vec])
    assert rc == 2
    assert "expected 1 coordinates, got 2" in capsys.readouterr().err


def test_exit_code_2_on_non_finite_vector_value(tmp_path, capsys):
    vec = _file(tmp_path, "1 : 1\n2 : nan\n", "nan.vec")
    rc = main(["--command", "norm", "--config", _cfg(tmp_path), "--vector", vec])
    assert rc == 2
    assert "entry (2,): coefficient nan is not finite" in capsys.readouterr().err


def test_exit_code_2_on_missing_flag(tmp_path, capsys):
    rc = main(["--command", "norm", "--config", _cfg(tmp_path)])
    assert rc == 2
    assert "command 'norm' requires --vector" in capsys.readouterr().err


def test_exit_code_3_on_capacity(tmp_path, capsys):
    rc = main(
        ["--command", "check-envelope-property", "--config", _cfg(tmp_path, CONST_CFG),
         "--vector", _vec(tmp_path), "--cap-members", "1"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("capacity error: 2 members exceed")


def test_cap_assignments_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["--command", "envelope", "--config", _cfg(tmp_path, CONST_CFG),
              "--vector", _vec(tmp_path), "--cap-assignments", "8"])
    assert "unrecognized arguments: --cap-assignments" in capsys.readouterr().err


def test_exit_code_2_on_underflowing_weight(tmp_path, capsys):
    rc = main(
        ["--command", "norm", "--config", _cfg(tmp_path, "p = 4\nspace = xp(geometric(0.5))\n"),
         "--vector", _vec(tmp_path, "1 : 1\n1100 : 1\n")]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: weight Geometric(ratio=0.5) underflows to 0.0 at s = 1100\n"
    )


def test_exit_code_4_on_missing_files(tmp_path, capsys):
    rc = main(
        ["--command", "norm", "--config", str(tmp_path / "nope.cfg"),
         "--vector", _vec(tmp_path)]
    )
    assert rc == 4
    assert capsys.readouterr().err.startswith("i/o error:")
    rc = main(
        ["--command", "norm", "--config", _cfg(tmp_path),
         "--vector", str(tmp_path / "nope.vec")]
    )
    assert rc == 4


def test_unknown_command_rejected_by_argparse(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--command", "frobnicate"])
    assert exc.value.code == 2
