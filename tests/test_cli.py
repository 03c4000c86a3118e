import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from signject.cli import MAX_PRECISION_BITS, _json_value, main
from signject.engine import FullSpace, check_injectivity, verify_counterexample
from signject.ratmat import RationalMatrix

M = RationalMatrix
SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output.schema.json").read_text()
)


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    payload = json.loads(out) if out else None
    if payload is not None:
        jsonschema.validate(payload, SCHEMA)
    return code, payload, err


def write(tmp_path, name, matrix):
    p = tmp_path / name
    p.write_text(json.dumps(matrix.to_json_dict()))
    return str(p)


def test_injectivity_birch(tmp_path, capsys):
    A = M([[1, 2], [3, 4]])
    a = write(tmp_path, "A.json", A)
    b = write(tmp_path, "B.json", A.transpose())
    code, payload, err = run_cli(["injectivity", "--A", a, "--B", b, "--full-space"], capsys)
    assert code == 0
    assert payload["injective"] is True
    assert "HOLDS" in err


def test_injectivity_counterexample(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, -1]]))
    b = write(tmp_path, "B.json", M.identity(2))
    c = write(tmp_path, "C.json", M([[1], [1]]))
    code, payload, _ = run_cli(["injectivity", "--A", a, "--B", b, "--S-image", c], capsys)
    assert code == 3
    cx = payload["counterexample"]
    assert cx is not None and float(cx["residual_bound"]) < 1e-30


def test_injectivity_kernel_with_dependent_rows(tmp_path, capsys):
    # Z = (1, 1, 1) and Z with a second, dependent row present the same S
    a = write(tmp_path, "A.json", M([[1, 0, -1], [0, 1, -1]]))
    b = write(tmp_path, "B.json", M.identity(3))
    outputs = []
    for name, Z in (("Z1.json", [[1, 1, 1]]), ("Z2.json", [[1, 1, 1], [2, 2, 2]])):
        out = tmp_path / f"out-{name}"
        argv = ["--output", str(out), "injectivity", "--A", a, "--B", b,
                "--S-kernel", write(tmp_path, name, M(Z))]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["injective"] is True


def test_injectivity_sign_file(tmp_path, capsys):
    a = write(tmp_path, "A.json", M.identity(2))
    b = write(tmp_path, "B.json", M([[1, 1], [1, 1]]))
    signs = tmp_path / "T.txt"
    signs.write_text("++\n")
    code, payload, _ = run_cli(["injectivity", "--A", a, "--B", b, "--S-signs", str(signs)], capsys)
    assert code == 0 and payload["injective"] is True


def test_sign_file_comments(tmp_path, capsys):
    """`#` lines are comments in sign-set files, indented or not."""
    a = write(tmp_path, "A.json", M.identity(2))
    b = write(tmp_path, "B.json", M([[1, 1], [1, 1]]))
    signs = tmp_path / "T.txt"
    signs.write_text("# orthants of S\n  # note\n\t# tab-indented note\n ++ \n")
    code, payload, _ = run_cli(["injectivity", "--A", a, "--B", b, "--S-signs", str(signs)], capsys)
    assert code == 0 and payload["injective"] is True


def test_minors_and_gamma(tmp_path, capsys):
    at = write(tmp_path, "At.json", M([[1, -1], [1, -1]]))
    b = write(tmp_path, "B.json", M.identity(2))
    code, payload, _ = run_cli(["minors", "--A", at, "--B", b, "--s", "1"], capsys)
    assert code == 3 and payload["holds"] is False

    ap = write(tmp_path, "Ap.json", M([[1]]))
    b2 = write(tmp_path, "B2.json", M([[1, 2]]))
    z = write(tmp_path, "Z.json", M([[1, 1]]))
    code, payload, _ = run_cli(["gamma-det", "--Aprime", ap, "--B", b2, "--Z", z], capsys)
    assert code == 3
    coeffs = {tuple(t["I"] + t["J"]): t["coefficient"] for t in payload["polynomial"]["terms"]}
    assert coeffs == {(0, 0): "-1", (1, 0): "2"}


def test_matroid_commands(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, 0, 1], [0, 1, 1]]))
    code, payload, _ = run_cli(["chirotope", "--A", a], capsys)
    assert code == 0
    assert {"subset": [1, 2], "sign": -1} in payload["signs"]
    code, payload, _ = run_cli(["covectors", "--A", a], capsys)
    assert code == 0 and len(payload["covectors"]) == 13


def test_descartes_commands(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, -1, 1]]))
    b = write(tmp_path, "B.json", M([[1], [2], [5]]))
    code, payload, _ = run_cli(["descartes", "bnd", "--A", a, "--B", b], capsys)
    assert code == 3 and payload["ledger"]["conflicting_J"] == [[0], [1]]

    bt = M([[1, 0], [0, 1], [1, 1]])
    a2 = write(tmp_path, "A2.json", bt.transpose())
    b2 = write(tmp_path, "B2.json", bt)
    code, payload, _ = run_cli(["descartes", "ex", "--A", a2, "--B", b2], capsys)
    assert code == 0 and payload["ex_holds"] is True

    i2 = write(tmp_path, "I2.json", M.identity(2))
    code, payload, _ = run_cli(["descartes", "cone", "--A", i2, "--y", "1,1"], capsys)
    assert code == 0 and payload["in_open_cone"] is True
    code, payload, _ = run_cli(["descartes", "cone", "--A", i2, "--y", "1,0"], capsys)
    assert code == 3


def test_crn_commands(tmp_path, capsys):
    net = tmp_path / "net.txt"
    net.write_text("k1: A -> B\nk2: B -> A\n")
    code, payload, _ = run_cli(["crn", "preclude", str(net)], capsys)
    assert code == 0 and payload["precluded"] is True

    net2 = tmp_path / "net2.txt"
    net2.write_text("k1: 0 -> X\nk2: X -> 0\nk3: 2 X -> 3 X\n")
    code, payload, _ = run_cli(["crn", "preclude", str(net2)], capsys)
    assert code == 3 and payload["steady_state_pair"] is not None

    m = write(tmp_path, "M.json", M([[1, -1]]))
    code, payload, _ = run_cli(["crn", "special", str(net), "--M", m], capsys)
    assert code in (0, 3)


def test_crn_special_makes_one_intersection(tmp_path, capsys, monkeypatch):
    """A non-unique `crn special` runs the covector closure once, for ker M:
    the unique verdict and the witness share one intersection, and im N
    enters only through its circuits."""
    import signject.matroid as matroid

    calls = []
    for name in ("_covector_masks", "_span_masks"):
        def counting(*args, _name=name, _fn=getattr(matroid, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(matroid, name, counting)
    net = tmp_path / "net.txt"
    net.write_text("k1: 0 -> A + B\nk2: A + B -> 0\n")
    m = write(tmp_path, "M.json", M([[1, -1]]))
    code, payload, _ = run_cli(["crn", "special", str(net), "--M", m], capsys)
    assert code == 3 and payload["unique"] is False and payload["witness"]["rho"] == "--"
    assert calls == ["_span_masks", "_covector_masks"]


def test_oracle_commands(tmp_path, capsys):
    m = write(tmp_path, "M.json", M([[1, -1]]))
    code, payload, _ = run_cli(["oracle", "sign-set", "--M", m, "--mode", "kernel"], capsys)
    assert code == 0 and payload["vectors"] == ["--", "00", "++"]


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(["injectivity", "--A", "missing.json", "--B", "missing.json", "--full-space"], capsys)
    assert code == 2
    code, _, _ = run_cli(["nonsense"], capsys)
    assert code == 2
    a = write(tmp_path, "A.json", M.identity(2))
    code, _, err = run_cli(["--precision", "32", "chirotope", "--A", a], capsys)
    assert code == 2 and "precision" in err


def test_precision_upper_bound(tmp_path, capsys):
    """At the bound a counterexample is built and rendered (exit 3); one bit
    more is a usage error that names the precision (exit 2)."""
    argv = ["injectivity", "--A", write(tmp_path, "A.json", RationalMatrix([[1, -1]])),
            "--B", write(tmp_path, "B.json", RationalMatrix([[1], [2]])), "--full-space"]
    code, payload, _ = run_cli(["--precision", str(MAX_PRECISION_BITS)] + argv, capsys)
    assert code == 3 and payload["counterexample"] is not None
    message = f"error: precision must be between 64 and {MAX_PRECISION_BITS} bits, got {MAX_PRECISION_BITS + 1}\n"
    code, payload, err = run_cli(["--precision", str(MAX_PRECISION_BITS + 1)] + argv, capsys)
    assert code == 2 and payload is None and err == message


def test_json_value_renders_retry_precision_rationals():
    """A kappa of the 4x retry at the bound, numerator and denominator of
    4 * MAX_PRECISION_BITS bits each, renders as p/q."""
    bits = 4 * MAX_PRECISION_BITS
    value = Fraction(2**bits - 1, 2**(bits - 1))
    assert value.numerator.bit_length() == value.denominator.bit_length() == bits
    assert Fraction(_json_value(value)) == value


def test_oracle_sample_rejects_negative_samples(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, -1]]))
    b = write(tmp_path, "B.json", M([[1], [2]]))
    code, payload, err = run_cli(["oracle", "sample", "--A", a, "--B", b, "--samples", "-3"], capsys)
    assert code == 2 and payload is None
    assert err == "error: samples must be non-negative, got -3\n"


@pytest.mark.parametrize("argv, message", [
    (["oracle", "sample", "--A", "A.json", "--B", "B.json"], "B must have one row per column of A"),
    (["oracle", "gamma", "--Aprime", "A.json", "--B", "B.json"], "B must have one row per column of A'"),
], ids=["sample", "gamma"])
def test_oracle_rejects_mismatched_shapes(tmp_path, capsys, monkeypatch, argv, message):
    """A 1 x 2 and B 3 x 1: exit 2, as injectivity and gamma-det do on the same files."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "A.json", M([[1, -1]]))
    write(tmp_path, "B.json", M([[1], [2], [3]]))
    code, payload, err = run_cli(argv, capsys)
    assert code == 2 and payload is None
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["gamma-det"], ["oracle", "gamma"]], ids=["gamma-det", "oracle-gamma"])
@pytest.mark.parametrize("Z", [[[1]], [[1, 2, 3]]], ids=["1x1", "1x3"])
def test_gamma_rejects_a_misshapen_Z(tmp_path, capsys, command, Z):
    """A' 1 x 2 and B 2 x 2 need a 1 x 2 Z: both commands exit 2 on any other."""
    argv = [*command, "--Aprime", write(tmp_path, "A.json", M([[1, -1]])),
            "--B", write(tmp_path, "B.json", M.identity(2)), "--Z", write(tmp_path, "Z.json", M(Z))]
    code, payload, err = run_cli(argv, capsys)
    assert (code, payload, err) == (2, None, "error: Z must be 1 x 2\n")


@pytest.mark.parametrize("command, body", [("covectors", ["00"]), ("cocircuits", [])])
def test_rank_zero_configuration(tmp_path, capsys, command, body):
    """A 0 x 2 configuration has rank 0: no cocircuit, and the zero covector only."""
    a = tmp_path / "A.json"
    a.write_text(json.dumps({"rows": 0, "cols": 2, "entries": []}))
    code, payload, _ = run_cli([command, "--A", str(a)], capsys)
    assert code == 0 and payload[command] == body


def test_minors_rejects_negative_order(tmp_path, capsys):
    a = write(tmp_path, "A.json", M.identity(2))
    code, payload, err = run_cli(["minors", "--A", a, "--B", a, "--s", "-1"], capsys)
    assert code == 2 and payload is None
    assert err == "error: the minor order s must be non-negative, got -1\n"


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, 0], [0, 1]]))
    b = write(tmp_path, "B.json", M([[1, 0], [0, 1]]))
    out = tmp_path / "missing" / "out.json"
    code, payload, err = run_cli(["--output", str(out), "minors", "--A", a, "--B", b, "--s", "1"], capsys)
    assert code == 2 and payload is None
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


NO_SUCH_FILE = "[Errno 2] No such file or directory"


@pytest.mark.parametrize("argv, line", [
    (["injectivity", "--A", "missing.json", "--B", "I.json", "--full-space"],
     f"cannot read missing.json: {NO_SUCH_FILE}: 'missing.json'"),
    (["injectivity", "--A", "I.json", "--B", "I.json", "--S-signs", "missing.txt"],
     f"cannot read missing.txt: {NO_SUCH_FILE}: 'missing.txt'"),
    (["crn", "special", "missing.txt", "--M", "I.json"],
     f"cannot read missing.txt: {NO_SUCH_FILE}: 'missing.txt'"),
    (["crn", "preclude", "net.txt", "--kinetic-orders", "missing.json"],
     f"cannot read missing.json: {NO_SUCH_FILE}: 'missing.json'"),
    (["minors", "--A", "I.json", "--B", "bad.json", "--s", "1"],
     "bad matrix file bad.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["crn", "preclude", "net.txt", "--kinetic-orders", "bad.json"],
     "bad kinetic-order file bad.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["chirotope", "--A", "latin1.json"],
     "bad matrix file latin1.json: 'utf-8' codec can't decode byte 0xff in position 37: invalid start byte"),
    (["--output", "missing/out.json", "chirotope", "--A", "I.json"],
     f"cannot write missing/out.json: {NO_SUCH_FILE}: 'missing/out.json'"),
    (["injectivity", "--A", "I.json", "--B", "I.json", "--S-signs", "T3.txt"],
     "orthant sign vectors must have length n = 2"),
    *[(["descartes", "cone", "--A", "I.json", "--y", y], f"bad rational vector {y!r}: {reason}")
      for y, reason in (("1,x", "not an exact rational: 'x'"), ("", "not an exact rational: ''"),
                        ("1/0", "zero denominator: '1/0'"))],
], ids=["matrix", "sign-file", "network", "kinetic-orders", "malformed-matrix", "malformed-kinetic-orders",
        "not-utf8", "unwritable-output", "sign-length-not-n", "vector-letter", "vector-empty",
        "vector-zero-denominator"])
def test_input_error_lines(tmp_path, capsys, monkeypatch, argv, line):
    """Each unreadable or malformed input: exit 2, no JSON, and one stderr line."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "I.json", M.identity(2))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "latin1.json").write_bytes(b'{"rows": 1, "cols": 1, "entries": [["\xff"]]}')
    (tmp_path / "net.txt").write_text("k1: A -> B\nk2: B -> A\n")
    (tmp_path / "T3.txt").write_text("+++\n-+-\n")  # vectors of one length, but not B's n = 2
    code, payload, err = run_cli(argv, capsys)
    assert (code, payload, err) == (2, None, f"error: {line}\n")


@pytest.mark.parametrize("argv, text, line", [
    *[(["chirotope", "--A", "in.json"], f'{{"rows": 1, "cols": 2, "entries": [[{entry}, -1]]}}',
       f'bad matrix file in.json: matrix entries are "p/q" strings or integers, not {shown}')
      for entry, shown in (("true", "True"), ("null", "None"), ("1.5", "1.5"))],
    (["chirotope", "--A", "in.json"], '{"rows": 2, "cols": 1, "entries": [["1"]]}',
     "bad matrix file in.json: expected 2 rows, found 1"),
    (["chirotope", "--A", "in.json"], '{"rows": 1, "cols": 1, "entries": [["1/0"]]}',
     "bad matrix file in.json: zero denominator: '1/0'"),
    *[(["crn", "preclude", "net.txt", "--kinetic-orders", "in.json"], text,
       "bad kinetic-order file in.json: kinetic orders must be an object keyed by reaction label")
      for text in ("[]", '"s"')],
    (["crn", "preclude", "net.txt", "--kinetic-orders", "in.json"], '{"k1": 5}',
     "bad kinetic-order file in.json: kinetic orders of 'k1' must be an object or a list"),
    (["crn", "preclude", "net.txt", "--kinetic-orders", "in.json"], '{"k1": {"A": "1/0"}}',
     "bad kinetic-order file in.json: zero denominator: '1/0'"),
    (["injectivity", "--A", "I.json", "--B", "I.json", "--S-signs", "in.txt"], "++\nx+\n",
     "bad sign file in.txt: invalid sign character in 'x+' (line 2)"),
    (["injectivity", "--A", "I.json", "--B", "I.json", "--S-signs", "in.txt"], "++\n00\n",
     "bad sign file in.txt: sign vectors must be nonzero: '00' (line 2)"),
    (["injectivity", "--A", "I.json", "--B", "I.json", "--S-signs", "in.txt"], "++\n+++\n",
     "bad sign file in.txt: sign vector '+++' has length 3, the first has 2 (line 2)"),
    (["crn", "preclude", "in.txt"], "k1 A -> B\n",
     "bad network file in.txt: expected 'label: reactant -> product' (line 1, column 1)"),
    (["crn", "preclude", "in.txt"], "k1: 1/0 A -> B\n",
     "bad network file in.txt: zero denominator: '1/0' (line 1, column 5)"),
], ids=["matrix-true", "matrix-null", "matrix-float", "matrix-rows", "matrix-zero-denominator", "kinetic-list",
        "kinetic-string", "kinetic-row-number", "kinetic-zero-denominator", "sign-file", "sign-file-zero-vector",
        "sign-file-mixed-length", "network-file", "network-zero-denominator"])
def test_bad_file_lines(tmp_path, capsys, monkeypatch, argv, text, line):
    """A file that reads but does not parse: exit 2, no JSON, one line naming the file."""
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "I.json", M.identity(2))
    (tmp_path / "net.txt").write_text("k1: A -> B\nk2: B -> A\n")
    (tmp_path / next(a for a in argv if a.startswith("in."))).write_text(text)
    code, payload, err = run_cli(argv, capsys)
    assert (code, payload, err) == (2, None, f"error: {line}\n")


@pytest.mark.parametrize("argv, matrices, line", [
    (["covectors", "--A", "A.json"], {"A.json": (0, 0)},
     "a sign vector needs at least one coordinate"),
    (["oracle", "sign-set", "--M", "M.json", "--mode", "image"], {"M.json": (0, 2)},
     "the image of M lies in R^0"),
    (["oracle", "sign-set", "--M", "M.json", "--mode", "kernel"], {"M.json": (2, 0)},
     "the kernel of M lies in R^0"),
    *[(["injectivity", "--A", "A.json", "--B", "B.json", *subset], {"A.json": (1, 0), "B.json": (0, 1)},
       "A has no columns, so mu = 0 has no coordinate")
      for subset in (["--full-space"], ["--S-signs", "T.txt"], ["--S-image", "C.json"])],
    (["oracle", "sample", "--A", "A.json", "--B", "B.json"], {"A.json": (0, 0), "B.json": (0, 0)},
     "A has no columns, so kappa has no coordinate"),
], ids=["covectors", "sign-set-image", "sign-set-kernel",
        "injectivity-full-space", "injectivity-signs", "injectivity-image", "oracle-sample"])
def test_empty_ground_set(tmp_path, capsys, monkeypatch, argv, matrices, line):
    """Sign vectors over no coordinate: exit 2 with a shape error, no JSON."""
    monkeypatch.chdir(tmp_path)
    for name, (rows, cols) in matrices.items():
        (tmp_path / name).write_text(json.dumps({"rows": rows, "cols": cols, "entries": [[]] * rows}))
    (tmp_path / "T.txt").write_text("+\n")
    write(tmp_path, "C.json", M([[1]]))
    code, payload, err = run_cli(argv, capsys)
    assert (code, payload, err) == (2, None, f"error: the ground set is empty: {line}\n")


@pytest.mark.parametrize("command, body", [
    ("chirotope", {"rank": 0, "ground_size": 0, "signs": [{"subset": [], "sign": 1}]}),
    ("cocircuits", {"cocircuits": []}),
])
def test_empty_configuration_without_sign_vectors(tmp_path, capsys, command, body):
    """A 0 x 0 configuration keeps its output: one maximal minor, the empty one
    (det 1), and no cocircuit."""
    a = tmp_path / "A.json"
    a.write_text(json.dumps({"rows": 0, "cols": 0, "entries": []}))
    code, payload, _ = run_cli([command, "--A", str(a)], capsys)
    assert code == 0 and payload == {"schema_version": "1", "command": command, **body}


def test_size_guard_exit_code(tmp_path, capsys):
    """Every matroid enumeration stops at ground-set size 16, the chirotope and
    the cocircuits as well as the covectors."""
    wide = write(tmp_path, "W.json", M([[1] * 17]))
    for command in ("chirotope", "cocircuits", "covectors"):
        code, payload, err = run_cli([command, "--A", wide], capsys)
        assert (code, payload, err) == (4, None, "error: matroid enumeration guarded at ground-set size 16\n")


def test_covector_budget_exit_code(tmp_path, capsys, monkeypatch):
    import signject.matroid as matroid

    # the 5 x 5 identity has 3^5 = 243 covectors
    monkeypatch.setattr(matroid, "COVECTOR_BUDGET", 100)
    identity = write(tmp_path, "I.json", M.identity(5))
    a = write(tmp_path, "A.json", M([[1, -1, 0, 0, 0]]))
    # dim S = 5 is not rank A = 1, so the sign search enumerates sigma(S)
    for argv in (["covectors", "--A", identity],
                 ["injectivity", "--A", a, "--B", identity, "--S-image", identity]):
        code, payload, err = run_cli(argv, capsys)
        assert (code, payload) == (4, None)
        assert err.startswith("error: ") and "budget of 100 covectors" in err


@pytest.mark.parametrize("A, B, subset, expected_code", [
    ([[1, 0, 1], [0, 1, 1]], [[1, 0], [0, 1], [1, 1]], "--\n-0\n-+\n0-\n0+\n+-\n+0\n++\n", 0),
    ([[1, -1]], [[1, 0], [0, 1]], "+-\n++\n", 3),
    ([[1, -1]], [[1, 0], [0, 1]], M([[1], [1]]), 3),
], ids=["birch", "counterexample", "image"])
def test_sign_search_budget(tmp_path, capsys, monkeypatch, A, B, subset, expected_code):
    import signject.engine as engine

    a = write(tmp_path, "A.json", M(A))
    b = write(tmp_path, "B.json", M(B))
    if isinstance(subset, str):
        t = tmp_path / "T.txt"
        t.write_text(subset)
        flag = ["--S-signs", str(t)]
    else:
        flag = ["--S-image", write(tmp_path, "C.json", subset)]
    out = tmp_path / "out.json"
    argv = ["--output", str(out), "injectivity", "--A", a, "--B", b, *flag]
    # the sign search asks _refuted once for each pair it decides, by LP or by
    # nogood, and the budget counts those pairs
    refuted = engine._refuted
    pairs = []
    monkeypatch.setattr(engine, "_refuted", lambda *args: pairs.append(args) or refuted(*args))
    assert main(argv) == expected_code
    expected = out.read_bytes()
    out.unlink()
    needed = len(pairs)
    assert needed
    # a budget of exactly the pairs the search decides changes nothing
    monkeypatch.setattr(engine, "SIGN_SEARCH_LP_BUDGET", needed)
    assert main(argv) == expected_code
    assert out.read_bytes() == expected
    out.unlink()
    monkeypatch.setattr(engine, "SIGN_SEARCH_LP_BUDGET", needed - 1)
    capsys.readouterr()
    code = main(argv)
    assert len(pairs) == 3 * needed - 1
    if flag[0] == "--S-signs":
        # one pair less stops the search with the size-guard exit code and no JSON
        assert code == 4
        _, err = capsys.readouterr()
        assert not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
        return
    # the minors route has decided: the verdict stays, without its counterexample
    golden = json.loads((Path(__file__).parent / "golden" / "inj_image_minors_fail.json").read_text())
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert code == 3
    assert payload["injective"] is False and payload["method"] == "minors"
    assert payload["certificate"] == golden["certificate"]
    assert payload["counterexample"] is None
    assert payload["warnings"] == [
        f"no counterexample: the (mu, tau) sign search stopped at its {needed - 1:,}-LP budget "
        "after the minors route had decided"
    ]


@pytest.mark.parametrize("B", [[["1"], ["2"]], [["1/2"], ["2"]]], ids=["integral", "fractional"])
def test_oracle_sample_without_rows(tmp_path, capsys, B):
    """A 0 x 2 matrix A: f_kappa is the empty map, so every admissible pair
    collides, in both branches of the sampling search: with the LP's kappa = 1
    for integral B, and with a positive kappa from a kernel vector of A,
    verified at 256 bits, for non-integral B."""
    a = tmp_path / "A.json"
    a.write_text(json.dumps({"rows": 0, "cols": 2, "entries": []}))
    b = tmp_path / "B.json"
    b.write_text(json.dumps({"rows": 2, "cols": 1, "entries": B}))
    code, payload, err = run_cli(["oracle", "sample", "--A", str(a), "--B", str(b), "--samples", "20"], capsys)
    assert code == 3 and err == "17 verified violations in 20 samples\n"
    assert payload["candidates"] == 17
    if B == [["1"], ["2"]]:
        assert all(v["kappa"] == ["1", "1"] for v in payload["violations"])
    no_rows, exponents = RationalMatrix([], 0, 2), RationalMatrix([[Fraction(e) for e in row] for row in B])
    for v in payload["violations"]:
        kappa, x, y = ([Fraction(e) for e in v[key]] for key in ("kappa", "x", "y"))
        assert x != y and all(k > 0 for k in kappa)
        assert verify_counterexample(no_rows, exponents, kappa, x, y, 256)[0]


@pytest.mark.parametrize("subset", ["--full-space", "--S-image", "--S-signs"])
def test_injectivity_without_rows(tmp_path, capsys, subset):
    """A 0 x 2 matrix A: f_kappa is the empty map, so every x != y collides;
    the counterexample's residual over no rows is 0."""
    a = tmp_path / "A.json"
    a.write_text(json.dumps({"rows": 0, "cols": 2, "entries": []}))
    b = write(tmp_path, "B.json", M.identity(2))
    argv = ["injectivity", "--A", str(a), "--B", b, subset]
    if subset == "--S-image":
        argv.append(write(tmp_path, "C.json", M([[1], [0]])))
    elif subset == "--S-signs":
        signs = tmp_path / "T.txt"
        signs.write_text("+-\n++\n")
        argv.append(str(signs))
    code, payload, _ = run_cli(argv, capsys)
    assert code == 3 and payload["injective"] is False
    cx = payload["counterexample"]
    assert cx is not None and float(cx["residual_bound"]) == 0
    if subset == "--full-space":
        assert cx["kappa"] == ["1", "1"]


def test_oracle_sample_precision(tmp_path, capsys, monkeypatch):
    """oracle sample passes --precision, else 256, to the sampling search."""
    import signject.oracle as oracle

    search = oracle.sampled_injectivity_search
    precs = []

    def recording(*args, **kwargs):
        precs.append(kwargs["prec"])
        return search(*args, **kwargs)

    monkeypatch.setattr(oracle, "sampled_injectivity_search", recording)
    argv = ["oracle", "sample", "--A", write(tmp_path, "A.json", M([[1, -1]])),
            "--B", write(tmp_path, "B.json", M([["1/2"], ["2"]])), "--samples", "5"]
    outputs = [run_cli(argv, capsys)]
    outputs.append(run_cli(["--precision", "128"] + argv, capsys))
    assert precs == [256, 128]
    assert all(code in (0, 3) and payload["samples"] == 5 for code, payload, _ in outputs)


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    import signject.engine as engine

    holds = engine.det_condition
    monkeypatch.setattr(engine, "det_condition", lambda poly: not holds(poly))
    a = write(tmp_path, "A.json", M([[1, 1]]))
    b = write(tmp_path, "B.json", M.identity(2))
    c = write(tmp_path, "C.json", M([[1], [1]]))
    code, payload, err = run_cli(["injectivity", "--A", a, "--B", b, "--S-image", c], capsys)
    assert code == 5
    assert payload is None
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_output_file_and_determinism(tmp_path, capsys):
    a = write(tmp_path, "A.json", M([[1, -1]]))
    b = write(tmp_path, "B.json", M.identity(2))
    outs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"out{jobs}.json"
        code = main(["--jobs", jobs, "--output", str(out),
                     "injectivity", "--A", a, "--B", b, "--full-space"])
        capsys.readouterr()
        assert code == 3
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "signject.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "injectivity" in proc.stdout


def test_precision_is_per_call(tmp_path, capsys):
    A, B = M([[1, -1]]), M([[1], [2]])
    argv = ["injectivity", "--A", write(tmp_path, "A.json", A), "--B",
            write(tmp_path, "B.json", B), "--full-space"]
    _, low, _ = run_cli(["--precision", "128"] + argv, capsys)
    # a later library call still renders its witness at the default 256 bits
    x = check_injectivity(A, B, FullSpace()).counterexample.x
    assert x == check_injectivity(A, B, FullSpace(), prec=256).counterexample.x
    _, default, _ = run_cli(argv, capsys)
    assert default["counterexample"]["x"] == list(x)
    assert len(low["counterexample"]["x"][0]) < len(x[0])


def test_precision_comes_only_from_the_flag(tmp_path, capsys, monkeypatch):
    """With no --precision the CLI renders at 256 bits, whatever the
    environment holds: SIGNJECT_PRECISION_BITS is not read."""
    argv = ["injectivity", "--A", write(tmp_path, "A.json", M([[1, -1]])),
            "--B", write(tmp_path, "B.json", M([[1], [2]])), "--full-space"]
    monkeypatch.setenv("SIGNJECT_PRECISION_BITS", "128")
    _, from_env, _ = run_cli(argv, capsys)
    _, flagged, _ = run_cli(["--precision", "256"] + argv, capsys)
    _, low, _ = run_cli(["--precision", "128"] + argv, capsys)
    assert from_env == flagged != low
