import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diffalg
from diffalg.cli import main


@pytest.fixture
def sysfile(tmp_path):
    def write(text, name="sys.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_jacobi(sysfile, capsys):
    f = sysfile("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    assert main(["jacobi", f]) == 0
    assert capsys.readouterr().out.strip() == "J(weak)=101 J(strong)=101"


def test_jacobi_json(sysfile, capsys):
    f = sysfile("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    assert main(["jacobi", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["J_weak"] == 18 and data["J_strong"] == 2
    assert data["witnesses_weak"] == [[1, 0]]


def test_matrix_grid(sysfile, capsys):
    f = sysfile("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    assert main(["matrix", f]) == 0
    assert capsys.readouterr().out == " 1 18\n ·  1\n"
    assert main(["matrix", f, "--convention", "weak", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == [[1, 18], [0, 1]] and data["cols"] == ["x", "y"]


def test_vars_override(sysfile, capsys):
    f = sysfile("x' + y^(18)\n(y')^2 + y\n")
    assert main(["matrix", f, "--vars", "y,x", "--convention", "weak", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == [[18, 1], [1, 0]]


def test_trace(sysfile, capsys):
    f = sysfile("vars: x, y, z\nx^(100) + y' + z'\nx^(50) + y + z\nx' + y' + 1\n")
    assert main(["trace", f, "--script", "0/2@x;1/2@x"]) == 0
    assert capsys.readouterr().out.strip() == "J-sequence: 101,150,101"


def test_divide(sysfile, capsys):
    f = sysfile("vars: x\nx''\nx' - x\n")
    assert main(["divide", f, "--dividend", "0", "--divisor", "1", "--var", "x", "--mode", "full", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["remainder"] == "x" and data["s"] == "1" and data["mode"] == "full"
    assert data["quotients"] == [[[1, "1"], [0, "1"]]]


def test_autoreduce_and_dims(sysfile, capsys):
    f = sysfile("vars: x, y\nx' - x\ny' - x\n")
    assert main(["autoreduce", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["charset"] == ["x' - x", "y' - x"] and data["converged"]
    assert main(["dims", f]) == 0
    assert capsys.readouterr().out.strip() == "diffDim=0 absDimBound=2"


def test_autoreduce_inconsistent_reported(sysfile, capsys):
    f = sysfile("vars: x\nx' - x\nx' - x - 1\n")
    assert main(["autoreduce", f, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inconsistent"] is True
    # remainders are primitive, so the constant found is 1 or -1: here the
    # division leaves 7, reported as 1
    f2 = sysfile("vars: x\nx' - x\n3*x' - 3*x - 7\n", "f2.txt")
    assert main(["autoreduce", f2, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"inconsistent": True, "constant": "1"}
    assert main(["dims", f2, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["constant"] == "1"


def test_tie_too_long_to_render_reports_inconsistency(sysfile, capsys):
    # x - 1 and x - 2^20000 tie in rank, and the second cannot be rendered
    # to break the tie: basis order decides, and the remainder -1 is reported
    f = sysfile("vars: x\nx - 1\nx - 2^20000\n")
    for command in ("autoreduce", "dims"):
        assert main([command, f]) == 0
        assert capsys.readouterr().out == "inconsistent system (nonzero constant remainder -1)\n"
        assert main([command, f, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"inconsistent": True, "constant": "-1"}


def test_forms(sysfile, capsys):
    f = sysfile("vars: x, y\nx' - x\nx'' - y\n")
    assert main(["forms", f]) == 0
    assert "first=True" in capsys.readouterr().out
    f2 = sysfile("vars: x, y\nx^(4) + y'''\nx'' + y'\n", "f2.txt")
    assert main(["forms", f2, "--to", "first", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["form"] == "first"


def test_reduce_linear(sysfile, capsys):
    f = sysfile("vars: x, y\nx'' - x\ny' - x\n")
    assert main(["reduce-linear", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["diff_dim"] == 0 and data["abs_dim_bound"] == 3


def test_reduce_linear_order_six_system(sysfile, capsys):
    # its coefficients once grew past the int-to-str limit and render failed
    f = sysfile(
        "vars: x, y, z\n"
        "-y^(4) + z''' + 2*x''' + 3*x'' - x' + z\n"
        "-2*y^(6) - 2*x^(6) + z^(5) - 3*z' - 3*y' + 3*x' - x + 3\n"
        "z^(5) - 3*z'' + x'' + z' + 3*x\n"
    )
    assert main(["reduce-linear", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["abs_dim_bound"] == data["J_initial"] == 15


def test_pencil(sysfile, capsys):
    f = sysfile("vars: x, y\nx'^2 - x\ny' - x\n")
    assert main(["pencil", f, "--pivot", "0", "--var", "x", "--fibers", "0,1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["separant"] == "2*x'" and data["degree"] == 2
    assert data["fibers"]["0"][0] == data["coseparant"]


def test_examples_passes():
    assert main(["examples"]) == 0


def test_error_paths(sysfile, capsys):
    f = sysfile("")
    assert main(["jacobi", f]) == 1
    f2 = sysfile("vars: x\nx' +* 2\n", "bad.txt")
    assert main(["jacobi", f2]) == 1
    assert main(["jacobi", "/no/such/file"]) == 1
    f3 = sysfile("vars: x, y\nx^(4) + y'''\nx'' + y'\n", "f3.txt")
    assert main(["forms", f3, "--to", "second"]) == 1  # hypothesis failure
    capsys.readouterr()


def _value_error(argv, capsys):
    """The library's ValueError text for argv, checked to exit 1 in text and in JSON."""
    assert main(argv) == 1
    text = capsys.readouterr().err
    assert main(argv + ["--json"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "ValueError" and text == "error: %s\n" % err["error"]
    return err["error"]


def test_divide_unknown_variable(sysfile, capsys):
    f = sysfile("vars: x, y\nx'' - y\nx' - x\n")
    assert _value_error(["divide", f, "--dividend", "0", "--divisor", "1", "--var", "q"], capsys) == "no variable 'q'"


def test_trace_unknown_variable(sysfile, capsys):
    f = sysfile("vars: x, y\nx'' - y\nx' - x\n")
    assert _value_error(["trace", f, "--script", "0/1@q"], capsys) == "no variable 'q'"


def test_pencil_bad_pivot_and_variable(sysfile, capsys):
    f = sysfile("vars: x, y\nx'^2 - x\ny' - x\n")
    for pivot in ("2", "-1"):
        argv = ["pencil", f, "--pivot", pivot, "--var", "x"]
        assert _value_error(argv, capsys) == "pivot index out of range"
    assert _value_error(["pencil", f, "--pivot", "0", "--var", "q"], capsys) == "no variable 'q'"


def test_error_json(sysfile, capsys):
    f = sysfile("vars: x\n(x'\n")
    assert main(["jacobi", f, "--json"]) == 1
    err = capsys.readouterr().err
    assert json.loads(err)["kind"] == "ParseError"


def _usage_error(argv, capsys):
    """Whether argv is rejected as a usage error, exit 1, in text and in JSON."""
    text_rc = main(argv)
    text = capsys.readouterr()
    json_rc = main(argv + ["--json"])
    out = capsys.readouterr()
    return (
        text_rc == json_rc == 1
        and text.out == out.out == ""
        and text.err.startswith("error: ")
        and json.loads(out.err)["kind"] == "usage"
    )


def test_usage_errors_are_exit_1(sysfile, capsys):
    f = sysfile("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    assert _usage_error(["jacobi"], capsys)
    assert _usage_error(["jacobi", f, "--bogus"], capsys)
    assert _usage_error(["jacobi", f, "--js"], capsys)  # no abbreviations
    assert _usage_error(["divide", f, "--dividend", "zero", "--divisor", "1", "--var", "x"], capsys)
    assert _usage_error([], capsys)
    with pytest.raises(SystemExit) as e:
        main(["jacobi", "--help"])
    assert e.value.code == 0
    assert "--vars" in capsys.readouterr().out


def test_flags_a_command_does_not_read_are_usage_errors(sysfile, capsys):
    f = sysfile("vars: x, y\nx' + y^(18)\n(y')^2 + y\n")
    division = ["divide", f, "--dividend", "0", "--divisor", "1", "--var", "y"]
    assert _usage_error(division + ["--ranking", "elim:q"], capsys)
    assert _usage_error(division + ["--convention", "weak"], capsys)
    for cmd in ("jacobi", "reduce-linear"):
        assert _usage_error([cmd, f, "--convention", "weak"], capsys)
        assert _usage_error([cmd, f, "--ranking", "orderly"], capsys)
    assert _usage_error(["matrix", f, "--ranking", "orderly"], capsys)
    assert _usage_error(["dims", f, "--convention", "weak"], capsys)
    # the commands that read them still take them
    assert main(["matrix", f, "--convention", "weak"]) == 0
    assert main(["forms", f, "--convention", "weak"]) == 0
    assert main(["autoreduce", f, "--ranking", "elim:x;y"]) == 0
    assert main(["dims", f, "--ranking", "elim:y;x"]) == 0
    capsys.readouterr()


def test_pencil_bad_fiber_is_a_user_error(sysfile, capsys):
    f = sysfile("vars: x, y\nx'^2 - x\ny' - x\n")
    for fibers in ("0,1/0", "abc"):
        argv = ["pencil", f, "--pivot", "0", "--var", "x", "--fibers", fibers]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert main(argv + ["--json"]) == 1
        out = capsys.readouterr()
        assert out.out == "" and json.loads(out.err)["kind"] == "ValueError"


NINE ="xyzuvwpqs"


def test_jacobi_nine_variables(sysfile, capsys):
    f = sysfile("vars: %s\n" % ", ".join(NINE) + "".join("%s' + %s\n" % (a, b) for a, b in zip(NINE, NINE[1:] + NINE[0])))
    assert main(["jacobi", f]) == 0
    assert capsys.readouterr().out.strip() == "J(weak)=9 J(strong)=9"
    assert main(["jacobi", f, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witnesses_strong"] == [list(range(9))]


def test_witness_limit_is_exit_3(sysfile, capsys):
    # nine equal equations in nine variables: 9! maximizing transversals
    f = sysfile("vars: %s\n" % ", ".join(NINE) + ("%s\n" % " + ".join(NINE)) * 9)
    assert main(["jacobi", f]) == 0  # the text report lists no witnesses
    assert capsys.readouterr().out.strip() == "J(weak)=0 J(strong)=0"
    assert main(["jacobi", f, "--json"]) == 3
    assert json.loads(capsys.readouterr().err)["kind"] == "resource-limit"


def test_step_budget_is_exit_3(sysfile, capsys, monkeypatch):
    import diffalg.engine as engine

    monkeypatch.setattr(engine, "STEP_BUDGET_FACTOR", 0)
    f = sysfile("vars: x, y\nx' - y\nx'' - y'\n")
    assert main(["reduce-linear", f, "--json"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "resource-limit" and "step budget" in err["error"]


def test_charset_round_cap_is_exit_3(sysfile, capsys, monkeypatch):
    import diffalg.reduction as reduction

    monkeypatch.setattr(reduction, "MAX_ROUNDS", 1)
    f = sysfile("vars: x, y\nx' + y\nx' - y'\n")
    assert main(["autoreduce", f, "--json"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "resource-limit" and "did not converge in 1 rounds" in err["error"]
    assert main(["dims", f]) == 3
    assert capsys.readouterr().err.startswith("resource limit: ")


def test_exponent_and_order_caps_are_exit_3(sysfile, capsys):
    for text in ("vars: x, y\nx^1000000000 + y\ny\n", "vars: x, y\nx^(1000000000) + y\ny\n"):
        f = sysfile(text)
        assert main(["jacobi", f, "--json"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["kind"] == "resource-limit" and "over the cap" in err["error"]
        assert main(["dims", f]) == 3
        assert capsys.readouterr().err.startswith("resource limit: ")


def test_integer_string_limit_is_exit_3(sysfile, capsys):
    # valid inputs with integers longer than the interpreter converts to or
    # from text: a power under MAX_EXPONENT, met by render; a 5,000-digit
    # literal, met by the tokenizer; the same value as a fiber
    big = sysfile("vars: x, y\nx - 2^20000\ny' - x\n", "power.sys")
    literal = sysfile("vars: x, y\nx - %s\ny' - x\n" % ("7" * 5000), "literal.sys")
    cases = [
        ["autoreduce", big],
        ["reduce-linear", big],
        ["pencil", big, "--pivot", "0", "--var", "x"],
        ["divide", big, "--dividend", "1", "--divisor", "0", "--var", "x", "--mode", "full"],
        ["jacobi", literal],
        ["pencil", sysfile("vars: x, y\nx'^2 - x\ny' - x\n"), "--pivot", "0", "--var", "x", "--fibers", "7" * 5000],
    ]
    for argv in cases:
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource limit: ") and " bits" in err and "integer-string conversion" in err
        assert main(argv + ["--json"]) == 3
        assert json.loads(capsys.readouterr().err)["kind"] == "resource-limit"


def _bench_tracer():
    """bench/tracer.py, loaded as a module without running the benchmark."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer, path


def test_cli_import_loads_no_stdlib_extras_and_every_traced_module():
    # Under -S no .pth file is read, so an editable install is not on the
    # path: the directory that holds the package goes there by hand.
    src = str(Path(diffalg.__file__).resolve().parent.parent)
    code = "\n".join([
        "import sys",
        "sys.path.insert(0, %r)" % src,
        "import diffalg.cli",
        "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing', 'json') if m in sys.modules))",
        "print(' '.join(sorted(m[len('diffalg.'):] for m in sys.modules if m.startswith('diffalg.'))))",
    ])
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    extras, loaded = out.stdout.split("\n")[:2]
    assert extras == ""
    # the benchmark's tracer looks each of these up in sys.modules
    tracer, path = _bench_tracer()
    traced = set(tracer.SPANS) | set(re.findall(r'sys\.modules\["diffalg\.(\w+)"\]', path.read_text()))
    assert {"diffpoly", "engine", "matching", "pencil", "reduction", "textio", "tropical"} <= traced
    assert traced <= set(loaded.split())


def test_bench_tracer_installs_and_restores_every_wrapped_name():
    # The benchmark's tracer wraps diffalg's functions and methods by name,
    # so each name it lists (tdet_brute, hall_matching, step_first_form,
    # step_second_form, detect_third_form, DiffPoly.coeffs_in,
    # DivisionCertificate.verify, ...) stays public although only tests or
    # the benchmark call it.  Deleting or renaming one fails here.
    tracer_mod, _ = _bench_tracer()
    from diffalg.diffpoly import DiffPoly
    from diffalg.reduction import DivisionCertificate

    mods = {name: mod for name, mod in sys.modules.items() if name == "diffalg" or name.startswith("diffalg.")}
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    classes = {cls: dict(vars(cls)) for cls in (DiffPoly, DivisionCertificate)}
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for modname, names in tracer_mod.SPANS.items():
            for fname in names:
                assert hasattr(getattr(sys.modules["diffalg." + modname], fname), "__wrapped__"), fname
        for method in (DiffPoly.__mul__, DiffPoly.derive, DiffPoly.coeffs_in, DivisionCertificate.verify):
            assert hasattr(method, "__wrapped__")
        diffalg.linear_reduce(diffalg.parse_system("vars: x, y\nx'' + y\nx + y'\n")[1])
        assert tracer.summary()["calls"]["linear_reduce"] == 1
    finally:
        tracer.restore()
    for name, mod in mods.items():
        now = vars(mod)
        assert all(now[k] is v for k, v in before[name].items()), name
    for cls, attrs in classes.items():
        assert all(vars(cls)[k] is v for k, v in attrs.items()), cls


SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"


def _pinned_invocations():
    """Every command on every shipped system, in text and --json.  The
    weak_strong charset is known to be wrong, so its autoreduce and dims
    outputs are left unpinned."""
    per_file = [
        ["jacobi"],
        ["matrix"],
        ["matrix", "--convention", "weak"],
        ["forms"],
        ["forms", "--convention", "weak"],
        ["forms", "--to", "first"],
        ["forms", "--to", "second"],
        ["reduce-linear"],
        ["trace", "--script", "0/1@x"],
        ["divide", "--dividend", "0", "--divisor", "1", "--var", "x", "--mode", "full"],
        ["pencil", "--pivot", "0", "--var", "x", "--fibers", "0,1,1/2"],
    ]
    charset = [["autoreduce"], ["dims"], ["autoreduce", "--ranking", "elim:z;y;x"], ["dims", "--ranking", "elim:z;y;x"]]
    for path in sorted(SYSTEMS_DIR.glob("*.sys")):
        for cmd in per_file + (charset if path.name != "weak_strong.sys" else []):
            for fmt in ([], ["--json"]):
                yield path, [cmd[0], str(path)] + cmd[1:] + fmt
    yield None, ["examples"]
    yield None, ["examples", "--json"]


def test_cli_outputs_are_pinned(capsys):
    # One digest over (argv, exit code, stdout, stderr) of every pinned
    # invocation, with the system file's path replaced by its name, so any
    # change to the CLI's text or JSON shows here.
    h = hashlib.sha256()
    count = 0
    for path, argv in _pinned_invocations():
        rc = main(argv)
        out, err = capsys.readouterr()
        if path is not None:
            argv = [path.name if a == str(path) else a for a in argv]
            out, err = out.replace(str(path), path.name), err.replace(str(path), path.name)
        h.update(json.dumps([argv, rc, out, err]).encode())
        count += 1
    assert count == 84
    assert h.hexdigest() == "4dad821f752d4c7920828c4ad391780a3fec1555f39381567ecc11e869c0ca2c"
