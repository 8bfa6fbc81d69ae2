"""Command line behavior: outputs, exit codes, JSON schema, determinism."""

import codecs
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nkt import cli, graded_poly, noether, theory_dsl
from nkt.cli import main

THEORY_DIR = Path(__file__).resolve().parent.parent / "theories"

SCALAR = str(THEORY_DIR / "scalar.nkt")
SCALAR_MASS = str(THEORY_DIR / "scalar_mass.nkt")
YM = str(THEORY_DIR / "ym_su2.nkt")
TWO_FORM = str(THEORY_DIR / "two_form.nkt")
ON_SHELL = str(THEORY_DIR / "on_shell_pair.nkt")


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComputationCommands:
    def test_el_free_scalar(self, capsys):
        code, out, _ = run(capsys, "el", SCALAR)
        assert code == 0
        assert out == "E_y = -y[;x,x]\n"

    def test_eta_emits_a_parseable_operator_block(self, capsys):
        code, out, _ = run(capsys, "eta", YM, "--op", "gauge_sym")
        assert code == 0
        assert out.startswith("operator eta_gauge_sym role noether {\n")
        assert out.rstrip().endswith("}")
        # the dual of the covariant derivative: derivative keys flip sign
        assert "(C[1], a[0,1], [0]) : -1" in out

    def test_derive_noether_from_brst_derivation(self, capsys):
        code, out, _ = run(capsys, "derive-noether", YM, "--sym", "brst")
        assert code == 0
        assert out.startswith("operator brst_noether role noether {\n")

    def test_derive_gauge_roundtrip(self, capsys, tmp_path):
        f = tmp_path / "pair.nkt"
        f.write_text(
            """
            theory pair
            dim 1
            field y1 parity even
            field y2 parity even
            ghost xi parity odd
            lagrangian 1/2*y1^2 + 1/2*y2^2
            operator rot_dual role noether {
              (xi, y1, []) : y2
              (xi, y2, []) : -y1
            }
            """
        )
        code, out, _ = run(capsys, "derive-gauge", str(f), "--op", "rot_dual")
        assert code == 0
        assert "(xi, y1, []) : y2" in out

    def test_derive_gauge_report_on_ym_su2_is_pinned(
        self, capsys, tmp_path, monkeypatch
    ):
        # ym_su2 with eta(gauge_sym) declared as a noether operator; the
        # digests were recorded before derive-gauge lost its separate
        # identity pass, and the field equations are now built once
        code, block, _ = run(capsys, "eta", YM, "--op", "gauge_sym")
        assert code == 0
        f = tmp_path / "ym_dual.nkt"
        f.write_text(Path(YM).read_text() + "\n" + block)
        argv = ["derive-gauge", str(f), "--op", "eta_gauge_sym"]
        text = pinned_output(argv)
        assert text.startswith("exit 0\noperator eta_gauge_sym_gauge role gauge {\n")
        assert pinned_digest(text) == (
            "ab5625e54c2dca298b4169bd48d58aa68ef087a996a830e0f58aef37ba446cfd"
        )
        assert pinned_digest(pinned_output(argv + ["--json"])) == (
            "8dd1a40bc78e5b415f2174cee9c407e79750070773d08f75d29c8129efc7a632"
        )
        calls = []
        euler_lagrange = noether.euler_lagrange
        monkeypatch.setattr(
            noether, "euler_lagrange", lambda *a: calls.append(1) or euler_lagrange(*a)
        )
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["eta", "derive-noether", "derive-gauge"])
    def test_each_operator_coefficient_is_rendered_once(
        self, capsys, tmp_path, monkeypatch, command
    ):
        argv = {
            "eta": ["eta", YM, "--op", "gauge_sym"],
            "derive-noether": ["derive-noether", YM, "--sym", "brst"],
        }.get(command)
        if argv is None:
            # ym_su2 with eta(gauge_sym) declared as a noether operator
            block = run(capsys, "eta", YM, "--op", "gauge_sym")[1]
            f = tmp_path / "ym_dual.nkt"
            f.write_text(Path(YM).read_text() + "\n" + block)
            argv = ["derive-gauge", str(f), "--op", "eta_gauge_sym"]
        calls = []
        render = graded_poly.render_polynomial

        def counted(*args):
            calls.append(1)
            return render(*args)

        for module in (graded_poly, theory_dsl, cli):
            monkeypatch.setattr(module, "render_polynomial", counted)
        for extra in ([], ["--json"]):
            calls.clear()
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
        # one call per coefficient, and the text and JSON reports agree
        coefficients = json.loads(out)["residuals"]
        assert len(calls) == len(coefficients) == 36
        code, text, _ = run(capsys, *argv)
        body = text.splitlines()[1:-1]
        assert [line.rsplit(" : ", 1)[1] for line in body] == [
            c["expr"] for c in coefficients
        ]

    def test_kt_applies_the_boundary(self, capsys):
        code, out, _ = run(capsys, "kt", ON_SHELL, "--expr", "~y1")
        assert code == 0
        assert out == "y1\n"

    def test_kt_stage_levels_need_the_flag(self, capsys):
        code, out, _ = run(capsys, "kt", ON_SHELL, "--expr", "~xi", "--stages")
        assert code == 0
        assert out == "-y1*~y2 + y2*~y1\n"
        code, _, err = run(capsys, "kt", ON_SHELL, "--expr", "~e2")
        assert code == 0  # without --stages, ~e2 has no boundary: result is 0

    def test_kt_rejects_conflicting_boundaries(self, capsys, tmp_path):
        f = tmp_path / "dup.nkt"
        f.write_text(
            """
            theory dup
            dim 1
            field y parity even
            ghost xi parity odd
            lagrangian 1/2*y^2
            operator one role noether {
              (xi, y, []) : y
            }
            operator two role noether {
              (xi, y, []) : 2*y
            }
            """
        )
        code, _, err = run(capsys, "kt", str(f), "--expr", "~xi")
        assert code == 2
        assert "already carries a boundary" in err


class TestCheckCommands:
    def test_check_noether_failure_reports_the_equation(self, capsys):
        code, out, _ = run(capsys, "check-noether", SCALAR_MASS, "--op", "bad")
        assert code == 1
        assert "FAIL" in out
        assert "residual xi: y" in out

    def test_check_noether_success(self, capsys):
        code, out, _ = run(capsys, "eta", YM, "--op", "gauge_sym")
        assert code == 0

    def test_check_variational(self, capsys):
        code, out, _ = run(capsys, "check-variational", SCALAR_MASS, "--sym", "scaling")
        assert code == 1
        assert "residual y: 2*y" in out
        code, out, _ = run(capsys, "check-variational", YM, "--sym", "brst")
        assert code == 0

    def test_check_nilpotent(self, capsys):
        code, out, _ = run(capsys, "check-nilpotent", YM, "--sym", "brst")
        assert code == 0
        assert "nilpotent" in out

    def test_check_reducibility(self, capsys):
        code, out, _ = run(capsys, "check-reducibility", TWO_FORM)
        assert code == 0
        assert "PASS" in out
        code, out, _ = run(capsys, "check-reducibility", ON_SHELL)
        assert code == 0
        assert "certificate e2: verified" in out

    def test_selftest(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "parser roundtrip: ok" in out

    def test_a_crashing_selftest_suite_reads_as_a_crash(self, capsys, monkeypatch):
        def broken(op):
            raise KeyError("xi")

        monkeypatch.setattr(cli, "eta", broken)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out == (
            "selftest: FAIL\n"
            "  residual eta involution: raised KeyError: 'xi'\n"
            "  note: 5 suites\n"
        )
        code, out, _ = run(capsys, "selftest", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert report["residuals"] == [
            {"where": "eta involution", "expr": "raised KeyError: 'xi'"}
        ]

    def test_a_wrong_selftest_answer_reads_as_failed(self, capsys, monkeypatch):
        # an eta that drops every coefficient is no involution
        monkeypatch.setattr(
            cli, "eta", lambda op: noether.LinearJetOperator(op.dim, op.role, {})
        )
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert out.splitlines()[:2] == [
            "selftest: FAIL", "  residual eta involution: failed"
        ]


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "el", "no_such_file.nkt")
        assert code == 2
        assert "error:" in err

    def test_parse_error(self, capsys, tmp_path):
        f = tmp_path / "bad.nkt"
        f.write_text("theory t\ndim 1\nlagrangian (")
        code, _, err = run(capsys, "el", str(f))
        assert code == 2

    def test_unknown_operator(self, capsys):
        code, _, err = run(capsys, "check-noether", SCALAR_MASS, "--op", "nope")
        assert code == 2
        assert "no operator named" in err

    def test_wrong_role(self, capsys):
        code, _, err = run(capsys, "check-noether", YM, "--op", "gauge_sym")
        assert code == 2

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-noether", SCALAR_MASS])
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", SCALAR])
        assert exc.value.code == 2

    def test_a_file_that_is_not_utf8_text(self, capsys, tmp_path):
        f = tmp_path / "latin1.nkt"
        f.write_bytes(b"theory t\ndim 1\nfield y parity even\nlagrangian y\xff\n")
        for json_flag in ((), ("--json",)):
            assert run(capsys, "el", str(f), *json_flag) == (
                2, "", f"error: cannot read {f}: not UTF-8 text (byte 0xff at offset 47)\n"
            )

    def test_a_byte_order_mark_and_crlf_line_ends_are_read_past(self, capsys, tmp_path):
        f = tmp_path / "bom.nkt"
        f.write_bytes(codecs.BOM_UTF8 + Path(SCALAR).read_bytes().replace(b"\n", b"\r\n"))
        assert run(capsys, "el", str(f)) == run(capsys, "el", SCALAR)

    def test_a_bad_byte_after_a_byte_order_mark_names_its_file_offset(self, capsys, tmp_path):
        f = tmp_path / "bom_latin1.nkt"
        f.write_bytes(codecs.BOM_UTF8 + b"theory t\n\xff")
        assert run(capsys, "el", str(f)) == (
            2, "", f"error: cannot read {f}: not UTF-8 text (byte 0xff at offset 12)\n"
        )

    def test_dim_out_of_range_names_its_span(self, capsys, tmp_path):
        f = tmp_path / "dim.nkt"
        f.write_text("theory t\ndim 12\nfield y parity even\n")
        assert run(capsys, "el", str(f)) == (
            2, "", "error: dim must be between 1 and 9 (line 2, column 5)\n"
        )

    @pytest.mark.parametrize("lagrangian, message", [
        # a literal past the limit is refused where it is read
        ("{digits}*y^2", "integer of {n} digits exceeds the limit of {limit} digits"
         " for int/str conversion (line 4, column 12)"),
        # the EL coefficient 64 * (10^100 - 1)^64 has about 6,400 digits
        ("(" + "9" * 100 + "*y)^64",
         "a coefficient exceeds the limit of {limit} digits for int/str conversion"),
    ])
    def test_integers_past_the_conversion_limit_name_it(
        self, capsys, tmp_path, lagrangian, message
    ):
        limit = sys.get_int_max_str_digits()
        n = limit + 700
        f = tmp_path / "long.nkt"
        f.write_text(
            "theory t\ndim 1\nfield y parity even\n"
            f"lagrangian {lagrangian.format(digits='7' * n)}\n"
        )
        for json_flag in ((), ("--json",)):
            assert run(capsys, "el", str(f), *json_flag) == (
                2, "", f"error: {message.format(n=n, limit=limit)}\n"
            )

    def test_oversized_builder_constant_fails_fast(self, capsys, tmp_path):
        f = tmp_path / "big.nkt"
        f.write_text("theory big\ndim 1\nconstant e = levi_civita(10)\n")
        started = time.monotonic()
        code, _, err = run(capsys, "el", str(f))
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert err == (
            "error: constant e declares too many entries; the limit is 512"
            " (line 3, column 14)\n"
        )

    @pytest.mark.parametrize("declarations, message", [
        ("field a[i=1..30,j=1..30] parity even",
         "a declares too many components; the limit is 512 (line 3, column 7)"),
        # the ranges are refused before the table's body is read
        ("constant e[1..30,1..30] = {\n(1,1): 1, (1,1): 2\n}",
         "constant e declares too many entries; the limit is 512 (line 3, column 10)"),
        # the first oversized declaration in the file is named
        ("constant e[1..30,1..30] = {\n}\nfield a[i=1..30,j=1..30] parity even",
         "constant e declares too many entries; the limit is 512 (line 3, column 10)"),
    ])
    def test_oversized_declarations_name_the_limit_and_span(
        self, capsys, tmp_path, declarations, message
    ):
        f = tmp_path / "big.nkt"
        f.write_text(f"theory big\ndim 1\n{declarations}\n")
        assert run(capsys, "el", str(f)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("dim, lagrangian, column", [
        # each of the 500^3 bindings builds a distinct product
        (1, "sum(i,1..500, sum(j,1..500, sum(k,1..500, i*j*k*y)))", 12),
        # about 1.2 million terms, built by 40 products
        (2, "(y + d(y;x0) + d(y;x1) + d(y;x0,x1) + x0 + x1)^40", 58),
    ])
    def test_expansion_past_the_work_budget_fails_fast(
        self, capsys, tmp_path, dim, lagrangian, column
    ):
        f = tmp_path / "hostile.nkt"
        f.write_text(f"theory hostile\ndim {dim}\nfield y parity even\nlagrangian {lagrangian}\n")
        started = time.monotonic()
        code, _, err = run(capsys, "el", str(f))
        assert time.monotonic() - started < 2.0
        assert code == 2
        assert err == (
            "error: expansion work budget of 1000000 steps exceeded"
            f" (line 4, column {column})\n"
        )

    @pytest.mark.parametrize("count, inside_a_sum", [
        (600, False), (2000, False), (10000, False),
        # bound names give every node a shape and a memo key
        (10000, True),
    ])
    def test_flat_sums_complete(self, capsys, tmp_path, count, inside_a_sum):
        body = "+".join(["y"] * count)
        f = tmp_path / "flat.nkt"
        f.write_text(
            "theory flat\ndim 1\nfield y parity even\nlagrangian "
            + (f"sum(i,1..1, {body})" if inside_a_sum else body) + "\n"
        )
        started = time.monotonic()
        code, out, err = run(capsys, "el", str(f))
        assert time.monotonic() - started < 2.0
        assert (code, out, err) == (0, f"E_y = {count}\n", "")

    @pytest.mark.parametrize("count, inside_a_sum", [(500, False), (2000, True)])
    def test_long_products_complete(self, capsys, tmp_path, count, inside_a_sum):
        body = "*".join(["y"] * count)
        f = tmp_path / "product.nkt"
        f.write_text(
            "theory product\ndim 1\nfield y parity even\nlagrangian "
            + (f"sum(i,1..1, {body})" if inside_a_sum else body) + "\n"
        )
        started = time.monotonic()
        code, out, err = run(capsys, "el", str(f))
        assert time.monotonic() - started < 10.0
        assert (code, out, err) == (0, f"E_y = {count}*y^{count - 1}\n", "")

    def test_a_symmetry_is_judged_before_the_field_equations_are_built(
        self, capsys, tmp_path, monkeypatch
    ):
        # theta(L) = 4*g*c*y^2 stays within jet order 1, while E_y of L
        # reaches order 2: the verdict, FAIL, is the one given at the
        # default bound, not a jet-order error
        f = tmp_path / "odd_pair.nkt"
        f.write_text(
            "theory odd_pair\ndim 1\nfield y parity even\nfield c parity odd\n"
            "ghost g parity odd\nlagrangian c*d(c;x)*d(y;x) + y^2\n"
            "derivation shift {\n  y : 2*g*c*y\n}\n"
        )
        default = run(capsys, "derive-noether", str(f), "--sym", "shift")
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "1")
        code, out, err = run(capsys, "derive-noether", str(f), "--sym", "shift")
        assert (code, out, err) == default
        assert (code, err) == (1, "")
        assert out.startswith("derive-noether odd_pair shift: FAIL\n")
        code, _, err = run(capsys, "el", str(f))
        assert code == 2 and "jet order 2 exceeds the bound 1" in err

    def test_variationality_needs_only_the_orders_of_theta(
        self, capsys, monkeypatch
    ):
        # the contraction's variational derivatives would reach jet order 3
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
        code, out, err = run(capsys, "check-variational", YM, "--sym", "brst")
        assert (code, err) == (0, "")
        assert out.startswith("check-variational ym_su2 brst: PASS\n")

    def test_jet_order_env_limit(self, capsys, tmp_path, monkeypatch):
        f = tmp_path / "deep.nkt"
        f.write_text(
            "theory deep\ndim 1\nfield y parity even\nlagrangian d(y;x,x,x)^2"
        )
        code, _, _ = run(capsys, "el", str(f))
        assert code == 0
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "2")
        code, _, err = run(capsys, "el", str(f))
        assert code == 2


def outcome(argv: list[str]) -> tuple:
    """Exit code (returned or raised), stdout and stderr of one main() call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a valid call of each command, from the file on
VALID_CALLS = {
    "el": [SCALAR],
    "eta": [SCALAR_MASS, "--op", "bad"],
    "derive-noether": [SCALAR_MASS, "--sym", "scaling"],
    "derive-gauge": [SCALAR_MASS, "--op", "bad"],
    "check-noether": [SCALAR_MASS, "--op", "bad"],
    "check-variational": [SCALAR_MASS, "--sym", "scaling"],
    "check-nilpotent": [SCALAR_MASS, "--sym", "scaling"],
    "kt": [SCALAR, "--expr", "~y", "--stages"],
    "check-reducibility": [ON_SHELL],
    "selftest": [],
}


def parser_cases() -> list[list[str]]:
    cases = [[], ["-h"], ["bogus"], ["--json", "el", SCALAR]]
    for name, rest in VALID_CALLS.items():
        cases += [
            [name, *rest],
            [name, "no_such_file.nkt", *rest[1:]],
            [name, *rest[:1]],  # the file without the required option
            [name],
            [name, *rest, "--bogus"],
            [name, "-h"],
        ]
    # a command without options has no call that misses one
    return [list(argv) for argv in dict.fromkeys(map(tuple, cases))]


class TestParser:
    def test_every_command_is_described(self):
        assert sorted(cli.COMMANDS) == sorted(VALID_CALLS)

    @pytest.mark.parametrize("argv", parser_cases(), ids=lambda argv: " ".join(
        Path(a).name if a.endswith(".nkt") else a for a in argv
    ) or "(none)")
    def test_one_command_parser_matches_the_full_one(self, argv, monkeypatch):
        build, built = cli.build_parser, []

        def recorded(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", recorded)
        got = outcome(list(argv))
        assert built == [argv[0] if argv and argv[0] in VALID_CALLS else None]
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        want = outcome(list(argv))
        mask = lambda o: (o[0], re.sub(r'"elapsed_ms": \d+', "", o[1]), o[2])
        assert mask(got) == mask(want)

    def test_help_lists_every_command(self):
        code, out, err = outcome(["--help"])
        assert (code, err) == (0, "")
        listed = re.findall(r"^    (\S+)", out, re.MULTILINE)
        assert listed == list(VALID_CALLS)


class TestJsonReports:
    SCHEMA_KEYS = [
        "check", "theory", "target", "pass",
        "residuals", "assumptions", "certificates", "elapsed_ms",
    ]

    def check_schema(self, out: str) -> dict:
        doc = json.loads(out)
        assert list(doc.keys()) == self.SCHEMA_KEYS
        assert isinstance(doc["pass"], bool)
        assert isinstance(doc["elapsed_ms"], int)
        for item in doc["residuals"]:
            assert list(item.keys()) == ["where", "expr"]
        for item in doc["assumptions"]:
            assert isinstance(item, str)
        for item in doc["certificates"]:
            assert list(item.keys()) == ["label", "verified"]
        return doc

    def test_every_subcommand_emits_the_schema(self, capsys):
        cases = [
            ("el", SCALAR),
            ("eta", YM, "--op", "gauge_sym"),
            ("derive-noether", YM, "--sym", "brst"),
            ("check-noether", SCALAR_MASS, "--op", "bad"),
            ("check-variational", SCALAR_MASS, "--sym", "scaling"),
            ("check-nilpotent", YM, "--sym", "brst"),
            ("kt", ON_SHELL, "--expr", "~y1"),
            ("check-reducibility", ON_SHELL),
            ("selftest",),
        ]
        for argv in cases:
            code, out, _ = run(capsys, *argv, "--json")
            doc = self.check_schema(out)
            assert doc["check"] == argv[0]

    def test_failure_report_content(self, capsys):
        code, out, _ = run(capsys, "check-noether", SCALAR_MASS, "--op", "bad", "--json")
        assert code == 1
        doc = self.check_schema(out)
        assert doc["pass"] is False
        assert doc["residuals"] == [{"where": "xi", "expr": "y"}]
        assert doc["theory"] == "scalar_mass"
        assert doc["target"] == "bad"

    def test_certificates_in_reducibility_report(self, capsys):
        code, out, _ = run(capsys, "check-reducibility", ON_SHELL, "--json")
        assert code == 0
        doc = self.check_schema(out)
        assert doc["certificates"] == [{"label": "e2", "verified": True}]

    def test_reports_are_deterministic(self, capsys):
        texts = set()
        jsons = set()
        for _ in range(2):
            _, out, _ = run(capsys, "check-reducibility", TWO_FORM)
            texts.add(out)
            _, out, _ = run(capsys, "eta", YM, "--op", "gauge_sym", "--json")
            doc = json.loads(out)
            doc["elapsed_ms"] = 0
            jsons.add(json.dumps(doc))
        assert len(texts) == 1
        assert len(jsons) == 1

    # several offending variables in one coefficient: the error must name
    # the same one whatever order Python's string hashing puts them in
    HASH_ORDER_BODIES = {
        "operator": "operator bad role gauge {\n  (xi, y, []) : ~y*~z*~w\n}\n",
        "derivation": "derivation bad {\n  y : ~y*~z*~w + ~z*~w\n}\n",
    }

    @pytest.mark.parametrize("block", sorted(HASH_ORDER_BODIES))
    def test_errors_do_not_depend_on_the_hash_seed(self, tmp_path, block):
        f = tmp_path / "hashed.nkt"
        f.write_text(
            "theory hashed\ndim 1\n"
            "field y parity even\nfield z parity even\nfield w parity even\n"
            "ghost xi parity odd\nlagrangian 1/2 * y^2\n"
            + self.HASH_ORDER_BODIES[block]
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outcomes = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed))
            paths = [src, env.get("PYTHONPATH")]
            env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
            done = subprocess.run(
                [sys.executable, "-m", "nkt", "el", str(f)],
                env=env, capture_output=True, text=True, timeout=60,
            )
            outcomes.add((done.returncode, done.stdout, done.stderr))
        assert len(outcomes) == 1
        ((code, _, err),) = outcomes
        assert code == 2
        assert "~w" in err and "~y" not in err and "~z" not in err


# --------------------------------------------------------------------------
# Pinned reports: every benchmark CLI call and the selftest, in text and JSON
# form, must print byte-identical output (elapsed_ms masked) to the digests
# in cli_digests.json.  Re-record them with
# `PYTHONPATH=src python tests/test_cli.py` only when a report is meant to
# change.

DIGESTS = Path(__file__).resolve().parent / "cli_digests.json"


def _ym_antifields() -> tuple[str, ...]:
    fields = [f"~a[{m},{r}]" for m in range(4) for r in range(1, 4)]
    return tuple(fields + [f"~C[{q}]" for q in range(1, 4)])


# The call table of the cli_theories benchmark workload:
# (subcommand, theory) -> (option, values) or None.
CLI_PAIRS = {
    ("el", "scalar"): None,
    ("kt", "scalar"): ("--expr", ("~y",)),
    ("el", "scalar_mass"): None,
    ("eta", "scalar_mass"): ("--op", ("bad",)),
    ("check-noether", "scalar_mass"): ("--op", ("bad",)),
    ("derive-gauge", "scalar_mass"): ("--op", ("bad",)),
    ("check-variational", "scalar_mass"): ("--sym", ("scaling",)),
    ("check-nilpotent", "scalar_mass"): ("--sym", ("scaling",)),
    ("kt", "scalar_mass"): ("--expr", ("~y", "~xi")),
    ("el", "two_form"): None,
    ("eta", "two_form"): ("--op", ("gauge_sym", "lambda_shift")),
    ("kt", "two_form"): (
        "--expr",
        ("~b01", "~b02", "~b12", "~c[0]", "~c[1]", "~c[2]", "~e"),
    ),
    ("check-reducibility", "two_form"): None,
    ("el", "on_shell_pair"): None,
    ("eta", "on_shell_pair"): ("--op", ("rot", "null_dir")),
    ("kt", "on_shell_pair"): ("--expr", ("~y1", "~y2", "~xi", "~e2")),
    ("check-reducibility", "on_shell_pair"): None,
    ("el", "ym_su2"): None,
    ("eta", "ym_su2"): ("--op", ("gauge_sym",)),
    ("derive-noether", "ym_su2"): ("--sym", ("brst",)),
    ("check-variational", "ym_su2"): ("--sym", ("brst",)),
    ("check-nilpotent", "ym_su2"): ("--sym", ("brst",)),
    ("kt", "ym_su2"): ("--expr", _ym_antifields()),
    ("check-reducibility", "ym_su2"): None,
}


def pinned_calls() -> list[list[str]]:
    """Every benchmark call and the selftest, each without and with --json."""
    calls = [["selftest"]]
    for (sub, theory), spec in CLI_PAIRS.items():
        for value in spec[1] if spec is not None else (None,):
            argv = [sub, f"{theory}.nkt"]
            if value is not None:
                argv += [spec[0], value]
            if sub == "kt":
                argv.append("--stages")
            calls.append(argv)
    return [argv + extra for argv in calls for extra in ([], ["--json"])]


def pinned_output(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one call, with elapsed_ms masked."""
    full = [str(THEORY_DIR / a) if a.endswith(".nkt") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(full)
    masked = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue())
    return f"exit {code}\n{masked}\nstderr:\n{err.getvalue()}"


def pinned_digest(output: str) -> str:
    return hashlib.sha256(output.encode()).hexdigest()


def test_reports_match_the_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    calls = pinned_calls()
    assert sorted(expected) == sorted(" ".join(argv) for argv in calls)
    mismatches = []
    for argv in calls:
        output = pinned_output(argv)
        if pinned_digest(output) != expected[" ".join(argv)]:
            mismatches.append(f"$ nkt {' '.join(argv)}\n{output}")
    assert not mismatches, "reports changed:\n" + "\n".join(mismatches)


if __name__ == "__main__":
    record = {
        " ".join(argv): pinned_digest(pinned_output(argv)) for argv in pinned_calls()
    }
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
