"""Command line behavior: outputs, exit codes, JSON schema, determinism."""

import argparse
import codecs
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nkt import cli, config, graded_poly, noether, theory_dsl
from nkt.cli import main
from nkt.errors import NktError
from nkt.randgen import random_theory

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
        # with --stages, ~e2 has the boundary y1*~xi; without it, none. A
        # --stages left over from the call above would give y1*~xi here
        assert run(capsys, "kt", ON_SHELL, "--expr", "~e2", "--stages") == (
            0, "y1*~xi\n", ""
        )
        assert run(capsys, "kt", ON_SHELL, "--expr", "~e2") == (0, "0\n", "")

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

    def test_kt_gives_every_declared_field_an_antifield(self, capsys, tmp_path):
        # the lagrangian does not read z, so ~z bounds onto E_z = 0; the
        # gauge level still finds the boundary it targets, as the
        # reducibility chain does
        f = tmp_path / "shift.nkt"
        f.write_text(
            "theory shift\ndim 1\nfield y parity even\nfield z parity even\n"
            "ghost xi parity odd\nlagrangian 1/2 * d(y;x)^2\n"
            "operator shift role gauge {\n  (xi, z, []) : 1\n}\n"
        )
        assert run(capsys, "kt", str(f), "--expr", "~xi", "--stages") == (0, "~z\n", "")
        assert run(capsys, "kt", str(f), "--expr", "~y") == (0, "-y[;x,x]\n", "")
        assert run(capsys, "kt", str(f), "--expr", "~z") == (0, "0\n", "")
        code, out, _ = run(capsys, "check-reducibility", str(f))
        assert code == 0
        assert "PASS" in out


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

    def test_indexed_certificate_labels(self, capsys, tmp_path):
        # a stage ghost with components takes one certificate per component,
        # labelled by its indices, spaces inside the brackets allowed
        text = (
            "theory indexed_pair\ndim 1\nfield y1 parity even\nfield y2 parity even\n"
            "ghost xi parity odd\nghost e[k=1..2] parity even stage 0\n"
            "lagrangian 1/2*y1^2 + 1/2*y2^2\n"
            "operator rot role gauge {\n  (xi, y1, []) : y2\n  (xi, y2, []) : -y1\n}\n"
            "operator null_dir role stage 0 {\n"
            "  (e[1], xi, []) : y1\n  (e[2], xi, []) : y2\n}\n"
            "certificate e[1] {\n  witness : y1 * ~y1 * ~y2\n}\n"
            "certificate e[ 2 ] {\n  witness : y2 * ~y1 * ~y2\n}\n"
        )
        f = tmp_path / "indexed_pair.nkt"
        f.write_text(text)
        code, out, err = run(capsys, "check-reducibility", str(f), "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["certificates"] == [
            {"label": "e[1]", "verified": True}, {"label": "e[2]", "verified": True},
        ]
        theory = theory_dsl.parse_theory(text)
        rendered = theory_dsl.render_theory(theory)
        assert "certificate e[2] {\n" in rendered
        assert theory_dsl.parse_theory(rendered) == theory
        f.write_text(text.replace("certificate e[ 2 ]", "certificate e[3]"))
        code, out, err = run(capsys, "check-reducibility", str(f))
        assert (code, out) == (2, "")
        assert err == (
            "error: certificate label 'e[3]' is not a declared component"
            " (line 19, column 1)\n"
        )

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
    def test_a_closed_pipe_keeps_the_verdict_and_prints_no_traceback(self):
        # the pipe's read end is closed before the process starts, so its
        # report's write fails with EPIPE whatever the timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "nkt", "el", YM, "--json"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")

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
        # each of the 500^3 bindings builds a distinct product: the inner
        # sums' charges for their values and the products' for their factor
        # y pass the budget at a product, located at its last *
        (1, "sum(i,1..500, sum(j,1..500, sum(k,1..500, i*j*k*y)))", 59),
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

    def test_a_passing_symmetry_needs_no_field_equations(
        self, capsys, tmp_path, monkeypatch
    ):
        # Stueckelberg: theta(L) = 0, while E_phi of L reaches jet order 2;
        # the identity comes from the theorem, so the PASS at the default
        # bound is given under bound 1 too
        f = tmp_path / "stueckelberg.nkt"
        f.write_text(
            "theory stueckelberg\ndim 1\nfield A parity even\nfield phi parity even\n"
            "ghost g parity odd\nlagrangian (A - d(phi;x))^2\n"
            "derivation gauge {\n  A : d(g;x)\n  phi : g\n}\n"
        )
        default = run(capsys, "derive-noether", str(f), "--sym", "gauge")
        assert default[0] == 0 and default[1].startswith("operator gauge_noether")
        monkeypatch.setenv("NKT_MAX_JET_ORDER", "1")
        assert run(capsys, "derive-noether", str(f), "--sym", "gauge") == default
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
        # d(y;x,x,x) is refused where it is parsed, at its span
        assert run(capsys, "el", str(f)) == (2, "", (
            "error: jet order 3 exceeds the bound 2 (raise NKT_MAX_JET_ORDER to override)"
            " (line 4, column 12)\n"
        ))

    def test_an_euler_lagrange_refusal_names_the_default_bound(
        self, capsys, tmp_path, monkeypatch
    ):
        # the file parses; E_y = -2 d_x^5 y_xxxxx then raises y to order 9
        monkeypatch.delenv("NKT_MAX_JET_ORDER", raising=False)
        f = tmp_path / "deep_el.nkt"
        f.write_text(
            "theory deep_el\ndim 1\nfield y parity even\nlagrangian d(y;x,x,x,x,x)^2\n"
        )
        assert run(capsys, "el", str(f)) == (2, "", (
            "error: jet order 9 exceeds the bound 8 (raise NKT_MAX_JET_ORDER to override)\n"
        ))

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_a_malformed_jet_order_bound_is_refused(self, capsys, monkeypatch, value):
        # a refusal that says "raise NKT_MAX_JET_ORDER" must never follow a
        # value that was silently replaced by the default
        refusal = f"NKT_MAX_JET_ORDER must be a positive integer, not {value!r}"
        monkeypatch.setenv("NKT_MAX_JET_ORDER", value)
        with pytest.raises(NktError) as info:
            config.reload()
        assert str(info.value) == refusal
        assert config.max_jet_order() == config.DEFAULT_MAX_JET_ORDER
        assert run(capsys, "el", SCALAR) == (2, "", f"error: {refusal}\n")
        # importing nkt still works: the read at import falls back to the default
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", "import nkt; print(nkt.max_jet_order())"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "8\n", "")


def mask_elapsed(outcome: tuple) -> tuple:
    code, out, err = outcome
    return code, re.sub(r'"elapsed_ms": \d+', "", out), err


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
    def test_the_shared_parser_reads_as_a_fresh_one(self, argv, monkeypatch):
        got = outcome(list(argv))
        # the comparison call builds a parser of its own
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        want = outcome(list(argv))
        assert mask_elapsed(got) == mask_elapsed(want)

    def test_help_lists_every_command(self):
        code, out, err = outcome(["--help"])
        assert (code, err) == (0, "")
        listed = re.findall(r"^    (\S+)", out, re.MULTILINE)
        assert listed == list(VALID_CALLS)


class TestSharedParsers:
    # each call with its environment and its exit code: a usage error, help,
    # a valid call, a missing required option, a flag given then left out,
    # an unknown command and a refused environment, so that a later call
    # would show anything an earlier one left on a shared parser
    CALLS = [
        (["el", SCALAR, "--bogus"], {}, 2),
        (["el", "-h"], {}, 0),
        (["el", SCALAR, "--json"], {}, 0),
        (["kt", ON_SHELL], {}, 2),
        (["kt", ON_SHELL, "--expr", "~e2", "--stages"], {}, 0),
        (["kt", ON_SHELL, "--expr", "~e2"], {}, 0),
        (["--help"], {}, 0),
        (["bogus"], {}, 2),
        (["el", SCALAR], {"NKT_MAX_JET_ORDER": "abc"}, 2),
        (["el", SCALAR, "--json"], {}, 0),
    ]

    def test_calls_in_one_process_read_as_on_fresh_parsers(self, monkeypatch):
        fresh = cli.build_parser.__wrapped__
        cli.build_parser.cache_clear()
        built, init = [], argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        for i, (argv, env, code) in enumerate(self.CALLS):
            with monkeypatch.context() as m:
                for name, value in env.items():
                    m.setenv(name, value)
                m.setattr(argparse.ArgumentParser, "__init__", counted)
                built.clear()
                got = outcome(argv)
                # only the process's first call builds the parser
                assert bool(built) == (i == 0), argv
                m.setattr(cli, "build_parser", fresh)
                want = outcome(argv)
            assert got[0] == code, argv
            assert mask_elapsed(got) == mask_elapsed(want), argv
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser() is not fresh()


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
# Printed duals: an operator's role is its reading and its stage its level,
# so the block eta prints for any operator reads back as that dual.


def _printed_dual(name: str, op, dim: int) -> str:
    lines, _ = theory_dsl.render_operator(name, noether.eta(op), dim)
    return "\n".join(lines) + "\n"


def _theories_with_operators() -> dict[str, str]:
    """The bundled theories and the seeded random_theory draws with a stage
    operator (lift), by name."""
    texts = {path.stem: path.read_text() for path in sorted(THEORY_DIR.glob("*.nkt"))}
    rng = random.Random(48)
    for i in range(200):
        theory = random_theory(rng, f"draw{i}")
        if "lift" in theory.operators:
            texts[f"draw{i}"] = theory_dsl.render_theory(theory)
    return texts


PRINTED_CASES = _theories_with_operators()


def test_the_printed_cases_hold_stage_operators():
    assert len(PRINTED_CASES) > 20


@pytest.mark.parametrize("label", list(PRINTED_CASES))
def test_every_printed_dual_reads_back_as_the_dual(label):
    text = PRINTED_CASES[label]
    theory = theory_dsl.parse_theory(text)
    for name, op in theory.operators.items():
        dual = noether.eta(op)
        assert dual.role != op.role and dual.stage == op.stage
        both = theory_dsl.parse_theory(
            text + "\n" + _printed_dual(f"eta_{name}", op, theory.dim)
        )
        read_back = both.operators[f"eta_{name}"]
        assert read_back == dual
        assert noether.eta(read_back) == op


STAGE_BLOCKS = {
    # theory: (stage operator, kt expressions on its level and one below)
    "two_form": ("lambda_shift", ("~e", "~c[1]")),
    "on_shell_pair": ("null_dir", ("~e2", "~xi")),
}


@pytest.mark.parametrize("name", sorted(STAGE_BLOCKS))
def test_a_stage_block_and_its_printed_dual_give_the_same_tower(name, tmp_path):
    op_name, exprs = STAGE_BLOCKS[name]
    text = (THEORY_DIR / f"{name}.nkt").read_text()
    theory = theory_dsl.parse_theory(text)
    op = theory.operators[op_name]
    block = re.search(rf"operator {op_name} role stage 0 {{\n.*?\n}}\n", text, re.S)
    dual = _printed_dual(op_name, op, theory.dim)
    assert dual.startswith(f"operator {op_name} role noether stage 0 {{\n")
    replaced = tmp_path / f"{name}.nkt"
    replaced.write_text(text.replace(block.group(0), dual))
    calls = [["check-reducibility"]] + [["kt", "--expr", e, "--stages"] for e in exprs]
    for call in calls:
        argv = [call[0], "{}", *call[1:], "--json"]
        original = outcome([a.format(THEORY_DIR / f"{name}.nkt") for a in argv])
        assert original[0] == 0
        assert mask_elapsed(outcome([a.format(replaced) for a in argv])) == (
            mask_elapsed(original)
        )


def test_eta_prints_a_stage_operators_dual_in_the_noether_reading(capsys):
    code, out, _ = run(capsys, "eta", TWO_FORM, "--op", "lambda_shift")
    assert code == 0
    assert out.startswith("operator eta_lambda_shift role noether stage 0 {\n")


@pytest.mark.parametrize("command", ["check-noether", "derive-gauge"])
def test_a_dual_stage_operator_states_no_noether_identity(command, capsys, tmp_path):
    # its targets are ghosts, whose field equations are 0: without the
    # refusal the identity would hold with nothing checked
    theory = theory_dsl.parse_theory(Path(TWO_FORM).read_text())
    op = theory.operators["lambda_shift"]
    assert all(r.is_zero() for r in noether.noether_residuals(
        noether.eta(op), theory.lagrangian).values())
    f = tmp_path / "two_form_dual.nkt"
    f.write_text(
        Path(TWO_FORM).read_text() + "\n" + _printed_dual("eta_lambda_shift", op, 3)
    )
    code, out, err = run(capsys, command, str(f), "--op", "eta_lambda_shift")
    assert (code, out) == (2, "")
    assert "stage 0" in err and "check-reducibility" in err


# --------------------------------------------------------------------------
# Pinned reports: every benchmark CLI call, the calls on the other bundled
# theories and the selftest, in text and JSON form, must print
# byte-identical output (elapsed_ms masked) to the digests in
# cli_digests.json.  Re-record them with
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


# Calls on bundled theories the benchmark does not run, in the same form.
THEORY_PAIRS = {
    ("el", "tensor_gauge"): None,
    ("eta", "tensor_gauge"): ("--op", ("gauge_sym",)),
    ("derive-noether", "tensor_gauge"): ("--sym", ("gauge",)),
    ("check-variational", "tensor_gauge"): ("--sym", ("gauge",)),
    ("check-nilpotent", "tensor_gauge"): ("--sym", ("gauge",)),
    ("kt", "tensor_gauge"): ("--expr", ("~A[0,1]", "~C")),
    ("check-reducibility", "tensor_gauge"): None,
}


def pinned_calls() -> list[list[str]]:
    """Every benchmark call, every call of THEORY_PAIRS and the selftest,
    each without and with --json."""
    calls = [["selftest"]]
    for (sub, theory), spec in {**CLI_PAIRS, **THEORY_PAIRS}.items():
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
