"""Command line behavior: outputs, exit codes, JSON schema, determinism."""

import json
import time
from pathlib import Path

import pytest

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

    def test_oversized_builder_constant_fails_fast(self, capsys, tmp_path):
        f = tmp_path / "big.nkt"
        f.write_text("theory big\ndim 1\nconstant e = levi_civita(10)\n")
        started = time.monotonic()
        code, _, err = run(capsys, "el", str(f))
        assert time.monotonic() - started < 1.0
        assert code == 2
        assert err == "error: constant e declares too many entries (line 3, column 14)\n"

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
