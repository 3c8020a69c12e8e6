import io
import json
import os

import pytest

from hombench.cli import main

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fx(name):
    return os.path.join(FIXDIR, name + ".txt")


def test_validate_valid_fixture(capsys):
    assert main(["validate", fx("nilpotent_algebra")]) == 0
    out = capsys.readouterr().out
    assert "hom_pre_lie: valid" in out


def test_validate_invalid_fixture_prints_witness(capsys):
    assert main(["validate", fx("invalid_product_candidate")]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out
    assert "twisted-associator-symmetry at (e1,e2,e2)" in out
    assert "residual e1" in out


def test_validate_reads_stdin(capsys, monkeypatch):
    with open(fx("scaling_algebra")) as handle:
        monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))
    assert main(["validate", "-"]) == 0


def test_validate_json_output(capsys):
    assert main(["validate", "--json", fx("invalid_product_candidate")]) == 1
    payload = json.loads(capsys.readouterr().out)
    doc = payload[0]
    assert doc["kind"] == "hom_pre_lie"
    assert doc["valid"] is False
    failure = doc["report"]["failures"][0]
    assert failure["identity"] == "twisted-associator-symmetry"
    assert failure["witness"] == [0, 1, 1]


def test_json_residuals_are_strings(tmp_path, capsys):
    doc = tmp_path / "rational.txt"
    doc.write_text("kind: hom_pre_lie\ndim: 2\ntwist:\n1/2 0\n0 3\nproduct:\n0 1 0 1\n1 1 1 -2/3\n")
    assert main(["validate", "--json", fx("invalid_product_candidate"), str(doc)]) == 1
    reports = [entry["report"] for entry in json.loads(capsys.readouterr().out)]
    residuals = [c for report in reports for failure in report["failures"] for c in failure["residual"]]
    assert "0" in residuals and "1" in residuals and any("/" in c for c in residuals)
    assert all(isinstance(c, str) for c in residuals)


def test_p_condition_on_an_invalid_induced_dual_product_exits_3(capsys):
    assert main(["check", "p-condition", fx("invalid_product_candidate"), fx("nilpotent_smatrix")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the dual product induced by r is not twisted pre-Lie\n"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kind: tensor2\ndim_left: 2\ndim_right: 2\nentries:\n0 0 2/4\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 5" in err
    assert "lowest terms" in err


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/thing.txt"]) == 2


def test_bad_verb_and_bad_slug_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "made-up-slug", fx("nilpotent_algebra")])
    assert info.value.code == 2


def test_precondition_violation_exit_code(tmp_path, capsys):
    r = tmp_path / "r.txt"
    r.write_text("kind: tensor2\ndim_left: 2\ndim_right: 2\nentries:\n0 0 1\n")
    code = main(["check", "triangular", fx("nilpotent_algebra"), str(r)])
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_explain_unknown_slug_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["explain", "nonsense-slug"])
    assert info.value.code == 2


def test_explain_prints_prose(capsys):
    assert main(["explain", "s-identity"]) == 0
    out = capsys.readouterr().out
    assert "s-identity" in out
    assert len(out) > 60


def test_check_holds(capsys):
    code = main(["check", "s-identity", fx("nilpotent_algebra"), fx("nilpotent_smatrix")])
    assert code == 0
    assert "s-identity: holds" in capsys.readouterr().out


def test_check_json(capsys):
    code = main(["check", "--json", "dendriform-reps", fx("nilpotent_dendriform")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slug"] == "dendriform-reps"
    assert payload["holds"] is True
    assert payload["report"]["valid"] is True


def test_derive_to_file_then_check(tmp_path, capsys):
    out = tmp_path / "pair.txt"
    code = main(["derive", "canonical-smatrix", fx("nilpotent_dendriform"),
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("kind: hom_pre_lie\n")
    assert "---" in text
    code = main(["check", "s-identity", str(out)])
    assert code == 0


def test_derive_stdout_pipeline(capsys, monkeypatch):
    assert main(["derive", "sub-adjacent", fx("scaling_algebra")]) == 0
    derived = capsys.readouterr().out
    assert derived.startswith("kind: hom_lie\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(derived))
    assert main(["validate", "-"]) == 0


def test_search_twice_writes_identical_files(tmp_path):
    paths = []
    for run in ("1", "2"):
        path = tmp_path / ("run%s.txt" % run)
        code = main(["search", "s_matrix", "--dim", "2", "--coeffs=-1,0,1",
                     "--limit", "30", "--base", fx("nilpotent_algebra"),
                     "--out", str(path)])
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0].count(b"kind: tensor2") == 9


def test_search_budget_exit_code(capsys):
    code = main(["search", "dendriform", "--dim", "2", "--coeffs=-1,0,1",
                 "--limit", "5"])
    assert code == 3
    assert "budget" in capsys.readouterr().err.lower()


def test_search_budget_check_at_a_moderate_dim_exits_3(capsys):
    """3^9261 candidates: the check multiplies up to the budget and never forms
    or prints the power."""
    code = main(["search", "hom_pre_lie", "--dim", "21", "--budget", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert "budget" in err.lower() and "3^9261" in err
    assert "Traceback" not in err


def test_search_bad_coeffs_exit_code(capsys):
    code = main(["search", "hom_pre_lie", "--dim", "2", "--coeffs=-1,zebra,1",
                 "--limit", "5"])
    assert code == 2
