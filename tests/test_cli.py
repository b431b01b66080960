"""Command-line interface: output documents, formats, and exit codes."""
from __future__ import annotations

import json

import numpy as np
import pytest

from qcontext.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# bounds


def test_bounds_json(capsys):
    doc = run_json(capsys, "bounds", "--n", "5")
    assert doc["n"] == 5 and doc["beta_cl"] == 2 and doc["denominator"] == 5
    assert doc["beta_q"] == pytest.approx(19 / 9, abs=1e-12)
    assert doc["epsilon"] == pytest.approx(1 / 45, abs=1e-12)


def test_bounds_without_published_vectors(capsys):
    doc = run_json(capsys, "bounds", "--n", "9")
    assert doc["beta_cl"] == 2 and doc["denominator"] == 9
    assert doc["beta_q"] is None and doc["epsilon"] is None


def test_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta_cl,beta_q,denominator,epsilon"
    assert lines[1].startswith("6,2,2.111111111111111")


def test_bounds_out_of_range(capsys):
    code, out, err = run_cli(capsys, "bounds", "--n", "4")
    assert code == 1 and out == ""
    assert "error:" in err


# ---------------------------------------------------------------------------
# ofnc


def test_ofnc_exact_threshold(capsys):
    doc = run_json(capsys, "ofnc", "--n", "5", "--grid", "0:0.02:0.01")
    assert doc["epsilon"] == pytest.approx(1 / 45, abs=1e-12)
    assert doc["delta_th"] == pytest.approx(0.0164974, abs=1e-6)
    assert doc["binding_vertex"] == 1
    assert doc["binding_phi"] in ("01", "11")
    lo, hi = doc["bracket"]
    assert hi - lo <= 1e-7 and lo <= doc["delta_th"] <= hi
    assert doc["evaluations"] == 67
    assert len(doc["curves"]) == 6


def test_ofnc_with_experimental_beta(capsys):
    # beta_q = 2.078 gives epsilon = 0.0156 and a tighter threshold
    doc = run_json(capsys, "ofnc", "--n", "5", "--beta-q", "2.078",
                   "--grid", "0:0.02:0.01")
    assert doc["beta_q"] == pytest.approx(2.078)
    assert doc["epsilon"] == pytest.approx(0.0156, abs=1e-12)
    assert doc["delta_th"] == pytest.approx(0.0116, abs=1e-3)


def test_ofnc_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "ofnc", "--n", "5", "--format", "csv", "--grid", "0:0.01:0.005"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta,vertex,phi_branch,distance"
    assert len(lines) == 1 + 6 * 3  # six curves, three grid points each
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "1" and first[2] == "00"


def test_ofnc_bad_grid(capsys):
    code, _, err = run_cli(capsys, "ofnc", "--n", "5", "--grid", "0..1")
    assert code == 1 and "grid" in err


# ---------------------------------------------------------------------------
# decohere


def test_decohere_json_sweep_and_threshold(capsys):
    doc = run_json(capsys, "decohere", "--n", "6", "--model", "phase",
                   "--encoding", "qudit", "--grid", "0:0.1:0.05")
    assert doc["model"] == "phase" and doc["encoding"] == "single_qudit"
    assert doc["threshold"] == pytest.approx(0.0651, abs=5e-4)
    start = doc["sweep"][0]
    assert start["beta"] == pytest.approx(19 / 9, abs=1e-12)
    assert start["epsilon_th"] == pytest.approx(1 / 81, abs=1e-12)
    assert [p["param"] for p in doc["sweep"]] == pytest.approx([0.0, 0.05, 0.1])


def test_decohere_csv_has_no_threshold_column(capsys):
    code, out, err = run_cli(
        capsys, "decohere", "--n", "5", "--model", "amp", "--encoding", "symmetric",
        "--format", "csv", "--grid", "0:0.1:0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "model,encoding,n,param,beta,epsilon_th"
    assert lines[1].startswith("amplitude,symmetric,5,0.0,")
    assert len(lines) == 4


def test_decohere_rejects_qubits_for_n5(capsys):
    code, _, err = run_cli(
        capsys, "decohere", "--n", "5", "--model", "amp", "--encoding", "qubits"
    )
    assert code == 1 and "power-of-two" in err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_exact_document(capsys):
    doc = run_json(capsys, "simulate", "--n", "5", "--context", "1,2")
    assert doc["context"] == [1, 2]
    assert doc["delays"] == {"1": 1}
    assert doc["decoded"]["X_1=1"] == pytest.approx(1 / 9, abs=1e-10)
    assert doc["decoded"]["X_2=1"] == pytest.approx(2 / 3, abs=1e-10)
    assert doc["violation_mass"] <= 1e-10
    assert doc["order_invariance"]["max_tv_distance"] <= 1e-10
    assert doc["sampled"] is None
    probs = [row["prob"] for row in doc["distribution"]]
    assert np.isclose(sum(probs), 1.0, atol=1e-12)


def test_simulate_sampling_deterministic(capsys):
    args = ("simulate", "--n", "6", "--context", "2,4,6",
            "--shots", "2000", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-for-byte reproducible
    counts = json.loads(out1)["sampled"]["counts"]
    assert sum(counts.values()) == 2000


def test_simulate_requires_seed_for_sampling(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--context", "1,2",
                           "--shots", "10")
    assert code == 1 and "--seed" in err


def test_simulate_is_json_only(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--context", "1,2",
                           "--format", "csv")
    assert code == 1 and "json" in err


def test_simulate_rejects_non_context(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--context", "1,3")
    assert code == 1 and "not a context" in err


def test_simulate_with_phi_flags(capsys):
    doc = run_json(capsys, "simulate", "--n", "5", "--context", "1,2",
                   "--delta", "0.01", "--phi", "0,1")
    assert doc["delta"] == pytest.approx(0.01)
    assert doc["decoded"]["X_2=1"] != pytest.approx(2 / 3, abs=1e-6)


# ---------------------------------------------------------------------------
# plumbing


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "bounds.json"
    code, out, _ = run_cli(capsys, "bounds", "--n", "5", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 5


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_phi_flags(capsys):
    code, _, err = run_cli(capsys, "simulate", "--n", "5", "--context", "1,2",
                           "--phi", "0,2")
    assert code == 1 and "phi" in err
