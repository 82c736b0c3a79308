"""Command-line interface, exercised in process through main(argv)."""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cartanopt.circuit import OpticalCircuit, deserialize, serialize
from cartanopt import cli, linalg
from cartanopt.cli import main
from cartanopt.linalg import dump_matrix, haar_random_unitary, is_unitary, load_matrix

WALK = 0.5 * np.array(
    [[-1, 1, 1, 1], [1, -1, 1, 1], [1, 1, -1, 1], [1, 1, 1, -1]], dtype=complex
)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_matrix(path, M):
    path.write_text(dump_matrix(M))
    return str(path)


def test_random_is_deterministic(capsys):
    code, out1, _ = _run(capsys, ["random", "--dim", "4", "--seed", "7"])
    assert code == 0
    M = load_matrix(out1)
    assert M.shape == (4, 4)
    assert is_unitary(M)
    code, out2, _ = _run(capsys, ["random", "--dim", "4", "--seed", "7"])
    assert code == 0
    assert out1 == out2


def test_random_rejects_unsupported_dim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["random", "--dim", "3", "--seed", "0"])
    assert exc.value.code == 2


def test_compile_walk_with_verification(capsys, tmp_path):
    p = _write_matrix(tmp_path / "walk.json", WALK)
    code, out, err = _run(capsys, ["compile", "--matrix", p, "--convention", "ps"])
    assert code == 0
    circuit = deserialize(out)
    assert len(circuit.elements) == 20
    assert "elements: 20" in err
    assert "baseline ps_csd_swap: 25 -> 20 (delta +5)" in err
    # stdout carries nothing but the circuit document
    json.loads(out)


def test_compile_identity_optimized(capsys, tmp_path):
    p = _write_matrix(tmp_path / "id.json", np.eye(4, dtype=complex))
    code, out, err = _run(
        capsys, ["compile", "--matrix", p, "--convention", "sp", "--optimize"]
    )
    assert code == 0
    assert len(deserialize(out).elements) == 0
    assert "elements: 0" in err


def test_compile_exits_one_when_verification_fails(capsys, tmp_path, monkeypatch):
    # compile always verifies: a failed report is exit 1 with no flag,
    # and the circuit is still written
    real = cli.compile_matrix

    def failing(U, opts):
        circuit, report = real(U, opts)
        return circuit, dataclasses.replace(report, passed=False)

    monkeypatch.setattr(cli, "compile_matrix", failing)
    p = _write_matrix(tmp_path / "walk.json", WALK)
    code, out, err = _run(capsys, ["compile", "--matrix", p, "--convention", "ps"])
    assert code == 1
    assert len(deserialize(out).elements) == 20
    assert "passed=False" in err


def test_compile_linalg_failure_exits_three(capsys, tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError; it must still map to exit 3
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("CSD did not converge")

    monkeypatch.setattr(linalg, "cossin", broken)
    p = _write_matrix(tmp_path / "m.json", haar_random_unitary(4, seed=1))
    code, out, err = _run(capsys, ["compile", "--matrix", p, "--convention", "ps"])
    assert code == 3
    assert out == ""
    assert "numerical failure" in err


def test_compile_rejects_nonunitary(capsys, tmp_path):
    p = _write_matrix(tmp_path / "bad.json", np.ones((4, 4), dtype=complex))
    code, out, err = _run(capsys, ["compile", "--matrix", p, "--convention", "ps"])
    assert code == 2
    assert out == ""
    assert "residual" in err


def test_compile_writes_out_file(capsys, tmp_path):
    p = _write_matrix(tmp_path / "m.json", haar_random_unitary(4, seed=1))
    out_path = tmp_path / "c.json"
    code, out, _ = _run(
        capsys,
        ["compile", "--matrix", p, "--convention", "sp", "--out", str(out_path)],
    )
    assert code == 0
    assert out == ""
    assert len(deserialize(out_path.read_text()).elements) == 20


def test_random_compile_verify_round_trip(capsys, tmp_path):
    cases = [(4, "ps"), (4, "sp"), (8, "sp")]
    for dim, conv in cases:
        for seed in range(5):
            m_path = str(tmp_path / f"m{dim}{conv}{seed}.json")
            c_path = str(tmp_path / f"c{dim}{conv}{seed}.json")
            code = main(["random", "--dim", str(dim), "--seed", str(seed), "--out", m_path])
            assert code == 0
            code = main(
                [
                    "compile",
                    "--matrix",
                    m_path,
                    "--convention",
                    conv,
                    "--out",
                    c_path,
                ]
            )
            assert code == 0
            code, out, _ = _run(capsys, ["verify", "--circuit", c_path, "--matrix", m_path])
            assert code == 0
            rep = json.loads(out)
            assert rep["passed"] is True
            assert rep["distance"] <= 1e-9


def test_simulate_empty_circuit(capsys, tmp_path):
    c = OpticalCircuit(convention="sp", num_spatial_modes=2, elements=())
    p = tmp_path / "empty.json"
    p.write_text(serialize(c))
    code, out, _ = _run(capsys, ["simulate", "--circuit", str(p)])
    assert code == 0
    np.testing.assert_array_equal(load_matrix(out), np.eye(4, dtype=complex))


def test_simulate_rejects_unknown_kind(capsys, tmp_path):
    doc = {
        "version": 1,
        "convention": "sp",
        "spatial_modes": 2,
        "elements": [{"kind": "BS", "modes": [0], "angle_rad": 0.1}],
        "metadata": {},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["simulate", "--circuit", str(p)])
    assert code == 2
    assert "error" in err


def test_verify_mismatch_exits_one(capsys, tmp_path):
    m_path = _write_matrix(tmp_path / "walk.json", WALK)
    c_path = str(tmp_path / "walk_circuit.json")
    assert main(["compile", "--matrix", m_path, "--convention", "ps", "--out", c_path]) == 0
    qft_path = _write_matrix(
        tmp_path / "qft.json",
        0.5
        * np.array(
            [[1, 1, 1, 1], [1, 1j, -1, -1j], [1, -1, 1, -1], [1, -1j, -1, 1j]]
        ),
    )
    code, out, _ = _run(capsys, ["verify", "--circuit", c_path, "--matrix", qft_path])
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["distance"] > 0.3
    # an absurdly loose tolerance flips the verdict
    code, out, _ = _run(
        capsys,
        ["verify", "--circuit", c_path, "--matrix", qft_path, "--tolerance", "10"],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
def test_verify_rejects_nonfinite_tolerance(capsys, tmp_path, tolerance):
    m_path = _write_matrix(tmp_path / "walk.json", WALK)
    c_path = tmp_path / "walk_circuit.json"
    assert main(["compile", "--matrix", m_path, "--convention", "ps", "--out", str(c_path)]) == 0
    # one angle off by 0.5 rad must not pass under any tolerance
    doc = json.loads(c_path.read_text())
    plate = next(e for e in doc["elements"] if e["kind"] != "pbs")
    plate["angle_rad"] += 0.5
    c_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out, err = _run(
        capsys,
        ["verify", "--circuit", str(c_path), "--matrix", m_path, "--tolerance", tolerance],
    )
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("seed", range(3))
def test_compile_meets_a_tolerance_below_angle_tol(capsys, tmp_path, seed):
    # a path-block local gate times expm(i eps H): its off-diagonal blocks
    # are about eps, below the default angle_tol, so a short-cut that drops
    # them at 1e-12 misses --tolerance 1e-13 by about eps
    rng = np.random.default_rng(seed)
    U = np.zeros((4, 4), dtype=complex)
    U[:2, :2] = haar_random_unitary(2, seed)
    U[2:, 2:] = haar_random_unitary(2, seed + 100)
    H = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    w, V = np.linalg.eigh((H + H.conj().T) / 2)
    U = U @ (V * np.exp(3e-13j * w / np.abs(w).max())) @ V.conj().T
    path = _write_matrix(tmp_path / "near_local.json", U)
    code, _, err = _run(
        capsys, ["compile", "--matrix", path, "--convention", "sp", "--tolerance", "1e-13"]
    )
    assert code == 0, err


def test_oversized_integers_are_invalid_input(capsys, tmp_path):
    huge = 10**400
    m_path = tmp_path / "huge.json"
    m_path.write_text(json.dumps({"dim": 4, "entries": [[[huge, 0]] * 4] * 4}))
    code, _, err = _run(capsys, ["compile", "--matrix", str(m_path), "--convention", "sp"])
    assert code == 2
    assert "error" in err
    c_path = tmp_path / "huge_circuit.json"
    c_path.write_text(
        json.dumps(
            {
                "version": 1,
                "convention": "sp",
                "spatial_modes": 2,
                "elements": [{"kind": "hwp", "modes": [0], "angle_rad": huge}],
                "metadata": {},
            }
        )
    )
    code, _, err = _run(capsys, ["simulate", "--circuit", str(c_path)])
    assert code == 2
    assert "error" in err
    w_path = _write_matrix(tmp_path / "walk.json", WALK)
    code, _, err = _run(capsys, ["verify", "--circuit", str(c_path), "--matrix", w_path])
    assert code == 2
    assert "error" in err


def test_deeply_nested_json_is_invalid_input(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    w_path = _write_matrix(tmp_path / "walk.json", WALK)
    for argv in (
        ["compile", "--matrix", str(deep), "--convention", "sp"],
        ["simulate", "--circuit", str(deep)],
        ["verify", "--circuit", str(deep), "--matrix", w_path],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "error" in err


def test_verify_missing_file(capsys, tmp_path):
    m_path = _write_matrix(tmp_path / "walk.json", WALK)
    code, _, err = _run(
        capsys, ["verify", "--circuit", str(tmp_path / "absent.json"), "--matrix", m_path]
    )
    assert code == 2
    assert "error" in err


def test_target_prints_matrix(capsys):
    code, out, _ = _run(capsys, ["target", "--name", "walk", "--convention", "ps"])
    assert code == 0
    np.testing.assert_allclose(load_matrix(out), WALK, atol=1e-15)


def test_target_compile_bundle(capsys):
    code, out, err = _run(
        capsys, ["target", "--name", "walk", "--convention", "ps", "--compile"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"matrix", "circuit", "report"}
    assert doc["report"]["passed"] is True
    assert "hand-drawn reference 11" in err


def test_target_unknown_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["target", "--name", "grover", "--convention", "ps"])
    assert exc.value.code == 2


def test_python_dash_m_runs_the_cli():
    # python -m cartanopt works from a checkout with src on the path,
    # nothing installed
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "cartanopt", "target", "--name", "qft",
            "--convention", "sp", "--compile"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["report"]["passed"]
    assert len(doc["circuit"]["elements"]) == 19
