import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qccsim import cli
from qccsim.optimize import AngleSolution

COS2_PI8 = math.cos(math.pi / 8) ** 2


def run_cli(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def parse_kv(text):
    result = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        result[key] = value
    return result


# --- exact -------------------------------------------------------------------


def test_exact_epr_optimal_angles(capsys):
    code, out, _ = run_cli(
        ["exact", "--chi", "-45", "--phi1", "-0.19635", "--phi2", "0.58905"], capsys
    )
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.853553) < 1e-5
    assert float(report["difference"]) < 1e-12


def test_exact_product_state(capsys):
    code, out, _ = run_cli(["exact", "--chi", "0", "--phi1", "0", "--phi2", "0"], capsys)
    assert code == 0
    report = parse_kv(out)
    assert float(report["total"]) == 0.75
    assert [float(report[k]) for k in ("p00", "p01", "p10", "p11")] == [1.0, 1.0, 1.0, 0.0]


def test_exact_amplitude_input(capsys):
    code, out, _ = run_cli(
        ["exact", "--alpha", "0.9238795325112867", "--beta", "-0.3826834323650898",
         "--phi1", "0.1", "--phi2", "-0.2"],
        capsys,
    )
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.76328898328267136) < 1e-9


def test_exact_renormalizes_loose_amplitudes(capsys):
    # hand-typed 5-digit decimals pass the CLI normalization check
    code, out, _ = run_cli(
        ["exact", "--alpha", "0.92388", "--beta", "-0.38268", "--phi1", "0.1", "--phi2", "-0.2"],
        capsys,
    )
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["total"]) - 0.76328898328267136) < 1e-4


def test_exact_rejects_positive_beta(capsys):
    code, _, err = run_cli(["exact", "--alpha", "0.8", "--beta", "0.6"], capsys)
    assert code == 2
    assert "error" in err


def test_exact_rejects_conflicting_parameterizations(capsys):
    code, _, _ = run_cli(["exact", "--chi", "-10", "--alpha", "0.9", "--beta", "-0.4"], capsys)
    assert code == 2
    code, _, _ = run_cli(["exact"], capsys)
    assert code == 2
    code, _, _ = run_cli(["exact", "--alpha", "0.8"], capsys)
    assert code == 2


def test_exact_rejects_out_of_domain_chi(capsys):
    code, _, _ = run_cli(["exact", "--chi", "10"], capsys)
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_exact_rejects_non_finite_angles(value, capsys):
    for flag in ("--phi1", "--phi2"):
        # "--flag=value": a bare "-inf" would be read as an option name
        code, out, err = run_cli(["exact", "--chi", "-10", "--format", "json", f"{flag}={value}"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_exact_json(capsys):
    code, out, _ = run_cli(["exact", "--chi", "-45", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["tool"] == "qccsim"
    assert payload["meta"]["command"] == "exact"
    # zero angles leave the state untouched: even parity on 3 of 4 inputs
    assert abs(payload["record"]["total"] - 0.75) < 1e-12


# --- optimal -----------------------------------------------------------------


def test_optimal_epr(capsys):
    code, out, _ = run_cli(["optimal", "--chi", "-45"], capsys)
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["phi1"]) + math.pi / 16) < 1e-9
    assert abs(float(report["phi2"]) - 3 * math.pi / 16) < 1e-9
    assert abs(float(report["p_max"]) - COS2_PI8) < 1e-9
    assert float(report["discrepancy"]) < 1e-9


def test_optimal_product_state(capsys):
    code, out, _ = run_cli(["optimal", "--chi", "0"], capsys)
    assert code == 0
    report = parse_kv(out)
    assert float(report["phi1"]) == 0.0 and float(report["phi2"]) == 0.0
    assert float(report["p_max"]) == 0.75


def test_optimal_half_angle(capsys):
    code, out, _ = run_cli(["optimal", "--chi", "-22.5"], capsys)
    assert code == 0
    report = parse_kv(out)
    assert abs(float(report["p_max"]) - 0.80618621784789724) < 1e-9
    assert float(report["discrepancy"]) < 1e-9


def test_optimal_rejects_out_of_domain(capsys):
    code, _, _ = run_cli(["optimal", "--chi", "5"], capsys)
    assert code == 2


def test_optimal_flags_numeric_regression(capsys, monkeypatch):
    monkeypatch.setattr(cli, "optimal_numeric", lambda pair: AngleSolution(0.0, 0.0, 0.0, 0.5))
    code, _, err = run_cli(["optimal", "--chi", "-45"], capsys)
    assert code == 3
    assert "discrepancy" in err


# --- sweep -------------------------------------------------------------------


def test_sweep_csv_file(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "31", "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 32
    rows = [dict(zip(lines[0].split(","), map(float, line.split(",")))) for line in lines[1:]]
    assert abs(rows[0]["p_max"] - COS2_PI8) < 1e-9
    assert rows[-1]["p_max"] == 0.75
    for row in rows:
        assert row["p_concentration"] <= row["p_max"] + 1e-12
        per_input_mean = (row["p00"] + row["p01"] + row["p10"] + row["p11"]) / 4.0
        assert abs(row["p_max"] - per_input_mean) < 1e-9
        assert abs(row["epsilon"] - abs(math.tan(math.radians(row["chi_deg"])))) < 1e-9
    assert abs(rows[0]["p_concentration"] - rows[0]["p_max"]) < 1e-12


def test_sweep_csv_stdout(capsys):
    code, out, _ = run_cli(["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "2"], capsys)
    assert code == 0
    assert out.startswith(cli.CSV_HEADER + "\n")
    assert out.endswith("\n")


def test_sweep_json_mirrors_csv_fields(capsys):
    code, out, _ = run_cli(
        ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "5", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "sweep"
    assert len(payload["records"]) == 5
    assert set(payload["records"][0]) == set(cli.CSV_HEADER.split(","))


def test_sweep_rejects_bad_flags(capsys):
    code, _, _ = run_cli(["sweep", "--chi-start", "-50", "--chi-end", "0", "--steps", "5"], capsys)
    assert code == 2
    code, _, _ = run_cli(["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "1"], capsys)
    assert code == 2


# --- simulate ----------------------------------------------------------------


def test_simulate_epr(capsys):
    code, out, _ = run_cli(
        ["simulate", "--chi", "-45", "--trials", "20000", "--seed", "42"], capsys
    )
    assert code == 0
    report = parse_kv(out)
    estimate, std_error = float(report["estimate"]), float(report["std_error"])
    assert abs(estimate - COS2_PI8) < 5.0 * std_error
    assert abs(float(report["z_score"])) < 5.0


def test_simulate_product_state_tallies(capsys):
    code, out, _ = run_cli(["simulate", "--chi", "0", "--trials", "100", "--seed", "1"], capsys)
    assert code == 0
    report = parse_kv(out)
    successes, drawn = report["per_input 11"].split("/")
    assert successes == "0"
    assert int(drawn) > 0


def test_simulate_output_is_deterministic(capsys):
    argv = ["simulate", "--chi", "-30", "--trials", "5000", "--seed", "9"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_simulate_rejects_zero_trials(capsys):
    code, _, _ = run_cli(["simulate", "--chi", "0", "--trials", "0"], capsys)
    assert code == 2


def test_simulate_json(capsys):
    code, out, _ = run_cli(
        ["simulate", "--chi", "-15", "--trials", "1000", "--seed", "3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["seed"] == 3
    counts = payload["record"]["per_input_counts"]
    assert set(counts) == {"00", "01", "10", "11"}
    assert sum(n for _, n in counts.values()) == 1000


def test_simulate_json_is_strict_for_unbounded_z(capsys):
    # one trial scores 0 or 1 with zero std_error, never the exact 3/4
    code, out, _ = run_cli(["simulate", "--chi", "0", "--trials", "1", "--format", "json"], capsys)
    assert code == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    record = json.loads(out, parse_constant=reject)["record"]
    assert record["std_error"] == 0.0
    assert record["z_score"] is None


# --- oversized requests ------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", "--chi", "0", "--trials", "1000000000000000"],
    ["sweep", "--chi-start", "-45", "--chi-end", "0", "--steps", "1000000000000000"],
])
def test_oversized_request_exits_1(argv, capsys):
    # 14 and 7 PiB: beyond the 47-bit address space, so numpy refuses at once
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# --- classical ---------------------------------------------------------------


def test_classical_simultaneous(capsys):
    code, out, _ = run_cli(["classical", "--mode", "simultaneous"], capsys)
    assert code == 0
    report = parse_kv(out)
    assert report["best_success_count"] == "12/16"
    assert report["best_probability"] == "3/4"
    assert int(report["protocols_examined"]) == 16 * 16 * 256 * 256


def test_classical_sequential_json(capsys):
    code, out, _ = run_cli(["classical", "--mode", "sequential", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)["record"]
    assert record["best_success_count"] == 12
    assert record["best_probability"] == "3/4"
    assert record["best_probability_float"] == 0.75
    assert len(record["witness"]["msg_bob"]) == 8


def test_classical_rejects_bad_mode(capsys):
    code, _, _ = run_cli(["classical", "--mode", "sideways"], capsys)
    assert code == 2


# --- process-level determinism -------------------------------------------------


def test_module_invocation_is_byte_identical():
    argv = [sys.executable, "-m", "qccsim", "simulate", "--chi", "-45", "--trials", "5000",
            "--seed", "7"]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout  # sanity: produced output
